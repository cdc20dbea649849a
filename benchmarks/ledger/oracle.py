"""The ledger's independent answer: sqlite3 evaluates the SQL from scratch.

Every workload's engines maintain their results incrementally; here the
catalog is mirrored into an in-memory sqlite3 database, the stream's
*net live rows* are loaded, and the defining SQL is run as written.  The
two row sets must be equal after normalisation.  Self-contained on
purpose: the benchmark directory imports ``repro`` and nothing else of
the repository.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.sql.catalog import Catalog, SqlType

_SQLITE_TYPES = {
    SqlType.INT: "INTEGER",
    SqlType.FLOAT: "REAL",
    SqlType.STRING: "TEXT",
}


def normalize_value(value):
    """NULL is the engines' empty aggregate (0); integral floats collapse
    to ints; other floats round past accumulation-order noise."""
    if value is None:
        return 0
    if isinstance(value, float):
        if value == int(value):
            return int(value)
        return round(value, 9)
    return value


def normalize_rows(rows: Iterable[Sequence]) -> list[tuple]:
    return sorted(
        (tuple(normalize_value(value) for value in row) for row in rows),
        key=repr,
    )


def net_live_rows(events: Iterable) -> dict[str, Counter]:
    """The multiset of rows a stream of inserts and deletes leaves live."""
    live: dict[str, Counter] = {}
    for event in events:
        rows = live.setdefault(event.relation, Counter())
        rows[event.values] += event.sign
    for relation, rows in live.items():
        negative = [row for row, weight in rows.items() if weight < 0]
        if negative:
            raise ValueError(
                f"stream deletes a row of {relation!r} it never inserted: "
                f"{negative[0]!r}"
            )
    return live


class SqliteOracle:
    """An in-memory sqlite3 mirror of one catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.connection = sqlite3.connect(":memory:")
        self._arity: dict[str, int] = {}
        for relation in catalog:
            columns = ", ".join(
                f"{column.name} {_SQLITE_TYPES[column.type]}"
                for column in relation.columns
            )
            self.connection.execute(f"CREATE TABLE {relation.name} ({columns})")
            self._arity[relation.name] = len(relation.columns)

    def load(self, relation: str, rows: Iterable[Sequence]) -> None:
        marks = ", ".join("?" * self._arity[relation])
        self.connection.executemany(
            f"INSERT INTO {relation} VALUES ({marks})", rows
        )

    def load_live(self, live: Mapping[str, Counter]) -> None:
        for relation, rows in live.items():
            self.load(relation, rows.elements())

    def clear(self) -> None:
        for relation in self._arity:
            self.connection.execute(f"DELETE FROM {relation}")

    def rows(self, sql: str) -> list[tuple]:
        return normalize_rows(self.connection.execute(sql).fetchall())

    def close(self) -> None:
        self.connection.close()


def mismatches(got: Iterable[Sequence], expected: list[tuple]) -> int:
    """0 when the engine's rows equal the oracle's, else 1 (one failed
    check; the caller counts checks, not rows)."""
    return 0 if normalize_rows(got) == expected else 1
