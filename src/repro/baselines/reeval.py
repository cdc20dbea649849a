"""Full re-evaluation baseline: the conventional-DBMS model, in sqlite3.

A standing query answered by a conventional engine is refreshed by
re-running the whole query; this engine does exactly that in an
in-memory sqlite3 database after every update (``refresh="eager"``) or
on demand (``refresh="lazy"``, the favourable-to-the-baseline variant
used when benchmarking pure update cost).

Its storage, :class:`SqliteMirror`, is also the test suites' oracle
(``tests/integration/sql_oracle.py``), so one SQL engine is both the
bakeoff's bar and the judge of every engine's answers.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Optional, Sequence

from repro.errors import EventError, UnsupportedQueryError
from repro.sql.ast import Arith, walk
from repro.sql.binder import bind_query
from repro.sql.catalog import Catalog, SqlType
from repro.sql.parser import parse_query
from repro.runtime.events import EventBatch, StreamEvent, batches

_SQLITE_TYPES = {
    SqlType.INT: "INTEGER",
    SqlType.FLOAT: "REAL",
    SqlType.STRING: "TEXT",
}


class SqliteMirror:
    """A catalog's relations as the tables of an in-memory sqlite3
    database, fed the engines' events: an insert adds a row, a delete
    removes exactly one live copy of its row (by ``rowid``)."""

    def __init__(self, catalog: Catalog) -> None:
        self.connection = sqlite3.connect(":memory:")
        # relation (lower-cased) -> (arity, INSERT, one-row DELETE)
        self._statements: dict[str, tuple[int, str, str]] = {}
        for relation in catalog:
            name, names = relation.name, relation.column_names
            columns = ", ".join(
                f"{c.name} {_SQLITE_TYPES[c.type]}" for c in relation.columns
            )
            self.connection.execute(f"CREATE TABLE {name} ({columns})")
            marks = ", ".join("?" for _ in names)
            match = " AND ".join(f"{column} = ?" for column in names)
            self._statements[name.lower()] = (
                len(names),
                f"INSERT INTO {name} VALUES ({marks})",
                f"DELETE FROM {name} WHERE rowid IN "
                f"(SELECT rowid FROM {name} WHERE {match} LIMIT 1)",
            )

    def __deepcopy__(self, memo: dict) -> "SqliteMirror":
        """An independent copy: the database is backed up into a fresh
        ``:memory:`` connection (the statement table is shared)."""
        clone = type(self).__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.connection = sqlite3.connect(":memory:")
        self.connection.commit()  # no backup completes past an open write
        self.connection.backup(clone.connection)
        memo[id(self)] = clone
        return clone

    def apply(self, event: StreamEvent) -> None:
        """Replay one event; deleting a row that is not live raises."""
        try:
            arity, insert, delete = self._statements[event.relation.lower()]
        except KeyError:
            raise EventError(f"unknown relation {event.relation!r}") from None
        if len(event.values) != arity:
            raise EventError(
                f"arity mismatch on {event.relation}: {event.values!r}"
            )
        if event.sign == 1:
            self.connection.execute(insert, event.values)
        elif self.connection.execute(delete, event.values).rowcount != 1:
            raise EventError(
                f"delete of absent tuple from {event.relation}: {event.values!r}"
            )

    def distinct_rows(self) -> int:
        """Distinct live rows across every table."""
        return sum(
            self.connection.execute(
                f"SELECT COUNT(*) FROM (SELECT DISTINCT * FROM {name})"
            ).fetchone()[0]
            for name in self._statements
        )


class ReevalEngine:
    """Re-executes every registered query per update (or per read)."""

    name = "reeval"

    def __init__(
        self,
        queries: dict[str, str],
        catalog: Catalog,
        refresh: str = "eager",
    ) -> None:
        if refresh not in ("eager", "lazy"):
            raise EventError(f"unknown refresh policy {refresh!r}")
        for name, sql in queries.items():
            query = bind_query(parse_query(sql), catalog).query
            if any(
                isinstance(node, Arith) and node.op == "/" for node in walk(query)
            ):
                # sqlite divides integers as integers and x/0 as NULL; the
                # query surface's "/" is true division with x/0 = 0.
                raise UnsupportedQueryError(
                    f"query {name!r} divides: sqlite's '/' is not the "
                    "query surface's, so the re-evaluation baseline "
                    "refuses it"
                )
        self.catalog = catalog
        self.refresh = refresh
        self.queries = dict(queries)
        self.db = SqliteMirror(catalog)
        self._cached: dict[str, list[tuple]] = {}
        self.events_processed = 0

    def process(self, event: StreamEvent) -> None:
        self.db.apply(event)
        self.events_processed += 1
        if self.refresh == "eager":
            self._refresh()

    def process_batch(self, relation: str, sign, rows: Sequence[Sequence]) -> int:
        """Apply a run of rows (``sign``: ``+1``/``-1`` or a per-row
        weight column), then refresh once.

        The legitimate batch optimisation for a re-evaluating DBMS: the
        standing query is re-run per *batch* instead of per event, so the
        bakeoff's batched comparisons stay apples-to-apples.
        """
        events = list(EventBatch(relation, sign, rows))
        for event in events:
            self.db.apply(event)
        self.events_processed += len(events)
        if self.refresh == "eager" and events:
            self._refresh()
        return len(events)

    def process_stream(
        self, events: Iterable, batch_size: Optional[int] = 1
    ) -> int:
        """Default ``batch_size=1`` preserves this baseline's defining
        semantics — a refresh per update; pass a larger size only for
        explicitly batched comparisons."""
        count = 0
        for batch in batches(events, batch_size):
            self.process_batch(batch.relation, batch.sign, batch.rows)
            count += len(batch.rows)
        return count

    def _execute(self, name: str) -> list[tuple]:
        """Run one query; sqlite's NULL (an empty aggregate) reads as 0,
        as the engines render it, and rows come sorted by ``repr``."""
        rows = self.db.connection.execute(self.queries[name]).fetchall()
        return sorted(
            (tuple(0 if value is None else value for value in row) for row in rows),
            key=repr,
        )

    def _refresh(self) -> None:
        for name in self.queries:
            self._cached[name] = self._execute(name)

    def insert(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, 1, tuple(values)))

    def delete(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, -1, tuple(values)))

    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        name = self._resolve_name(query_name)
        if self.refresh == "eager" and name in self._cached:
            return self._cached[name]
        return self._execute(name)

    def result_scalar(self, query_name: Optional[str] = None):
        rows = self.results(query_name)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise EventError("result_scalar requires a scalar single-item query")
        return rows[0][0]

    def total_entries(self) -> int:
        """Live state size: base-table rows (distinct) across relations."""
        return self.db.distinct_rows()

    def _resolve_name(self, query_name: Optional[str]) -> str:
        if query_name is not None:
            if query_name not in self.queries:
                raise EventError(f"unknown query {query_name!r}")
            return query_name
        if len(self.queries) != 1:
            raise EventError("query_name required with multiple queries")
        return next(iter(self.queries))
