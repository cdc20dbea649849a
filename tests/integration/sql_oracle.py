"""sqlite3 differential-testing oracle for the delta engines.

The engines maintain query results incrementally; sqlite3 re-evaluates
the defining SQL from scratch over the accumulated table contents.  Any
divergence — group appearance/disappearance, MIN/MAX re-derivation after
an extremum delete, DISTINCT multiplicity crossings, float rendering —
surfaces as a normalised-row mismatch at a batch boundary.

Pieces:

* :class:`SqliteOracle` — the catalog mirror the re-evaluation baseline
  runs on (:class:`~repro.baselines.reeval.SqliteMirror`: an in-memory
  sqlite3 database replaying the same insert/delete stream), plus the
  query's SQL evaluated directly and normalised;
* :func:`oracle_stream` — random insert/delete streams that only ever
  delete live rows (sqlite has no Z-set negative multiplicities), with an
  optional bias towards deleting the current extremum of a column (the
  MIN/MAX eviction/re-derive path);
* :func:`run_differential` — drives a stream through an engine and the
  oracle in lockstep, asserting repr-normalised parity at every batch
  boundary.

Used by ``tests/integration/test_sql_oracle.py``; see
``docs/ARCHITECTURE.md`` (testing notes) for how this harness relates to
the calculus oracle in ``test_engine_vs_oracle.py``.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional, Sequence

from repro.baselines.reeval import SqliteMirror
from repro.runtime import StreamEvent
from repro.sql.catalog import Catalog


def normalize_value(value):
    """Canonical scalar: NULL becomes 0 (the engines' empty-aggregate
    rendering), integral floats collapse to ints (sqlite SUM of an INTEGER
    column is an int, engine ring sums may be floats), other floats are
    rounded past any accumulation-order noise."""
    if value is None:
        return 0
    if isinstance(value, float):
        if value == int(value):
            return int(value)
        return round(value, 9)
    return value


def normalize_rows(rows: Sequence[Sequence]) -> list[tuple]:
    """Rows as a canonical sorted list of normalised tuples."""
    return sorted(
        (tuple(normalize_value(v) for v in row) for row in rows), key=repr
    )


class SqliteOracle(SqliteMirror):
    """The sqlite3 catalog mirror the re-evaluation baseline runs on, read
    back through one query's SQL, normalised."""

    def __init__(self, catalog: Catalog, sql: str) -> None:
        super().__init__(catalog)
        self.sql = sql

    def apply_all(self, events) -> None:
        for event in events:
            self.apply(event)

    def rows(self) -> list[tuple]:
        return normalize_rows(self.connection.execute(self.sql).fetchall())


def oracle_stream(
    relations: Mapping[str, int],
    steps: int,
    seed: int,
    domain: int = 5,
    attack: Optional[Mapping[str, int]] = None,
) -> list[StreamEvent]:
    """A random stream over ``{relation: arity}`` deleting only live rows.

    Small ``domain`` forces duplicate values (DISTINCT multiplicity
    transitions, extremum ties).  ``attack`` maps a relation to a column
    index: deletions on it preferentially remove the live row holding that
    column's current minimum or maximum, hammering the MIN/MAX
    eviction/re-derivation path.
    """
    rng = random.Random(seed)
    names = sorted(relations)
    live: dict[str, list[tuple]] = {name: [] for name in names}
    events: list[StreamEvent] = []
    for _ in range(steps):
        name = rng.choice(names)
        rows = live[name]
        if rows and rng.random() < 0.45:
            if attack and name in attack and rng.random() < 0.6:
                column = attack[name]
                pick = max if rng.random() < 0.5 else min
                row = pick(rows, key=lambda r: r[column])
                rows.remove(row)
            else:
                row = rows.pop(rng.randrange(len(rows)))
            events.append(StreamEvent(name, -1, row))
        else:
            row = tuple(
                rng.randint(0, domain) for _ in range(relations[name])
            )
            rows.append(row)
            events.append(StreamEvent(name, 1, row))
    return events


def assert_rows_match(engine, oracle: SqliteOracle, query_name="q", context=""):
    got = normalize_rows(engine.results(query_name))
    expected = oracle.rows()
    assert got == expected, (
        f"engine diverged from sqlite oracle{context}:\n"
        f"  engine {got}\n  sqlite {expected}"
    )


def run_differential(
    engine,
    oracle: SqliteOracle,
    events: Sequence[StreamEvent],
    batch_size: int = 1,
    query_name: str = "q",
) -> None:
    """Drive ``events`` through both sides, checking every batch boundary."""
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        engine.process_stream(chunk, batch_size=batch_size)
        oracle.apply_all(chunk)
        assert_rows_match(
            engine,
            oracle,
            query_name,
            context=(
                f" after {start + len(chunk)} events "
                f"(batch_size={batch_size})"
            ),
        )
