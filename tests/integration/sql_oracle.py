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
  query's SQL evaluated directly and normalised by the ledger oracle's
  :func:`normalize_rows` (one rule for the tests and the benchmarks);
* :func:`oracle_stream` — random insert/delete streams that only ever
  delete live rows (sqlite has no Z-set negative multiplicities), with an
  optional bias towards deleting the current extremum of a column (the
  MIN/MAX eviction/re-derive path);
* :func:`run_differential` — drives a stream through an engine and the
  oracle in lockstep, asserting repr-normalised parity at every batch
  boundary.

sqlite is the tests' one result oracle: ``test_sql_oracle.py``,
``test_engine_vs_oracle.py`` and the shipped-feed parity suites judge
engine results by it (``docs/ARCHITECTURE.md``, testing notes).  The
module also holds the two-book schema (``BOOKS``) and the narrowed
base-map shapes those suites share.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from benchmarks.ledger.oracle import normalize_rows
from repro.baselines.reeval import SqliteMirror
from repro.compiler import compile_sql
from repro.runtime import StreamEvent
from repro.sql.catalog import Catalog


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


#: The two-book schema the sqlite shapes read.
BOOKS = Catalog.from_script(
    """
    CREATE STREAM bids (broker_id int, price int, volume int);
    CREATE STREAM asks (broker_id int, price int, volume int);
    """
)

_EXISTS = (
    "SELECT sum(b.volume) FROM bids b WHERE {negate}EXISTS "
    "(SELECT a.broker_id FROM asks a WHERE {test})"
)

#: name -> (sql, reads an extremum cache).  The threshold tests cover the
#: four operators, an arithmetic bound and a bound written on the left;
#: the rest are shapes the narrowing reshapes but no extremum can answer.
NARROWED_QUERIES = {
    "exists_le": (_EXISTS.format(negate="", test="a.price <= b.price"), True),
    "exists_lt": (_EXISTS.format(negate="", test="a.price < b.price"), True),
    "exists_ge": (_EXISTS.format(negate="", test="a.price >= b.price"), True),
    "exists_gt_arith": (
        _EXISTS.format(negate="", test="a.price > 2 * b.price - 3"), True
    ),
    "exists_bound_on_the_left": (
        _EXISTS.format(negate="", test="b.price + 1 >= a.price"), True
    ),
    "not_exists": (
        _EXISTS.format(negate="NOT ", test="a.price <= b.price"), True
    ),
    "grouped_exists": (
        "SELECT b.broker_id, sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT a.broker_id FROM asks a WHERE a.price <= b.price) "
        "GROUP BY b.broker_id",
        True,
    ),
    "exists_eq_correlated": (
        _EXISTS.format(
            negate="", test="a.broker_id = b.broker_id AND a.price <= b.price"
        ),
        False,
    ),
    "exists_self": (
        "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT b2.broker_id FROM bids b2 WHERE b2.price < b.price)",
        False,
    ),
    "in_select_expr": (
        "SELECT sum(b.volume) FROM bids b "
        "WHERE b.price IN (SELECT a.price + 1 FROM asks a)",
        False,
    ),
    "self_join_inequality": (
        "SELECT sum(b1.volume * b2.volume) FROM bids b1, bids b2 "
        "WHERE b1.price < b2.price",
        False,
    ),
}


@lru_cache(maxsize=None)
def narrowed_program(query_name: str):
    return compile_sql(NARROWED_QUERIES[query_name][0], BOOKS, name="q")
