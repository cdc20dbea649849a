"""All seven finance queries compiled into one program, against sqlite.

``repro serve`` and a multi-view deployment compile their queries into one
program: the queries then share base maps, and one trigger runs the
statements of several queries — bbo's and mst's cache-keeping writes
beside other queries' sums.  Every query's view must still equal what
sqlite computes from the same order book, for the compiled and the
interpreted executor, per event and in batches.
"""

from functools import lru_cache

import pytest

from repro.runtime import DeltaEngine
from repro.runtime.views import result_map_names
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from tests.integration.sql_oracle import SqliteOracle, normalize_rows
from tests.lanes import PYTHON_EXECUTORS, bounded_book, shipped_program

#: Events between two comparisons of every view with sqlite.
CHECK_EVERY = 500


@lru_cache(maxsize=None)
def _expected() -> tuple:
    """Every query's sqlite rows at each checkpoint of the book."""
    oracle = SqliteOracle(finance_catalog(), "SELECT 1")
    checkpoints = []
    events = bounded_book(2009, 20, 3000)
    for start in range(0, len(events), CHECK_EVERY):
        oracle.apply_all(events[start : start + CHECK_EVERY])
        checkpoints.append(
            {
                name: normalize_rows(oracle.connection.execute(sql).fetchall())
                for name, sql in FINANCE_QUERIES.items()
            }
        )
    return events, checkpoints


def test_the_program_shares_triggers():
    """One trigger per relation and sign carries statements of several
    queries (it writes result maps of five of the seven or more), bbo's
    and act's cache-keeping writes among them."""
    program = shipped_program("finance")
    assert len(program.queries) == len(FINANCE_QUERIES) == 7
    assert set(program.slot_aux) == {"bbo", "act"}
    for trigger in program.triggers.values():
        targets = {statement.target for statement in trigger.statements}
        assert targets & set(program.finalizers)
        writers = [
            query.name
            for query in program.queries
            if targets & set(result_map_names(program, query.name))
        ]
        assert len(writers) >= 5


@pytest.mark.parametrize("batch_size", [1, 7, 100])
@pytest.mark.parametrize("mode", PYTHON_EXECUTORS)
def test_shared_finance_program_matches_sqlite(mode, batch_size):
    events, checkpoints = _expected()
    if mode == "interpreted":  # the tree-walker: a shorter stretch
        events = events[: 2 * CHECK_EVERY]
    engine = DeltaEngine(shipped_program("finance"), mode=mode)
    for index, start in enumerate(range(0, len(events), CHECK_EVERY)):
        engine.process_stream(
            events[start : start + CHECK_EVERY], batch_size=batch_size
        )
        for name in FINANCE_QUERIES:
            assert normalize_rows(engine.results(name)) == checkpoints[index][name], (
                f"{name} diverged from sqlite after {start + CHECK_EVERY} events"
            )
