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

from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries
from repro.runtime import DeltaEngine, StreamEvent
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

#: Events between two comparisons of every view with sqlite.
CHECK_EVERY = 500


def bounded_book(seed: int, depth: int, count: int) -> list[StreamEvent]:
    """Order-book traffic whose sides never hold more than ``depth``
    orders: an insert past it deletes that side's oldest order, and the
    generator's cancels of orders no longer standing are dropped."""
    live: dict[str, dict] = {"bids": {}, "asks": {}}
    events: list[StreamEvent] = []
    for event in OrderBookGenerator(seed=seed).events(1 << 62):
        book = live[event.relation]
        order_id = event.values[1]
        if event.sign > 0:
            book[order_id] = event.values
            events.append(event)
            if len(book) > depth:
                oldest = book.pop(next(iter(book)))
                events.append(StreamEvent(event.relation, -1, oldest))
        elif book.get(order_id) == event.values:
            del book[order_id]
            events.append(event)
        if len(events) >= count:
            return events[:count]
    raise AssertionError("unreachable: the generator never ends")


@lru_cache(maxsize=None)
def _program():
    catalog = finance_catalog()
    return compile_queries(
        [translate_sql(sql, catalog, name=name) for name, sql in FINANCE_QUERIES.items()],
        catalog,
    )


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
    queries, bbo's and act's cache-keeping writes among them."""
    program = _program()
    assert len(program.queries) == len(FINANCE_QUERIES) == 7
    assert set(program.slot_aux) == {"bbo", "act"}
    for trigger in program.triggers.values():
        targets = {statement.target for statement in trigger.statements}
        assert targets & set(program.finalizers)
        assert len(targets) > 10


@pytest.mark.parametrize("batch_size", [1, 7, 100])
@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
def test_shared_finance_program_matches_sqlite(mode, batch_size):
    events, checkpoints = _expected()
    if mode == "interpreted":  # the tree-walker: a shorter stretch
        events = events[: 2 * CHECK_EVERY]
    engine = DeltaEngine(_program(), mode=mode)
    for index, start in enumerate(range(0, len(events), CHECK_EVERY)):
        engine.process_stream(
            events[start : start + CHECK_EVERY], batch_size=batch_size
        )
        for name in FINANCE_QUERIES:
            assert normalize_rows(engine.results(name)) == checkpoints[index][name], (
                f"{name} diverged from sqlite after {start + CHECK_EVERY} events"
            )
