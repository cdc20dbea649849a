"""vwap, mst and bbo on an order book 2000 orders deep, on every lane.

The queries the ordered key index serves (``repro.codegen.pygen
.ordered_maps``) answer what sqlite answers once the book has filled to
2000 standing orders per side (``lanes.bounded_book``, about 45k events,
applied in windows of 1000) and churned at that depth one event at a
time.  Filling the book takes the interpreted lane tens of seconds, so the
file is not named for tier-1 collection: CI's sqlite-oracle job runs it
(``pytest tests/integration/deep_book.py``).
"""

from functools import lru_cache

import pytest

from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

DEPTH = 2000
CHURN = 1500


@lru_cache(maxsize=None)
def _book() -> tuple:
    """``(fill, churn)``: the events up to both sides holding ``DEPTH``
    orders, and the ``CHURN`` that follow."""
    feed = lanes.bounded_book(2010, DEPTH, 60_000)
    live = {"bids": set(), "asks": set()}
    for index, event in enumerate(feed):
        side = live[event.relation]
        (side.add if event.sign > 0 else side.discard)(event.values)
        if min(map(len, live.values())) >= DEPTH:
            return feed[: index + 1], feed[index + 1 : index + 1 + CHURN]
    raise AssertionError("the book never reached its depth")


@lru_cache(maxsize=None)
def _sqlite(query: str) -> list:
    fill, churn = _book()
    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query])
    oracle.apply_all(fill + churn)
    return oracle.rows()


@pytest.mark.parametrize(
    "query,lane",
    [
        (query, lane)
        for query in ("vwap", "mst", "bbo")
        for lane in lanes.LANES
        if lane in lanes.executors(lanes.shipped_program(query)) + ("unindexed",)
    ],
)
def test_a_deep_book_matches_sqlite(query, lane):
    fill, churn = _book()
    engine = lanes.build_engine(lanes.shipped_program(query), lane)
    lanes.deliver(engine, fill, "stream-1000")
    lanes.deliver(engine, churn, "process")
    assert normalize_rows(engine.results()) == _sqlite(query)
