"""Batched and sharded engines leave exactly the maps per-event processing
leaves, on every lane of ``tests/lanes.py``.

* Random streams (hypothesis): R/S/T streams over ``lanes.RST_QUERIES``,
  and order books over vwap, mst and psp (the second-order batch sink)
  and bbo and act (batches append Finalize blocks).  Each lane runs the
  stream per event, through ``process_stream`` at a drawn batch size, and
  behind 1–4 in-process shards at that size; every run must hold the
  per-event compiled engine's entries (``repr`` of each key and value),
  results, ``events_processed`` and ``events_skipped``.
* The shipped feeds: each at every batch size and shard count the suites
  before this one used, one test per (feed, lane, delivery).  A run at
  window ``k`` applies each window one relation after another, so it is
  ``repr``-equal, insertion order included, to the same lane's per-event
  run over ``flatten(batches(feed, k))`` (a forked run to the in-process
  one; entry-equal for a map a pre-aggregating trigger writes:
  ``lanes.batch_identity``), and its entries (``lanes.exact_items``), results and counters
  equal the lane's per-event run in stream order.  Every lane's
  per-event entries and results equal the compiled engine's, which equal
  sqlite's; and the 11 shipped queries and the four-view SSB program
  answer what sqlite answers after every window.

Engines are built once per (program, lane) and emptied for each run:
building one per run made this file take 21-25 s instead of 12-13 s.
The first run of each pair, and every sqlite suite, builds afresh.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime import StreamEvent
from repro.runtime.engine import EMPTY_STATE
from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.ssb import SSB_FLIGHT
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows
from tests.strategies import events

_ENGINES: dict = {}


def _empty(program, lane):
    key = (id(program), lane)
    if key not in _ENGINES:  # holding the program keeps its id
        if lane.startswith("forked"):
            _close_forked()  # one forked engine's workers alive at a time
        _ENGINES[key] = (program, lanes.build_engine(program, lane))
    engine = _ENGINES[key][1]
    engine.restore_state(EMPTY_STATE)
    return engine


def _close_forked():
    for key in [key for key in _ENGINES if key[1].startswith("forked")]:
        _ENGINES.pop(key)[1].close()


@pytest.fixture(autouse=True, scope="module")
def _close_forked_workers():
    """A forked lane holds worker processes: none outlives this module."""
    yield
    _close_forked()


def _state(engine) -> tuple:
    counts = (engine.events_processed, engine.events_skipped)
    return lanes.exact_items(engine.current_maps()), engine.results(), counts


def _assert_lane_matches(program, lane, feed, batch_size, shards):
    reference = _empty(program, "compiled")
    lanes.deliver(reference, feed, "process")
    expected = _state(reference)
    delivery = f"stream-{batch_size}" if batch_size else "stream"
    runs = [(lane, "process")] if lane != "compiled" else []
    for run in runs + [(lane, delivery), (f"{lane}/{shards}", delivery)]:
        engine = _empty(program, run[0])
        lanes.deliver(engine, feed, run[1])
        assert _state(engine) == expected, run


#: The shapes the compiled executor also runs without secondary indexes.
UNINDEXED = ("chain_join", "grouped", "exists_correlated")


@pytest.mark.parametrize(
    "shape,lane",
    lanes.matrix({q: lambda q=q: lanes.rst_program(q) for q in lanes.RST_QUERIES})
    + [(shape, "unindexed") for shape in UNINDEXED],
)
@settings(max_examples=25, deadline=None)
@given(
    stream=st.lists(events(), max_size=40),
    batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    shards=st.integers(min_value=1, max_value=4),
)
def test_random_streams(shape, lane, stream, batch_size, shards):
    program, feed = lanes.rst_program(shape), lanes.rst_stream(shape, stream)
    _assert_lane_matches(program, lane, feed, batch_size, shards)


#: A short order-book stream of inserts and deletes; a delete need not
#: match an insert (GMR multiplicities are closed under deletion).
_SMALL = st.integers(min_value=0, max_value=4)
BOOK_EVENTS = st.lists(
    st.builds(
        StreamEvent,
        st.sampled_from(["bids", "asks"]),
        st.sampled_from([1, -1]),
        # ids, broker, price, volume
        st.tuples(_SMALL, _SMALL, _SMALL, st.integers(0, 20), st.integers(0, 10)),
    ),
    max_size=30,
)


def _finance(query):
    return lanes.shipped_program(query, query)


#: The self-reading queries and the non-linear ones.
BOOK_QUERIES = ("vwap", "mst", "psp", "bbo", "act")


@pytest.mark.parametrize(
    "query,lane", lanes.matrix({q: lambda q=q: _finance(q) for q in BOOK_QUERIES})
)
@settings(max_examples=15, deadline=None)
@given(
    stream=BOOK_EVENTS,
    batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    shards=st.integers(min_value=1, max_value=4),
)
def test_random_books(query, lane, stream, batch_size, shards):
    _assert_lane_matches(_finance(query), lane, stream, batch_size, shards)


#: name -> (batch sizes, lanes).
WORKLOADS = {
    **{
        query: (
            (1, 7, 13, 37, 64, 100, 1000, None),
            (*lanes.executors(_finance(query)), "compiled/2", "compiled/4", "forked/2"),
        )
        for query in FINANCE_QUERIES
    },
    "ssb": ((1, 7, 100), ("compiled", "compiled/2", "forked/2")),
    "q41": ((1, 13, 128, 1000, None), ("compiled", "compiled/4")),
    **{query: ((100, 1000), ("compiled",)) for query in ("q11", "q21", "q31")},
}


def _run(name, lane, delivery, order="process") -> tuple:
    """``(maps by lanes.batch_identity, entries, {view: results},
    events_processed)`` once
    the workload's tables and feed reached ``lane`` by ``delivery``, the
    feed put first in the order ``order`` applies it
    (:func:`lanes.applied_order`)."""
    program, _, views, static, feed = lanes.workload(name)
    engine = _empty(program, lane)
    for relation, rows in static.items():
        engine.load(relation, rows)
    lanes.deliver(engine, lanes.applied_order(feed, order), delivery)
    maps = engine.current_maps()
    results = {view: engine.results(view) for view in views}
    identity = lanes.batch_identity(program)
    return identity(maps), lanes.exact_items(maps), results, engine.events_processed


@lru_cache(maxsize=None)
def _per_event(name, lane, order="process"):
    return _run(name, lane.replace("forked", "compiled"), "process", order)


@pytest.mark.parametrize(
    "name,lane,delivery",
    [
        (name, lane, delivery)
        for name, (sizes, shipped) in WORKLOADS.items()
        for lane in shipped
        # a forked lane's per-event run is the in-process one's
        for delivery in ("process",) * (not lane.startswith("forked"))
        + tuple(f"stream-{n}" if n else "stream" for n in sizes)
    ],
)
def test_shipped_feeds(name, lane, delivery):
    """``process``: the compiled engine's per-event run equals sqlite, and
    another lane's equals the compiled one's.  ``stream[-n]``: the lane
    fed in windows of ``n`` equals its own per-event run over the
    regrouped order, and in entries, results and counters the one in
    stream order."""
    per_event = _per_event(name, lane)
    if delivery == "process":
        if lane == "compiled":
            for view, expected in lanes.sqlite_results(name).items():
                assert normalize_rows(per_event[2][view]) == expected, view
        else:
            assert per_event[1:] == _per_event(name, "compiled")[1:]
        return
    got = _run(name, lane, delivery)
    # Insertion order too, except in a map a pre-aggregating trigger
    # writes.
    assert got[0] == _per_event(name, lane, delivery)[0]
    assert got[1:] == per_event[1:]


#: The 11 shipped queries alone and the four-view SSB program -> window
#: sizes.  A query alone streams its dimension rows ahead of 3,765 facts.
SHIPPED_WINDOWS = {
    **{query: (7, 100) for query in FINANCE_QUERIES},
    "ssb": (7, 100),
    **{query: (100, 1000) for query in SSB_FLIGHT},
}


@pytest.mark.parametrize(
    "name,size",
    [(name, size) for name, sizes in SHIPPED_WINDOWS.items() for size in sizes],
)
def test_shipped_windows_match_sqlite(name, size):
    """``process_stream`` one window at a time answers, after every
    window, what sqlite answers over the same prefix of the feed."""
    program, catalog, views, static, feed = lanes.workload(name)
    engine = lanes.build_engine(program)
    oracle = SqliteOracle(catalog, "")
    for relation, rows in static.items():
        engine.load(relation, rows)
        oracle.apply_all(StreamEvent(relation, 1, row) for row in rows)
    for start in range(0, len(feed), size):
        window = feed[start:start + size]
        assert engine.process_stream(window, size) == len(window)
        oracle.apply_all(window)
        for view, sql in views.items():
            expected = normalize_rows(oracle.connection.execute(sql).fetchall())
            assert normalize_rows(engine.results(view)) == expected, (view, start)
