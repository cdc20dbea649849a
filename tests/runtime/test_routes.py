"""``DeltaEngine.process``'s route table: admission decided once per
relation must still answer every event the way :func:`admit` would.

A route is dropped wherever the answer (or the bound triggers) can
change — a tap attached or removed, a re-bind — and never installed for
what must keep going through the generic path: static tables, unknown
relations of a strict engine, deletes compiled out, profiled engines.
"""

import copy

import pytest

from repro.compiler import compile_sql
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, delete, insert
from repro.runtime.profiler import Profiler
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator

GROUPED = "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id"


@pytest.fixture(scope="module")
def program():
    # axf keeps secondary indexes, which a stale binding would not rebuild.
    return compile_sql(FINANCE_QUERIES["axf"], finance_catalog(), name="q")


def _feed(seed=2009, count=240):
    return list(OrderBookGenerator(seed=seed).events(count))


def _engine_after(program, events, **kwargs):
    engine = DeltaEngine(program, **kwargs)
    for event in events:
        engine.process(event)
    return engine


def test_a_routed_relation_skips_admission_and_an_unread_one_is_counted():
    program = compile_sql(FINANCE_QUERIES["vwap"], finance_catalog(), name="q")
    engine = _engine_after(program, _feed())
    assert set(engine._routes) == {"bids", "asks"}  # vwap reads bids only
    assert engine._routes["bids"][1] is engine._signed["bids"][1]
    assert not engine._routes["asks"]


def test_a_listener_added_after_routes_exist_sees_every_later_event(program):
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    assert engine._routes
    seen = []

    def listener(lsn, batch):
        seen.append((batch.relation, batch.sign, list(batch.rows)))

    engine.add_batch_listener(listener)
    for event in feed[100:150]:
        engine.process(event)
    assert seen == [(e.relation, e.sign, [e.values]) for e in feed[100:150]]
    engine.remove_batch_listener(listener)
    for event in feed[150:]:
        engine.process(event)
    assert len(seen) == 50
    assert engine._routes  # re-installed once the tap is gone
    assert repr(engine.maps) == repr(_engine_after(program, feed).maps)


def test_watch_results_after_routes_exist_writes_the_watched_maps(program):
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    watch = engine.watch_results(["q"])
    assert watch["q"] == set()
    for event in feed[100:]:
        engine.process(event)
    assert watch["q"]
    assert repr(engine.maps) == repr(_engine_after(program, feed).maps)


def test_restore_state_after_routes_exist_runs_the_rebound_triggers(program):
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    snapshot = {name: dict(contents) for name, contents in engine.maps.items()}
    for event in feed[100:200]:
        engine.process(event)
    engine.restore_state(snapshot, events_processed=100)
    for event in feed[100:]:
        engine.process(event)
    assert repr(engine.maps) == repr(_engine_after(program, feed).maps)


def test_a_deep_copy_after_routes_exist_writes_only_its_own_maps(program):
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    clone = copy.deepcopy(engine)
    for event in feed[100:]:
        clone.process(event)
    assert repr(engine.maps) == repr(_engine_after(program, feed[:100]).maps)
    assert repr(clone.maps) == repr(_engine_after(program, feed).maps)
    for event in feed[100:]:
        engine.process(event)
    assert repr(engine.maps) == repr(clone.maps)
    assert engine.events_processed == clone.events_processed == len(feed)


def test_a_static_load_after_the_stream_started_raises_on_every_event():
    catalog = Catalog.from_script(
        "CREATE TABLE dim (k int, v int);"
        "CREATE TABLE unread (k int);"
        "CREATE STREAM fact (k int, x int);"
    )
    engine = DeltaEngine(compile_sql(
        "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k", catalog
    ))
    engine.insert("dim", 1, 2)  # before the stream: a load
    assert not engine._routes
    for x in (10, 20, 30):
        engine.insert("fact", 1, x)
    engine.insert("unread", 1)  # no query reads it: skipped, at any time
    assert set(engine._routes) == {"fact", "unread"}
    for _ in range(3):
        with pytest.raises(EventError, match="processing has started"):
            engine.insert("dim", 2, 3)
    assert engine.result_scalar() == 120
    assert engine.events_skipped == 1


def test_a_strict_engine_raises_on_every_event_of_an_unknown_relation():
    engine = DeltaEngine(compile_sql(GROUPED, finance_catalog()), strict=True)
    engine.insert("bids", 1, 1, 7, 100, 5)
    engine.insert("bids", 2, 2, 7, 100, 5)
    for _ in range(3):
        with pytest.raises(UnknownStreamError, match="'asks'"):
            engine.insert("asks", 1, 1, 7, 100, 5)
    assert "asks" not in engine._routes
    assert (engine.events_processed, engine.events_skipped) == (2, 0)


def test_a_profiled_engine_counts_every_event():
    profiler = Profiler()
    engine = DeltaEngine(compile_sql(GROUPED, finance_catalog()), profiler=profiler)
    for event in (insert("bids", 1, 1, 7, 100, 5), insert("bids", 2, 2, 7, 9, 5),
                  delete("bids", 1, 1, 7, 100, 5)):
        engine.process(event)
    assert not engine._routes
    assert profiler.events_by_trigger == {"+bids": 2, "-bids": 1}


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
@pytest.mark.parametrize("query", ["vwap", "bsp"])
def test_process_equals_one_row_batches(query, mode):
    """A fixed finance feed through ``process`` and through one-row
    ``process_batch`` calls: same maps (insertion order included), same
    counters — vwap reads bids only, so its asks are skipped."""
    program = compile_sql(FINANCE_QUERIES[query], finance_catalog(), name="q")
    feed = _feed(seed=424242, count=800)
    routed = _engine_after(program, feed, mode=mode)
    batched = DeltaEngine(program, mode=mode)
    for event in feed:
        batched.process_batch(event.relation, event.sign, [event.values])
    assert repr(routed.maps) == repr(batched.maps)
    assert routed.events_processed == batched.events_processed
    assert routed.events_skipped == batched.events_skipped
    assert routed.events_skipped == (
        sum(event.relation == "asks" for event in feed) if query == "vwap" else 0
    )
    assert routed.results("q") == batched.results("q")
