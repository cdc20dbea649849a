"""``DeltaEngine.process``'s route table: admission decided once per
relation must still answer every event the way :func:`admit` would.

A route is dropped wherever the bound triggers change — a re-bind — and
rebuilt when a batch listener is attached or removed, and never
installed for what must keep going through the generic path: static
tables and unknown relations of a strict engine.  A
one-row ``process_batch`` takes the route too, but only for an ``int``
sign of 1 or -1: any other sign gets the batch path's answer.
"""

import copy

import pytest

from repro.compiler import compile_sql
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, delete, insert
from repro.runtime.engine import engine_state
from repro.runtime.profiler import Profiler
from repro.sql.catalog import Catalog
from repro.workloads.finance import finance_catalog
from tests.lanes import PYTHON_EXECUTORS, order_book, shipped_program

GROUPED = "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id"


@pytest.fixture(scope="module")
def program():
    # axf keeps secondary indexes, which a stale binding would not rebuild.
    return shipped_program("axf")


def _feed(seed=2009, count=240):
    return order_book(seed, count)


def _engine_after(program, events, **kwargs):
    engine = DeltaEngine(program, **kwargs)
    for event in events:
        engine.process(event)
    return engine


def test_a_routed_relation_skips_admission_and_an_unread_one_is_counted():
    program = shipped_program("vwap")
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
    routed = set(engine._routes)
    for event in feed[100:150]:
        engine.process(event)
        # An observed relation keeps its route: entries that notify.
        assert set(engine._routes) == routed
        assert engine._routes[event.relation][1] is not engine._signed[
            event.relation
        ][1]
    assert seen == [(e.relation, e.sign, [e.values]) for e in feed[100:150]]
    engine.remove_batch_listener(listener)
    for event in feed[150:]:
        engine.process(event)
    assert len(seen) == 50
    # Back to the bound triggers once the tap is gone.
    assert all(engine._routes[r][1] is engine._signed[r][1] for r in routed)
    assert repr(engine.maps) == repr(_engine_after(program, feed).maps)


def test_watch_results_after_routes_exist_writes_the_watched_maps():
    # A bids event reads this view's group from the asks map: its result
    # maps record (an event-keyed view's would stay plain dicts).
    program = compile_sql(
        "SELECT a.price, sum(b.volume) FROM bids b, asks a "
        "WHERE b.broker_id = a.broker_id GROUP BY a.price",
        finance_catalog(),
        name="q",
    )
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    ((touched, columns),) = engine.watch_results(["q"]).values()
    assert touched == set() and columns is None
    for event in feed[100:]:
        engine.process(event)
    assert touched
    assert repr(engine.maps) == repr(_engine_after(program, feed).maps)


def test_restore_state_after_routes_exist_runs_the_rebound_triggers(program):
    feed = _feed()
    engine = _engine_after(program, feed[:100])
    snapshot = engine_state(engine)
    for event in feed[100:200]:
        engine.process(event)
    engine.restore_state(snapshot)
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


def test_a_profiled_engine_keeps_its_routes():
    """A profiler is a batch listener: its engine routes from the first
    event on, through the observed entries, and plain ones once the
    profiler is detached."""
    profiler = Profiler()
    engine = DeltaEngine(compile_sql(GROUPED, finance_catalog()))
    engine.add_batch_listener(profiler.on_batch)
    engine.process(insert("bids", 1, 1, 7, 100, 5))
    assert engine._routes["bids"][1] is not engine._signed["bids"][1]
    for event in (insert("bids", 2, 2, 7, 9, 5), delete("bids", 1, 1, 7, 100, 5)):
        engine.process(event)
    assert profiler.events_by_trigger == {"+bids": 2, "-bids": 1}
    engine.remove_batch_listener(profiler.on_batch)
    assert engine._routes["bids"][1] is engine._signed["bids"][1]
    engine.insert("bids", 3, 3, 7, 9, 5)
    assert profiler.events == 3
    assert engine.events_processed == 4


@pytest.mark.parametrize("mode", PYTHON_EXECUTORS)
@pytest.mark.parametrize("query", ["vwap", "bsp"])
def test_process_equals_one_row_batches(query, mode):
    """A fixed finance feed through ``process`` and through one-row
    ``process_batch`` calls: same maps (insertion order included), same
    counters — vwap reads bids only, so its asks are skipped."""
    program = shipped_program(query)
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


def _outcome(engine, relation, sign, row):
    """What one ``process_batch`` call answers (count or error), and the
    maps after it."""
    try:
        answer = engine.process_batch(relation, sign, [row])
    except Exception as exc:  # the batch path's error, whatever its type
        answer = (type(exc), str(exc))
    return answer, repr(engine.maps)


@pytest.mark.parametrize("listen", [False, True], ids=["plain", "observed"])
@pytest.mark.parametrize(
    "sign", [2, 0, -2, "1", None, 1.0, True, [1], [-1]], ids=repr
)
def test_only_an_int_sign_indexes_a_route(program, sign, listen):
    """A route is ``(width, on(+1), on(-1))``: ``route[-2]`` would insert
    and ``route[0]`` is no trigger.  A routed and an unrouted engine
    answer every other sign the same, and end with the same maps: a
    float or a bool equals a sign but is refused, a weight column of
    one sign is accepted."""
    feed = _feed()
    routed = _engine_after(program, feed[:100])
    unrouted = DeltaEngine(program)
    unrouted.process_stream(feed[:100], batch_size=7)  # no route installed
    assert routed._routes and not unrouted._routes
    seen = {id(routed): [], id(unrouted): []}
    if listen:
        for engine in (routed, unrouted):
            engine.add_batch_listener(
                lambda lsn, batch, log=seen[id(engine)]: log.append(batch.sign)
            )
    event = next(e for e in feed[100:] if e.relation == "bids")
    assert routed._routes["bids"]
    expected = _outcome(unrouted, "bids", sign, event.values)
    assert _outcome(routed, "bids", sign, event.values) == expected
    if isinstance(sign, list):
        assert expected[0] == 1
    else:
        assert expected[0][0] is EventError
    assert seen[id(routed)] == seen[id(unrouted)]
