"""A batch is a relation's share of a window; its signs are a weight column.

``batches()`` cuts a window into one batch per relation, so an order-book
feed's interleaved inserts and cancels share a batch.  These tests pin
what that means: the stream round-trips as each window regrouped by
relation; a mixed batch runs in one call of the relation's weighted
trigger, leaving maps ``repr``-equal to per-event processing in the order
the batches replay (a key the batch deletes and re-inserts moves to the
end, as per event; a map a pre-aggregating trigger writes, equal
entries: ``lanes.batch_identity``), entries equal to per-event processing in stream
order, and results equal to sqlite's, on every executor, sharded or not,
and through a crash; admission judges a mixed batch whole; and a logged
batch crosses each layer once.  The shipped feeds at every batch size and
lane are ``tests/integration/test_map_parity.py``'s, and the window
properties ``tests/integration/test_windows.py``'s.
"""

import copy
import random
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import compile_sql
from repro.compiler.program import TriggerTable
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime import engine as engine_module
from repro.runtime.durability import DurableEngine, recover_engine
from repro.runtime.engine import EMPTY_STATE
from repro.runtime.events import EventBatch, batches, delete, flatten, insert
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

BATCH_SIZES = (1, 7, 100)
WORKLOADS = (*FINANCE_QUERIES, "ssb")


# ---------------------------------------------------------------------------
# Grouping: the feed round-trips as its windows regrouped by relation
# ---------------------------------------------------------------------------


@st.composite
def cancelling_feeds(draw):
    """Two-relation feeds in which at least 30% of the events are cancels."""
    size = draw(st.integers(min_value=0, max_value=60))
    relations = draw(st.lists(st.sampled_from("RS"), min_size=size, max_size=size))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
    values = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    missing = -(-3 * size // 10) - signs.count(-1)
    for index in range(size):
        if missing <= 0:
            break
        if signs[index] == 1:
            signs[index], missing = -1, missing - 1
    return [
        StreamEvent(relation, sign, (value,))
        for relation, sign, value in zip(relations, signs, values)
    ]


@settings(max_examples=25, deadline=None)
@given(feed=cancelling_feeds(), batch_size=st.sampled_from([1, 7, 100, None]))
def test_batches_replay_the_feed_regrouped(feed, batch_size):
    runs = list(batches(feed, batch_size))
    size = batch_size or max(len(feed), 1)
    regrouped = []
    for start in range(0, len(feed), size):
        window = feed[start:start + size]
        first = {}
        for event in window:
            first.setdefault(event.relation, len(first))
        regrouped += sorted(window, key=lambda event: first[event.relation])
    assert list(flatten(runs)) == regrouped
    for run in runs:
        # A weight column only where the signs really mix.
        assert isinstance(run.sign, list) == (len(set(run.weights)) == 2)
        assert batch_size is None or len(run) <= batch_size


# ---------------------------------------------------------------------------
# Parity: per-event processing and sqlite
# ---------------------------------------------------------------------------


def _loaded(engine, name):
    for relation, rows in lanes.workload(name)[3].items():
        engine.load(relation, rows)
    return engine


def _maps_repr(engine) -> str:
    return repr(engine.current_maps())


def test_parity_feeds_mix_signs_in_batches():
    for name in ("bsp", "ssb"):
        feed = lanes.workload(name)[4]
        assert sum(event.sign == -1 for event in feed) >= 0.3 * len(feed)
        assert any(isinstance(run.sign, list) for run in batches(feed, 7))


@pytest.mark.parametrize("name", WORKLOADS)
def test_durable_sharded_crash_recovers_the_per_event_state(name, tmp_path):
    """A third of the feed at each batch size, logged through two lanes,
    then a crash: the log replays into the per-event state of the order
    the windows applied the feed in, exactly, and into the stream-order
    per-event state's entries."""
    program, *_, feed = lanes.workload(name)
    engine = _loaded(
        DurableEngine(program, tmp_path, shards=2, fsync="none"), name
    )
    third = len(feed) // 3
    applied = []
    for index, batch_size in enumerate(BATCH_SIZES):
        chunk = feed[index * third:] if index == 2 else feed[
            index * third:(index + 1) * third
        ]
        engine.process_stream(chunk, batch_size=batch_size)
        applied += lanes.applied_order(chunk, f"stream-{batch_size}")
    engine.sync()
    logged = engine.lsn
    engine.abandon()
    recovered, lsn = recover_engine(program, tmp_path)
    assert lsn == logged < len(feed)  # fewer frames than events
    reference = _loaded(DeltaEngine(program), name)
    lanes.deliver(reference, applied, "process")
    identity = lanes.batch_identity(program)
    assert identity(recovered.maps) == identity(reference.current_maps())
    in_stream_order = _loaded(DeltaEngine(program), name)
    lanes.deliver(in_stream_order, feed, "process")
    assert lanes.exact_items(recovered.maps) == lanes.exact_items(
        in_stream_order.maps
    )
    for view, expected in lanes.sqlite_results(name).items():
        assert normalize_rows(recovered.results(view)) == expected, view


# ---------------------------------------------------------------------------
# Mixed weight columns through process_batch: one trigger call per batch
# ---------------------------------------------------------------------------

#: The executors and shard counts a mixed weight column must be exact on.
ENGINES = (*lanes.PYTHON_EXECUTORS, *(f"{mode}/2" for mode in lanes.PYTHON_EXECUTORS))


@lru_cache(maxsize=None)
def _ssb_facts():
    """The SSB feed's fact rows, for drawn feeds to insert and cancel."""
    return tuple(
        (event.relation, event.values)
        for event in lanes.workload("ssb")[4]
        if event.sign == 1
    )


@st.composite
def cancelling_books(draw, name):
    """A feed of ``name``'s relations whose cancels delete live rows and
    make up at least 30% of it: a cancel is drawn whenever a row is live,
    and forced while cancels are below 30% of the feed so far."""
    live: list = []
    feed: list = []
    for step in range(draw(st.integers(min_value=4, max_value=40))):
        cancels = sum(event.sign == -1 for event in feed)
        if live and (cancels < 0.3 * (step + 1) or draw(st.booleans())):
            relation, values = live.pop(draw(st.integers(0, len(live) - 1)))
            feed.append(StreamEvent(relation, -1, values))
            continue
        if name == "ssb":
            relation, values = draw(st.sampled_from(_ssb_facts()))
        else:
            relation = draw(st.sampled_from(("bids", "asks")))
            values = (
                step, step, draw(st.integers(0, 2)),
                draw(st.integers(95, 105)), draw(st.integers(1, 4)),
            )
        live.append((relation, values))
        feed.append(StreamEvent(relation, 1, values))
    return feed


@pytest.mark.parametrize("name", WORKLOADS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_mixed_weight_columns_equal_per_event_and_sqlite(name, data):
    feed = data.draw(cancelling_books(name))
    assert sum(event.sign == -1 for event in feed) >= 0.3 * len(feed)
    program, catalog, views, static, _ = lanes.workload(name)
    oracle = SqliteOracle(catalog, "")
    for relation, rows in static.items():
        oracle.apply_all(StreamEvent(relation, 1, row) for row in rows)
    oracle.apply_all(feed)
    identity = lanes.batch_identity(program)
    for shape in ENGINES:
        pristine = _loaded(lanes.build_engine(program, shape), name)
        reference = copy.deepcopy(pristine)
        lanes.deliver(reference, feed, "process")
        for view, sql in views.items():
            expected = normalize_rows(oracle.connection.execute(sql).fetchall())
            assert normalize_rows(reference.results(view)) == expected, view
        for size in (2, 7, 100):
            engine = copy.deepcopy(pristine)
            lanes.deliver(engine, feed, f"batch-{size}")
            regrouped = copy.deepcopy(pristine)
            order = lanes.applied_order(feed, f"batch-{size}")
            lanes.deliver(regrouped, order, "process")
            assert identity(engine.current_maps()) == identity(
                regrouped.current_maps()
            ), (shape, size)
            assert lanes.exact_items(engine.current_maps()) == lanes.exact_items(
                reference.current_maps()
            ), (shape, size)
            assert engine.index_sizes() == reference.index_sizes(), (shape, size)


@pytest.mark.parametrize("by_columns", [False, True])
def test_a_mixed_batch_is_one_trigger_call(by_columns):
    engine = DeltaEngine(lanes.workload("bsp")[0])
    calls = []

    def counted(kind, table):
        def wrap(key, trigger):
            return lambda *args: (calls.append((kind, key)), trigger(*args))[1]

        return {key: wrap(key, trigger) for key, trigger in table.items()}

    class Counting:  # the engine's executor, every bound call counted
        def __init__(self, executor):
            self.program, self.executor = executor.program, executor

        def bind(self, maps):
            table = self.executor.bind(maps)
            return TriggerTable(
                counted("event", table.per_event),
                counted("batch", table.batch),
                table.index_entry_counts,
                counted("fold", table.folds),
                counted("groups", table.groups),
            )

    engine._executor = Counting(engine._executor)
    engine.restore_state(EMPTY_STATE)  # binds the counting table
    rows = [(1, 1, 1, 100, 5), (2, 2, 2, 101, 5), (1, 1, 1, 100, 5), (3, 3, 1, 99, 5)]
    weights = [1, 1, -1, 1]
    if by_columns:
        assert engine.process_batch_columns("bids", weights, list(zip(*rows))) == 4
    else:
        assert engine.process_batch("bids", weights, rows) == 4
    assert calls == [("batch", ("bids", 0))]
    calls.clear()
    engine.process_batch("bids", -1, rows[1:2])
    assert calls == [("event", ("bids", 0))]
    reference = DeltaEngine(lanes.workload("bsp")[0])
    for row, weight in zip(rows + rows[1:2], weights + [-1]):
        reference.process(StreamEvent("bids", weight, row))
    assert engine.results("bsp") == reference.results("bsp")


# ---------------------------------------------------------------------------
# Forced cases
# ---------------------------------------------------------------------------

_FLOATS = Catalog.from_script("CREATE STREAM R (k int, x float);")


@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
def test_a_mixed_batch_reinserts_a_key_last_and_adds_floats_in_order(mode):
    """Inside one mixed batch, key 1's only row is deleted (its sum
    reaches zero) and a new one inserted: the key moves to the end of
    the map, as per event.  FLOAT sums add in per-event order, so the
    maps stay ``repr``-identical, inexact floats included."""
    program = compile_sql(
        "SELECT r.k, sum(r.x) FROM R r GROUP BY r.k", _FLOATS, name="q"
    )
    rng = random.Random(11)
    standing = [(k, rng.random() / 10) for k in (0, 1, 2, 3, 0, 2)]
    mixed = [(2, rng.random()), (1, standing[1][1]), (0, 0.1), (1, 0.3), (3, 0.7)]
    weights = [1, -1, 1, 1, -1]
    mixed[4] = standing[3]
    reference = DeltaEngine(program, mode=mode)
    for row in standing:
        reference.process(StreamEvent("R", 1, row))
    engine = copy.deepcopy(reference)
    for weight, row in zip(weights, mixed):
        reference.process(StreamEvent("R", weight, row))
    assert engine.process_batch("R", weights, mixed) == len(mixed)
    assert repr(engine.maps) == repr(reference.maps)
    assert [list(contents) for contents in engine.maps.values()] == [
        [(0,), (2,), (1,)]
    ] * 2

#: A book, then one bids and one asks batch that each insert a new
#: extremum, delete it again, delete the standing extremum and insert a
#: plain row — all inside one mixed batch.  In windows of 4 events the
#: batches replay the feed in stream order.
EXTREMUM_FEED = [
    insert("bids", 1, 1, 1, 100, 5),
    insert("bids", 2, 2, 1, 105, 7),
    insert("asks", 3, 3, 1, 110, 4),
    insert("asks", 4, 4, 1, 120, 6),
    insert("bids", 5, 5, 1, 130, 2),
    delete("bids", 5, 5, 1, 130, 2),
    delete("bids", 2, 2, 1, 105, 7),
    insert("bids", 6, 6, 1, 101, 3),
    insert("asks", 7, 7, 1, 90, 1),
    delete("asks", 7, 7, 1, 90, 1),
    delete("asks", 3, 3, 1, 110, 4),
    insert("asks", 8, 8, 1, 115, 9),
]


@pytest.mark.parametrize("query", ["bbo", "mst"])
def test_extremum_inserted_and_deleted_inside_one_mixed_batch(query, tmp_path):
    runs = list(batches(EXTREMUM_FEED, 4))
    assert [(run.relation, isinstance(run.sign, list)) for run in runs] == [
        ("bids", False), ("asks", False), ("bids", True), ("asks", True),
    ]
    assert list(flatten(runs)) == EXTREMUM_FEED
    catalog = finance_catalog()
    program = compile_sql(FINANCE_QUERIES[query], catalog, name="q")
    reference = DeltaEngine(program)
    for event in EXTREMUM_FEED:
        reference.process(event)
    oracle = SqliteOracle(catalog, FINANCE_QUERIES[query])
    oracle.apply_all(EXTREMUM_FEED)
    assert normalize_rows(reference.results("q")) == oracle.rows()
    durable = DurableEngine(program, tmp_path, shards=2, fsync="none")
    for engine in (DeltaEngine(program), ShardedEngine(program, shards=2), durable):
        for run in runs:
            engine.process_batch(run.relation, run.sign, run.rows)
        assert engine.results("q") == reference.results("q")
    durable.sync()
    durable.abandon()
    recovered, _ = recover_engine(program, tmp_path)
    assert _maps_repr(recovered) == _maps_repr(reference)


_STATIC = Catalog.from_script(
    "CREATE TABLE dim (k int, v int); CREATE STREAM fact (k int, x int);"
)
_STATIC_SQL = "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k"


def test_mixed_batch_on_a_static_table_is_refused_before_logging(tmp_path):
    program = compile_sql(_STATIC_SQL, _STATIC, name="q")
    with DurableEngine(program, tmp_path, shards=2, fsync="always") as engine:
        with pytest.raises(EventError, match="only supports bulk-load"):
            engine.process_batch("dim", [1, -1], [(1, 2), (1, 2)])
        assert engine.lsn == 0 and engine.events_processed == 0
    assert recover_engine(program, tmp_path)[1] == 0
    plain = DeltaEngine(program)
    with pytest.raises(EventError, match="only supports bulk-load"):
        plain.process_batch("dim", [1, -1], [(1, 2), (1, 2)])
    assert plain.events_processed == 0 and not any(plain.maps.values())


@pytest.mark.parametrize("shape", ["delta", "sharded", "durable"])
def test_mixed_batch_on_an_unread_relation_counts_every_row(shape, tmp_path):
    program = compile_sql(_STATIC_SQL, _STATIC, name="q")
    make = {
        "delta": lambda **kw: DeltaEngine(program, **kw),
        "sharded": lambda **kw: ShardedEngine(program, shards=2, **kw),
        "durable": lambda **kw: DurableEngine(
            program, tmp_path / str(len(kw)), shards=2, **kw
        ),
    }[shape]
    engine = make()
    assert engine.process_batch("nope", [1, -1, 1], [(1,), (1,), (2,)]) == 0
    assert (engine.events_skipped, engine.events_processed) == (3, 0)
    with pytest.raises(UnknownStreamError, match="'nope'"):
        make(strict=True).process_batch("nope", [1, -1], [(1,), (1,)])


def test_a_logged_batch_crosses_each_layer_once(tmp_path, monkeypatch):
    """Through ``DurableEngine(shards=2)`` a batch is one ``EventBatch``,
    one admission (the router's) and one WAL frame (its log step)."""
    program = compile_sql(
        FINANCE_QUERIES["bsp"], finance_catalog(), name="bsp"
    )
    engine = DurableEngine(program, tmp_path, shards=2, fsync="none")
    admitted = []
    real_admit = engine_module.admit

    def counting_admit(target, batch):
        admitted.append((type(target).__name__, batch.sign))
        return real_admit(target, batch)

    monkeypatch.setattr(engine_module, "admit", counting_admit)
    built = []
    for constructor in ("__init__", "from_columns", "_adopt"):
        original = EventBatch.__dict__[constructor]
        function = getattr(original, "__func__", original)

        def counting(*args, _function=function, **kwargs):
            built.append(_function.__name__)
            return _function(*args, **kwargs)

        if isinstance(original, classmethod):
            counting = classmethod(counting)
        monkeypatch.setattr(EventBatch, constructor, counting)

    columns = ([1, 2, 3], [1, 2, 3], [1, 2, 1], [100, 101, 102], [5, 5, 5])
    for sign in ([1, -1, 1], -1):
        admitted.clear()
        built.clear()
        lsn = engine.lsn
        engine.process_batch_columns("bids", sign, columns)
        assert built == ["from_columns"]
        assert admitted == [("ShardedEngine", sign)]
        assert engine.lsn == lsn + 1
    assert engine.events_processed == 6
    engine.close()
