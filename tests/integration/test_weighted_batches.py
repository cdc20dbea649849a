"""A batch is a relation's run; its signs are a weight column.

``batches()`` keys runs on the relation alone, so an order-book feed's
interleaved inserts and cancels share a batch.  These tests pin what that
means: the stream round-trips exactly; every engine shape applies a mixed
batch in one call of the relation's weighted trigger, leaving maps
``repr``-equal to per-event processing (a key the batch deletes and
re-inserts moves to the end, as per event) and results equal to
sqlite's; admission judges a mixed batch whole; and a logged batch
crosses each layer once.
"""

import copy
import random
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import compile_sql
from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries
from repro.compiler.program import TriggerTable
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime import durability
from repro.runtime import engine as engine_module
from repro.runtime.durability import DurableEngine, recover_engine
from repro.runtime.events import EventBatch, batches, delete, flatten, insert
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog
from repro.workloads.tpch import TpchGenerator
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

BATCH_SIZES = (1, 7, 100)
FINANCE = ("vwap", "axf", "bsp", "psp", "mst", "bbo", "act")
WORKLOADS = FINANCE + ("ssb",)


# ---------------------------------------------------------------------------
# Grouping: the feed round-trips, runs are maximal per relation
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
def test_batches_replay_the_feed_exactly(feed, batch_size):
    runs = list(batches(feed, batch_size))
    assert list(flatten(runs)) == feed
    for run in runs:
        # A weight column only where the signs really mix.
        assert isinstance(run.sign, list) == (len(set(run.weights)) == 2)
        assert batch_size is None or len(run) <= batch_size
    for before, after in zip(runs, runs[1:]):
        assert before.relation != after.relation or len(before) == batch_size


# ---------------------------------------------------------------------------
# Parity: every engine shape, every batch size, per-event and sqlite
# ---------------------------------------------------------------------------


def _with_cancels(facts, seed=7):
    """An insert-only fact feed with cancels of live facts interleaved."""
    rng = random.Random(seed)
    live: dict[str, list] = {}
    feed = []
    for relation, row in facts:
        feed.append(StreamEvent(relation, 1, row))
        live.setdefault(relation, []).append(row)
        if rng.random() < 0.55:
            rows = live[relation]
            feed.append(StreamEvent(relation, -1, rows.pop(rng.randrange(len(rows)))))
    return feed


@lru_cache(maxsize=None)
def _workload(name):
    """``(program, catalog, {view: sql}, static tables, feed)``."""
    if name == "ssb":
        catalog = ssb_catalog()
        program = compile_queries(
            [translate_sql(sql, catalog, name=view) for view, sql in SSB_FLIGHT.items()],
            catalog,
        )
        generator = TpchGenerator(sf=0.00004, seed=1992)
        feed = _with_cancels(generator.orders_and_lineitems())
        return program, catalog, SSB_FLIGHT, generator.static_tables(), feed
    catalog = finance_catalog()
    program = compile_sql(FINANCE_QUERIES[name], catalog, name=name)
    feed = list(OrderBookGenerator(seed=2009).events(200))
    return program, catalog, {name: FINANCE_QUERIES[name]}, {}, feed


SHAPES = {
    "delta": lambda program: DeltaEngine(program),
    "native": lambda program: DeltaEngine(program, mode="native"),
    "sharded": lambda program: ShardedEngine(program, shards=2),
}


def _loaded(engine, name):
    for relation, rows in _workload(name)[3].items():
        engine.load(relation, rows)
    return engine


def _maps_repr(engine) -> str:
    if isinstance(engine, ShardedEngine):
        return repr(engine.merged_maps())
    return repr(engine.maps)


@lru_cache(maxsize=None)
def _per_event(name, shape):
    """The maps ``repr`` per-event ``process()`` of the feed leaves."""
    engine = _loaded(SHAPES[shape](_workload(name)[0]), name)
    for event in _workload(name)[4]:
        engine.process(event)
    return _maps_repr(engine)


@lru_cache(maxsize=None)
def _sqlite(name):
    _, catalog, views, static, feed = _workload(name)
    oracle = SqliteOracle(catalog, "")
    for relation, rows in static.items():
        oracle.apply_all(StreamEvent(relation, 1, row) for row in rows)
    oracle.apply_all(feed)
    return {
        view: normalize_rows(oracle.connection.execute(sql).fetchall())
        for view, sql in views.items()
    }


def _assert_sqlite(name, engine):
    for view, expected in _sqlite(name).items():
        assert normalize_rows(engine.results(view)) == expected, view


def test_parity_feeds_mix_signs_in_batches():
    for name in ("bsp", "ssb"):
        feed = _workload(name)[4]
        assert sum(event.sign == -1 for event in feed) >= 0.3 * len(feed)
        assert any(isinstance(run.sign, list) for run in batches(feed, 7))


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", WORKLOADS)
def test_batched_maps_equal_per_event(name, shape):
    pristine = _loaded(SHAPES[shape](_workload(name)[0]), name)
    for batch_size in BATCH_SIZES:
        engine = copy.deepcopy(pristine)
        engine.process_stream(_workload(name)[4], batch_size=batch_size)
        assert _maps_repr(engine) == _per_event(name, shape), batch_size
    _assert_sqlite(name, engine)


@pytest.mark.parametrize("name", WORKLOADS)
def test_forked_lanes_equal_per_event(name):
    program, *_ = _workload(name)
    with ShardedEngine(program, shards=2, parallel=True) as engine:
        for batch_size in BATCH_SIZES:
            engine.restore_state({})  # every lane empty again
            _loaded(engine, name).process_stream(
                _workload(name)[4], batch_size=batch_size
            )
            assert _maps_repr(engine) == _per_event(name, "sharded"), batch_size
        _assert_sqlite(name, engine)


@pytest.mark.parametrize("name", WORKLOADS)
def test_durable_sharded_crash_recovers_the_per_event_state(name, tmp_path):
    """A third of the feed at each batch size, logged through two lanes,
    then a crash: the log replays into the per-event state exactly."""
    program, *_, feed = _workload(name)
    engine = _loaded(
        DurableEngine(program, tmp_path, shards=2, fsync="none"), name
    )
    third = len(feed) // 3
    for index, batch_size in enumerate(BATCH_SIZES):
        chunk = feed[index * third:] if index == 2 else feed[
            index * third:(index + 1) * third
        ]
        engine.process_stream(chunk, batch_size=batch_size)
    engine.sync()
    logged = engine.lsn
    engine.abandon()
    recovered, lsn = recover_engine(program, tmp_path)
    assert lsn == logged < len(feed)  # fewer frames than events
    assert repr(recovered.maps) == _per_event(name, "delta")
    _assert_sqlite(name, recovered)


# ---------------------------------------------------------------------------
# Mixed weight columns through process_batch: one trigger call per batch
# ---------------------------------------------------------------------------

#: The executors and shard counts a mixed weight column must be exact on.
ENGINES = {
    "compiled": lambda program: DeltaEngine(program),
    "interpreted": lambda program: DeltaEngine(program, mode="interpreted"),
    "compiled/2": lambda program: ShardedEngine(program, shards=2),
    "interpreted/2": lambda program: ShardedEngine(
        program, shards=2, mode="interpreted"
    ),
}


@lru_cache(maxsize=None)
def _ssb_facts():
    """The SSB feed's fact rows, for drawn feeds to insert and cancel."""
    return tuple(
        (event.relation, event.values)
        for event in _workload("ssb")[4]
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
    program, catalog, views, static, _ = _workload(name)
    oracle = SqliteOracle(catalog, "")
    for relation, rows in static.items():
        oracle.apply_all(StreamEvent(relation, 1, row) for row in rows)
    oracle.apply_all(feed)
    for shape, make in ENGINES.items():
        pristine = _loaded(make(program), name)
        reference = copy.deepcopy(pristine)
        for event in feed:
            reference.process(event)
        for view, sql in views.items():
            expected = normalize_rows(oracle.connection.execute(sql).fetchall())
            assert normalize_rows(reference.results(view)) == expected, view
        for size in (2, 7, 100):
            engine = copy.deepcopy(pristine)
            for run in batches(feed, size):
                engine.process_batch(run.relation, run.sign, run.rows)
            assert _maps_repr(engine) == _maps_repr(reference), (shape, size)
            assert engine.index_sizes() == reference.index_sizes(), (shape, size)


@pytest.mark.parametrize("by_columns", [False, True])
def test_a_mixed_batch_is_one_trigger_call(by_columns):
    engine = DeltaEngine(_workload("bsp")[0])
    calls = []

    def counted(kind, table):
        def wrap(key, trigger):
            return lambda *args: (calls.append((kind, key)), trigger(*args))

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
            )

    engine._executor = Counting(engine._executor)
    engine.restore_state({})  # binds the counting table
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
    reference = DeltaEngine(_workload("bsp")[0])
    for row, weight in zip(rows + rows[1:2], weights + [-1]):
        reference.process(StreamEvent("bids", weight, row))
    assert engine.results("bsp") == reference.results("bsp")


# ---------------------------------------------------------------------------
# Forced cases
# ---------------------------------------------------------------------------

_FLOATS = Catalog.from_script("CREATE STREAM R (k int, x float);")


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
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
#: plain row — all inside one mixed batch.
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
    runs = list(batches(EXTREMUM_FEED))
    assert [(run.relation, isinstance(run.sign, list)) for run in runs] == [
        ("bids", False), ("asks", False), ("bids", True), ("asks", True),
    ]
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
    """Through ``DurableEngine(shards=2)`` a batch is one ``EventBatch``
    and two admissions: the dry run before logging, and the router's."""
    program = compile_sql(
        FINANCE_QUERIES["bsp"], finance_catalog(), name="bsp"
    )
    engine = DurableEngine(program, tmp_path, shards=2, fsync="none")
    admitted = []
    real_admit = engine_module.admit

    def counting_admit(target, relation, sign, count):
        admitted.append((type(target).__name__, sign))
        return real_admit(target, relation, sign, count)

    monkeypatch.setattr(engine_module, "admit", counting_admit)
    monkeypatch.setattr(durability, "admit", counting_admit)
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
        engine.process_batch_columns("bids", sign, columns)
        assert built == ["from_columns"]
        expected = 0 if isinstance(sign, list) else sign
        assert admitted == [
            ("ShardedEngine", expected), ("ShardedEngine", expected)
        ]
    assert engine.events_processed == 6
    engine.close()
