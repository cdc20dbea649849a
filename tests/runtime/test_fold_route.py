"""Consolidate before exchange: a sharded engine folds a long run once, at
its router, when the relation's batch trigger folds on the relation's
partition column (a routed ``repro.ir.nodes.ForEachGroup``), and routes
the groups — one entry per group key, its sums and the rows it stands
for — by the key's hash, as it routes rows.

* Parity: bsp on the order book and the ``co_partitioned_join`` RST
  shape on a stream deleting live rows, delivered in runs of 9, 50 and
  100 rows of one relation and as one run per relation (the whole
  stream), on in-process lanes of 2 and 3 shards, ``interpreted/2``,
  ``forked/2`` and a durable 2-shard engine abandoned halfway and
  reopened (its reopening replays the log through the same route).
  Each equals sqlite after every run, holds the per-event run's entries
  (``lanes.exact_items``), and each lane holds the entries and the
  ``events_processed`` of a ``DeltaEngine`` fed its hash subsequence per
  event; an in-process lane's maps are ``repr``-equal to those the
  column route leaves, insertion order included.
* Groups whose weights cancel route, count their rows and write no zero
  delta.
* The fold runs once per long run and no lane runs bsp's ``*_batch``
  entry; axf, which does not fold, keeps the column route.
* A supervised forked engine whose worker is killed mid-stream rebuilds
  to the same maps.
* The module header names the relations that fold at the router.
"""

import os
import signal
from functools import lru_cache

import pytest

from repro.codegen.pygen import generate_module
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime import engine as engine_module
from repro.runtime.durability import DurableEngine, recover_engine
from repro.runtime.engine import EMPTY_STATE
from repro.runtime.events import partition_columns
from repro.runtime.storage import RecordingDict
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from tests import lanes
from tests.integration.sql_oracle import (
    SqliteOracle,
    assert_rows_match,
    oracle_stream,
)
from tests.runtime.test_row_routing import _Counting

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process lanes require POSIX fork"
)

#: name -> (program, view, catalog, sql, feed)
SHAPES = {
    "bsp": lambda: (
        lanes.shipped_program("bsp", "bsp"), "bsp", finance_catalog(),
        FINANCE_QUERIES["bsp"], lanes.order_book(2009, 300),
    ),
    "co_partitioned_join": lambda: (
        lanes.rst_program("co_partitioned_join"), "q", lanes.RST,
        lanes.RST_QUERIES["co_partitioned_join"],
        oracle_stream({"R": 2, "S": 2}, 300, seed=50, domain=5),
    ),
}

#: Run lengths; ``None`` is one run per relation, the whole stream.
LENGTHS = [9, 50, 100, None]


def _runs(feed, length):
    """``feed`` as runs of ``length`` events of one relation, each run
    emitted when it fills and the rest at the end: every relation's events
    stay in stream order, so a delete follows the insert it cancels."""
    pending: dict[str, list] = {}
    runs = []
    for event in feed:
        run = pending.setdefault(event.relation, [])
        run.append(event)
        if len(run) == length:
            runs.append(run)
            pending[event.relation] = []
    runs.extend(run for run in pending.values() if run)
    return runs


def _apply(engine, run) -> None:
    weights = [event.sign for event in run]
    engine.process_batch(run[0].relation, weights, [event.values for event in run])


def _lane_of(spec, event, shards: int) -> int:
    return hash(event.values[spec.relation_columns[event.relation]]) % shards


@lru_cache(maxsize=None)
def _expected(shape: str, length, shards: int) -> tuple:
    """The per-event entries of the whole run order, and per lane those
    of a ``DeltaEngine`` fed the lane's hash subsequence per event, with
    its count."""
    program, _, _, _, feed = SHAPES[shape]()
    order = [event for run in _runs(feed, length) for event in run]
    whole = DeltaEngine(program)
    lanes.deliver(whole, order, "process")
    spec = ShardedEngine(program, shards=shards).spec
    references = [DeltaEngine(program) for _ in range(shards)]
    for event in order:
        references[_lane_of(spec, event, shards)].process(event)
    return lanes.exact_items(whole.maps), [
        (lanes.exact_items(reference.maps), reference.events_processed)
        for reference in references
    ]


def _lane_state(lane) -> tuple:
    return lanes.exact_items(lane.current_maps()), lane.events_processed


def _check_lanes(engine, shape, length, shards) -> None:
    whole, per_lane = _expected(shape, length, shards)
    assert lanes.exact_items(engine.current_maps()) == whole
    assert [_lane_state(lane) for lane in engine._lanes] == per_lane


@pytest.mark.parametrize("length", LENGTHS, ids=str)
@pytest.mark.parametrize(
    "lane",
    ["compiled/2", "compiled/3", "interpreted/2",
     pytest.param("forked/2", marks=needs_fork)],
)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_folded_runs_equal_sqlite_and_the_per_event_lanes(shape, lane, length):
    program, view, catalog, sql, feed = SHAPES[shape]()
    shards = int(lane.partition("/")[2])
    engine = lanes.build_engine(program, lane)
    assert set(engine._folds) == set(engine.spec.relation_columns)
    oracle = SqliteOracle(catalog, sql)
    with engine:
        for run in _runs(feed, length):
            _apply(engine, run)
            oracle.apply_all(run)
            assert_rows_match(engine, oracle, view, f" after a run of {len(run)}")
        _check_lanes(engine, shape, length, shards)
        if engine.parallel:
            return
        # The column route leaves the same lane maps, insertion order
        # included.
        columns = lanes.build_engine(program, lane)
        columns._folds = {}
        for run in _runs(feed, length):
            _apply(columns, run)
        assert [repr(lane.maps) for lane in engine._lanes] == [
            repr(lane.maps) for lane in columns._lanes
        ]


@pytest.mark.parametrize("length", LENGTHS, ids=str)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_an_abandoned_durable_engine_reopens_through_the_fold_route(
    shape, length, tmp_path
):
    """Two in-process shards behind the WAL, abandoned halfway: reopening
    replays every logged run through the router's fold, and the stream
    goes on from there; ``recover_engine`` reproduces the pre-crash rows."""
    program, view, catalog, sql, feed = SHAPES[shape]()
    runs = _runs(feed, length)
    half = len(runs) // 2
    oracle = SqliteOracle(catalog, sql)
    engine = DurableEngine(program, tmp_path, shards=2, fsync="always")
    for run in runs[:half]:
        _apply(engine, run)
        oracle.apply_all(run)
        assert_rows_match(engine, oracle, view)
    before = sorted(engine.results(view))
    engine.abandon()
    recovered, _ = recover_engine(program, tmp_path)
    assert sorted(recovered.results(view)) == before
    recovered.close()
    with DurableEngine(program, tmp_path, shards=2, fsync="always") as engine:
        for run in runs[half:]:
            _apply(engine, run)
            oracle.apply_all(run)
            assert_rows_match(engine, oracle, view)
        _check_lanes(engine._engine, shape, length, 2)


# -- which calls the fold route makes -----------------------------------------


def _counted(engine) -> list[list]:
    """Per-lane call logs, the serial lane's last, with each lane re-bound
    to a counting executor and the router's folds counted as ``router``."""
    logs = []
    for lane in [*engine._lanes, engine._serial]:
        logs.append([])
        lane._executor = _Counting(lane._executor, logs[-1])
        lane.restore_state(EMPTY_STATE)
    router = logs[-1]
    engine._folds = {
        relation: lambda *args, fold=fold: (router.append("router"), fold(*args))[1]
        for relation, fold in engine._folds.items()
    }
    return logs


@pytest.fixture
def partitions(monkeypatch):
    """The columns of every ``partition_columns`` call the router makes."""
    calls = []

    def counted(columns, *args, **kwargs):
        calls.append(columns)
        return partition_columns(columns, *args, **kwargs)

    monkeypatch.setattr(engine_module, "partition_columns", counted)
    return calls


def test_the_fold_runs_once_per_long_run_and_no_lane_runs_the_batch_entry(
    partitions,
):
    program, _, _, _, feed = SHAPES["bsp"]()
    engine = ShardedEngine(program, shards=2)
    logs = _counted(engine)
    runs = _runs(feed, 50)
    for run in runs:
        _apply(engine, run)
    long_runs = sum(len(run) > engine_module._ROW_ROUTE_THRESHOLD for run in runs)
    assert long_runs >= 4
    *lane_logs, router = logs
    assert router == ["router"] * long_runs
    assert {kind for log in lane_logs for kind in log} <= {"groups", "event"}
    assert sum(log.count("groups") for log in lane_logs) >= long_runs
    # The groups cross as a columnar batch of keys and entries.
    assert len(partitions) == long_runs
    for keys, entries in partitions:
        assert len(keys) == len(entries) < 50
        assert all(len(entry) == 3 for entry in entries)  # 2 sums, 1 count
    assert engine.events_processed == len(feed)


def test_axf_keeps_the_column_route(partitions):
    program = lanes.shipped_program("axf", "axf")
    engine = ShardedEngine(program, shards=2)
    assert engine._folds == {}
    logs = _counted(engine)
    rows = [(i, i, 1 + i % 3, 100 + i, 5) for i in range(20)]
    assert engine.process_batch("bids", 1, rows) == 20
    *lane_logs, router = logs
    assert router == []
    assert sorted(kind for log in lane_logs for kind in log) == ["batch", "batch"]
    ((columns),) = partitions
    assert len(columns) == 5 and len(columns[0]) == 20  # the raw columns
    assert "folds at the router" not in generate_module(program)


def test_the_header_names_the_relations_that_fold_at_the_router():
    source = generate_module(lanes.shipped_program("bsp", "bsp"))
    for relation in ("asks", "bids"):
        line = (
            f"{relation}: hash-route by column 2; a long run folds at the "
            "router on broker_id (2 sums)"
        )
        assert f"\n{line}\n" in source
    # psp and mst fold, but are not partitioned.
    for query in ("psp", "mst"):
        source = generate_module(lanes.shipped_program(query, query))
        assert "folds at the router" not in source


# -- groups whose weights cancel ----------------------------------------------


def test_cancelling_groups_route_count_their_rows_and_write_no_zero_delta():
    """A run of 12 R rows in which ``B = 1`` holds ``+(7, 1), -(5, 1)``
    (Σw = 0, Σw·A = 2) and ``B = 2`` holds ``+(4, 2), -(4, 2)`` (both 0):
    the group of ``B = 2`` writes nothing, the group of ``B = 1`` only its
    value sum, and every lane counts the rows its groups stand for."""
    program, view, catalog, sql, _ = SHAPES["co_partitioned_join"]()
    prefix = [("S", 1, (b, 3 + b)) for b in range(6)] + [("R", 1, (5, 1))]
    run = [(7, 1), (5, 1), (4, 2), (4, 2)] + [(a, 3 + a % 3) for a in range(8)]
    weights = [1, -1, 1, -1] + [1] * 8
    engine = ShardedEngine(program, shards=2)
    oracle = SqliteOracle(catalog, sql)
    for relation, sign, row in prefix:
        engine.process_batch(relation, sign, [row])
    touched: dict[str, set] = {}
    for lane in engine._lanes:
        for name, contents in lane.maps.items():
            lane.maps[name] = RecordingDict(contents, [touched.setdefault(name, set())])
        lane._bind()
    counts = [lane.events_processed for lane in engine._lanes]
    assert engine.process_batch("R", weights, run) == 12
    spec = engine.spec
    for row in run:
        counts[hash(row[spec.relation_columns["R"]]) % 2] += 1
    assert [lane.events_processed for lane in engine._lanes] == counts
    assert not any((2,) in keys for keys in touched.values())
    written = {name for name, keys in touched.items() if (1,) in keys}
    assert written and written != {name for name in touched if touched[name]}
    events = [StreamEvent(r, s, row) for r, s, row in prefix] + [
        StreamEvent("R", w, row) for w, row in zip(weights, run)
    ]
    oracle.apply_all(events)
    assert_rows_match(engine, oracle, view)
    reference = DeltaEngine(program)
    lanes.deliver(reference, events, "process")
    assert lanes.exact_items(engine.current_maps()) == lanes.exact_items(reference.maps)


# -- a supervised worker killed mid-stream ------------------------------------


@needs_fork
def test_a_supervised_forked_engine_killed_mid_stream_rebuilds_the_maps():
    program, view, _, _, feed = SHAPES["bsp"]()
    runs = _runs(feed, 50)
    with ShardedEngine(program, shards=2, parallel=True, supervise=True) as engine:
        for index, run in enumerate(runs):
            if index == len(runs) // 2:
                proc = engine._lanes[0]._proc
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
            _apply(engine, run)
        whole, _ = _expected("bsp", 50, 2)
        assert lanes.exact_items(engine.current_maps()) == whole
        assert engine.supervisor.recoveries
        assert engine.events_processed == len(feed)
