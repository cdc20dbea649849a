"""A short run routes as rows.

``ShardedEngine`` hands each row of a run of at most
``_ROW_ROUTE_THRESHOLD`` rows straight to its in-process lane's per-event
trigger: no partition lists, no per-lane transpose, no ``*_batch`` call.
Longer runs and forked lanes still get one slice per lane.  These tests
pin which calls each path makes, that every lane ends ``repr``-equal to a
``DeltaEngine`` fed its hash-subsequence per event, and the WAL's
row-payload bytes.
"""

import os

import pytest

from repro import compile_sql
from repro.compiler.program import TriggerTable
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime import engine as engine_module
from repro.runtime.engine import EMPTY_STATE
from repro.runtime.durability import (
    WriteAheadLog,
    decode_batch_payload,
    encode_rows_payload,
)
from repro.runtime.events import EventBatch, batches, partition_rows
from repro.runtime.views import result_map_names
from repro.workloads.finance import finance_catalog
from tests.lanes import exact_items, matrix, order_book, shipped_program

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process lanes require POSIX fork"
)

#: Four bids over brokers 1, 2 and 3 and a cancel: a mixed short run.
ROWS = [(1, 1, 1, 100, 5), (2, 2, 2, 101, 5), (1, 1, 1, 100, 5), (3, 3, 3, 99, 5)]
WEIGHTS = [1, 1, -1, 1]


def _lane_of(engine, relation, row):
    column = engine.spec.relation_columns[relation]
    return hash(row[column]) % len(engine._lanes)


class _Counting:
    """A lane's executor with every bound trigger call noted in ``calls``."""

    def __init__(self, executor, calls):
        self.program, self.executor, self.calls = executor.program, executor, calls

    def bind(self, maps):
        table = self.executor.bind(maps)

        def counted(kind, triggers):
            def wrap(key, trigger):
                return lambda *args: (self.calls.append(kind), trigger(*args))[1]

            return {key: wrap(key, trigger) for key, trigger in triggers.items()}

        return TriggerTable(
            counted("event", table.per_event),
            counted("batch", table.batch),
            table.index_entry_counts,
            counted("fold", table.folds),
            counted("groups", table.groups),
        )


def _counted_lanes(engine):
    """Per-lane call logs, with each lane re-bound to a counting executor."""
    logs = []
    for lane in engine._lanes:
        logs.append([])
        lane._executor = _Counting(lane._executor, logs[-1])
        lane.restore_state(EMPTY_STATE)
    return logs


@pytest.fixture
def partitions(monkeypatch):
    """The ``partition_rows`` calls the router makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return partition_rows(*args, **kwargs)

    monkeypatch.setattr(engine_module, "partition_rows", counted)
    return calls


# -- which calls each path makes ---------------------------------------------


@pytest.mark.parametrize("by_columns", [False, True])
def test_a_short_mixed_run_makes_only_per_event_calls(by_columns, partitions):
    engine = ShardedEngine(shipped_program("bsp", "bsp"), shards=2)
    logs = _counted_lanes(engine)
    if by_columns:
        applied = engine.process_batch_columns("bids", WEIGHTS, list(zip(*ROWS)))
    else:
        applied = engine.process_batch("bids", WEIGHTS, ROWS)
    assert applied == 4
    expected = [0] * len(logs)
    for row in ROWS:
        expected[_lane_of(engine, "bids", row)] += 1
    assert [len(log) for log in logs] == expected
    assert {kind for log in logs for kind in log} == {"event"}
    assert [lane.events_processed for lane in engine._lanes] == expected
    assert partitions == []
    reference = DeltaEngine(shipped_program("bsp", "bsp"))
    for row, weight in zip(ROWS, WEIGHTS):
        reference.process(StreamEvent("bids", weight, row))
    assert engine.results("bsp") == reference.results("bsp")


def test_a_nine_row_run_makes_one_groups_call_per_lane_that_drew_rows(partitions):
    """bsp's bids trigger folds on the routing column: the router folds
    the run, and each lane that drew a group runs the group body once."""
    engine = ShardedEngine(shipped_program("bsp", "bsp"), shards=3)
    logs = _counted_lanes(engine)
    # Brokers 1 and 2 only: lanes 1 and 2 draw rows, lane 0 none.
    rows = [(i, i, 1 + i % 2, 100 + i, 5) for i in range(9)]
    assert engine.process_batch("bids", 1, rows) == 9
    assert logs == [[], ["groups"], ["groups"]]
    assert [lane.events_processed for lane in engine._lanes] == [0, 5, 4]
    assert partitions == []  # a long run partitions its columns


@needs_fork
def test_forked_lanes_get_one_send_per_non_empty_slice(partitions):
    program = shipped_program("bsp", "bsp")
    with ShardedEngine(program, shards=2, parallel=True) as engine:
        assert engine.parallel
        sends = []
        for index, lane in enumerate(engine._lanes):
            def send(relation, sign, rows, columns, index=index, lane=lane):
                sends.append((index, sign, len(rows)))
                type(lane).send(lane, relation, sign, rows, columns)

            lane.send = send
        engine.process_batch("bids", WEIGHTS, ROWS)
        slices = partition_rows(ROWS, 2, 2, WEIGHTS)
        assert len(partitions) == 1
        assert sorted(sends) == [
            (index, weights if len(set(weights)) > 1 else weights[0], len(rows))
            for index, (rows, weights) in enumerate(slices)
            if rows
        ]
        sends.clear()
        engine.process_batch("bids", 1, ROWS[:1])
        assert sends == [(_lane_of(engine, "bids", ROWS[0]), 1, 1)]
        reference = DeltaEngine(shipped_program("bsp", "bsp"))
        for row, weight in zip(ROWS + ROWS[:1], WEIGHTS + [1]):
            reference.process(StreamEvent("bids", weight, row))
        assert engine.results("bsp") == reference.results("bsp")


# -- each lane equals its hash-subsequence, per event ------------------------


@pytest.mark.parametrize("seed", [2009, 424242])
@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize(
    "query,mode", matrix({q: lambda q=q: shipped_program(q, q) for q in ("bsp", "axf")})
)
def test_every_lane_equals_its_subsequence_per_event(query, mode, shards, seed):
    program = shipped_program(query, query)
    feed = order_book(seed, 240)
    assert sum(event.sign == -1 for event in feed) >= 0.3 * len(feed)
    engine = ShardedEngine(program, shards=shards, mode=mode)
    references = [DeltaEngine(program, mode=mode) for _ in engine._lanes]
    for event in feed:
        references[_lane_of(engine, event.relation, event.values)].process(event)
    expected_maps = [repr(reference.maps) for reference in references]
    expected_counts = [reference.events_processed for reference in references]
    for size in range(1, 9):
        engine = ShardedEngine(program, shards=shards, mode=mode)
        for batch in batches(feed, size):
            engine.process_batch(batch.relation, batch.sign, batch.rows)
        assert [repr(lane.maps) for lane in engine._lanes] == expected_maps, size
        assert [
            lane.events_processed for lane in engine._lanes
        ] == expected_counts, size
        assert engine.events_processed == len(feed)


# -- edge cases ----------------------------------------------------------------


#: A view partitioned on ``broker_id`` whose group a bids event reads
#: from the asks map, so a lane watch records it (a view whose groups
#: are the event's own values is read off the rows instead).
_RECORDED = (
    "SELECT a.price, sum(b.volume) FROM bids b, asks a "
    "WHERE b.broker_id = a.broker_id GROUP BY a.price"
)


def test_watched_lanes_record_what_the_slice_path_records():
    """A lane's result watch records every group a lane's ``send`` of its
    slice changes, as the row loop's does.  The slice, pre-aggregated on
    ``broker_id``, writes no group whose rows cancel, so its watch may
    miss a key the row loop wrote and put back, and only such a key."""
    program = compile_sql(_RECORDED, finance_catalog(), name="bsp")
    names = result_map_names(program, "bsp")
    feed = order_book(2009, 240)
    engines = [ShardedEngine(program, shards=2) for _ in range(2)]
    watches = [
        [lane.watch_results(["bsp"])["bsp"][0] for lane in engine._lanes]
        for engine in engines
    ]
    rowwise, sliced = engines

    def groups(lane) -> dict:
        return {
            key: tuple(lane.maps[name].get(key, 0) for name in names)
            for key in set().union(*(lane.maps[name] for name in names))
        }

    before = [groups(lane) for lane in sliced._lanes]
    touched = skipped = 0
    for batch in batches(feed, 6):
        rowwise.process_batch(batch.relation, batch.sign, batch.rows)
        column = sliced.spec.relation_columns[batch.relation]
        weights = batch.sign if isinstance(batch.sign, list) else None
        sliced._scatter(batch.relation, batch.sign, partition_rows(
            batch.rows, column, 2, weights
        ), columnar=False)
        after = [groups(lane) for lane in sliced._lanes]
        assert after == [groups(lane) for lane in rowwise._lanes]
        for old, new, rows, slices in zip(before, after, *watches):
            changed = {key for key in old.keys() | new.keys()
                       if old.get(key) != new.get(key)}
            assert changed <= slices <= rows
            skipped += len(rows - slices)
        for watch in watches[0] + watches[1]:
            touched += len(watch)
            watch.clear()
        before = after
    assert touched  # the views stayed watched
    assert skipped  # some group's rows cancelled within a slice
    assert [exact_items(lane.maps) for lane in rowwise._lanes] == [
        exact_items(lane.maps) for lane in sliced._lanes
    ]


# -- the WAL's row payload -------------------------------------------------------

#: ``encode_rows_payload("bids", sign, _WAL_ROWS)``, pinned: the frame
#: bytes are the log's format, whether the rows come as a list or a tuple.
_WAL_ROWS = [(1, 2.5, "x"), (2, -3, None), (3, 4.5, "z")]
_WAL_FRAMES = {
    1: "04000103000000ffff6269647380059531000000000000005d94284b014740040000"
    "000000008c01789487944b024afdffffff4e87944b034740120000000000008c017a9487"
    "94652e",
    (1, -1, -1): "04000003000000ffff62696473620300000001ffff800595310000000000"
    "00005d94284b014740040000000000008c01789487944b024afdffffff4e87944b03474012"
    "0000000000008c017a948794652e",
}


@pytest.mark.parametrize("sign", sorted(_WAL_FRAMES, key=repr))
def test_row_payload_bytes_are_the_same_for_lists_and_tuples(sign, tmp_path):
    weights = list(sign) if isinstance(sign, tuple) else sign
    expected = bytes.fromhex(_WAL_FRAMES[sign])
    for rows in (list(_WAL_ROWS), tuple(_WAL_ROWS)):
        assert encode_rows_payload("bids", weights, rows) == expected
    relation, decoded_sign, columns = decode_batch_payload(expected)
    assert (relation, decoded_sign) == ("bids", weights)
    with WriteAheadLog(tmp_path, fsync="none") as wal:
        wal.append_batch(EventBatch("bids", weights, list(_WAL_ROWS)))
    ((_, relation, replayed_sign, columns),) = WriteAheadLog.replay(tmp_path)
    assert (relation, replayed_sign) == ("bids", weights)
    assert EventBatch.from_columns(relation, replayed_sign, columns).rows == _WAL_ROWS
