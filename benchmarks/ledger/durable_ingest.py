"""durable-ingest: the write-ahead log, snapshots, routing and recovery.

``DurableEngine(bsp, dir, fsync="batch", shards=2, parallel=False,
snapshot_every=...)`` is fed ``batches(feed, 100)`` through
``process_batch_columns``, synced, then ``abandon()``-ed (a simulated
SIGKILL) and rebuilt by ``recover_engine`` from the latest snapshot plus
the WAL suffix.  The bsp trigger is cheap, so WAL encode/append/sync,
precheck, pre-partition routing, snapshots and recovery do most of the
work.  In-process lanes keep the scheduler out of the number on two cores
while still running the ``ShardedEngine`` + ``DurableEngine`` code.

``batches(feed, 100)`` averages **1.25 rows per run** on the order-book
feed (relations and signs interleave), so this is the WAL's small-batch
path, whatever the batch size says.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import repro.runtime.durability as durability
import repro.runtime.engine as engine_module
from repro import (
    DurableEngine,
    analyze_partitioning,
    batches,
    compile_sql,
    recover_engine,
)
from repro.runtime.durability import SnapshotStore, WriteAheadLog
from repro.runtime.engine import DeltaEngine, ShardedEngine
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator

from benchmarks.ledger.common import (
    Outcome,
    fresh_directory,
    note_host,
    peak_rss_mb,
    per_reference_second,
    reference_seconds,
    rounds,
    summarize,
    traced_section,
)
from benchmarks.ledger.oracle import SqliteOracle, mismatches, net_live_rows
from benchmarks.ledger.spans import patched

NAME = "durable-ingest"
QUERY = "bsp"

EVENTS = 30_000
SMOKE_EVENTS = 3_000
BATCH_SIZE = 100
#: Two checkpoints per pass; recovery replays the last third of the log.
SNAPSHOT_DIVISOR = 3

_clock = time.perf_counter


@dataclass
class State:
    feed: list
    program: object
    catalog: object
    directory: Path
    snapshot_every: int


def setup(seed: int, smoke: bool) -> State:
    count = SMOKE_EVENTS if smoke else EVENTS
    catalog = finance_catalog()
    feed = list(OrderBookGenerator(seed=seed).events(count))
    program = compile_sql(FINANCE_QUERIES[QUERY], catalog, name=QUERY)
    directory = fresh_directory("durable")
    # snapshot_every counts events; the +1 keeps the last checkpoint off
    # the very end of the feed, so recovery always has a suffix to replay.
    return State(feed, program, catalog, directory, count // SNAPSHOT_DIVISOR + 1)


def teardown(state: State) -> None:
    shutil.rmtree(state.directory, ignore_errors=True)


def _open(state: State) -> DurableEngine:
    shutil.rmtree(state.directory, ignore_errors=True)
    return DurableEngine(
        state.program, state.directory, fsync="batch", shards=2,
        parallel=False, snapshot_every=state.snapshot_every,
    )


def _ingest(state: State, engine: DurableEngine, group=batches) -> None:
    apply = engine.process_batch_columns
    for batch in group(state.feed, BATCH_SIZE):
        apply(batch.relation, batch.sign, batch.columns)
    engine.sync()


def _disk_bytes(state: State) -> tuple[int, int]:
    """(WAL bytes, retained snapshot bytes) in the durable directory."""
    wal = sum(p.stat().st_size for p in state.directory.glob("wal-*.log"))
    snaps = sum(p.stat().st_size for p in state.directory.glob("snapshot-*.snap"))
    return wal, snaps


def _expected(state: State) -> list:
    oracle = SqliteOracle(state.catalog)
    oracle.load_live(net_live_rows(state.feed))
    rows = oracle.rows(FINANCE_QUERIES[QUERY])
    oracle.close()
    return rows


def _crash_and_recover(state, engine, outcome, expected) -> float:
    """abandon() -> recover_engine(); the recovered rows must equal both
    the pre-crash rows and sqlite's.  Returns the recovery's seconds."""
    before = engine.results(QUERY)
    skipped = engine.events_skipped
    engine.abandon()
    started = _clock()
    recovered, _lsn = recover_engine(state.program, state.directory)
    elapsed = _clock() - started
    outcome.attempted += 2
    outcome.fail(
        sorted(recovered.results(QUERY)) != sorted(before),
        "recovered rows differ from the pre-crash rows",
    )
    outcome.fail(mismatches(before, expected), "rows differ from sqlite")
    outcome.fail(skipped, "events skipped")
    return elapsed


def _lane_skew(state: State, lanes: int = 2) -> float:
    """Busiest lane's rows over the mean lane's, routing the feed the way
    ``ShardedEngine`` does (hash of the partition column, modulo lanes)."""
    spec = analyze_partitioning(state.program)
    rows = [0] * lanes
    for event in state.feed:
        column = spec.column_for(event.relation)
        rows[hash(event.values[column]) % lanes] += 1
    return max(rows) * lanes / sum(rows)


def measure(state: State, seconds: float, minimum: int = 3) -> Outcome:
    outcome = Outcome()
    expected = _expected(state)

    def one_round() -> dict:
        engine = _open(state)
        started = _clock()
        _ingest(state, engine)
        elapsed = _clock() - started
        wal, snaps = _disk_bytes(state)
        outcome.attempted += len(state.feed)
        return {
            "rate": len(state.feed) / elapsed,
            "bytes_per_event": (wal + snaps) / len(state.feed),
            "recovery_s": _crash_and_recover(state, engine, outcome, expected),
        }

    samples, factors = rounds(one_round, seconds, minimum)
    metrics = outcome.metrics
    metrics["events_per_s"] = summarize(
        outcome, "ingest + sync",
        per_reference_second(samples["rate"], factors), " ev/s",
    )
    metrics["e2e.recovery_s"] = summarize(
        outcome, "recover_engine",
        reference_seconds(samples["recovery_s"], factors), " s",
    )
    metrics["e2e.wal_bytes_per_event"] = summarize(
        outcome, "WAL + snapshots", samples["bytes_per_event"], " B/event"
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    note_host(outcome, factors)
    return outcome


def _targets():
    return [
        (durability, "encode_batch_payload", "wal.encode"),
        (durability, "encode_rows_payload", "wal.encode"),
        (WriteAheadLog, "append_batch", "wal.append"),
        (WriteAheadLog, "_flush", "wal.sync"),
        (WriteAheadLog, "replay", "recovery.replay", "generator"),
        (SnapshotStore, "save", "snapshot.save"),
        (SnapshotStore, "load_latest", "snapshot.load"),
        (engine_module, "partition_columns", "events.partition"),
        (engine_module, "partition_rows", "events.partition"),
        (ShardedEngine, "_process_batch", "engine.batch"),
        (DeltaEngine, "_process_batch", "engine.batch"),
        (DurableEngine, "process_batch_columns", "durable.log_and_apply"),
        (DurableEngine, "sync", "durable.sync"),
        (DurableEngine, "snapshot", "durable.snapshot"),
    ]


def trace(state: State, seconds: float, recorder) -> Outcome:
    outcome = measure(state, seconds / 4, minimum=1)
    expected = _expected(state)

    engine = _open(state)
    started = _clock()
    _ingest(state, engine)
    outcome.untraced_wall += _clock() - started
    outcome.untraced_wall += _crash_and_recover(state, engine, outcome, expected)

    group = recorder.wrap_generator(batches, "events.group")
    with patched(recorder, _targets()):
        engine = _open(state)
        with traced_section(recorder, outcome):
            _ingest(state, engine, group)
        wal_bytes, snapshot_bytes = _disk_bytes(state)
        before = engine.results(QUERY)
        engine.abandon()
        with traced_section(recorder, outcome):
            with recorder.span("recovery.restore"):
                recovered, _lsn = recover_engine(state.program, state.directory)
    outcome.attempted += len(state.feed) + 1
    outcome.fail(
        sorted(recovered.results(QUERY)) != sorted(before),
        "traced recovery differs from the pre-crash rows",
    )

    def mean_us(name: str, self_time: bool = False) -> float:
        values = recorder.self_times(name) if self_time else recorder.durations(name)
        return 1e6 * sum(values) / len(values) if values else 0.0

    metrics = outcome.metrics
    metrics["events.group_us_per_batch"] = mean_us("events.group")
    metrics["events.partition_us_per_batch"] = mean_us("events.partition")
    metrics["events.partition_skew"] = _lane_skew(state)
    metrics["wal.encode_us_per_batch"] = mean_us("wal.encode")
    metrics["wal.append_us_per_batch"] = mean_us("wal.append", self_time=True)
    syncs = recorder.durations("wal.sync")
    metrics["wal.sync_ms"] = 1e3 * sum(syncs)
    metrics["wal.syncs"] = float(len(syncs))
    metrics["wal.bytes"] = float(wal_bytes)
    metrics["snapshot.save_ms"] = 1e3 * sum(recorder.durations("snapshot.save"))
    metrics["snapshot.bytes"] = float(snapshot_bytes)
    metrics["snapshot.load_ms"] = 1e3 * sum(recorder.durations("snapshot.load"))
    replays = recorder.durations("recovery.replay")
    metrics["recovery.replay_ms"] = 1e3 * sum(replays)
    metrics["recovery.replayed_batches"] = float(max(0, len(replays) - 1))
    # The wrapped engine's share of one logged batch (ingest spans only:
    # the ShardedEngine; recovery applies through a plain DeltaEngine
    # nested under recovery.restore).
    log_spans = len(recorder.durations("durable.log_and_apply"))
    applied = [
        recorder.end[i] - recorder.start[i]
        for i, parent in enumerate(recorder.parent)
        if recorder.names[recorder.name_id[i]] == "engine.batch"
        and parent >= 0
        and recorder.names[recorder.name_id[parent]] == "durable.log_and_apply"
    ]
    metrics["durable.apply_us_per_batch"] = 1e6 * sum(applied) / log_spans
    metrics["engine.batch_us_per_event"] = 1e6 * sum(applied) / len(state.feed)
    metrics["engine.events_skipped"] = float(engine.events_skipped)
    return outcome
