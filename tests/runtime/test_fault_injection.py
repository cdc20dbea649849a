"""Crash-recovery properties: kill the engine anywhere, recover, compare.

The recovery invariant (the DBSP framing: Z-set state is a function of
the delta-stream prefix): after a crash at *any* point, snapshot +
WAL-suffix replay must land on a state identical to an uninterrupted
reference engine that applied the logged prefix — and recovering twice
must be idempotent.

Three layers:

* a **hypothesis suite** over random R/S/T streams × batch sizes ×
  fsync policies × crash points, using in-process crash
  emulation (the probe raises, ``abandon()`` drops unflushed state — the
  WAL writes through unbuffered ``os.write``, so the surviving bytes are
  a SIGKILL's);
* **real SIGKILL subprocesses** via the harness in ``fault_injection.py``
  on the finance and warehouse workloads (including a sharded child);
* the **dead-worker satellite**: a SIGKILLed shard worker must surface as
  a clear :class:`~repro.errors.EventError`, not a hang or raw EOF.
"""

import multiprocessing
import os
import signal
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))
from fault_injection import (  # noqa: E402
    CRASH_LABELS,
    assert_recovery_parity,
    build_program,
    run_to_crash,
    stream_events,
)

from repro.compiler import compile_sql  # noqa: E402
from repro.errors import EventError  # noqa: E402
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent  # noqa: E402
from repro.runtime.durability import (  # noqa: E402
    CrashPoint,
    DurableEngine,
    recover_engine,
)
from repro.runtime.events import batches  # noqa: E402
from repro.sql.catalog import Catalog  # noqa: E402
from tests.strategies import events  # noqa: E402

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""

_PROGRAM = None


def _program():
    global _PROGRAM
    if _PROGRAM is None:
        _PROGRAM = compile_sql(
            "SELECT r.B, sum(r.A * s.C) FROM R r, S s WHERE r.B = s.B "
            "GROUP BY r.B",
            Catalog.from_script(CATALOG_DDL),
            name="q",
        )
    return _PROGRAM


class _InjectedCrash(Exception):
    """Stands in for SIGKILL inside the hypothesis loop."""


def _raise_crash():
    raise _InjectedCrash()


def _run_until_crash(directory, stream, batch_size, label, hits, fsync,
                     snapshot_every):
    """Process the stream under an in-process crash probe.

    Returns True when the crash fired (on-disk state is now exactly what a
    SIGKILL at that point would leave); False when the stream outran it.
    """
    probe = CrashPoint(label, hits=hits, action=_raise_crash)
    engine = DurableEngine(
        _program(), directory, fsync=fsync, snapshot_every=snapshot_every,
        probe=probe,
    )
    try:
        engine.process_stream(stream, batch_size=batch_size)
        # Buffered policies flush at close, so the crash can fire there
        # too — that is still a mid-flush SIGKILL, not a clean shutdown.
        engine.close()
    except _InjectedCrash:
        engine.abandon()
        return True
    return False


@settings(max_examples=25, deadline=None)
@given(
    stream=st.lists(events(), min_size=1, max_size=40),
    batch_size=st.integers(min_value=1, max_value=8),
    fsync=st.sampled_from(["always", "batch", "none"]),
    label=st.sampled_from(sorted(CRASH_LABELS)),
    hits=st.integers(min_value=1, max_value=6),
    snapshot_every=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
)
def test_crash_anywhere_recovers_to_reference(
    stream, batch_size, fsync, label, hits, snapshot_every
):
    stream_events_ = [
        StreamEvent(relation, sign, values)
        for relation, sign, values in stream
    ]
    with tempfile.TemporaryDirectory() as directory:
        _run_until_crash(
            directory, stream_events_, batch_size, label, hits, fsync,
            snapshot_every,
        )
        engine, lsn = recover_engine(_program(), directory)
        # Reference: a fresh engine over the first `lsn` batches — LSNs are
        # assigned 1:1 to the deterministic batch grouping.
        reference = DeltaEngine(_program())
        for index, batch in enumerate(batches(stream_events_, batch_size)):
            if index >= lsn:
                break
            reference._process_batch(batch)
        assert repr(engine.maps) == repr(reference.maps)
        assert engine.results("q") == reference.results("q")
        assert engine.events_processed == reference.events_processed
        assert engine.events_skipped == reference.events_skipped
        # Idempotence: the watermark pins the replay suffix, so recovering
        # again (same LSN) applies nothing twice.
        again, lsn_again = recover_engine(_program(), directory)
        assert lsn_again == lsn
        assert repr(again.maps) == repr(engine.maps)


@settings(max_examples=15, deadline=None)
@given(
    stream=st.lists(events(), min_size=1, max_size=30),
    batch_size=st.integers(min_value=1, max_value=8),
    cut=st.integers(min_value=0, max_value=30),
)
def test_reopened_durable_engine_continues_the_log(stream, batch_size, cut):
    """Close mid-stream, reopen, finish: the final state must equal one
    uninterrupted engine (resume-at-the-right-LSN, the restart path)."""
    stream_events_ = [
        StreamEvent(relation, sign, values)
        for relation, sign, values in stream
    ]
    head, tail = stream_events_[:cut], stream_events_[cut:]
    with tempfile.TemporaryDirectory() as directory:
        with DurableEngine(_program(), directory, fsync="batch") as engine:
            engine.process_stream(head, batch_size=batch_size)
        with DurableEngine(_program(), directory) as engine:
            engine.process_stream(tail, batch_size=batch_size)
            recovered_maps = repr(engine.maps)
            results = engine.results("q")
        reference = DeltaEngine(_program())
        reference.process_stream(head, batch_size=batch_size)
        reference.process_stream(tail, batch_size=batch_size)
        assert recovered_maps == repr(reference.maps)
        assert results == reference.results("q")


@settings(max_examples=10, deadline=None)
@given(
    stream=st.lists(events(), min_size=1, max_size=30),
    batch_size=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=2, max_value=3),
    label=st.sampled_from(["engine.after_append", "engine.after_apply"]),
    hits=st.integers(min_value=1, max_value=4),
)
def test_crash_recovers_into_any_shard_count(
    stream, batch_size, shards, label, hits
):
    """The WAL is written pre-partition, so one log recovers into a single
    engine or any shard fan-out with identical merged contents."""
    stream_events_ = [
        StreamEvent(relation, sign, values)
        for relation, sign, values in stream
    ]
    with tempfile.TemporaryDirectory() as directory:
        _run_until_crash(
            directory, stream_events_, batch_size, label, hits,
            "always", None,
        )
        single, lsn = recover_engine(_program(), directory)
        sharded, lsn_sharded = recover_engine(_program(), directory, shards=shards)
        assert lsn_sharded == lsn
        assert sharded.merged_maps() == single.maps
        assert sharded.results("q") == single.results("q")
        assert sharded.events_processed == single.events_processed


# ---------------------------------------------------------------------------
# Real SIGKILL subprocesses (the harness's reason to exist)
# ---------------------------------------------------------------------------

_SIGKILL_SCENARIOS = [
    # (label, hits, fsync, snapshot_every)
    ("engine.after_append", 11, "always", None),
    ("engine.after_apply", 11, "always", None),
    ("wal.mid_frame", 6, "always", None),
    ("snapshot.mid_write", 1, "batch", 64),
    ("snapshot.before_rename", 1, "batch", 64),
]


@pytest.mark.parametrize("label, hits, fsync, snapshot_every", _SIGKILL_SCENARIOS)
def test_sigkill_child_recovers_to_reference(
    tmp_path, label, hits, fsync, snapshot_every
):
    workload, n_events, seed, batch_size = "finance", 300, 2009, 16
    code = run_to_crash(
        tmp_path, label, hits, workload=workload, n_events=n_events,
        seed=seed, batch_size=batch_size, fsync=fsync,
        snapshot_every=snapshot_every,
    )
    assert code == -signal.SIGKILL
    engine, lsn = recover_engine(build_program(workload), tmp_path)
    assert lsn > 0
    assert_recovery_parity(engine, lsn, workload, n_events, seed, batch_size)


@pytest.mark.parametrize("label", ["engine.after_append", "engine.after_apply"])
def test_sigkill_warehouse_child_recovers(tmp_path, label):
    workload, n_events, seed, batch_size = "warehouse", 3000, 1992, 64
    code = run_to_crash(
        tmp_path, label, 9, workload=workload,
        n_events=n_events, seed=seed, batch_size=batch_size,
        fsync="always",
    )
    assert code == -signal.SIGKILL
    engine, lsn = recover_engine(build_program(workload), tmp_path)
    assert lsn > 0
    assert_recovery_parity(engine, lsn, workload, n_events, seed, batch_size)


def _fork_available() -> bool:
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


@pytest.mark.skipif(not _fork_available(), reason="fork not available")
@pytest.mark.parametrize("recovered_shards", [1, 2])
def test_sigkill_sharded_child_recovers(tmp_path, recovered_shards):
    """A sharded durable engine logs pre-partition in the router, so the
    directory a killed sharded run leaves recovers like any other — into
    a single engine or a sharded one."""
    workload, n_events, seed, batch_size = "finance", 300, 2009, 16
    code = run_to_crash(
        tmp_path, "engine.after_append", 11, workload=workload,
        n_events=n_events, seed=seed, batch_size=batch_size,
        fsync="always", shards=2,
    )
    assert code == -signal.SIGKILL
    engine, lsn = recover_engine(
        build_program(workload), tmp_path, shards=recovered_shards
    )
    assert lsn > 0
    assert_recovery_parity(engine, lsn, workload, n_events, seed, batch_size)


def test_stream_finishing_before_crash_point_exits_cleanly(tmp_path):
    code = run_to_crash(
        tmp_path, "engine.after_append", 10_000, n_events=100, batch_size=16,
    )
    assert code == 0
    engine, lsn = recover_engine(build_program("finance"), tmp_path)
    assert_recovery_parity(engine, lsn, "finance", 100, 2009, 16)


# ---------------------------------------------------------------------------
# Dead shard workers must fail loudly (not hang, not raw EOFError)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not _fork_available(), reason="fork not available")
def test_dead_shard_worker_raises_clear_error():
    program = _program()
    engine = ShardedEngine(program, shards=2, parallel=True)
    if not engine.parallel:
        pytest.skip("process lanes unavailable")
    try:
        engine.process_batch("R", 1, [(i, i % 3) for i in range(32)])
        engine.sync()
        victim = engine._lanes[0]
        os.kill(victim._proc.pid, signal.SIGKILL)
        victim._proc.join(timeout=10)
        with pytest.raises(EventError) as excinfo:
            engine.sync()
        message = str(excinfo.value)
        assert "shard worker 0" in message
        assert "died mid-operation" in message
        assert "SIGKILL" in message
    finally:
        engine.close()


@pytest.mark.skipif(not _fork_available(), reason="fork not available")
def test_dead_shard_worker_detected_from_reads():
    engine = ShardedEngine(_program(), shards=2, parallel=True)
    if not engine.parallel:
        pytest.skip("process lanes unavailable")
    try:
        engine.process_batch("S", 1, [(i % 4, i) for i in range(32)])
        engine.sync()
        victim = engine._lanes[1]
        os.kill(victim._proc.pid, signal.SIGKILL)
        victim._proc.join(timeout=10)
        with pytest.raises(EventError, match="shard worker 1 .*died"):
            engine.merged_maps()
    finally:
        engine.close()
