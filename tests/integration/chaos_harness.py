"""Composable fault-schedule driver for end-to-end serving chaos tests.

One scenario = one engine/server configuration, one event stream, one
:class:`FaultSchedule` saying *when* to hurt it:

* ``kill_worker_at = (batch, lane)`` — SIGKILL a forked shard worker
  just before that batch is published (the supervisor must respawn and
  rebuild it);
* ``drop_client_at = batch`` — tear the observing subscriber's
  connection after that batch: half a length prefix is written (the
  server must log-and-reap the torn frame) and the socket is closed
  (the client must reconnect and resume from its last delivered LSN);
* ``restart_server_at = batch`` — stop the server after that batch and
  start a fresh one on the same port over the same engine (durable
  configurations only: LSNs must survive the restart);
* ``stalled_reader = True`` — attach a subscriber that never reads, on
  a server with a small queue and an idle timeout: it must be evicted
  (with a ``timeout`` frame) rather than pinning ``block`` ingest.

:func:`run_scenario` runs the stream twice — once fault-free, once
under the schedule — through identical configurations, and returns both
delta logs.  The contract under test: the faulted subscriber's
reassembled log is **repr-identical** to the fault-free one, and its
accumulated rows equal the engine's final results.  (Fault schedules
here never truncate the WAL, so ``resume_gap`` — whose fallback
legitimately rewrites the sequence — cannot occur; the gap path is
pinned separately in ``tests/runtime/test_serving.py``.)
"""

from __future__ import annotations

import os
import random
import signal
import socket
import struct
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional
from unittest import mock

from repro.runtime import DeltaEngine, ShardedEngine
from repro.runtime.durability import DurableEngine
from repro.runtime.serving import (
    ReconnectingSubscriber,
    ServerThread,
    encode_frame,
)

#: Server knobs shared by the oracle and the faulted run.  The queue is
#: small so a stalled reader actually exerts backpressure; the idle
#: timeout evicts it well inside the watchdog budget.
QUEUE_FRAMES = 8
IDLE_TIMEOUT = 0.5


@dataclass
class FaultSchedule:
    """When to inject which fault, in published-batch indexes."""

    kill_worker_at: Optional[tuple[int, int]] = None  # (batch, lane)
    drop_client_at: Optional[int] = None
    restart_server_at: Optional[int] = None
    stalled_reader: bool = False

    def describe(self) -> str:
        parts = []
        if self.kill_worker_at is not None:
            parts.append(
                f"kill lane {self.kill_worker_at[1]} at batch "
                f"{self.kill_worker_at[0]}"
            )
        if self.drop_client_at is not None:
            parts.append(f"drop client at batch {self.drop_client_at}")
        if self.restart_server_at is not None:
            parts.append(f"restart server at batch {self.restart_server_at}")
        if self.stalled_reader:
            parts.append("stalled reader attached")
        return ", ".join(parts) or "fault-free"


def _make_engine(program, shards: int, durable: bool, directory):
    if durable:
        extra = {"parallel": True, "supervise": True} if shards > 1 else {}
        return DurableEngine(
            program, directory, fsync="none", shards=shards, **extra,
        )
    if shards > 1:
        return ShardedEngine(
            program, shards=shards, parallel=True, supervise=True,
        )
    return DeltaEngine(program)


def _lanes_of(engine):
    inner = getattr(engine, "engine", engine)
    return getattr(inner, "_lanes", None)


def _kill_lane(engine, lane: int) -> None:
    lanes = _lanes_of(engine)
    proc = lanes[lane % len(lanes)]._proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)


def _tear_connection(subscriber: ReconnectingSubscriber) -> None:
    """Kill the subscriber's socket mid-frame: half a length prefix out,
    then a hard close — the server sees a torn frame, the client a dead
    connection."""
    sock = subscriber._client._sock
    try:
        sock.sendall(b"\x00\x00")
    except OSError:
        pass
    sock.close()


class _StalledReader:
    """A subscriber that subscribes and then never reads again."""

    def __init__(self, host: str, port: int, view: str) -> None:
        self._sock = socket.create_connection((host, port), timeout=10)
        self._sock.sendall(encode_frame({"op": "subscribe", "view": view}))
        # Read just the snapshot reply, then go silent with a tiny
        # receive buffer so the server-side queue genuinely backs up.
        prefix = self._recv_exactly(4)
        (length,) = struct.unpack(">I", prefix)
        self._recv_exactly(length)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)

    def _recv_exactly(self, n: int) -> bytes:
        chunks = b""
        while len(chunks) < n:
            chunk = self._sock.recv(n - len(chunks))
            if not chunk:
                raise ConnectionError("server closed")
            chunks += chunk
        return chunks

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _start_with_rebind_retry(handle, attempts: int = 50) -> None:
    """Start a server that reclaims a just-released port.  The previous
    server closes its sockets before ``stop()`` returns, but the kernel
    may hold the port briefly; reconnecting subscribers need the *same*
    port back, so retry the bind rather than picking a fresh one."""
    for attempt in range(attempts):
        try:
            handle.start()
            return
        except OSError:
            if attempt == attempts - 1:
                raise
            time.sleep(0.1)


# A journal-supervised run re-bases its in-memory log every 8 batches, so
# a short scenario's kill lands past a checkpoint, not only before one;
# the subscriber retries a torn connection within 10-200 ms.
@mock.patch("repro.runtime.engine._CHECKPOINT_EVERY", 8)
@mock.patch("repro.runtime.serving._BACKOFF_BASE", 0.01)
@mock.patch("repro.runtime.serving._BACKOFF_MAX", 0.2)
def _drive(program, batches, *, shards, durable, directory,
           schedule: FaultSchedule, seed: int):
    """One full run; returns (delta_log, rows, engine_rows, server_stats)."""
    engine = _make_engine(program, shards, durable, directory)
    handle = ServerThread(
        engine, queue_frames=QUEUE_FRAMES, idle_timeout=IDLE_TIMEOUT
    )
    handle.start()
    stalled = None
    subscriber = ReconnectingSubscriber(
        handle.host, handle.port, "q", timeout=30.0, rng=random.Random(seed)
    )
    stats = {"timed_out": 0, "reconnects": 0}
    try:
        if schedule.stalled_reader:
            stalled = _StalledReader(handle.host, handle.port, "q")
        for index, (relation, sign, rows) in enumerate(batches):
            if (
                schedule.kill_worker_at is not None
                and schedule.kill_worker_at[0] == index
            ):
                _kill_lane(engine, schedule.kill_worker_at[1])
            handle.publish(relation, sign, rows)
            if schedule.drop_client_at == index:
                _tear_connection(subscriber)
            if schedule.restart_server_at == index:
                port = handle.port
                handle.stop()
                handle = ServerThread(
                    engine, port=port,
                    queue_frames=QUEUE_FRAMES, idle_timeout=IDLE_TIMEOUT,
                )
                _start_with_rebind_retry(handle)
        final_lsn = handle.server.tap.lsn
        subscriber.pump_until(final_lsn, deadline=60.0)
        log = [
            (frame["lsn"], frame["changes"]) for frame in subscriber.deltas
        ]
        rows = Counter(subscriber.rows)
        engine_rows = Counter(engine.results("q"))
        stats["timed_out"] = handle.server.clients_timed_out
        stats["reconnects"] = subscriber.reconnects
        return log, rows, engine_rows, stats
    finally:
        subscriber.close()
        if stalled is not None:
            stalled.close()
        handle.stop()
        if hasattr(engine, "close"):
            engine.close()


def run_scenario(program, batches, *, shards=1, durable=False,
                 directory=None, schedule: Optional[FaultSchedule] = None,
                 oracle_directory=None, seed: int = 0) -> dict:
    """Run ``batches`` fault-free and under ``schedule``; both logs must
    agree.  Returns a report dict (see keys below); raises AssertionError
    on any parity violation."""
    schedule = schedule or FaultSchedule()
    oracle_log, oracle_rows, oracle_engine_rows, _ = _drive(
        program, batches, shards=shards, durable=durable,
        directory=oracle_directory, schedule=FaultSchedule(), seed=seed,
    )
    faulted_log, faulted_rows, engine_rows, stats = _drive(
        program, batches, shards=shards, durable=durable,
        directory=directory, schedule=schedule, seed=seed,
    )
    assert faulted_rows == engine_rows, (
        f"subscriber rows diverged from the engine under: "
        f"{schedule.describe()}"
    )
    assert oracle_rows == oracle_engine_rows
    assert repr(faulted_log) == repr(oracle_log), (
        f"delta log not repr-identical to the fault-free run under: "
        f"{schedule.describe()}\n"
        f"fault-free: {oracle_log!r}\nfaulted:    {faulted_log!r}"
    )
    return {
        "schedule": schedule.describe(),
        "deltas": len(faulted_log),
        "reconnects": stats["reconnects"],
        "timed_out": stats["timed_out"],
    }
