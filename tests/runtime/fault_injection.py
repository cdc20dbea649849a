"""Fault-injection harness: kill a durable engine at nasty moments.

Two halves:

* **Subprocess crashes** — :func:`run_to_crash` launches this module as a
  child process (``python fault_injection.py child ...``) that processes a
  deterministic workload stream under a :class:`~repro.runtime.durability.
  CrashPoint`, which SIGKILLs the child at the Nth occurrence of a probe
  label (mid-frame write, between WAL append and apply, mid-snapshot...).
  The parent then recovers the directory and checks parity.  This is the
  real thing: an actual unclean process death, nothing flushed that the
  kernel hadn't been given.

* **In-process crash emulation** — the hypothesis suite in
  ``test_fault_injection.py`` needs hundreds of crash/recover cycles, so
  it swaps the SIGKILL action for an exception + ``abandon()`` (drop all
  buffered state, close raw fds without flushing).  The WAL writes through
  unbuffered ``os.write``, so the bytes on disk after ``abandon()`` are
  exactly the bytes after a SIGKILL at the same point.

The parity oracle (:func:`reference_state`): LSNs are assigned 1:1 to the
batches :func:`~repro.runtime.events.batches` yields, so the state
recovered at LSN *W* must equal a fresh engine that applied the first *W*
batches of the same stream — ``repr``-identical maps, equal results and
counters.

Run ``python tests/runtime/fault_injection.py smoke`` (with ``PYTHONPATH=
src``) for the CI crash-recovery smoke: a fixed-seed finance stream,
SIGKILL mid-stream at several probe points, recover, assert parity.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.compiler import compile_sql  # noqa: E402
from repro.runtime import DeltaEngine  # noqa: E402
from repro.runtime.durability import CrashPoint, DurableEngine  # noqa: E402
from repro.runtime.events import batches  # noqa: E402

#: Probe labels the harness drives crashes through (a subset of
#: ``durability.PROBE_POINTS`` that every workload reaches).
CRASH_LABELS = (
    "wal.mid_frame",
    "engine.after_append",
    "engine.after_apply",
    "snapshot.mid_write",
    "snapshot.before_rename",
)


@lru_cache(maxsize=None)
def build_program(workload: str):
    """The compiled program of one harness workload.

    ``finance`` is the vwap query; ``bbo``/``act`` are the non-linear
    finance members (MIN/MAX and COUNT(DISTINCT) through Finalize-
    maintained auxiliary caches) — crashes there must recover the caches
    along with the ring state.
    """
    if workload in ("finance", "bbo", "act"):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        query = "vwap" if workload == "finance" else workload
        return compile_sql(FINANCE_QUERIES[query], finance_catalog(), name="q")
    if workload == "warehouse":
        from repro.workloads.ssb import SSB_Q41_COMBINED, ssb_catalog

        return compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="q")
    raise ValueError(f"unknown workload {workload!r}")


def stream_events(workload: str, n_events: int, seed: int) -> list:
    """A deterministic event stream (same bytes in parent and child)."""
    if workload in ("finance", "bbo", "act"):
        from repro.workloads.orderbook import OrderBookGenerator

        return list(OrderBookGenerator(seed=seed).events(n_events))
    if workload == "warehouse":
        from repro.runtime import StreamEvent
        from repro.workloads.tpch import TpchGenerator

        generator = TpchGenerator(sf=n_events / 7_500_000, seed=seed)
        return [
            StreamEvent(relation, 1, row)
            for relation, rows in generator.static_tables().items()
            for row in rows
        ] + [
            StreamEvent(relation, 1, row)
            for relation, row in generator.orders_and_lineitems()
        ]
    raise ValueError(f"unknown workload {workload!r}")


def reference_state(
    workload: str,
    n_events: int,
    seed: int,
    batch_size: int,
    lsn: int,
) -> DeltaEngine:
    """The oracle: a fresh engine after the first ``lsn`` batches.

    The WAL stamps one LSN per dispatched batch, in stream order, so the
    durable state at watermark ``lsn`` must match this engine exactly.
    """
    program = build_program(workload)
    engine = DeltaEngine(program)
    for index, batch in enumerate(
        batches(stream_events(workload, n_events, seed), batch_size)
    ):
        if index >= lsn:
            break
        engine._process_batch(batch)
    return engine


def assert_recovery_parity(
    engine, lsn: int, workload: str, n_events: int, seed: int,
    batch_size: int, *, exact_repr: bool = True,
) -> None:
    """Recovered state must equal the uninterrupted reference at ``lsn``."""
    reference = reference_state(workload, n_events, seed, batch_size, lsn)
    maps = engine.merged_maps() if hasattr(engine, "merged_maps") else engine.maps
    if exact_repr and not hasattr(engine, "merged_maps"):
        # Single-engine recovery reproduces storage layout and insertion
        # order, not just contents (sharded lanes hash with the per-process
        # salt, so only contents are comparable there).
        assert repr(maps) == repr(reference.maps), (
            f"recovered maps differ from reference at LSN {lsn}"
        )
    assert maps == reference.maps, (
        f"recovered maps differ from reference at LSN {lsn}"
    )
    assert engine.results("q") == reference.results("q")
    assert engine.events_processed == reference.events_processed


# ---------------------------------------------------------------------------
# Subprocess crash runner
# ---------------------------------------------------------------------------


def run_to_crash(
    directory: str | Path,
    label: str,
    hits: int,
    workload: str = "finance",
    n_events: int = 400,
    seed: int = 2009,
    batch_size: int = 16,
    fsync: str = "always",
    snapshot_every: int | None = None,
    *,
    shards: int = 1,
    timeout: float = 120.0,
) -> int:
    """Run the child workload until the crash point SIGKILLs it.

    Returns the child's return code: ``-SIGKILL`` when the crash fired,
    ``0`` when the stream finished before reaching the crash point (e.g.
    ``hits`` beyond the stream's probe count) — callers assert whichever
    they expect.
    """
    argv = [
        sys.executable, os.fspath(Path(__file__).resolve()), "child",
        "--dir", os.fspath(directory), "--label", label,
        "--hits", str(hits), "--workload", workload,
        "--events", str(n_events), "--seed", str(seed),
        "--batch-size", str(batch_size), "--fsync", fsync,
        "--shards", str(shards),
    ]
    if snapshot_every:
        argv += ["--snapshot-every", str(snapshot_every)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(argv, env=env, timeout=timeout)
    return result.returncode


def _child_main(args) -> int:
    probe = CrashPoint(args.label, hits=args.hits)  # SIGKILL on hit
    engine = DurableEngine(
        build_program(args.workload), args.dir,
        shards=args.shards, fsync=args.fsync,
        snapshot_every=args.snapshot_every, probe=probe,
    )
    events = stream_events(args.workload, args.events, args.seed)
    engine.process_stream(events, batch_size=args.batch_size)
    engine.close()
    return 0


# ---------------------------------------------------------------------------
# CI smoke: crash at a fixed seed, recover, assert parity
# ---------------------------------------------------------------------------

_SMOKE_SCENARIOS = (
    # (label, hits, fsync, snapshot_every)
    ("engine.after_append", 7, "always", None),
    ("engine.after_apply", 9, "always", 4),
    ("wal.mid_frame", 5, "always", None),
    ("snapshot.mid_write", 2, "batch", 64),
    ("snapshot.before_rename", 2, "batch", 64),
)


def _smoke_main() -> int:
    import signal
    import tempfile

    from repro.runtime.durability import WriteAheadLog, recover_engine

    workload, n_events, seed, batch_size = "finance", 400, 2009, 16
    failures = 0
    for label, hits, fsync, snapshot_every in _SMOKE_SCENARIOS:
        with tempfile.TemporaryDirectory() as directory:
            code = run_to_crash(
                directory, label, hits, workload=workload,
                n_events=n_events, seed=seed, batch_size=batch_size,
                fsync=fsync, snapshot_every=snapshot_every,
            )
            if code != -signal.SIGKILL:
                print(f"FAIL {label}: child exited {code}, expected SIGKILL")
                failures += 1
                continue
            program = build_program(workload)
            engine, lsn = recover_engine(program, directory)
            try:
                assert_recovery_parity(
                    engine, lsn, workload, n_events, seed, batch_size
                )
                # Idempotence: recovering the same directory twice reaches
                # the same watermark and the same state.
                again, lsn_again = recover_engine(program, directory)
                assert lsn_again == lsn
                assert repr(again.maps) == repr(engine.maps)
            except AssertionError as exc:
                print(f"FAIL {label}: {exc}")
                failures += 1
                continue
            frames = sum(1 for _ in WriteAheadLog.replay(directory))
            print(
                f"ok   {label:<24} fsync={fsync:<6} "
                f"recovered LSN {lsn} ({frames} frames on disk)"
            )
    if failures:
        print(f"{failures} crash-recovery scenario(s) FAILED")
        return 1
    print(f"all {len(_SMOKE_SCENARIOS)} crash-recovery scenarios recovered "
          "to reference state")
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    child = sub.add_parser("child", help="the workload process that dies")
    child.add_argument("--dir", required=True)
    child.add_argument("--label", required=True)
    child.add_argument("--hits", type=int, default=1)
    child.add_argument("--workload", default="finance")
    child.add_argument("--events", type=int, default=400)
    child.add_argument("--seed", type=int, default=2009)
    child.add_argument("--batch-size", type=int, default=16)
    child.add_argument("--fsync", default="always")
    child.add_argument("--snapshot-every", type=int, default=None)
    child.add_argument("--shards", type=int, default=1)
    sub.add_parser("smoke", help="fixed-seed SIGKILL/recover/parity sweep")
    return parser


if __name__ == "__main__":
    parsed = _build_parser().parse_args()
    if parsed.command == "child":
        sys.exit(_child_main(parsed))
    sys.exit(_smoke_main())
