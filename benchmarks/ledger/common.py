"""What every ledger workload shares: metric names, sizes, the work
directory, and the round loop.

The metric names here are the ones ``BENCHMARK.json`` declares;
``check_manifest.py`` and ``test_ledger.py`` hold the two lists equal.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from benchmarks.ledger import stats

REPO = Path(__file__).resolve().parents[2]

#: Everything the benchmark writes (WAL directories, the native kernel
#: cache, span dumps) goes here, inside the checkout.
WORK = REPO / ".bench_build" / "ledger"

WORKLOADS = (
    "finance-event",
    "warehouse-load",
    "durable-ingest",
    "serve-push",
    "compile-suite",
)

FINANCE = ("vwap", "axf", "bsp", "psp", "mst", "bbo", "act")
NATIVE = ("vwap", "axf", "bsp", "psp", "mst")

#: Layers of the dominance table: the first component of a span name,
#: which is the ``repro`` module the call entered (``bench`` is the
#: benchmark's own loop and load generator).
LAYERS = (
    "sql", "algebra", "compiler", "ir", "codegen", "engine", "events",
    "wal", "snapshot", "recovery", "durable", "views", "serving", "bench",
)

#: name -> unit.  The driver wants every end-to-end metric on every
#: workload and never 0, so only these three qualify (see README).
END_TO_END = {"events_per_s": "ev/s", "peak_rss_mb": "MB", "setup_s": "s"}

#: name -> unit, in the order the README's metric map lists them.
PER_LAYER: dict[str, str] = {
    # Demoted end-to-end numbers: measured untraced, reported without a
    # bound because they exist on one workload only (see README).
    "e2e.native_events_per_s": "ev/s",
    "e2e.state_mb": "MB",
    "e2e.recovery_s": "s",
    "e2e.wal_bytes_per_event": "B",
    "e2e.delivery_p50_ms": "ms",
    "e2e.delivery_p99_ms": "ms",
    "e2e.compile_s": "s",
    # A query's life.
    "sql.lex_ms": "ms",
    "sql.parse_ms": "ms",
    "sql.bind_ms": "ms",
    "algebra.translate_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.analyze_ms": "ms",
    "compiler.maps": "count",
    "compiler.statements": "count",
    "ir.lower_ms": "ms",
    "ir.optimize_ms": "ms",
    "ir.nodes_lowered": "count",
    "ir.nodes_optimized": "count",
    "codegen.render_ms": "ms",
    "codegen.exec_ms": "ms",
    "codegen.source_bytes": "B",
    "codegen.native_build_ms": "ms",
    # An event's life: the engine.
    **{f"engine.event_us.{q}": "us" for q in FINANCE},
    **{f"engine.event_p99_us.{q}": "us" for q in FINANCE},
    **{f"engine.native_event_us.{q}": "us" for q in NATIVE},
    "engine.batch_us_per_event": "us",
    "engine.events_skipped": "count",
    # Map storage, driven directly beside a dict.
    "storage.add_ns": "ns",
    "storage.get_ns": "ns",
    "storage.scan_ns_per_entry": "ns",
    "storage.bytes_per_entry": "B",
    "storage.entries": "count",
    "storage.dict_maps": "count",
    "storage.dict_add_ns": "ns",
    "storage.dict_get_ns": "ns",
    # Grouping and routing.
    "events.group_us_per_batch": "us",
    "events.partition_us_per_batch": "us",
    "events.partition_skew": "ratio",
    # Durability.
    "wal.encode_us_per_batch": "us",
    "wal.append_us_per_batch": "us",
    "wal.sync_ms": "ms",
    "wal.syncs": "count",
    "wal.bytes": "B",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "B",
    "snapshot.load_ms": "ms",
    "recovery.replay_ms": "ms",
    "recovery.replayed_batches": "count",
    "durable.apply_us_per_batch": "us",
    # Serving.
    "views.render_us": "us",
    "serving.decode_us": "us",
    "serving.tap_us": "us",
    "serving.encode_us": "us",
    "serving.frame_bytes": "B",
    "serving.client_apply_us": "us",
    "serving.deltas": "count",
    "serving.empty_deltas": "count",
    "serving.loop_us": "us",
    "serving.frame_share": "ratio",
    "serving.gen_late_p99_ms": "ms",
    # The trace itself, and the dominance table.
    "host.factor": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.sum_over_wall": "ratio",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
}


def prepare_environment() -> None:
    """Keep every file the program writes inside the checkout.

    The native lane caches its ``.so`` under the system temp directory
    unless told otherwise; the benchmark may only write below its own
    checkout, so both are pointed at ``WORK`` before ``repro`` loads."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(WORK / "tmp")


def fresh_directory(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run reports."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    #: Wall seconds of the traced sections, clocked outside the recorder,
    #: and of the same work run untraced (their ratio is the overhead).
    traced_wall: float = 0.0
    untraced_wall: float = 0.0

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


@contextmanager
def traced_section(recorder, outcome: Outcome) -> Iterator[None]:
    """A stretch of traced work: one ``bench.drive`` root span whose self
    time is the benchmark's own loop, and a wall clock of its own so the
    recorder's arithmetic can be checked against it."""
    started = time.perf_counter()
    with recorder.span("bench.drive"):
        yield
    outcome.traced_wall += time.perf_counter() - started


# -- host speed ---------------------------------------------------------------
#
# The reference container is a shared 2-vCPU VM whose speed moves by up to
# 1.7x for minutes at a time (neighbours on the host): far longer than a
# run, so no statistic *within* a run can see past it, and raw medians of
# ten 10-s runs taken twenty minutes apart differed by 60%.  A fixed kernel
# of interpreter work is therefore timed right before and after every
# measured round, and times are reported in **reference-host seconds**:
# wall seconds divided by how much slower than ``REFERENCE_KERNEL_S`` the
# kernel ran just then.  On the quiet reference host the factor is 1 and
# these are plain seconds; on another host every time is scaled by one
# constant, which no comparison between two commits on that host can see.
# README.md has the evidence (medians of 12-round blocks over 25 minutes:
# spread 10-15% raw, 2-4.5% in reference-host seconds).

KERNEL_STEPS = 64_000

#: The kernel's time on the reference host when nothing else runs.
REFERENCE_KERNEL_S = 0.0125


def kernel_seconds() -> float:
    """Time the calibration kernel: arithmetic, tuple building and hashing,
    and a cache-resident dict — the interpreter work every layer of the
    program is made of.  (Kernels that also walked tables larger than the
    caches tracked the workloads *worse*: the host's slow spells slow
    computation, not memory.)"""
    started = time.perf_counter()
    small: dict = {}
    get = small.get
    for i in range(KERNEL_STEPS):
        key = (i & 1023, i % 7)
        small[key] = get(key, 0) + i
    return time.perf_counter() - started


def timed(work: Callable) -> tuple:
    """Run ``work()``; returns ``(its result, wall seconds, host factor)``,
    the factor being how much slower than the reference host this one ran
    the kernel right before and after."""
    before = kernel_seconds()
    started = time.perf_counter()
    result = work()
    wall = time.perf_counter() - started
    return result, wall, (before + kernel_seconds()) / 2 / REFERENCE_KERNEL_S


def rounds(
    one_round: Callable[[], Optional[dict]], seconds: float, minimum: int = 3
) -> tuple[dict[str, list[float]], list[float]]:
    """One warm-up round, then measured rounds until ``seconds`` have
    passed (at least ``minimum``) or the input is used up.

    ``one_round()`` returns its samples as ``{name: value}``, or ``None``
    when it has no input left.  The warm-up round's samples are dropped:
    caches fill and lazy set-up finishes there.  Returns every measured
    round's samples, ``{name: [value, ...]}``, and each round's host
    factor."""
    if one_round() is None:
        raise ValueError("no input for the warm-up round")
    samples: dict[str, list[float]] = {}
    factors: list[float] = []
    started = time.perf_counter()
    while True:
        gc.collect()  # a round starts with no garbage of the previous one
        taken, _wall, factor = timed(one_round)
        if taken is None:
            break
        for name, value in taken.items():
            samples.setdefault(name, []).append(value)
        factors.append(factor)
        count = len(factors)
        elapsed = time.perf_counter() - started
        # Stop when the next round would overrun the budget.
        if count >= minimum and elapsed + elapsed / count > seconds:
            break
    if len(factors) < minimum:
        raise ValueError(f"input ran out after {len(factors)} of {minimum} rounds")
    return samples, factors


def per_reference_second(rates: list, factors: list) -> list:
    """Rates per wall second, restated per reference-host second."""
    return [rate * factor for rate, factor in zip(rates, factors)]


def reference_seconds(walls: list, factors: list) -> list:
    """Wall seconds restated as reference-host seconds."""
    return [wall / factor for wall, factor in zip(walls, factors)]


def note_host(outcome: Outcome, factors: list) -> None:
    """Record how the host ran, so raw wall times can be recovered."""
    q1, q2, q3 = stats.quartiles(factors)
    outcome.metrics["host.factor"] = q2
    outcome.notes.append(
        f"host factor (kernel time / {REFERENCE_KERNEL_S * 1e3:.1f} ms): median "
        f"{q2:.3f}, quartiles {q1:.3f}-{q3:.3f}, {len(factors)} rounds; wall "
        "seconds = reference-host seconds x factor"
    )


def summarize(outcome: Outcome, label: str, values: list, unit: str = "") -> float:
    """The median of one quantity's measured rounds; the sample count and
    quartiles go into the run's notes."""

    def show(value: float) -> str:
        return f"{value:,.0f}" if value >= 1000 else f"{value:.4g}"

    q1, q2, q3 = stats.quartiles(values)
    outcome.notes.append(
        f"{label}: median {show(q2)}{unit}, quartiles {show(q1)}-{show(q3)}, "
        f"{len(values)} rounds"
    )
    return q2
