"""Durability cost: WAL overhead per fsync policy, recovery vs suffix length.

The durable engine logs every batch before applying it
(:mod:`repro.runtime.durability`), so the questions this benchmark
answers are the ones a deployment would ask:

* **logging overhead** — events/second with the WAL on (per fsync
  policy: ``always`` / ``batch`` / ``none``) vs the same engine with
  durability off, on the finance workloads at batch 100.
  ``process_stream`` cuts per-relation batches, inserts and cancels
  together (one frame each, a mixed one carrying its weight column), so
  the order-book feed logs ~2.4 events per frame, not the 1.25 a
  ``(relation, sign)`` run used to hold.  Frames pickle their rows (up
  to 4 rows, and every mixed batch) or pack their columns, so the
  marginal cost should be dominated by the per-frame work and the fsync
  discipline.  The acceptance gate is on the log's *absolute* cost:
  ``fsync=batch`` (the default policy) adds at most
  ``BATCH_WAL_OPS_LIMIT`` calibration ops of work per event on the
  finance workloads.  (It used to be "<= 30% of durability-off
  throughput", which a faster engine fails without the log changing:
  when dict storage became the default the engines under the log sped up
  ~3x, the log's 4-5 us per event stayed put, and the relative overhead
  went from 12-26% to 31-55%.  The relative column is still printed.);
* **recovery time vs suffix length** — recovery replays the WAL suffix
  past the snapshot watermark through the normal batch path, so restart
  latency is linear in the un-checkpointed suffix.  The table drives one
  log, snapshots at several points, and times recovery against each
  watermark — the number ``--snapshot-every`` trades against.

Run::

    PYTHONPATH=src python benchmarks/bench_durability.py [--smoke]
        [--events N] [--json PATH]
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import (  # noqa: E402
    bench_metadata,
    calibration_score,
    write_bench_json,
)

#: Finance queries the overhead gate runs over (the same numeric
#: workloads the other benches measure).
OVERHEAD_QUERIES = ("vwap", "bsp")

#: The acceptance gate: fsync=batch may add at most this much work per
#: event at batch 100, counted in harness calibration ops (one dict update
#: of the trigger hot path's shape, ~0.25 us on a 4M ops/s host) — an
#: absolute cost, so the gate neither loosens nor tightens when the
#: engine under the log changes speed.  Measured: ~15 on both workloads.
BATCH_WAL_OPS_LIMIT = 30.0

BATCH_SIZE = 100

FSYNC_POLICIES = ("always", "batch", "none")


def _finance_program(query: str):
    from repro.compiler import compile_sql
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    return compile_sql(FINANCE_QUERIES[query], finance_catalog(), name=query)


def _finance_events(event_count: int, seed: int = 11) -> list:
    from repro.workloads.orderbook import OrderBookGenerator

    return list(OrderBookGenerator(seed=seed).events(event_count))


def measure_overhead(query: str, events: list, rounds: int = 3) -> dict:
    """Throughput of one query, durability off vs each fsync policy.

    Every configuration processes the identical stream at batch 100;
    reported numbers are the best of ``rounds``.  Configurations are
    *interleaved* within each round (off, always, batch, none, off, ...)
    so machine-load drift lands on all of them equally rather than
    skewing whichever config happened to run during a slow phase —
    best-of then converges on each config's clean throughput.  Durable
    runs re-create their directory each round, so no run replays a
    predecessor's log.
    """
    from repro.runtime import DeltaEngine
    from repro.runtime.durability import DurableEngine

    program = _finance_program(query)
    row: dict[str, float] = {key: 0.0 for key in ("off",) + FSYNC_POLICIES}

    for _ in range(rounds):
        engine = DeltaEngine(program)
        start = time.perf_counter()
        engine.process_stream(events, batch_size=BATCH_SIZE)
        elapsed = time.perf_counter() - start
        row["off"] = max(row["off"], len(events) / elapsed)

        for policy in FSYNC_POLICIES:
            directory = tempfile.mkdtemp(prefix=f"bench-wal-{query}-")
            try:
                engine = DurableEngine(program, directory, fsync=policy)
                start = time.perf_counter()
                engine.process_stream(events, batch_size=BATCH_SIZE)
                engine.sync()
                elapsed = time.perf_counter() - start
                engine.close()
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            row[policy] = max(row[policy], len(events) / elapsed)
    return row


def batch_wal_us(row: dict) -> float:
    """Microseconds fsync=batch logging adds to one event."""
    return 1e6 * (1.0 / row["batch"] - 1.0 / row["off"])


def print_overhead_table(rows: dict[str, dict], calibration: float) -> None:
    header = (
        f"{'query':<8}{'off ev/s':>12}"
        + "".join(f"{policy + ' ev/s':>14}" for policy in FSYNC_POLICIES)
        + f"{'batch ovh':>11}{'us/event':>10}{'cal ops':>9}"
    )
    print(f"WAL overhead — finance workloads, batch {BATCH_SIZE} "
          f"(calibration {calibration:,.0f} ops/s)")
    print(header)
    print("-" * len(header))
    for query, row in rows.items():
        overhead = 1.0 - row["batch"] / row["off"]
        wal_us = batch_wal_us(row)
        print(
            f"{query:<8}{row['off']:>12,.0f}"
            + "".join(f"{row[policy]:>14,.0f}" for policy in FSYNC_POLICIES)
            + f"{overhead:>10.1%}{wal_us:>10.2f}"
            + f"{wal_us * calibration / 1e6:>9.1f}"
        )
    print()


def check_overhead_target(rows: dict[str, dict], calibration: float) -> bool:
    """The gate: fsync=batch adds <= BATCH_WAL_OPS_LIMIT calibration ops
    of work per event."""
    failing = [
        query
        for query, row in rows.items()
        if batch_wal_us(row) * calibration / 1e6 > BATCH_WAL_OPS_LIMIT
    ]
    if failing:
        print(
            f"!! durability target MISSED: fsync=batch adds more than "
            f"{BATCH_WAL_OPS_LIMIT:g} calibration ops per event on "
            f"{', '.join(failing)}"
        )
    else:
        print(
            f"durability target met: fsync=batch adds <= "
            f"{BATCH_WAL_OPS_LIMIT:g} calibration ops per event on "
            f"{', '.join(rows)} (batch {BATCH_SIZE})"
        )
    print()
    return not failing


def measure_recovery(query: str, events: list, points: int = 4) -> list[dict]:
    """Recovery time against WAL-suffix length, one shared log.

    The whole stream is logged once; snapshots are taken at ``points``
    evenly spaced watermarks by replay-and-checkpoint, then recovery from
    each snapshot times the suffix replay that remains.
    """
    from repro.runtime.durability import (
        DurableEngine,
        SnapshotStore,
        WriteAheadLog,
        recover_engine,
    )

    program = _finance_program(query)
    rows = []
    directory = tempfile.mkdtemp(prefix=f"bench-recover-{query}-")
    try:
        with DurableEngine(program, directory, fsync="none") as engine:
            engine.process_stream(events, batch_size=BATCH_SIZE)
            total_lsn = engine.lsn
        store = SnapshotStore(directory, keep=points + 1)
        for index in range(points):
            watermark = total_lsn * index // points
            # Checkpoint at this watermark: replay the prefix into a fresh
            # engine and save its state, so recovery below replays only
            # the remaining suffix.
            from repro.runtime import DeltaEngine

            prefix = DeltaEngine(program)
            for lsn, relation, sign, columns in WriteAheadLog.replay(directory):
                if lsn > watermark:
                    break
                prefix.process_batch_columns(relation, sign, columns)
            store.save(
                watermark,
                {
                    "maps": {
                        name: dict(contents)
                        for name, contents in prefix.maps.items()
                    },
                    "events_processed": prefix.events_processed,
                    "events_skipped": prefix.events_skipped,
                    "stream_started": prefix._stream_started,
                },
            )
            start = time.perf_counter()
            recovered, lsn = recover_engine(program, directory)
            elapsed = time.perf_counter() - start
            assert lsn == total_lsn
            rows.append(
                {
                    "watermark": watermark,
                    "suffix_frames": total_lsn - watermark,
                    "recovery_s": elapsed,
                }
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return rows


def print_recovery_table(query: str, rows: list[dict]) -> None:
    header = f"{'snapshot LSN':>13}{'suffix frames':>15}{'recovery':>11}"
    print(f"recovery time vs WAL suffix — {query}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['watermark']:>13,}{row['suffix_frames']:>15,}"
            f"{row['recovery_s'] * 1000:>9,.1f}ms"
        )
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast configuration (CI)")
    parser.add_argument("--events", type=int, default=None,
                        help="order-book events to drive (default "
                        "4000 smoke / 40000 full)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write metrics JSON (uploaded as a CI artifact)")
    args = parser.parse_args(argv)

    event_count = args.events or (8_000 if args.smoke else 40_000)
    events = _finance_events(event_count)

    overhead = {
        query: measure_overhead(query, events, rounds=4 if args.smoke else 5)
        for query in OVERHEAD_QUERIES
    }
    # Right after the timed runs, so host-speed drift hits both alike.
    calibration = calibration_score()
    print_overhead_table(overhead, calibration)
    ok = check_overhead_target(overhead, calibration)

    recovery = measure_recovery("vwap", events)
    print_recovery_table("vwap", recovery)

    if args.json:
        metrics: dict[str, float] = {}
        for query, row in overhead.items():
            for key, value in row.items():
                metrics[f"wal/{query}/{key}"] = value
            metrics[f"wal/{query}/batch_overhead"] = 1.0 - row["batch"] / row["off"]
            metrics[f"wal/{query}/batch_us_per_event"] = batch_wal_us(row)
        for row in recovery:
            metrics[f"recovery/suffix_{row['suffix_frames']}/seconds"] = row[
                "recovery_s"
            ]
        write_bench_json(
            args.json, "durability", metrics,
            metadata={
                **bench_metadata(),
                "events": event_count,
                "batch_size": BATCH_SIZE,
                "batch_wal_ops_limit": BATCH_WAL_OPS_LIMIT,
                "overhead_queries": list(OVERHEAD_QUERIES),
            },
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
