"""E8 — sharded parallel delta processing: events/second vs shard count.

Motivation: the compiler's partitioning analysis
(:mod:`repro.compiler.partition`) proves, per trigger, that every map
access is keyed on one event column; hash-routing batches by that column
gives each shard exclusive ownership of a key slice of every map it
touches.  That independence pays twice:

* **state partitioning** — a shard's maps hold ~1/N of the entries, so
  trigger loops that scan map state (the no-index ablation makes this
  visible) touch ~1/N of the data *even on one core*;
* **parallel lanes** — with ``parallel=True`` each shard is a forked
  worker process, overlapping trigger execution across cores (the gain
  scales with physical cores, so it shows on multi-core CI but not in a
  single-core container).

Methodology
-----------
Each workload engine is prefilled to steady state (untimed), then a fixed
event slice is routed through ``process_stream`` with the engine's batch
path; timing includes the final ``sync()`` barrier for worker lanes.
``shards=1`` is a plain single ``DeltaEngine`` — the true no-sharding
baseline.  After measuring, the sharded engine's merged maps are verified
**identical** to a single-engine run of the same stream.  Workloads the
analysis cannot partition (psp's scalar running sums, SSB's star join)
run through the serial-fallback lane and are expected near 1x — they pin
the fallback's parity, not a speedup.

Run::

    PYTHONPATH=src python benchmarks/bench_sharding.py [--smoke]
        [--shards 1,2,4]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from repro.compiler import compile_sql
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent

DEFAULT_SHARDS = (1, 2, 4)


@dataclass
class Workload:
    """One measured configuration: a program plus its delivery settings."""

    name: str
    program: object
    events: list
    prefill: int
    mode: str = "compiled"
    use_indexes: bool = True
    parallel: bool = False
    batch_size: int = 1000
    expect_partitionable: bool = True
    #: merged-map reference, computed lazily from a single engine.
    _reference: dict = field(default=None, repr=False)

    def reference_maps(self) -> dict:
        if self._reference is None:
            engine = DeltaEngine(
                self.program, mode=self.mode, use_indexes=self.use_indexes
            )
            engine.process_stream(self.events, batch_size=self.batch_size)
            self._reference = engine.maps
        return self._reference

    def make_engine(self, shards: int):
        if shards == 1:
            return DeltaEngine(
                self.program, mode=self.mode, use_indexes=self.use_indexes
            )
        return ShardedEngine(
            self.program,
            shards=shards,
            mode=self.mode,
            parallel=self.parallel,
            use_indexes=self.use_indexes,
        )


def finance_workloads(smoke: bool) -> list[Workload]:
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.orderbook import OrderBookGenerator

    catalog = finance_catalog()

    def program(query: str):
        return compile_sql(FINANCE_QUERIES[query], catalog, name="q")

    def book(prefill: int, slice_size: int, brokers: int = 32) -> list:
        return list(
            OrderBookGenerator(seed=2009, brokers=brokers).events(
                prefill + slice_size
            )
        )

    # Fast-trigger slices are sized so measured intervals stay in the tens
    # of milliseconds even at several hundred k events/s: millisecond
    # timings are noise.
    if smoke:
        scan_prefill, scan_slice = 6_000, 700
        fast_prefill, fast_slice = 1_500, 6_000
    else:
        scan_prefill, scan_slice = 30_000, 3_000
        fast_prefill, fast_slice = 10_000, 8_000
    return [
        # State partitioning: the no-index axf trigger scans the opposite
        # book per event; shard maps are ~1/N the size (>=2x at 4 shards).
        Workload(
            name="axf/scan",
            program=program("axf"),
            events=book(scan_prefill, scan_slice),
            prefill=scan_prefill,
            use_indexes=False,
        ),
        # Indexed O(1) triggers: routing overhead vs batch amortisation.
        Workload(
            name="bsp/indexed",
            program=program("bsp"),
            events=book(fast_prefill, fast_slice),
            prefill=fast_prefill,
        ),
        # Parallel worker lanes on the interpretation-heavy path: gains
        # scale with physical cores (near 1x on a single-core host).
        Workload(
            name="bsp/interp-proc",
            program=program("bsp"),
            events=book(fast_prefill, fast_slice if smoke else 3_000),
            prefill=fast_prefill,
            mode="interpreted",
            parallel=True,
        ),
        # Serial fallback parity: scalar running sums are unpartitionable.
        Workload(
            name="psp/serial-fallback",
            program=program("psp"),
            events=book(fast_prefill, fast_slice),
            prefill=fast_prefill,
            expect_partitionable=False,
        ),
    ]


def warehouse_workload(smoke: bool) -> Workload:
    from repro.workloads.ssb import SSB_Q41_COMBINED, ssb_catalog
    from repro.workloads.tpch import TpchGenerator

    sf = 0.0004 if smoke else 0.0008
    generator = TpchGenerator(sf=sf, seed=1992)
    events = [
        StreamEvent(relation, 1, row)
        for relation, rows in generator.static_tables().items()
        for row in rows
    ]
    prefill = len(events) + generator.n_orders
    events += [
        StreamEvent(relation, 1, row)
        for relation, row in generator.orders_and_lineitems()
    ]
    slice_floor = 1_200 if smoke else 1_500
    return Workload(
        name="ssb41/serial-fallback",
        program=compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41"),
        events=events,
        prefill=min(prefill, max(len(events) - slice_floor, 0)),
        expect_partitionable=False,
    )


def measure(workload: Workload, shards: int, rounds: int) -> float:
    """Best-of-``rounds`` events/sec on the slice, with identity check."""
    prefill_events = workload.events[: workload.prefill]
    slice_events = workload.events[workload.prefill :]
    best = float("inf")
    for _ in range(rounds):
        engine = workload.make_engine(shards)
        try:
            engine.process_stream(
                prefill_events, batch_size=workload.batch_size
            )
            if isinstance(engine, ShardedEngine):
                engine.sync()
                assert (
                    engine.spec.partitionable == workload.expect_partitionable
                ), f"{workload.name}: unexpected partitionability"
            start = time.perf_counter()
            engine.process_stream(slice_events, batch_size=workload.batch_size)
            if isinstance(engine, ShardedEngine):
                engine.sync()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed / max(len(slice_events), 1))
            merged = (
                engine.current_maps()
                if isinstance(engine, ShardedEngine)
                else engine.maps
            )
            assert merged == workload.reference_maps(), (
                f"{workload.name}: shard-merged maps diverge at "
                f"shards={shards}"
            )
        finally:
            if isinstance(engine, ShardedEngine):
                engine.close()
    return 1.0 / best if best > 0 else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast configuration (CI)")
    parser.add_argument("--shards", default=None,
                        help="comma-separated shard counts (default 1,2,4)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="best-of rounds per cell (default 2)")
    args = parser.parse_args(argv)

    shard_counts = (
        tuple(int(s) for s in args.shards.split(","))
        if args.shards
        else DEFAULT_SHARDS
    )
    rounds = args.rounds or 2

    workloads = finance_workloads(args.smoke)
    workloads.append(warehouse_workload(args.smoke))

    header = f"{'workload':<22}" + "".join(
        f"{f'shards={n}':>14}" for n in shard_counts
    )
    header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    best_speedup, best_name = 0.0, ""
    for workload in workloads:
        row = {n: measure(workload, n, rounds) for n in shard_counts}
        speedup = (
            row[shard_counts[-1]] / row[shard_counts[0]]
            if row[shard_counts[0]]
            else float("inf")
        )
        if workload.expect_partitionable and speedup > best_speedup:
            best_speedup, best_name = speedup, workload.name
        cells = "".join(f"{row[n]:>12,.0f}/s" for n in shard_counts)
        print(f"{workload.name:<22}{cells}{speedup:>9.2f}x")
    print()
    print(
        "identity check: shard-merged maps == single-engine maps on "
        f"{len(workloads)} workloads x {len(shard_counts)} shard counts"
    )
    print(
        f"best sharding speedup: {best_speedup:.2f}x at "
        f"shards={shard_counts[-1]} ({best_name})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
