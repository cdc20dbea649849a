"""E5 — memory usage: maintained state against the baselines, and the
native kernel's map accounting.

Two checks from the paper's "main-memory" premise:

* **state contrast** (the paper's Figure 4 reading): DBToaster's
  aggregate maps stay bounded by distinct keys while an operator network
  materialises join state and re-evaluation holds base tables — asserted
  as entry-count facts against the bakeoff baselines;
* **native kernel accounting**: on the finance queries where the native
  lane's default layout attaches the C kernel (the maps a per-event
  trigger scans whole), the kernel keeps its own packed arena on the C
  heap.  ``map_memory_bytes`` must report that arena (through
  ``storage_bytes()``), and the maps must stay equal to the dict
  engine's.

Run::

    PYTHONPATH=src python benchmarks/bench_memory.py [--smoke]
        [--events N] [--json PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.harness import bench_metadata, write_bench_json  # noqa: E402


def native_storage_table(event_count: int, seed: int = 5) -> dict[str, dict]:
    """Per-entry bytes of every finance query whose default native
    layout attaches the C kernel (vwap's scanned bids map; the other
    queries only point-probe their maps and run the compiled lane).

    Skipped with an explicit line — never silently — when the host has
    no C toolchain.
    """
    from repro.codegen.native import probe_toolchain
    from repro.compiler import compile_sql
    from repro.runtime import DeltaEngine
    from repro.runtime.profiler import map_memory_bytes
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.orderbook import OrderBookGenerator

    probe = probe_toolchain()
    if not probe.available:
        print("native kernel memory: SKIPPED — no C toolchain "
              f"({probe.describe()})\n")
        return {}
    events = list(OrderBookGenerator(seed=seed).events(event_count))
    rows: dict[str, dict] = {}
    print(f"per-entry map memory — native kernel ({probe.describe()})")
    header = f"{'query':<8}{'entries':>10}{'kernel maps':>13}{'native B/e':>13}"
    print(header)
    print("-" * len(header))
    for query, sql in FINANCE_QUERIES.items():
        program = compile_sql(sql, finance_catalog(), name=query)
        native = DeltaEngine(program, mode="native")
        if not native.native_active:
            continue
        native.process_stream(events)
        oracle = DeltaEngine(program)
        oracle.process_stream(events)
        assert native.maps == oracle.maps, (
            f"{query}: native kernel changed map contents"
        )
        sizes = map_memory_bytes(native.maps)
        kernel_maps = [
            name for name, kind in native.storage_classes().items()
            if kind == "kernel"
        ]
        for name in kernel_maps:
            assert sizes[name] == native.maps[name].storage_bytes(), (
                f"{query}: {name} not sized by its kernel arena"
            )
        total = sum(sizes.values())
        entries = max(native.total_entries(), 1)
        rows[query] = {
            "entries": entries,
            "kernel_maps": len(kernel_maps),
            "native_bytes": total,
            "native_bytes_per_entry": total / entries,
        }
        print(
            f"{query:<8}{entries:>10,}{len(kernel_maps):>13}"
            f"{total / entries:>13,.1f}"
        )
    print()
    return rows


def state_contrast(event_count: int) -> dict[str, int]:
    """The paper's state-size contrast vs the bakeoff baselines."""
    from repro.baselines import make_engine
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.orderbook import OrderBookGenerator

    def drive(kind: str, query: str):
        engine = make_engine(
            kind, {query: FINANCE_QUERIES[query]}, finance_catalog()
        )
        for event in OrderBookGenerator(seed=77).events(event_count):
            engine.process(event)
        return engine

    facts = {
        "dbtoaster/psp/entries": drive("dbtoaster", "psp").total_entries(),
        "streamops/psp/entries": drive("streamops", "psp").total_entries(),
        "reeval_lazy/psp/entries": drive("reeval_lazy", "psp").total_entries(),
        "dbtoaster/bsp/entries": drive("dbtoaster", "bsp").total_entries(),
    }
    print("state contrast — maintained entries (the Figure 4 reading)")
    for key, value in facts.items():
        print(f"  {key}: {value:,}")
    # The structural claims: constant DBToaster state on psp, join state
    # materialised by the operator network, base tables held by re-eval.
    assert facts["dbtoaster/psp/entries"] <= 10
    assert facts["streamops/psp/entries"] > 20 * facts["dbtoaster/psp/entries"]
    assert facts["reeval_lazy/psp/entries"] > facts["dbtoaster/psp/entries"]
    assert facts["dbtoaster/bsp/entries"] < 100
    print("  (structural claims hold)\n")
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast configuration (CI)")
    parser.add_argument("--events", type=int, default=None,
                        help="order-book events to drive the native lane "
                        "(default 3000 smoke / 20000 full)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write metrics JSON (uploaded as a CI artifact)")
    args = parser.parse_args(argv)

    event_count = args.events or (3_000 if args.smoke else 20_000)
    # The state-contrast claims need a settled order book: keep the E5
    # event count fixed (it is cheap) whatever the native run drives.
    contrast_count = 2_000

    native_rows = native_storage_table(event_count)
    facts = state_contrast(contrast_count)

    if args.json:
        metrics: dict[str, float] = dict(facts)
        for query, row in native_rows.items():
            metrics[f"storage/{query}/native_bytes_per_entry"] = row[
                "native_bytes_per_entry"
            ]
        write_bench_json(
            args.json, "memory", metrics,
            metadata={
                **bench_metadata(native=bool(native_rows)),
                "events": event_count,
                "native_queries": sorted(native_rows),
            },
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
