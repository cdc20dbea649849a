"""E6 — Figure 4's detailed profiling readouts.

"Detailed profiling of DBToaster's compiled code breaking down its
overheads for each map, the binary size, and finally the compile time
including both the C++ generation and the subsequent compilation to a
native binary" — reproduced as: per-map update counts, generated source
sizes (Python executable + C++ artifact), and the staged compile-time
breakdown (parse/translate, recursive compile, codegen, exec-to-bytecode).
"""

import pytest

from repro.runtime import DeltaEngine
from repro.runtime.debugger import Debugger
from repro.runtime.profiler import Profiler, profile_compilation
from repro.compiler import compile_sql
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator


def test_per_map_overheads(capsys):
    """Per-trigger event counts and per-map update counts over a finance
    stream (the map cost panel): the profiler listens to the compiled
    engine, the debugger steps the same stream statement by statement."""
    catalog = finance_catalog()
    program = compile_sql(FINANCE_QUERIES["bsp"], catalog, name="bsp")
    engine = DeltaEngine(program)
    profiler = Profiler()
    engine.add_batch_listener(profiler.on_batch)
    debugger = Debugger(program)
    for event in OrderBookGenerator(seed=5).events(1_500):
        engine.process(event)
        debugger.step(event)
    assert profiler.events == 1_500
    updates = {
        name: sum(len(touched) for _, touched in debugger.watch(name))
        for name in sorted(program.maps)
    }
    assert any(updates.values())
    assert debugger.maps == {name: dict(engine.maps[name]) for name in program.maps}
    print("\n" + profiler.report())
    print("map update counts:")
    for name, count in updates.items():
        print(f"  {name}: {count}")


@pytest.mark.parametrize("query", sorted(FINANCE_QUERIES))
def test_compile_report(query, capsys):
    """Compile-time breakdown + code sizes for each finance query."""
    report = profile_compilation(
        FINANCE_QUERIES[query], finance_catalog(), name=query
    )
    assert report.total_seconds < 5
    assert report.python_source_bytes > 0
    print(f"\n== {query} ==\n{report.report()}")


@pytest.mark.parametrize("query", sorted(FINANCE_QUERIES))
def bench_compile_time(benchmark, query):
    """End-to-end compile latency per finance query (Figure 4 panel)."""
    catalog = finance_catalog()
    benchmark(profile_compilation, FINANCE_QUERIES[query], catalog, query)


def bench_trigger_dispatch_overhead(benchmark):
    """Pure dispatch cost: one keyed no-loop trigger on a warm engine."""
    catalog = finance_catalog()
    program = compile_sql(FINANCE_QUERIES["bsp"], catalog, name="bsp")
    engine = DeltaEngine(program)
    for event in OrderBookGenerator(seed=5).events(500):
        engine.process(event)

    def one_update():
        engine.insert("bids", 999_999, 1, 3, 9_999, 10)
        engine.delete("bids", 999_999, 1, 3, 9_999, 10)

    benchmark(one_update)
