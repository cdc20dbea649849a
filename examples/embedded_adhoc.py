"""Embedded mode, the debugger, and ad-hoc access to internal maps.

The paper's system model (Section 2): the runtime can be "directly compiled
into the same address space as application logic" and "exposes a read-only
interface to its internal data structures to support ad-hoc client-side
queries", plus "a debugger and profiler for tracing delta processing".
This example exercises all three.

Run:  python examples/embedded_adhoc.py
"""

from repro.compiler import compile_sql
from repro.runtime import DeltaEngine, insert, delete
from repro.runtime.debugger import Debugger
from repro.runtime.profiler import Profiler, map_memory_bytes
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM orders (customer int, product int, amount int);
"""

QUERY = "SELECT customer, sum(amount), count(*) FROM orders GROUP BY customer"


def main() -> None:
    catalog = Catalog.from_script(DDL)
    program = compile_sql(QUERY, catalog, name="spend")

    # --- embedded mode: the engine lives inside the application -----------
    engine = DeltaEngine(program)
    profiler = Profiler()  # a flush-path listener: it sees every batch
    engine.add_batch_listener(profiler.on_batch)
    application_feed = [
        insert("orders", 1, 100, 250),
        insert("orders", 1, 101, 120),
        insert("orders", 2, 100, 900),
        delete("orders", 1, 100, 250),  # order cancelled
        insert("orders", 3, 102, 40),
    ]
    engine.process_stream(application_feed)

    print("standing result (customer, total, orders):")
    for row in engine.results("spend"):
        print(f"  {row}")

    # --- ad-hoc client-side access to internal maps -----------------------
    print("\nread-only map views (ad-hoc client queries):")
    for name in program.slot_maps["spend"]:
        view = engine.map_view(name)
        print(f"  {name}: {dict(view)}")
    big_spenders = [
        key[0]
        for key, value in engine.map_view(program.slot_maps["spend"][0]).items()
        if value > 100
    ]
    print(f"  ad-hoc: customers with spend > 100 -> {sorted(big_spenders)}")

    # --- the delta-processing debugger ------------------------------------
    print("\nstep-tracing one event through the triggers:")
    debugger = Debugger(program)
    for event in application_feed:
        debugger.step(event)
    extra = insert("orders", 1, 103, 75)
    print(debugger.step(extra))
    engine.process(extra)

    root = program.slot_maps["spend"][0]
    print(f"\nevents that touched {root}:")
    for event, updates in debugger.watch(root):
        print(f"  {event}: {updates}")

    # --- profiling ----------------------------------------------------------
    print("\nprofiler report:")
    print(profiler.report())
    print("map update counts (from the debugger's traces):")
    for name in sorted(program.maps):
        updates = sum(len(touched) for _, touched in debugger.watch(name))
        print(f"  {name}: {updates} updates")
    print("\nlive bytes per map:")
    for name, size in sorted(map_memory_bytes(engine.maps).items()):
        print(f"  {name}: {size} bytes")


if __name__ == "__main__":
    main()
