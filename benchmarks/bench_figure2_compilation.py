"""E1/E2 — Figure 2: recursive compilation of the paper's example query.

Regenerates the paper's compilation trace (maps + triggers) and the
generated handler listings, asserts the map inventory matches Figure 2
exactly, and benchmarks the compilation pipeline itself (part of the
"compile time" readout of Figure 4).
"""

import pytest

from repro.codegen.native import kernel_source
from repro.codegen.pygen import generate_module
from repro.compiler import compile_sql
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""
PAPER_SQL = "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"

#: Figure 2's map inventory, in canonical variables:
#: q, qD[b], qA[b], qD[c], qA[c], q1[b,c].
FIGURE2_MAPS = {
    "AggSum([], R(__i0,__i1) * S(__i1,__i2) * T(__i2,__i3) * __i0 * __i3)",
    "AggSum([__k0], S(__k0,__i0) * T(__i0,__i1) * __i1)",
    "AggSum([__k0], R(__i0,__k0) * __i0)",
    "AggSum([__k0], T(__k0,__i0) * __i0)",
    "AggSum([__k0], R(__i0,__i1) * S(__i1,__k0) * __i0)",
    "AggSum([__k0,__k1], S(__k0,__k1))",
}


@pytest.fixture(scope="module")
def catalog():
    return Catalog.from_script(DDL)


def test_figure2_trace_reproduced(catalog):
    """The compiled program is exactly the paper's Figure 2."""
    program = compile_sql(PAPER_SQL, catalog)
    assert {repr(m.defn) for m in program.maps.values()} == FIGURE2_MAPS
    # Event handlers: one per relation, weighted by the event's sign, so
    # it serves inserts and deletes alike.
    assert len(program.triggers) == 3
    # The famous property: an update to S maintains q with *no join at all*.
    root = program.slot_maps["q"][0]
    s_trigger = program.trigger_for("S")
    root_update = next(s for s in s_trigger.statements if s.target == root)
    assert len(root_update.reads()) == 2 and not root_update.loop_vars
    print("\n" + program.describe())


def test_handler_listings_emitted(catalog):
    """Section 3's code listing exists, and the C this system would build
    for the program's packed maps is the kernel's, not a second emitter's."""
    program = compile_sql(PAPER_SQL, catalog)
    python_source = generate_module(program)
    c_source = kernel_source(program)
    for name in ("on_r", "on_s", "on_t"):
        assert f"def {name}(" in python_source
    assert "cm_add_1_q" in c_source
    print(f"\ngenerated Python: {len(python_source)} bytes, "
          f"native kernel C: {len(c_source)} bytes")


def bench_compile_paper_query(benchmark, catalog):
    """Recursive compilation time for the Figure 2 query."""
    program = benchmark(compile_sql, PAPER_SQL, catalog)
    assert len(program.maps) == 6


def bench_codegen_paper_query(benchmark, catalog):
    """Python code generation time for the compiled program."""
    program = compile_sql(PAPER_SQL, catalog)
    source = benchmark(generate_module, program)
    assert "def on_r(" in source


def bench_compile_finance_suite(benchmark):
    """Compilation of the whole finance query suite (5 queries)."""
    from repro.algebra.translate import translate_sql
    from repro.compiler import compile_queries
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    catalog = finance_catalog()

    def compile_all():
        queries = [
            translate_sql(sql, catalog, name=name)
            for name, sql in FINANCE_QUERIES.items()
        ]
        return compile_queries(queries, catalog)

    program = benchmark(compile_all)
    assert len(program.queries) == 5


def bench_compile_ssb_warehouse(benchmark):
    """Compilation of the 11-way SSB Q4.1 composed query."""
    from repro.workloads.ssb import SSB_Q41_COMBINED, ssb_catalog

    catalog = ssb_catalog()
    program = benchmark(compile_sql, SSB_Q41_COMBINED, catalog, "ssb41")
    assert len(program.maps) < 40
