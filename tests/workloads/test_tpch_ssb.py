"""TPC-H generator integrity and the SSB warehouse-loading scenario."""

import pytest

from repro.baselines import ReevalEngine
from repro.compiler import compile_sql
from repro.runtime import DeltaEngine
from repro.workloads.tpch import TpchGenerator
from repro.workloads.ssb import (
    SSB_Q41_COMBINED,
    SSB_Q41_OVER_LINEORDER,
    lineorder_catalog,
    lineorder_rows,
    load_static_tables,
    ssb_catalog,
    star_schema_rows,
    warehouse_stream,
)


@pytest.fixture(scope="module")
def generator():
    return TpchGenerator(sf=0.001, seed=99)


class TestGeneratorIntegrity:
    def test_deterministic_and_call_order_independent(self):
        g1 = TpchGenerator(sf=0.001, seed=5)
        _ = g1.customer()  # consume in a different order
        g2 = TpchGenerator(sf=0.001, seed=5)
        _ = g2.part()
        assert g1.part() == g2.part()
        assert g1.customer() == g2.customer()
        assert list(g1.orders_and_lineitems()) == list(g2.orders_and_lineitems())

    def test_schema_conformance(self, generator):
        catalog = ssb_catalog()
        for name, rows in generator.static_tables().items():
            relation = catalog.get(name)
            for row in rows:
                assert len(row) == relation.arity, name

    def test_referential_integrity(self, generator):
        nations = {k for k, *_ in generator.nation()}
        regions = {k for k, _ in generator.region()}
        assert {r for _, _, r in generator.nation()} <= regions
        assert {n for _, n, *_ in generator.customer()} <= nations
        assert {n for _, n, _ in generator.supplier()} <= nations

        customers = {k for k, *_ in generator.customer()}
        parts = {k for k, *_ in generator.part()}
        suppliers = {k for k, *_ in generator.supplier()}
        partsupp_pairs = {(p, s) for p, s, _ in generator.partsupp()}
        dates = {k for k, *_ in generator.ddate()}

        order_keys = set()
        for relation, row in generator.orders_and_lineitems():
            if relation == "orders":
                order_keys.add(row[0])
                assert row[1] in customers
                assert row[2] in dates
            else:
                assert row[0] in order_keys  # order arrives before its lines
                assert row[1] in parts
                assert row[2] in suppliers
                assert (row[1], row[2]) in partsupp_pairs

    def test_partsupp_pairs_unique(self, generator):
        rows = generator.partsupp()
        pairs = [(p, s) for p, s, _ in rows]
        assert len(pairs) == len(set(pairs))

    def test_scale_factor_scales_row_counts(self):
        small = TpchGenerator(sf=0.001)
        large = TpchGenerator(sf=0.004)
        assert large.n_orders > 2 * small.n_orders
        assert large.n_customers > 2 * small.n_customers


class TestWarehouseScenario:
    @pytest.mark.slow
    def test_joint_compilation_matches_two_phase_load(self, generator):
        """The paper's warehouse experiment, as a correctness statement:
        maintaining Q4.1 jointly over the OLTP stream equals materialising
        lineorder and aggregating it."""
        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41")
        engine = DeltaEngine(program, mode="compiled")
        load_static_tables(engine, generator)
        engine.process_stream(warehouse_stream(generator))
        combined = sorted(engine.results("ssb41"), key=repr)

        sqlite = ReevalEngine(
            {"q": SSB_Q41_OVER_LINEORDER}, lineorder_catalog(), refresh="lazy"
        )
        for name, rows in star_schema_rows(generator).items():
            sqlite.process_batch(name, 1, rows)
        sqlite.process_batch("lineorder", 1, lineorder_rows(generator))
        two_phase = sqlite.results("q")
        assert combined == two_phase
        assert combined  # non-trivial result

    def test_static_tables_reject_post_stream_updates(self, generator):
        from repro.errors import EventError

        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41")
        engine = DeltaEngine(program, mode="compiled")
        load_static_tables(engine, generator)
        first = next(iter(warehouse_stream(generator)))
        engine.process(first)
        with pytest.raises(EventError):
            engine.insert("nation", 99, "ATLANTIS", 0)

    def test_compiled_program_is_compact(self):
        """Static-table handling keeps the 11-way join's map inventory
        small (dozens, not thousands)."""
        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41")
        assert len(program.maps) < 40
        assert {"orders", "lineitem"} <= {r for r, _ in program.triggers}

    def test_no_lineorder_materialisation(self):
        """Joint compilation never stores per-lineitem state: every map is
        an aggregate keyed by dimension attributes, so total entries stay
        far below the lineorder row count."""
        generator = TpchGenerator(sf=0.001, seed=3)
        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="ssb41")
        engine = DeltaEngine(program, mode="compiled")
        load_static_tables(engine, generator)
        engine.process_stream(warehouse_stream(generator))
        lineorder_count = sum(1 for _ in lineorder_rows(generator))
        # Fact-keyed occurrence maps exist for orders (joins need them),
        # but nothing proportional to lineitem x dimensions.
        assert engine.total_entries() < 4 * lineorder_count
