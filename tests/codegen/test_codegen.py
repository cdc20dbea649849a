"""Code generator tests: the generated Python module."""

import pytest

from repro.codegen.pygen import CompiledExecutor, Emitter, generate_module, map_local
from repro.compiler import compile_sql
from repro.runtime.events import columns_from_rows
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
CREATE STREAM bids (broker_id int, price int, volume int);
"""
PAPER_SQL = "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"


@pytest.fixture
def catalog():
    return Catalog.from_script(DDL)


@pytest.fixture
def program(catalog):
    return compile_sql(PAPER_SQL, catalog)


class TestEmitter:
    def test_indentation_blocks(self):
        emitter = Emitter()
        emitter.line("def f():")
        with emitter.block():
            emitter.line("return 1")
        assert emitter.source() == "def f():\n    return 1\n"

    def test_fresh_names_unique(self):
        emitter = Emitter()
        names = {emitter.fresh() for _ in range(50)}
        assert len(names) == 50


class TestPythonGeneration:
    def test_module_compiles(self, program):
        source = generate_module(program)
        compile(source, "<test>", "exec")  # must be valid Python

    def test_one_function_per_trigger(self, program):
        source = generate_module(program)
        for trigger in program.triggers.values():
            assert f"def {trigger.name}(" in source

    def test_straight_line_updates_use_direct_keys(self, program):
        """The paper's point: keyed updates are dictionary probes, not
        scans.  The insert-into-S handler must not contain any loop."""
        source = generate_module(program)
        body = source.split("def on_s(")[1].split("def ")[0]
        assert "for " not in body

    def test_foreach_statements_become_loops(self, program):
        source = generate_module(program)
        body = source.split("def on_t(")[1].split("def ")[0]
        assert "for " in body  # the paper's foreach over q1[b,c]

    def test_comments_document_statements(self, program):
        source = generate_module(program)
        assert "# q_q_sum_0[] +=" in source

    def test_executor_binds_and_runs(self, program):
        maps = {name: {} for name in program.maps}
        table = CompiledExecutor(program).bind(maps)
        table.per_event["R", 0](1, 2, 10)
        # qA[b] picked up the insert.
        values = [m for m in maps.values() if m]
        assert values

    def test_map_local_naming(self):
        assert map_local("q") == "_m_q"

    def test_comparison_guards_short_circuit(self, catalog):
        program = compile_sql(
            "SELECT sum(volume) FROM bids WHERE price > 100", catalog
        )
        source = generate_module(program)
        assert "if ev_bids_price > 100:" in source

    def test_batch_variant_per_trigger(self, program):
        source = generate_module(program)
        for trigger in program.triggers.values():
            assert f"def {trigger.name}_batch(__cols, __ws" in source

    def test_batch_variant_iterates_column_lists(self, program):
        """The batch row loop walks the columnar batch's parallel lists
        (only the columns the body reads, and the weight column), not row
        tuples."""
        source = generate_module(program)
        trigger = program.trigger_for("R")
        body = source.split(f"def {trigger.name}_batch")[1].split("\ndef ")[0]
        assert " in zip(__ws, __cols[" in body

    def test_batch_executor_matches_per_event(self, program):
        executor = CompiledExecutor(program)
        maps_a = {name: {} for name in program.maps}
        maps_b = {name: {} for name in program.maps}
        per_event = executor.bind(maps_a).per_event["R", 0]
        batched = executor.bind(maps_b).batch["R", 0]
        rows = [(2, 10), (3, 10), (2, 10), (4, 11)]
        weights = [1, 1, -1, 1]
        for weight, row in zip(weights, rows):
            per_event(weight, *row)
        batched(columns_from_rows(rows), weights)
        assert maps_a == maps_b

    def test_independent_trigger_accumulates_batch_delta(self, catalog):
        """A scalar aggregate whose trigger never reads its own writes
        accumulates the batch delta locally and applies it once."""
        program = compile_sql("SELECT sum(volume) FROM bids", catalog)
        source = generate_module(program)
        body = source.split("def on_bids_batch")[1].split("\ndef ")[0]
        lines = body.split("\n")
        start = next(i for i, line in enumerate(lines) if line.startswith("    for "))
        end = next(
            i for i in range(start + 1, len(lines))
            if not lines[i].startswith("        ")
        )
        row_loop, after = lines[start + 1 : end], "\n".join(lines[end:])
        root = program.slot_maps["q"][0]
        assert row_loop and not any("_m_" in line for line in row_loop)
        assert after.count(f"_m_{root}[()] =") == 1

    def test_self_reading_trigger_restates_second_order(self, catalog):
        """vwap-style triggers read the maps they maintain; the batch body
        accumulates the first-order statements per row, then clears and
        restates the order-2 targets once per batch (delta-of-delta
        absorption) instead of re-running the full body per row."""
        program = compile_sql(
            "SELECT sum(b.volume) FROM bids b "
            "WHERE b.volume > 0.5 * (SELECT sum(b1.volume) FROM bids b1)",
            catalog,
        )
        source = generate_module(program)
        body = source.split("def on_bids_batch")[1].split("\ndef ")[0]
        root = program.slot_maps["q"][0]
        assert f"_m_{root}.clear()" in body
        # The restate scan runs after (outside) the row loop: dedented one
        # level relative to the accumulating row statements.
        assert "    _m_" in body


    def test_fused_statements_share_one_native_reduction(self, catalog):
        """Two statements with one right-hand side fuse into one loop
        summing it into an accumulator each; rendered for kernel-owned
        maps, the sums collapse into a single ``reduce_scalar`` call
        whose result feeds both accumulators."""
        from repro.codegen.pygen import fused_scan_sites
        from repro.compiler.storage import storage_layout

        program = compile_sql(
            "SELECT sum(b.price * b.volume) FROM bids b "
            "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)",
            catalog,
        )
        layout = storage_layout(
            program, "native", kernel=True, scans=fused_scan_sites(program)
        )
        source = generate_module(program, layout=layout)
        body = source.split("def on_bids(")[1].split("\ndef ")[0]
        assert body.count(".reduce_scalar(") == 1
        reduced = body.split("elif __r1 != 0:")[1].split("#")[0]
        assert reduced.count(" += __r1\n") == 2


class TestGeneratedSemantics:
    """Differential micro-tests pinning down generated-code edge cases."""

    def test_zero_entries_are_evicted(self, catalog):
        from repro.runtime import DeltaEngine

        program = compile_sql(
            "SELECT broker_id, sum(volume) FROM bids GROUP BY broker_id", catalog
        )
        engine = DeltaEngine(program)
        engine.insert("bids", 1, 10, 5)
        engine.delete("bids", 1, 10, 5)
        assert engine.total_entries() == 0

    def test_self_join_statements_merge_with_coefficient(self, catalog):
        """The two symmetric delta terms of a self-join merge into one
        statement scaled by 2."""
        program = compile_sql(
            "SELECT sum(b1.volume * b2.volume) FROM bids b1, bids b2 "
            "WHERE b1.broker_id = b2.broker_id",
            catalog,
        )
        trigger = program.trigger_for("bids")
        assert any("2 *" in repr(s.rhs) for s in trigger.statements)

    def test_buffered_trigger_generation(self, catalog):
        """A correlated EXISTS produces a map whose maintenance reads its
        own pre-state: the generated trigger must use the two-phase
        pending buffer."""
        catalog2 = Catalog.from_script(
            "CREATE STREAM bids (broker_id int, price int, volume int);"
            "CREATE STREAM asks (broker_id int, price int, volume int);"
        )
        program = compile_sql(
            "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
            "(SELECT a.price FROM asks a "
            "WHERE a.broker_id = b.broker_id AND a.price <= b.price)",
            catalog2,
        )
        assert not program.finalizers
        body = generate_module(program).split("def on_asks(")[1]
        body = body.split("\ndef ")[0]
        root = program.slot_maps["q"][0]
        assert f"__pending_{root} = []" in body

    def test_threshold_exists_restates_only_when_the_extremum_moves(self):
        """``EXISTS (... a.price <= b.price)`` is ``min(a.price) <=
        b.price``: the bids side is one cache read, the asks side applies
        its count (the write keeping the cache), and restates the result
        only if the minimum changed — buffering nothing."""
        catalog2 = Catalog.from_script(
            "CREATE STREAM bids (broker_id int, price int, volume int);"
            "CREATE STREAM asks (broker_id int, price int, volume int);"
        )
        program = compile_sql(
            "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
            "(SELECT a.broker_id FROM asks a WHERE a.price <= b.price)",
            catalog2,
        )
        asks = program.base_maps["asks"].name
        (spec,) = program.finalizers[asks]
        source = generate_module(program)
        root = program.slot_maps["q"][0]
        bids = source.split("def on_bids(")[1].split("\ndef ")[0]
        assert "for " not in bids
        assert f"_m_{spec.aux}.get((), 1e999) <= ev_bids_price" in bids
        body = source.split("def on_asks(")[1].split("\ndef ")[0]
        assert " = []" not in body
        before, restate = body.split(" != __x")
        # The cache is read before the apply and again after it ...
        assert before.count(f"_m_{spec.aux}.get((), 1e999)") == 2
        assert f"_m_{root}." not in before  # the result is not touched ...
        assert f"_m_{root}.clear()" in restate  # ... unless the min moved
        assert "__fd" not in source
        assert f"extremum: min cache {spec.aux}" in source

    def test_division_helper_guards_zero(self, catalog):
        program = compile_sql("SELECT sum(price / volume) FROM bids", catalog)
        source = generate_module(program)
        namespace = {"MAPS": {name: {} for name in program.maps}}
        exec(compile(source, "<t>", "exec"), namespace)
        assert namespace["_div"](1, 0) == 0
        assert namespace["_div"](6, 3) == 2

    def test_division_helper_only_in_modules_that_divide(self, catalog):
        # avg() divides in the view layer: its triggers never do.
        program = compile_sql("SELECT avg(price) FROM bids", catalog)
        assert "_div" not in generate_module(program)
