"""Unit tests for the imperative trigger IR: lowering, passes, printing."""

import pytest

from repro.compiler import compile_sql
from repro.compiler.storage import exact_int_maps
from repro.ir import (
    DEFAULT_PASSES,
    lower_program,
    program_str,
    trigger_str,
)
from repro.ir.nodes import (
    Assign,
    Block,
    Compare,
    Const,
    ForEachMap,
    ForEachRow,
    IfCond,
    Lookup,
    Name,
    walk_stmts,
)
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
CREATE STREAM bids (t INT, id INT, broker_id INT, price INT, volume INT);
CREATE STREAM fbids (t INT, id INT, broker_id INT, price FLOAT, volume INT);
"""
PAPER_SQL = "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"
VWAP_SQL = (
    "SELECT sum(b.price * b.volume) FROM bids b "
    "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)"
)


@pytest.fixture(scope="module")
def catalog():
    return Catalog.from_script(DDL)


@pytest.fixture(scope="module")
def suite_programs():
    """The 11 shipped queries (the ledger's compile-suite), compiled once."""
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog

    finance, ssb = finance_catalog(), ssb_catalog()
    programs = {
        name: compile_sql(sql, finance, name=name)
        for name, sql in FINANCE_QUERIES.items()
    }
    programs.update(
        (name, compile_sql(sql, ssb, name=name))
        for name, sql in SSB_FLIGHT.items()
    )
    assert len(programs) == 11
    return programs


def _loops(trigger_ir):
    return [s for s in walk_stmts(trigger_ir.body) if isinstance(s, ForEachMap)]


class TestLowering:
    def test_every_trigger_lowered_with_batch_variant(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program, optimize=False)
        assert set(ir.triggers) == set(program.triggers)
        assert set(ir.batch_triggers) == set(program.triggers)
        for key, trigger in program.triggers.items():
            assert ir.triggers[key].name == trigger.name
            assert ir.batch_triggers[key].name == f"{trigger.name}_batch"

    def test_unoptimised_blocks_map_one_to_one_to_statements(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program, optimize=False)
        for key, trigger in program.triggers.items():
            blocks = [s for s in ir.triggers[key].body if isinstance(s, Block)]
            assert [b.sources[0] for b in blocks] == trigger.statements

    def test_straight_line_trigger_has_no_loops(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        assert not _loops(ir.triggers[("S", 1)])

    def test_foreach_statement_lowers_to_loop(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        assert _loops(ir.triggers[("T", 1)])

    def test_batch_variant_wraps_rows_loop(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        for trigger_ir in ir.batch_triggers.values():
            rows_loops = [
                s
                for s in walk_stmts(trigger_ir.body)
                if isinstance(s, ForEachRow)
            ]
            assert len(rows_loops) == 1
            assert rows_loops[0].rows_var == "__cols"

    def test_ir_is_cached_per_configuration(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        assert lower_program(program) is lower_program(program)
        assert lower_program(program) is not lower_program(program, optimize=False)


class TestOptimisationPasses:
    def test_vwap_loops_fuse_into_one(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        plain = lower_program(program, optimize=False)
        optimised = lower_program(program)
        assert len(_loops(plain.triggers[("bids", 1)])) == 2
        assert len(_loops(optimised.triggers[("bids", 1)])) == 1

    def test_vwap_threshold_hoisted_out_of_loop(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        ir = lower_program(program)
        (loop,) = _loops(ir.triggers[("bids", 1)])
        # The fused loop's guard compares against a hoisted temp, not an
        # inline lookup of the total-volume map.
        guards = [s for s in walk_stmts(loop.body) if isinstance(s, IfCond)]
        assert guards
        assert isinstance(guards[0].cond, Compare)
        assert isinstance(guards[0].cond.right, Name)
        # ... and the temp is assigned before the loop from the lookup.
        block = next(
            s
            for s in ir.triggers[("bids", 1)].body
            if isinstance(s, Block) and loop in s.stmts
        )
        hoists = [s for s in block.stmts if isinstance(s, Assign)]
        assert any("m2_bids" in repr(h.value) for h in hoists)

    def test_vwap_scan_binds_only_the_narrowed_key(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        ir = lower_program(program)
        (loop,) = _loops(ir.triggers[("bids", 1)])
        # The scanned base map is bids[volume] -> sum(price): one key.
        assert loop.slot.name == program.base_maps["bids"].name
        assert [pos for pos, _ in loop.binds] == [0]

    def test_float_maps_block_reordering_fusion(self, catalog):
        float_vwap = VWAP_SQL.replace("FROM bids", "FROM fbids")
        program = compile_sql(float_vwap, catalog)
        assert program.float_columns == {"fbids": {3}}
        ir = lower_program(program)
        # Moving the second scan past intermediate writers would reorder
        # float additions, so both loops must survive.
        assert len(_loops(ir.triggers[("fbids", 1)])) == 2

    def test_exact_int_proof(self, catalog, suite_programs):
        """The one exact-integer proof (``compiler.storage``), read by the
        fusion/reorder gates, the second-order plan, the fused native
        reduction and the cross-shard merge."""
        from repro.workloads.finance import FINANCE_QUERIES

        def ring_maps(program):
            return {
                name
                for name, map_def in program.maps.items()
                if map_def.role != "auxiliary"
            }

        # Integer schemas: every ring map, and no auxiliary cache.
        for name in FINANCE_QUERIES:
            program = suite_programs[name]
            assert exact_int_maps(program) == ring_maps(program), name
        # SSB declares FLOAT account balances no query sums: a FLOAT
        # column only taints the maps whose value position carries it.
        for name, count in (("q21", 15), ("q31", 16), ("q41", 23)):
            program = suite_programs[name]
            assert len(exact_int_maps(program)) == count == len(program.maps)
        # A FLOAT price taints exactly the maps summing it (the root and
        # its pending copy); the volume total and the base multiset of
        # the same FLOAT relation still prove integer ...
        float_program = compile_sql(
            VWAP_SQL.replace("FROM bids", "FROM fbids"), catalog
        )
        assert exact_int_maps(float_program) == {"m1_fbids", "m2_fbids"}
        assert float_program.base_maps["fbids"].name == "m1_fbids"
        assert float_program.base_maps["fbids"].keys == (3, 4)
        assert len(float_program.maps) == 4
        # ... and a float literal in value position taints like a column.
        literal = compile_sql("SELECT sum(0.1 * b.volume) FROM bids b", catalog)
        assert not exact_int_maps(literal)

    def test_unit_deltas_fold_into_the_update(self, suite_programs):
        """``d = 1; if d != 0: m[k] += d`` is ``m[k] += 1``: no constant
        temp, no guard a constant decides, no ``* 1`` survives folding."""
        from repro.ir.nodes import AddTo, Prod

        def constant_temps(ir):
            return [
                stmt
                for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values())
                for stmt in walk_stmts(trigger_ir.body)
                if isinstance(stmt, Assign)
                and isinstance(stmt.value, Const)
                and stmt.name.startswith("__d")
            ]

        program = suite_programs["bsp"]
        rest = tuple(p for p in DEFAULT_PASSES if p != "fold-constants")
        assert constant_temps(lower_program(program, passes=rest))
        folded = lower_program(program)
        assert not constant_temps(folded)
        units = [
            stmt
            for stmt in walk_stmts(folded.triggers[("bids", 1)].body)
            if isinstance(stmt, AddTo) and stmt.value == Const(1)
        ]
        assert units
        for ir in map(lower_program, suite_programs.values()):
            for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values()):
                for stmt in walk_stmts(trigger_ir.body):
                    if isinstance(stmt, IfCond):
                        assert not isinstance(stmt.cond, Const)
                    value = getattr(stmt, "value", None)
                    if isinstance(value, Prod):
                        assert Const(1) not in value.factors

    def test_only_finalized_targets_buffer(self, suite_programs):
        """bbo's triggers conflict nowhere: only the occurrence maps whose
        pending buffer feeds a Finalize step are two-phase."""
        from repro.ir.nodes import BufferDecl

        program = suite_programs["bbo"]
        ir = lower_program(program)
        for key, trigger in program.triggers.items():
            written = {s.target for s in trigger.statements}
            buffers = {
                s.name
                for s in walk_stmts(ir.triggers[key].body)
                if isinstance(s, BufferDecl)
            }
            finalized = written & set(program.finalizers)
            assert finalized and finalized < written
            assert buffers == {f"__pending_{name}" for name in finalized}

    def test_every_default_pass_has_yield(self, suite_programs):
        """Each pass, removed alone, changes the lowered IR of at least
        one shipped query: a pass that finds nothing cannot (re)appear
        unnoticed."""

        def bodies(program, passes):
            ir = lower_program(program, passes=passes)
            return ir.triggers, ir.batch_triggers

        for dropped in DEFAULT_PASSES:
            rest = tuple(p for p in DEFAULT_PASSES if p != dropped)
            assert any(
                bodies(program, rest) != bodies(program, DEFAULT_PASSES)
                for program in suite_programs.values()
            ), f"{dropped} changes no shipped query's IR"

    def test_pass_list_recorded(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        assert lower_program(program).passes == DEFAULT_PASSES
        assert lower_program(program, optimize=False).passes == ()


class TestPrettyPrinter:
    def test_program_str_sections(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        text = program_str(lower_program(program))
        assert "== IR maps ==" in text
        assert "== IR passes ==" in text
        assert "trigger on_insert_r(" in text
        assert "trigger on_insert_r_batch(" in text

    def test_trigger_str_shows_loops_and_updates(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        text = trigger_str(ir.triggers[("T", 1)])
        assert "foreach (" in text
        assert "+=" in text

    def test_lookup_default_rendered(self):
        from repro.ir.nodes import Slot
        from repro.ir.pretty import expr_str

        assert expr_str(Lookup(Slot("m"), (Const(3),))) == "lookup(m[3], 0)"
