"""Unit tests for the imperative trigger IR: lowering, passes, printing."""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.algebra.expr import WEIGHT
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
    MergeInto,
    Name,
    stmt_exprs,
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


@pytest.fixture(scope="module")
def warehouse_program():
    """warehouse-load's program: the four SSB flight queries compiled into
    one, so their triggers read the same maps for the same event."""
    from repro.algebra.translate import translate_sql
    from repro.compiler import compile_queries
    from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog

    catalog = ssb_catalog()
    return compile_queries(
        [translate_sql(sql, catalog, name=name) for name, sql in SSB_FLIGHT.items()],
        catalog,
    )


def _loops(trigger_ir):
    return [s for s in walk_stmts(trigger_ir.body) if isinstance(s, ForEachMap)]


def _node_count(ir) -> int:
    bodies = (*ir.triggers.values(), *ir.batch_triggers.values())
    return sum(len(walk_stmts(trigger_ir.body)) for trigger_ir in bodies)


def _documented_yields() -> dict[str, tuple[int, str]]:
    """The per-pass node table of ``docs/ARCHITECTURE.md``: configuration
    -> (IR nodes, nodes removed in the full pipeline)."""
    docs = Path(__file__).resolve().parents[2] / "docs"
    text = (docs / "ARCHITECTURE.md").read_text()
    rows = re.findall(r"^\| ([^|*]+?) \| (\d+) \| (-?\d+|—) \|", text, re.MULTILINE)
    return {config: (int(nodes), removed) for config, nodes, removed in rows}


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
        assert not _loops(ir.triggers[("S", 0)])

    def test_foreach_statement_lowers_to_loop(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        assert _loops(ir.triggers[("T", 0)])

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

    def test_reading_a_cache_keeps_the_pending_buffer(self):
        """A write to an occurrence map updates its cache at once, so a
        later statement reading the cache would see this event's write:
        counted as reading the occurrence map, the trigger buffers, and
        the flush keeps the cache."""
        from repro.algebra.expr import Const as AConst, MapRef, Var
        from repro.compiler.program import FinalizeSpec, Statement, Trigger
        from repro.ir.lower import lower_trigger
        from repro.ir.nodes import BufferDecl, Cache, FlushBuffer, Slot

        spec = FinalizeSpec("occ__min", "min", 0)
        trigger = Trigger(
            "R",
            ("x",),
            [
                Statement("occ", (Var("x"),), AConst(1)),
                Statement("q", (), MapRef("occ__min", (), spec.absent)),
            ],
        )
        exact = frozenset({"occ", "q"})
        trigger_ir, report = lower_trigger(
            trigger, finalizers={"occ": (spec,)}, exact=exact
        )
        body = walk_stmts(trigger_ir.body)
        buffers = {s.name for s in body if isinstance(s, BufferDecl)}
        assert buffers == {"__pending_occ", "__pending_q"}
        flushes = {s.target.name: s.caches for s in body if isinstance(s, FlushBuffer)}
        assert flushes == {"occ": (Cache(Slot("occ__min"), "min", 0),), "q": ()}
        assert {sink for _, sink in report} == {"buffered"}
        # Without the cache, ``occ__min`` is a map no statement here writes.
        trigger_ir, report = lower_trigger(trigger, exact=exact)
        assert not any(isinstance(s, BufferDecl) for s in walk_stmts(trigger_ir.body))
        assert {sink for _, sink in report} == {"direct"}

    def test_loop_sums_accumulate_per_event(self, suite_programs):
        """axf's three grouped sums, keyed by the event's broker, each sum
        their scan in a local: one loop, three accumulators, and one write
        each after the loop, scaled once by the event weight."""
        from repro.ir.nodes import Accum, AddTo, Prod

        program = suite_programs["axf"]
        ir = lower_program(program)
        for key in program.triggers:
            trigger_ir = ir.triggers[key]
            (loop,) = _loops(trigger_ir)
            sums = {s.name for s in walk_stmts(loop.body) if isinstance(s, Accum)}
            assert len(sums) == 3
            assert not any(isinstance(s, AddTo) for s in walk_stmts(loop.body))
            weighted = {Prod((Name(WEIGHT), Name(n))): n for n in sums}
            writes = [
                weighted[s.value]
                for s in walk_stmts(trigger_ir.body)
                if isinstance(s, AddTo) and s.value in weighted
            ]
            assert sorted(writes) == sorted(sums)
            sinks = Counter(sink for _, sink in ir.event_sinks[key])
            assert sinks == {"accumulator": 3, "direct": 1}

    def test_float_axf_keeps_per_iteration_writes(self):
        """Summed FLOAT volumes keep a write per scanned entry (their
        addition order); the exact count beside them still accumulates,
        and optimising changes no bit."""
        from repro.ir.nodes import AddTo
        from repro.runtime import DeltaEngine, StreamEvent
        from repro.workloads.finance import FINANCE_QUERIES
        from repro.workloads.orderbook import ORDER_BOOK_DDL, OrderBookGenerator

        catalog = Catalog.from_script(
            ORDER_BOOK_DDL.replace("volume INT", "volume FLOAT")
        )
        program = compile_sql(FINANCE_QUERIES["axf"], catalog, name="axf")
        exact = exact_int_maps(program)
        roots = set(program.slot_maps["axf"])
        floats = roots - exact
        assert len(floats) == 2
        ir = lower_program(program)
        for key in program.triggers:
            summed = {
                statement.split("[")[0]
                for statement, sink in ir.event_sinks[key]
                if sink == "accumulator"
            }
            assert summed == roots & exact
            written_in_loop = {
                s.slot.name
                for loop in _loops(ir.triggers[key])
                for s in walk_stmts(loop.body)
                if isinstance(s, AddTo)
            }
            assert written_in_loop == floats
        events = [
            StreamEvent(e.relation, e.sign, (*e.values[:4], e.values[4] * 0.1))
            for e in OrderBookGenerator(seed=5).events(1500)
        ]
        for batch_size in (1, 100):
            maps = []
            for optimize in (True, False):
                engine = DeltaEngine(program, optimize=optimize)
                engine.process_stream(events, batch_size=batch_size)
                maps.append(repr(engine.maps))
            assert maps[0] == maps[1]

    def test_ir_is_cached_per_configuration(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        assert lower_program(program) is lower_program(program)
        assert lower_program(program) is not lower_program(program, optimize=False)


class TestOptimisationPasses:
    def test_vwap_loops_fuse_into_one(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        plain = lower_program(program, optimize=False)
        optimised = lower_program(program)
        assert len(_loops(plain.triggers[("bids", 0)])) == 2
        assert len(_loops(optimised.triggers[("bids", 0)])) == 1

    def test_vwap_threshold_hoisted_out_of_loop(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        ir = lower_program(program)
        (loop,) = _loops(ir.triggers[("bids", 0)])
        # The fused loop's guard compares against a hoisted temp, not an
        # inline lookup of the total-volume map.
        guards = [s for s in walk_stmts(loop.body) if isinstance(s, IfCond)]
        assert guards
        assert isinstance(guards[0].cond, Compare)
        assert isinstance(guards[0].cond.right, Name)
        # ... and the temp is assigned before the loop from the lookup.
        block = next(
            s
            for s in ir.triggers[("bids", 0)].body
            if isinstance(s, Block) and loop in s.stmts
        )
        hoists = [s for s in block.stmts if isinstance(s, Assign)]
        assert any("m2_bids" in repr(h.value) for h in hoists)

    def test_vwap_scan_binds_only_the_narrowed_key(self, catalog):
        program = compile_sql(VWAP_SQL, catalog)
        ir = lower_program(program)
        (loop,) = _loops(ir.triggers[("bids", 0)])
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
        assert len(_loops(ir.triggers[("fbids", 0)])) == 2

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
        """``d = 1; if d != 0: m[k] += w * d`` is ``m[k] += w``: no
        constant temp, no guard a constant decides (the event weight is
        never zero), no ``* 1`` survives folding."""
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
            for stmt in walk_stmts(folded.triggers[("bids", 0)].body)
            if isinstance(stmt, AddTo) and stmt.value == Name(WEIGHT)
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

    def test_finalized_targets_write_directly(self, suite_programs):
        """bbo's triggers conflict nowhere, so nothing buffers: each write
        into an occurrence map keeps its caches itself, and no per-event
        body rebuilds one."""
        from repro.ir.nodes import AddTo, BufferDecl, Finalize

        program = suite_programs["bbo"]
        ir = lower_program(program)
        for key, trigger in program.triggers.items():
            body = walk_stmts(ir.triggers[key].body)
            assert not any(isinstance(s, (BufferDecl, Finalize)) for s in body)
            finalized = {s.target for s in trigger.statements} & set(
                program.finalizers
            )
            keeping = {
                s.slot.name: {cache.slot.name for cache in s.caches}
                for s in body
                if isinstance(s, AddTo) and s.caches
            }
            assert finalized and keeping == {
                name: {spec.aux for spec in program.finalizers[name]}
                for name in finalized
            }
            assert {sink for _, sink in ir.event_sinks[key]} == {"direct"}

    def test_every_default_pass_has_yield(self, suite_programs):
        """Each pass, removed alone, changes the lowered IR of at least
        one shipped query: a pass that finds nothing cannot (re)appear
        unnoticed.  The per-pass table in ``docs/ARCHITECTURE.md`` states
        the node counts computed here, so it cannot drift either."""
        table = _documented_yields()
        full = [lower_program(program) for program in suite_programs.values()]
        removed = Counter()
        for ir in full:
            removed.update(ir.pass_yield)
        optimised = sum(map(_node_count, full))
        assert table["all five passes"] == (optimised, str(sum(removed.values())))
        assert table["no passes"][0] == optimised + sum(removed.values())
        for dropped in DEFAULT_PASSES:
            rest = tuple(p for p in DEFAULT_PASSES if p != dropped)
            without = [
                lower_program(program, passes=rest)
                for program in suite_programs.values()
            ]
            assert any(
                (a.triggers, a.batch_triggers) != (b.triggers, b.batch_triggers)
                for a, b in zip(without, full)
            ), f"{dropped} changes no shipped query's IR"
            assert table[f"without `{dropped}`"] == (
                sum(map(_node_count, without)),
                str(removed[dropped]),
            ), dropped

    def test_pass_list_recorded(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        assert ir.passes == DEFAULT_PASSES
        assert set(ir.pass_yield) == set(DEFAULT_PASSES)
        plain = lower_program(program, optimize=False)
        assert plain.passes == () and not plain.pass_yield
        assert _node_count(plain) == _node_count(ir) + sum(ir.pass_yield.values())


class TestSharedWork:
    """A multi-view trigger does each probe, scan and accumulation once
    per row, not once per statement reading it."""

    def test_lineitem_row_probes_each_lookup_once(self, warehouse_program):
        body = lower_program(warehouse_program).batch_triggers["lineitem", 0].body
        (rows,) = [stmt for stmt in body if isinstance(stmt, ForEachRow)]
        lookups = Counter()
        for stmt in walk_stmts(rows.body):
            stack = list(stmt_exprs(stmt))
            while stack:
                expr = stack.pop()
                if isinstance(expr, Lookup):
                    lookups[expr] += 1
                stack.extend(expr.children())
        # m1_ddate_orders, m4_nation_region_supplier, m17_part,
        # m18_partsupp and m20_partsupp: one probe each.
        assert len(lookups) == 5 and set(lookups.values()) == {1}

    def test_lineitem_nested_scans_fuse(self, warehouse_program):
        loops = _loops(lower_program(warehouse_program).batch_triggers["lineitem", 0])
        for outer, inner in (
            ("m5_ddate_orders", "m6_part"),
            ("m11_customer_ddate_nation_orders_region", "m12_nation_region_supplier"),
        ):
            (loop,) = [loop for loop in loops if loop.slot.name == outer]
            nested = [s for s in walk_stmts(loop.body) if isinstance(s, ForEachMap)]
            assert [scan.slot.name for scan in nested] == [inner]

    def test_one_accumulator_per_exact_target(self, warehouse_program):
        trigger = warehouse_program.triggers["lineitem", 0]

        def merges(ir):
            body = walk_stmts(ir.batch_triggers["lineitem", 0].body)
            return sorted(s.target.name for s in body if isinstance(s, MergeInto))

        keyed = [s.target for s in trigger.statements if s.args]
        merged = merges(lower_program(warehouse_program))
        assert merged == sorted(set(keyed)) and len(merged) < len(keyed)
        # Unoptimised, too: the lowering shares them, not a pass.
        assert merges(lower_program(warehouse_program, optimize=False)) == merged

    def test_share_lookups_scopes(self):
        """A probe is reused down its sequence and into guard bodies, not
        past a write to its map and not out of a guard: a first probe no
        later one reads stays in its statement."""
        from repro.ir.nodes import AddTo, Prod, Slot, TriggerIR
        from repro.ir.optimize import optimize_trigger

        a, b = (Lookup(Slot(name), (Name("k"),)) for name in "ab")

        def guard(bound, *body):
            return IfCond(Compare(">", Name("k"), Const(bound)), body)

        body = (
            guard(0, Assign("x", Prod((a, b))), Assign("z", b)),
            guard(1, Assign("y", Prod((a, Const(2))))),
            Assign("w", b),
            guard(2, Assign("v", b)),
            AddTo(Slot("b"), (Name("k"),), Name("w")),
            Assign("u", b),
            AddTo(Slot("q"), (), Prod(tuple(map(Name, "xyzwvu")))),
        )
        trigger = TriggerIR("r", "t", ("k",), body)
        out = optimize_trigger(trigger, ("share-lookups",), frozenset()).body
        shared = Name("__l2")
        total = (Name("x"), Name("y"), shared, Name("w"), Name("w"), Name("u"))
        assert out == (
            guard(
                0,
                Assign(shared.name, b),
                Assign("x", Prod((a, shared))),  # a: nothing later reads it
            ),
            body[1],
            Assign("w", b),  # v reads w; its guard is left empty
            body[4],
            Assign("u", b),  # b was written since w
            AddTo(Slot("q"), (), Prod(total)),
        )

    def test_no_copy_temps(self, suite_programs, warehouse_program):
        for program in (*suite_programs.values(), warehouse_program):
            ir = lower_program(program)
            for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values()):
                copies = [
                    stmt
                    for stmt in walk_stmts(trigger_ir.body)
                    if isinstance(stmt, Assign) and isinstance(stmt.value, Name)
                ]
                assert not copies, (trigger_ir.name, copies)


class TestPrettyPrinter:
    def test_program_str_sections(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        text = program_str(lower_program(program))
        assert "== IR maps ==" in text
        assert "== IR passes ==" in text
        assert "trigger on_r(__w, " in text
        assert "trigger on_r_batch(" in text

    def test_trigger_str_shows_loops_and_updates(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        text = trigger_str(ir.triggers[("T", 0)])
        assert "foreach (" in text
        assert "+=" in text

    def test_lookup_default_rendered(self):
        from repro.ir.nodes import Slot
        from repro.ir.pretty import expr_str

        assert expr_str(Lookup(Slot("m"), (Const(3),))) == "lookup(m[3], 0)"
