"""Unit tests for the imperative trigger IR: lowering, passes, printing."""

import copy
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro.algebra.expr import WEIGHT
from repro.compiler import compile_sql
from repro.compiler.program import float_columns
from repro.compiler.storage import exact_int_maps
from repro.ir import (
    DEFAULT_PASSES,
    lower_program,
    program_str,
    trigger_str,
)
from repro.ir import nodes
from repro.ir.lower import plan_second_order
from repro.ir.nodes import (
    NAME_FIELDS,
    Accum,
    AddTo,
    AppendTo,
    Assign,
    Block,
    BufferDecl,
    Compare,
    Const,
    Finalize,
    FlushBuffer,
    ForEachGroup,
    ForEachMap,
    ForEachRow,
    IfCond,
    IRExpr,
    IRStmt,
    KeyAt,
    LocalMapDecl,
    Lookup,
    MapDecl,
    MergeInto,
    Name,
    Slot,
    map_node,
    rename_stmt,
    stmt_children,
    stmt_exprs,
    walk_stmts,
)
from repro.sql.catalog import Catalog
from tests.lanes import shipped_program

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
    from repro.workloads.finance import FINANCE_QUERIES
    from repro.workloads.ssb import SSB_FLIGHT

    names = (*FINANCE_QUERIES, *SSB_FLIGHT)
    programs = {name: shipped_program(name, name) for name in names}
    assert len(programs) == 11
    return programs


@pytest.fixture(scope="module")
def warehouse_program():
    """warehouse-load's program: the four SSB flight queries compiled into
    one, so their triggers read the same maps for the same event."""
    return shipped_program("warehouse")


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
        """Each batch body has one loop over its rows: a row loop, or a
        group loop where the trigger pre-aggregates its batch."""
        program = compile_sql(PAPER_SQL, catalog)
        ir = lower_program(program)
        for trigger_ir in ir.batch_triggers.values():
            rows_loops = [
                s
                for s in walk_stmts(trigger_ir.body)
                if isinstance(s, (ForEachRow, ForEachGroup))
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
        assert float_columns(program.columns) == {"fbids": {3}}
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
        """Lowering emits the folded update, so the rules hold optimised
        or not: ``d = 1; if d != 0: m[k] += w * d`` is ``m[k] += w`` (no
        constant temp, no guard a constant decides, since the event weight
        is never zero, and no ``* 1``), and ``d = v; if d != 0:`` tests
        and writes ``v`` itself."""
        from repro.ir.nodes import Prod

        def statements(ir):
            for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values()):
                yield from walk_stmts(trigger_ir.body)

        for optimize in (False, True):
            for program in suite_programs.values():
                for stmt in statements(lower_program(program, optimize=optimize)):
                    if isinstance(stmt, IfCond):
                        assert not isinstance(stmt.cond, Const)
                    if isinstance(stmt, Assign) and stmt.name.startswith("__d"):
                        assert not isinstance(stmt.value, (Const, Name)), stmt
                    value = getattr(stmt, "value", None)
                    if isinstance(value, Prod):
                        assert Const(1) not in value.factors
            bids = lower_program(suite_programs["bsp"], optimize=optimize)
            units = [
                stmt
                for stmt in walk_stmts(bids.triggers[("bids", 0)].body)
                if isinstance(stmt, AddTo) and stmt.value == Name(WEIGHT)
            ]
            assert units, optimize
        # q21's orders trigger writes a loop's value: the guard and the
        # write read it as is.
        copies = [
            (loop.value_var, guard)
            for loop in _loops(
                lower_program(suite_programs["q21"], optimize=False).triggers[
                    ("orders", 0)
                ]
            )
            for guard in loop.body
            if isinstance(guard, IfCond)
            and guard.cond == Compare("!=", Name(loop.value_var), Const(0))
        ]
        assert copies
        for value_var, guard in copies:
            (write,) = guard.body
            assert write.value == Prod((Name(WEIGHT), Name(value_var)))

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

    def test_every_default_pass_has_yield(self, suite_programs, monkeypatch):
        """Each pass, removed alone, changes the lowered IR of at least
        one shipped query: a pass that finds nothing cannot (re)appear
        unnoticed.  The per-pass table in ``docs/ARCHITECTURE.md`` states
        the node counts computed here, so it cannot drift either."""
        import repro.ir.optimize as optimize_module

        table = _documented_yields()
        full = [lower_program(program) for program in suite_programs.values()]
        removed = Counter()
        for ir in full:
            removed.update(ir.pass_yield)
        optimised = sum(map(_node_count, full))
        assert table["all four passes"] == (optimised, str(sum(removed.values())))
        assert table["no passes"][0] == optimised + sum(removed.values())
        for dropped in DEFAULT_PASSES:
            rest = tuple(p for p in DEFAULT_PASSES if p != dropped)
            monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", rest)
            without = [lower_program(program) for program in suite_programs.values()]
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
        later one reads stays in its statement.  (The maps are scalar, so
        there is no key tuple to share.)"""
        from repro.ir.nodes import AddTo, Prod, Slot, TriggerIR
        from repro.ir.optimize import optimize_trigger

        a, b = (Lookup(Slot(name), ()) for name in "ab")

        def guard(bound, *body):
            return IfCond(Compare(">", Name("k"), Const(bound)), body)

        body = (
            guard(0, Assign("x", Prod((a, b))), Assign("z", b)),
            guard(1, Assign("y", Prod((a, Const(2))))),
            Assign("w", b),
            guard(2, Assign("v", b)),
            AddTo(Slot("b"), (), Name("w")),
            Assign("u", b),
            AddTo(Slot("q"), (), Prod(tuple(map(Name, "xyzwvu")))),
        )
        trigger = TriggerIR("r", "t", ("k",), body)
        out = optimize_trigger(trigger, ("share-locals",), frozenset()).body
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

    def test_share_locals_loop_reads_only_lookups_it_cannot_change(self):
        """A map loop body reads a lookup held before the loop, unless the
        loop writes that lookup's map: then each iteration probes again."""
        from repro.ir.nodes import AddTo, Prod, Slot, TriggerIR
        from repro.ir.optimize import optimize_trigger

        a = Lookup(Slot("a"), ())

        def loop(value_var, *body):
            return ForEachMap(Slot("m"), "__e", value_var, ((0, "j"),), (), body)

        body = (
            Assign("x", a),
            loop("__v1", Assign("y", Prod((a, Name("__v1"))))),
            loop("__v2", AddTo(Slot("a"), (), a)),
        )
        trigger = TriggerIR("r", "t", ("k",), body)
        out = optimize_trigger(trigger, ("share-locals",), frozenset()).body
        assert out == (
            Assign("x", a),
            loop("__v1", Assign("y", Prod((Name("x"), Name("__v1"))))),
            body[2],
        )

    @staticmethod
    def _share_keys(*body):
        from repro.ir.nodes import TriggerIR
        from repro.ir.optimize import optimize_trigger

        trigger = TriggerIR("r", "t", ("p", "q"), body)
        return optimize_trigger(trigger, ("share-locals",), frozenset()).body

    @pytest.mark.parametrize(
        "rebind", [Assign("k", Name("q")), Accum("k", Const(1))], ids=repr
    )
    def test_share_keys_drops_a_key_whose_name_is_rebound(self, rebind):
        """A write and a probe read one key local, and a rebinding of a
        name the key is over drops it: after it the key is built again."""
        from repro.ir.nodes import KeyTuple, Slot

        m, n, k = Slot("m"), Slot("n"), Name("k")
        out = self._share_keys(
            Assign("k", Name("p")),
            AddTo(n, (k,), Lookup(m, (k,))),
            rebind,
            AddTo(n, (k,), Lookup(m, (k,))),
        )

        def write(local):
            return AddTo(
                n, (k,), Lookup(m, (k,), key_local=local), key_locals=(((0,), local),)
            )

        assert out == (
            Assign("k", Name("p")),
            Assign("__key1", KeyTuple((k,))),
            write("__key1"),
            rebind,
            Assign("__key2", KeyTuple((k,))),
            write("__key2"),
        )

    def test_share_keys_scopes_a_loop_binders_key_to_one_iteration(self):
        """A key over a loop binder is built in the loop body, once per
        iteration: not read from before the loop, nor after it."""
        from repro.ir.nodes import KeyTuple, Slot

        n, j = Slot("n"), Name("j")

        def write(value, local):
            return AddTo(n, (j,), value, key_locals=(((0,), local),))

        def loop(*body):
            return ForEachMap(Slot("m"), "__e", "__v", ((0, "j"),), (), body)

        out = self._share_keys(
            Assign("j", Name("p")),
            AddTo(n, (j,), Const(1)),
            loop(AddTo(n, (j,), Name("__v"))),
            AddTo(n, (j,), Const(2)),
        )
        assert out == (
            Assign("j", Name("p")),
            Assign("__key1", KeyTuple((j,))),
            write(Const(1), "__key1"),
            loop(Assign("__key2", KeyTuple((j,))), write(Name("__v"), "__key2")),
            Assign("__key3", KeyTuple((j,))),
            write(Const(2), "__key3"),
        )

    def test_share_keys_keeps_a_guards_key_in_the_guard(self):
        """A key first read in a guard body is built there (an untaken
        guard builds nothing), and not read after the guard."""
        from repro.ir.nodes import KeyTuple, Slot

        n, p = Slot("n"), Name("p")
        cond = Compare(">", p, Const(0))
        out = self._share_keys(
            IfCond(cond, (AddTo(n, (p,), Const(1)),)),
            AddTo(n, (p,), Const(2)),
        )
        assert out == (
            IfCond(
                cond,
                (
                    Assign("__key1", KeyTuple((p,))),
                    AddTo(n, (p,), Const(1), key_locals=(((0,), "__key1"),)),
                ),
            ),
            Assign("__key2", KeyTuple((p,))),
            AddTo(n, (p,), Const(2), key_locals=(((0,), "__key2"),)),
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


def _kinds(stmts) -> Counter:
    """Map loops and map lookups in a statement tree."""
    counts = Counter()
    for stmt in walk_stmts(stmts):
        counts["loops"] += isinstance(stmt, ForEachMap)
        stack = list(stmt_exprs(stmt))
        while stack:
            expr = stack.pop()
            counts["lookups"] += isinstance(expr, Lookup)
            stack.extend(expr.children())
    return counts


def _written_outside_loops(stmts, staged: dict[str, str]) -> set[str]:
    """Maps written outside every map loop; a write to a batch
    accumulator in ``staged`` counts as a write to the map it merges into."""
    out: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, AddTo):
            out.add(stmt.slot.name)
        elif isinstance(stmt, AppendTo):
            out.add(stmt.target.name)
        elif isinstance(stmt, Accum) and stmt.name in staged:
            out.add(staged[stmt.name])
        elif not isinstance(stmt, ForEachMap):
            out |= _written_outside_loops(stmt_children(stmt), staged)
    return out


class TestBatchRows:
    """A batch row does a per-event call's work: by linearity a batch's
    delta is the sum of its rows', so the row loop runs the per-event
    body, only its writes to accumulating targets staged."""

    def test_row_loop_is_the_per_event_body(self, suite_programs):
        for name, program in suite_programs.items():
            ir = lower_program(program)
            for key, trigger in program.triggers.items():
                if plan_second_order(trigger, program) is not None:
                    continue  # its rows run the plan's first-order statements
                event = ir.triggers[key].body
                batch = ir.batch_triggers[key].body
                # The whole body: a probe the rows share may be hoisted
                # out of the row loop.
                assert _kinds(batch) == _kinds(event), (name, key)
                (rows,) = [
                    s for s in batch if isinstance(s, (ForEachRow, ForEachGroup))
                ]
                merges = walk_stmts(batch[batch.index(rows) + 1 :])
                staged = {
                    s.value.name: s.slot.name
                    for s in merges
                    if isinstance(s, AddTo) and isinstance(s.value, Name)
                }
                written = _written_outside_loops(rows.body, staged)
                assert _written_outside_loops(event, {}) <= written, (name, key)


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
        from repro.ir.pretty import expr_str

        assert expr_str(Lookup(Slot("m"), (Const(3),))) == "lookup(m[3], 0)"


#: Every IR node kind.
NODE_KINDS = [
    kind
    for kind in vars(nodes).values()
    if isinstance(kind, type)
    and issubclass(kind, (IRExpr, IRStmt))
    and kind not in (IRExpr, IRStmt)
]

#: ``str`` fields of statement kinds that name no scalar local, so
#: ``rename_stmt`` leaves them: buffers, accumulators, a batch's rows, a
#: cache kind, comments.
NON_LOCAL_FIELDS = {
    (AppendTo, "buffer"),
    (BufferDecl, "name"),
    (FlushBuffer, "name"),
    (LocalMapDecl, "name"),
    (AddTo, "acc"),
    (MergeInto, "acc"),
    (ForEachRow, "rows_var"),
    (ForEachGroup, "rows_var"),
    (Finalize, "kind"),
    (Block, "comments"),
}


@pytest.fixture(scope="module")
def thirteen_programs(suite_programs, warehouse_program):
    """The 11 shipped queries, warehouse-load's program and the seven
    finance views compiled into one."""
    return {
        **suite_programs,
        "warehouse": warehouse_program,
        "finance": shipped_program("finance"),
    }


def _bodies(programs):
    """Every trigger body of the programs, lowered and optimised."""
    for program in programs.values():
        for optimize in (False, True):
            ir = lower_program(program, optimize=optimize)
            for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values()):
                yield trigger_ir.body


class TestNodeProtocol:
    """``map_node`` rebuilds every node from its fields; what makes that
    safe is pinned here."""

    def test_every_node_kind_is_a_frozen_slotted_dataclass(self):
        assert {kind.__name__ for kind in NODE_KINDS} >= {"Lookup", "Finalize"}
        for kind in NODE_KINDS:
            assert kind.__dataclass_params__.frozen, kind
            shape = tuple(field.name for field in fields(kind))
            assert kind.__slots__ == shape, kind
            assert all(field.init for field in fields(kind)), kind

    def test_map_node_rebuilds_every_node_positionally(self, thirteen_programs):
        seen = set()
        done = set()
        for body in _bodies(thirteen_programs):
            for stmt in walk_stmts(body):
                stack = [stmt, *stmt_exprs(stmt)]
                while stack:
                    node = stack.pop()
                    if id(node) in done:
                        continue
                    done.add(id(node))
                    if isinstance(node, IRExpr):
                        stack.extend(node.children())
                    values = [getattr(node, field.name) for field in fields(node)]
                    assert type(node)(*values) == node
                    copied = map_node(
                        node,
                        copy.copy,
                        lambda body: tuple(map(copy.copy, body)),
                        lambda name: "".join(name),
                    )
                    assert copied == node
                    seen.add(type(node))
        assert seen >= {ForEachMap, ForEachRow, AddTo, IfCond, Block, Lookup}

    def test_every_str_field_of_a_statement_is_renamed_or_names_no_local(self):
        for kind, names in NAME_FIELDS.items():
            assert set(names) <= {field.name for field in fields(kind)}, kind
        for kind in NODE_KINDS:
            if not issubclass(kind, IRStmt) or kind is MapDecl:
                continue  # a map declaration is in no trigger body
            for field in fields(kind):
                if "str" in str(field.type):
                    assert (
                        field.name in NAME_FIELDS.get(kind, ())
                        or (kind, field.name) in NON_LOCAL_FIELDS
                    ), (kind.__name__, field.name)

    def test_every_loop_filter_is_an_atom(self, thirteen_programs):
        # Hoisting rewrites loop filters with the rest of a statement's
        # expressions: it leaves these three as they are.
        filters = 0
        for body in _bodies(thirteen_programs):
            for stmt in walk_stmts(body):
                if isinstance(stmt, ForEachMap):
                    for _, expr in stmt.filters:
                        assert type(expr) in (Const, Name, KeyAt), stmt
                        filters += 1
        assert filters

    def test_map_node_returns_the_node_itself_when_nothing_changes(self):
        write = AddTo(Slot("n"), (Name("k"),), Name("v"), key_locals=(((0,), "kl"),))
        loop = ForEachMap(
            Slot("m"), "e", "v", ((0, "k"),), ((1, Name("x")),), (write,), "pk"
        )
        kept = map_node(loop, lambda expr: expr, lambda body: tuple(body), str)
        assert kept is loop
        assert rename_stmt(loop, {"other": "name"}) is loop
        renamed = rename_stmt(loop, {"k": "j", "x": "y", "kl": "jl", "pk": "pj"})
        assert renamed == ForEachMap(
            Slot("m"),
            "e",
            "v",
            ((0, "j"),),
            ((1, Name("y")),),
            (AddTo(Slot("n"), (Name("j"),), Name("v"), key_locals=(((0,), "jl"),)),),
            "pj",
        )
