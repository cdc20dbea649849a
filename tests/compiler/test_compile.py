"""Compiler tests: Figure 2 reproduction, map sharing, statement shapes."""

import pytest

from repro.algebra.expr import (
    Add,
    AggSum,
    Cmp,
    Const,
    Exists,
    Lift,
    MapRef,
    Rel,
    Var,
    mul,
)
from repro.compiler import CompileOptions, compile_sql, compile_queries
from repro.compiler.materialize import (
    canonicalize,
    column_uses,
    is_data_bound,
    merge_uses,
    ordered_vars,
    read_base_maps,
    read_extrema,
)
from repro.compiler.program import BaseMap, ColumnUse, FinalizeSpec
from repro.algebra.eval import eval_scalar
from repro.algebra.translate import translate_sql
from repro.sql.catalog import Catalog


@pytest.fixture
def catalog():
    return Catalog.from_script(
        """
        CREATE STREAM R (A int, B int);
        CREATE STREAM S (B int, C int);
        CREATE STREAM T (C int, D int);
        CREATE STREAM bids (broker_id int, price int, volume int);
        CREATE STREAM asks (broker_id int, price int, volume int);
        """
    )


PAPER_SQL = (
    "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C"
)


class TestFigure2:
    """The compiled program must match the paper's Figure 2 exactly."""

    @pytest.fixture
    def program(self, catalog):
        return compile_sql(PAPER_SQL, catalog)

    def test_map_inventory(self, program):
        """Six maps: q, qD[b], qA[b], qD[c], qA[c], q1[b,c] (S occurrences)."""
        defs = {repr(m.defn) for m in program.maps.values()}
        assert len(program.maps) == 6
        assert "AggSum([], R(__i0,__i1) * S(__i1,__i2) * T(__i2,__i3) * __i0 * __i3)" in defs
        # qD[b] = sum_D(sigma_B=b(S) join T)
        assert "AggSum([__k0], S(__k0,__i0) * T(__i0,__i1) * __i1)" in defs
        # qA[b] = sum_A(sigma_B=b(R))
        assert "AggSum([__k0], R(__i0,__k0) * __i0)" in defs
        # qD[c] = sum_D(sigma_C=c(T))
        assert "AggSum([__k0], T(__k0,__i0) * __i0)" in defs
        # qA[c] = sum_A(R join sigma_C=c(S))
        assert "AggSum([__k0], R(__i0,__i1) * S(__i1,__k0) * __i0)" in defs
        # q1[b,c] = count of S tuples
        assert "AggSum([__k0,__k1], S(__k0,__k1))" in defs

    def test_insert_s_eliminates_the_join(self, program):
        """The paper's key step: insert-into-S touches no join at all."""
        trigger = program.trigger_for("S")
        root = program.slot_maps["q"][0]
        stmt = next(s for s in trigger.statements if s.target == root)
        refs = [n for n in [stmt.rhs] if True]
        names = stmt.reads()
        assert len(names) == 2  # qA[b] * qD[c]
        assert stmt.loop_vars == ()

    def test_insert_r_shapes(self, program):
        trigger = program.trigger_for("R")
        targets = {s.target: s for s in trigger.statements}
        root = program.slot_maps["q"][0]
        # q += a * qD[b]: single keyed lookup, no loop.
        assert targets[root].loop_vars == ()
        # exactly one foreach statement (qA[c] maintenance over S-occurrences)
        loops = [s for s in trigger.statements if s.loop_vars]
        assert len(loops) == 1

    def test_trigger_count(self, program):
        assert set(program.triggers) == {("R", 0), ("S", 0), ("T", 0)}


class TestMapSharing:
    def test_shared_maps_across_queries(self, catalog):
        q1 = translate_sql("SELECT sum(volume) FROM bids", catalog, name="v1")
        q2 = translate_sql(
            "SELECT sum(b.volume * a.volume) FROM bids b, asks a "
            "WHERE b.broker_id = a.broker_id",
            catalog,
            name="v2",
        )
        program = compile_queries([q1, q2], catalog)
        # v1's root (sum of bid volume per nothing) is NOT shared (different
        # shape), but the broker-keyed bid-volume map appears only once.
        names = [m.defn for m in program.maps.values()]
        assert len(names) == len(set(names))  # no duplicate definitions at all

    def test_identical_queries_share_everything(self, catalog):
        q1 = translate_sql("SELECT sum(volume) FROM bids", catalog, name="a")
        q2 = translate_sql("SELECT sum(volume) FROM bids", catalog, name="b")
        program = compile_queries([q1, q2], catalog)
        assert program.slot_maps["a"] == program.slot_maps["b"]
        assert len(program.maps) == 1

class TestCompileOptions:
    def test_first_order_mode_has_no_derived_aggregates(self, catalog):
        """derived_maps=False is classical first-order IVM: only occurrence
        maps of the base relations are maintained."""
        program = compile_sql(
            PAPER_SQL, catalog, options=CompileOptions(derived_maps=False)
        )
        roles = {m.role for m in program.maps.values()}
        assert roles <= {"root", "occurrence"}
        # The root update must now join the base occurrence maps.
        trigger = program.trigger_for("S")
        root = program.slot_maps["q"][0]
        stmt = next(s for s in trigger.statements if s.target == root)
        assert len(stmt.reads()) == 2  # R-occurrences join T-occurrences

    def test_full_mode_is_default(self, catalog):
        program = compile_sql(PAPER_SQL, catalog)
        assert program.options.derived_maps


class TestBaseMaps:
    """Relations read directly are read through one base map each, keyed
    on what the readers bind (finance and SSB, as shipped)."""

    @staticmethod
    def _finance(name, **options):
        from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

        return compile_sql(
            FINANCE_QUERIES[name], finance_catalog(), name=name,
            options=CompileOptions(**options),
        )

    @staticmethod
    def _shape(program, relation):
        base = program.base_maps[relation]
        columns = base.columns
        return (
            [columns[p] for p in base.keys],
            sorted(columns[p] for p, _ in base.shape.folds),
        )

    def test_mst_keys_both_books_on_price(self):
        program = self._finance("mst")
        assert self._shape(program, "asks") == (["price"], [])
        assert self._shape(program, "bids") == (["price"], ["volume"])
        assert max(m.arity for m in program.maps.values()) == 1
        # The count map backs the threshold EXISTS with its minimum.
        asks = program.base_maps["asks"].name
        (spec,) = program.finalizers[asks]
        assert (spec.kind, spec.group_arity) == ("min", 0)
        reads = set().union(*(s.reads() for s in program.trigger_for("bids").statements))
        assert spec.aux in reads and asks not in reads

    def test_vwap_scan_map_is_keyed_on_volume(self):
        program = self._finance("vwap")
        assert self._shape(program, "bids") == (["volume"], ["price"])
        assert not program.finalizers

    def test_axf_readers_disagree_so_volume_stays_a_key(self):
        from repro.ir import lower_program
        from repro.ir.nodes import ForEachMap, walk_stmts

        program = self._finance("axf")
        for relation in ("asks", "bids"):
            assert self._shape(program, relation) == (
                ["broker_id", "price", "volume"], [],
            )
        # ... which keeps each trigger's three statements in one fused,
        # index-probed scan of the opposite book.
        ir = lower_program(program)
        for key, trigger_ir in ir.triggers.items():
            loops = [
                s for s in walk_stmts(trigger_ir.body) if isinstance(s, ForEachMap)
            ]
            assert len(loops) == 1, key
            assert loops[0].pattern == (0,)

    def test_first_order_mode_keeps_whole_rows(self):
        program = self._finance("mst", derived_maps=False)
        for base in program.base_maps.values():
            assert base.keys == (0, 1, 2, 3, 4) and not base.shape.folds
            assert program.maps[base.name].role == "occurrence"
        assert not program.finalizers

    def test_ssb_reads_only_its_small_dimensions_directly(self):
        from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog

        catalog = ssb_catalog()
        for name, sql in SSB_FLIGHT.items():
            program = compile_sql(sql, catalog, name=name)
            assert set(program.base_maps) <= {"region", "nation"}, name
            for base in program.base_maps.values():
                # Every column of the two is read: whole-row occurrence maps.
                assert len(base.keys) == len(base.columns)
                assert program.maps[base.name].role == "occurrence"
            assert not program.finalizers

    def test_describe_names_read_folded_and_dropped_columns(self):
        text = self._finance("mst").base_maps["bids"].describe()
        assert text.startswith(
            "keys <- price / folded volume / dropped t, id, broker_id"
        )
        assert "extremum: none" in text


class TestGroupedQueries:
    def test_group_key_becomes_map_key(self, catalog):
        program = compile_sql(
            "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id",
            catalog,
        )
        root = program.slot_maps["q"][0]
        assert program.maps[root].arity == 1
        trigger = program.trigger_for("bids")
        stmt = next(s for s in trigger.statements if s.target == root)
        # Key arg is the event's broker value; no loops.
        assert stmt.loop_vars == ()

    def test_self_join_compiles(self, catalog):
        program = compile_sql(
            "SELECT sum(b1.volume * b2.volume) FROM bids b1, bids b2 "
            "WHERE b1.broker_id = b2.broker_id",
            catalog,
        )
        trigger = program.trigger_for("bids")
        # Self-joins need the second-order cross term: the event joins itself.
        assert len(trigger.statements) >= 2


class TestColumnUse:
    """The per-reader column analysis and the shape that serves them."""

    @staticmethod
    def _use(keys=(), folds=()):
        return ColumnUse(frozenset(keys), frozenset(folds))

    def test_a_fold_survives_only_unanimous_readers(self):
        count = self._use(keys={1})
        summed = self._use(keys={1}, folds={(2, 1)})
        assert merge_uses([summed, summed]) == summed
        # One reader counts, one sums column 2: it stays a key for both.
        assert merge_uses([count, summed]) == self._use(keys={1, 2})
        # Folding the same column to different powers is disagreement too.
        squared = self._use(keys={1}, folds={(2, 2)})
        assert merge_uses([summed, squared]) == self._use(keys={1, 2})

    def test_serves(self):
        shape = self._use(keys={1}, folds={(2, 1)})
        assert shape.serves(self._use(keys={1}, folds={(2, 1)}))
        assert shape.serves(self._use(folds={(2, 1)}))  # key summed out
        assert not shape.serves(self._use(keys={1}))  # would read sum as count
        assert not shape.serves(self._use(keys={0, 1}, folds={(2, 1)}))
        wide = self._use(keys={0, 1, 2})
        assert wide.serves(self._use(keys={1}, folds={(2, 1)}))

    def test_reads_classify_each_column(self):
        atom = Rel("bids", (Var("b"), Var("p"), Var("v")))
        rhs = mul(atom, Cmp("<", Var("p"), Var("ev_price")), Var("v"))
        ((seen, use),) = column_uses((), rhs, ("ev_price",), {})
        assert seen == atom
        assert use == self._use(keys={1}, folds={(2, 1)})
        # A FLOAT column is never folded; a target key is never dropped.
        ((_, use),) = column_uses(
            (Var("b"),), rhs, ("ev_price",), {"bids": frozenset({2})}
        )
        assert use == self._use(keys={0, 1, 2})

    def test_unserved_read_is_refused_not_misread(self):
        base = BaseMap("m1_bids", "bids", ("b", "p", "v"), self._use({1}, {(2, 1)}))
        atom = Rel("bids", (Var("b"), Var("p"), Var("v")))
        served = mul(atom, Cmp("<", Var("p"), Const(3)), Var("v"))
        rewritten = read_base_maps((), served, (), {"bids": base})
        assert rewritten == mul(
            MapRef("m1_bids", (Var("p"),)), Cmp("<", Var("p"), Const(3))
        )
        counted = mul(atom, Cmp("<", Var("p"), Const(3)))
        assert read_base_maps((), counted, (), {"bids": base}) is None
        assert read_base_maps((), served, (), {}) is None

    def test_threshold_exists_needs_its_own_scan_variable(self):
        def exists(test):
            return Exists(AggSum((), mul(MapRef("m", (Var("k"),)), test)))

        def found(name, kind):
            return FinalizeSpec(f"{name}__{kind}", kind, group_arity=0)

        # The cache reference itself says what an empty ``m`` reads as —
        # the extremum's identity, so the test is false — and the
        # reference evaluator honours it.
        bound = Add((Var("x"), Const(1)))
        at_least = read_extrema((), exists(Cmp(">=", Var("k"), bound)), (), found)
        assert at_least == Cmp(">=", MapRef("m__max", (), float("-inf")), bound)
        below = read_extrema((), exists(Cmp(">", bound, Var("k"))), (), found)
        assert below == Cmp("<", MapRef("m__min", (), float("inf")), bound)
        for test in (at_least, below):
            assert eval_scalar(test, {"x": 0}, {"m__min": {}, "m__max": {}}) == 0
        assert eval_scalar(below, {"x": 0}, {"m__min": {(): 0}}) == 1
        assert eval_scalar(below, {"x": 0}, {"m__min": {(): 1}}) == 0
        for kept in (
            exists(Cmp("=", Var("k"), Var("x"))),  # no single extremum decides it
            exists(Cmp("<", Var("k"), Add((Var("k"), Const(1))))),  # bound reads k
            mul(exists(Cmp("<", Var("k"), Var("x"))), Var("k")),  # k bound outside
        ):
            assert read_extrema((), kept, (), found) == kept
        refused = exists(Cmp("<", Var("k"), Var("x")))
        assert read_extrema((), refused, (), lambda name, kind: None) == refused


class TestMaterializeHelpers:
    def test_ordered_vars_deterministic(self):
        e = AggSum(("b",), Rel("S", (Var("b"), Var("c"))))
        assert ordered_vars(e) == ["b", "c"]

    def test_canonicalize_positional(self):
        e = Rel("S", (Var("x"), Var("y")))
        canon, keys = canonicalize(("x",), e)
        assert keys == ("__k0",)
        assert repr(canon) == "AggSum([__k0], S(__k0,__i0))"

    def test_canonicalize_shares_alpha_equivalent(self):
        e1 = Rel("S", (Var("x"), Var("y")))
        e2 = Rel("S", (Var("p"), Var("q")))
        assert canonicalize(("x",), e1) == canonicalize(("p",), e2)

    def test_is_data_bound(self):
        body = Rel("S", (Var("b"), Var("c")))
        assert is_data_bound("b", body)
        assert not is_data_bound("z", body)
        lifted = Lift("v", Var("c"))
        assert is_data_bound("v", lifted)
