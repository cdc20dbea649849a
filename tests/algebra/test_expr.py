"""Unit tests for calculus expression nodes and structural utilities."""

import copy
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings

from repro.errors import AlgebraError
from repro.algebra.expr import (
    Add,
    AggSum,
    Cmp,
    Const,
    Exists,
    Expr,
    Lift,
    MapRef,
    Mul,
    Rel,
    Var,
    ONE,
    ZERO,
    add,
    contains_relation,
    maps_in,
    mul,
    neg,
    relations_in,
    rename_vars,
    substitute,
    used_vars,
    walk,
    FreshNamer,
)
from repro.algebra.schema import schema_of

from tests.strategies import closed_queries


class TestSmartConstructors:
    def test_add_flattens_nested_adds(self):
        e = add(Var("x"), add(Var("y"), Var("z")))
        assert isinstance(e, Add)
        assert len(e.terms) == 3

    def test_add_drops_zero(self):
        assert add(Var("x"), ZERO) == Var("x")

    def test_add_of_nothing_is_zero(self):
        assert add() == ZERO

    def test_add_single_term_unwraps(self):
        assert add(Var("x")) == Var("x")

    def test_mul_flattens_nested_muls(self):
        e = mul(Var("x"), mul(Var("y"), Var("z")))
        assert isinstance(e, Mul)
        assert len(e.factors) == 3

    def test_mul_by_zero_annihilates(self):
        assert mul(Var("x"), ZERO, Var("y")) == ZERO

    def test_mul_drops_one(self):
        assert mul(ONE, Var("x")) == Var("x")

    def test_mul_of_nothing_is_one(self):
        assert mul() == ONE

    def test_neg_folds_constants(self):
        assert neg(Const(3)) == Const(-3)

    def test_neg_cancels_double_negation(self):
        assert neg(neg(Var("x"))) == Var("x")

    def test_operator_sugar(self):
        x, y = Var("x"), Var("y")
        assert x + y == add(x, y)
        assert x * y == mul(x, y)
        assert x - y == add(x, neg(y))
        assert -x == neg(x)
        assert 2 * x == mul(Const(2), x)

    def test_coercion_rejects_unknown_types(self):
        with pytest.raises(AlgebraError):
            Var("x") * object()


class TestNodeInvariants:
    def test_rel_rejects_non_term_args(self):
        with pytest.raises(AlgebraError):
            Rel("R", (mul(Var("x"), Var("y")),))

    def test_mapref_rejects_non_term_args(self):
        with pytest.raises(AlgebraError):
            MapRef("m", (Cmp("=", Var("x"), Const(1)),))

    def test_cmp_rejects_unknown_operator(self):
        with pytest.raises(AlgebraError):
            Cmp("<>", Var("x"), Var("y"))

    def test_structural_equality_and_hash(self):
        e1 = mul(Rel("R", (Var("a"),)), Var("a"))
        e2 = mul(Rel("R", (Var("a"),)), Var("a"))
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert e1 != mul(Rel("R", (Var("b"),)), Var("b"))

    def test_repr_is_readable(self):
        e = AggSum(("b",), mul(Rel("S", (Var("b"), Var("c"))), Var("c")))
        assert repr(e) == "AggSum([b], S(b,c) * c)"


def _sample() -> Expr:
    return AggSum(
        ("a",),
        mul(
            Rel("R", (Var("a"), Var("b"))),
            Lift("c", Var("b")),
            Exists(MapRef("m", (Var("c"),), float("inf"))),
            Cmp("<", Var("b"), Const(3)),
        ),
    )


def _kept(node: Expr) -> set[str]:
    """The node facts filled on ``node``."""
    return {slot for slot in Expr.__slots__ if hasattr(node, slot)}


def _names_by_walk(expr: Expr) -> frozenset[str]:
    """``used_vars`` by its definition: every name on every node."""
    names: set[str] = set()
    for node in walk(expr):
        if isinstance(node, Var):
            names.add(node.name)
        elif isinstance(node, (Rel, MapRef)):
            names.update(a.name for a in node.args if isinstance(a, Var))
        elif isinstance(node, Lift):
            names.add(node.var)
        elif isinstance(node, AggSum):
            names.update(node.group)
    return frozenset(names)


class TestKeptFacts:
    """Hash, schema and used names are kept on a node, invisibly."""

    def test_equal_nodes_built_separately_hash_equal(self):
        first, second = _sample(), _sample()
        assert first is not second
        hash(first), schema_of(first), used_vars(first)
        assert _kept(first) == set(Expr.__slots__) and not _kept(second)
        assert first == second
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1

    @pytest.mark.parametrize(
        "duplicate",
        [lambda node: pickle.loads(pickle.dumps(node)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_carry_only_fields(self, duplicate):
        node = _sample()
        hash(node), schema_of(node), used_vars(node)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            _cls, state = node.__reduce_ex__(protocol)[:2]
            assert state == tuple(getattr(node, f.name) for f in fields(node))
        copied = duplicate(node)
        assert all(not _kept(sub) for sub in walk(copied))
        assert copied == node and repr(copied) == repr(node)
        assert hash(copied) == hash(node)

    @given(closed_queries())
    @settings(max_examples=60, deadline=None)
    def test_kept_facts_match_a_fresh_computation(self, query):
        schema_of(query), used_vars(query)
        for sub in walk(query):
            uncached = copy.deepcopy(sub)
            assert not _kept(uncached)
            assert schema_of(sub) == schema_of(uncached)
            assert used_vars(sub) == used_vars(uncached) == _names_by_walk(sub)
            assert hash(sub) == hash(uncached)


class TestTraversal:
    def test_walk_visits_every_node(self):
        e = add(mul(Rel("R", (Var("a"),)), Var("a")), Exists(Rel("S", ())))
        kinds = [type(n).__name__ for n in walk(e)]
        assert kinds.count("Rel") == 2
        assert "Exists" in kinds

    def test_relations_in(self):
        e = AggSum((), mul(Rel("R", (Var("a"),)), MapRef("m", (Var("a"),))))
        assert relations_in(e) == {"R"}
        assert maps_in(e) == {"m"}

    def test_contains_relation_named(self):
        e = Lift("x", AggSum((), Rel("T", (Var("c"),))))
        assert contains_relation(e, "T")
        assert not contains_relation(e, "R")
        assert contains_relation(e)


class TestRenameAndSubstitute:
    def test_rename_binders_and_uses(self):
        e = AggSum(("b",), mul(Rel("S", (Var("b"), Var("c"))), Var("c")))
        renamed = rename_vars(e, {"b": "k0", "c": "k1"})
        assert renamed == AggSum(
            ("k0",), mul(Rel("S", (Var("k0"), Var("k1"))), Var("k1"))
        )

    def test_rename_lift_binder(self):
        e = Lift("x", Var("y"))
        assert rename_vars(e, {"x": "z"}) == Lift("z", Var("y"))

    def test_substitute_into_rel_args(self):
        e = Rel("R", (Var("a"), Var("b")))
        out = substitute(e, {"b": Const(7)})
        assert out == Rel("R", (Var("a"), Const(7)))

    def test_substitute_skips_lift_binder_but_not_body(self):
        e = Lift("x", Var("y"))
        assert substitute(e, {"y": Const(2)}) == Lift("x", Const(2))

    def test_substitute_pinned_lift_becomes_equality(self):
        e = Lift("x", Var("y"))
        out = substitute(e, {"x": Const(3)})
        assert out == Cmp("=", Const(3), Var("y"))

    def test_substitute_pins_aggsum_group_var(self):
        e = AggSum(("b",), Rel("S", (Var("b"), Var("c"))))
        out = substitute(e, {"b": Const(5)})
        assert out == AggSum((), Rel("S", (Const(5), Var("c"))))

    def test_substitute_renames_aggsum_group_var(self):
        e = AggSum(("b",), Rel("S", (Var("b"), Var("c"))))
        out = substitute(e, {"b": Var("k")})
        assert out == AggSum(("k",), Rel("S", (Var("k"), Var("c"))))


class TestFreshNamer:
    def test_fresh_names_are_distinct(self):
        namer = FreshNamer("t")
        names = {namer.fresh() for _ in range(100)}
        assert len(names) == 100

    def test_reserved_names_are_skipped(self):
        namer = FreshNamer("x")
        namer.reserve(["x_1", "x_2"])
        assert namer.fresh() == "x_3"

    def test_hint_overrides_prefix(self):
        namer = FreshNamer("v")
        assert namer.fresh("price").startswith("price_")
