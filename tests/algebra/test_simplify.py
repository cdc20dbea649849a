"""Simplification tests: rule-by-rule checks plus semantic preservation."""

from hypothesis import given, settings

from repro.algebra.expr import (
    AggSum,
    Cmp,
    Const,
    Div,
    Exists,
    Lift,
    Mul,
    Rel,
    Var,
    ONE,
    ZERO,
    add,
    mul,
    neg,
)
from repro.algebra.delta import event_for, delta
from repro.algebra.eval import eval_expr, gmr_equal
from repro.algebra.simplify import monomials, normalize, simplify

from tests.checks import align_rows, apply_event, assert_equivalent_results
from tests.strategies import closed_queries, databases, events


def rel(name, *vars_):
    return Rel(name, tuple(Var(v) for v in vars_))


class TestNormalize:
    def test_distributes_products_over_sums(self):
        e = mul(add(Var("x"), Var("y")), Var("z"))
        n = normalize(e)
        assert n == add(mul(Var("x"), Var("z")), mul(Var("y"), Var("z")))

    def test_folds_constants(self):
        e = mul(Const(2), Const(3), Var("x"))
        assert normalize(e) == mul(Const(6), Var("x"))

    def test_cancels_identical_monomials(self):
        e = add(Var("x"), neg(Var("x")))
        assert normalize(e) == ZERO

    def test_combines_coefficients(self):
        e = add(mul(Const(2), Var("x")), Var("x"))
        assert normalize(e) == mul(Const(3), Var("x"))

    def test_monomials_helper(self):
        e = add(mul(Const(2), Var("x")), neg(Var("y")))
        assert monomials(e) == [(2, (Var("x"),)), (-1, (Var("y"),))]


class TestConstantFolding:
    def test_cmp_of_constants_folds(self):
        assert simplify(mul(Cmp("<", Const(1), Const(2)), Var("x")), ["x"]) == Var("x")
        assert simplify(mul(Cmp(">", Const(1), Const(2)), Var("x")), ["x"]) == ZERO

    def test_cmp_identical_terms(self):
        x = Var("x")
        assert simplify(mul(Cmp("=", x, x), Var("x")), ["x"]) == Var("x")
        assert simplify(mul(Cmp("!=", x, x), Var("x")), ["x"]) == ZERO

    def test_div_folding(self):
        assert simplify(Div(Const(6), Const(3)), []) == Const(2.0)
        assert simplify(Div(Var("x"), Const(1)), ["x"]) == Var("x")
        assert simplify(Div(Var("x"), Const(0)), ["x"]) == ZERO

    def test_exists_of_constant(self):
        assert simplify(mul(Exists(Const(5)), Var("x")), ["x"]) == Var("x")
        assert simplify(Exists(ZERO), []) == ZERO


class TestLiftRules:
    def test_unification_into_relation_args(self):
        # AggSum sums over a,b: the lifts pin them to the event params.
        e = AggSum((), mul(Lift("a", Var("a0")), Lift("b", Var("b0")), rel("R", "a", "b")))
        s = simplify(e, ["a0", "b0"])
        assert s == Rel("R", (Var("a0"), Var("b0")))

    def test_lift_kept_when_variable_is_grouped(self):
        e = AggSum(("b",), mul(Lift("b", Var("b0")), Var("b")))
        s = simplify(e, ["b0"])
        # b is a required output: the lift must survive (as the key binding).
        assert any(isinstance(f, Lift) for f in ([s] if isinstance(s, Lift) else getattr(s, "factors", [])))

    def test_bound_lift_becomes_equality(self):
        # b is bound by R before the lift: it degenerates to a filter and the
        # equality then propagates into R's argument.
        e = AggSum((), mul(rel("R", "a", "b"), Lift("b", Var("b0"))))
        s = simplify(e, ["b0"])
        assert s == AggSum((), Rel("R", (Var("a"), Var("b0"))))

    def test_unused_summed_lift_drops(self):
        e = AggSum((), mul(Lift("x", AggSum((), rel("S", "p", "q"))), Var("y0")))
        s = simplify(e, ["y0"])
        assert s == Var("y0")

    def test_double_lift_same_var(self):
        # (x ^= 1) * (x ^= 2) has an empty result; via substitution the
        # second lift becomes {1 = 2} = 0.
        e = AggSum((), mul(Lift("x", Const(1)), Lift("x", Const(2))))
        assert simplify(e, []) == ZERO

    def test_double_lift_consistent(self):
        e = AggSum((), mul(Lift("x", Const(1)), Lift("x", Const(1))))
        assert simplify(e, []) == ONE


class TestEqualityPropagation:
    def test_filter_pushes_into_atom(self):
        e = AggSum((), mul(rel("R", "a", "b"), Cmp("=", Var("b"), Var("b0")), Var("a")))
        s = simplify(e, ["b0"])
        assert s == AggSum((), mul(Rel("R", (Var("a"), Var("b0"))), Var("a")))

    def test_constant_filter_pushes_into_atom(self):
        e = AggSum((), mul(rel("R", "a", "b"), Cmp("=", Var("b"), Const(3)), Var("a")))
        s = simplify(e, [])
        assert s == AggSum((), mul(Rel("R", (Var("a"), Const(3))), Var("a")))

    def test_no_propagation_for_grouped_var(self):
        # b is a group output; replacing it would change the result schema.
        e = AggSum(("b",), mul(rel("R", "a", "b"), Cmp("=", Var("b"), Var("b0"))))
        s = simplify(e, ["b0"])
        assert "b" in repr(s)

    def test_propagation_that_proves_zero_is_kept(self):
        # {b = c} makes {b < c} read {c < c}: the monomial is zero, the
        # same answer as substituting c for b by hand.
        b_is_c, b_below_c = Cmp("=", Var("b"), Var("c")), Cmp("<", Var("b"), Var("c"))
        e = AggSum((), mul(rel("R", "b"), b_is_c, b_below_c))
        by_hand = AggSum((), mul(rel("R", "c"), Cmp("<", Var("c"), Var("c"))))
        assert simplify(by_hand, ["c"]) == ZERO
        assert simplify(e, ["c"]) == ZERO


class TestAggSumRules:
    def test_scalar_hoisting(self):
        e = AggSum((), mul(Var("a0"), rel("S", "b", "c")))
        s = simplify(e, ["a0"])
        assert s == mul(AggSum((), rel("S", "b", "c")), Var("a0"))

    def test_join_elimination_via_factorisation(self):
        # The paper's insert-into-S step: independent components split.
        e = AggSum((), mul(rel("R", "a"), rel("T", "d"), Var("a"), Var("d")))
        s = simplify(e, [])
        assert s == mul(
            AggSum((), mul(rel("R", "a"), Var("a"))),
            AggSum((), mul(rel("T", "d"), Var("d"))),
        )

    def test_shared_group_var_does_not_merge_components(self):
        e = AggSum(("k",), mul(rel("R", "k", "x"), rel("S", "k", "y")))
        s = simplify(e, [])
        assert isinstance(s, Mul)
        assert all(isinstance(f, AggSum) for f in s.factors)

    def test_aggsum_collapses_when_nothing_summed(self):
        e = AggSum(("a", "b"), rel("R", "a", "b"))
        assert simplify(e, []) == rel("R", "a", "b")

    def test_aggsum_of_zero(self):
        assert simplify(AggSum((), ZERO), []) == ZERO

    def test_aggsum_distributes_over_sums(self):
        e = AggSum((), add(mul(rel("R", "a", "b"), Var("a")), mul(rel("S", "b", "c"), Var("c"))))
        s = simplify(e, [])
        expected = add(
            AggSum((), mul(rel("R", "a", "b"), Var("a"))),
            AggSum((), mul(rel("S", "b", "c"), Var("c"))),
        )
        assert s == expected

    def test_coefficient_hoists_out(self):
        e = AggSum((), mul(Const(4), rel("R", "a", "b")))
        s = simplify(e, [])
        assert s == mul(Const(4), AggSum((), rel("R", "a", "b")))


class TestCancellation:
    def test_finite_difference_cancels_when_inner_delta_zero(self):
        body = AggSum((), rel("S", "x", "y"))
        e = add(Lift("n", add(body, ZERO)), neg(Lift("n", body)))
        assert simplify(e, []) == ZERO

    def test_paper_deltas(self):
        """End-to-end: the three level-1 deltas of the paper's example."""
        q = AggSum(
            (),
            mul(rel("R", "a", "b"), rel("S", "b", "c"), rel("T", "c", "d"), Var("a"), Var("d")),
        )
        ev = event_for("S", ("b", "c"), 1)
        s = simplify(delta(q, ev), ev.params)
        # Join elimination: product of two independent aggregates.
        assert isinstance(s, Mul)
        aggs = [f for f in s.factors if isinstance(f, AggSum)]
        assert len(aggs) == 2
        reprs = repr(s)
        assert "R(" in reprs and "T(" in reprs and "S(" not in reprs


def _env_for(expr_bound, values=(1, 2)):
    return {name: values[i % len(values)] for i, name in enumerate(expr_bound)}


class TestSemanticPreservation:
    @settings(max_examples=150, deadline=None)
    @given(query=closed_queries(), db=databases())
    def test_simplify_preserves_closed_query_semantics(self, query, db):
        s = simplify(query)
        cols_a, rows_a = eval_expr(query, {}, db)
        cols_b, rows_b = eval_expr(s, {}, db)
        assert_equivalent_results(
            cols_a, rows_a, cols_b, rows_b, f"for {query!r} vs {s!r}"
        )

    @settings(max_examples=150, deadline=None)
    @given(query=closed_queries(), db=databases(), event=events())
    def test_simplified_delta_still_satisfies_invariant(self, query, db, event):
        from repro.algebra.eval import gmr_add

        name, sign, values = event
        ev = event_for(name, tuple(f"c{i}" for i in range(len(values))), sign)
        env = dict(zip(ev.params, values))
        d = simplify(delta(query, ev), ev.params)

        before_cols, before = eval_expr(query, {}, db)
        _, after = eval_expr(query, {}, apply_event(db, name, sign, values))
        delta_cols, change = eval_expr(d, env, db)
        if change:
            change = align_rows(delta_cols, change, before_cols)
        assert gmr_equal(after, gmr_add(before, change)), (
            f"simplified delta wrong for {query!r} / {sign:+d}{name}{values}: "
            f"raw={delta(query, ev)!r} simplified={d!r}"
        )
