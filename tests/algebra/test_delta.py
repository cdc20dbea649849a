"""Delta derivation tests: concrete paper cases and the delta invariant.

The central property (the correctness foundation of the whole compiler):

    eval(Q, db + event) == eval(Q, db) + eval(delta(Q, event), db)

for every query Q, database db, and single-tuple insert/delete event —
and for the *weighted* delta the compiler derives once per relation, with
its weight bound to +1 and to -1.
"""

import pytest
from hypothesis import given, settings

from repro.errors import AlgebraError
from repro.algebra.expr import (
    AggSum,
    Cmp,
    Const,
    Exists,
    Lift,
    MapRef,
    Rel,
    Var,
    WEIGHT,
    ZERO,
    add,
    mul,
    neg,
    walk,
)
from repro.algebra.delta import Event, delta, event_for
from repro.algebra.eval import eval_expr, gmr_add, gmr_equal
from repro.algebra.simplify import simplify

from tests.checks import apply_event
from tests.strategies import closed_queries, databases, events


def rel(name, *vars_):
    return Rel(name, tuple(Var(v) for v in vars_))


PAPER_QUERY = AggSum(
    (), mul(rel("R", "a", "b"), rel("S", "b", "c"), rel("T", "c", "d"), Var("a"), Var("d"))
)


class TestEventModel:
    def test_sign_validation(self):
        with pytest.raises(AlgebraError):
            Event("R", 2, ("x",))

    def test_event_name(self):
        assert Event("R", 1, ("x", "y")).name == "on_R"
        assert Event("R", -1, ("x", "y")).name == "on_R"
        assert Event("R", 0, ("x", "y")).name == "on_R"

    def test_weighted_event_binds_its_weight(self):
        assert Event("R", 0, ("x", "y")).bound == ("x", "y", WEIGHT)
        assert Event("R", 1, ("x", "y")).bound == ("x", "y")

    def test_event_for_builds_params(self):
        ev = event_for("Bids", ("price", "volume"), 1)
        assert ev.params == ("ev_bids_price", "ev_bids_volume")


class TestStructuralRules:
    def test_unrelated_relation_has_zero_delta(self):
        ev = Event("T", 1, ("c0", "d0"))
        assert delta(rel("R", "a", "b"), ev) == ZERO

    def test_constant_and_var_have_zero_delta(self):
        ev = Event("R", 1, ("a0", "b0"))
        assert delta(Const(3), ev) == ZERO
        assert delta(Var("x"), ev) == ZERO

    def test_relation_atom_becomes_singleton(self):
        ev = Event("R", 1, ("a0", "b0"))
        d = delta(rel("R", "a", "b"), ev)
        assert d == mul(Lift("a", Var("a0")), Lift("b", Var("b0")))

    def test_delete_negates_singleton(self):
        ev = Event("R", -1, ("a0", "b0"))
        d = delta(rel("R", "a", "b"), ev)
        assert d == neg(mul(Lift("a", Var("a0")), Lift("b", Var("b0"))))

    def test_weighted_singleton_carries_the_weight(self):
        ev = Event("R", 0, ("a0", "b0"))
        d = delta(rel("R", "a", "b"), ev)
        lifts = mul(Lift("a", Var("a0")), Lift("b", Var("b0")))
        assert d == mul(Var(WEIGHT), lifts)

    def test_constant_arg_becomes_param_equality(self):
        ev = Event("R", 1, ("a0", "b0"))
        d = delta(Rel("R", (Var("a"), Const(7))), ev)
        assert d == mul(Lift("a", Var("a0")), Cmp("=", Var("b0"), Const(7)))

    def test_arity_mismatch_raises(self):
        with pytest.raises(AlgebraError):
            delta(rel("R", "a"), Event("R", 1, ("x", "y")))

    def test_sum_rule(self):
        ev = Event("R", 1, ("a0", "b0"))
        q = add(AggSum((), rel("R", "a", "b")), AggSum((), rel("T", "c", "d")))
        d = delta(q, ev)
        # Only the R-dependent branch contributes.
        assert d == AggSum((), delta(rel("R", "a", "b"), ev))

    def test_product_rule_has_cross_term(self):
        ev = Event("R", 1, ("x0",))
        q = mul(Rel("R", (Var("x"),)), Rel("R", (Var("y"),)))
        d = delta(q, ev)
        # d(R*R) = dR*R + R*dR + dR*dR: three terms.
        assert isinstance(d.terms, tuple) and len(d.terms) == 3

    def test_mapref_delta_is_an_error(self):
        ev = Event("R", 1, ("a0", "b0"))
        q = mul(rel("R", "a", "b"), MapRef("m", (Var("a"),)))
        with pytest.raises(AlgebraError):
            delta(q, ev)

    def test_aggsum_delta_pushes_inside(self):
        ev = Event("T", 1, ("c0", "d0"))
        d = delta(PAPER_QUERY, ev)
        assert isinstance(d, AggSum)
        assert d.group == ()

    def test_exists_uses_finite_difference(self):
        ev = Event("R", 1, ("a0", "b0"))
        q = Exists(rel("R", "a", "b"))
        d = delta(q, ev)
        assert isinstance(d, type(add(Const(1), Const(2))))  # an Add
        assert len(d.terms) == 2

    def test_lift_without_stream_dependency_is_zero(self):
        ev = Event("R", 1, ("a0", "b0"))
        assert delta(Lift("x", Const(3)), ev) == ZERO

    def test_cmp_without_stream_dependency_is_zero(self):
        ev = Event("R", 1, ("a0", "b0"))
        assert delta(Cmp("<", Var("x"), Const(3)), ev) == ZERO


def _check_invariant(query, db, name, sign, values, weighted=False):
    """The invariant for one event; ``weighted`` checks the delta of the
    weighted event (simplified, as the compiler derives it) with its
    weight bound to ``sign``."""
    ev = event_for(
        name, tuple(f"c{i}" for i in range(len(values))), 0 if weighted else sign
    )
    env = dict(zip(ev.params, values))
    d = delta(query, ev)
    if weighted:
        env[WEIGHT] = sign
        d = simplify(d, ev.bound)

    before_cols, before = eval_expr(query, {}, db)
    after_cols, after = eval_expr(query, {}, apply_event(db, name, sign, values))
    delta_cols, change = eval_expr(d, env, db)

    assert set(after_cols) == set(before_cols)
    if change:
        # Align delta columns with the query's column order.
        positions = [delta_cols.index(c) for c in before_cols]
        change = {tuple(k[p] for p in positions): v for k, v in change.items()}
    assert gmr_equal(after, gmr_add(before, change)), (
        f"delta invariant violated for {query!r} on {sign:+d}{name}{values}: "
        f"before={before} after={after} delta={change}"
    )


class TestDeltaInvariantConcrete:
    """Hand-picked shapes that historically break IVM implementations."""

    def test_paper_query_all_events(self):
        db = {
            "R": {(1, 10): 1, (2, 20): 1},
            "S": {(10, 100): 1, (20, 100): 2},
            "T": {(100, 5): 1},
        }
        for name in ("R", "S", "T"):
            for sign in (1, -1):
                _check_invariant(PAPER_QUERY, db, name, sign, (20, 100))

    def test_self_join_cross_term(self):
        q = AggSum((), mul(Rel("R", (Var("x"), Var("y"))), Rel("R", (Var("y"), Var("z")))))
        db = {"R": {(1, 1): 1, (1, 2): 1}, "S": {}, "T": {}}
        _check_invariant(q, db, "R", 1, (1, 1))
        _check_invariant(q, db, "R", -1, (1, 1))

    def test_nested_aggregate_in_comparison(self):
        # VWAP-shaped: sum of a over R rows where a < total count of S.
        count_s = AggSum((), rel("S", "x", "y"))
        q = AggSum(
            (),
            mul(rel("R", "a", "b"), Lift("n", count_s), Cmp("<", Var("a"), Var("n")), Var("a")),
        )
        db = {"R": {(1, 0): 1, (5, 0): 1}, "S": {(0, 0): 1, (1, 1): 1}, "T": {}}
        # Inserting into S moves the threshold: both R rows flip eligibility.
        _check_invariant(q, db, "S", 1, (2, 2))
        _check_invariant(q, db, "S", -1, (1, 1))
        _check_invariant(q, db, "R", 1, (2, 2))

    def test_exists_flips_on_first_and_last_tuple(self):
        q = AggSum((), mul(Exists(rel("S", "x", "y")), Const(10)))
        empty = {"R": {}, "S": {}, "T": {}}
        one = {"R": {}, "S": {(1, 1): 1}, "T": {}}
        _check_invariant(q, empty, "S", 1, (1, 1))  # 0 -> 10
        _check_invariant(q, one, "S", -1, (1, 1))  # 10 -> 0
        _check_invariant(q, one, "S", 1, (2, 2))  # stays 10

    def test_group_by_delta(self):
        q = AggSum(("b",), mul(rel("R", "a", "b"), Var("a")))
        db = {"R": {(1, 10): 1, (2, 20): 1}, "S": {}, "T": {}}
        _check_invariant(q, db, "R", 1, (5, 10))
        _check_invariant(q, db, "R", 1, (5, 30))  # brand-new group
        _check_invariant(q, db, "R", -1, (1, 10))  # group disappears


class TestWeightedDelta:
    """One delta per relation: the weighted event's, exact at w = +1 and
    at w = -1."""

    SELF_JOIN = AggSum(
        (), mul(rel("R", "a1", "b1"), rel("R", "a2", "b2"), Var("a1"), Var("a2"))
    )  # SELECT sum(r1.a * r2.a) FROM R r1, R r2

    def test_paper_query_at_both_weights(self):
        db = {
            "R": {(1, 10): 1, (2, 20): 1},
            "S": {(10, 100): 1, (20, 100): 2},
            "T": {(100, 5): 1},
        }
        for name in ("R", "S", "T"):
            for sign in (1, -1):
                _check_invariant(PAPER_QUERY, db, name, sign, (20, 100), True)

    def test_self_join_sum_at_both_weights(self):
        db = {"R": {(1, 1): 1, (3, 2): 2}, "S": {}, "T": {}}
        for sign in (1, -1):
            for values in ((1, 1), (5, 7)):
                _check_invariant(self.SELF_JOIN, db, "R", sign, values, True)

    def test_self_join_cross_term_is_weight_free(self):
        ev = event_for("R", ("a", "b"), 0)
        d = simplify(delta(self.SELF_JOIN, ev), ev.bound)
        terms = d.terms if isinstance(d, type(add(Var("x"), Var("y")))) else (d,)
        weighted = [t for t in terms if Var(WEIGHT) in walk(t)]
        free = [t for t in terms if Var(WEIGHT) not in walk(t)]
        # w * a * sum(R.a) twice — the symmetric first-order terms — and
        # the cross term dR * dR = w * w * a * a = a * a.
        assert len(weighted) == 2
        assert all(list(walk(t)).count(Var(WEIGHT)) == 1 for t in weighted)
        assert free == [mul(Var("ev_r_a"), Var("ev_r_a"))]


class TestDeltaInvariantProperty:
    @settings(max_examples=200, deadline=None)
    @given(query=closed_queries(), db=databases(), event=events())
    def test_delta_invariant(self, query, db, event):
        name, sign, values = event
        _check_invariant(query, db, name, sign, values)

    @settings(max_examples=60, deadline=None)
    @given(query=closed_queries(), db=databases(), event=events())
    def test_weighted_delta_invariant(self, query, db, event):
        """The weighted delta, with its weight bound to the event's sign."""
        name, sign, values = event
        _check_invariant(query, db, name, sign, values, weighted=True)

    @settings(max_examples=60, deadline=None)
    @given(query=closed_queries(), db=databases(), event=events())
    def test_second_order_delta_invariant(self, query, db, event):
        """The delta of a delta also satisfies the invariant (the property
        the *recursive* compilation relies on)."""
        name, sign, values = event
        ev = event_for(name, tuple(f"p{i}" for i in range(len(values))), sign)
        first = delta(query, ev)
        # Close the first-order delta over its parameters via lifts so it is
        # a proper query again, then check the invariant for a second event.
        closed = AggSum(
            (),
            mul(*(Lift(p, Const(v)) for p, v in zip(ev.params, values)), first),
        )
        _check_invariant(closed, db, name, sign, values)
