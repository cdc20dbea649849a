"""Hypothesis strategies generating well-formed calculus expressions.

The generators build expressions over a fixed three-relation schema
(R(a,b), S(b,c), T(c,d) — the paper's running example) by construction rules
that mirror the schema discipline: products bind variables left to right,
comparison/lift bodies only read already-bound variables, and the top level
is always a closed aggregate.  This keeps every generated expression
evaluable, so the property tests exercise semantics rather than error paths.
"""

from __future__ import annotations

import hypothesis.strategies as st

from repro.algebra.expr import (
    AggSum,
    Cmp,
    Const,
    Exists,
    Expr,
    Lift,
    Rel,
    Var,
    add,
    mul,
)

RELATIONS = {"R": 2, "S": 2, "T": 2}
VALUES = st.integers(min_value=0, max_value=3)
CMP_OPS = ["=", "!=", "<", "<=", ">", ">="]


@st.composite
def databases(draw):
    """A small database for R/S/T with integer values and multiplicities.

    Multiplicities may be negative: GMRs are closed under deletion, and the
    delta rules must hold on any ring state.
    """
    db = {}
    for name, arity in RELATIONS.items():
        n_rows = draw(st.integers(min_value=0, max_value=4))
        rel = {}
        for _ in range(n_rows):
            tup = tuple(draw(VALUES) for _ in range(arity))
            mult = draw(st.sampled_from([-1, 1, 1, 2]))
            rel[tup] = rel.get(tup, 0) + mult
        db[name] = {k: v for k, v in rel.items() if v != 0}
    return db


#: Every single-tuple event: relation × sign × a value from ``VALUES``
#: (0–3) per column — 96 of them, every relation being binary.
_EVENTS = tuple(
    (name, sign, (a, b))
    for name in sorted(RELATIONS)
    for sign in (1, -1)
    for a in range(4)
    for b in range(4)
)


def events():
    """A concrete single-tuple event: (relation, sign, values), uniform
    over :data:`_EVENTS` and drawn as one integer (four draws per event
    cost more than checking the stream does)."""
    return st.integers(0, len(_EVENTS) - 1).map(_EVENTS.__getitem__)


class _NamePool:
    def __init__(self) -> None:
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"


@st.composite
def _scalar(draw, bound: list[str], pool: _NamePool, depth: int) -> Expr:
    """A scalar expression readable under the current bindings."""
    options = ["const"]
    if bound:
        options.extend(["var", "var"])
    if depth > 0:
        options.append("agg")
    kind = draw(st.sampled_from(options))
    if kind == "const":
        return Const(draw(VALUES))
    if kind == "var":
        return Var(draw(st.sampled_from(bound)))
    body = draw(_product(bound, pool, depth - 1))
    return AggSum((), body)


@st.composite
def _product(draw, outer_bound: list[str], pool: _NamePool, depth: int) -> Expr:
    """A product of atoms that is closed given ``outer_bound``.

    All variables the product binds are summed by the caller (the enclosing
    AggSum), so the caller treats its outputs as local.
    """
    bound = list(outer_bound)
    factors: list[Expr] = []
    n_atoms = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n_atoms):
        name = draw(st.sampled_from(sorted(RELATIONS)))
        args = []
        for _ in range(RELATIONS[name]):
            choice = draw(st.sampled_from(["new", "new", "bound", "const"]))
            if choice == "bound" and bound:
                args.append(Var(draw(st.sampled_from(bound))))
            elif choice == "const":
                args.append(Const(draw(VALUES)))
            else:
                fresh = pool.fresh()
                args.append(Var(fresh))
                bound.append(fresh)
        factors.append(Rel(name, tuple(args)))

    n_extras = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n_extras):
        options = ["cmp", "value", "lift"]
        if depth > 0:
            options.extend(["exists", "nested_agg"])
        kind = draw(st.sampled_from(options))
        if kind == "cmp":
            left = draw(_scalar(bound, pool, 0))
            right = draw(_scalar(bound, pool, 0))
            op = draw(st.sampled_from(CMP_OPS))
            factors.append(Cmp(op, left, right))
        elif kind == "value":
            factors.append(draw(_scalar(bound, pool, 0)))
        elif kind == "lift":
            body = draw(_scalar(bound, pool, max(depth - 1, 0)))
            fresh = pool.fresh()
            factors.append(Lift(fresh, body))
            bound.append(fresh)
        elif kind == "exists":
            inner = draw(_product(bound, pool, depth - 1))
            factors.append(Exists(inner))
        else:  # nested full aggregate used as a value
            inner = draw(_product(bound, pool, depth - 1))
            factors.append(AggSum((), inner))
    return mul(*factors)


@st.composite
def closed_queries(draw, max_group: int = 2) -> Expr:
    """A closed query: an AggSum (possibly grouped) over a random product,
    or a small sum of such aggregates."""
    pool = _NamePool()
    n_terms = draw(st.integers(min_value=1, max_value=2))
    if n_terms == 2:
        t1 = AggSum((), draw(_product([], pool, 1)))
        t2 = AggSum((), draw(_product([], pool, 1)))
        return add(t1, t2)
    body = draw(_product([], pool, 1))
    from repro.algebra.schema import output_vars

    outs = output_vars(body)
    k = draw(st.integers(min_value=0, max_value=min(max_group, len(outs))))
    group = tuple(outs[:k])
    return AggSum(group, body)
