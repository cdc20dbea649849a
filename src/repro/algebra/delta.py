"""Delta derivation: how a calculus expression changes under a single update.

Given a formal event ±R(p1, ..., pn) — an insert or delete of one tuple,
whose component values are named by fresh *event parameters* — this module
produces an expression for the change of any query: the **delta invariant**

    eval(Q, db_after) == eval(Q, db_before) + eval(delta(Q, event), db_before)

holds with the event parameters bound to the affected tuple's values (the
property tests in ``tests/algebra/test_delta.py`` check exactly this).

The rules are the paper's: deltas of sums are sums of deltas, deltas of
products expand by the discrete product rule (including the second-order
cross term), and the delta of the updated relation atom is a singleton
(written as lifts binding the atom's variables to the event parameters).
Non-linear nodes (Lift, Exists, Cmp, Div over stream-dependent bodies) use
the finite-difference form ``f(e + delta e) - f(e)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import AlgebraError
from repro.algebra.expr import (
    Add,
    AggSum,
    Cmp,
    Const,
    Div,
    Exists,
    Expr,
    Lift,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
    ZERO,
    add,
    contains_relation,
    mul,
    neg,
    walk,
)


@dataclass(frozen=True)
class Event:
    """A formal single-tuple update event on a base relation.

    ``params`` are the names of the trigger's formal parameters, one per
    column of the relation; ``sign`` is +1 for an insert and -1 for a
    delete.
    """

    relation: str
    sign: int
    params: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise AlgebraError(f"event sign must be +1 or -1, got {self.sign}")

    @property
    def is_insert(self) -> bool:
        return self.sign == 1

    @property
    def name(self) -> str:
        kind = "insert" if self.is_insert else "delete"
        return f"on_{kind}_{self.relation}"

    def __repr__(self) -> str:
        symbol = "+" if self.is_insert else "-"
        return f"{symbol}{self.relation}({', '.join(self.params)})"


def delta(expr: Expr, event: Event) -> Expr:
    """The (unsimplified) delta of ``expr`` with respect to ``event``."""
    if not contains_relation(expr, event.relation):
        return ZERO
    if any(isinstance(node, MapRef) for node in walk(expr)):
        raise AlgebraError(
            "cannot take the delta of an expression mixing base relations "
            "with map references; deltas apply to map *definitions*"
        )
    return _delta(expr, event)


def _delta(expr: Expr, event: Event) -> Expr:
    """:func:`delta` of a subterm already known to be free of map
    references.  A subterm without the relation folds to zero on the way
    up (every rule below is zero on zero deltas), so no level walks its
    subtree to find out first."""
    if isinstance(expr, Rel):
        if expr.name != event.relation:
            return ZERO
        return _singleton_delta(expr, event)

    if isinstance(expr, (Const, Var)):
        return ZERO

    if isinstance(expr, Add):
        return add(*(_delta(t, event) for t in expr.terms))

    if isinstance(expr, Neg):
        return neg(_delta(expr.body, event))

    if isinstance(expr, Mul):
        return _product_delta(expr.factors, event)

    if isinstance(expr, AggSum):
        d = _delta(expr.body, event)
        return ZERO if d == ZERO else AggSum(expr.group, d)

    if isinstance(expr, Lift):
        d = _delta(expr.body, event)
        if d == ZERO:
            return ZERO
        return add(Lift(expr.var, add(expr.body, d)), neg(Lift(expr.var, expr.body)))

    if isinstance(expr, Exists):
        d = _delta(expr.body, event)
        if d == ZERO:
            return ZERO
        return add(Exists(add(expr.body, d)), neg(Exists(expr.body)))

    if isinstance(expr, Cmp):
        dl = _delta(expr.left, event)
        dr = _delta(expr.right, event)
        if dl == ZERO and dr == ZERO:
            return ZERO
        return add(
            Cmp(expr.op, add(expr.left, dl), add(expr.right, dr)),
            neg(expr),
        )

    if isinstance(expr, Div):
        dl = _delta(expr.left, event)
        dr = _delta(expr.right, event)
        if dl == ZERO and dr == ZERO:
            return ZERO
        return add(
            Div(add(expr.left, dl), add(expr.right, dr)),
            neg(expr),
        )

    raise AlgebraError(f"cannot take delta of node {type(expr).__name__}")


def _singleton_delta(atom: Rel, event: Event) -> Expr:
    """Delta of the updated relation atom: a ±1 singleton.

    Variable arguments become lifts binding them to the event parameters
    (equality tests if already bound); constant arguments become equality
    predicates on the parameters.
    """
    if len(atom.args) != len(event.params):
        raise AlgebraError(
            f"event {event!r} arity does not match atom {atom!r}"
        )
    factors: list[Expr] = []
    for arg, param in zip(atom.args, event.params):
        if isinstance(arg, Var):
            factors.append(Lift(arg.name, Var(param)))
        else:
            factors.append(Cmp("=", Var(param), arg))
    body = mul(*factors)
    return body if event.is_insert else neg(body)


def _product_delta(factors: tuple[Expr, ...], event: Event) -> Expr:
    """Discrete product rule, applied right-associatively.

    delta(e1 * rest) = delta(e1)*rest + e1*delta(rest) + delta(e1)*delta(rest)
    """
    if len(factors) == 1:
        return _delta(factors[0], event)
    head, tail = factors[0], factors[1:]
    d_head = _delta(head, event)
    rest = mul(*tail)
    d_rest = _product_delta(tail, event)
    terms: list[Expr] = []
    if d_head != ZERO:
        terms.append(mul(d_head, rest))
    if d_rest != ZERO:
        terms.append(mul(head, d_rest))
    if d_head != ZERO and d_rest != ZERO:
        terms.append(mul(d_head, d_rest))
    return add(*terms)


def second_order_delta(defn: Expr, first: Event, second: Event) -> Expr:
    """The delta-of-delta: how ``defn``'s *delta* changes under another event.

    ``delta(defn, first)`` is the per-event maintenance work for ``first``;
    its delta with respect to ``second`` measures how that work shifts once
    another tuple of the batch has been applied — the higher-order delta of
    Ahmad et al. (and the nested incrementalisation DBSP formalises).  The
    result drives the batch-sink classification (:func:`batch_delta_order`):
    a vanishing second-order delta means per-row deltas are independent of
    batch position and may be summed (first-order accumulation); a
    non-vanishing one means the batch must carry a correction term.

    Both events must carry distinct parameter names (the second event's
    tuple is formally different from the first's).
    """
    if set(first.params) & set(second.params):
        raise AlgebraError(
            "second_order_delta requires disjoint event parameters, got "
            f"{first!r} and {second!r}"
        )
    from repro.algebra.simplify import simplify

    inner = simplify(delta(defn, first), bound=first.params)
    if inner == ZERO:
        return ZERO
    return simplify(
        delta(inner, second), bound=first.params + second.params
    )


def batch_delta_order(defn: Expr, event: Event) -> int:
    """How a map's delta behaves across a batch of same-``(relation, sign)``
    events: the order of the lowest non-vanishing delta beyond which all
    higher deltas are irrelevant to batch absorption.

    * ``0`` — the map does not change under this event at all;
    * ``1`` — the per-event delta is *state-independent with respect to this
      batch*: applying other batch rows first does not change it, so the
      batch delta is the plain sum of per-row deltas (Z-set accumulation);
    * ``2`` — the per-event delta itself shifts as the batch applies
      (non-linear shapes: nested aggregates, Exists, comparisons against
      stream-derived thresholds); absorbing the batch needs a second-order
      correction.
    """
    from repro.algebra.simplify import simplify

    first = simplify(delta(defn, event), bound=event.params)
    return delta_order(first, event, simplify)


def delta_order(
    first: Expr, event: Event, simplify: Callable[[Expr, tuple[str, ...]], Expr]
) -> int:
    """:func:`batch_delta_order` of a definition from its first-order
    delta ``first`` under ``event``, already simplified.  ``simplify(expr,
    bound)`` simplifies the second-order delta — the compiler classifies
    the deltas it derives with its own, which simplifies each distinct
    input once per compile.
    """
    if first == ZERO:
        return 0
    twin = Event(
        event.relation,
        event.sign,
        tuple(f"{param}__o2" for param in event.params),
    )
    second = delta(first, twin)
    if second == ZERO:
        return 1
    return 1 if simplify(second, event.params + twin.params) == ZERO else 2


def event_for(relation: str, columns: tuple[str, ...], sign: int) -> Event:
    """Build a formal event whose parameters embed the relation name.

    Parameter names are chosen to be unlikely to collide with query
    variables (``compiler`` additionally renames query variables apart).
    """
    params = tuple(f"ev_{relation.lower()}_{c.lower()}" for c in columns)
    return Event(relation, sign, params)
