"""The simplification rule set of the map algebra.

This is the reproduction of the paper's "approximately 70 simplification
rules": the rewrites that turn raw deltas into the compact forms of Figure 2.
The major rule families are:

* **structural** — flattening, constant folding, 0/1 identities, combining
  structurally identical monomials (so ``f(e+de) - f(e)`` cancels when the
  inner delta vanishes);
* **polynomial expansion** — products distribute over sums so every
  expression becomes a sum of monomials, the unit the compiler materialises;
* **lift unification** — ``(x ^= t) * e`` becomes ``e[x := t]`` when ``x`` is
  summed out anyway, which is how the event parameters flow into relation
  atoms (the paper's ``sigma_{B=b}(S)`` step);
* **aggregate factorisation** — ``AggSum`` distributes over sums, drops when
  nothing is summed, hoists scalars, and splits into connected components
  over shared summed variables (the paper's join elimination:
  ``sum_A(sigma_B(R)) * sum_D(sigma_C(T))``).

All rules preserve *contextual* semantics: evaluating the result under any
environment binding at least ``bound`` yields the same GMR as the input.
Variables that an enclosing ``AggSum`` does not group by are summed out, and
only those may be unified away; the ``keep`` discipline below enforces this.
"""

from __future__ import annotations

from typing import Iterable

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
    ONE,
    ZERO,
    add,
    mul,
    node_class,
    substitute,
)
from repro.algebra.expr import used_vars
from repro.algebra.schema import output_vars

_MAX_PASSES = 12


@node_class
class _Presimplified(Expr):
    """Queue sentinel: an already-simplified factor to emit verbatim.

    Used when an AggSum rewrite splices replacement factors back into the
    monomial queue: re-dispatching a rewritten aggregate could loop, but
    emitting it out of sequence would break binding order, so it travels
    through the queue wrapped and is unwrapped on arrival.
    """

    inner: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.inner,)

    def rebuild(self, children):
        (inner,) = children
        return _Presimplified(inner)

    def __repr__(self) -> str:  # pragma: no cover - transient only
        return f"<pre {self.inner!r}>"


Monomial = tuple[object, tuple[Expr, ...]]  # (numeric coefficient, factors)


def simplify(
    expr: Expr, bound: Iterable[str] = (), memo: dict | None = None
) -> Expr:
    """Fully simplify ``expr`` assuming the ``bound`` variables are bound.

    Runs the rule set to a fixpoint (with a safety cap; every individual
    pass is semantics-preserving, so stopping early is always sound).
    One pass over a subterm depends only on the subterm and its context,
    so each distinct one is computed once and kept in ``memo``: a fresh
    dict per call by default, or one a caller shares across the calls of
    a single compile (deltas of one program repeat whole subterms).
    """
    ctx = frozenset(bound)
    if memo is None:
        memo = {}
    for _ in range(_MAX_PASSES):
        new = _simplify(expr, ctx, None, memo)
        if new == expr:
            break
        expr = new
    return expr


def normalize(expr: Expr) -> Expr:
    """Structural normal form: expanded polynomial with folded constants.

    Unlike :func:`simplify` this never consults binding context, so it is
    safe on open expressions in any position.
    """
    return _rebuild(_combine(_expand(expr)))


def monomials(expr: Expr) -> list[Monomial]:
    """Expand the top level of ``expr`` into ``(coefficient, factors)`` pairs.

    Only ``Add``/``Mul``/``Neg``/``Const`` structure is expanded; all other
    nodes are kept as opaque factors.  This is the unit of work for the
    compiler's materialisation step.
    """
    return _expand(expr)


# ---------------------------------------------------------------------------
# Polynomial expansion
# ---------------------------------------------------------------------------


def _expand(expr: Expr) -> list[Monomial]:
    if isinstance(expr, Const):
        if isinstance(expr.value, str):
            raise AlgebraError(f"string constant {expr.value!r} used as a ring value")
        return [(expr.value, ())] if expr.value != 0 else []
    if isinstance(expr, Neg):
        return [(_neg_coeff(c), fs) for c, fs in _expand(expr.body)]
    if isinstance(expr, Add):
        out: list[Monomial] = []
        for term in expr.terms:
            out.extend(_expand(term))
        return out
    if isinstance(expr, Mul):
        acc: list[Monomial] = [(1, ())]
        for factor in expr.factors:
            factor_monos = _expand(factor)
            acc = [
                (_mul_coeff(c1, c2), f1 + f2)
                for c1, f1 in acc
                for c2, f2 in factor_monos
            ]
            if not acc:
                return []
        return acc
    return [(1, (expr,))]


def _neg_coeff(c: object) -> object:
    return -c  # type: ignore[operator]


def _mul_coeff(c1: object, c2: object) -> object:
    return c1 * c2  # type: ignore[operator]


def _combine(monos: list[Monomial]) -> list[Monomial]:
    """Sum coefficients of structurally identical monomials, dropping zeros."""
    grouped: dict[tuple[Expr, ...], object] = {}
    order: list[tuple[Expr, ...]] = []
    for coeff, factors in monos:
        if factors not in grouped:
            grouped[factors] = coeff
            order.append(factors)
        else:
            grouped[factors] = grouped[factors] + coeff  # type: ignore[operator]
    out = [(grouped[f], f) for f in order if grouped[f] != 0]
    return out


def _rebuild(monos: list[Monomial]) -> Expr:
    terms: list[Expr] = []
    for coeff, factors in monos:
        parts: list[Expr] = []
        if coeff != 1:
            parts.append(Const(coeff))
        parts.extend(factors)
        terms.append(mul(*parts))
    return add(*terms)


# ---------------------------------------------------------------------------
# The contextual simplification pass
# ---------------------------------------------------------------------------


def _simplify(
    expr: Expr, ctx: frozenset[str], keep: frozenset[str] | None, memo: dict
) -> Expr:
    """One full pass over ``expr``, computed once per ``memo``.

    ``ctx`` is the set of variables bound by the surrounding context.
    ``keep`` is the set of output variables that must survive; ``None`` means
    *all* outputs must survive (we are not directly under an ``AggSum`` that
    sums the rest out).
    """
    key = (expr, ctx, keep)
    done = memo.get(key)
    if done is None:
        done = memo[key] = _simplify_pass(expr, ctx, keep, memo)
    return done


def _simplify_pass(
    expr: Expr, ctx: frozenset[str], keep: frozenset[str] | None, memo: dict
) -> Expr:
    result: list[Monomial] = []
    for coeff, factors in _expand(expr):
        simplified = _simplify_monomial(coeff, factors, ctx, keep, memo)
        if simplified is not None:
            result.append(simplified)
    sort_keys: dict[tuple[Expr, ...], tuple[str, ...]] = {}
    ordered: list[Monomial] = []
    for coeff, factors in _combine(result):
        canonical, keys = _canonical_order(factors, ctx)
        sort_keys[canonical] = keys
        ordered.append((coeff, canonical))
    result = _combine(ordered)
    result.sort(key=lambda m: sort_keys[m[1]])
    return _rebuild(result)


def _simplify_monomial(
    coeff: object,
    factors: tuple[Expr, ...],
    ctx: frozenset[str],
    keep: frozenset[str] | None,
    memo: dict,
) -> Monomial | None:
    """Simplify one monomial; returns ``None`` when it reduces to zero."""
    bound = set(ctx)
    subst: dict[str, Expr] = {}
    out: list[Expr] = []
    queue: list[Expr] = list(factors)
    while queue:
        factor = queue.pop(0)
        if subst:
            factor = substitute(factor, subst)

        if isinstance(factor, Const):
            if isinstance(factor.value, str):
                raise AlgebraError(
                    f"string constant {factor.value!r} used as a ring value"
                )
            if factor.value == 0:
                return None
            coeff = coeff * factor.value  # type: ignore[operator]
            continue

        if isinstance(factor, Mul):
            queue[:0] = factor.factors
            continue

        if isinstance(factor, Neg):
            coeff = _neg_coeff(coeff)
            queue.insert(0, factor.body)
            continue

        if isinstance(factor, Var):
            out.append(factor)
            continue

        if isinstance(factor, Cmp):
            folded = _simplify_cmp(factor, bound, memo)
            if folded is ZERO:
                return None
            if folded is not ONE:
                out.append(folded)
            continue

        if isinstance(factor, Div):
            out.append(_simplify_div(factor, bound, memo))
            continue

        if isinstance(factor, Lift):
            action, payload = _simplify_lift(
                factor, bound, keep, queue, subst, memo
            )
            if action == "emit":
                out.append(payload)
            elif action == "requeue":
                queue.insert(0, payload)
            # "drop": nothing to do, subst/bound were updated in place.
            continue

        if isinstance(factor, Exists):
            rewritten = _simplify_exists(factor, bound, memo)
            if rewritten is ZERO:
                return None
            if rewritten is ONE:
                continue
            if isinstance(rewritten, Exists):
                out.append(rewritten)
                bound.update(output_vars(rewritten))
            else:
                queue.insert(0, rewritten)
            continue

        if isinstance(factor, _Presimplified):
            out.append(factor.inner)
            bound.update(output_vars(factor.inner))
            continue

        if isinstance(factor, AggSum):
            spliced = _simplify_aggsum(factor, bound, memo)
            if spliced is None:
                return None
            new_factors, hoisted_coeff = spliced
            coeff = coeff * hoisted_coeff  # type: ignore[operator]
            # Splice replacements back *in order*: rewritten aggregates are
            # wrapped so they are emitted verbatim (no re-dispatch loops),
            # while other factors go through the normal dispatch.
            queue[:0] = [
                _Presimplified(nf) if isinstance(nf, AggSum) else nf
                for nf in new_factors
            ]
            continue

        if isinstance(factor, (Rel, MapRef)):
            out.append(factor)
            bound.update(
                a.name
                for a in factor.args
                if isinstance(a, Var) and a.name not in bound
            )
            continue

        if isinstance(factor, Add):
            # Residual sums (e.g. a split AggSum) are re-expanded next pass.
            out.append(factor)
            bound.update(output_vars(factor))
            continue

        raise AlgebraError(f"cannot simplify factor {type(factor).__name__}")

    propagated = _propagate_equalities(coeff, out, ctx, keep, memo)
    if propagated is not _NO_REWRITE:
        return propagated
    return coeff, tuple(out)


#: What :func:`_propagate_equalities` returns when no equality applies —
#: distinct from ``None``, which is the rewrite proving the monomial zero.
_NO_REWRITE = object()


def _propagate_equalities(
    coeff: object,
    factors: list[Expr],
    ctx: frozenset[str],
    keep: frozenset[str] | None,
    memo: dict,
) -> Monomial | None | object:
    """Push equality predicates into the atoms that bind their variable.

    ``R(a,b) * {b = t}`` becomes ``R(a,t)`` when ``b`` is summed out at this
    level and ``t`` depends only on context variables.  This turns residual
    filters into indexed map lookups after materialisation.  Returns the
    re-simplified monomial (``None`` when it is zero), or ``_NO_REWRITE``
    when no rewrite applies (caller keeps its own result).
    """
    if keep is None:
        return _NO_REWRITE
    for idx, factor in enumerate(factors):
        if not isinstance(factor, Cmp) or factor.op != "=":
            continue
        for var_side, term_side in ((factor.left, factor.right), (factor.right, factor.left)):
            if not isinstance(var_side, Var):
                continue
            x = var_side.name
            if x in ctx or x in keep:
                continue
            if not isinstance(term_side, (Var, Const)):
                continue
            if isinstance(term_side, Var) and term_side.name not in ctx:
                continue
            remaining = [
                substitute(f, {x: term_side})
                for i, f in enumerate(factors)
                if i != idx
            ]
            return _simplify_monomial(coeff, tuple(remaining), ctx, keep, memo)
    return _NO_REWRITE


def _simplify_scalar(expr: Expr, bound: set[str], memo: dict) -> Expr:
    if isinstance(expr, (Const, Var)):
        # Scalar atoms (including string literals, which are not ring
        # values and must not reach polynomial expansion) pass through.
        return expr
    return _simplify(expr, frozenset(bound), None, memo)


def _simplify_cmp(factor: Cmp, bound: set[str], memo: dict) -> Expr:
    left = _simplify_scalar(factor.left, bound, memo)
    right = _simplify_scalar(factor.right, bound, memo)
    if isinstance(left, Const) and isinstance(right, Const):
        from repro.algebra.eval import _is_true

        return ONE if _is_true(factor.op, left.value, right.value) else ZERO
    if left == right:
        if factor.op in ("=", "<=", ">="):
            return ONE
        if factor.op in ("!=", "<", ">"):
            return ZERO
    return Cmp(factor.op, left, right)


def _simplify_div(factor: Div, bound: set[str], memo: dict) -> Expr:
    left = _simplify_scalar(factor.left, bound, memo)
    right = _simplify_scalar(factor.right, bound, memo)
    if isinstance(right, Const) and not isinstance(right.value, str):
        if right.value == 1:
            return left
        if right.value == 0:
            return ZERO
        if isinstance(left, Const) and not isinstance(left.value, str):
            return Const(left.value / right.value)
    return Div(left, right)


def _simplify_lift(
    factor: Lift,
    bound: set[str],
    keep: frozenset[str] | None,
    remaining: list[Expr],
    subst: dict[str, Expr],
    memo: dict,
) -> tuple[str, Expr | None]:
    """Process a lift, mutating ``bound``/``subst`` in place.

    Returns one of:

    * ``("requeue", expr)`` — the lift degenerated to another factor kind
      that must go through the main dispatch (an equality test);
    * ``("emit", expr)`` — the (simplified) lift stands and its variable is
      now bound;
    * ``("drop", None)`` — the lift was consumed by unification or by the
      sum-of-an-indicator rule.
    """
    body = _simplify_scalar(factor.body, bound, memo)
    var = factor.var
    if var in bound:
        # Already bound: the lift is an equality test.
        return "requeue", Cmp("=", Var(var), body)
    summed = keep is not None and var not in keep
    if summed and isinstance(body, (Var, Const)):
        # Unify: every later use of var reads the lifted value directly.
        subst[var] = body
        return "drop", None
    if summed and not any(var in used_vars(f) for f in remaining):
        # The variable is summed out and never used: summing the indicator
        # over its single binding contributes exactly 1.
        return "drop", None
    bound.add(var)
    return "emit", Lift(var, body)


def _simplify_exists(factor: Exists, bound: set[str], memo: dict) -> Expr:
    body = _simplify(factor.body, frozenset(bound), None, memo)
    if body == ZERO:
        return ZERO
    if isinstance(body, Const):
        if isinstance(body.value, str):
            raise AlgebraError("Exists over a string constant")
        return ONE if body.value != 0 else ZERO
    if isinstance(body, Exists):
        return body
    if isinstance(body, Mul):
        # Strip any non-zero constant coefficient: Exists(c*e) == Exists(e).
        stripped = [
            f
            for f in body.factors
            if not (isinstance(f, Const) and not isinstance(f.value, str) and f.value != 0)
        ]
        if len(stripped) != len(body.factors):
            body = mul(*stripped)
    if _is_indicator(body):
        return body
    return Exists(body)


def _is_indicator(expr: Expr) -> bool:
    """True when ``expr`` only takes values 0 or 1."""
    if isinstance(expr, (Cmp, Exists, Lift)):
        return True
    if isinstance(expr, Const):
        return expr.value in (0, 1)
    if isinstance(expr, Mul):
        return all(_is_indicator(f) for f in expr.factors)
    return False


def _simplify_aggsum(
    factor: AggSum, bound: set[str], memo: dict
) -> tuple[list[Expr], object] | None:
    """Simplify an AggSum factor.

    Returns ``(replacement factors, hoisted coefficient)`` or ``None`` when
    the whole monomial is zero.  When no rewrite applies, the returned list
    is ``[factor]`` unchanged.
    """
    group = factor.group
    ctx = frozenset(bound)
    body = _simplify(factor.body, ctx, frozenset(group), memo)
    if body == ZERO:
        return None
    if isinstance(body, Add):
        # Distribute the aggregate over the sum; the enclosing pass expands.
        return [Add(tuple(AggSum(group, t) for t in body.terms))], 1

    expanded = _expand(body)
    if not expanded:
        return None
    if len(expanded) != 1:
        return [AggSum(group, body)], 1
    coeff, parts = expanded[0]

    group_set = set(group)

    # Every used name (including names hidden inside nested aggregates) that
    # is neither bound by context nor grouped is summed out here; factors
    # sharing such a name must stay in the same aggregate.
    def summed_vars(e: Expr) -> set[str]:
        return {v for v in used_vars(e) if v not in bound and v not in group_set}

    var_component: dict[str, int] = {}
    components: list[list[int]] = []
    for idx, part in enumerate(parts):
        sv = summed_vars(part)
        if not sv:
            # Scalar given context and group bindings: its own component,
            # spliced bare below.
            components.append([idx])
            continue
        target: int | None = None
        for v in sv:
            if v in var_component:
                target = var_component[v]
                break
        if target is None:
            components.append([idx])
            target = len(components) - 1
        else:
            components[target].append(idx)
        for v in sv:
            if v in var_component and var_component[v] != target:
                # Merge components connected through this variable, and
                # redirect every variable of the absorbed component.
                src = var_component[v]
                components[target].extend(components[src])
                components[src] = []
                for other, comp in list(var_component.items()):
                    if comp == src:
                        var_component[other] = target
            var_component[v] = target

    live = [sorted(c) for c in components if c]

    # A component may *read* a (group) variable that another component
    # *binds*; emit binders before readers so the spliced sequence is a
    # valid evaluation order.  Static output claims cannot tell the two
    # apart: atoms are bind-or-filter, and the body was simplified
    # assuming its *own* factor order (e.g. a lift folded to a
    # comparison because an earlier factor bound the variable), so a
    # component that claims a shared variable as an output may in fact
    # read it.  The body order is the ground truth — a shared variable
    # is bound by the component owning the first part that can output
    # it, and every other component mentioning it is a reader.
    first_binder: dict[str, int] = {}
    for idx, part in enumerate(parts):
        for v in output_vars(part):
            first_binder.setdefault(v, idx)

    def binds_reads(comp: list[int]) -> tuple[set[str], set[str]]:
        owned = set(comp)
        binds = {
            v
            for i in comp
            for v in output_vars(parts[i])
            if first_binder.get(v) in owned
        }
        reads = {v for i in comp for v in used_vars(parts[i])} - binds
        return binds, reads

    ordered: list[list[int]] = []
    available = set(bound)
    pending = [(comp, *binds_reads(comp)) for comp in live]
    while pending:
        progressed = False
        for position, (comp, binds, reads) in enumerate(pending):
            blocked = any(
                v not in available
                and any(v in other[1] for other in pending if other[0] is not comp)
                for v in reads
            )
            if not blocked:
                ordered.append(comp)
                available.update(binds)
                pending.pop(position)
                progressed = True
                break
        if not progressed:
            # Mutually-reading components: evaluate them as one unit in
            # the original part order, which the body already validated.
            ordered.append(sorted(i for comp, _, _ in pending for i in comp))
            break

    rebuilt: list[Expr] = []
    for comp in ordered:
        comp_factors = [parts[i] for i in comp]
        inner = mul(*comp_factors)
        # Only *visible* summed outputs force an AggSum wrapper; names that
        # stay enclosed in nested scopes never surface rows to sum.
        visible_outputs = {v for v in output_vars(inner) if v not in bound}
        comp_summed = visible_outputs - group_set
        comp_group = tuple(g for g in group if g in visible_outputs)
        if comp_summed:
            rewritten: Expr = AggSum(comp_group, inner)
        else:
            rewritten = inner
        rebuilt.append(rewritten)

    # The body's constant coefficient hoists out of the aggregate; when the
    # body was *only* a constant, the whole AggSum collapses to it.
    return rebuilt, coeff


def _canonical_order(
    factors: tuple[Expr, ...], ctx: frozenset[str]
) -> tuple[tuple[Expr, ...], tuple[str, ...]]:
    """Deterministically reorder a monomial's factors.

    The product is commutative as long as every factor's input variables are
    bound before it evaluates, so we greedily emit the structurally smallest
    *ready* factor (by ``repr``, computed once per factor).  If no factor is
    ready (an open expression), the original order is kept for the
    remainder.  Returns the reordered factors and their reprs, in order.
    """
    keys = [repr(f) for f in factors]
    if len(factors) < 2:
        return factors, tuple(keys)
    # The input order is a valid evaluation order.  A name that was bound
    # *before* a factor in that order may be read anywhere inside the factor
    # — including correlated occurrences in nested Exists/AggSum/Lift scopes,
    # where re-binding would change the meaning — so the reordering must keep
    # every such name bound before the factor.  (Top-level join commutativity
    # still allows useful reordering of independent factors.)
    bound_before = set(ctx)
    requirements: list[frozenset[str]] = []
    for f in factors:
        requirements.append(frozenset(used_vars(f) & bound_before))
        bound_before.update(output_vars(f))

    remaining = list(range(len(factors)))
    bound = set(ctx)
    order: list[int] = []
    while remaining:
        ready = [(keys[i], i) for i in remaining if requirements[i] <= bound]
        if not ready:  # pragma: no cover - input order always satisfiable
            order.extend(remaining)
            break
        _, idx = min(ready)
        remaining.remove(idx)
        order.append(idx)
        bound.update(output_vars(factors[idx]))
    return tuple(factors[i] for i in order), tuple(keys[i] for i in order)
