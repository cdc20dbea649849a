"""Input/output variable analysis for calculus expressions.

Every expression has a *schema* ``(input_vars, output_vars)``:

* **output variables** are bound by the expression and form the columns of
  the GMR it produces (relation/map arguments, lifted variables, AggSum
  group variables);
* **input variables** must be bound by the surrounding context before the
  expression can be evaluated (comparison operands, bare value variables,
  lift bodies).

Variable order is meaningful (it determines the column order of evaluation
results), so schemas are ordered tuples without duplicates rather than sets.
The rules follow AGCA; ``Mul`` propagates bindings left to right, so a
variable that is an output of an earlier factor turns later potential
outputs of the same name into join constraints instead.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SchemaError
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
)


def _ordered_unique(names: Iterable[str]) -> tuple[str, ...]:
    seen: set[str] = set()
    out: list[str] = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return tuple(out)


def _merge(*groups: Iterable[str]) -> tuple[str, ...]:
    merged: list[str] = []
    for group in groups:
        merged.extend(group)
    return _ordered_unique(merged)


def schema_of(expr: Expr) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Return ``(input_vars, output_vars)`` of ``expr``, each ordered.

    Kept on the node (and on every subterm but the leaves) once computed.
    """
    if isinstance(expr, Var):
        return (expr.name,), ()
    if isinstance(expr, Const):
        return (), ()
    schema = getattr(expr, "_schema", None)
    if schema is None:
        schema = _schema_of(expr)
        object.__setattr__(expr, "_schema", schema)
    return schema


def _schema_of(expr: Expr) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if isinstance(expr, (Rel, MapRef)):
        outs = _ordered_unique(a.name for a in expr.args if isinstance(a, Var))
        return (), outs
    if isinstance(expr, (Cmp, Div)):
        li, lo = schema_of(expr.left)
        ri, ro = schema_of(expr.right)
        return _merge(li, lo, ri, ro), ()
    if isinstance(expr, Neg):
        return schema_of(expr.body)
    if isinstance(expr, Exists):
        return schema_of(expr.body)
    if isinstance(expr, Lift):
        bi, bo = schema_of(expr.body)
        return _merge(bi, bo), (expr.var,)
    if isinstance(expr, AggSum):
        bi, bo = schema_of(expr.body)
        missing = [g for g in expr.group if g not in bo and g not in bi]
        if missing:
            raise SchemaError(
                f"AggSum group variables {missing} are not produced by the "
                f"body (outputs {list(bo)})"
            )
        # Group variables the body only *reads* stay inputs.
        group_outs = tuple(g for g in expr.group if g in bo)
        return bi, group_outs
    if isinstance(expr, Mul):
        inputs: list[str] = []
        outputs: list[str] = []
        bound: set[str] = set()
        for factor in expr.factors:
            fi, fo = schema_of(factor)
            inputs.extend(v for v in fi if v not in bound)
            for v in fo:
                if v not in bound:
                    bound.add(v)
                    outputs.append(v)
                # Re-binding an already bound variable is a join constraint;
                # it adds neither an input nor an output.
        return _ordered_unique(inputs), tuple(outputs)
    if isinstance(expr, Add):
        term_schemas = [schema_of(t) for t in expr.terms]
        out_sets = [set(o) for _, o in term_schemas]
        common = set.intersection(*out_sets) if out_sets else set()
        # Preserve the order of the first term's outputs.
        outputs = tuple(
            v for v in (term_schemas[0][1] if term_schemas else ()) if v in common
        )
        inputs: list[str] = []
        for (ti, to) in term_schemas:
            inputs.extend(ti)
            inputs.extend(v for v in to if v not in common)
        return _ordered_unique(n for n in inputs if n not in common), outputs
    raise SchemaError(f"unknown expression node {type(expr).__name__}")


def input_vars(expr: Expr) -> tuple[str, ...]:
    """Variables that must be bound by context before evaluating ``expr``."""
    return schema_of(expr)[0]


def output_vars(expr: Expr) -> tuple[str, ...]:
    """Variables bound by ``expr`` (the columns of its result GMR)."""
    return schema_of(expr)[1]


def free_vars(expr: Expr) -> tuple[str, ...]:
    """All schema variables of ``expr`` (inputs followed by outputs)."""
    ins, outs = schema_of(expr)
    return _merge(ins, outs)


def is_scalar(expr: Expr, bound: Iterable[str] = ()) -> bool:
    """True if ``expr`` produces a single value given ``bound`` context vars.

    An expression is scalar in context when all of its output variables are
    already bound (every potential binding collapses to an equality test)
    and its inputs are available.
    """
    bound_set = set(bound)
    ins, outs = schema_of(expr)
    return all(v in bound_set for v in ins) and all(v in bound_set for v in outs)


def validate_closed(expr: Expr, allowed: Iterable[str] = ()) -> None:
    """Raise :class:`SchemaError` unless all inputs of ``expr`` are allowed.

    Map definitions must be closed queries: their only free inputs are the
    map's own key variables.
    """
    allowed_set = set(allowed)
    ins, _ = schema_of(expr)
    stray = [v for v in ins if v not in allowed_set]
    if stray:
        raise SchemaError(
            f"expression has unbound input variables {stray}; allowed: "
            f"{sorted(allowed_set)}"
        )
