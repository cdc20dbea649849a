"""Reference evaluator: calculus expressions over generalised multiset relations.

This module defines the *meaning* of the map algebra and serves as the
correctness oracle for the whole system: the recursive compiler, the code
generator and every baseline engine are tested against it.

A GMR is a ``dict`` mapping tuples of values to ring values; a database maps
relation (or map) names to GMRs.  Evaluating an expression in an environment
of bound variables yields ``(columns, rows)`` where ``columns`` names the
expression's unbound output variables in order and ``rows`` maps bindings of
those columns to ring values.  Zero-valued rows are pruned, so two GMRs are
semantically equal iff their pruned dictionaries are equal.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import AlgebraError, SchemaError
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
from repro.algebra.schema import output_vars

GMR = dict[tuple, object]
Database = Mapping[str, Mapping]

_NUMERIC = (int, float)


def _is_true(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    lnum = isinstance(left, _NUMERIC) and not isinstance(left, bool)
    rnum = isinstance(right, _NUMERIC) and not isinstance(right, bool)
    if lnum != rnum:
        raise AlgebraError(
            f"ordered comparison between {type(left).__name__} and "
            f"{type(right).__name__}"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise AlgebraError(f"unknown comparison operator {op!r}")


def prune_zeros(rows: GMR) -> GMR:
    """Drop zero-valued entries; the canonical form of a GMR."""
    return {k: v for k, v in rows.items() if v != 0}


def eval_expr(
    expr: Expr, env: Mapping[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    """Evaluate ``expr`` under ``env`` against ``db``.

    Returns the ordered unbound output columns and the result GMR keyed by
    bindings of those columns.
    """
    cols, rows = _eval(expr, dict(env), db)
    return cols, prune_zeros(rows)


def eval_scalar(expr: Expr, env: Mapping[str, object], db: Database) -> object:
    """Evaluate a contextually scalar expression to a single ring value."""
    cols, rows = _eval(expr, dict(env), db)
    if cols:
        raise SchemaError(
            f"expected a scalar but {expr!r} produced columns {list(cols)}"
        )
    return rows.get((), 0)


def _eval(
    expr: Expr, env: dict[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    if isinstance(expr, Const):
        return (), {(): expr.value}

    if isinstance(expr, Var):
        if expr.name not in env:
            raise SchemaError(f"variable {expr.name!r} is not bound")
        return (), {(): env[expr.name]}

    if isinstance(expr, (Rel, MapRef)):
        return _eval_atom(expr, env, db)

    if isinstance(expr, Cmp):
        left = eval_scalar(expr.left, env, db)
        right = eval_scalar(expr.right, env, db)
        return (), {(): 1 if _is_true(expr.op, left, right) else 0}

    if isinstance(expr, Div):
        num = eval_scalar(expr.left, env, db)
        den = eval_scalar(expr.right, env, db)
        _require_numeric(num)
        _require_numeric(den)
        return (), {(): 0 if den == 0 else num / den}

    if isinstance(expr, Neg):
        cols, rows = _eval(expr.body, env, db)
        return cols, {k: -_require_numeric(v) for k, v in rows.items()}

    if isinstance(expr, Exists):
        cols, rows = _eval(expr.body, env, db)
        return cols, {k: (1 if v != 0 else 0) for k, v in rows.items()}

    if isinstance(expr, Lift):
        value = eval_scalar(expr.body, env, db)
        if expr.var in env:
            return (), {(): 1 if env[expr.var] == value else 0}
        return (expr.var,), {(value,): 1}

    if isinstance(expr, AggSum):
        return _eval_aggsum(expr, env, db)

    if isinstance(expr, Mul):
        return _eval_mul(expr, env, db)

    if isinstance(expr, Add):
        return _eval_add(expr, env, db)

    raise AlgebraError(f"cannot evaluate node {type(expr).__name__}")


def _require_numeric(value: object) -> object:
    if isinstance(value, bool) or not isinstance(value, _NUMERIC):
        raise AlgebraError(f"expected a numeric ring value, got {value!r}")
    return value


def _eval_atom(
    expr: Rel | MapRef, env: dict[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    try:
        relation = db[expr.name]
    except KeyError:
        raise AlgebraError(f"unknown relation or map {expr.name!r}") from None

    # Positions: constants and env-bound vars filter; the first occurrence of
    # an unbound var binds it and later occurrences filter against it.
    out_cols: list[str] = []
    bind_positions: list[int] = []
    filters: list[tuple[int, object]] = []
    dup_checks: list[tuple[int, int]] = []  # (position, earlier bind index)
    local_bound: dict[str, int] = {}
    for pos, arg in enumerate(expr.args):
        if isinstance(arg, Const):
            filters.append((pos, arg.value))
        elif arg.name in env:
            filters.append((pos, env[arg.name]))
        elif arg.name in local_bound:
            dup_checks.append((pos, local_bound[arg.name]))
        else:
            local_bound[arg.name] = len(bind_positions)
            bind_positions.append(pos)
            out_cols.append(arg.name)

    rows: GMR = {}
    arity = len(expr.args)
    for tup, mult in relation.items():
        if len(tup) != arity:
            raise AlgebraError(
                f"tuple arity {len(tup)} does not match atom {expr!r}"
            )
        if any(tup[pos] != val for pos, val in filters):
            continue
        key = tuple(tup[pos] for pos in bind_positions)
        if any(tup[pos] != key[idx] for pos, idx in dup_checks):
            continue
        rows[key] = rows.get(key, 0) + mult
    if not rows and not out_cols and isinstance(expr, MapRef) and expr.absent != 0:
        rows[()] = expr.absent  # a point lookup that missed
    return tuple(out_cols), rows


def _eval_mul(
    expr: Mul, env: dict[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    # The contextual columns come from the static schema so that an early
    # empty factor still yields a correctly-shaped (empty) GMR.
    col_tuple = tuple(v for v in output_vars(expr) if v not in env)
    partial: list[tuple[dict[str, object], object]] = [({}, 1)]
    for factor in expr.factors:
        next_partial: list[tuple[dict[str, object], object]] = []
        for binding, value in partial:
            if value == 0:
                continue
            scoped_env = {**env, **binding}
            fcols, frows = _eval(factor, scoped_env, db)
            for fkey, fval in frows.items():
                if fval == 0:
                    continue
                new_binding = dict(binding)
                new_binding.update(zip(fcols, fkey))
                next_partial.append((new_binding, _ring_mul(value, fval)))
        partial = next_partial
        if not partial:
            return col_tuple, {}

    rows: GMR = {}
    for binding, value in partial:
        key = tuple(binding[c] for c in col_tuple)
        rows[key] = rows.get(key, 0) + value
    return col_tuple, rows


def _ring_mul(left: object, right: object) -> object:
    _require_numeric(left)
    _require_numeric(right)
    return left * right


def _eval_add(
    expr: Add, env: dict[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    # The contextual column set comes from the static schema so that empty
    # branches still align.
    target = tuple(v for v in output_vars(expr) if v not in env)
    rows: GMR = {}
    for term in expr.terms:
        tcols, trows = _eval(term, env, db)
        extra = [c for c in tcols if c not in target]
        if extra:
            raise SchemaError(
                f"addition branch {term!r} binds {extra} not bound by all "
                "branches"
            )
        missing = [c for c in target if c not in tcols]
        if missing and trows:
            raise SchemaError(
                f"addition branch {term!r} does not bind {missing}"
            )
        positions = [tcols.index(c) for c in target] if trows else []
        for tkey, tval in trows.items():
            key = tuple(tkey[p] for p in positions)
            rows[key] = rows.get(key, 0) + tval
    return target, rows


def _eval_aggsum(
    expr: AggSum, env: dict[str, object], db: Database
) -> tuple[tuple[str, ...], GMR]:
    bcols, brows = _eval(expr.body, env, db)
    target = tuple(g for g in expr.group if g not in env)
    missing = [g for g in target if g not in bcols]
    if missing and brows:
        raise SchemaError(
            f"AggSum group variables {missing} not produced by body columns "
            f"{list(bcols)}"
        )
    positions = [bcols.index(g) for g in target] if brows else []
    rows: GMR = {}
    for bkey, bval in brows.items():
        key = tuple(bkey[p] for p in positions)
        rows[key] = rows.get(key, 0) + bval
    return target, rows


# ---------------------------------------------------------------------------
# GMR helpers shared by engines and tests
# ---------------------------------------------------------------------------


def gmr_from_rows(rows) -> GMR:
    """Build a GMR from an iterable of tuples (each with multiplicity 1)."""
    out: GMR = {}
    for row in rows:
        key = tuple(row)
        out[key] = out.get(key, 0) + 1
    return out


def gmr_add(left: Mapping, right: Mapping) -> GMR:
    """Pointwise sum of two GMRs, pruning zeros."""
    out: GMR = dict(left)
    for key, val in right.items():
        out[key] = out.get(key, 0) + val
    return prune_zeros(out)


def gmr_equal(left: Mapping, right: Mapping) -> bool:
    """Semantic equality of two GMRs (ignoring zero entries)."""
    return prune_zeros(dict(left)) == prune_zeros(dict(right))
