"""IR optimisation passes: the loop-level rewrites the Expr tree had no
home for.

The pipeline (in application order) — every pass here changes the IR of
at least one shipped query (``tests/ir/test_ir.py`` pins that; a pass
that finds nothing is deleted, not kept):

* ``fold-constants`` — propagate single-assignment constant temps and
  fold what they decide: the ``d = 1; if d != 0:`` every unit-delta map
  update lowers to becomes the bare update, constant products collapse;
* ``fuse-loops`` — merge statements iterating the same map with the same
  filters into one traversal (vwap's two full scans become one);
* ``merge-guards`` — combine adjacent identical guards;
* ``hoist-invariants`` — move loop-invariant lookups/arithmetic (vwap's
  ``0.25 * total`` threshold) out of the loops that recompute them.

Every pass is semantics-preserving *including float bit-identity*: a
rewrite that would reorder additions into a map is only applied when the
map's ring values are provably exact integers
(:func:`repro.compiler.storage.exact_int_maps` — the same proof the
second-order batch plan and the sharding analysis's cross-shard sums
gate on).

The passes apply to the batch bodies too, including the second-order
accumulate-then-flush shape: the once-per-batch restate scans are emitted
as single-loop blocks so ``fuse-loops`` merges restatements scanning the
same base map into one traversal, and ``hoist-invariants`` lifts their
batch-constant thresholds.  :class:`~repro.ir.nodes.Clear` (the flush's
zeroing write) is *destructive* — unlike additions it never commutes, even
into exact maps — so the reorder analyses refuse any write-write overlap
involving one.
"""

from __future__ import annotations

from typing import Iterable

from repro.compiler.program import CompiledProgram
from repro.compiler.storage import exact_int_maps
from repro.ir.nodes import (
    Accum,
    AddTo,
    AppendTo,
    Assign,
    Block,
    Clear,
    Compare,
    Const,
    Finalize,
    FlushBuffer,
    ForEachMap,
    ForEachRow,
    IfCond,
    IRExpr,
    IRStmt,
    Lookup,
    MergeInto,
    Name,
    Neg,
    Prod,
    ProgramIR,
    SafeDiv,
    Slot,
    Sum,
    TriggerIR,
    assigned_names,
    compare_values,
    expr_names,
    expr_slots,
    expr_has_keyat,
    rename_stmt,
    rewrite_exprs,
    stmt_children,
    stmt_exprs,
    walk_stmts,
)

DEFAULT_PASSES: tuple[str, ...] = (
    "fold-constants",
    "fuse-loops",
    "merge-guards",
    "hoist-invariants",
)


# ---------------------------------------------------------------------------
# Shared analyses
# ---------------------------------------------------------------------------


def _applied_writes(stmts: Iterable[IRStmt]) -> frozenset[Slot]:
    """Slots whose *contents* change while the statements run.

    Pending-buffer appends are excluded: the map itself is untouched until
    the flush, so reads commute with them.
    """
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, AddTo):
            out.add(stmt.slot)
        elif isinstance(stmt, (MergeInto, FlushBuffer, Clear, Finalize)):
            out.add(stmt.target)
    return frozenset(out)


def _ordered_writes(stmts: Iterable[IRStmt]) -> frozenset[Slot]:
    """Slots whose per-key addition *order* the statements contribute to
    (applied writes plus pending appends, which apply in append order)."""
    out = set(_applied_writes(stmts))
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, AppendTo):
            out.add(stmt.target)
    return frozenset(out)


def _destructive_writes(stmts: Iterable[IRStmt]) -> frozenset[Slot]:
    """Slots written *non-additively* (Clear): these never commute.

    The exact-integer exemption lets additive writes into one map reorder;
    a Clear absorbs instead of adds (the second-order batch flush clears a
    restated map before re-evaluating its definition), so any write-write
    overlap involving one must keep program order.
    """
    return frozenset(
        stmt.target
        for stmt in walk_stmts(stmts)
        if isinstance(stmt, (Clear, Finalize))
    )


def _reads(stmts: Iterable[IRStmt]) -> frozenset[Slot]:
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, ForEachMap):
            out.add(stmt.slot)
        elif isinstance(stmt, (MergeInto, Finalize)):
            out.add(stmt.source)
        for expr in stmt_exprs(stmt):
            out.update(expr_slots(expr))
    return frozenset(out)


def _used_names(stmts: Iterable[IRStmt]) -> frozenset[str]:
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        for expr in stmt_exprs(stmt):
            out.update(expr_names(expr))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Pass: constant folding
# ---------------------------------------------------------------------------


def _is_unit(expr: IRExpr) -> bool:
    return isinstance(expr, Const) and type(expr.value) is int and expr.value == 1


def _fold_expr(expr: IRExpr, consts: dict[str, Const]) -> IRExpr:
    """``expr`` with known-constant names substituted and constant
    subexpressions evaluated (``expr`` itself when nothing folds).

    Folding never changes a run-time value, float bits included: a
    product folds only its *leading* run of constants (the order
    ``Prod`` evaluates in) and drops unit factors, nothing reassociates.
    """
    if isinstance(expr, Name):
        return consts.get(expr.name, expr)
    children = expr.children()
    if not children:
        return expr
    folded = tuple(_fold_expr(child, consts) for child in children)
    if isinstance(expr, Prod):
        factors = list(folded)
        while (
            len(factors) > 1
            and isinstance(factors[0], Const)
            and isinstance(factors[1], Const)
        ):
            factors[:2] = [Const(factors[0].value * factors[1].value)]
        kept = tuple(f for f in factors if not _is_unit(f)) or (Const(1),)
        if len(kept) == 1:
            return kept[0]
        return expr if _same(kept, children) else Prod(kept)
    if all(isinstance(child, Const) for child in folded):
        if isinstance(expr, Sum):
            return Const(sum((t.value for t in folded[1:]), folded[0].value))
        if isinstance(expr, Neg):
            return Const(-folded[0].value)
        if isinstance(expr, Compare):
            return Const(
                int(compare_values(expr.op, folded[0].value, folded[1].value))
            )
    if _same(folded, children):
        return expr
    if isinstance(expr, Sum):
        return Sum(folded)
    if isinstance(expr, Neg):
        return Neg(*folded)
    if isinstance(expr, SafeDiv):
        return SafeDiv(*folded)
    if isinstance(expr, Compare):
        return Compare(expr.op, *folded)
    return Lookup(expr.slot, folded, expr.default)


def _same(new: tuple[IRExpr, ...], old: tuple[IRExpr, ...]) -> bool:
    """Whether folding left every child as it was (by identity)."""
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def _fold_constants(body: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
    """Propagate constants assigned once and fold the guards they decide.

    Only names with a single binding site in the whole body qualify (an
    accumulator's ``acc = 0`` is rebound by its ``acc += ...``); the
    lowering always emits a definition before its uses, so walking in
    program order sees every constant before it is read.
    """
    bindings: dict[str, int] = {}
    for stmt in walk_stmts(body):
        names: tuple[str, ...] = ()
        if isinstance(stmt, (Assign, Accum)):
            names = (stmt.name,)
        elif isinstance(stmt, ForEachMap):
            names = (stmt.value_var, *(name for _, name in stmt.binds))
        elif isinstance(stmt, ForEachRow):
            names = stmt.params
        for name in names:
            bindings[name] = bindings.get(name, 0) + 1
    consts: dict[str, Const] = {}

    def fold_expr(expr: IRExpr) -> IRExpr:
        return _fold_expr(expr, consts)

    def fold(stmts: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        out: list[IRStmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                value = fold_expr(stmt.value)
                if isinstance(value, Const) and bindings[stmt.name] == 1:
                    consts[stmt.name] = value
                else:
                    out.append(
                        stmt if value is stmt.value else Assign(stmt.name, value)
                    )
            elif isinstance(stmt, IfCond):
                cond = fold_expr(stmt.cond)
                if not isinstance(cond, Const):
                    out.append(IfCond(cond, fold(stmt.body)))
                elif cond.value:
                    out.extend(fold(stmt.body))
            elif isinstance(stmt, ForEachMap):
                out.append(
                    ForEachMap(
                        stmt.slot,
                        stmt.entry_var,
                        stmt.value_var,
                        stmt.binds,
                        tuple((p, fold_expr(e)) for p, e in stmt.filters),
                        fold(stmt.body),
                    )
                )
            elif isinstance(stmt, (ForEachRow, Block)):
                out.append(_rebuild_with_body(stmt, fold))
            elif isinstance(stmt, (Accum, AddTo, AppendTo)):
                out.append(rewrite_exprs(stmt, fold_expr))
            else:
                out.append(stmt)
        return tuple(out)

    return fold(body)


# ---------------------------------------------------------------------------
# Pass: loop fusion
# ---------------------------------------------------------------------------


def _single_loop(stmt: IRStmt):
    """The block's sole top-level statement, when it is one map loop."""
    if (
        isinstance(stmt, Block)
        and len(stmt.stmts) == 1
        and isinstance(stmt.stmts[0], ForEachMap)
    ):
        return stmt.stmts[0]
    return None


def _loops_compatible(a: ForEachMap, b: ForEachMap) -> bool:
    if a.slot != b.slot or a.filters != b.filters:
        return False
    # Neither body may touch the iterated map while it is being scanned.
    if a.slot in _applied_writes(a.body) or a.slot in _applied_writes(b.body):
        return False
    return True


def _may_reorder(
    mover: Block, blocked_by: list[IRStmt], exact: frozenset[str], params: set[str]
) -> bool:
    """May ``mover`` move up, past ``blocked_by``, without changing maps?"""
    mover_stmts = (mover,)
    if not (_used_names(mover_stmts) - assigned_names(mover_stmts)) <= params:
        return False
    m_applied = _applied_writes(mover_stmts)
    m_ordered = _ordered_writes(mover_stmts)
    m_reads = _reads(mover_stmts)
    m_destructive = _destructive_writes(mover_stmts)
    for other in blocked_by:
        o_stmts = (other,)
        overlap = _ordered_writes(o_stmts) & m_ordered
        if any(slot.local or slot.name not in exact for slot in overlap):
            return False
        if overlap & (m_destructive | _destructive_writes(o_stmts)):
            return False
        if _applied_writes(o_stmts) & m_reads:
            return False
        if m_applied & _reads(o_stmts):
            return False
    return True


def _fusable_bodies(a: ForEachMap, b: ForEachMap, exact: frozenset[str]) -> bool:
    """Interleaving the two bodies must not change reads or float sums."""
    if _applied_writes(a.body) & _reads(b.body):
        return False
    if _applied_writes(b.body) & _reads(a.body):
        return False
    overlap = _ordered_writes(a.body) & _ordered_writes(b.body)
    if overlap & (_destructive_writes(a.body) | _destructive_writes(b.body)):
        return False
    return not any(slot.local or slot.name not in exact for slot in overlap)


def _fuse_pair(block_a: Block, block_b: Block) -> Block:
    loop_a = block_a.stmts[0]
    loop_b = block_b.stmts[0]
    mapping = {
        loop_b.entry_var: loop_a.entry_var,
        loop_b.value_var: loop_a.value_var,
    }
    a_binds = dict(loop_a.binds)
    for pos, name in loop_b.binds:
        if pos in a_binds and name != a_binds[pos]:
            mapping[name] = a_binds[pos]
    merged_binds = list(loop_a.binds)
    bound_positions = set(a_binds)
    bound_names = set(a_binds.values())
    for pos, name in loop_b.binds:
        if pos not in bound_positions:
            target_name = mapping.get(name, name)
            merged_binds.append((pos, target_name))
            bound_names.add(target_name)
    renamed_body = tuple(rename_stmt(s, mapping) for s in loop_b.body)
    fused_loop = ForEachMap(
        loop_a.slot,
        loop_a.entry_var,
        loop_a.value_var,
        tuple(sorted(merged_binds)),
        loop_a.filters,
        loop_a.body + renamed_body,
    )
    return Block(
        comments=block_a.comments + block_b.comments,
        targets=block_a.targets + block_b.targets,
        stmts=(fused_loop,),
        sources=block_a.sources + block_b.sources,
    )


def _rename_collides(block_a: Block, block_b: Block) -> bool:
    loop_a = block_a.stmts[0]
    loop_b = block_b.stmts[0]
    a_binds = dict(loop_a.binds)
    for pos, name in loop_b.binds:
        if pos not in a_binds and name in set(a_binds.values()):
            return True
    return False


def _fuse_sequence(
    stmts: tuple[IRStmt, ...], exact: frozenset[str], params: set[str]
) -> tuple[IRStmt, ...]:
    out = [
        ForEachRow(s.rows_var, s.params, _fuse_sequence(s.body, exact, set(s.params)))
        if isinstance(s, ForEachRow)
        else s
        for s in stmts
    ]
    changed = True
    while changed:
        changed = False
        for i, candidate_a in enumerate(out):
            loop_a = _single_loop(candidate_a)
            if loop_a is None:
                continue
            for j in range(i + 1, len(out)):
                candidate_b = out[j]
                loop_b = _single_loop(candidate_b)
                if loop_b is None:
                    continue
                if not _loops_compatible(loop_a, loop_b):
                    continue
                if _rename_collides(candidate_a, candidate_b):
                    continue
                if not _fusable_bodies(loop_a, loop_b, exact):
                    continue
                between = out[i + 1 : j]
                if not _may_reorder(candidate_b, between, exact, params):
                    continue
                out[i] = _fuse_pair(candidate_a, candidate_b)
                del out[j]
                changed = True
                break
            if changed:
                break
    return tuple(out)


# ---------------------------------------------------------------------------
# Pass: merge adjacent identical guards
# ---------------------------------------------------------------------------


def _merge_guards(stmts: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
    out: list[IRStmt] = []
    for stmt in stmts:
        stmt = _rebuild_with_body(stmt, _merge_guards)
        previous = out[-1] if out else None
        if (
            isinstance(stmt, IfCond)
            and isinstance(previous, IfCond)
            and previous.cond == stmt.cond
            and not _invalidates_cond(previous.body, stmt.cond)
        ):
            # Re-merge the joined bodies: each was merged alone, the seam
            # between them (nested identical guards) was not.
            out[-1] = IfCond(
                previous.cond, _merge_guards(previous.body + stmt.body)
            )
        else:
            out.append(stmt)
    return tuple(out)


def _invalidates_cond(body: tuple[IRStmt, ...], cond: IRExpr) -> bool:
    if assigned_names(body) & expr_names(cond):
        return True
    return bool(_applied_writes(body) & expr_slots(cond))


def _rebuild_with_body(stmt: IRStmt, fn) -> IRStmt:
    if isinstance(stmt, IfCond):
        return IfCond(stmt.cond, fn(stmt.body))
    if isinstance(stmt, ForEachMap):
        return ForEachMap(
            stmt.slot,
            stmt.entry_var,
            stmt.value_var,
            stmt.binds,
            stmt.filters,
            fn(stmt.body),
        )
    if isinstance(stmt, ForEachRow):
        return ForEachRow(stmt.rows_var, stmt.params, fn(stmt.body))
    if isinstance(stmt, Block):
        return Block(stmt.comments, stmt.targets, fn(stmt.stmts), stmt.sources)
    return stmt


# ---------------------------------------------------------------------------
# Pass: loop-invariant hoisting
# ---------------------------------------------------------------------------

_HOIST_TYPES = (Prod, Sum, SafeDiv, Lookup, Neg)


def _hoist_stmts(stmts: tuple[IRStmt, ...], namer) -> tuple[IRStmt, ...]:
    out: list[IRStmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ForEachMap, ForEachRow)):
            body = _hoist_stmts(stmt_children(stmt), namer)
            loop = _rebuild_with_body(stmt, lambda _body, b=body: b)
            prelude, loop = _hoist_from_loop(loop, namer)
            out.extend(prelude)
            out.append(loop)
        elif isinstance(stmt, (IfCond, Block)):
            out.append(_rebuild_with_body(stmt, lambda body: _hoist_stmts(body, namer)))
        else:
            out.append(stmt)
    return tuple(out)


def _hoist_from_loop(loop: IRStmt, namer):
    """Extract loop-invariant pure subexpressions into temps before the
    loop.  Invariant: no name bound inside the loop, no lookup of a map
    the loop body writes (appends excluded — they apply after the loop)."""
    body = stmt_children(loop)
    inner = set(assigned_names(body))
    if isinstance(loop, ForEachMap):
        inner.add(loop.entry_var)
        inner.add(loop.value_var)
        inner.update(name for _, name in loop.binds)
    else:
        inner.update(loop.params)
    written = _applied_writes(body)
    hoisted: dict[IRExpr, str] = {}

    def invariant(expr: IRExpr) -> bool:
        if expr_names(expr) & inner:
            return False
        if expr_has_keyat(expr):
            return False
        return not (expr_slots(expr) & written)

    def extract(expr: IRExpr) -> IRExpr:
        if isinstance(expr, _HOIST_TYPES) and invariant(expr):
            temp = hoisted.get(expr)
            if temp is None:
                temp = namer.fresh("h")
                hoisted[expr] = temp
            return Name(temp)
        if isinstance(expr, Sum):
            return Sum(tuple(extract(t) for t in expr.terms))
        if isinstance(expr, Prod):
            return Prod(tuple(extract(f) for f in expr.factors))
        if isinstance(expr, Neg):
            return Neg(extract(expr.body))
        if isinstance(expr, SafeDiv):
            return SafeDiv(extract(expr.left), extract(expr.right))
        if isinstance(expr, Compare):
            return Compare(expr.op, extract(expr.left), extract(expr.right))
        if isinstance(expr, Lookup):
            return Lookup(expr.slot, tuple(extract(k) for k in expr.keys), expr.default)
        return expr

    new_body = tuple(_rewrite_exprs_skipping_filters(s, extract) for s in body)
    if not hoisted:
        return (), loop
    prelude = tuple(Assign(name, expr) for expr, name in hoisted.items())
    return prelude, _rebuild_with_body(loop, lambda _body: new_body)


def _rewrite_exprs_skipping_filters(stmt: IRStmt, fn) -> IRStmt:
    """Like :func:`rewrite_exprs` but leaves loop filters untouched (they
    must stay index-probe-compatible Name/Const/KeyAt atoms)."""
    if isinstance(stmt, ForEachMap):
        return ForEachMap(
            stmt.slot,
            stmt.entry_var,
            stmt.value_var,
            stmt.binds,
            stmt.filters,
            tuple(_rewrite_exprs_skipping_filters(s, fn) for s in stmt.body),
        )
    if isinstance(stmt, ForEachRow):
        return ForEachRow(
            stmt.rows_var,
            stmt.params,
            tuple(_rewrite_exprs_skipping_filters(s, fn) for s in stmt.body),
        )
    if isinstance(stmt, IfCond):
        return IfCond(
            fn(stmt.cond),
            tuple(_rewrite_exprs_skipping_filters(s, fn) for s in stmt.body),
        )
    if isinstance(stmt, Block):
        return Block(
            stmt.comments,
            stmt.targets,
            tuple(_rewrite_exprs_skipping_filters(s, fn) for s in stmt.stmts),
            stmt.sources,
        )
    return rewrite_exprs(stmt, fn)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class _HoistNamer:
    """Fresh names for hoisted temps, disjoint from existing locals.

    Batch bodies embed already-hoisted per-event blocks, so new temps
    must avoid every name the body assigns anywhere.
    """

    def __init__(self, reserved=()) -> None:
        self._counter = 0
        self._reserved = set(reserved)

    def fresh(self, prefix: str) -> str:
        while True:
            self._counter += 1
            name = f"__{prefix}{self._counter}"
            if name not in self._reserved:
                self._reserved.add(name)
                return name


def optimize_trigger(
    trigger_ir: TriggerIR, passes: tuple[str, ...], exact: frozenset[str]
) -> TriggerIR:
    body = trigger_ir.body
    if "fold-constants" in passes:
        body = _fold_constants(body)
    if "fuse-loops" in passes:
        body = _fuse_sequence(body, exact, set(trigger_ir.params))
    if "merge-guards" in passes:
        body = _merge_guards(body)
    if "hoist-invariants" in passes:
        body = _hoist_stmts(body, _HoistNamer(assigned_names(body)))
    return TriggerIR(
        trigger_ir.relation,
        trigger_ir.sign,
        trigger_ir.name,
        trigger_ir.params,
        body,
    )


def optimize_program(
    ir: ProgramIR,
    program: CompiledProgram,
    passes: tuple[str, ...],
    batch_only: bool = False,
) -> ProgramIR:
    """Run the pass pipeline over every trigger body.

    ``batch_only`` re-runs the pipeline over the batch variants only (they
    are lowered after the per-event bodies have been optimised).
    """
    exact = exact_int_maps(program)
    if not batch_only:
        ir.triggers = {
            key: optimize_trigger(trigger_ir, passes, exact)
            for key, trigger_ir in ir.triggers.items()
        }
    ir.batch_triggers = {
        key: optimize_trigger(trigger_ir, passes, exact)
        for key, trigger_ir in ir.batch_triggers.items()
    }
    ir.passes = passes
    return ir
