"""IR optimisation passes: the loop-level rewrites the Expr tree had no
home for.

The pipeline (in application order) — every pass here changes the IR of
at least one shipped query (``tests/ir/test_ir.py`` pins that; a pass
that finds nothing is deleted, not kept):

* ``fold-constants`` — propagate single-assignment constants and copies
  and fold what they decide: the ``d = 1; if d != 0:`` every unit-delta
  map update lowers to becomes the bare update, ``d = v; if d != 0:``
  tests ``v`` itself, constant products collapse;
* ``fuse-loops`` — merge statements iterating the same map with the same
  filters into one traversal, at every nesting depth (vwap's two full
  scans become one; the SSB lineitem trigger's three ``m6_part`` probes
  inside each ``m5_ddate_orders`` entry become one);
* ``merge-guards`` — combine adjacent identical guards;
* ``hoist-invariants`` — move loop-invariant lookups/arithmetic (vwap's
  ``0.25 * total`` threshold) and whole invariant assignments out of the
  loops that recompute them;
* ``share-lookups`` — within one straight-line sequence, evaluate each
  map lookup once: a later identical lookup reads the first one's temp
  unless a write to its map or a rebinding of a key name intervenes.

Every pass reports how many IR nodes it removed
(``ProgramIR.pass_yield``, printed under ``--dump-ir``'s
``== IR passes ==``).  The pipeline walks each body once up front for
the binding counts the passes read, and counts nodes after each pass.

Every pass is semantics-preserving *including float bit-identity*: a
rewrite that would reorder additions into a map is only applied when the
map's ring values are provably exact integers
(:func:`repro.compiler.storage.exact_int_maps` — the same proof the
second-order batch plan and the sharding analysis's cross-shard sums
gate on).  A batch accumulator counts as exact when the map it merges
into is: the lowering lets statements writing one exact map share it.

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

from typing import NamedTuple, Optional

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
    KeyAt,
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
    applied_slots,
    assigned_names,
    compare_values,
    expr_names,
    expr_slots,
    rename_stmt,
    rewrite_exprs,
    stmt_children,
    stmt_exprs,
    walk_stmts,
    written_slots,
)

DEFAULT_PASSES: tuple[str, ...] = (
    "fold-constants",
    "fuse-loops",
    "merge-guards",
    "hoist-invariants",
    "share-lookups",
)


# ---------------------------------------------------------------------------
# Shared analyses
# ---------------------------------------------------------------------------


def _scan(stmts) -> tuple[dict[str, int], int]:
    """One walk over a body: how many sites bind each scalar name, and
    the number of statement nodes.

    The passes only ever drop binding sites or add fresh single-binding
    temps, so the counts stay an upper bound through the pipeline: a name
    counted once is bound at most once; an uncounted one is a fresh temp.
    """
    bindings: dict[str, int] = {}
    size = 0
    for stmt in walk_stmts(stmts):
        size += 1
        names: tuple[str, ...] = ()
        if isinstance(stmt, (Assign, Accum)):
            names = (stmt.name,)
        elif isinstance(stmt, ForEachMap):
            names = (stmt.value_var, *(name for _, name in stmt.binds))
        elif isinstance(stmt, ForEachRow):
            names = stmt.params
        for name in names:
            bindings[name] = bindings.get(name, 0) + 1
    return bindings, size


def _size(stmts) -> int:
    """Statement nodes in a body (the pass-yield unit)."""
    size = len(stmts)
    for stmt in stmts:
        if isinstance(stmt, Block):
            size += _size(stmt.stmts)
        elif isinstance(stmt, (IfCond, ForEachMap, ForEachRow)):
            size += _size(stmt.body)
    return size


class _Effects(NamedTuple):
    """What running some statements does, from one walk.

    ``ordered`` adds pending-buffer appends to the ``applied`` writes: the
    map is untouched until the flush, so reads commute with an append, but
    appends apply in append order.  ``destructive`` writes (Clear,
    Finalize, and the cache updates a write to an occurrence map makes)
    absorb instead of add: the exact-integer exemption lets additive
    writes into one map reorder, but any write-write overlap involving one
    of these must keep program order.  ``bound`` are the
    scalar names the statements set, ``free`` those they read without
    assigning them first; an accumulator (``acc += ...``) reads and sets,
    so one the statements do not reset is both, and its additions keep
    their order.
    """

    applied: set[Slot]
    ordered: set[Slot]
    destructive: set[Slot]
    reads: set[Slot]
    bound: set[str]
    free: set[str]


def _effects(stmts) -> _Effects:
    applied: set[Slot] = set()
    appended: set[Slot] = set()
    destructive: set[Slot] = set()
    reads: set[Slot] = set()
    used: set[str] = set()
    bound: set[str] = set()
    accumulated: set[str] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, (AddTo, MergeInto, FlushBuffer, Clear, Finalize)):
            slots = applied_slots(stmt)
            applied.update(slots)
            if isinstance(stmt, (Clear, Finalize)):
                destructive.update(slots)
            else:
                destructive.update(slots[1:])  # the caches it keeps
            if isinstance(stmt, Finalize):
                reads.add(stmt.source)
        elif isinstance(stmt, AppendTo):
            appended.add(stmt.target)
        elif isinstance(stmt, ForEachMap):
            reads.add(stmt.slot)
            bound.add(stmt.value_var)
            bound.update(name for _, name in stmt.binds)
        elif isinstance(stmt, Assign):
            bound.add(stmt.name)
        elif isinstance(stmt, Accum):
            accumulated.add(stmt.name)
        elif isinstance(stmt, ForEachRow):
            bound.update(stmt.params)
        stack = list(stmt_exprs(stmt))
        while stack:
            expr = stack.pop()
            if isinstance(expr, Name):
                used.add(expr.name)
            elif isinstance(expr, Lookup):
                reads.add(expr.slot)
            stack.extend(expr.children())
    return _Effects(
        applied,
        applied | appended,
        destructive,
        reads,
        bound | accumulated,
        (used | accumulated) - bound,
    )


# ---------------------------------------------------------------------------
# Pass: constant folding
# ---------------------------------------------------------------------------


def _is_unit(expr: IRExpr) -> bool:
    return isinstance(expr, Const) and type(expr.value) is int and expr.value == 1


def _fold_expr(expr: IRExpr, known: dict[str, IRExpr]) -> IRExpr:
    """``expr`` with ``known`` names substituted and constant
    subexpressions evaluated (``expr`` itself when nothing folds).

    Folding never changes a run-time value, float bits included: a
    product folds only its *leading* run of constants (the order
    ``Prod`` evaluates in) and drops unit factors, nothing reassociates.
    """
    if isinstance(expr, Name):
        return known.get(expr.name, expr)
    children = expr.children()
    if not children:
        return expr
    folded = tuple(_fold_expr(child, known) for child in children)
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
    return expr if _same(folded, children) else _with_children(expr, folded)


def _with_children(expr: IRExpr, children: tuple[IRExpr, ...]) -> IRExpr:
    """``expr`` rebuilt over new children (same node kind)."""
    if isinstance(expr, Sum):
        return Sum(children)
    if isinstance(expr, Prod):
        return Prod(children)
    if isinstance(expr, Neg):
        return Neg(*children)
    if isinstance(expr, SafeDiv):
        return SafeDiv(*children)
    if isinstance(expr, Compare):
        return Compare(expr.op, *children)
    return Lookup(expr.slot, children, expr.default)


def _same(new: tuple[IRExpr, ...], old: tuple[IRExpr, ...]) -> bool:
    """Whether folding left every child as it was (by identity)."""
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def _fold_constants(
    body: tuple[IRStmt, ...], bindings: dict[str, int]
) -> tuple[IRStmt, ...]:
    """Propagate constants and copies assigned once and fold the guards
    they decide.

    Only names with a single binding site in the whole body qualify (an
    accumulator's ``acc = 0`` is rebound by its ``acc += ...``), and a
    copy ``x = y`` only of a ``y`` bound at most once, so ``y`` holds one
    value wherever ``x`` is read; the lowering always emits a definition
    before its uses, so walking in program order sees every constant and
    copy before it is read.
    """
    known: dict[str, IRExpr] = {}

    def fold_expr(expr: IRExpr) -> IRExpr:
        return _fold_expr(expr, known)

    def propagates(value: IRExpr) -> bool:
        if isinstance(value, Name):
            return bindings.get(value.name, 0) <= 1
        return isinstance(value, Const)

    def fold(stmts: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        out: list[IRStmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign):
                value = fold_expr(stmt.value)
                if bindings[stmt.name] == 1 and propagates(value):
                    known[stmt.name] = value
                else:
                    out.append(
                        stmt if value is stmt.value else Assign(stmt.name, value)
                    )
            elif isinstance(stmt, IfCond):
                cond = fold_expr(stmt.cond)
                if not isinstance(cond, Const):
                    stmt = stmt if cond is stmt.cond else IfCond(cond, stmt.body)
                    out.append(_rebuild_with_body(stmt, fold))
                elif cond.value:
                    out.extend(fold(stmt.body))
            elif isinstance(stmt, ForEachMap):
                stmt = _rewrite_direct(stmt, fold_expr)
                out.append(_rebuild_with_body(stmt, fold))
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


def _as_loop(stmt: IRStmt) -> Optional[ForEachMap]:
    """The map loop a fusion candidate runs: a bare loop (nested in a
    loop or guard body), or a block whose sole statement is one."""
    if isinstance(stmt, ForEachMap):
        return stmt
    if (
        isinstance(stmt, Block)
        and len(stmt.stmts) == 1
        and isinstance(stmt.stmts[0], ForEachMap)
    ):
        return stmt.stmts[0]
    return None


def _may_reorder(
    mover: _Effects,
    blocked_by: list[_Effects],
    exact: set[Slot],
    params: set[str],
) -> bool:
    """May a statement move up, past ``blocked_by``, without changing maps?"""
    if not mover.free <= params:
        return False
    for other in blocked_by:
        if other.bound & mover.free or mover.bound & other.free:
            return False
        overlap = other.ordered & mover.ordered
        if not overlap <= exact:
            return False
        if overlap & (mover.destructive | other.destructive):
            return False
        if other.applied & mover.reads:
            return False
        if mover.applied & other.reads:
            return False
    return True


def _loop_effects(loop: ForEachMap, body: _Effects) -> _Effects:
    """A loop's effects from its body's: it also reads the scanned map and
    its filters' names, and binds its own."""
    binders = {loop.value_var, *(name for _, name in loop.binds)}
    filtered = {expr.name for _, expr in loop.filters if isinstance(expr, Name)}
    return _Effects(
        body.applied,
        body.ordered,
        body.destructive,
        body.reads | {loop.slot},
        body.bound | binders,
        (body.free - binders) | filtered,
    )


def _fusable_bodies(a: _Effects, b: _Effects, exact: set[Slot]) -> bool:
    """Interleaving the two bodies must not change reads or float sums."""
    if a.applied & b.reads or b.applied & a.reads:
        return False
    overlap = a.ordered & b.ordered
    if overlap & (a.destructive | b.destructive):
        return False
    return overlap <= exact


def _loop_renaming(
    loop_a: ForEachMap, loop_b: ForEachMap, a_body: _Effects, b_body: _Effects
) -> Optional[dict[str, str]]:
    """The renaming of ``loop_b``'s loop names onto ``loop_a``'s that
    fusing them needs, or ``None`` when one body's scalar names would
    capture or clobber the other's in the fused loop: a binder ``b``
    alone adds must be new to ``a``'s body, ``b``'s body must not rebind
    a name it is renamed to, and neither body may set a name the other
    reads (the accumulators among them would interleave their additions).
    """
    mapping = {
        loop_b.entry_var: loop_a.entry_var,
        loop_b.value_var: loop_a.value_var,
    }
    a_binds = dict(loop_a.binds)
    added: set[str] = set()
    for pos, name in loop_b.binds:
        if pos in a_binds:
            mapping[name] = a_binds[pos]
        else:
            added.add(name)
    if added & (set(a_binds.values()) | a_body.bound | a_body.free):
        return None
    if (b_body.free - mapping.keys()) & {*mapping.values(), *a_binds.values()}:
        return None  # ``a``'s loop would capture a name ``b`` reads
    if b_body.bound & set(mapping.values()):
        return None
    if a_body.bound & {mapping.get(name, name) for name in b_body.free}:
        return None
    header = {loop_a.entry_var, loop_a.value_var, *a_binds.values(), *added}
    if b_body.bound & (a_body.free - header):
        return None
    return mapping


def _fuse_pair(a: IRStmt, b: IRStmt, mapping: dict[str, str]) -> IRStmt:
    loop_a = _as_loop(a)
    loop_b = _as_loop(b)
    a_positions = {pos for pos, _ in loop_a.binds}
    merged_binds = list(loop_a.binds)
    merged_binds.extend(
        (pos, name) for pos, name in loop_b.binds if pos not in a_positions
    )
    renamed_body = tuple(rename_stmt(s, mapping) for s in loop_b.body)
    fused_loop = ForEachMap(
        loop_a.slot,
        loop_a.entry_var,
        loop_a.value_var,
        tuple(sorted(merged_binds)),
        loop_a.filters,
        loop_a.body + renamed_body,
    )
    if a is loop_a:
        return fused_loop
    return Block(
        comments=a.comments + b.comments,
        targets=a.targets + b.targets,
        stmts=(fused_loop,),
        sources=a.sources + b.sources,
    )


def _fuse_sequence(
    stmts: tuple[IRStmt, ...], exact: set[Slot], params: set[str]
) -> tuple[IRStmt, ...]:
    """Fuse sibling loops over the same map (block-wrapped statements at
    a trigger's top level, bare loops inside loop and guard bodies), then
    the sequences nested in what is left.  A loop may move up past its
    siblings when it reads only ``params`` and names assigned earlier in
    this sequence (a per-event accumulator's declaration) that nothing
    it passes rebinds."""
    if sum(_as_loop(stmt) is not None for stmt in stmts) < 2:
        fused = tuple(_fuse_nested(stmt, exact, params) for stmt in stmts)
        return stmts if _same(fused, stmts) else fused
    out = list(stmts)
    # Effects of each statement of ``out`` and of its loop's body, computed
    # on first use (most pairs differ in map or filters and need neither).
    effects: list[Optional[_Effects]] = [None] * len(out)
    body_effects: list[Optional[_Effects]] = [None] * len(out)

    def effects_of(k: int) -> _Effects:
        if effects[k] is None:
            loop = _as_loop(out[k])
            if loop is None:
                effects[k] = _effects((out[k],))
            else:
                effects[k] = _loop_effects(loop, body_effects_of(k))
        return effects[k]

    def body_effects_of(k: int) -> _Effects:
        if body_effects[k] is None:
            body_effects[k] = _effects(_as_loop(out[k]).body)
        return body_effects[k]

    changed = True
    while changed:
        changed = False
        for i, candidate_a in enumerate(out):
            loop_a = _as_loop(candidate_a)
            if loop_a is None:
                continue
            declared = params | {s.name for s in out[:i] if isinstance(s, Assign)}
            for j in range(i + 1, len(out)):
                candidate_b = out[j]
                loop_b = _as_loop(candidate_b)
                if loop_b is None or type(candidate_b) is not type(candidate_a):
                    continue
                if loop_a.slot != loop_b.slot or loop_a.filters != loop_b.filters:
                    continue
                a_body, b_body = body_effects_of(i), body_effects_of(j)
                # Neither body may touch the map while it is being scanned.
                if loop_a.slot in a_body.applied or loop_a.slot in b_body.applied:
                    continue
                if not _fusable_bodies(a_body, b_body, exact):
                    continue
                mapping = _loop_renaming(loop_a, loop_b, a_body, b_body)
                if mapping is None:
                    continue
                between = [effects_of(k) for k in range(i + 1, j)]
                if not _may_reorder(effects_of(j), between, exact, declared):
                    continue
                out[i] = _fuse_pair(candidate_a, candidate_b, mapping)
                del out[j], effects[j], body_effects[j]
                effects[i] = body_effects[i] = None
                changed = True
                break
            if changed:
                break
    fused = tuple(_fuse_nested(stmt, exact, params) for stmt in out)
    return stmts if _same(fused, stmts) else fused


def _fuse_nested(stmt: IRStmt, exact: set[Slot], params: set[str]) -> IRStmt:
    """``stmt`` with the sequences nested in it fused; the names a loop
    binds are parameters of its body."""
    if isinstance(stmt, ForEachMap):
        inner = params | {stmt.entry_var, stmt.value_var}
        inner.update(name for _, name in stmt.binds)
    elif isinstance(stmt, ForEachRow):
        inner = params | set(stmt.params)
    elif isinstance(stmt, (IfCond, Block)):
        inner = params
    else:
        return stmt
    return _rebuild_with_body(stmt, lambda body: _fuse_sequence(body, exact, inner))


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
    return bool(written_slots(body) & expr_slots(cond))


def _rebuild_with_body(stmt: IRStmt, fn) -> IRStmt:
    """``stmt`` over ``fn(its body)``; ``stmt`` itself when that body
    comes back unchanged (or it has none)."""
    body = stmt_children(stmt)
    if not body:
        return stmt
    new_body = fn(body)
    if _same(new_body, body):
        return stmt
    if isinstance(stmt, IfCond):
        return IfCond(stmt.cond, new_body)
    if isinstance(stmt, ForEachMap):
        return ForEachMap(
            stmt.slot,
            stmt.entry_var,
            stmt.value_var,
            stmt.binds,
            stmt.filters,
            new_body,
        )
    if isinstance(stmt, ForEachRow):
        return ForEachRow(stmt.rows_var, stmt.params, new_body)
    return Block(stmt.comments, stmt.targets, new_body, stmt.sources)


# ---------------------------------------------------------------------------
# Pass: loop-invariant hoisting
# ---------------------------------------------------------------------------

_HOIST_TYPES = (Prod, Sum, SafeDiv, Lookup, Neg)


def _hoist_stmts(
    stmts: tuple[IRStmt, ...], namer, bindings: dict[str, int]
) -> tuple[IRStmt, ...]:
    out: list[IRStmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ForEachMap, ForEachRow)):
            body = _hoist_stmts(stmt_children(stmt), namer, bindings)
            loop = _rebuild_with_body(stmt, lambda _body, b=body: b)
            prelude, loop = _hoist_from_loop(loop, namer, bindings)
            out.extend(prelude)
            out.append(loop)
        elif isinstance(stmt, (IfCond, Block)):
            out.append(
                _rebuild_with_body(
                    stmt, lambda body: _hoist_stmts(body, namer, bindings)
                )
            )
        else:
            out.append(stmt)
    return tuple(out)


def _hoist_from_loop(loop: IRStmt, namer, bindings: dict[str, int]):
    """Move loop-invariant work before the loop.  Invariant: no name
    bound inside the loop, no lookup of a map the loop body writes
    (appends excluded — they apply after the loop).

    An assignment of an invariant value to a name bound once moves out
    whole, guards and all (its readers all follow it; a pure value may be
    computed when unused) — so a temp an inner loop hoisted leaves the
    outer loop as itself, not as a copy.  Other invariant pure
    subexpressions are extracted into fresh temps."""
    body = stmt_children(loop)
    inner = set(assigned_names(body))
    if isinstance(loop, ForEachMap):
        inner.add(loop.entry_var)
        inner.add(loop.value_var)
        inner.update(name for _, name in loop.binds)
    else:
        inner.update(loop.params)
    written = written_slots(body)
    moved: list[IRStmt] = []
    hoisted: dict[IRExpr, str] = {}

    def invariant(expr: IRExpr) -> bool:
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, Name):
                if node.name in inner:
                    return False
            elif isinstance(node, KeyAt):
                return False
            elif isinstance(node, Lookup) and node.slot in written:
                return False
            stack.extend(node.children())
        return True

    def extract(expr: IRExpr) -> IRExpr:
        if isinstance(expr, _HOIST_TYPES) and invariant(expr):
            temp = hoisted.get(expr)
            if temp is None:
                temp = namer.fresh("h")
                hoisted[expr] = temp
            return Name(temp)
        children = expr.children()
        if not children:
            return expr
        return _with_children(expr, tuple(extract(child) for child in children))

    def lift(stmts: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        out: list[IRStmt] = []
        for stmt in stmts:
            if (
                isinstance(stmt, Assign)
                and bindings.get(stmt.name, 1) == 1
                and isinstance(stmt.value, _HOIST_TYPES)
                and invariant(stmt.value)
            ):
                moved.append(stmt)
                inner.discard(stmt.name)
            elif isinstance(stmt, IfCond):
                out.append(IfCond(extract(stmt.cond), lift(stmt.body)))
            elif isinstance(stmt, Block):
                out.append(
                    Block(stmt.comments, stmt.targets, lift(stmt.stmts), stmt.sources)
                )
            else:
                out.append(_rewrite_exprs_skipping_filters(stmt, extract))
        return tuple(out)

    new_body = lift(body)
    if not moved and not hoisted:
        return (), loop
    prelude = (
        *moved,
        *(Assign(name, expr) for expr, name in hoisted.items()),
    )
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
# Pass: shared lookups
# ---------------------------------------------------------------------------


def _count_lookups(stmts) -> dict[Lookup, int]:
    """How often each lookup occurs, for the maps probed more than once
    (counted by name first: that is cheap, hashing a lookup is not)."""
    lookups: list[Lookup] = []
    probes: dict[str, int] = {}
    for stmt in walk_stmts(stmts):
        stack = list(stmt_exprs(stmt))
        while stack:
            expr = stack.pop()
            if isinstance(expr, Lookup):
                lookups.append(expr)
                probes[expr.slot.name] = probes.get(expr.slot.name, 0) + 1
            stack.extend(expr.children())
    counts: dict[Lookup, int] = {}
    for lookup in lookups:
        if probes[lookup.slot.name] > 1:
            counts[lookup] = counts.get(lookup, 0) + 1
    return counts


class _LookupSharing:
    """Evaluate each map lookup once per straight-line sequence.

    One forward walk.  ``avail`` maps a lookup to the name holding its
    value at the current point: the name of a whole ``x = lookup`` that
    came first, or a fresh temp assigned just before the first statement
    that embeds it (only for lookups the body repeats).  A later
    identical lookup reads that name; a later whole ``y = lookup`` is
    dropped and ``y`` renamed.  Blocks are transparent; a guard body sees
    what precedes it but adds nothing after it; a loop body starts empty
    (``hoist-invariants`` already moved what it could share out of it).
    An applied write to a map, or a rebinding of a name, drops the
    entries reading it.  Extracted temps no later lookup read are put
    back in a second walk, taken only when there are any.
    """

    def __init__(self, bindings: dict[str, int]):
        self.bindings = bindings
        self.namer = _HoistNamer(bindings)
        self.counts: dict[Lookup, int] = {}
        self.renames: dict[str, IRExpr] = {}
        self.temps: dict[str, Lookup] = {}
        self.used: set[str] = set()

    def run(self, body: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        self.counts = _count_lookups(body)
        if all(count < 2 for count in self.counts.values()):
            return body
        out, _, _ = self.sequence(body, {})
        if self.temps.keys() - self.used:
            return self.resolve(out)
        return tuple(out)

    def sequence(self, stmts, avail: dict[Lookup, str]):
        out: list[IRStmt] = []
        writes: set[Slot] = set()
        rebound: set[str] = set()
        for stmt in stmts:
            w, r = self.statement(stmt, avail, out)
            if w or r:
                for lookup in [
                    lookup
                    for lookup in avail
                    if lookup.slot in w or expr_names(lookup) & r
                ]:
                    del avail[lookup]
                writes |= w
                rebound |= r
        return out, writes, rebound

    def rebinds(self, names) -> set[str]:
        return {name for name in names if self.bindings.get(name, 0) > 1}

    def statement(self, stmt: IRStmt, avail, out: list[IRStmt]):
        """Append ``stmt`` rewritten to ``out``; return the maps it writes
        and the names it rebinds."""

        def expr(e: IRExpr) -> IRExpr:
            return self.expr(e, avail, out)

        if isinstance(stmt, Assign):
            value = stmt.value
            if isinstance(value, Lookup) and self.bindings.get(stmt.name, 1) == 1:
                lookup = self.keys(value, avail, out)
                held = avail.get(lookup)
                if held is not None:
                    self.renames[stmt.name] = Name(held)
                    self.used.add(held)
                    return set(), set()
                if self.counts.get(value, 0) > 1:
                    avail[lookup] = stmt.name
                out.append(Assign(stmt.name, lookup))
            else:
                out.append(rewrite_exprs(stmt, expr))
            return set(), self.rebinds((stmt.name,))
        if isinstance(stmt, (Accum, AddTo, AppendTo)):
            out.append(rewrite_exprs(stmt, expr))
            if isinstance(stmt, Accum):
                return set(), self.rebinds((stmt.name,))
            return set(applied_slots(stmt)), set()
        if isinstance(stmt, (IfCond, ForEachMap)):
            # A guard's or a loop's own expressions are evaluated here.
            stmt = _rewrite_direct(stmt, expr)
        if isinstance(stmt, (IfCond, Block)):
            # A guard body sees what precedes it; a block is part of this
            # sequence.
            scope = dict(avail) if isinstance(stmt, IfCond) else avail
            body, w, r = self.sequence(stmt_children(stmt), scope)
        elif isinstance(stmt, (ForEachMap, ForEachRow)):
            body, w, r = self.sequence(stmt_children(stmt), {})
            if isinstance(stmt, ForEachMap):
                binders = (stmt.value_var, *(name for _, name in stmt.binds))
            else:
                binders = stmt.params
            r |= self.rebinds(binders)
        else:
            out.append(stmt)
            return set(written_slots((stmt,))), set()
        # A guard whose body was all shared away has nothing left to guard.
        if body or not isinstance(stmt, IfCond):
            out.append(_rebuild_with_body(stmt, lambda _: tuple(body)))
        return w, r

    def keys(self, lookup: Lookup, avail, out) -> Lookup:
        keys = tuple(self.expr(key, avail, out) for key in lookup.keys)
        if _same(keys, lookup.keys):
            return lookup
        return Lookup(lookup.slot, keys, lookup.default)

    def expr(self, expr: IRExpr, avail, out: list[IRStmt]) -> IRExpr:
        if isinstance(expr, Name):
            return self.renames.get(expr.name, expr)
        if isinstance(expr, Lookup):
            lookup = self.keys(expr, avail, out)
            if self.counts.get(expr, 0) < 2:
                return lookup
            held = avail.get(lookup)
            if held is None:
                held = self.namer.fresh("l")
                avail[lookup] = held
                self.temps[held] = lookup
                out.append(Assign(held, lookup))
            else:
                self.used.add(held)
            return Name(held)
        children = expr.children()
        if not children:
            return expr
        new = tuple(self.expr(child, avail, out) for child in children)
        return expr if _same(new, children) else _with_children(expr, new)

    def resolve(self, stmts) -> tuple[IRStmt, ...]:
        """Drop the temps no later lookup read, putting each lookup back
        into the statement that follows its temp."""
        out: list[IRStmt] = []
        unread: dict[str, IRExpr] = {}
        for stmt in stmts:
            if unread:
                stmt = _rewrite_direct(stmt, lambda e: _fold_expr(e, unread))
            name = stmt.name if isinstance(stmt, Assign) else None
            if name in self.temps:
                # The temps a statement's probes were given precede it.
                if name in self.used:
                    out.append(stmt)
                else:
                    unread[name] = stmt.value
                continue
            unread = {}
            out.append(_rebuild_with_body(stmt, self.resolve))
        return tuple(out)


def _rewrite_direct(stmt: IRStmt, fn) -> IRStmt:
    """``stmt`` with ``fn`` applied to the expressions it evaluates itself
    (a guard's condition, a loop's filters — not their bodies)."""
    if isinstance(stmt, IfCond):
        cond = fn(stmt.cond)
        return stmt if cond is stmt.cond else IfCond(cond, stmt.body)
    if isinstance(stmt, ForEachMap):
        filters = tuple((pos, fn(expr)) for pos, expr in stmt.filters)
        if all(a[1] is b[1] for a, b in zip(filters, stmt.filters)):
            return stmt
        return ForEachMap(
            stmt.slot,
            stmt.entry_var,
            stmt.value_var,
            stmt.binds,
            filters,
            stmt.body,
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
    trigger_ir: TriggerIR,
    passes: tuple[str, ...],
    exact: frozenset[str],
    removed: Optional[dict[str, int]] = None,
) -> TriggerIR:
    """Run ``passes`` (in pipeline order) over one trigger body, adding
    each pass's removed-node count to ``removed``."""
    body = trigger_ir.body
    bindings, size = _scan(body)
    exact_slots = {Slot(name) for name in exact}
    for name in DEFAULT_PASSES:
        if name not in passes:
            continue
        if name == "fold-constants":
            body = _fold_constants(body, bindings)
        elif name == "fuse-loops":
            body = _fuse_sequence(body, exact_slots, set(trigger_ir.params))
        elif name == "merge-guards":
            body = _merge_guards(body)
        elif name == "hoist-invariants":
            body = _hoist_stmts(body, _HoistNamer(bindings), bindings)
        else:
            body = _LookupSharing(bindings).run(body)
        after = _size(body)
        if removed is not None:
            removed[name] = removed.get(name, 0) + size - after
        size = after
    return TriggerIR(trigger_ir.relation, trigger_ir.name, trigger_ir.params, body)


def optimize_program(
    ir: ProgramIR,
    program: CompiledProgram,
    passes: tuple[str, ...],
    batch_only: bool = False,
) -> ProgramIR:
    """Run the pass pipeline over every trigger body.

    ``batch_only`` re-runs the pipeline over the batch variants only (they
    are lowered after the per-event bodies have been optimised).  The
    nodes each pass removes accumulate in ``ir.pass_yield``.
    """
    exact = exact_int_maps(program)
    removed = ir.pass_yield
    for name in passes:
        removed.setdefault(name, 0)
    if not batch_only:
        ir.triggers = {
            key: optimize_trigger(trigger_ir, passes, exact, removed)
            for key, trigger_ir in ir.triggers.items()
        }
    ir.batch_triggers = {
        key: optimize_trigger(trigger_ir, passes, exact, removed)
        for key, trigger_ir in ir.batch_triggers.items()
    }
    ir.passes = passes
    return ir
