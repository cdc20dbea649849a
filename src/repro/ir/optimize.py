"""IR optimisation passes: the loop-level rewrites the Expr tree had no
home for.

The pipeline (in application order) — every pass here changes the IR of
at least one shipped query (``tests/ir/test_ir.py`` pins that; a pass
that finds nothing is deleted, not kept):

* ``fuse-loops`` — merge statements iterating the same map with the same
  filters into one traversal, at every nesting depth (vwap's two full
  scans become one; the SSB lineitem trigger's three ``m6_part`` probes
  inside each ``m5_ddate_orders`` entry become one);
* ``hoist-invariants`` — move loop-invariant lookups/arithmetic (vwap's
  ``0.25 * total`` threshold) and whole invariant assignments out of the
  loops that recompute them;
* ``share-locals`` — within one straight-line scope, evaluate each map
  lookup once and build each key tuple once: a later identical lookup
  reads the first one's temp unless a write to its map or a rebinding of
  a key name intervenes, and a key read more than once goes into a local
  just before its first reader, which every map probe, write (its
  ``get`` and its store or ``pop``), index probe, index subkey and cache
  group key that follows reads (bsp's bid trigger built
  ``(broker_id,)`` twelve times an event).  A guard body sees what
  precedes it but adds nothing after it, so what only an untaken guard
  reads costs nothing; a map loop body sees what is not over its
  binders, and builds a key over them once per iteration.  It adds
  assignments, so its yield is negative, as hoisting's is;
* ``guards`` — the ring's annihilation law at run time: a comparison is a
  0/1 factor, so statements sharing a condition (a guard's, or ``F != 0``
  for an exact-integer lookup local ``F`` every product they write
  carries) move next to each other and run under one test of it, with
  the lookups only they read (vwap tests its threshold once; the
  four-view lineitem row skips three scans and four writes behind
  ``m4_nation_region_supplier[suppkey]``, zero for seven rows in ten).

The lowering emits each update already folded (a constant delta writes
``m[k] += w`` with no temp or guard, a bare value is tested and written
as itself), which is why no constant-folding pass runs.

Every pass reports how many IR nodes it removed
(``ProgramIR.pass_yield``, printed under ``--dump-ir``'s
``== IR passes ==``).  The pipeline walks each body once up front for
the binding counts the passes read, and counts nodes after each pass
that changed it.

Every pass is semantics-preserving *including float bit-identity*: a
rewrite that would reorder additions into a map is only applied when the
map's ring values are provably exact integers
(:func:`repro.compiler.storage.exact_int_maps` — the same proof the
second-order batch plan and the sharding analysis's cross-shard sums
gate on).  A batch accumulator counts as exact when the map it merges
into is: the lowering stages every write to one map in one accumulator.
``guards`` skips a zero product only in an exact map (a float ``0 * nan``
is ``nan``) and moves a statement only past statements writing none of
its maps, so every map sees its writes in order, insertion order
included.

The passes apply to what a batch body adds to the already-optimised
per-event body it wraps in a row loop (``optimize_trigger(batch=True)``):
the statements after the loop, including the second-order
accumulate-then-flush shape — the once-per-batch restate scans are
emitted as single-loop blocks so ``fuse-loops`` merges restatements
scanning the same base map into one traversal, and ``hoist-invariants``
lifts their batch-constant thresholds — and the lift of batch-invariant
work out of the loop, ``hoist-invariants``' only walk into it.  The
loop's body is a per-event body the passes have rewritten already (staging its writes
changes none of what they read; its key locals stay); a pass run there
again could rename a name the lift moved out.  Among the shipped
programs the lift moves something out of mst's bids group loop (an
extremum lookup), psp's group loops and the seven-view finance program's
row loops (psp's scalar lookups) only; warehouse-load's program has nothing
batch-invariant in its row loop.  :class:`~repro.ir.nodes.Clear` (the flush's
zeroing write) is *destructive* — unlike additions it never commutes, even
into exact maps — so the reorder analyses refuse any write-write overlap
involving one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import AbstractSet, NamedTuple, Optional

from repro.compiler.program import CompiledProgram
from repro.compiler.storage import exact_int_maps
from repro.ir.lower import collect_patterns_ir
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
    ForEachGroup,
    ForEachMap,
    ForEachRow,
    IfCond,
    IRExpr,
    IRStmt,
    KeyAt,
    KeyTuple,
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
    binders,
    expr_names,
    expr_slots,
    map_node,
    rename_stmt,
    rewrite_exprs,
    same_nodes,
    stmt_children,
    stmt_exprs,
    walk_stmts,
    with_body,
    written_slots,
)

DEFAULT_PASSES: tuple[str, ...] = (
    "fuse-loops",
    "hoist-invariants",
    "share-locals",
    "guards",
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
        for name in binders(stmt):
            bindings[name] = bindings.get(name, 0) + 1
    return bindings, size


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
        if isinstance(stmt, Accum):
            accumulated.add(stmt.name)
        else:
            bound.update(binders(stmt))
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
        stack = list(stmt_exprs(stmt))
        while stack:
            expr = stack.pop()
            if isinstance(expr, Name):
                used.add(expr.name)
            elif isinstance(expr, Lookup):
                reads.add(expr.slot)
                if expr.key_local:
                    used.add(expr.key_local)
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
    mover: _Effects, blocked_by: list[_Effects], exact: set[Slot]
) -> bool:
    """May a statement move up, past ``blocked_by``, without changing maps?
    Two statements writing one map only swap when it is ``exact``."""
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
    bound = set(binders(loop))
    filtered = {expr.name for _, expr in loop.filters if isinstance(expr, Name)}
    if loop.key_local:
        filtered.add(loop.key_local)
    return _Effects(
        body.applied,
        body.ordered,
        body.destructive,
        body.reads | {loop.slot},
        body.bound | bound,
        (body.free - bound) | filtered,
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
    fused_loop = replace(
        loop_a, binds=tuple(sorted(merged_binds)), body=loop_a.body + renamed_body
    )
    if a is loop_a:
        return fused_loop
    return Block(
        comments=a.comments + b.comments,
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
        return stmts if same_nodes(fused, stmts) else fused
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
                mover = effects_of(j)
                between = [effects_of(k) for k in range(i + 1, j)]
                if not mover.free <= declared or not _may_reorder(
                    mover, between, exact
                ):
                    continue
                out[i] = _fuse_pair(candidate_a, candidate_b, mapping)
                del out[j], effects[j], body_effects[j]
                effects[i] = body_effects[i] = None
                changed = True
                break
            if changed:
                break
    fused = tuple(_fuse_nested(stmt, exact, params) for stmt in out)
    return stmts if same_nodes(fused, stmts) else fused


def _fuse_nested(stmt: IRStmt, exact: set[Slot], params: set[str]) -> IRStmt:
    """``stmt`` with the sequences nested in it fused; the names a loop
    binds are parameters of its body."""
    if isinstance(stmt, ForEachMap):
        inner = params | {stmt.entry_var, *binders(stmt)}
    elif isinstance(stmt, (IfCond, Block)):
        inner = params
    else:
        return stmt
    return map_node(stmt, stmt_fn=lambda body: _fuse_sequence(body, exact, inner))


# ---------------------------------------------------------------------------
# Pass: loop-invariant hoisting
# ---------------------------------------------------------------------------

_HOIST_TYPES = (Prod, Sum, SafeDiv, Lookup, Neg)


def _hoist_stmts(
    stmts: tuple[IRStmt, ...], namer, bindings: dict[str, int]
) -> tuple[IRStmt, ...]:
    def hoist(body: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        return _hoist_stmts(body, namer, bindings)

    out: list[IRStmt] = []
    for stmt in stmts:
        if isinstance(stmt, ForEachMap):
            stmt = map_node(stmt, stmt_fn=hoist)
            prelude, loop = _hoist_from_loop(stmt, namer, bindings)
            out.extend(prelude)
            out.append(loop)
        elif isinstance(stmt, (IfCond, Block)):
            out.append(map_node(stmt, stmt_fn=hoist))
        else:
            out.append(stmt)
    return stmts if same_nodes(out, stmts) else tuple(out)


def _hoist_from_loop(loop: IRStmt, namer, bindings: dict[str, int]):
    """Move loop-invariant work before the loop.  Invariant: no name
    bound inside the loop, no lookup of a map the loop body writes
    (appends excluded — they apply after the loop).

    An assignment of an invariant value to a name bound once moves out
    whole, guards and all (its readers all follow it; a pure value may be
    computed when unused, and ``guards`` moves one only a guard's body
    reads back under that guard) — so a temp an inner loop hoisted
    leaves the outer loop as itself, not as a copy.  Other invariant pure
    subexpressions are extracted into fresh temps."""
    body = stmt_children(loop)
    inner = {*assigned_names(body), *binders(loop)}
    if isinstance(loop, ForEachMap):
        inner.add(loop.entry_var)
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
            elif isinstance(node, Lookup) and (
                node.slot in written or node.key_local in inner
            ):
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
        return map_node(expr, extract)

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
            elif isinstance(stmt, (IfCond, Block)):
                out.append(map_node(stmt, extract, lift))
            else:
                out.append(rewrite_exprs(stmt, extract))
        return tuple(out)

    new_body = lift(body)
    if not moved and not hoisted:
        return (), loop
    prelude = (
        *moved,
        *(Assign(name, expr) for expr, name in hoisted.items()),
    )
    return prelude, with_body(loop, new_body)


# ---------------------------------------------------------------------------
# Pass: shared locals
# ---------------------------------------------------------------------------

#: A key as ``share-locals`` compares it: per column, a name's string or
#: a :class:`Const` (cheap to hash, unlike the expression nodes).
Key = tuple


def _key(keys: tuple[IRExpr, ...]) -> Optional[Key]:
    """``keys`` as a :data:`Key` when a local can save building their
    tuple: names and constants only, at least one name (a constant tuple
    is one already)."""
    out = []
    named = False
    for key in keys:
        if type(key) is Name:
            out.append(key.name)
            named = True
        elif type(key) is Const:
            out.append(key)
        else:
            return None
    return tuple(out) if named else None


def _probe_key(loop: ForEachMap) -> Optional[Key]:
    """The key a map loop probes its index with (its filter expressions
    in position order): every loop binding some positions and filtering
    others on expressions has an index under ``use_indexes``."""
    if not loop.binds or not loop.filters:
        return None
    filters = dict(loop.filters)
    return _key(tuple(filters[pos] for pos in loop.pattern))


def _rebound(names, bindings: dict[str, int]) -> set[str]:
    """The ``names`` bound more than once in the body: only a rebinding
    can change a name after a use (a name bound once is bound before any
    read of it)."""
    return {name for name in names if bindings.get(name, 0) > 1}


class _Sharing:
    """Evaluate each map lookup and build each key tuple once per
    straight-line scope.

    One counting walk, then one forward walk.  The counting walk counts
    each lookup of a map probed more than once, and each key's reads: a
    write reads its key twice (its ``get``, then its store or ``pop``),
    and once each the subkey of every index kept on its map and the group
    key of every cache it keeps; a map probe and an index probe read
    theirs once.  It counts before any renaming below, so a key over a
    renamed name counts under the old name.

    The forward walk keeps ``avail``, the name holding each lookup's
    value and each key's tuple at the current point.  A lookup the body
    repeats is held by the name of a whole ``x = lookup`` that came
    first, or by a fresh temp assigned just before the first statement
    embedding it; a later identical lookup reads that name, and a later
    whole ``y = lookup`` is dropped and ``y`` renamed.  A key read more
    than once goes into a fresh local just before its first reader, and
    every reader that follows (map probe, write, index probe, index
    subkey, cache group key) reads the local.  A statement's lookups are
    shared before its keys, so a temp's key is bound before the temp.

    Scopes: blocks are transparent; a guard body sees what precedes it
    but adds nothing after it, so what only an untaken guard reads costs
    nothing; a map loop body sees the entries not over its binders nor
    over a name bound more than once, and no lookup of a map it writes
    (``hoist-invariants`` has already moved its invariant lookups out),
    so a key over its binders is built once per iteration.  A rebinding
    of a name drops every entry over it, and a write to a map drops the
    lookups of that map.  A temp or local read fewer than twice is put
    back when its scope ends, in a walk of that scope taken only then.
    """

    def __init__(
        self, bindings: dict[str, int], patterns: dict[str, set[tuple[int, ...]]]
    ):
        self.bindings = bindings
        self.namer = _HoistNamer(bindings)
        self.patterns = patterns
        #: Reads of each lookup and each key over the body.
        self.counts: dict = {}
        self.names: dict = {}
        self.renames: dict[str, IRExpr] = {}
        #: The lookup each temp holds, to put it back.
        self.temps: dict[str, Lookup] = {}
        self.uses: dict[str, int] = {}
        #: The temps and key locals bound in the scopes being walked,
        #: innermost last.
        self.bound: list[str] = []

    def run(self, body: tuple[IRStmt, ...]) -> tuple[IRStmt, ...]:
        self.count(body)
        if all(count < 2 for count in self.counts.values()):
            return body
        return self.scope(body, {})[0]

    def count(self, body) -> None:
        counts = self.counts
        lookups: list[Lookup] = []
        probes: dict[str, int] = {}
        stack = list(body)
        while stack:
            stmt = stack.pop()
            kind = type(stmt)
            expr: Optional[IRExpr] = None
            if kind is Assign or kind is Accum:
                expr = stmt.value
            elif kind is IfCond:
                expr = stmt.cond
            elif kind is AddTo or kind is AppendTo:
                expr = stmt.value
                if kind is AddTo:
                    for _, key, reads in self.write_keys(stmt):
                        counts[key] = counts.get(key, 0) + reads
            elif kind is ForEachMap:
                probe = _probe_key(stmt)
                if probe is not None:
                    counts[probe] = counts.get(probe, 0) + 1
            stack.extend(stmt_children(stmt))
            exprs = [expr] if expr is not None else []
            while exprs:
                node = exprs.pop()
                if type(node) is Lookup:
                    lookups.append(node)
                    probes[node.slot.name] = probes.get(node.slot.name, 0) + 1
                    key = _key(node.keys)
                    if key is not None:
                        counts[key] = counts.get(key, 0) + 1
                else:
                    exprs.extend(node.children())
        # Hash only the lookups of maps probed more than once.
        for lookup in lookups:
            if probes[lookup.slot.name] > 1:
                counts[lookup] = counts.get(lookup, 0) + 1

    def write_keys(self, stmt: AddTo) -> list[tuple[tuple[int, ...], Key, int]]:
        """``(positions, key, reads)`` of each key a write reads: the key
        itself, the subkey of each index kept on its map and the group key
        of each cache it keeps (a staged write's accumulator keeps its
        indexes after the loop, and keeps no caches)."""
        key = _key(stmt.keys)
        if key is None:
            return []
        out = [(tuple(range(len(key))), key, 2)]
        if not stmt.acc:
            for pattern in sorted(self.patterns.get(stmt.slot.name, ())):
                out.append((pattern, tuple(key[p] for p in pattern), 1))
            for cache in stmt.caches:
                arity = cache.group_arity
                if arity:
                    out.append((tuple(range(arity)), key[:arity], 1))
        return [entry for entry in out if self.entry_names(entry[1])]

    def entry_names(self, entry) -> frozenset[str]:
        """The names a lookup (over its keys) or a key is over."""
        names = self.names.get(entry)
        if names is None:
            if type(entry) is Lookup:
                names = expr_names(entry)
            else:
                names = frozenset(k for k in entry if type(k) is str)
            self.names[entry] = names
        return names

    def over(self, entry, written, names) -> bool:
        """Whether a write to ``written`` or a rebinding of ``names``
        drops ``entry``."""
        if type(entry) is Lookup and entry.slot in written:
            return True
        return bool(self.entry_names(entry) & names)

    def bind(self, name: str, value: IRExpr, out: list[IRStmt], reads: int):
        self.uses[name] = reads
        self.bound.append(name)
        out.append(Assign(name, value))

    def local(self, key: Key, avail: dict, out: list[IRStmt], reads: int) -> str:
        """The local holding ``key`` for a reader reading it ``reads``
        times, bound into ``out`` first when the body reads the key more
        than once and it is not bound yet (``""``: none)."""
        name = avail.get(key)
        if name is not None:
            self.uses[name] += reads
            return name
        if self.counts.get(key, 0) < 2:
            return ""
        name = self.namer.fresh("key")
        avail[key] = name
        items = tuple(Name(k) if type(k) is str else k for k in key)
        self.bind(name, KeyTuple(items), out, reads)
        return name

    def scope(self, stmts, avail: dict):
        """:meth:`sequence` over a scope's statements: the temps and locals
        it binds that fewer than two reads read are put back once it
        ends."""
        start = len(self.bound)
        out, writes, rebound = self.sequence(stmts, avail)
        unread = {name for name in self.bound[start:] if self.uses[name] < 2}
        del self.bound[start:]
        return (self.put_back(out, unread) if unread else out), writes, rebound

    def sequence(self, stmts, avail: dict):
        """``stmts`` rewritten (themselves when nothing changed), the maps
        they write and the names they rebind."""
        out: list[IRStmt] = []
        writes: set[Slot] = set()
        rebound: set[str] = set()
        for stmt in stmts:
            w, r = self.statement(stmt, avail, out)
            if w or r:
                for entry in [e for e in avail if self.over(e, w, r)]:
                    del avail[entry]
                writes |= w
                rebound |= r
        return (stmts if same_nodes(out, stmts) else tuple(out)), writes, rebound

    def statement(self, stmt: IRStmt, avail: dict, out: list[IRStmt]):
        """Append ``stmt`` rewritten to ``out``, the temps and locals it
        reads bound before it; return the maps it writes and the names it
        rebinds."""

        def shared(e: IRExpr) -> IRExpr:
            return self.shared(e, avail, out)

        def keyed(e: IRExpr) -> IRExpr:
            return self.keyed(e, avail, out)

        kind = type(stmt)
        if kind is Assign or kind is Accum:
            value = stmt.value
            if (
                kind is Assign
                and type(value) is Lookup
                and self.bindings.get(stmt.name, 1) == 1
            ):
                lookup = map_node(value, shared)
                held = avail.get(lookup)
                if held is not None:
                    self.renames[stmt.name] = Name(held)
                    self.read(held)
                    return set(), set()
                if self.counts.get(value, 0) > 1:
                    avail[lookup] = stmt.name
                value = keyed(lookup)
            else:
                value = keyed(shared(value))
            out.append(stmt if value is stmt.value else replace(stmt, value=value))
            return set(), _rebound((stmt.name,), self.bindings)
        if kind is AddTo or kind is AppendTo:
            new = map_node(stmt, shared)
            value = keyed(new.value)
            if kind is AppendTo:
                out.append(new if value is new.value else replace(new, value=value))
                return set(), set()
            key_locals = []
            for positions, key, reads in self.write_keys(new):
                name = self.local(key, avail, out, reads)
                if name:
                    key_locals.append((positions, name))
            if value is not stmt.value or tuple(key_locals) != stmt.key_locals:
                new = replace(new, value=value, key_locals=tuple(key_locals))
            out.append(new)
            return set(applied_slots(new)), set()
        if kind is IfCond:
            stmt = map_node(map_node(stmt, shared), keyed)
            body, writes, rebound = self.scope(stmt.body, dict(avail))
            # A guard whose body was all shared away has nothing left to guard.
            if body:
                out.append(with_body(stmt, body))
            return writes, rebound
        if kind is Block:
            body, writes, rebound = self.sequence(stmt.stmts, avail)
            out.append(with_body(stmt, body))
            return writes, rebound
        if kind is ForEachMap:
            return self.loop(map_node(stmt, shared), avail, out)
        out.append(stmt)
        rebound = _rebound(assigned_names((stmt,)), self.bindings)
        return set(written_slots((stmt,))), rebound

    def loop(self, stmt: ForEachMap, avail: dict, out: list[IRStmt]):
        """:meth:`statement` for a map loop."""
        probe = _probe_key(stmt)
        key_local = self.local(probe, avail, out, 1) if probe is not None else ""
        bound = set(binders(stmt))
        written = written_slots(stmt.body)
        inner = {
            entry: name
            for entry, name in avail.items()
            if not (
                self.over(entry, written, bound)
                or _rebound(self.entry_names(entry), self.bindings)
            )
        }
        body, writes, rebound = self.scope(stmt.body, inner)
        if stmt.key_local != key_local or body is not stmt.body:
            stmt = replace(stmt, body=body, key_local=key_local)
        out.append(stmt)
        return writes, rebound | _rebound(bound, self.bindings)

    def read(self, name: str) -> None:
        if name in self.uses:
            self.uses[name] += 1

    def shared(self, expr: IRExpr, avail: dict, out: list[IRStmt]) -> IRExpr:
        """``expr`` with renamed names read as their holders, and each
        lookup the body repeats read from the name holding it (a fresh
        temp assigned first when none does)."""

        def shared(child: IRExpr) -> IRExpr:
            return self.shared(child, avail, out)

        if isinstance(expr, Name):
            return self.renames.get(expr.name, expr)
        if isinstance(expr, Lookup):
            lookup = map_node(expr, shared)
            if self.counts.get(expr, 0) < 2:
                return lookup
            held = avail.get(lookup)
            if held is None:
                held = self.namer.fresh("l")
                avail[lookup] = held
                self.temps[held] = self.keyed(lookup, avail, out)
                self.bind(held, self.temps[held], out, 1)
            else:
                self.read(held)
            return Name(held)
        return map_node(expr, shared)

    def keyed(self, expr: IRExpr, avail: dict, out: list[IRStmt]) -> IRExpr:
        """``expr`` with each lookup reading the local of its key."""
        if isinstance(expr, Lookup):
            key = _key(expr.keys)
            key_local = self.local(key, avail, out, 1) if key is not None else ""
            if key_local == expr.key_local:
                return expr
            return replace(expr, key_local=key_local)
        return map_node(expr, lambda child: self.keyed(child, avail, out))

    def put_back(self, stmts, unread: set[str]) -> tuple[IRStmt, ...]:
        """``stmts`` without the temps and locals in ``unread``: their one
        reader evaluates the lookup or builds the key itself."""

        def clear(expr: IRExpr) -> IRExpr:
            if isinstance(expr, Name):
                return clear(self.temps[expr.name]) if expr.name in unread else expr
            if isinstance(expr, Lookup) and expr.key_local in unread:
                expr = replace(expr, key_local="")
            return map_node(expr, clear)

        out: list[IRStmt] = []
        for stmt in stmts:
            if isinstance(stmt, Assign) and stmt.name in unread:
                continue
            stmt = map_node(stmt, clear, lambda body: self.put_back(body, unread))
            if isinstance(stmt, AddTo):
                key_locals = tuple(kl for kl in stmt.key_locals if kl[1] not in unread)
                if key_locals != stmt.key_locals:
                    stmt = replace(stmt, key_locals=key_locals)
            elif isinstance(stmt, ForEachMap) and stmt.key_local in unread:
                stmt = replace(stmt, key_local="")
            out.append(stmt)
        return stmts if same_nodes(out, stmts) else tuple(out)


# ---------------------------------------------------------------------------
# Pass: guards
# ---------------------------------------------------------------------------


def _reads(stmt: IRStmt) -> frozenset[str]:
    """The scalar names ``stmt`` itself (not its body) reads."""
    return frozenset().union(*map(expr_names, stmt_exprs(stmt)))


def _nonzero(name: str) -> Compare:
    return Compare("!=", Name(name), Const(0))


def _invalidates_cond(effects, cond: IRExpr) -> bool:
    """Whether statements with ``effects`` may change what ``cond`` is."""
    names, slots = expr_names(cond), expr_slots(cond)
    return any(e.bound & names or e.applied & slots for e in effects)


def _pays(cond: IRExpr, parts) -> bool:
    """Whether a guard on ``cond`` saves ``parts`` a write or test of it in
    a map loop, or two outside one."""
    work = 0
    stack = [(stmt, False) for stmt in parts]
    while stack:
        stmt, looped = stack.pop()
        tests = type(stmt) is IfCond and stmt.cond == cond
        if tests or type(stmt) is AddTo or type(stmt) is AppendTo:
            if looped:
                return True
            work += 1
        if not tests:  # what a test guards, it guards already
            looped = looped or type(stmt) is ForEachMap
            stack.extend((child, looped) for child in stmt_children(stmt))
    return work > 1


class _Region(NamedTuple):
    """The conditions (by number) whose being false makes some statements
    do nothing, outermost first, less those reading a name bound among
    them (``None``: they write nothing), and every name bound among them."""

    conds: Optional[tuple[int, ...]]
    binds: AbstractSet[str]


class _Guards:
    """Test each condition once for all the statements it annihilates.

    A statement whose *condition* is false does nothing: the ``cond`` of
    a guard around all its writes, or ``F != 0`` for a *factor* ``F`` (a
    local bound once to a lookup of an exact-integer map: a float ``0 *
    inf`` is ``nan``) every product it writes carries.  No condition
    leaves a statement binding a name it reads, so none leaves its loop.

    Per sequence, a statement opens a group on the condition the most
    statements share (ties: the outermost, so a guard chain keeps its
    order); each later one with it moves up past what it commutes with
    (:func:`_may_reorder`), taking along a key local it reads that a
    statement between binds (:meth:`members`), and the group goes under
    one guard if that saves work (:func:`_pays`) and no member changes
    what the condition reads (a factor is bound once).  IR conditions are
    pure and cannot fail on admitted values, so one may be tested
    earlier, or once before an empty loop.  A block's leading assignments
    binding the condition's names stay before the guard, those before it
    only its body reads move in, and its body is walked again knowing the
    condition true (a test of it there goes), so guards nest.  Only a
    factor's condition, one two guards test or one that may leave a loop
    can pay (*open*): statements holding none are left as they are.
    """

    def __init__(self, body, exact: set[Slot], bindings: dict[str, int]):
        self.body = body
        self.exact = exact
        self.bindings = bindings
        #: The value of each local bound once, and those that are factors.
        self.defs: dict[str, IRExpr] = {}
        self.factors: set[str] = set()
        #: Each condition's number (conditions hash slowly); by number, it,
        #: its names, its tests, the open ones, and those in loops surveyed.
        self.numbers: dict[IRExpr, int] = {}
        self.conds: list[IRExpr] = []
        self.names: list[frozenset[str]] = []
        self.tests: Counter = Counter()
        self.open: set[int] = set()
        self.looped: list[int] = []
        self.survey(body)
        self.open.update(self.number(_nonzero(name)) for name in self.factors)
        self.open.update(cond for cond, tests in self.tests.items() if tests > 1)
        self.zero_memo: dict[str, frozenset[str]] = {}
        #: Per statement (by id): ``[stmt, region, effects, busy]``.
        self.memo: dict[int, list] = {}
        self.reads: Optional[Counter] = None

    def run(self) -> tuple[IRStmt, ...]:
        return self.sequence(self.body, frozenset()) if self.open else self.body

    def number(self, cond: IRExpr) -> int:
        number = self.numbers.setdefault(cond, len(self.conds))
        if number == len(self.conds):
            self.conds.append(cond)
            self.names.append(expr_names(cond))
        return number

    def survey(self, stmts) -> None:
        """Note the locals ``stmts`` bind, their guards' conditions and
        those reading no name the loop around them binds."""
        for stmt in stmts:
            kind = type(stmt)
            if kind is Assign and self.bindings.get(stmt.name, 1) == 1:
                self.defs[stmt.name] = stmt.value
                if type(stmt.value) is Lookup and stmt.value.slot in self.exact:
                    self.factors.add(stmt.name)
            elif kind is IfCond:
                self.tests[self.number(stmt.cond)] += 1
                self.looped.append(self.number(stmt.cond))
            if kind is ForEachMap:
                start = len(self.looped)
                self.survey(stmt.body)
                bound = {*assigned_names(stmt.body), stmt.entry_var, *binders(stmt)}
                for cond in self.looped[start:]:
                    if not self.names[cond] & bound:
                        self.open.add(cond)
                del self.looped[start:]
            else:
                self.survey(stmt_children(stmt))

    def zeros(self, expr: IRExpr) -> frozenset[str]:
        """The locals whose being 0 makes ``expr`` 0: a name, those of the
        value it is bound to, and a product's factors'."""
        kind = type(expr)
        if kind is Name:
            found = self.zero_memo.get(expr.name)
            if found is None:
                found = frozenset((expr.name,))
                value = self.defs.get(expr.name)
                if value is not None:
                    found |= self.zeros(value)
                self.zero_memo[expr.name] = found
            return found
        if kind is Prod:
            return frozenset().union(*map(self.zeros, expr.factors))
        if kind is Neg:
            return self.zeros(expr.body)
        return frozenset()

    def held(self, stmt: IRStmt) -> list:
        held = self.memo.get(id(stmt))  # holding ``stmt`` keeps its id
        if held is None:
            held = self.memo[id(stmt)] = [stmt, None, None, None]
        return held

    def region(self, stmt: IRStmt) -> _Region:
        """The :class:`_Region` of ``stmt``, from its children's."""
        held = self.held(stmt)
        if held[1] is not None:
            return held[1]
        kind = type(stmt)
        if kind is AddTo or kind is AppendTo:
            conds: tuple[int, ...] = ()
            if (stmt.slot if kind is AddTo else stmt.target) in self.exact:
                zeros = sorted(self.zeros(stmt.value) & self.factors)
                conds = tuple(self.number(_nonzero(name)) for name in zeros)
            region = _Region(conds, frozenset())
        elif kind is Assign:
            region = _Region(None, {stmt.name})
        elif kind is IfCond or kind is Block or kind is ForEachMap:
            own = (stmt.entry_var, *binders(stmt)) if kind is ForEachMap else ()
            region = self.joined(stmt_children(stmt), set(own))
            if kind is IfCond and region.conds is not None:
                cond = self.number(stmt.cond)
                inner = (other for other in region.conds if other != cond)
                conds = (*self.free((cond,), region.binds), *inner)
                region = _Region(conds, region.binds)
        else:
            region = _Region((), set(binders(stmt)))
        held[1] = region
        return region

    def joined(self, stmts, bound: set[str]) -> _Region:
        """The region of ``stmts`` run in order; ``bound`` takes their names."""
        conds: Optional[tuple[int, ...]] = None
        for stmt in stmts:
            region = self.region(stmt)
            if region.conds is not None:
                if conds is None:
                    conds = region.conds
                elif conds:
                    conds = tuple(cond for cond in conds if cond in region.conds)
            bound.update(region.binds)
        return _Region(conds and self.free(conds, bound), bound)

    def free(self, conds, bound: AbstractSet[str]) -> tuple[int, ...]:
        return tuple(cond for cond in conds if not self.names[cond] & bound)

    def busy(self, stmt: IRStmt) -> bool:
        """Whether ``stmt`` holds a write with a factor or a guard on an
        open condition."""
        held = self.held(stmt)
        if held[3] is None:
            kind = type(stmt)
            if kind is AddTo or kind is AppendTo:
                held[3] = bool(self.region(stmt).conds)
            else:
                held[3] = kind is IfCond and self.number(stmt.cond) in self.open
                if not held[3]:
                    held[3] = any(map(self.busy, stmt_children(stmt)))
        return held[3]

    def effects(self, stmt: IRStmt) -> _Effects:
        held = self.held(stmt)
        held[2] = held[2] or _effects((stmt,))
        return held[2]

    def reads_in(self, stmts) -> Counter:
        """How many of ``stmts`` read each local bound once."""
        defs = self.defs.keys()
        return Counter([name for stmt in stmts for name in defs & _reads(stmt)])

    def sequence(self, stmts, guarded: frozenset[int]) -> tuple[IRStmt, ...]:
        """``stmts`` with their groups guarded, at every depth; ``guarded``
        are the conditions the enclosing guards know true."""
        rest = list(stmts)
        out: list[IRStmt] = []
        while rest:
            first = rest[0]
            if not self.busy(first):
                out.append(rest.pop(0))
                continue
            if type(first) is IfCond and self.number(first.cond) in guarded:
                rest[:1] = first.body  # a test the enclosing guard made
                continue
            found = self.group(rest, guarded)
            if found is None:
                rest.pop(0)
                out.append(
                    map_node(first, stmt_fn=lambda body: self.sequence(body, guarded))
                )
                continue
            cond, split, prefix, parts, taken, inside = found
            for j in sorted(split):
                out.extend(split[j][0])
            out.extend(prefix)
            self.reads.update(self.names[cond] & self.defs.keys())  # the test
            sunk = self.sink(out, inside)
            if prefix:  # the block's own assignments stay under its comments
                parts[0] = with_body(parts[0], (*sunk, *parts[0].stmts))
            else:
                parts[:0] = sunk
            body = self.sequence(tuple(parts), guarded | {cond})
            out.append(IfCond(self.conds[cond], body))
            rest = [
                split[j][1] if j in split else stmt
                for j, stmt in enumerate(rest)
                if j not in taken and (j not in split or split[j][1] is not None)
            ]
        return stmts if same_nodes(out, stmts) else tuple(out)

    def group(self, rest: list[IRStmt], guarded: frozenset[int]):
        """The group ``rest[0]`` opens: ``(cond, split, prefix, parts,
        positions, reads)`` — the key bindings that move up before the
        guard, by the position they leave (:meth:`members`), the
        assignments of ``rest[0]``'s block left before it, the statements
        under it, their positions in ``rest`` and what they read."""
        first = rest[0]
        conds = self.region(first).conds
        options = dict.fromkeys(conds or (), 0)  # each with its prefix's length
        if type(first) is Block and conds is not None:
            split = 0
            while type(first.stmts[split]) is Assign:
                split += 1
            for cond in self.joined(first.stmts[split:], set()).conds or ():
                options.setdefault(cond, split)
        shared = dict.fromkeys(
            (c for c in options if c in self.open and c not in guarded), 0
        )
        for stmt in rest[1:]:
            if self.busy(stmt):
                for cond in self.region(stmt).conds or ():
                    if cond in shared:
                        shared[cond] += 1
        for cond in sorted(shared, key=lambda cond: -shared[cond]):
            split = options[cond]
            core = first.stmts[split:] if split else (first,)
            if not shared[cond] and not _pays(self.conds[cond], core):
                continue  # a guard around one write only adds a test
            prefix = ()
            if split:
                prefix, core = first.stmts[:split], (with_body(first, core),)
            found = self.members(rest, cond, core[0])
            if found is not None:
                taken, inside, split = found
                parts = [core[0], *(rest[j] for j in taken[1:])]
                return cond, split, prefix, parts, set(taken), inside
        return None

    def members(self, rest: list[IRStmt], cond: int, core: IRStmt):
        """The positions in ``rest`` of the statements that join ``core``
        under a guard on ``cond`` (moving up past those that stay, binding
        no name read outside), what they read, and ``{position: (moved,
        left)}`` for the statements some key binding moves out of, or
        ``None``.

        A member reading a key local (a tuple of names nothing in the
        body binds, which ``share-locals`` binds before its first reader)
        takes its binding along past a statement that is, or whose block
        leads with, that binding: the binding goes before the guard, and
        ``left`` is what remains (``None``: nothing)."""
        if self.reads is None:
            self.reads = self.reads_in(walk_stmts(self.body))
        candidates = [
            j
            for j in range(1, len(rest))
            if self.busy(rest[j]) and cond in (self.region(rest[j]).conds or ())
        ]
        while True:
            taken, passed, split = [0], {}, {}
            for j in range(1, candidates[-1] + 1 if candidates else 1):
                mover = self.effects(rest[j])
                if j in candidates:
                    splits = {}
                    for k, other in passed.items():
                        if _may_reorder(mover, [other], set()):
                            continue
                        moved, stmt = split.get(k, ((), rest[k]))
                        found = self.unkeyed(stmt, mover.free)
                        if found is None:
                            break
                        left = found[1]
                        if left is not None and not _may_reorder(
                            mover, [self.effects(left)], set()
                        ):
                            break
                        splits[k] = ((*moved, *found[0]), left)
                    else:
                        for k, (_, left) in splits.items():
                            if left is None:
                                del passed[k]
                            else:
                                passed[k] = self.effects(left)
                        split.update(splits)
                        taken.append(j)
                        continue
                passed[j] = mover
            parts = [core, *(rest[j] for j in taken[1:])]
            walks = [walk_stmts((part,)) for part in parts]
            inside = self.reads_in(stmt for walk in walks for stmt in walk)
            leaks = [
                j
                for j, walk in zip(taken, walks)
                if any(
                    stmt.name not in self.defs
                    or inside[stmt.name] != self.reads[stmt.name]
                    for stmt in walk
                    if type(stmt) is Assign
                )
            ]
            if not leaks:
                test, effects = self.conds[cond], map(self.effects, parts)
                if _pays(test, parts) and not _invalidates_cond(effects, test):
                    return taken, inside, split
                return None
            if leaks[0] == 0:
                return None
            candidates = [j for j in candidates if j not in leaks]

    def unkeyed(self, stmt: IRStmt, names):
        """``(moved, left)``: the bindings of keys among ``names`` that
        ``stmt`` is or leads its block with, and what is left of it
        (``None``: nothing); ``None`` when it binds no such key."""
        if type(stmt) is not Block:
            return ((stmt,), None) if self.key_of(stmt, names) else None
        lead = 0
        while lead < len(stmt.stmts) and type(stmt.stmts[lead]) is Assign:
            lead += 1
        keys = {i for i in range(lead) if self.key_of(stmt.stmts[i], names)}
        if not keys:
            return None
        moved = tuple(stmt.stmts[i] for i in sorted(keys))
        left = tuple(s for i, s in enumerate(stmt.stmts) if i not in keys)
        return moved, with_body(stmt, left)

    def key_of(self, stmt: IRStmt, names) -> bool:
        """Whether ``stmt`` is the one binding of one of ``names``, to a
        key tuple of names nothing in the body binds."""
        return (
            type(stmt) is Assign
            and stmt.name in names
            and stmt.name in self.defs
            and type(stmt.value) is KeyTuple
            and not any(self.bindings.get(name) for name in expr_names(stmt.value))
        )

    def sink(self, out: list[IRStmt], inside: Counter) -> list[IRStmt]:
        """The assignments ending ``out`` that only a guard reading
        ``inside`` reads, taken out of ``out``, in order."""
        sunk: list[IRStmt] = []
        at = len(out)
        while at and type(out[at - 1]) is Assign:
            at -= 1
            name = out[at].name
            if name in self.defs and 0 < self.reads[name] == inside[name]:
                stmt = out.pop(at)
                inside.update(_reads(stmt))
                sunk.insert(0, stmt)
        return sunk


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class _HoistNamer:
    """Fresh names for temps a pass adds, disjoint from existing locals and
    numbered per prefix.

    Batch bodies embed already-hoisted per-event blocks, so new temps
    must avoid every name the body assigns anywhere.
    """

    def __init__(self, reserved=()) -> None:
        self._counters: dict[str, int] = {}
        self._reserved = set(reserved)

    def fresh(self, prefix: str) -> str:
        while True:
            count = self._counters[prefix] = self._counters.get(prefix, 0) + 1
            name = f"__{prefix}{count}"
            if name not in self._reserved:
                self._reserved.add(name)
                return name


def optimize_trigger(
    trigger_ir: TriggerIR,
    passes: tuple[str, ...],
    exact: frozenset[str],
    removed: Optional[dict[str, int]] = None,
    patterns: Optional[dict[str, set[tuple[int, ...]]]] = None,
    batch: bool = False,
) -> TriggerIR:
    """Run ``passes`` (in pipeline order) over one trigger body, adding
    each pass's removed-node count to ``removed``.  ``patterns`` are the
    program's index access patterns (:func:`repro.ir.lower
    .collect_patterns_ir`), whose subkeys a write keeps.

    A ``batch`` body wraps a per-event body the passes have rewritten
    already in its row loop (:func:`repro.ir.lower.lower_trigger_batch`):
    they run over what the batch adds after the loop (its merges and
    restatements), and hoisting lifts what is invariant over the batch
    out of the loop; the loop body itself is left as it is."""
    body = trigger_ir.body
    bindings, size = _scan(body)
    exact_slots = {Slot(name) for name in exact}
    namer = _HoistNamer(bindings)
    params = set(trigger_ir.params)
    rows = [i for i, s in enumerate(body) if isinstance(s, (ForEachRow, ForEachGroup))]
    at, loop = (rows[0], body[rows[0]]) if batch and rows else (0, None)
    params |= assigned_names(body[:at])
    for name in DEFAULT_PASSES:
        if name not in passes:
            continue
        before = body
        tail = body if loop is None else body[at + 1 :]
        prelude = ()
        if name == "fuse-loops":
            new = _fuse_sequence(tail, exact_slots, params)
        elif name == "hoist-invariants":
            if loop is not None:
                prelude, loop = _hoist_from_loop(loop, namer, bindings)
            new = _hoist_stmts(tail, namer, bindings)
        elif name == "share-locals":
            new = _Sharing(bindings, patterns or {}).run(tail)
        else:
            new = _Guards(tail, exact_slots, bindings).run()
        if loop is None:
            body = new
        elif prelude or new is not tail:
            body = (*body[:at], *prelude, loop, *new)
            at += len(prelude)
        # A pass that changes nothing returns the body itself.
        after = size if body is before else len(walk_stmts(body))
        if removed is not None:
            removed[name] = removed.get(name, 0) + size - after
        size = after
    return TriggerIR(trigger_ir.relation, trigger_ir.name, trigger_ir.params, body)


def optimize_program(
    ir: ProgramIR,
    program: CompiledProgram,
    passes: tuple[str, ...],
    batch_only: bool = False,
    patterns: Optional[dict[str, set[tuple[int, ...]]]] = None,
) -> ProgramIR:
    """Run the pass pipeline over every trigger body.

    ``batch_only`` runs the pipeline over the batch variants only (they
    are derived after the per-event bodies have been optimised), over
    what each adds to the body it wraps (:func:`optimize_trigger`).  The
    nodes each pass removes accumulate in ``ir.pass_yield``.  A body held
    under two keys (a batch row body that is its per-event body) is
    optimised once, and its yield counts for each body derived from it.
    ``patterns`` are the program's index access patterns, whose subkeys
    ``share-locals`` shares (those of the bodies given by default).
    """
    exact = exact_int_maps(program)
    removed = ir.pass_yield
    for name in passes:
        removed.setdefault(name, 0)
    done: dict[int, tuple[TriggerIR, dict[str, int]]] = {}
    if patterns is None and "share-locals" in passes:
        bodies = (*ir.triggers.values(), *ir.batch_triggers.values())
        patterns = collect_patterns_ir({id(t): t for t in bodies}.values())

    def run(trigger_ir: TriggerIR) -> TriggerIR:
        if id(trigger_ir) not in done:
            own: dict[str, int] = {}
            optimised = optimize_trigger(
                trigger_ir, passes, exact, own, patterns, batch_only
            )
            done[id(trigger_ir)] = optimised, own
        optimised, own = done[id(trigger_ir)]
        for name, count in own.items():
            removed[name] += count
        return optimised

    if not batch_only:
        ir.triggers = {key: run(trigger_ir) for key, trigger_ir in ir.triggers.items()}
    ir.batch_triggers = {
        key: run(trigger_ir) for key, trigger_ir in ir.batch_triggers.items()
    }
    ir.passes = passes
    return ir
