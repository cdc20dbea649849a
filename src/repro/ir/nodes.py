"""Typed nodes of the imperative trigger IR.

The IR sits between the compiled delta program (``Statement``/``Expr``
trees, see :mod:`repro.compiler.program`) and the execution back ends.  It
is the loop-level language both back ends share: :mod:`repro.codegen
.pygen` renders it to Python and the interpreted executor
(:mod:`repro.ir.interp`) walks it directly.  Real
DBToaster lowers through the analogous M3 language; DBSP separates its
circuit IR from execution the same way.

Two small expression and statement grammars:

* **Scalar expressions** — :class:`Const`, :class:`Name`, :class:`Sum`,
  :class:`Prod`, :class:`Neg`, :class:`SafeDiv`, :class:`Compare`,
  :class:`Lookup` (map lookup with a default — the ``LookupDefault`` of
  the issue), and :class:`KeyAt` (a position of the enclosing loop's key
  tuple, used only in loop filters).

* **Statements** — :class:`Assign`, :class:`Accum`, :class:`IfCond`,
  :class:`ForEachMap`, :class:`ForEachRow` (batch row loop),
  :class:`AddTo` (``map[key] += value`` with zero eviction),
  :class:`AppendTo`/:class:`FlushBuffer` (the two-phase pending buffer),
  :class:`LocalMapDecl`/:class:`MergeInto` (batch accumulators),
  :class:`BufferDecl`, :class:`Clear`, :class:`Finalize` (rebuild a
  MIN/MAX/DISTINCT cache) and :class:`Block` (one compiled statement's
  lowering, carrying its provenance for comments, tracing and profiling).
  ``AddTo`` and ``FlushBuffer`` carry the :class:`Cache` entries kept
  from their map: a key whose multiplicity crosses zero updates them.

Expressions are immutable and hashable (structural equality drives the
optimiser's fusion/hoisting); statements are immutable tuples of children, so
passes rebuild rather than mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Value = Union[int, float, str]

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: The local a batch trigger receives its weight column in (one +1/-1
#: per row, beside the event columns): see :class:`ForEachRow`.
WEIGHTS = "__ws"


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


class IRExpr:
    """Base class of IR scalar expressions."""

    __slots__ = ()

    def children(self) -> tuple["IRExpr", ...]:
        return ()


@dataclass(frozen=True, slots=True)
class Const(IRExpr):
    """A literal (number, or string used as a key value)."""

    value: Value

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Name(IRExpr):
    """A reference to a bound scalar variable (param, loop var or temp)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Sum(IRExpr):
    """N-ary addition, evaluated left to right."""

    terms: tuple[IRExpr, ...]

    def children(self) -> tuple[IRExpr, ...]:
        return self.terms


@dataclass(frozen=True, slots=True)
class Prod(IRExpr):
    """N-ary multiplication, evaluated left to right."""

    factors: tuple[IRExpr, ...]

    def children(self) -> tuple[IRExpr, ...]:
        return self.factors


@dataclass(frozen=True, slots=True)
class Neg(IRExpr):
    """Arithmetic negation."""

    body: IRExpr

    def children(self) -> tuple[IRExpr, ...]:
        return (self.body,)


@dataclass(frozen=True, slots=True)
class SafeDiv(IRExpr):
    """Division with the calculus convention ``x / 0 == 0``."""

    left: IRExpr
    right: IRExpr

    def children(self) -> tuple[IRExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Compare(IRExpr):
    """A comparison; as a value it is 1/0, as a condition it guards."""

    op: str
    left: IRExpr
    right: IRExpr

    def children(self) -> tuple[IRExpr, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Slot:
    """A program map storage reference."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Lookup(IRExpr):
    """``map.get((keys...), default)`` — the LookupDefault atom."""

    slot: Slot
    keys: tuple[IRExpr, ...]
    default: Value = 0

    def children(self) -> tuple[IRExpr, ...]:
        return self.keys


@dataclass(frozen=True, slots=True)
class KeyAt(IRExpr):
    """Position ``pos`` of the enclosing :class:`ForEachMap` entry key.

    Only valid inside a loop's ``filters``: it expresses the repeated-
    variable filter ``key[j] == key[i]`` without binding a name first.
    """

    pos: int


def compare_values(op: str, left, right) -> bool:
    """Evaluate a :class:`Compare` operator on two run-time values."""
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class IRStmt:
    """Base class of IR statements."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Assign(IRStmt):
    """``name = expr`` (binds or rebinds a scalar local)."""

    name: str
    value: IRExpr


@dataclass(frozen=True, slots=True)
class Accum(IRStmt):
    """``name += expr`` (scalar accumulator update)."""

    name: str
    value: IRExpr


@dataclass(frozen=True, slots=True)
class IfCond(IRStmt):
    """Guard: run ``body`` when ``cond`` is non-zero / true."""

    cond: IRExpr
    body: tuple[IRStmt, ...]


@dataclass(frozen=True, slots=True)
class ForEachMap(IRStmt):
    """Iterate a map's entries, filtering and binding key positions.

    ``entry_var``/``value_var`` name the key tuple and ring value of the
    current entry; ``binds`` assigns key positions to scalar names;
    ``filters`` keep only entries whose position equals the filter
    expression.  The sorted filter positions are the access pattern a
    backend may serve from a secondary index.
    """

    slot: Slot
    entry_var: str
    value_var: str
    binds: tuple[tuple[int, str], ...]
    filters: tuple[tuple[int, IRExpr], ...]
    body: tuple[IRStmt, ...]

    @property
    def pattern(self) -> tuple[int, ...]:
        return tuple(sorted(pos for pos, _ in self.filters))


@dataclass(frozen=True, slots=True)
class ForEachRow(IRStmt):
    """Batch row loop over a columnar batch: ``params[0]`` takes each
    row's weight from the batch's weight column (:data:`WEIGHTS`), the
    rest of ``params`` its event values from the columns of ``rows_var``."""

    rows_var: str
    params: tuple[str, ...]
    body: tuple[IRStmt, ...]


@dataclass(frozen=True, slots=True)
class Cache:
    """A MIN/MAX/DISTINCT cache kept from the occurrence map a write
    applies to.

    The occurrence map is keyed ``(group..., value) → multiplicity``
    (``group_arity`` group positions); ``slot`` holds, per group, the
    smallest or largest live value (``kind`` ``"min"`` / ``"max"``) or
    the number of live values (``"distinct"``).  A write whose key moves
    between zero and non-zero multiplicity updates it right there: an
    entering value may become the extremum, a leaving extremum makes the
    group rescan the occurrence map, a distinct count steps by one.
    Every write sees its own pre-value, so writes in sequence keep the
    cache exact.
    """

    slot: Slot
    kind: str  # "min" | "max" | "distinct"
    group_arity: int


@dataclass(frozen=True, slots=True)
class AddTo(IRStmt):
    """``slot[(keys...)] += value``, entries reaching zero removed — the
    canonical GMR update all backends must implement the same way.
    ``caches`` are kept from ``slot``.

    With ``acc`` the write is staged in that batch accumulator (declared
    by :class:`LocalMapDecl`, flushed by :class:`MergeInto`; never for a
    map keeping caches), which holds the current value of each key the
    batch moved since its last flush.  A key reaching zero flushes it and
    leaves ``slot`` at that row, as per event: insertion order holds.
    """

    slot: Slot
    keys: tuple[IRExpr, ...]
    value: IRExpr
    caches: tuple[Cache, ...] = ()
    acc: str = ""


@dataclass(frozen=True, slots=True)
class AppendTo(IRStmt):
    """Append ``((keys...), value)`` to a pending two-phase buffer.

    ``target`` names the map the buffer will eventually flush into — the
    optimiser's ordering analyses need it (append order becomes the
    apply order).
    """

    buffer: str
    keys: tuple[IRExpr, ...]
    value: IRExpr
    target: Slot = Slot("")


@dataclass(frozen=True, slots=True)
class BufferDecl(IRStmt):
    """Declare an empty pending buffer (an ordered update list)."""

    name: str


@dataclass(frozen=True, slots=True)
class FlushBuffer(IRStmt):
    """Apply a pending buffer's updates to ``target`` in append order,
    keeping ``caches`` current."""

    name: str
    target: Slot
    caches: tuple[Cache, ...] = ()


@dataclass(frozen=True, slots=True)
class LocalMapDecl(IRStmt):
    """Declare an empty trigger-local accumulator map.

    ``arity`` is the key width of the map it will merge into (typed
    backends need it to declare the accumulator's key type).
    """

    name: str
    arity: int = 0


@dataclass(frozen=True, slots=True)
class MergeInto(IRStmt):
    """Store every value staged in the batch accumulator ``acc`` into
    ``target`` (see :class:`AddTo`): a key already there keeps its place,
    a new one is appended in staging order."""

    target: Slot
    acc: str


@dataclass(frozen=True, slots=True)
class Clear(IRStmt):
    """Remove every entry of a map."""

    target: Slot


@dataclass(frozen=True, slots=True)
class Finalize(IRStmt):
    """Rebuild a MIN/MAX/DISTINCT cache from its occurrence source.

    ``source`` is an occurrence map keyed ``(group..., value)`` →
    multiplicity; ``target`` is the cache keyed ``(group...)`` (see
    :class:`Cache`).  The target is cleared and recomputed from a full
    scan of the source: the second-order restate path, which clears the
    source and re-derives it without crossing writes.  Every other write
    keeps the cache current itself.
    """

    target: Slot
    source: Slot
    kind: str  # "min" | "max" | "distinct"
    group_arity: int


@dataclass(frozen=True, slots=True)
class Block(IRStmt):
    """The lowering of one (or, after fusion, several) compiled statements.

    ``comments`` carry the source statements' reprs into generated code;
    ``targets`` name the maps the source statements maintain (profiler
    attribution); ``sources`` keep the originating
    :class:`~repro.compiler.program.Statement` objects for the debugger.
    """

    comments: tuple[str, ...]
    targets: tuple[str, ...]
    stmts: tuple[IRStmt, ...]
    sources: tuple = field(default=(), compare=False)


# ---------------------------------------------------------------------------
# Program containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MapDecl(IRStmt):
    """One maintained map: name, key arity, provenance and storage.

    ``storage`` is the compiler's storage-plan label for the map
    (``dict`` or ``columnar[int|float|object]``, see
    :mod:`repro.compiler.storage`) — the type proof, i.e. what the map
    packs as where the engine's layout packs it — stamped here so every
    IR dump carries it.
    """

    name: str
    arity: int
    keys: tuple[str, ...]
    role: str
    defn: str  # repr of the defining calculus query
    storage: str = "dict"


@dataclass
class TriggerIR:
    """The imperative body of one relation's trigger (per-event or
    batch); ``params`` are the per-event arguments, weight first."""

    relation: str
    name: str
    params: tuple[str, ...]
    body: tuple[IRStmt, ...]


@dataclass
class ProgramIR:
    """The lowered program: map declarations plus per-event and batch
    trigger bodies, with the optimisation pass list that produced them.

    ``batch_sinks`` records, per trigger, the batch sink chosen for every
    compiled statement (``direct`` / ``buffered`` / ``accumulator`` /
    ``second-order`` / ``per-row``) — the ``--dump-ir`` and benchmark
    coverage report of the batch-path rewriting; ``event_sinks`` the same
    for the per-event bodies (``direct`` / ``buffered`` / ``accumulator``:
    a scalar local summed over the statement's loop, written once after
    the last statement).  ``pass_yield`` counts,
    per pass, the statement nodes it removed over every trigger body
    (negative for a pass that adds temps)."""

    maps: dict[str, MapDecl]
    triggers: dict[tuple[str, int], TriggerIR]
    batch_triggers: dict[tuple[str, int], TriggerIR]
    passes: tuple[str, ...] = ()
    batch_sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = field(
        default_factory=dict
    )
    event_sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = field(
        default_factory=dict
    )
    pass_yield: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Traversal helpers shared by the optimiser, renderers and interpreter
# ---------------------------------------------------------------------------


def expr_names(expr: IRExpr) -> frozenset[str]:
    """Every scalar variable name referenced in ``expr``."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.name)
        stack.extend(node.children())
    return frozenset(names)


def expr_slots(expr: IRExpr) -> frozenset[Slot]:
    """Every map slot ``expr`` reads (through :class:`Lookup`)."""
    slots: set[Slot] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Lookup):
            slots.add(node.slot)
        stack.extend(node.children())
    return frozenset(slots)


def stmt_children(stmt: IRStmt) -> tuple[IRStmt, ...]:
    """Nested statements of ``stmt`` (one level)."""
    if isinstance(stmt, (IfCond, ForEachMap, ForEachRow)):
        return stmt.body
    if isinstance(stmt, Block):
        return stmt.stmts
    return ()


def stmt_exprs(stmt: IRStmt) -> tuple[IRExpr, ...]:
    """The scalar expressions evaluated directly by ``stmt``."""
    if isinstance(stmt, (Assign, Accum)):
        return (stmt.value,)
    if isinstance(stmt, IfCond):
        return (stmt.cond,)
    if isinstance(stmt, ForEachMap):
        return tuple(expr for _, expr in stmt.filters)
    if isinstance(stmt, (AddTo, AppendTo)):
        return stmt.keys + (stmt.value,)
    return ()


def walk_stmts(stmts) -> "list[IRStmt]":
    """Flatten a statement tree, pre-order."""
    out: list[IRStmt] = []
    stack = list(reversed(list(stmts)))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        stack.extend(reversed(stmt_children(stmt)))
    return out


def applied_slots(stmt: IRStmt) -> tuple[Slot, ...]:
    """The maps one statement (not its children) changes: a write's
    target and the caches it keeps, a clear's or rebuild's target.  A
    pending-buffer append changes none: its map is untouched until the
    flush."""
    if isinstance(stmt, AddTo):
        return (stmt.slot, *(cache.slot for cache in stmt.caches))
    if isinstance(stmt, FlushBuffer):
        return (stmt.target, *(cache.slot for cache in stmt.caches))
    if isinstance(stmt, (MergeInto, Clear, Finalize)):
        return (stmt.target,)
    return ()


def written_slots(stmts) -> frozenset[Slot]:
    """Every slot the statements change (:func:`applied_slots`)."""
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        out.update(applied_slots(stmt))
    return frozenset(out)


def read_slots(stmts) -> frozenset[Slot]:
    """Every slot the statements read (lookups, loops and merges)."""
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, ForEachMap):
            out.add(stmt.slot)
        elif isinstance(stmt, Finalize):
            out.add(stmt.source)
        for expr in stmt_exprs(stmt):
            out.update(expr_slots(expr))
    return frozenset(out)


def assigned_names(stmts) -> frozenset[str]:
    """Every scalar name bound anywhere in the statements."""
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, (Assign, Accum)):
            out.add(stmt.name)
        elif isinstance(stmt, ForEachMap):
            out.add(stmt.value_var)
            out.update(name for _, name in stmt.binds)
        elif isinstance(stmt, ForEachRow):
            out.update(stmt.params)
    return frozenset(out)


def used_names(stmts) -> frozenset[str]:
    """Every scalar name read by any expression in the statements."""
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        for expr in stmt_exprs(stmt):
            out.update(expr_names(expr))
    return frozenset(out)


def rewrite_exprs(stmt: IRStmt, fn) -> IRStmt:
    """Rebuild ``stmt`` (recursively) with ``fn`` applied to each expr; a
    simple statement whose expressions ``fn`` returns as they are is kept
    as it is."""
    if isinstance(stmt, (Assign, Accum)):
        value = fn(stmt.value)
        return stmt if value is stmt.value else type(stmt)(stmt.name, value)
    if isinstance(stmt, IfCond):
        return IfCond(fn(stmt.cond), tuple(rewrite_exprs(s, fn) for s in stmt.body))
    if isinstance(stmt, ForEachMap):
        return ForEachMap(
            stmt.slot,
            stmt.entry_var,
            stmt.value_var,
            stmt.binds,
            tuple((pos, fn(expr)) for pos, expr in stmt.filters),
            tuple(rewrite_exprs(s, fn) for s in stmt.body),
        )
    if isinstance(stmt, ForEachRow):
        return ForEachRow(
            stmt.rows_var,
            stmt.params,
            tuple(rewrite_exprs(s, fn) for s in stmt.body),
        )
    if isinstance(stmt, (AddTo, AppendTo)):
        keys = tuple(fn(k) for k in stmt.keys)
        value = fn(stmt.value)
        if value is stmt.value and all(a is b for a, b in zip(keys, stmt.keys)):
            return stmt
        if isinstance(stmt, AddTo):
            return AddTo(stmt.slot, keys, value, stmt.caches, stmt.acc)
        return AppendTo(stmt.buffer, keys, value, stmt.target)
    if isinstance(stmt, Block):
        return Block(
            stmt.comments,
            stmt.targets,
            tuple(rewrite_exprs(s, fn) for s in stmt.stmts),
            stmt.sources,
        )
    return stmt


def substitute_names(expr: IRExpr, mapping: dict[str, str]) -> IRExpr:
    """Rename variable references in ``expr``."""
    if not mapping:
        return expr
    if isinstance(expr, Name):
        return Name(mapping.get(expr.name, expr.name))
    if isinstance(expr, Sum):
        return Sum(tuple(substitute_names(t, mapping) for t in expr.terms))
    if isinstance(expr, Prod):
        return Prod(tuple(substitute_names(f, mapping) for f in expr.factors))
    if isinstance(expr, Neg):
        return Neg(substitute_names(expr.body, mapping))
    if isinstance(expr, SafeDiv):
        return SafeDiv(
            substitute_names(expr.left, mapping),
            substitute_names(expr.right, mapping),
        )
    if isinstance(expr, Compare):
        return Compare(
            expr.op,
            substitute_names(expr.left, mapping),
            substitute_names(expr.right, mapping),
        )
    if isinstance(expr, Lookup):
        return Lookup(
            expr.slot,
            tuple(substitute_names(k, mapping) for k in expr.keys),
            expr.default,
        )
    return expr


def rename_stmt(stmt: IRStmt, mapping: dict[str, str]) -> IRStmt:
    """Consistently rename scalar variables (binders and uses) in a
    statement tree — used when fusing loops with differing gensyms."""
    if not mapping:
        return stmt

    def rn(name: str) -> str:
        return mapping.get(name, name)

    def sub(expr: IRExpr) -> IRExpr:
        return substitute_names(expr, mapping)

    if isinstance(stmt, Assign):
        return Assign(rn(stmt.name), sub(stmt.value))
    if isinstance(stmt, Accum):
        return Accum(rn(stmt.name), sub(stmt.value))
    if isinstance(stmt, IfCond):
        return IfCond(sub(stmt.cond), tuple(rename_stmt(s, mapping) for s in stmt.body))
    if isinstance(stmt, ForEachMap):
        return ForEachMap(
            stmt.slot,
            rn(stmt.entry_var),
            rn(stmt.value_var),
            tuple((pos, rn(name)) for pos, name in stmt.binds),
            tuple((pos, sub(expr)) for pos, expr in stmt.filters),
            tuple(rename_stmt(s, mapping) for s in stmt.body),
        )
    if isinstance(stmt, ForEachRow):
        return ForEachRow(
            stmt.rows_var,
            tuple(rn(p) for p in stmt.params),
            tuple(rename_stmt(s, mapping) for s in stmt.body),
        )
    if isinstance(stmt, AddTo):
        return AddTo(
            stmt.slot,
            tuple(sub(k) for k in stmt.keys),
            sub(stmt.value),
            stmt.caches,
            stmt.acc,
        )
    if isinstance(stmt, AppendTo):
        return AppendTo(
            stmt.buffer, tuple(sub(k) for k in stmt.keys), sub(stmt.value), stmt.target
        )
    if isinstance(stmt, Block):
        return Block(
            stmt.comments,
            stmt.targets,
            tuple(rename_stmt(s, mapping) for s in stmt.stmts),
            stmt.sources,
        )
    return stmt
