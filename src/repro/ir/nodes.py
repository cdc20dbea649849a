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
  :class:`LocalMapDecl`/:class:`MergeInto` (batch-delta accumulators),
  :class:`BufferDecl`, :class:`Clear`, and :class:`Block` (one compiled
  statement's lowering, carrying its provenance for comments, tracing and
  profiling).

Expressions are immutable and hashable (structural equality drives the
optimiser's fusion/hoisting); statements are immutable tuples of children, so
passes rebuild rather than mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Value = Union[int, float, str]

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


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
    """A map storage reference: a program map, or a trigger-local dict."""

    name: str
    local: bool = False

    def __repr__(self) -> str:
        return f"%{self.name}" if self.local else self.name


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
    current entry; ``binds`` assigns key positions to scalar names (a
    ``None``-free subset after dead-binding pruning); ``filters`` keep only
    entries whose position equals the filter expression.  The sorted filter
    positions are the access pattern a backend may serve from a secondary
    index.
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
    """Batch row loop: unpack ``params`` from each row of ``rows_var``."""

    rows_var: str
    params: tuple[str, ...]
    body: tuple[IRStmt, ...]


@dataclass(frozen=True, slots=True)
class AddTo(IRStmt):
    """``slot[(keys...)] += value``.

    With ``evict`` (every program-map write) entries reaching zero are
    removed — the canonical GMR update all backends must implement the same
    way.  Local accumulator maps keep zeros (they are merged, then
    evicted at the program map).
    """

    slot: Slot
    keys: tuple[IRExpr, ...]
    value: IRExpr
    evict: bool = True


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
    """Apply a pending buffer's updates to ``target`` in append order."""

    name: str
    target: Slot


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
    """Add every entry of a local accumulator map into ``target``."""

    target: Slot
    source: Slot


@dataclass(frozen=True, slots=True)
class Clear(IRStmt):
    """Remove every entry of a map."""

    target: Slot


@dataclass(frozen=True, slots=True)
class Finalize(IRStmt):
    """Maintain a non-linear auxiliary map from its occurrence source.

    ``source`` is an occurrence map keyed ``(group..., value)`` →
    multiplicity; ``target`` is the auxiliary map keyed ``(group...)``
    holding, per group, the current MIN/MAX value (``kind`` ``"min"`` /
    ``"max"``) or the count of distinct present values (``"distinct"``).
    ``group_arity`` is the group prefix width of the source keys.

    ``pending`` names the trigger-local deltas just applied to the
    source this trigger run — batch accumulators (``key → value`` dicts)
    when ``keyed``, two-phase buffers (``[(key, value), ...]`` lists)
    otherwise; multiple pendings for one source are summed key-wise
    before processing so a net-zero change across them is seen as no
    change.  For each net
    changed key the backend computes the pre-image value and updates the
    auxiliary incrementally; a delete of the current extremum re-derives
    the group's value from the source state (the eviction path — there
    is no closed-form delta).  An **empty** ``pending`` means "rebuild":
    clear the target and recompute it from a full scan of the source
    (the second-order restate path, also the shard-merge repair).
    """

    target: Slot
    source: Slot
    kind: str  # "min" | "max" | "distinct"
    group_arity: int
    pending: tuple[str, ...] = ()
    keyed: bool = False


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
    """The imperative body of one (relation, sign) trigger."""

    relation: str
    sign: int
    name: str
    params: tuple[str, ...]
    body: tuple[IRStmt, ...]

    @property
    def key(self) -> tuple[str, int]:
        return (self.relation, self.sign)


@dataclass
class ProgramIR:
    """The lowered program: map declarations plus per-event and batch
    trigger bodies, with the optimisation pass list that produced them.

    ``batch_sinks`` records, per trigger, the batch sink chosen for every
    compiled statement (``direct`` / ``buffered`` / ``accumulator`` /
    ``second-order`` / ``per-row``) — the ``--dump-ir`` and benchmark
    coverage report of the batch-path rewriting."""

    maps: dict[str, MapDecl]
    triggers: dict[tuple[str, int], TriggerIR]
    batch_triggers: dict[tuple[str, int], TriggerIR]
    passes: tuple[str, ...] = ()
    batch_sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = field(
        default_factory=dict
    )


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


def expr_has_keyat(expr: IRExpr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, KeyAt):
            return True
        stack.extend(node.children())
    return False


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


def written_slots(stmts) -> frozenset[Slot]:
    """Every slot the statements write (AddTo/Merge/Flush/Clear)."""
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, AddTo):
            out.add(stmt.slot)
        elif isinstance(stmt, (MergeInto, FlushBuffer, Clear, Finalize)):
            out.add(stmt.target)
    return frozenset(out)


def read_slots(stmts) -> frozenset[Slot]:
    """Every slot the statements read (lookups, loops and merges)."""
    out: set[Slot] = set()
    for stmt in walk_stmts(stmts):
        if isinstance(stmt, ForEachMap):
            out.add(stmt.slot)
        elif isinstance(stmt, (MergeInto, Finalize)):
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
    """Rebuild ``stmt`` (recursively) with ``fn`` applied to each expr."""
    if isinstance(stmt, Assign):
        return Assign(stmt.name, fn(stmt.value))
    if isinstance(stmt, Accum):
        return Accum(stmt.name, fn(stmt.value))
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
    if isinstance(stmt, AddTo):
        return AddTo(
            stmt.slot, tuple(fn(k) for k in stmt.keys), fn(stmt.value), stmt.evict
        )
    if isinstance(stmt, AppendTo):
        return AppendTo(
            stmt.buffer, tuple(fn(k) for k in stmt.keys), fn(stmt.value), stmt.target
        )
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
            stmt.slot, tuple(sub(k) for k in stmt.keys), sub(stmt.value), stmt.evict
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
