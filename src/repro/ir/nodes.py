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
  the issue), :class:`KeyAt` (a position of the enclosing loop's key
  tuple, used only in loop filters) and :class:`KeyTuple` (a key built
  into a local once, for every probe and write reading it).

* **Statements** — :class:`Assign`, :class:`Accum`, :class:`IfCond`,
  :class:`ForEachMap`, :class:`ForEachRow` (batch row loop),
  :class:`ForEachGroup` (batch rows pre-aggregated per group),
  :class:`AddTo` (``map[key] += value`` with zero eviction),
  :class:`AppendTo`/:class:`FlushBuffer` (the two-phase pending buffer),
  :class:`LocalMapDecl`/:class:`MergeInto` (batch accumulators),
  :class:`BufferDecl`, :class:`Clear`, :class:`Finalize` (rebuild a
  MIN/MAX/DISTINCT cache) and :class:`Block` (one compiled statement's
  lowering, carrying its provenance for comments and tracing).
  ``AddTo`` and ``FlushBuffer`` carry the :class:`Cache` entries kept
  from their map: a key whose multiplicity crosses zero updates them.

Every node is a frozen, slotted dataclass whose fields are its shape:
which hold expressions, which a body of nested statements, which scalar
local names (:data:`NAME_FIELDS`).  Expressions are hashable (structural
equality drives the optimiser's fusion/hoisting).  Passes rebuild rather
than mutate, and :func:`map_node` is the one rebuild: it maps functions
over a node's expressions, bodies or names, read off its fields, so a new
node kind brings no rebuild code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache
from operator import is_
from typing import Optional, Union

Value = Union[int, float, str]

CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")

#: The local a batch trigger receives its weight column in (one +1/-1
#: per row, beside the event columns): see :class:`ForEachRow`.
WEIGHTS = "__ws"

#: The local a routed group loop reads its folded groups from: see
#: :class:`ForEachGroup`.
GROUPS = "__groups"


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
    """``map.get((keys...), default)`` — the LookupDefault atom.

    ``key_local`` names a local already holding the tuple of ``keys``
    (bound by an :class:`Assign` of a :class:`KeyTuple`, see the
    ``share-locals`` pass): a renderer may read it instead of building the
    key; ``keys`` stay the per-column expressions every analysis reads.
    """

    slot: Slot
    keys: tuple[IRExpr, ...]
    default: Value = 0
    key_local: str = ""

    def children(self) -> tuple[IRExpr, ...]:
        return self.keys


@dataclass(frozen=True, slots=True)
class KeyAt(IRExpr):
    """Position ``pos`` of the enclosing :class:`ForEachMap` entry key.

    Only valid inside a loop's ``filters``: it expresses the repeated-
    variable filter ``key[j] == key[i]`` without binding a name first.
    """

    pos: int


@dataclass(frozen=True, slots=True)
class KeyTuple(IRExpr):
    """The tuple of ``items`` — the value of a key local (see
    :attr:`Lookup.key_local`)."""

    items: tuple[IRExpr, ...]

    def children(self) -> tuple[IRExpr, ...]:
        return self.items


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
    backend may serve from a secondary index; ``key_local`` names a local
    holding the tuple of the filter expressions in that order, the key
    such an index is probed with.
    """

    slot: Slot
    entry_var: str
    value_var: str
    binds: tuple[tuple[int, str], ...]
    filters: tuple[tuple[int, IRExpr], ...]
    body: tuple[IRStmt, ...]
    key_local: str = ""

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
class ForEachGroup(IRStmt):
    """Batch pre-aggregation over a columnar batch: its rows, read as
    :class:`ForEachRow` reads them (``params``), fold into one entry per
    value of the ``group`` parameters, holding per group each of
    ``values`` summed over its rows; ``body`` then runs once per group,
    in order of first appearance, with ``group`` bound to the group's
    values and each of ``sums`` to the sum in its position.  An empty
    ``group`` folds the batch into one entry, and ``body`` runs once.

    A ``routed`` loop groups on its relation's partition column, and its
    fold and its loop are two entries of the trigger (see
    :func:`routed_group`): the fold returns one entry ``[sums...,
    rows]`` per group value, the rows it stands for counted last, and
    the loop reads ``(value, entry)`` pairs from :data:`GROUPS` instead
    of folding.  A sharded engine runs the fold once, at its router, and
    routes the groups by the value's hash, as it routes rows."""

    rows_var: str
    params: tuple[str, ...]
    group: tuple[str, ...]
    sums: tuple[str, ...]
    values: tuple[IRExpr, ...]
    body: tuple[IRStmt, ...]
    routed: bool = False


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

    ``key_locals`` pairs key positions with a local holding the tuple of
    those ``keys``: all of them (the key itself), an index pattern's (the
    index's subkey) or a cache's group prefix (its group key).
    """

    slot: Slot
    keys: tuple[IRExpr, ...]
    value: IRExpr
    caches: tuple[Cache, ...] = ()
    acc: str = ""
    key_locals: tuple[tuple[tuple[int, ...], str], ...] = ()


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
    ``sources`` keep the originating
    :class:`~repro.compiler.program.Statement` objects for the debugger.
    """

    comments: tuple[str, ...]
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
    """Every scalar variable name referenced in ``expr`` (a lookup's key
    local included)."""
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.name)
        elif isinstance(node, Lookup) and node.key_local:
            names.add(node.key_local)
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
    if isinstance(stmt, (IfCond, ForEachMap, ForEachRow, ForEachGroup)):
        return stmt.body
    if isinstance(stmt, Block):
        return stmt.stmts
    return ()


def stmt_exprs(stmt: IRStmt) -> tuple[IRExpr, ...]:
    """The scalar expressions evaluated directly by ``stmt`` (a key local
    it reads as a :class:`Name`)."""
    if isinstance(stmt, (Assign, Accum)):
        return (stmt.value,)
    if isinstance(stmt, IfCond):
        return (stmt.cond,)
    if isinstance(stmt, ForEachMap):
        filters = tuple(expr for _, expr in stmt.filters)
        return filters + (Name(stmt.key_local),) if stmt.key_local else filters
    if isinstance(stmt, AddTo):
        locals_ = tuple(Name(name) for _, name in stmt.key_locals)
        return stmt.keys + (stmt.value,) + locals_
    if isinstance(stmt, AppendTo):
        return stmt.keys + (stmt.value,)
    if isinstance(stmt, ForEachGroup):
        return stmt.values
    return ()


def routed_group(body) -> "Optional[ForEachGroup]":
    """The ``routed`` group loop at the top level of a batch body, if
    any: the trigger's fold runs apart from the rest of ``body``."""
    for stmt in body:
        if isinstance(stmt, ForEachGroup) and stmt.routed:
            return stmt
    return None


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


def binders(stmt: IRStmt) -> tuple[str, ...]:
    """The scalar names ``stmt`` itself binds (not its body): an
    assignment's or accumulator's name, a map loop's value and key
    position names, a row loop's parameters, a group loop's parameters
    and sums."""
    if isinstance(stmt, (Assign, Accum)):
        return (stmt.name,)
    if isinstance(stmt, ForEachMap):
        return (stmt.value_var, *(name for _, name in stmt.binds))
    if isinstance(stmt, ForEachRow):
        return stmt.params
    if isinstance(stmt, ForEachGroup):
        return (*stmt.params, *stmt.sums)
    return ()


def assigned_names(stmts) -> frozenset[str]:
    """Every scalar name bound anywhere in the statements."""
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        out.update(binders(stmt))
    return frozenset(out)


def used_names(stmts) -> frozenset[str]:
    """Every scalar name read by any expression in the statements."""
    out: set[str] = set()
    for stmt in walk_stmts(stmts):
        for expr in stmt_exprs(stmt):
            out.update(expr_names(expr))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rebuilding: one walk over a node's fields
# ---------------------------------------------------------------------------

#: The fields of each node kind that hold scalar local names, bound or
#: read, alone or in tuples (a loop's ``(pos, name)`` binds, a write's
#: ``(positions, name)`` key locals): what :func:`rename_stmt` and
#: :func:`substitute_names` rename.  Any other ``str`` field names no
#: local: a buffer, an accumulator, a batch's rows, an operator.
NAME_FIELDS: dict[type, tuple[str, ...]] = {
    Name: ("name",),
    Lookup: ("key_local",),
    Assign: ("name",),
    Accum: ("name",),
    ForEachMap: ("entry_var", "value_var", "binds", "key_local"),
    ForEachRow: ("params",),
    ForEachGroup: ("params", "group", "sums"),
    AddTo: ("key_locals",),
}

_EXPRS, _BODY, _NAMES = range(3)


@cache
def _shape(cls: type) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
    """The dataclass fields of node class ``cls``, in order, and the
    position of each one a rewrite may change, with what it holds (read
    off its annotation): expressions (one, or in tuples and ``(pos,
    expr)`` pairs), a body of statements or scalar local names
    (:data:`NAME_FIELDS`).  The rest is data no rewrite touches."""
    names = NAME_FIELDS.get(cls, ())
    declared = fields(cls)
    live = []
    for index, f in enumerate(declared):
        annotation = str(f.type)
        if f.name in names:
            live.append((index, _NAMES))
        elif "IRStmt" in annotation:
            live.append((index, _BODY))
        elif "IRExpr" in annotation:
            live.append((index, _EXPRS))
    return tuple(f.name for f in declared), tuple(live)


def same_nodes(new, old) -> bool:
    """Whether a rewrite left every item of a sequence as it was (by
    identity)."""
    return len(new) == len(old) and all(map(is_, new, old))


def map_node(node, expr_fn=None, stmt_fn=None, name_fn=None):
    """``node`` rebuilt from its dataclass fields, positionally, with
    ``expr_fn`` applied to each expression in them, ``stmt_fn`` to each
    body (the tuple of nested statements) and ``name_fn`` to each scalar
    local name; a function left ``None`` leaves its fields as they are.

    Returns ``node`` itself when nothing changed: passes tell what a
    rewrite changed by identity."""
    names, live = _shape(type(node))
    fns = (expr_fn, stmt_fn, name_fn)
    values = None
    for index, holds in live:
        fn = fns[holds]
        if fn is None:
            continue
        old = getattr(node, names[index])
        if holds == _BODY:
            new = fn(old)
            if same_nodes(new, old):
                continue
        else:
            new = _map_leaves(old, fn, IRExpr if holds == _EXPRS else str)
            if new is old:
                continue
        if values is None:
            values = [getattr(node, name) for name in names]
        values[index] = new
    return node if values is None else type(node)(*values)


def _map_leaves(value, fn, leaf: type):
    """``value`` with ``fn`` applied to each ``leaf`` in it, through
    tuples; ``value`` itself when ``fn`` returned every leaf as it was."""
    if isinstance(value, leaf):
        return fn(value)
    if type(value) is not tuple:
        return value
    new = tuple([_map_leaves(item, fn, leaf) for item in value])
    return value if same_nodes(new, value) else new


def with_body(stmt: IRStmt, body: tuple[IRStmt, ...]) -> IRStmt:
    """``stmt`` (a guard, a loop or a block) over ``body``."""
    return map_node(stmt, stmt_fn=lambda _: body)


def rewrite_exprs(stmt: IRStmt, fn) -> IRStmt:
    """``stmt`` with ``fn`` applied to each expression, its body's
    included; ``stmt`` itself when ``fn`` returns every one as it is."""
    return map_node(stmt, fn, lambda body: tuple(rewrite_exprs(s, fn) for s in body))


def substitute_names(expr: IRExpr, mapping: dict[str, str]) -> IRExpr:
    """Rename variable references in ``expr``."""
    if not mapping:
        return expr
    return map_node(
        expr,
        lambda child: substitute_names(child, mapping),
        name_fn=lambda name: mapping.get(name, name),
    )


def rename_stmt(stmt: IRStmt, mapping: dict[str, str]) -> IRStmt:
    """Consistently rename scalar variables (binders and uses) in a
    statement tree — used when fusing loops with differing gensyms."""
    if not mapping:
        return stmt
    return map_node(
        stmt,
        lambda expr: substitute_names(expr, mapping),
        lambda body: tuple(rename_stmt(s, mapping) for s in body),
        lambda name: mapping.get(name, name),
    )
