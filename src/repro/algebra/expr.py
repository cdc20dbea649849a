"""Expression nodes of the map algebra (ring calculus).

Every node is an immutable, hashable dataclass; structural equality is used
throughout the compiler for map sharing and cancellation.  Facts about a
node that never change — its structural hash, its schema and the names it
uses — are computed on first use and kept on the node.  Expressions denote
generalised multiset relations (GMRs): finite maps from tuples (bindings of
the expression's output variables) to numeric ring values.

Variable scoping follows AGCA: within a :class:`Mul`, factors bind variables
left to right.  A variable position in a :class:`Rel` binds the variable on
first occurrence and acts as an equality filter afterwards; a :class:`Lift`
binds its variable to the value of a scalar expression (or tests equality if
the variable is already bound).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence, Union

from repro.errors import AlgebraError

#: Values that can appear in tuples and in the ring: numbers for the ring
#: proper, strings only as key/comparison values.
Value = Union[int, float, str]

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Expr:
    """Base class for all calculus expressions.

    A node keeps three facts in slots, each filled on first use: its
    structural hash (``_hash``), :func:`repro.algebra.schema.schema_of`
    (``_schema``) and :func:`used_vars` (``_used``).  They are not dataclass
    fields, so equality, ``repr``, pickling and copying never see them; a
    copy starts empty and recomputes (string hashes differ per process).
    The leaves :class:`Var` and :class:`Const` keep none — their facts cost
    less to recompute than to hold once per occurrence — and ``repr`` is
    kept by no node: every subtree's string would outweigh the time it
    saves.
    """

    __slots__ = ("_hash", "_schema", "_used")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def children(self) -> tuple["Expr", ...]:
        """Child expressions, in evaluation order."""
        return ()

    def rebuild(self, children: Sequence["Expr"]) -> "Expr":
        """Return a copy of this node with ``children`` substituted in."""
        if children:
            raise AlgebraError(f"{type(self).__name__} takes no children")
        return self

    # -- convenience operator sugar (used heavily in tests/examples) --------

    def __add__(self, other: "Expr") -> "Expr":
        return add(self, _as_expr(other))

    def __radd__(self, other: object) -> "Expr":
        return add(_as_expr(other), self)

    def __mul__(self, other: object) -> "Expr":
        return mul(self, _as_expr(other))

    def __rmul__(self, other: object) -> "Expr":
        return mul(_as_expr(other), self)

    def __sub__(self, other: object) -> "Expr":
        return add(self, neg(_as_expr(other)))

    def __neg__(self) -> "Expr":
        return neg(self)


def _as_expr(value: object) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, str)):
        return Const(value)
    raise AlgebraError(f"cannot coerce {value!r} to a calculus expression")


def node_class(cls: type) -> type:
    """Make ``cls`` a frozen, slotted dataclass whose (dataclass-generated,
    structural) hash is computed once and kept in the ``_hash`` slot."""
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = structural(self)
            object.__setattr__(self, "_hash", cached)
        return cached

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True, slots=True)
class Const(Expr):
    """A literal ring value (or a string used as a key/comparison literal)."""

    value: Value

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class Var(Expr):
    """A reference to a bound variable; evaluates to its value."""

    name: str

    def __repr__(self) -> str:
        return self.name


@node_class
class Rel(Expr):
    """A base-relation atom: the multiplicity of the tuple ``args``.

    ``args`` entries are :class:`Var` or :class:`Const`.  An unbound variable
    is bound by the atom (output); a bound variable or a constant filters.
    """

    name: str
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        for arg in self.args:
            if not isinstance(arg, (Var, Const)):
                raise AlgebraError(
                    f"relation argument must be Var or Const, got {arg!r}"
                )

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.name}({inner})"


@node_class
class MapRef(Expr):
    """A reference to a materialised map, used like a relation atom.

    The map's contents form a GMR keyed by its arguments; bound arguments act
    as lookups, unbound ones iterate the map.  ``absent`` is what a point
    lookup of a missing key reads as: the ring zero for every maintained
    sum, the extremum's identity for a min/max cache (an empty group has
    no minimum — ``+inf`` makes every ``min <= x`` test over it false).
    """

    name: str
    args: tuple[Expr, ...]
    absent: object = 0

    def __post_init__(self) -> None:
        for arg in self.args:
            if not isinstance(arg, (Var, Const)):
                raise AlgebraError(
                    f"map argument must be Var or Const, got {arg!r}"
                )

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        default = f" or {self.absent!r}" if self.absent != 0 else ""
        return f"{self.name}[{inner}]{default}"


@node_class
class Cmp(Expr):
    """A comparison predicate; evaluates to 1 (true) or 0 (false).

    Both operands must be scalar expressions whose variables are bound by the
    surrounding context.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise AlgebraError(f"unknown comparison operator {self.op!r}")

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Expr]) -> "Cmp":
        left, right = children
        return Cmp(self.op, left, right)

    def __repr__(self) -> str:
        return f"{{{self.left!r} {self.op} {self.right!r}}}"


@node_class
class Add(Expr):
    """Ring addition (bag union) of the operand GMRs."""

    terms: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.terms

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return add(*children)

    def __repr__(self) -> str:
        return "(" + " + ".join(repr(t) for t in self.terms) + ")"


@node_class
class Mul(Expr):
    """Ring multiplication (natural join); factors bind variables left-to-right."""

    factors: tuple[Expr, ...]

    def children(self) -> tuple[Expr, ...]:
        return self.factors

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        return mul(*children)

    def __repr__(self) -> str:
        return " * ".join(
            f"({f!r})" if isinstance(f, Add) else repr(f) for f in self.factors
        )


@node_class
class Neg(Expr):
    """Ring negation of every value of the operand GMR."""

    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, children: Sequence[Expr]) -> Expr:
        (body,) = children
        return neg(body)

    def __repr__(self) -> str:
        return f"-({self.body!r})"


@node_class
class AggSum(Expr):
    """Sum the body GMR's values, grouping by ``group`` variables.

    ``AggSum((), e)`` is a full aggregate producing a scalar; with group
    variables it is a SQL ``GROUP BY`` aggregate.
    """

    group: tuple[str, ...]
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, children: Sequence[Expr]) -> "AggSum":
        (body,) = children
        return AggSum(self.group, body)

    def __repr__(self) -> str:
        gv = ",".join(self.group)
        return f"AggSum([{gv}], {self.body!r})"


@node_class
class Lift(Expr):
    """Variable assignment ``var ^= body`` (multiplicity 1).

    Binds ``var`` to the scalar value of ``body``; if ``var`` is already
    bound, acts as the equality predicate ``{var = body}`` instead.
    """

    var: str
    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, children: Sequence[Expr]) -> "Lift":
        (body,) = children
        return Lift(self.var, body)

    def __repr__(self) -> str:
        return f"({self.var} ^= {self.body!r})"


@node_class
class Exists(Expr):
    """Domain predicate: maps every non-zero value of the body to 1."""

    body: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.body,)

    def rebuild(self, children: Sequence[Expr]) -> "Exists":
        (body,) = children
        return Exists(body)

    def __repr__(self) -> str:
        return f"Exists({self.body!r})"


@node_class
class Div(Expr):
    """Scalar division, with the convention ``x / 0 == 0``.

    Division is a value-level function (not a ring operation): both operands
    must be scalars.  It appears in translated SQL arithmetic and in the view
    layer's ``avg`` expansion.
    """

    left: Expr
    right: Expr

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Sequence[Expr]) -> "Div":
        left, right = children
        return Div(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} / {self.right!r})"


ZERO = Const(0)
ONE = Const(1)


# ---------------------------------------------------------------------------
# Smart constructors: flatten nesting and drop trivial identities.  These are
# *structural* conveniences only; full algebraic rewriting lives in
# :mod:`repro.algebra.simplify`.
# ---------------------------------------------------------------------------


def add(*terms: Expr) -> Expr:
    """N-ary addition; flattens nested Adds and drops literal zeros."""
    flat: list[Expr] = []
    for term in terms:
        term = _as_expr(term)
        if isinstance(term, Add):
            flat.extend(term.terms)
        elif isinstance(term, Const) and term.value == 0:
            continue
        else:
            flat.append(term)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    """N-ary multiplication; flattens nested Muls and applies 0/1 identities."""
    flat: list[Expr] = []
    for factor in factors:
        factor = _as_expr(factor)
        if isinstance(factor, Mul):
            flat.extend(factor.factors)
        elif isinstance(factor, Const) and factor.value == 1:
            continue
        elif isinstance(factor, Const) and factor.value == 0:
            return ZERO
        else:
            flat.append(factor)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def neg(body: Expr) -> Expr:
    """Negation, folding constants and double negations."""
    body = _as_expr(body)
    if isinstance(body, Const) and not isinstance(body.value, str):
        return Const(-body.value)
    if isinstance(body, Neg):
        return body.body
    return Neg(body)


# ---------------------------------------------------------------------------
# Traversal and rewriting utilities
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every descendant, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def relations_in(expr: Expr) -> set[str]:
    """Names of all base relations referenced anywhere in ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, Rel)}


def maps_in(expr: Expr) -> set[str]:
    """Names of all materialised maps referenced anywhere in ``expr``."""
    return {node.name for node in walk(expr) if isinstance(node, MapRef)}


def contains_relation(expr: Expr, name: str | None = None) -> bool:
    """True if ``expr`` references any base relation (or the named one)."""
    for node in walk(expr):
        if isinstance(node, Rel) and (name is None or node.name == name):
            return True
    return False


def used_vars(expr: Expr) -> frozenset[str]:
    """Every variable name occurring anywhere in ``expr``.

    Unlike the static schema in :mod:`repro.algebra.schema`, this includes
    variables hidden inside nested aggregates and lift bodies.  A name bound
    in the surrounding context *correlates* with any occurrence here, so
    rewrites that move factors around must treat all used names as potential
    dependencies.  Kept on the node (and on every subterm but the leaves)
    once computed.
    """
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    if isinstance(expr, Const):
        return frozenset()
    names = getattr(expr, "_used", None)
    if names is None:
        names = _used_vars(expr)
        object.__setattr__(expr, "_used", names)
    return names


def _used_vars(expr: Expr) -> frozenset[str]:
    if isinstance(expr, (Rel, MapRef)):
        return frozenset(a.name for a in expr.args if isinstance(a, Var))
    parts = [used_vars(child) for child in expr.children()]
    if isinstance(expr, Lift):
        parts.append(frozenset((expr.var,)))
    elif isinstance(expr, AggSum):
        parts.append(frozenset(expr.group))
    if not parts:
        return frozenset()
    # Share the largest child's set when it already holds every name.
    largest = max(parts, key=len)
    names = largest.union(*parts)
    return largest if len(names) == len(largest) else names


def rename_vars(expr: Expr, mapping: dict[str, str]) -> Expr:
    """Consistently rename variables (binders and uses alike)."""
    if not mapping:
        return expr

    def rn(name: str) -> str:
        return mapping.get(name, name)

    if isinstance(expr, Var):
        return Var(rn(expr.name))
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, (Rel, MapRef)):
        args = tuple(rename_vars(a, mapping) for a in expr.args)
        if isinstance(expr, Rel):
            return Rel(expr.name, args)
        return MapRef(expr.name, args, expr.absent)
    if isinstance(expr, Lift):
        return Lift(rn(expr.var), rename_vars(expr.body, mapping))
    if isinstance(expr, AggSum):
        group = tuple(rn(g) for g in expr.group)
        return AggSum(group, rename_vars(expr.body, mapping))
    children = tuple(rename_vars(c, mapping) for c in expr.children())
    return expr.rebuild(children)


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variable *uses* by Var/Const terms.

    Unlike :func:`rename_vars`, substitution only applies where a variable is
    used as a value.  Substituting a constant for a variable that appears as
    a relation argument or an AggSum group variable is supported because both
    positions accept constants (a pinned group variable simply stops being
    part of the group).
    """
    if not mapping:
        return expr

    def term_for(name: str) -> Expr | None:
        return mapping.get(name)

    if isinstance(expr, Var):
        replacement = term_for(expr.name)
        return replacement if replacement is not None else expr
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, (Rel, MapRef)):
        new_args: list[Expr] = []
        for arg in expr.args:
            if isinstance(arg, Var):
                replacement = term_for(arg.name)
                new_args.append(replacement if replacement is not None else arg)
            else:
                new_args.append(arg)
        if isinstance(expr, Rel):
            return Rel(expr.name, tuple(new_args))
        return MapRef(expr.name, tuple(new_args), expr.absent)
    if isinstance(expr, Lift):
        replacement = term_for(expr.var)
        body = substitute(
            expr.body, {k: v for k, v in mapping.items() if k != expr.var}
        )
        if replacement is not None:
            # The lifted variable is pinned to a value: the assignment
            # degenerates to the equality test {value = body}.
            return Cmp("=", replacement, body)
        return Lift(expr.var, body)
    if isinstance(expr, AggSum):
        new_group: list[str] = []
        for g in expr.group:
            replacement = term_for(g)
            if replacement is None:
                new_group.append(g)
            elif isinstance(replacement, Var):
                new_group.append(replacement.name)
            # A constant replacement pins the column: drop it from the group.
        return AggSum(tuple(new_group), substitute(expr.body, mapping))
    children = tuple(substitute(c, mapping) for c in expr.children())
    return expr.rebuild(children)


def fresh_namer(prefix: str = "v") -> "FreshNamer":
    """Create a generator of fresh variable names with the given prefix."""
    return FreshNamer(prefix)


class FreshNamer:
    """Deterministic fresh-name source used by translation and compilation."""

    def __init__(self, prefix: str = "v") -> None:
        self._prefix = prefix
        self._counter = 0
        self._reserved: set[str] = set()

    def fresh(self, hint: str | None = None) -> str:
        base = hint if hint else self._prefix
        while True:
            self._counter += 1
            name = f"{base}_{self._counter}"
            if name not in self._reserved:
                self._reserved.add(name)
                return name

    def reserve(self, names: Iterable[str]) -> None:
        """Mark names as taken so :meth:`fresh` never returns them."""
        self._reserved.update(names)
