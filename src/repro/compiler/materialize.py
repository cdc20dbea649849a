"""Map materialisation: turning stream-dependent expressions into map lookups.

Given a (simplified) delta expression, the materialiser replaces every piece
that references base relations with references to maintained maps:

* a **pure aggregate** whose context-bound variables are all *data-bound*
  (they appear as relation arguments or lift targets inside the definition,
  so the map's key domain is finite and maintainable) becomes a standalone
  map — this is the paper's ``q_D[b]``/``q_A[c]`` step;
* a bare **relation atom** reads its relation's *base map*, keyed on the
  columns its readers bind and nothing else (the paper keys every map on
  exactly the variables its context binds): a column some reader
  compares, joins, groups on or passes out is a key; a column every
  reader only multiplies by is folded into the value
  (``bids[price] -> sum(volume)``); a column nobody reads is summed out.
  When every column is read this is the whole-row *occurrence map*
  (tuple -> multiplicity), the paper's ``q_1[b,c]``.  Atoms stay in place
  while a program compiles — the shape needs every reader — and
  :func:`read_base_maps` resolves them once the shapes are known;
* anything whose event-parameter dependence cannot be keyed (e.g. a nested
  aggregate compared against arithmetic over the event values, as in VWAP)
  keeps its structure inline and only its pure sub-parts are materialised —
  the trigger then loops over the materialised maps, which is DBToaster's
  documented re-evaluation fallback for non-linear deltas.

Structurally identical definitions share one map: definitions are renamed to
canonical variables and looked up in a registry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.errors import CompilationError
from repro.algebra.expr import (
    AggSum,
    Cmp,
    Const,
    Exists,
    Expr,
    Lift,
    MapRef,
    Mul,
    Rel,
    Var,
    contains_relation,
    mul,
    rename_vars,
    used_vars,
    walk,
)
from repro.algebra.schema import output_vars
from repro.compiler.program import BaseMap, ColumnUse, FinalizeSpec, MapDef


def ordered_vars(expr: Expr) -> list[str]:
    """Variable names in deterministic first-occurrence (pre-order) order."""
    seen: list[str] = []
    seen_set: set[str] = set()

    def note(name: str) -> None:
        if name not in seen_set:
            seen_set.add(name)
            seen.append(name)

    for node in walk(expr):
        if isinstance(node, Var):
            note(node.name)
        elif isinstance(node, (Rel, MapRef)):
            for arg in node.args:
                if isinstance(arg, Var):
                    note(arg.name)
        elif isinstance(node, Lift):
            note(node.var)
        elif isinstance(node, AggSum):
            for g in node.group:
                note(g)
    return seen


def canonicalize(keys: tuple[str, ...], body: Expr) -> tuple[Expr, tuple[str, ...]]:
    """Rename a definition to canonical variables for structural sharing.

    Keys become ``__k0..`` positionally; all other variables become
    ``__i0..`` in first-occurrence order.  Returns the canonical
    ``AggSum(keys, body)`` and the canonical key names.
    """
    mapping: dict[str, str] = {}
    for index, key in enumerate(keys):
        mapping[key] = f"__k{index}"
    counter = 0
    for name in ordered_vars(body):
        if name not in mapping:
            mapping[name] = f"__i{counter}"
            counter += 1
    canon_keys = tuple(mapping[k] for k in keys)
    return AggSum(canon_keys, rename_vars(body, mapping)), canon_keys


def is_data_bound(var: str, body: Expr) -> bool:
    """True when ``var``'s domain is derived from the data.

    A key variable is maintainable when it appears as a relation-atom
    argument (active domain) or as a lift target (computed from data rows).
    Variables used only inside comparisons or arithmetic would require
    enumerating an unbounded domain.
    """
    for node in walk(body):
        if isinstance(node, Rel):
            if any(isinstance(a, Var) and a.name == var for a in node.args):
                return True
        elif isinstance(node, Lift) and node.var == var:
            return True
    return False


def _count_names(expr: Expr, counts: Counter) -> None:
    """Add every occurrence of a variable name in ``expr`` to ``counts``
    (uses, atom arguments, lift targets and group lists alike)."""
    for node in walk(expr):
        if isinstance(node, Var):
            counts[node.name] += 1
        elif isinstance(node, (Rel, MapRef)):
            counts.update(a.name for a in node.args if isinstance(a, Var))
        elif isinstance(node, Lift):
            counts[node.var] += 1
        elif isinstance(node, AggSum):
            counts.update(node.group)


def _name_counts(args: Iterable[Expr], rhs: Expr) -> Counter:
    """Name occurrences of the whole statement ``target[args] += rhs``."""
    counts: Counter = Counter()
    for arg in args:
        _count_names(arg, counts)
    _count_names(rhs, counts)
    return counts


def _atom_sites(expr: Expr) -> Iterator[tuple[Rel, tuple[Expr, ...]]]:
    """Every base-relation atom of ``expr`` with the sibling factors of
    the product it sits in (none when it stands alone)."""
    if isinstance(expr, Rel):
        yield expr, ()
    elif isinstance(expr, Mul):
        for index, factor in enumerate(expr.factors):
            if isinstance(factor, Rel):
                yield factor, expr.factors[:index] + expr.factors[index + 1 :]
            else:
                yield from _atom_sites(factor)
    else:
        for child in expr.children():
            yield from _atom_sites(child)


def _column_use(
    atom: Rel,
    siblings: tuple[Expr, ...],
    counts: Counter,
    params: frozenset[str],
    unfoldable: frozenset[int] = frozenset(),
) -> ColumnUse:
    """How the statement around ``atom`` uses each of its columns.

    ``counts`` are the name occurrences of the whole statement: a
    variable seen nowhere but at its own column is read by nobody, one
    seen only there and as bare factors of the atom's own product is a
    multiplied value, anything else (an event parameter, a constant, a
    comparison, a join, a group or target key) binds the column.
    ``unfoldable`` columns stay keys even when only multiplied (FLOAT
    columns: summing them into a map value would reassociate float
    additions and cost the map its exact-integer proof).
    """
    bare = Counter(f.name for f in siblings if isinstance(f, Var))
    in_atom = Counter(a.name for a in atom.args if isinstance(a, Var))
    keys: set[int] = set()
    folds: set[tuple[int, int]] = set()
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Const):
            keys.add(position)
            continue
        name = arg.name
        power = bare[name]
        if (
            name in params
            or in_atom[name] > 1
            or counts[name] > in_atom[name] + power
            or (power and position in unfoldable)
        ):
            keys.add(position)
        elif power:
            folds.add((position, power))
    return ColumnUse(frozenset(keys), frozenset(folds))


def column_uses(
    args: Iterable[Expr],
    rhs: Expr,
    params: Iterable[str],
    unfoldable: Mapping[str, frozenset[int]],
) -> list[tuple[Rel, ColumnUse]]:
    """The column use of every base-relation atom ``target[args] += rhs``
    still reads directly (see :func:`_column_use`; ``unfoldable`` maps a
    relation to its never-folded column positions)."""
    sites = list(_atom_sites(rhs))
    if not sites:
        return []
    counts = _name_counts(args, rhs)
    params = frozenset(params)
    return [
        (
            atom,
            _column_use(
                atom, siblings, counts, params, unfoldable.get(atom.name, frozenset())
            ),
        )
        for atom, siblings in sites
    ]


def merge_uses(uses: Iterable[ColumnUse]) -> ColumnUse:
    """The base-map shape serving every one of ``uses``: a column is
    folded only when every reader folds it the same way, dropped only
    when nobody reads it, and a key otherwise."""
    uses = list(uses)
    folds = frozenset.intersection(*(use.folds for use in uses))
    keys = frozenset().union(*(use.keys for use in uses)) | {
        position for use in uses for position, _ in use.folds - folds
    }
    return ColumnUse(keys, folds)


class _Unserved(Exception):
    """No maintained base map answers some atom's column use."""


def read_base_maps(
    args: Iterable[Expr],
    rhs: Expr,
    params: Iterable[str],
    base_maps: dict[str, BaseMap],
) -> Optional[Expr]:
    """``rhs`` with every base-relation atom read through its relation's
    base map: the atom becomes a reference keyed on the map's key columns
    and the bare factors the map folded into its value leave the product.

    Returns ``None`` when some atom has no base map, or one whose shape
    does not serve the way this statement uses the atom's columns (only
    possible for statements derived after the shapes were fixed — the
    second-order restate — which then fall back).
    """
    counts = _name_counts(args, rhs)
    params = frozenset(params)

    def reference(atom: Rel, siblings: tuple[Expr, ...]) -> tuple[MapRef, Counter]:
        base = base_maps.get(atom.name)
        use = _column_use(atom, siblings, counts, params)
        if base is None or not base.shape.serves(use):
            raise _Unserved(atom.name)
        folded = Counter(
            {atom.args[position].name: power for position, power in base.shape.folds}
        )
        return MapRef(base.name, tuple(atom.args[p] for p in base.keys)), folded

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Rel):
            return reference(expr, ())[0]
        if not isinstance(expr, Mul):
            children = expr.children()
            if not children:
                return expr
            return expr.rebuild(tuple(rewrite(c) for c in children))
        refs: dict[int, MapRef] = {}
        folded: Counter = Counter()
        for index, factor in enumerate(expr.factors):
            if isinstance(factor, Rel):
                siblings = expr.factors[:index] + expr.factors[index + 1 :]
                refs[index], strip = reference(factor, siblings)
                folded += strip
        factors: list[Expr] = []
        for index, factor in enumerate(expr.factors):
            if index in refs:
                factors.append(refs[index])
            elif isinstance(factor, Var) and folded[factor.name] > 0:
                folded[factor.name] -= 1
            else:
                factors.append(rewrite(factor))
        return mul(*factors)

    try:
        return rewrite(rhs)
    except _Unserved:
        return None


#: comparison → (the extremum deciding it, the operator with the scanned
#: variable moved to the left-hand side).
_THRESHOLD = {"<": "min", "<=": "min", ">": "max", ">=": "max"}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def read_extrema(
    args: Iterable[Expr],
    rhs: Expr,
    params: Iterable[str],
    extremum: Callable[[str, str], Optional[FinalizeSpec]],
) -> Expr:
    """``rhs`` with every threshold test over a count map read from the
    map's maintained extremum.

    ``Exists(AggSum([], M[k] * {k <= x}))`` — is any live key of ``M`` at
    most ``x`` — is ``{min(M) <= x}`` when ``M``'s values are row
    multiplicities (never negative on a well-formed stream, the same
    precondition MIN/MAX carry) and ``x`` does not mention ``k``;
    ``<``/``>``/``>=`` likewise with min/max.  ``extremum(M, kind)`` names
    the zero-key auxiliary map caching that extremum, or ``None`` when
    ``M`` is not such a map; every other shape keeps its scan.  An empty
    ``M`` leaves the cache without an entry, and the reference written
    here says what that reads as (``MapRef.absent``: the extremum's
    identity, plus or minus infinity), so the test is false under every
    evaluator of the statement.
    """
    if not any(isinstance(node, Exists) for node in walk(rhs)):
        return rhs
    counts = _name_counts(args, rhs)
    params = frozenset(params)

    def threshold(expr: Exists) -> Optional[Expr]:
        body = expr.body
        if not (isinstance(body, AggSum) and not body.group):
            return None
        factors = body.body.factors if isinstance(body.body, Mul) else ()
        refs = [f for f in factors if isinstance(f, MapRef)]
        tests = [f for f in factors if isinstance(f, Cmp)]
        if len(factors) != 2 or len(refs) != 1 or len(tests) != 1:
            return None
        (ref,), (test,) = refs, tests
        if len(ref.args) != 1 or not isinstance(ref.args[0], Var):
            return None
        scanned = ref.args[0]
        # The scanned key must be this scan's own: bound nowhere else.
        if scanned.name in params or counts[scanned.name] != 2:
            return None
        if test.left == scanned:
            op, bound = test.op, test.right
        elif test.right == scanned:
            op, bound = _MIRRORED.get(test.op), test.left
        else:
            return None
        if op not in _THRESHOLD or scanned.name in used_vars(bound):
            return None
        cache = extremum(ref.name, _THRESHOLD[op])
        if cache is None:
            return None
        return Cmp(op, MapRef(cache.aux, (), cache.absent), bound)

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Exists):
            test = threshold(expr)
            if test is not None:
                return test
        children = expr.children()
        if not children:
            return expr
        return expr.rebuild(tuple(rewrite(c) for c in children))

    return rewrite(rhs)


@dataclass
class MapRegistry:
    """Names, definitions and structural sharing of maintained maps."""

    maps: dict[str, MapDef] = field(default_factory=dict)
    pending: list[MapDef] = field(default_factory=list)
    _canonical: dict[Expr, str] = field(default_factory=dict)
    _counter: int = 0
    #: relation -> the map number its base map will carry: taken when a
    #: trigger first reads the relation directly, so names follow the
    #: order of the recursion although base maps take shape last.
    _base_numbers: dict[str, int] = field(default_factory=dict)

    def register_root(
        self, name: str, keys: tuple[str, ...], defn_body: Expr, description: str = ""
    ) -> MapDef:
        """Register a query's root map under a fixed name.

        If an identical definition already exists, the existing map is
        reused (cross-query sharing) and no new map is created.
        """
        canon, canon_keys = canonicalize(keys, defn_body)
        if canon in self._canonical:
            return self.maps[self._canonical[canon]]
        if name in self.maps:
            raise CompilationError(f"duplicate map name {name!r}")
        map_def = MapDef(
            name=name, keys=canon_keys, defn=canon, role="root",
            description=description,
        )
        self.maps[name] = map_def
        self._canonical[canon] = name
        self.pending.append(map_def)
        return map_def

    def _next_number(self) -> int:
        self._counter += 1
        return self._counter

    def reserve_base(self, relation: str) -> int:
        """The map number of ``relation``'s base map (see
        :meth:`base_map`), fixed at the first direct read."""
        if relation not in self._base_numbers:
            self._base_numbers[relation] = self._next_number()
        return self._base_numbers[relation]

    def get_or_create(
        self,
        keys: tuple[str, ...],
        defn_body: Expr,
        hint: str,
        role: str = "derived",
        number: Optional[int] = None,
    ) -> MapDef:
        canon, canon_keys = canonicalize(keys, defn_body)
        if canon in self._canonical:
            return self.maps[self._canonical[canon]]
        if number is None:
            number = self._next_number()
        name = f"m{number}_{hint}" if hint else f"m{number}"
        map_def = MapDef(name=name, keys=canon_keys, defn=canon, role=role)
        self.maps[name] = map_def
        self._canonical[canon] = name
        self.pending.append(map_def)
        return map_def

    @classmethod
    def seeded(cls, maps: dict[str, MapDef]) -> "MapRegistry":
        """A registry pre-populated with already-maintained maps.

        Structural sharing resolves against the existing definitions
        (re-canonicalised here, so the invariant lives with the code that
        owns it); callers that must not *create* maps treat a non-empty
        ``pending`` after rewriting as "a new map would be needed".
        """
        registry = cls()
        registry.maps = dict(maps)
        for name, map_def in maps.items():
            if map_def.role == "auxiliary":
                # Auxiliary extremum/distinct caches borrow their source
                # occurrence map's defining query with a truncated key
                # list; canonicalising that pair would register a bogus
                # sharing entry, and nothing materialises against them.
                continue
            defn = map_def.defn
            if isinstance(defn, AggSum):
                canon, _keys = canonicalize(map_def.keys, defn.body)
                registry._canonical[canon] = name
        return registry

    def base_map(
        self, relation: str, columns: tuple[str, ...], shape: ColumnUse
    ) -> BaseMap:
        """The map triggers read ``relation`` through, of the given shape
        (see :class:`~repro.compiler.program.ColumnUse`): keyed on every
        column it is the whole-row occurrence map."""
        vars_ = tuple(Var(f"c{i}") for i in range(len(columns)))
        body = mul(
            Rel(relation, vars_),
            *(
                vars_[position]
                for position, power in sorted(shape.folds)
                for _ in range(power)
            ),
        )
        keys = tuple(vars_[position].name for position in sorted(shape.keys))
        whole_row = len(keys) == len(columns)
        map_def = self.get_or_create(
            keys,
            body,
            hint=f"base_{relation.lower()}" if whole_row else relation.lower(),
            role="occurrence" if whole_row else "derived",
            number=self.reserve_base(relation),
        )
        return BaseMap(map_def.name, relation, columns, shape)

    def take_pending(self) -> list[MapDef]:
        pending, self.pending = self.pending, []
        return pending


class Materializer:
    """Rewrites one trigger expression, creating maps as needed.

    The binding context is threaded through the traversal: a variable bound
    by an *enclosing or preceding* factor (an event parameter, a map-loop
    output, a lift) correlates with occurrences inside nested aggregates,
    so it must become a key of any map materialised beneath it.
    """

    def __init__(
        self,
        registry: MapRegistry,
        bound: Iterable[str],
        derived_maps: bool = True,
    ) -> None:
        self.registry = registry
        self.bound = frozenset(bound)
        self.derived_maps = derived_maps

    def rewrite(self, expr: Expr, bound: Optional[frozenset] = None) -> Expr:
        """Replace all base-relation dependence with map references."""
        if bound is None:
            bound = self.bound
        if not contains_relation(expr):
            return expr

        if isinstance(expr, Rel):
            # Left in place: which columns the relation's base map keeps
            # depends on every reader, so atoms resolve once all of a
            # program's statements exist (:func:`read_base_maps`).
            self.registry.reserve_base(expr.name)
            return expr

        if isinstance(expr, Mul):
            running = set(bound)
            new_factors = []
            for factor in expr.factors:
                new_factors.append(self.rewrite(factor, frozenset(running)))
                running.update(output_vars(factor))
            return mul(*new_factors)

        if isinstance(expr, AggSum):
            materialized = self._materialize_aggsum(expr, bound)
            if materialized is not None:
                return materialized
            return AggSum(expr.group, self.rewrite(expr.body, bound))

        if isinstance(expr, Lift):
            return Lift(expr.var, self.rewrite(expr.body, bound))

        children = tuple(self.rewrite(c, bound) for c in expr.children())
        return expr.rebuild(children)

    def _materialize_aggsum(
        self, expr: AggSum, bound: frozenset
    ) -> Optional[Expr]:
        """Materialise a whole aggregate as one map, if maintainable."""
        if not self.derived_maps:
            return None
        ctx_keys = [
            v
            for v in ordered_vars(expr.body)
            if v in bound and v not in expr.group
        ]
        keys = tuple(ctx_keys) + tuple(expr.group)
        if not all(is_data_bound(k, expr.body) for k in keys):
            return None
        hint = "_".join(
            sorted({n.name.lower() for n in walk(expr) if isinstance(n, Rel)})
        )
        map_def = self.registry.get_or_create(keys, expr.body, hint=hint)
        return MapRef(map_def.name, tuple(Var(k) for k in keys))
