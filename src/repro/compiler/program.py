"""Data structures describing a compiled delta-processing program.

A :class:`CompiledProgram` is the compiler's output and the runtime's input:

* :class:`MapDef` — an in-memory map (generalised multiset relation) with a
  canonical defining query over base relations;
* :class:`Statement` — one ``map[key...] += expr`` update whose right-hand
  side references only maps, event parameters and constants;
* :class:`Trigger` — the ordered statements to run for one relation's
  events, inserts and deletes alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Optional

from repro.errors import CompilationError, EventError
from repro.algebra.expr import WEIGHT, Expr, maps_in, relations_in
from repro.algebra.schema import output_vars
from repro.algebra.translate import TranslatedQuery
from repro.sql.catalog import Column, SqlType


@dataclass
class CompileOptions:
    """Compiler knobs (also the levers for the ablation benchmarks).

    ``derived_maps=False`` disables the paper's recursive materialisation:
    deltas are evaluated directly over whole-row base-relation occurrence
    maps (no aggregate maps, no column narrowing), which is exactly
    classical first-order IVM (the "today's VM algorithms" the
    introduction compares against).
    """

    derived_maps: bool = True


@dataclass(frozen=True)
class ExecutorOptions:
    """How a program's triggers execute — one immutable value, validated
    once and handed whole from the public engine constructors down to
    the executor and every codegen helper, never field by field."""

    mode: str = "compiled"
    use_indexes: bool = True
    optimize: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("compiled", "native", "interpreted"):
            raise EventError(f"unknown engine mode {self.mode!r}")


class TriggerTable(NamedTuple):
    """What an executor's ``bind(maps)`` returns: the
    program's triggers bound to one engine's maps.

    ``per_event[(relation, 0)](weight, *values)`` applies one event of
    weight +1/-1, ``batch[(relation, 0)](columns, weights)`` a columnar
    run of them (one parallel list per event column, and the weights);
    ``index_entry_counts()`` reports the secondary-index entries this
    binding maintains, per indexed map.

    A trigger whose batch folds on its relation's partition column (a
    routed :class:`~repro.ir.nodes.ForEachGroup`) has two more entries,
    and its ``batch`` entry is the one applied to the other:
    ``folds[key](columns, weights)`` returns the run folded, ``{group
    value: [sums..., rows]}`` in order of first appearance, and reads no
    map; ``groups[key](pairs)`` runs the body over ``(group value,
    entry)`` pairs of such a fold — all of it, or the slice a shard lane
    owns — and returns the rows they stand for.
    """

    per_event: dict[tuple[str, int], Callable[..., None]]
    batch: dict[tuple[str, int], Callable[..., None]]
    index_entry_counts: Callable[[], dict[str, int]]
    folds: dict[tuple[str, int], Callable[..., dict]]
    groups: dict[tuple[str, int], Callable[..., None]]


@dataclass
class MapDef:
    """One maintained in-memory map.

    ``keys`` are the canonical key variable names (``__k0``, ``__k1``, ...);
    ``defn`` is the closed defining query ``AggSum(keys, body)`` over base
    relations, with exactly ``keys`` free.  ``role`` distinguishes root maps
    (aggregate slots of user queries) from derived maps introduced by the
    recursive compilation (including base-relation occurrence maps).
    """

    name: str
    keys: tuple[str, ...]
    defn: Expr
    role: str = "derived"  # "root" | "derived" | "occurrence" | "auxiliary"
    description: str = ""
    #: recursion depth: 0 for roots, parent+1 for maps materialised while
    #: compiling the parent's deltas (the "level" column of Figure 2).
    level: int = 0

    @property
    def arity(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"{self.name}[{','.join(self.keys)}] := {self.defn!r}"


@dataclass(frozen=True)
class ColumnUse:
    """How the columns of a base relation are used — by one reader of an
    atom, or (merged over every reader) by the relation's base map.

    ``keys`` are the column positions bound from outside the atom: a
    comparison, a join, a group or target key, an event parameter or a
    constant.  ``folds`` are ``(position, power)`` pairs for columns that
    are only multiplied by (``power`` bare factors of the column's
    variable).  A column in neither is read by nobody and summed out.
    """

    keys: frozenset[int]
    folds: frozenset[tuple[int, int]] = frozenset()

    def serves(self, use: "ColumnUse") -> bool:
        """Whether a base map of this shape answers a reader with
        ``use``: the reader must fold exactly what the map folded, and
        every other column it reads must be one of the map's keys."""
        return self.folds <= use.folds and all(
            position in self.keys
            for position in use.keys
            | {position for position, _ in use.folds - self.folds}
        )


@dataclass(frozen=True)
class BaseMap:
    """The one map a program's triggers read a base relation through."""

    name: str
    relation: str
    columns: tuple[str, ...]  # the relation's column names
    shape: ColumnUse
    #: which extremum caches threshold EXISTS tests read instead of
    #: scanning this map, or the gate that refused (compile trace).
    extremum: str = ""

    @property
    def keys(self) -> tuple[int, ...]:
        """Key column positions, in map-key order."""
        return tuple(sorted(self.shape.keys))

    def describe(self) -> str:
        """``keys <- columns read / folded / dropped; extremum: ...``
        (compile trace, generated-module header)."""
        folded = dict(self.shape.folds)
        parts = ["keys <- " + (", ".join(self.columns[p] for p in self.keys) or "()")]
        if folded:
            parts.append(
                "folded "
                + ", ".join(
                    self.columns[p] + (f"^{folded[p]}" if folded[p] > 1 else "")
                    for p in sorted(folded)
                )
            )
        dropped = [
            name
            for position, name in enumerate(self.columns)
            if position not in self.shape.keys and position not in folded
        ]
        if dropped:
            parts.append("dropped " + ", ".join(dropped))
        text = " / ".join(parts)
        return f"{text}; extremum: {self.extremum}" if self.extremum else text


@dataclass
class Statement:
    """``target[args...] += rhs`` (with implied loops over unbound keys).

    ``args[i]`` is an expression over event parameters/constants when the
    key position is fixed by the event, or ``Var(loop_var)`` when the
    position iterates; iterated variables are bound by evaluating ``rhs``
    (they are outputs of map references inside it).
    """

    target: str
    args: tuple[Expr, ...]
    rhs: Expr
    loop_vars: tuple[str, ...] = ()

    def reads(self) -> set[str]:
        """Names of maps the right-hand side reads."""
        return maps_in(self.rhs)

    def __repr__(self) -> str:
        inner = ",".join(repr(a) for a in self.args)
        loop = f" (foreach {','.join(self.loop_vars)})" if self.loop_vars else ""
        return f"{self.target}[{inner}] += {self.rhs!r}{loop}"


@dataclass(frozen=True)
class FinalizeSpec:
    """A non-linear auxiliary map derived from one occurrence map.

    Occurrence maps are keyed ``(group..., value) → multiplicity``; the
    auxiliary map caches, per group key, the current extreme value
    (``kind`` ``"min"``/``"max"``) or the number of distinct present
    values (``"distinct"``).  There is no closed-form delta for these
    aggregates — every write to the occurrence map that moves a key's
    multiplicity across zero updates the auxiliary, falling back to
    re-deriving a group from occurrence state when its current extremum
    is deleted (the eviction path).  The lowering attaches one
    :class:`repro.ir.nodes.Cache` per spec to every such write.
    """

    aux: str  # auxiliary map name
    kind: str  # "min" | "max" | "distinct"
    group_arity: int  # group-key prefix width of the occurrence keys

    @property
    def absent(self) -> object:
        """What the cache holds for an empty group, which it keeps no
        entry for: the extremum's identity (no distinct values: 0).  A
        statement reading the cache says so on its reference
        (:attr:`repro.algebra.expr.MapRef.absent`)."""
        return {"min": float("inf"), "max": float("-inf")}.get(self.kind, 0)


@dataclass
class Trigger:
    """All statements to execute for one event on ``relation``, of
    either sign: its weight (+1/-1) is the first argument."""

    relation: str
    params: tuple[str, ...]
    statements: list[Statement] = field(default_factory=list)

    @property
    def name(self) -> str:
        return f"on_{self.relation.lower()}"

    @property
    def signature(self) -> tuple[str, ...]:
        """The trigger's arguments: the weight, then ``params``."""
        return (WEIGHT,) + self.params

    def __repr__(self) -> str:
        head = f"{self.name}({', '.join(self.signature)}):"
        body = "\n".join(f"  {s!r}" for s in self.statements) or "  pass"
        return f"{head}\n{body}"


def float_columns(
    columns: dict[str, tuple[Column, ...]]
) -> dict[str, frozenset[int]]:
    """The FLOAT column positions of each relation that has one."""
    positions = {
        relation: frozenset(
            position
            for position, column in enumerate(declared)
            if column.type is SqlType.FLOAT
        )
        for relation, declared in columns.items()
    }
    return {relation: found for relation, found in positions.items() if found}


def _misfit(declared: tuple[Column, ...]) -> Callable[[Iterable], Optional[tuple]]:
    """The test of :attr:`CompiledProgram.misfits` for a relation of
    ``declared`` columns, as straight-line code: each value costs one
    ``type()`` test, a few times cheaper than ``map(type, row)``, which
    would be paid on every logged batch."""
    names = "".join(f"v{position}, " for position in range(len(declared)))
    tests = " or ".join(
        "(" + " and ".join(
            f"type(v{position}) is not {kind.__name__}"
            for kind in column.type.python_types
        ) + ")"
        for position, column in enumerate(declared)
    )
    namespace: dict = {}
    exec(
        "def misfit(rows):\n"
        "    for row in rows:\n"
        "        try:\n"
        f"            ({names}) = row\n"
        "        except ValueError:\n"
        "            return row\n"
        f"        if {tests or 'False'}:\n"
        "            return row\n",
        namespace,
    )
    return namespace["misfit"]


@dataclass
class CompiledProgram:
    """The full compiled artifact for a set of standing queries."""

    queries: list[TranslatedQuery]
    maps: dict[str, MapDef]
    #: one trigger per relation, keyed ``(relation, 0)``: sign 0, either
    triggers: dict[tuple[str, int], Trigger]
    #: query name -> per slot, its root map's name, or for a product
    #: slot (:attr:`products`) the name its product is read under
    slot_maps: dict[str, list[str]]
    options: CompileOptions = field(default_factory=CompileOptions)
    #: relations declared as static tables: they must be fully loaded
    #: before the first stream event (the engine enforces this).
    static_relations: set[str] = field(default_factory=set)
    #: each relation's columns as the catalog declares them (name and
    #: type), in event order: the values its rows may carry
    #: (:attr:`misfits`) and its FLOAT positions (:func:`float_columns`)
    #: are read off them.
    columns: dict[str, tuple[Column, ...]] = field(default_factory=dict)
    #: non-linear auxiliary maps: occurrence map name → the FinalizeSpecs
    #: maintained from it (MIN/MAX extremum caches, DISTINCT counters).
    finalizers: dict[str, tuple[FinalizeSpec, ...]] = field(default_factory=dict)
    #: query name → {slot index: auxiliary map name} for min/max/distinct
    #: slots — the view layer reads these instead of scanning occurrences.
    slot_aux: dict[str, dict[int, str]] = field(default_factory=dict)
    #: relation → the base map every trigger reads it through (relations
    #: only ever read inside whole materialised aggregates have none).
    base_maps: dict[str, BaseMap] = field(default_factory=dict)
    #: product slot name -> ``((coeff, (map, ...)), ...)``: a sum slot
    #: whose every monomial factors into maps keyed on its group is no
    #: map — the view layer reads ``Σ coeff × Π map[group]``
    #: (:func:`repro.compiler.compile.product_terms`).
    products: dict[str, tuple[tuple[int, tuple[str, ...]], ...]] = field(
        default_factory=dict
    )
    #: trigger key → {map its trigger writes: the
    #: :func:`repro.algebra.delta.batch_delta_order` of the map's
    #: definition under the relation's event} — classified by ``compile_queries``
    #: from the deltas it derives, read by the second-order batch planner.
    delta_orders: dict[tuple[str, int], dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __deepcopy__(self, memo: dict) -> "CompiledProgram":
        """A program copies as itself: nothing mutates it after
        ``compile_queries`` (the analyses memoised on it, such as
        :attr:`misfits`, are pure), and
        engines, lanes and executors all share the one object."""
        return self

    def __copy__(self) -> "CompiledProgram":
        return self

    @cached_property
    def misfits(self) -> dict[str, Callable[[Iterable], Optional[tuple]]]:
        """Per relation, the function that returns the first of some rows
        that does not hold one value per column, each of a type the column
        takes (:attr:`~repro.sql.catalog.SqlType.python_types`), or
        ``None``: what :func:`repro.runtime.engine.check_values` asks.  A
        pure function of :attr:`columns`, generated (:func:`_misfit`)."""
        return {
            relation: _misfit(declared)
            for relation, declared in self.columns.items()
        }

    def trigger_for(self, relation: str) -> Optional[Trigger]:
        """The trigger a ``relation``'s events run, of either sign."""
        return self.triggers.get((relation, 0))

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(sorted({rel for rel, _ in self.triggers}))

    def statements_count(self) -> int:
        return sum(len(t.statements) for t in self.triggers.values())

    def factored_extrema(self) -> list[str]:
        """One line per MIN/MAX/DISTINCT slot whose occurrence map dropped
        join factors (:func:`repro.algebra.translate.factor_occurrence`):
        its map, what it is kept over and the relations it dropped."""
        lines = []
        for query in self.queries:
            for spec, name in zip(query.aggregates, self.slot_maps[query.name]):
                if spec.dropped:
                    lines.append(
                        f"{name}: {spec.kind} over "
                        f"{', '.join(sorted(relations_in(spec.expr)))}; "
                        f"{', '.join(spec.dropped)} dropped "
                        "(a per-group count, non-zero on every live group)"
                    )
        return lines

    def product_views(self) -> list[str]:
        """One line per product slot: ``name = m1[g] × m2[g]``, its
        terms joined by ``+``/``−`` (``[]`` keys a scalar slot)."""
        def factor(name: str) -> str:
            return f"{name}[{'g' if self.maps[name].keys else ''}]"

        return [
            f"{name} = {sum_of_products(terms, factor, ' × ', '−')}"
            for name, terms in self.products.items()
        ]

    def describe(self) -> str:
        """Human-readable dump (used by the Figure 2 reproduction)."""
        lines: list[str] = ["== maps =="]
        for map_def in self.maps.values():
            role = f" ({map_def.role})" if map_def.role != "derived" else ""
            lines.append(f"{map_def!r}{role}")
        lines.append("")
        if self.products:
            lines.append("== product views ==")
            lines.extend(self.product_views())
            lines.append("")
        lines.append("== triggers ==")
        for key in sorted(self.triggers):
            lines.append(repr(self.triggers[key]))
            lines.append("")
        return "\n".join(lines)


def sum_of_products(
    terms: Iterable[tuple[int, tuple]],
    factor: Callable[[object], str],
    times: str = " * ",
    minus: str = "-",
) -> str:
    """``Σ coeff × Π factor`` as text, one term per ``(coeff, factors)``
    of ``terms``: a coefficient of ±1 shows only as the term's sign."""
    text = ""
    for coeff, factors in terms:
        term = times.join(factor(item) for item in factors)
        if abs(coeff) != 1:
            term = f"{abs(coeff)}{times}{term}"
        if coeff < 0:
            text += f" {minus} {term}" if text else f"{minus}{term}"
        else:
            text += f" + {term}" if text else term
    return text


def order_statements(statements: list[Statement]) -> list[Statement]:
    """Order a trigger's statements so every read sees pre-event state.

    A statement reading map X must run before the statement(s) writing X.
    Cycles (mutual read/write, or self-reference) fall back to keeping the
    original order; the runtime then buffers those statements' deltas in a
    two-phase apply (see ``needs_buffering``).
    """
    n = len(statements)
    if n <= 1:
        return list(statements)
    # edges[i] -> j means i must run before j.
    edges: dict[int, set[int]] = {i: set() for i in range(n)}
    indegree = [0] * n
    for i, reader in enumerate(statements):
        reads = reader.reads()
        for j, writer in enumerate(statements):
            if i == j:
                continue
            if writer.target in reads:
                if j not in edges[i]:
                    edges[i].add(j)
                    indegree[j] += 1
    ready = sorted(i for i in range(n) if indegree[i] == 0)
    ordered: list[int] = []
    while ready:
        i = ready.pop(0)
        ordered.append(i)
        for j in sorted(edges[i]):
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
        ready.sort()
    if len(ordered) != n:
        # A dependency cycle: preserve input order for the remainder; the
        # executor buffers all updates, so correctness is unaffected.
        ordered.extend(i for i in range(n) if i not in ordered)
    return [statements[i] for i in ordered]


def needs_buffering(
    statements: list[Statement],
    finalizers: Optional[dict[str, tuple[FinalizeSpec, ...]]] = None,
) -> bool:
    """True when the (ordered) statements still conflict.

    That happens when a statement reads a map that an *earlier* statement
    wrote (a cycle survived ordering) or reads its own target.  With
    ``finalizers``, reading a MIN/MAX/DISTINCT cache reads the occurrence
    map it is kept from: a write to that map updates the cache at once.
    """
    sources = {
        spec.aux: name
        for name, specs in (finalizers or {}).items()
        for spec in specs
    }
    written: set[str] = set()
    for statement in statements:
        reads = statement.reads()
        reads |= {sources[name] for name in reads if name in sources}
        if statement.target in reads:
            return True
        if written & reads:
            return True
        written.add(statement.target)
    return False


def validate_statement(statement: Statement) -> None:
    """Sanity checks used by tests and the code generators."""
    arg_loop_vars = {
        a.name
        for a in statement.args
        if hasattr(a, "name") and a.name in statement.loop_vars
    }
    rhs_outputs = set(output_vars(statement.rhs))
    missing = set(statement.loop_vars) - rhs_outputs
    if missing:
        raise CompilationError(
            f"loop variables {sorted(missing)} of {statement!r} are not bound "
            "by the right-hand side"
        )
    if arg_loop_vars - set(statement.loop_vars):
        raise CompilationError(f"inconsistent loop variables in {statement!r}")
