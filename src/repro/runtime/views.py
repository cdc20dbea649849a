"""The view layer: rendering SQL-visible results from maintained maps.

A query's result rows are derived from its aggregate-slot maps, one group
at a time, by the one :class:`GroupRenderer` every reader shares:

* group existence comes from the count slot (a group exists while its row
  count is non-zero — exact under deletions); a scalar query is the one
  group ``()``, which always has a row;
* ``sum``/``count`` slots read the map value directly (absent key = 0),
  or for a product slot (``program.products``) multiply the values of
  its maps at the group and sum the terms;
* ``avg`` items divide their two slots;
* ``min``/``max``/``distinct`` slots read their auxiliary cache (``program.slot_aux``), keyed by group like a sum slot.

:func:`query_results` renders every live group; the serving tap
(:class:`~repro.runtime.serving.ViewDeltaTap`) renders only the groups a
batch touched and orders their change with :func:`result_delta` — the
only place a delta is ordered.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection, Mapping, Optional

from repro.errors import EventError, RuntimeEngineError, TranslationError
from repro.algebra.translate import RConst, RGroup, RNeg, RSlot, TranslatedQuery
from repro.compiler.program import CompiledProgram, sum_of_products
from repro.ir.nodes import (
    Accum,
    AddTo,
    AppendTo,
    Assign,
    Clear,
    Finalize,
    FlushBuffer,
    ForEachMap,
    Name,
    ProgramIR,
    walk_stmts,
)


def result_map_names(program: CompiledProgram, view: str) -> list[str]:
    """The maps one view's rows are read from: its aggregate slot maps
    (a product slot's factors in its place) and their MIN/MAX/DISTINCT
    caches.  A batch changes the view's rows only by writing one of
    these."""
    names = [
        name
        for slot in program.slot_maps[view]
        for _, factors in _slot_terms(program, slot)
        for name in factors
    ]
    return list(dict.fromkeys([*names, *program.slot_aux.get(view, {}).values()]))


def _slot_terms(
    program: CompiledProgram, slot: str
) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """A sum slot's value as ``((coeff, (map, ...)), ...)``: its product
    terms, or its own map once."""
    return program.products.get(slot, ((1, (slot,)),))


def event_group_columns(
    ir: ProgramIR, program: CompiledProgram, view: str
) -> Optional[dict[str, tuple[tuple[int, ...], ...]]]:
    """Where a batch's rows say which groups of ``view`` it wrote: per
    relation, the event-column positions each group its trigger writes
    is read from (``(2,)``: the group is the row's third value), or
    ``None`` when some write's group is not a tuple of the trigger's
    parameters.

    The writes are those of the lowered triggers, per event and batch,
    to the view's result maps and to every occurrence map a
    MIN/MAX/DISTINCT cache of the view is kept from.  A group read from
    a loop or a map, or a restate's clear or cache rebuild of a grouped
    view, is not a row's to tell.  A scalar view's one group ``()`` is
    every write's."""
    width = len(_find_query(program, view).group_vars)
    watched = set(result_map_names(program, view))
    bodies = [
        (relation, trigger_ir)
        for (relation, _), trigger in ir.triggers.items()
        for trigger_ir in (trigger, ir.batch_triggers[relation, 0])
    ]
    for _, trigger_ir in bodies:
        for stmt in walk_stmts(trigger_ir.body):
            if isinstance(stmt, (AddTo, FlushBuffer)) and any(
                cache.slot.name in watched for cache in stmt.caches
            ):
                target = stmt.slot if isinstance(stmt, AddTo) else stmt.target
                watched.add(target.name)
    columns: dict[str, set[tuple[int, ...]]] = {}
    for relation, trigger_ir in bodies:
        found = columns.setdefault(relation, set())
        stmts = walk_stmts(trigger_ir.body)
        # A batch body's row loop binds the parameters to each row's
        # values, as the per-event call does; any other binding does not.
        rebound: set[str] = set()
        for stmt in stmts:
            if isinstance(stmt, (Assign, Accum)):
                rebound.add(stmt.name)
            elif isinstance(stmt, ForEachMap):
                rebound.add(stmt.value_var)
                rebound.update(name for _, name in stmt.binds)
        position = {
            name: index
            for index, name in enumerate(trigger_ir.params[1:])
            if name not in rebound
        }
        for stmt in stmts:
            if isinstance(stmt, (AddTo, AppendTo)):
                target = stmt.slot if isinstance(stmt, AddTo) else stmt.target
                if target.name not in watched:
                    continue
                group = stmt.keys[:width]
                if not all(
                    isinstance(key, Name) and key.name in position
                    for key in group
                ):
                    return None
                found.add(tuple(position[key.name] for key in group))
            elif isinstance(stmt, (Clear, Finalize)) and (
                stmt.target.name in watched
                or isinstance(stmt, Finalize) and stmt.source.name in watched
            ):
                if width:
                    return None
                found.add(())
    return {relation: tuple(sorted(found)) for relation, found in columns.items()}


class GroupRenderer:
    """One query's result rows, rendered group by group from ``maps``.

    Holds the map *objects* (not their names), so it stays valid for as
    long as those objects are the engine's; over merged or collected
    maps it is built per read.  ``width`` is the number of group columns:
    every key of a result map starts with its group (an occurrence-map
    key is ``group + (value,)``), so ``key[:width]`` is the group a
    written key belongs to.
    """

    def __init__(
        self,
        program: CompiledProgram,
        maps: Mapping[str, Mapping],
        query_name: Optional[str] = None,
    ) -> None:
        query = _find_query(program, query_name)
        slot_names = program.slot_maps[query.name]
        aux_slots = program.slot_aux.get(query.name, {})
        self.width = len(query.group_vars)
        #: per slot, its terms over the maps its value is read from
        slots = []
        for index, (spec, name) in enumerate(zip(query.aggregates, slot_names)):
            if spec.kind != "sum":
                if index not in aux_slots:
                    raise RuntimeEngineError(
                        f"{spec.kind} slot {name!r} of query {query.name!r} "
                        "has no auxiliary cache to read"
                    )
                name = aux_slots[index]
            slots.append(_slot_terms(program, name))
        reads = list(dict.fromkeys(
            name for terms in slots for _, factors in terms for name in factors
        ))
        position = {name: index for index, name in enumerate(reads)}
        source, constants = _row_source(query, [
            tuple(
                (coeff, tuple(position[name] for name in factors))
                for coeff, factors in terms
            )
            for terms in slots
        ])
        self._row, self._count = _compile_row(source)(
            [maps[name] for name in reads], constants
        )
        #: the maps whose keys hold every live group: a grouped query's
        #: count map, or the first factor of each term of a product count
        self._scan = [
            maps[factors[0]] for _, factors in slots[query.count_slot]
        ] if query.is_grouped else []
        #: whether that is a count map, whose non-zero entries are the
        #: live groups (the fast path)
        self._plain = (
            query.is_grouped
            and slot_names[query.count_slot] not in program.products
        )

    def live_groups(self) -> list[tuple]:
        """Group keys with at least one underlying row."""
        if self._count is None:
            return [()]
        if self._plain:
            return [key for key, value in self._scan[0].items() if value != 0]
        count = self._count
        keys = self._scan[0] if len(self._scan) == 1 else dict.fromkeys(
            key for scanned in self._scan for key in scanned
        )
        return [key for key in keys if count(key) != 0]

    def row(self, group: tuple) -> Optional[tuple]:
        """The result row of one group (group columns then item columns),
        or ``None`` when the group has no underlying row."""
        return self._row(group)


def _row_source(
    query: TranslatedQuery, slots: list[tuple[tuple[int, tuple[int, ...]], ...]]
) -> tuple[str, list]:
    """The source of ``make(sources, constants) -> (row(group), count)``
    for one query, and its constants.  ``slots[i]`` is slot ``i``'s
    value as ``((coeff, (source index, ...)), ...)``: the sum of each
    coefficient times the product of those sources at the group.
    ``row`` is ``eval_result`` of each item unrolled: each slot read
    once, a ``/`` by zero is 0; ``count(group)`` (``None`` for a scalar
    query) is the count slot's value.  Constants are arguments, so
    queries of one shape share one source."""
    constants: list = []
    used: set[int] = set()
    divisors: list[str] = []

    def emit(expr) -> str:
        if isinstance(expr, RSlot):
            used.add(expr.index)
            return f"s{expr.index}"
        if isinstance(expr, RGroup):
            return f"group[{expr.index}]"
        if isinstance(expr, RConst):
            constants.append(expr.value)
            return f"c{len(constants) - 1}"
        if isinstance(expr, RNeg):
            return f"(-{emit(expr.operand)})"
        left, right = emit(expr.left), emit(expr.right)
        if expr.op == "/":
            name = f"d{len(divisors)}"
            divisors.append(f"        {name} = {right}")
            return f"(0 if {name} == 0 else {left} / {name})"
        if expr.op not in ("+", "-", "*"):
            raise TranslationError(f"unknown result operator {expr.op!r}")
        return f"({left} {expr.op} {right})"

    read: set[int] = set()

    def value(index: int) -> str:
        for _, factors in slots[index]:
            read.update(factors)
        return sum_of_products(slots[index], "get{}(group, 0)".format)

    items = ", ".join(emit(item.result) for item in query.items)
    body = ["    def row(group):"]
    if query.is_grouped:
        count = value(query.count_slot)
        body.append(f"        if {count} == 0:\n            return None")
    body += [f"        s{i} = {value(i)}" for i in sorted(used)]
    body += divisors
    body.append(f"        return ({items},)")
    if query.is_grouped:
        body += ["    def count(group):", f"        return {count}"]
        body.append("    return row, count")
    else:
        body.append("    return row, None")
    lines = ["def make(sources, constants):"]
    lines += [f"    get{i} = sources[{i}].get" for i in sorted(read)]
    lines += [f"    c{i} = constants[{i}]" for i in range(len(constants))]
    return "\n".join(lines + body), constants


@lru_cache(maxsize=256)
def _compile_row(source: str):
    """The ``make`` function of one :func:`_row_source`, compiled once."""
    namespace: dict = {}
    exec(compile(source, "<result row>", "exec"), namespace)
    return namespace["make"]


def query_results(
    program: CompiledProgram,
    maps: Mapping[str, Mapping],
    query_name: Optional[str] = None,
) -> list[tuple]:
    """Result rows (group columns then item columns) for one query.

    With a single registered query ``query_name`` may be omitted.
    """
    renderer = GroupRenderer(program, maps, query_name)
    row = renderer.row
    return [row(group) for group in sorted(renderer.live_groups(), key=repr)]


def result_rows_to_dicts(query: TranslatedQuery, rows: list[tuple]) -> list[dict]:
    """Rows as dictionaries keyed by the query's output column names."""
    names = query.column_names
    return [dict(zip(names, row)) for row in rows]


def result_delta(
    previous: Mapping[tuple, int], current: Mapping[tuple, int]
) -> list[tuple[tuple, int]]:
    """The Z-set delta between two result-row multisets.

    Both sides map result rows to multiplicities (a query result is a
    multiset: two groups may render identical rows).  The returned
    ``[(row, weight), ...]`` pairs — positive weights assert rows,
    negative weights retract them — satisfy ``previous + delta ==
    current`` under multiset addition, which is exactly the contract the
    serving layer streams to subscribers (deterministically ordered for
    stable wire frames).
    """
    delta: list[tuple[tuple, int]] = []
    for row, count in current.items():
        weight = count - previous.get(row, 0)
        if weight:
            delta.append((row, weight))
    for row, count in previous.items():
        if count and row not in current:
            delta.append((row, -count))
    delta.sort(key=lambda pair: repr(pair[0]))
    return delta


def resolve_query_name(names: Collection[str], name: Optional[str]) -> str:
    """The query a reader means: ``name``, or the one query registered
    when ``name`` is ``None``.  Every engine and baseline resolves names
    here, so a missing or unknown name fails alike everywhere."""
    if name is None:
        if len(names) != 1:
            raise RuntimeEngineError(
                "query_name is required when multiple queries are registered"
            )
        return next(iter(names))
    if name not in names:
        raise RuntimeEngineError(f"unknown query {name!r}")
    return name


class ScalarResult:
    """``result_scalar`` for any reader with a ``results(query_name)``."""

    def result_scalar(self, query_name: Optional[str] = None):
        """The single value of a scalar (non-grouped, single-item) query."""
        rows = self.results(query_name)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise EventError("result_scalar requires a scalar single-item query")
        return rows[0][0]


def _find_query(program: CompiledProgram, name: Optional[str]) -> TranslatedQuery:
    queries = {query.name: query for query in program.queries}
    return queries[resolve_query_name(queries, name)]
