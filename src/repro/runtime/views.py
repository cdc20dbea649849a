"""The view layer: rendering SQL-visible results from maintained maps.

A query's result rows are derived from its aggregate-slot maps, one group
at a time, by the one :class:`GroupRenderer` every reader shares:

* group existence comes from the count slot (a group exists while its row
  count is non-zero — exact under deletions); a scalar query is the one
  group ``()``, which always has a row;
* ``sum``/``count`` slots read the map value directly (absent key = 0);
* ``avg`` items divide their two slots;
* ``min``/``max``/``distinct`` slots read their Finalize-maintained
  auxiliary cache (``program.slot_aux``), keyed by group like a sum slot.

:func:`query_results` renders every live group; the serving tap
(:class:`~repro.runtime.serving.ViewDeltaTap`) renders only the groups a
batch touched and orders their change with :func:`result_delta` — the
only place a delta is ordered.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import RuntimeEngineError
from repro.algebra.translate import TranslatedQuery, eval_result
from repro.compiler.program import CompiledProgram


def result_map_names(program: CompiledProgram, view: str) -> list[str]:
    """The maps one view's rows are read from: its aggregate slot maps
    and their Finalize caches.  A batch changes the view's rows only by
    writing one of these."""
    return [*program.slot_maps[view], *program.slot_aux.get(view, {}).values()]


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
        #: per slot, the map its value is read from, keyed by group
        self._sources = []
        for index, (spec, name) in enumerate(zip(query.aggregates, slot_names)):
            if spec.kind != "sum":
                if index not in aux_slots:
                    raise RuntimeEngineError(
                        f"{spec.kind} slot {name!r} of query {query.name!r} "
                        "has no Finalize cache to read"
                    )
                name = aux_slots[index]
            self._sources.append(maps[name])
        self._counts = (
            maps[slot_names[query.count_slot]] if query.is_grouped else None
        )
        self._results = [item.result for item in query.items]

    def live_groups(self) -> list[tuple]:
        """Group keys with at least one underlying row."""
        if self._counts is None:
            return [()]
        return [key for key, value in self._counts.items() if value != 0]

    def row(self, group: tuple) -> Optional[tuple]:
        """The result row of one group (group columns then item columns),
        or ``None`` when the group has no underlying row."""
        counts = self._counts
        if counts is not None and counts.get(group, 0) == 0:
            return None
        slot_values = [source.get(group, 0) for source in self._sources]
        return tuple(
            [eval_result(result, group, slot_values) for result in self._results]
        )


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


def _find_query(program: CompiledProgram, name: Optional[str]) -> TranslatedQuery:
    if name is None:
        if len(program.queries) != 1:
            raise RuntimeEngineError(
                "query_name is required when multiple queries are registered"
            )
        return program.queries[0]
    for query in program.queries:
        if query.name == name:
            return query
    raise RuntimeEngineError(f"unknown query {name!r}")
