"""Full re-evaluation baseline: the conventional-DBMS model.

A standing query answered by a conventional engine is refreshed by
re-running the whole query; this engine does exactly that through the
volcano plan interpreter after every update (``refresh="eager"``) or on
demand (``refresh="lazy"``, the favourable-to-the-baseline variant used
when benchmarking pure update cost).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.errors import EventError
from repro.sql.binder import BoundQuery, bind_query
from repro.sql.catalog import Catalog
from repro.sql.parser import parse_query
from repro.interpreter.executor import execute_query
from repro.interpreter.relations import Database
from repro.runtime.events import EventBatch, StreamEvent, batches


class ReevalEngine:
    """Re-executes every registered query per update (or per read)."""

    name = "reeval"

    def __init__(
        self,
        queries: dict[str, str],
        catalog: Catalog,
        refresh: str = "eager",
    ) -> None:
        if refresh not in ("eager", "lazy"):
            raise EventError(f"unknown refresh policy {refresh!r}")
        self.catalog = catalog
        self.refresh = refresh
        self.db = Database(catalog)
        self.bound: dict[str, BoundQuery] = {
            name: bind_query(parse_query(sql), catalog)
            for name, sql in queries.items()
        }
        self._cached: dict[str, list[tuple]] = {}
        self.events_processed = 0

    def __deepcopy__(self, memo: dict) -> "ReevalEngine":
        """Snapshot support: bound queries are keyed by AST node identity,
        so they are shared (immutable) rather than copied."""
        clone = ReevalEngine.__new__(ReevalEngine)
        clone.catalog = self.catalog
        clone.refresh = self.refresh
        clone.bound = self.bound
        clone.db = Database(self.catalog)
        for name, table in self.db.tables.items():
            clone.db.tables[name].rows = dict(table.rows)
        clone._cached = dict(self._cached)
        clone.events_processed = self.events_processed
        memo[id(self)] = clone
        return clone

    def process(self, event: StreamEvent) -> None:
        self.db.apply(event)
        self.events_processed += 1
        if self.refresh == "eager":
            self._refresh()

    def process_batch(self, relation: str, sign, rows: Sequence[Sequence]) -> int:
        """Apply a run of rows (``sign``: ``+1``/``-1`` or a per-row
        weight column), then refresh once.

        The legitimate batch optimisation for a re-evaluating DBMS: the
        standing query is re-run per *batch* instead of per event, so the
        bakeoff's batched comparisons stay apples-to-apples.
        """
        events = list(EventBatch(relation, sign, rows))
        for event in events:
            self.db.apply(event)
        self.events_processed += len(events)
        if self.refresh == "eager" and events:
            self._refresh()
        return len(events)

    def process_stream(
        self, events: Iterable, batch_size: Optional[int] = 1
    ) -> int:
        """Default ``batch_size=1`` preserves this baseline's defining
        semantics — a refresh per update; pass a larger size only for
        explicitly batched comparisons."""
        count = 0
        for batch in batches(events, batch_size):
            self.process_batch(batch.relation, batch.sign, batch.rows)
            count += len(batch.rows)
        return count

    def _refresh(self) -> None:
        for name, bound in self.bound.items():
            self._cached[name] = execute_query(bound, self.db)

    def insert(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, 1, tuple(values)))

    def delete(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, -1, tuple(values)))

    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        name = self._resolve_name(query_name)
        if self.refresh == "eager" and name in self._cached:
            return self._cached[name]
        return execute_query(self.bound[name], self.db)

    def result_scalar(self, query_name: Optional[str] = None):
        rows = self.results(query_name)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise EventError("result_scalar requires a scalar single-item query")
        return rows[0][0]

    def total_entries(self) -> int:
        """Live state size: base-table rows (distinct) across relations."""
        return sum(t.distinct_count() for t in self.db.tables.values())

    def _resolve_name(self, query_name: Optional[str]) -> str:
        if query_name is not None:
            if query_name not in self.bound:
                raise EventError(f"unknown query {query_name!r}")
            return query_name
        if len(self.bound) != 1:
            raise EventError("query_name required with multiple queries")
        return next(iter(self.bound))
