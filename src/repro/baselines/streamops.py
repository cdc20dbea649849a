"""An interpreted incremental operator network (the STREAM stand-in).

Queries run as a left-deep pipeline of stateful operators: per-table filter
operators feed binary join operators that *materialise both inputs* (the
classic symmetric hash join of stream engines), and a grouped aggregate
operator sits at the sink.  Deltas propagate tuple-at-a-time through the
interpreted network.

Two properties faithfully model the systems the paper compares against:

* every join materialises its intermediate result (memory grows with
  intermediate sizes — the contrast for the memory experiment), and
* correlated subqueries / nested aggregates are rejected
  (:class:`UnsupportedQueryError`) — order-book queries like VWAP are
  exactly where the paper notes its approach "stands alone".
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional

from repro.errors import UnsupportedQueryError
from repro.sql.ast import (
    AggregateCall,
    Arith,
    BetweenExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    ExistsExpr,
    InExpr,
    Literal,
    Not,
    ScalarSubquery,
    SelectQuery,
    Star,
    UnaryMinus,
    walk,
)
from repro.sql.binder import BoundQuery, bind_query
from repro.sql.catalog import Catalog
from repro.sql.parser import parse_query
from repro.runtime.events import EventBatch, StreamEvent, batches
from repro.runtime.views import ScalarResult, resolve_query_name

ValueFn = Callable[[tuple], object]


def _divide(left, right):
    """The query surface's ``/``: true division, with x/0 = 0."""
    return 0 if right == 0 else left / right


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}
_COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Scope:
    """Row closures for one row layout: ``positions`` maps a column's
    ``(binding, column)`` to its index in the row.  Subqueries never
    reach here (:meth:`_Pipeline._reject_unsupported`)."""

    def __init__(self, bound: BoundQuery, positions: dict[tuple[str, str], int]):
        self.bound = bound
        self.positions = positions

    def scalar(self, expr) -> ValueFn:
        if isinstance(expr, Literal):
            value = expr.value
            return lambda row: value
        if isinstance(expr, ColumnRef):
            resolution = self.bound.resolve(expr)
            return operator.itemgetter(
                self.positions[(resolution.binding, resolution.column.lower())]
            )
        if isinstance(expr, UnaryMinus):
            inner = self.scalar(expr.operand)
            return lambda row: -inner(row)
        if isinstance(expr, Arith):
            left, right = self.scalar(expr.left), self.scalar(expr.right)
            apply = _ARITH[expr.op]
            return lambda row: apply(left(row), right(row))
        raise UnsupportedQueryError(f"unsupported scalar expression {expr!r}")

    def predicate(self, expr) -> ValueFn:
        if isinstance(expr, Comparison):
            left, right = self.scalar(expr.left), self.scalar(expr.right)
            compare = _COMPARE[expr.op]
            return lambda row: compare(left(row), right(row))
        if isinstance(expr, BetweenExpr):
            operand = self.scalar(expr.operand)
            low, high = self.scalar(expr.low), self.scalar(expr.high)
            return lambda row: low(row) <= operand(row) <= high(row)
        if isinstance(expr, BoolOp):
            operands = [self.predicate(o) for o in expr.operands]
            if expr.op == "AND":
                return lambda row: all(o(row) for o in operands)
            return lambda row: any(o(row) for o in operands)
        if isinstance(expr, Not):
            inner = self.predicate(expr.operand)
            return lambda row: not inner(row)
        raise UnsupportedQueryError(f"unsupported predicate {expr!r}")


def _split_conjuncts(expr) -> list:
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "AND":
        return [c for operand in expr.operands for c in _split_conjuncts(operand)]
    return [expr]


def _tables_of(expr, bound: BoundQuery) -> set[str]:
    """The bindings an expression's columns come from."""
    return {
        bound.resolve(node).binding
        for node in walk(expr)
        if isinstance(node, ColumnRef)
    }


def _eval_item(expr, agg_values: dict[int, object]):
    """A select item's value from its aggregates' finished values."""
    if isinstance(expr, AggregateCall):
        return agg_values[id(expr)]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryMinus):
        return -_eval_item(expr.operand, agg_values)
    if isinstance(expr, Arith):
        return _ARITH[expr.op](
            _eval_item(expr.left, agg_values), _eval_item(expr.right, agg_values)
        )
    raise UnsupportedQueryError(f"unsupported select item {expr!r}")


class _JoinOp:
    """Symmetric hash join with materialised state on both inputs."""

    __slots__ = ("left_key", "right_key", "left_state", "right_state")

    def __init__(self, left_key, right_key) -> None:
        self.left_key = left_key
        self.right_key = right_key
        self.left_state: dict[tuple, dict[tuple, int]] = {}
        self.right_state: dict[tuple, dict[tuple, int]] = {}

    def on_left(self, row: tuple, mult: int) -> list[tuple[tuple, int]]:
        key = self.left_key(row)
        _bag_update(self.left_state, key, row, mult)
        matches = self.right_state.get(key)
        if not matches:
            return []
        return [(row + other, mult * m) for other, m in matches.items()]

    def on_right(self, row: tuple, mult: int) -> list[tuple[tuple, int]]:
        key = self.right_key(row)
        _bag_update(self.right_state, key, row, mult)
        matches = self.left_state.get(key)
        if not matches:
            return []
        return [(other + row, mult * m) for other, m in matches.items()]

    def state_entries(self) -> int:
        return sum(len(v) for v in self.left_state.values()) + sum(
            len(v) for v in self.right_state.values()
        )


def _bag_update(state, key, row, mult) -> None:
    bucket = state.setdefault(key, {})
    updated = bucket.get(row, 0) + mult
    if updated == 0:
        del bucket[row]
        if not bucket:
            del state[key]
    else:
        bucket[row] = updated


class _AggSink:
    """Grouped aggregation with incremental state."""

    def __init__(self, bound: BoundQuery, group_fns, agg_calls, value_fns):
        self.bound = bound
        self.group_fns = group_fns
        self.agg_calls = agg_calls
        self.value_fns = value_fns
        # group key -> [row_count, [per-aggregate state...]]
        self.groups: dict[tuple, list] = {}

    def on_delta(self, row: tuple, mult: int) -> None:
        key = tuple(fn(row) for fn in self.group_fns)
        state = self.groups.get(key)
        if state is None:
            state = [0, [self._new_state(c) for c in self.agg_calls]]
            self.groups[key] = state
        state[0] += mult
        for index, call in enumerate(self.agg_calls):
            value = (
                None
                if self.value_fns[index] is None
                else self.value_fns[index](row)
            )
            self._update(state[1][index], call, value, mult)
        if state[0] == 0:
            del self.groups[key]

    @staticmethod
    def _new_state(call: AggregateCall):
        if call.func in ("SUM", "COUNT"):
            return [0]
        if call.func == "AVG":
            return [0, 0]
        return [{}]  # MIN/MAX: value -> count multiset

    @staticmethod
    def _update(state, call: AggregateCall, value, mult: int) -> None:
        if call.func == "COUNT":
            state[0] += mult
        elif call.func == "SUM":
            state[0] += value * mult
        elif call.func == "AVG":
            state[0] += value * mult
            state[1] += mult
        else:  # MIN / MAX keep an exact multiset (deletions need it)
            counts = state[0]
            updated = counts.get(value, 0) + mult
            if updated == 0:
                del counts[value]
            else:
                counts[value] = updated

    @staticmethod
    def _finish(state, call: AggregateCall):
        if call.func == "AVG":
            return 0 if state[1] == 0 else state[0] / state[1]
        if call.func in ("MIN", "MAX"):
            if not state[0]:
                return 0
            return min(state[0]) if call.func == "MIN" else max(state[0])
        return state[0]

    def rows(self, query: SelectQuery) -> list[tuple]:
        group_keys = [
            (self.bound.resolve(c).binding, self.bound.resolve(c).column.lower())
            for c in query.group_by
        ]
        results = []
        for key in sorted(self.groups, key=repr):
            _count, states = self.groups[key]
            agg_values = {
                id(call): self._finish(state, call)
                for call, state in zip(self.agg_calls, states)
            }
            row_values = []
            for info, item in zip(self.bound.item_info, query.items):
                if not info.is_aggregate:
                    resolution = self.bound.resolve(item.expr)
                    row_values.append(
                        key[
                            group_keys.index(
                                (resolution.binding, resolution.column.lower())
                            )
                        ]
                    )
                else:
                    row_values.append(_eval_item(item.expr, agg_values))
            results.append(tuple(row_values))
        if not query.group_by and not results:
            # Scalar query over an empty stream still has one (zero) row.
            empty = {
                id(call): self._finish(self._new_state(call), call)
                for call in self.agg_calls
            }
            results.append(
                tuple(_eval_item(item.expr, empty) for item in query.items)
            )
        return results

    def state_entries(self) -> int:
        return len(self.groups)


class _Pipeline:
    """The operator network for one query."""

    def __init__(self, bound: BoundQuery, catalog: Catalog) -> None:
        self.bound = bound
        self.catalog = catalog
        query = bound.query
        self._reject_unsupported(query)

        self.bindings = [t.binding.lower() for t in query.tables]
        self.relations = [catalog.get(t.name).name for t in query.tables]
        self.table_cols = [
            [c.name.lower() for c in catalog.get(t.name).columns]
            for t in query.tables
        ]

        # Composed-row layout: declaration order.
        positions: dict[tuple[str, str], int] = {}
        offset = 0
        for binding, cols in zip(self.bindings, self.table_cols):
            for i, col in enumerate(cols):
                positions[(binding, col)] = offset + i
            offset += len(cols)
        scope = _Scope(bound, positions)

        conjuncts = _split_conjuncts(query.where)
        self.table_filters: list[list] = [[] for _ in self.bindings]
        join_conjuncts: list[tuple[int, Comparison]] = []
        residual = []
        for conjunct in conjuncts:
            touched = _tables_of(conjunct, bound)
            if len(touched) == 1:
                index = self.bindings.index(next(iter(touched)))
                self.table_filters[index].append(conjunct)
                continue
            latest = max(self.bindings.index(b) for b in touched)
            if (
                len(touched) == 2
                and isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                join_conjuncts.append((latest, conjunct))
            else:
                residual.append((latest, conjunct))

        # Per-table filter functions over single-table rows.
        self.filter_fns: list[Optional[Callable]] = []
        for index, binding in enumerate(self.bindings):
            if not self.table_filters[index]:
                self.filter_fns.append(None)
                continue
            local_scope = _Scope(
                bound,
                {(binding, col): i for i, col in enumerate(self.table_cols[index])},
            )
            predicates = [local_scope.predicate(c) for c in self.table_filters[index]]
            self.filter_fns.append(
                lambda row, _p=tuple(predicates): all(f(row) for f in _p)
            )

        # Build the left-deep join ladder: join k combines tables 0..k-1
        # with table k on the equality conjuncts anchored at k.
        self.joins: list[_JoinOp] = []
        prefix_width = [0]
        for cols in self.table_cols:
            prefix_width.append(prefix_width[-1] + len(cols))
        for k in range(1, len(self.bindings)):
            left_positions: list[int] = []
            right_positions: list[int] = []
            for latest, conjunct in join_conjuncts:
                if latest != k:
                    continue
                lres = bound.resolve(conjunct.left)
                rres = bound.resolve(conjunct.right)
                sides = {}
                for res in (lres, rres):
                    table_index = self.bindings.index(res.binding)
                    col_index = self.table_cols[table_index].index(
                        res.column.lower()
                    )
                    if table_index == k:
                        sides["right"] = col_index
                    else:
                        sides["left"] = prefix_width[table_index] + col_index
                if "left" not in sides or "right" not in sides:
                    residual.append((latest, conjunct))
                    continue
                left_positions.append(sides["left"])
                right_positions.append(sides["right"])
            self.joins.append(
                _JoinOp(
                    left_key=lambda row, _p=tuple(left_positions): tuple(
                        row[i] for i in _p
                    ),
                    right_key=lambda row, _p=tuple(right_positions): tuple(
                        row[i] for i in _p
                    ),
                )
            )

        self.residual_fns = [
            scope.predicate(c) for _latest, c in residual
        ]

        group_fns = [scope.scalar(c) for c in query.group_by]
        agg_calls: list[AggregateCall] = []
        for info in bound.item_info:
            agg_calls.extend(info.aggregates)
        value_fns = [
            None
            if isinstance(c.argument, Star)
            else scope.scalar(c.argument)
            for c in agg_calls
        ]
        self.sink = _AggSink(bound, group_fns, agg_calls, value_fns)

    @staticmethod
    def _reject_unsupported(query: SelectQuery) -> None:
        if any(
            isinstance(node, (ExistsExpr, InExpr, ScalarSubquery))
            for node in walk(query)
        ):
            raise UnsupportedQueryError(
                "stream operator networks do not support subqueries or "
                "nested aggregates (per the systems the paper compares "
                "against)"
            )

    # -- delta propagation ---------------------------------------------------

    def on_event(self, event: StreamEvent) -> None:
        for index, relation in enumerate(self.relations):
            if relation != event.relation:
                continue
            row, mult = event.values, event.sign
            if self.filter_fns[index] is not None and not self.filter_fns[index](row):
                continue
            self._propagate(index, row, mult)

    def _propagate(self, table_index: int, row: tuple, mult: int) -> None:
        if len(self.bindings) == 1:
            deltas = [(row, mult)]
        elif table_index == 0:
            deltas = self.joins[0].on_left(row, mult)
            deltas = self._through_ladder(1, deltas)
        else:
            join = self.joins[table_index - 1]
            deltas = join.on_right(row, mult)
            deltas = self._through_ladder(table_index, deltas)
        for out_row, out_mult in deltas:
            if all(f(out_row) for f in self.residual_fns):
                self.sink.on_delta(out_row, out_mult)

    def _through_ladder(self, start: int, deltas) -> list[tuple[tuple, int]]:
        current = deltas
        for join in self.joins[start:]:
            next_deltas: list[tuple[tuple, int]] = []
            for row, mult in current:
                next_deltas.extend(join.on_left(row, mult))
            current = next_deltas
        return current

    def results(self) -> list[tuple]:
        return self.sink.rows(self.bound.query)

    def state_entries(self) -> int:
        return sum(j.state_entries() for j in self.joins) + self.sink.state_entries()


class StreamOpEngine(ScalarResult):
    """Standing queries over interpreted incremental operator networks."""

    name = "streamops"

    def __init__(self, queries: dict[str, str], catalog: Catalog) -> None:
        self.catalog = catalog
        self.pipelines = {
            name: _Pipeline(bind_query(parse_query(sql), catalog), catalog)
            for name, sql in queries.items()
        }
        self.events_processed = 0

    def process(self, event: StreamEvent) -> None:
        for pipeline in self.pipelines.values():
            pipeline.on_event(event)
        self.events_processed += 1

    def process_batch(self, relation: str, sign, rows) -> int:
        """Batched delivery, tuple-at-a-time execution (``sign``:
        ``+1``/``-1`` or a per-row weight column).

        The operator network is inherently tuple-at-a-time, so batching
        amortises only the delivery loop — faithfully modelling the engines
        the paper compares against.
        """
        count = 0
        for event in EventBatch(relation, sign, rows):
            self.process(event)
            count += 1
        return count

    def process_stream(
        self, events: Iterable, batch_size: Optional[int] = 1024
    ) -> int:
        count = 0
        for batch in batches(events, batch_size):
            self.process_batch(batch.relation, batch.sign, batch.rows)
            count += len(batch.rows)
        return count

    def insert(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, 1, tuple(values)))

    def delete(self, relation: str, *values) -> None:
        self.process(StreamEvent(relation, -1, tuple(values)))

    def results(self, query_name: Optional[str] = None) -> list[tuple]:
        name = resolve_query_name(self.pipelines, query_name)
        return self.pipelines[name].results()

    def total_entries(self) -> int:
        return sum(p.state_entries() for p in self.pipelines.values())
