"""Second-order (delta-of-delta) batch absorption and the columnar spine.

The acceptance property: for self-reading triggers, batched executors
driven by the second-order accumulate-then-flush plan must stay
*map-identical* to per-event execution.  On random order books over vwap,
mst, psp, bbo and act, across executors, batch sizes and 1–4 shards, that
is ``tests/integration/test_map_parity.py``'s; here: the keyed-restate
and rejected-plan shapes, the delta orders, the plan's structure and the
columnar batch spine.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.delta import Event, batch_delta_order, second_order_delta
from repro.compiler import compile_sql
from repro.errors import AlgebraError
from repro.ir.lower import lower_program, plan_second_order
from repro.ir.nodes import Clear, ForEachMap, ForEachRow, walk_stmts
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.events import (
    EventBatch,
    columns_from_rows,
    partition_columns,
    partition_rows,
    rows_from_columns,
)
from repro.sql.catalog import Catalog
from tests import lanes

#: Keyed restatement: grouped root with a nested stream-derived threshold.
GROUPED_THRESHOLD = (
    "SELECT r.A, sum(r.B) FROM R r "
    "WHERE r.B > 0.5 * (SELECT sum(r1.B) FROM R r1) GROUP BY r.A"
)

#: Restates a FLOAT-valued map: the second-order plan is rejected.
FLOAT_THRESHOLD = (
    "SELECT sum(r.B) FROM R r WHERE r.B > 0.5 * (SELECT sum(r1.B) FROM R r1)"
)


@lru_cache(maxsize=None)
def _float_threshold():
    catalog = Catalog.from_script("CREATE STREAM R (A int, B float);")
    return compile_sql(FLOAT_THRESHOLD, catalog)


def _program(name: str):
    """A shipped finance query, compiled alone under its own name."""
    return lanes.shipped_program(name, name)


def per_event_maps(program, stream):
    engine = DeltaEngine(program)
    for event in stream:
        engine.process(event)
    return engine.maps


class TestSecondOrderParity:
    @pytest.mark.parametrize("mode", lanes.executors(_float_threshold()))
    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([1, -1]),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=-8, max_value=16).map(lambda n: n / 4),
            ),
            max_size=30,
        ),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    def test_rejected_plan_fallback_matches(self, mode, rows, batch_size):
        """A self-reading trigger whose plan is rejected (FLOAT values feed
        its restated map) runs the per-event body once per row."""
        program = _float_threshold()
        sinks = lower_program(program).batch_sinks[("R", 0)]
        assert {sink for _stmt, sink in sinks} == {"buffered"}
        stream = [StreamEvent("R", sign, (a, b)) for sign, a, b in rows]
        reference = per_event_maps(program, stream)
        engine = DeltaEngine(program, mode=mode)
        engine.process_stream(stream, batch_size=batch_size)
        assert engine.maps == reference

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=8),
            ),
            max_size=30,
        ),
        batch_size=st.integers(min_value=1, max_value=9),
    )
    def test_keyed_restatement_matches(self, rows, batch_size):
        """A grouped root with a nested threshold restates a *keyed* map:
        the flush clears it and re-derives every group."""
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql(GROUPED_THRESHOLD, catalog)
        stream = [StreamEvent("R", 1, row) for row in rows]
        reference = per_event_maps(program, stream)
        for mode in lanes.PYTHON_EXECUTORS:
            engine = DeltaEngine(program, mode=mode)
            engine.process_stream(stream, batch_size=batch_size)
            assert engine.maps == reference, mode


class TestDeltaOfDelta:
    def test_orders_on_vwap(self):
        program = _program("vwap")
        trigger = program.triggers[("bids", 0)]
        event = Event("bids", 0, trigger.params)
        orders = {
            name: batch_delta_order(map_def.defn, event)
            for name, map_def in program.maps.items()
        }
        assert orders["m1_bids"] == 1  # bids[volume] -> sum(price): linear
        assert orders["m2_bids"] == 1  # linear sum: state-independent
        assert orders["m3_bids"] == 2  # nested threshold: shifts per row
        assert orders["q_vwap_sum_0"] == 2

    @pytest.mark.parametrize("query", ["vwap", "mst"])
    def test_compiler_classifies_as_the_definition_does(self, query):
        """The orders the compiler keeps for the batch planner are
        ``batch_delta_order`` of every map each trigger writes."""
        program = _program(query)
        for (relation, sign), trigger in program.triggers.items():
            event = Event(relation, sign, trigger.params)
            assert program.delta_orders[(relation, sign)] == {
                s.target: batch_delta_order(program.maps[s.target].defn, event)
                for s in trigger.statements
            }

    def test_order_zero_for_unrelated_relation(self):
        program = _program("mst")
        event = Event("asks", 0, program.triggers[("asks", 0)].params)
        bids = program.base_maps["bids"].name
        assert batch_delta_order(program.maps[bids].defn, event) == 0

    def test_second_order_delta_requires_disjoint_params(self):
        program = _program("vwap")
        event = Event("bids", 0, program.triggers[("bids", 0)].params)
        with pytest.raises(AlgebraError):
            second_order_delta(program.maps["m2_bids"].defn, event, event)


class TestSecondOrderPlan:
    def test_vwap_plan_classifies_targets(self):
        program = _program("vwap")
        plan = plan_second_order(program.triggers[("bids", 0)], program)
        assert plan is not None
        assert set(plan.order) == {"m3_bids", "q_vwap_sum_0"}
        assert {s.target for s in plan.base} == {"m1_bids", "m2_bids"}
        assert program.base_maps["bids"].name == "m1_bids"
        # Restatements are definition re-evaluations over maintained maps:
        # no event parameters, no base relations.
        for statements in plan.restate.values():
            for statement in statements:
                assert statement.reads() <= set(program.maps)

    def test_independent_trigger_has_no_plan(self):
        program = _program("psp")
        trigger = program.triggers[("bids", 0)]
        assert plan_second_order(trigger, program) is None

    def test_float_valued_targets_reject_plan(self):
        """Inexact ring values (float column feeding a restated map) must
        fall back: the flush reorders additions."""
        catalog = Catalog.from_script("CREATE STREAM R (A int, B float);")
        program = compile_sql(FLOAT_THRESHOLD, catalog)
        trigger = program.triggers[("R", 0)]
        assert plan_second_order(trigger, program) is None
        sinks = lower_program(program).batch_sinks[("R", 0)]
        assert {sink for _stmt, sink in sinks} == {"buffered"}

    def test_batch_sinks_report_second_order(self):
        ir = lower_program(_program("vwap"))
        sinks = dict(ir.batch_sinks[("bids", 0)])
        assert "second-order" in sinks.values()

    def test_flush_structure_clears_before_recompute(self):
        """All Clears precede all restate scans, and the restate scans sit
        outside the row loop (once per batch)."""
        ir = lower_program(_program("vwap"))
        body = ir.batch_triggers[("bids", 0)].body
        flat = walk_stmts(body)
        clear_positions = [
            i for i, s in enumerate(flat) if isinstance(s, Clear)
        ]
        scan_positions = [
            i for i, s in enumerate(flat) if isinstance(s, ForEachMap)
        ]
        assert clear_positions and scan_positions
        assert max(clear_positions) < min(scan_positions)
        row_loops = [s for s in flat if isinstance(s, ForEachRow)]
        assert row_loops
        assert not any(
            isinstance(s, (ForEachMap, Clear))
            for loop in row_loops
            for s in walk_stmts(loop.body)
        )

    def test_restate_scans_fuse_into_one(self):
        """Two restated aggregates over the same base map share one scan
        (fuse-loops applies across the accumulate-then-flush shape)."""
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql(
            "SELECT sum(r.A), sum(r.A * r.B) FROM R r "
            "WHERE r.B > 0.5 * (SELECT sum(r1.B) FROM R r1)",
            catalog,
        )
        ir = lower_program(program)
        body = ir.batch_triggers[("R", 0)].body
        scans = [s for s in walk_stmts(body) if isinstance(s, ForEachMap)]
        assert len(scans) == 1


class TestColumnarBatch:
    def test_round_trip(self):
        rows = [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
        batch = EventBatch("bids", 1, rows)
        assert batch.columns == ([1, 4, 7], [2, 5, 8], [3, 6, 9])
        assert batch.rows == rows
        assert batch.row(1) == (4, 5, 6)
        again = EventBatch.from_columns("bids", 1, batch.columns)
        assert len(again) == 3
        assert again.rows == rows
        assert again.row(2) == (7, 8, 9)
        assert list(again) == [StreamEvent("bids", 1, row) for row in rows]

    def test_transpose_helpers(self):
        rows = [(1, "a"), (2, "b")]
        columns = columns_from_rows(rows)
        assert columns == ([1, 2], ["a", "b"])
        assert rows_from_columns(columns) == rows
        assert columns_from_rows([]) == ()
        assert rows_from_columns(()) == []

    def test_partition_columns_matches_partition_rows(self):
        rows = [(i % 5, i, i * 2) for i in range(23)]
        columns = columns_from_rows(rows)
        for shards in (1, 2, 3, 4):
            by_rows = partition_rows(rows, 0, shards)
            by_columns = partition_columns(columns, 0, shards)
            assert [rows_from_columns(c) for c in by_columns] == [
                [tuple(r) for r in shard] for shard in by_rows
            ]

    def test_generated_batch_loop_prunes_unused_columns(self):
        from repro.codegen.pygen import generate_module

        source = generate_module(_program("psp"))
        body = source.split("def on_bids_batch")[1].split("\ndef ")[0]
        # psp reads only the price column of bids: exactly that column
        # list and the weight column are iterated.
        assert "for __w, ev_bids_price in zip(__ws, __cols[3]):" in body


class TestIndexAccounting:
    def test_index_sizes_counted(self):
        program = _program("axf")  # per-broker band loops -> indexes
        engine = DeltaEngine(program)
        engine.process_stream(
            [
                StreamEvent("bids", 1, (1, i, i % 3, 10 + i, 5))
                for i in range(8)
            ]
            + [
                StreamEvent("asks", 1, (1, i, i % 3, 11 + i, 4))
                for i in range(8)
            ]
        )
        indexed = engine.index_sizes()
        assert sum(indexed.values()) > 0
        # Counted beside the maps they index, not inside them.
        assert set(indexed) <= set(engine.map_sizes())
        assert engine.total_entries() == sum(engine.map_sizes().values())

    def test_interpreted_engine_has_no_indexes(self):
        engine = DeltaEngine(_program("axf"), mode="interpreted")
        engine.insert("bids", 1, 1, 1, 10, 5)
        assert engine.index_sizes() == {}

    def test_sharded_index_sizes_sum_lanes(self):
        program = _program("axf")
        stream = [
            StreamEvent("bids", 1, (1, i, i % 4, 10 + i, 5)) for i in range(12)
        ] + [
            StreamEvent("asks", 1, (1, i, i % 4, 11 + i, 4)) for i in range(12)
        ]
        single = DeltaEngine(program)
        single.process_stream(stream, batch_size=64)
        with ShardedEngine(program, shards=3) as sharded:
            sharded.process_stream(stream, batch_size=64)
            totals = sharded.index_sizes()
            assert sum(totals.values()) > 0
            # The lanes index disjoint broker slices: their sum is the
            # unsharded engine's count.
            assert totals == single.index_sizes()
