"""ShardedEngine behaviour: routing, merging, fallback, lifecycle.

The deep equivalence properties live in
``tests/integration/test_map_parity.py``; these tests pin the
engine-level contract — counters, static-table enforcement, strict mode,
the serial fallback, the worker-process backend and its error surfacing.
"""

import functools
import os

import pytest

from repro.compiler import compile_sql
from repro.errors import EventError, UnknownStreamError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.sql.catalog import Catalog
from tests.lanes import order_book, shipped_program

RST_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
"""

GROUPED = "SELECT A, sum(B) FROM R GROUP BY A"


def _grouped_program():
    return compile_sql(GROUPED, Catalog.from_script(RST_DDL))


@functools.lru_cache(maxsize=None)
def _finance_case(sql):
    from repro.workloads.finance import finance_catalog

    return compile_sql(sql, finance_catalog()), order_book(2009, 5000)


#: name -> () -> (program, events).  The float-literal sums are the
#: regression inputs: their ring values are not exact integers, so a
#: cross-shard (re-associated) sum would differ from the serial one in
#: the last bits — the partitioning analysis must keep them on one lane.
SINGLE_ENGINE_CASES = {
    "grouped-int": lambda: (
        _grouped_program(),
        [
            StreamEvent("R", 1, row)
            for row in [(1, 10), (2, 20), (1, 5), (3, 7), (2, -20)]
        ],
    ),
    "float-literal-sum": lambda: _finance_case(
        "SELECT SUM(0.1 * b.volume) FROM bids b"
    ),
    # Group key broker_id; the column the analysis would route bids on
    # (were the sum exact) is t, so shards would share every group.
    "float-literal-grouped": lambda: _finance_case(
        "SELECT b.broker_id, SUM(0.1 * b.volume) FROM bids b "
        "GROUP BY b.broker_id"
    ),
}


class TestBasics:
    @pytest.mark.parametrize(
        "parallel",
        [
            False,
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not hasattr(os, "fork"), reason="needs POSIX fork"
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("shards", [2, 3, 4])
    @pytest.mark.parametrize("case", sorted(SINGLE_ENGINE_CASES))
    def test_results_match_single_engine(self, case, shards, parallel):
        program, events = SINGLE_ENGINE_CASES[case]()
        single = DeltaEngine(program)
        single.process_stream(events)
        with ShardedEngine(program, shards=shards, parallel=parallel) as sharded:
            sharded.process_stream(events, batch_size=100)
            # repr: bit-identical floats, and 1 is not 1.0.
            assert repr(sharded.results()) == repr(single.results())
            assert repr(sharded.results_dict()) == repr(single.results_dict())
            assert sharded.current_maps() == single.maps
            assert sharded.events_processed == single.events_processed

    def test_delete_events_route_like_inserts(self):
        program = _grouped_program()
        single = DeltaEngine(program)
        sharded = ShardedEngine(program, shards=4)
        for engine in (single, sharded):
            engine.insert("R", 1, 10)
            engine.delete("R", 1, 10)
        assert sharded.current_maps() == single.maps

    def test_map_view_and_sizes_are_merged(self):
        program = _grouped_program()
        sharded = ShardedEngine(program, shards=4)
        for a in range(8):
            sharded.insert("R", a, 1)
        name = program.slot_maps["q"][0]
        assert len(sharded.map_view(name)) == 8
        assert sharded.map_sizes()[name] == 8
        assert sharded.total_entries() == sum(sharded.map_sizes().values())

    def test_scalar_equi_join_shards_on_the_join_key(self):
        # The root map is additive (write-only), so even a scalar
        # aggregate shards when every derived map keys on the join column.
        program = compile_sql(
            "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B = s.B",
            Catalog.from_script(RST_DDL),
        )
        sharded = ShardedEngine(program, shards=4)
        assert sharded.spec.partitionable
        sharded.insert("R", 2, 1)
        sharded.insert("S", 1, 100)
        assert sharded.result_scalar() == 200

    def test_result_scalar_on_serial_fallback(self):
        # A cross product reads zero-key running sums: the serial lane.
        program = compile_sql(
            "SELECT sum(r.A * s.C) FROM R r, S s",
            Catalog.from_script(RST_DDL),
        )
        sharded = ShardedEngine(program, shards=4)
        assert not sharded.spec.partitionable
        sharded.insert("R", 2, 0)
        sharded.insert("S", 0, 100)
        assert sharded.result_scalar() == 200

    def test_invalid_shard_count(self):
        with pytest.raises(EventError):
            ShardedEngine(_grouped_program(), shards=0)

    def test_interpreted_mode(self):
        program = _grouped_program()
        single = DeltaEngine(program, mode="interpreted")
        sharded = ShardedEngine(program, shards=2, mode="interpreted")
        for a, b in [(1, 1), (2, 2), (3, 3)]:
            single.insert("R", a, b)
            sharded.insert("R", a, b)
        assert sharded.current_maps() == single.maps


class TestEventPolicy:
    def test_unknown_relation_skipped_and_counted(self):
        sharded = ShardedEngine(_grouped_program(), shards=2)
        sharded.process(StreamEvent("UNKNOWN", 1, (1,)))
        assert sharded.events_skipped == 1
        assert sharded.events_processed == 0

    def test_unknown_relation_strict_raises(self):
        sharded = ShardedEngine(_grouped_program(), shards=2, strict=True)
        with pytest.raises(UnknownStreamError):
            sharded.process(StreamEvent("UNKNOWN", 1, (1,)))

    def test_static_table_rules_enforced_globally(self):
        ddl = """
        CREATE TABLE DIM (K int, V int);
        CREATE STREAM FACT (K int, M int);
        """
        program = compile_sql(
            "SELECT sum(f.M * d.V) FROM FACT f, DIM d WHERE f.K = d.K",
            Catalog.from_script(ddl),
        )
        sharded = ShardedEngine(program, shards=2)
        sharded.load("DIM", [(1, 10), (2, 20)])
        sharded.insert("FACT", 1, 3)
        assert sharded.result_scalar() == 30
        with pytest.raises(EventError):
            sharded.load("DIM", [(3, 30)])
        with pytest.raises(EventError):
            # Static tables reject deletes even before the stream starts.
            ShardedEngine(program, shards=2).process(
                StreamEvent("DIM", -1, (1, 10))
            )

    def test_empty_batch_is_noop(self):
        sharded = ShardedEngine(_grouped_program(), shards=2)
        assert sharded.process_batch("R", 1, []) == 0

    def test_process_stream_counts_consumed_events(self):
        sharded = ShardedEngine(_grouped_program(), shards=2)
        events = [StreamEvent("R", 1, (i % 3, i)) for i in range(10)]
        events.append(StreamEvent("UNKNOWN", 1, (0,)))
        assert sharded.process_stream(events, batch_size=4) == 11
        assert sharded.events_processed == 10
        assert sharded.events_skipped == 1


class TestLifecycle:
    def test_use_after_close_raises(self):
        from repro.errors import EventError

        program = _grouped_program()
        sharded = ShardedEngine(program, shards=2)
        sharded.insert("R", 1, 10)
        assert sharded.results()  # readable while open
        sharded.close()
        with pytest.raises(EventError, match="closed"):
            sharded.results()
        with pytest.raises(EventError, match="closed"):
            sharded.insert("R", 2, 20)
        with pytest.raises(EventError, match="closed"):
            _ = sharded.events_processed
        sharded.close()  # still idempotent


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="process lanes require POSIX fork"
)
class TestProcessBackend:
    def test_parallel_results_identical(self):
        program, events = shipped_program("bsp"), order_book(3, 600)
        single = DeltaEngine(program)
        single.process_stream(events)
        with ShardedEngine(program, shards=2, parallel=True) as sharded:
            assert sharded.parallel
            sharded.process_stream(events, batch_size=100)
            assert sharded.current_maps() == single.maps
            assert sharded.events_processed == single.events_processed

    def test_worker_failure_surfaces_on_sync(self):
        program = _grouped_program()
        with ShardedEngine(program, shards=2, parallel=True) as sharded:
            assert sharded.parallel
            # A value the trigger cannot add explodes inside the worker's
            # generated trigger, not at the coordinator.
            sharded.process_batch("R", 1, [(1, None)])
            with pytest.raises(EventError, match=r"shard worker \d+ failed"):
                sharded.sync()

    def test_close_is_idempotent(self):
        sharded = ShardedEngine(_grouped_program(), shards=2, parallel=True)
        sharded.insert("R", 1, 1)
        sharded.close()
        sharded.close()
