"""Runtime tests: engine API, events, views, sources, debugger, profiler."""

import pytest

from repro.errors import EventError, RuntimeEngineError, UnknownStreamError
from repro.compiler import compile_sql, compile_queries
from repro.algebra.translate import translate_sql
from repro.runtime import (
    DeltaEngine,
    ShardedEngine,
    StreamEvent,
    insert,
    delete,
    update,
)
from repro.runtime.debugger import Debugger
from repro.runtime.events import EventBatch, batches, flatten
from repro.runtime.profiler import (
    Profiler,
    map_memory_bytes,
    profile_compilation,
    total_memory_bytes,
)
from repro.runtime.sources import (
    coerce_row,
    csv_source,
    list_source,
    relation_loader,
    write_csv,
)
from repro.sql.catalog import Catalog

DDL = """
CREATE STREAM bids (broker_id int, price int, volume int);
CREATE STREAM asks (broker_id int, price int, volume int);
"""
GROUPED = "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id"


@pytest.fixture
def catalog():
    return Catalog.from_script(DDL)


@pytest.fixture
def engine(catalog):
    return DeltaEngine(compile_sql(GROUPED, catalog), mode="compiled")


class TestEvents:
    def test_constructors(self):
        assert insert("bids", 1, 2, 3) == StreamEvent("bids", 1, (1, 2, 3))
        assert delete("bids", 1, 2, 3) == StreamEvent("bids", -1, (1, 2, 3))

    def test_update_is_delete_insert_pair(self):
        removal, addition = update("bids", (1, 2, 3), (1, 2, 9))
        assert removal.sign == -1 and addition.sign == 1

    def test_invalid_sign_rejected(self):
        with pytest.raises(EventError):
            StreamEvent("bids", 0, ())

    def test_flatten_handles_pairs(self):
        events = [insert("bids", 1, 2, 3), update("bids", (1, 2, 3), (1, 2, 4))]
        assert len(list(flatten(events))) == 3


class TestEngineAPI:
    def test_insert_update_delete_cycle(self, engine):
        engine.insert("bids", 1, 100, 5)
        assert engine.results() == [(1, 500)]
        engine.process_stream([update("bids", (1, 100, 5), (1, 100, 9))])
        assert engine.results() == [(1, 900)]
        engine.delete("bids", 1, 100, 9)
        assert engine.results() == []  # group disappears

    def test_unknown_relation_strict(self, catalog):
        strict = DeltaEngine(compile_sql(GROUPED, catalog), strict=True)
        with pytest.raises(UnknownStreamError):
            strict.insert("nope", 1)

    def test_unknown_relation_lenient_is_counted(self, engine):
        engine.insert("nonexistent", 1)
        assert engine.events_skipped == 1

    def test_result_scalar_requires_scalar_query(self, engine):
        engine.insert("bids", 1, 100, 5)
        with pytest.raises(EventError):
            engine.result_scalar()

    def test_multi_query_results_by_name(self, catalog):
        queries = [
            translate_sql(GROUPED, catalog, name="by_broker"),
            translate_sql("SELECT sum(volume) FROM bids", catalog, name="total"),
        ]
        engine = DeltaEngine(compile_queries(queries, catalog))
        engine.insert("bids", 2, 50, 4)
        assert engine.results("total") == [(4,)]
        assert engine.results("by_broker") == [(2, 200)]
        with pytest.raises(RuntimeEngineError):
            engine.results()  # ambiguous

    def test_results_dict(self, engine):
        engine.insert("bids", 3, 10, 2)
        assert engine.results_dict() == [{"broker_id": 3, "sum_1": 20}]

    def test_map_view_is_read_only(self, engine):
        engine.insert("bids", 1, 100, 5)
        root = engine.program.slot_maps["q"][0]
        view = engine.map_view(root)
        assert view[(1,)] == 500
        with pytest.raises(TypeError):
            view[(1,)] = 0

    def test_load_bulk(self, engine):
        count = engine.load("bids", [(1, 10, 1), (1, 20, 2)])
        assert count == 2
        assert engine.results() == [(1, 50)]

    def test_interpreted_and_compiled_agree(self, catalog):
        program = compile_sql(GROUPED, catalog)
        compiled = DeltaEngine(program, mode="compiled")
        interpreted = DeltaEngine(program, mode="interpreted")
        for event in [
            insert("bids", 1, 10, 5),
            insert("bids", 2, 20, 1),
            delete("bids", 1, 10, 5),
        ]:
            compiled.process(event)
            interpreted.process(event)
        assert compiled.results() == interpreted.results()

    def test_unknown_mode_rejected(self, catalog):
        with pytest.raises(EventError):
            DeltaEngine(compile_sql(GROUPED, catalog), mode="quantum")


class TestBatching:
    def test_batches_groups_consecutive_runs(self):
        stream = [
            insert("bids", 1, 10, 1),
            insert("bids", 2, 20, 2),
            delete("bids", 1, 10, 1),
            insert("asks", 3, 30, 3),
            insert("asks", 4, 40, 4),
        ]
        runs = list(batches(stream))
        # A run is keyed on the relation: its signs are a weight column.
        assert [(b.relation, b.sign, len(b)) for b in runs] == [
            ("bids", [1, 1, -1], 3), ("asks", 1, 2),
        ]
        assert runs[0].weights == [1, 1, -1] and runs[1].weights == [1, 1]

    def test_batches_respects_batch_size_cap(self):
        stream = [insert("bids", i, 10, 1) for i in range(5)]
        runs = list(batches(stream, batch_size=2))
        assert [len(b) for b in runs] == [2, 2, 1]

    def test_batches_flattens_update_pairs_and_batches(self):
        stream = [
            update("bids", (1, 10, 1), (1, 20, 1)),
            EventBatch("bids", 1, [(2, 30, 2)]),
        ]
        runs = list(batches(stream))
        assert [(b.relation, b.sign) for b in runs] == [("bids", [-1, 1, 1])]
        assert runs[0].rows == [(1, 10, 1), (1, 20, 1), (2, 30, 2)]

    def test_batch_size_must_be_positive(self):
        with pytest.raises(EventError):
            list(batches([], batch_size=0))

    def test_event_batch_rejects_bad_sign(self):
        with pytest.raises(EventError):
            EventBatch("bids", 0, [])

    def test_event_batch_weight_column(self):
        rows = [(1,), (2,)]
        mixed = EventBatch("bids", [1, -1], rows)
        assert (mixed.sign, mixed.weights, repr(mixed)) == (
            [1, -1], [1, -1], "±bids[2 rows]"
        )
        assert list(mixed) == [insert("bids", 1), delete("bids", 2)]
        assert EventBatch.from_columns("bids", [1, -1], ([1, 2],)) == mixed
        # A column of one sign is a uniform run.
        assert EventBatch("bids", [-1, -1], rows).sign == -1
        for bad in ([1], [1, 0], (1, -1), 2):
            with pytest.raises(EventError, match="per row"):
                EventBatch("bids", bad, rows)

    def test_profiler_counts_a_mixed_batch_under_each_sign(self, catalog):
        profiler = Profiler()
        engine = DeltaEngine(compile_sql(GROUPED, catalog), profiler=profiler)
        rows = [(1, 10, 1), (1, 20, 2), (1, 10, 1)]
        assert engine.process_batch("bids", [1, 1, -1], rows) == 3
        assert profiler.events_by_trigger == {"+bids": 2, "-bids": 1}
        assert engine.results() == [(1, 40)]

    def test_process_batch_matches_per_event(self, catalog):
        program = compile_sql(GROUPED, catalog)
        reference = DeltaEngine(program)
        batched = DeltaEngine(program)
        rows = [(1, 10, 5), (1, 20, 2), (2, 30, 1)]
        for row in rows:
            reference.insert("bids", *row)
        assert batched.process_batch("bids", 1, rows) == 3
        assert batched.maps == reference.maps
        assert batched.events_processed == 3

    def test_process_stream_batches_and_counts_skipped(self, engine):
        stream = [
            insert("bids", 1, 10, 1),
            insert("unknown", 9),
            insert("bids", 1, 20, 2),
        ]
        assert engine.process_stream(stream, batch_size=10) == 3
        assert engine.events_processed == 2
        assert engine.events_skipped == 1
        assert engine.results() == [(1, 50)]

    def test_process_batch_strict_unknown_relation(self, catalog):
        strict = DeltaEngine(compile_sql(GROUPED, catalog), strict=True)
        with pytest.raises(UnknownStreamError):
            strict.process_batch("nope", 1, [(1,)])

    def test_process_batch_static_table_rules(self):
        catalog = Catalog.from_script(
            "CREATE TABLE dim (k int, v int);"
            "CREATE STREAM fact (k int, x int);"
        )
        engine = DeltaEngine(compile_sql(
            "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k",
            catalog,
        ))
        with pytest.raises(EventError):
            engine.process_batch("dim", -1, [(1, 2)])
        engine.load("dim", [(1, 2), (2, 3)])
        engine.process_batch("fact", 1, [(1, 10), (2, 100)])
        assert engine.result_scalar() == 320
        with pytest.raises(EventError):
            engine.process_batch("dim", 1, [(3, 4)])  # stream started

    def test_empty_batch_is_a_noop(self, engine):
        assert engine.process_batch("bids", 1, []) == 0
        assert engine.events_processed == 0

    def test_interpreted_batch_matches_compiled_batch(self, catalog):
        program = compile_sql(GROUPED, catalog)
        compiled = DeltaEngine(program, mode="compiled")
        interpreted = DeltaEngine(program, mode="interpreted")
        rows = [(1, 10, 5), (2, 20, 1), (1, 10, -5)]
        compiled.process_batch("bids", 1, rows)
        interpreted.process_batch("bids", 1, rows)
        assert compiled.results() == interpreted.results()

    def test_profiler_counts_batched_events(self, catalog):
        profiler = Profiler()
        engine = DeltaEngine(compile_sql(GROUPED, catalog), profiler=profiler)
        engine.process_batch("bids", 1, [(1, 10, 1), (1, 20, 2)])
        assert profiler.events == 2
        assert profiler.events_by_trigger == {"+bids": 2}

    def test_deepcopy_preserves_skip_counter(self, engine):
        import copy

        engine.insert("bids", 1, 10, 1)
        engine.insert("nonexistent", 1)
        clone = copy.deepcopy(engine)
        assert clone.events_skipped == 1
        assert clone.events_processed == 1
        assert clone.maps == engine.maps

    def test_deepcopy_of_forked_lanes_raises_a_named_error(self, catalog):
        import copy

        program = compile_sql(GROUPED, catalog)
        with ShardedEngine(program, shards=2) as local:
            local.insert("bids", 1, 10, 1)
            clone = copy.deepcopy(local)
            assert clone.results() == local.results()
            # The immutable program copies as itself, so router and lanes
            # still agree on it.
            assert clone.program is local.program is clone._lanes[0].program
            clone.insert("bids", 2, 20, 2)  # the copy's triggers write to
            assert clone.results() != local.results()  # *its* lanes' maps
        with ShardedEngine(program, shards=2, parallel=True) as forked:
            if not forked.parallel:
                pytest.skip("no fork start method on this platform")
            with pytest.raises(EventError, match="cannot be copied"):
                copy.deepcopy(forked)


class TestViews:
    def test_min_max_rendering(self, catalog):
        sql = "SELECT broker_id, min(price), max(price) FROM bids GROUP BY broker_id"
        engine = DeltaEngine(compile_sql(sql, catalog))
        engine.insert("bids", 1, 30, 1)
        engine.insert("bids", 1, 10, 1)
        engine.insert("bids", 1, 20, 1)
        assert engine.results() == [(1, 10, 30)]
        engine.delete("bids", 1, 10, 1)
        assert engine.results() == [(1, 20, 30)]

    def test_avg_rendering(self, catalog):
        engine = DeltaEngine(
            compile_sql("SELECT avg(price) FROM bids", catalog)
        )
        assert engine.results() == [(0,)]  # empty: division convention
        engine.insert("bids", 1, 10, 1)
        engine.insert("bids", 1, 20, 1)
        assert engine.results() == [(15.0,)]

    def test_zero_sum_group_still_present_via_count(self, catalog):
        sql = "SELECT broker_id, sum(volume) FROM bids GROUP BY broker_id"
        engine = DeltaEngine(compile_sql(sql, catalog))
        engine.insert("bids", 1, 100, 5)
        engine.insert("bids", 1, 100, -5)  # net volume 0, but 2 rows live
        assert engine.results() == [(1, 0)]


class TestSources:
    def test_list_and_loader(self, engine):
        engine.process_stream(list_source([insert("bids", 1, 10, 1)]))
        engine.process_stream(relation_loader("bids", [(1, 20, 2)]))
        assert engine.results() == [(1, 50)]

    def test_csv_round_trip(self, tmp_path, catalog, engine):
        path = tmp_path / "stream.csv"
        events = [
            insert("bids", 1, 100, 5),
            delete("bids", 1, 100, 5),
            insert("bids", 2, 30, 2),
        ]
        assert write_csv(path, events) == 3
        loaded = list(csv_source(path, catalog))
        assert loaded == events
        engine.process_stream(loaded)
        assert engine.results() == [(2, 60)]

    def test_csv_bad_op_raises(self, tmp_path, catalog):
        path = tmp_path / "bad.csv"
        path.write_text("op,relation,values...\n?,bids,1,2,3\n")
        with pytest.raises(EventError):
            list(csv_source(path, catalog))

    def test_csv_arity_check(self, tmp_path, catalog):
        path = tmp_path / "short.csv"
        path.write_text("op,relation,values...\n+,bids,1\n")
        with pytest.raises(EventError):
            list(csv_source(path, catalog))

    def test_coerce_row_types(self, catalog):
        relation = catalog.get("bids")
        assert coerce_row(relation, ["1", "2", "3"]) == (1, 2, 3)


class TestDebugger:
    def test_step_traces_statements(self, catalog):
        program = compile_sql(GROUPED, catalog)
        debugger = Debugger(program)
        trace = debugger.step(insert("bids", 1, 100, 5))
        assert trace.statements
        touched = [u for s in trace.statements for u in s.updates]
        assert any(value == 500 for _, _, value in touched)

    def test_history_and_watch(self, catalog):
        program = compile_sql(GROUPED, catalog)
        debugger = Debugger(program)
        root = program.slot_maps["q"][0]
        debugger.run([insert("bids", 1, 100, 5), insert("asks", 1, 1, 1)])
        watched = debugger.watch(root)
        assert len(watched) == 1

    def test_map_snapshot(self, catalog):
        program = compile_sql(GROUPED, catalog)
        debugger = Debugger(program)
        root = program.slot_maps["q"][0]
        debugger.step(insert("bids", 2, 10, 3))
        assert debugger.map_snapshot(root) == {(2,): 30}

    def test_traced_delete_negates_and_insert_cancels(self, catalog):
        """The debugger runs the relation's one trigger with the event's
        sign as its weight: deleting a standing row subtracts, inserting
        it again adds back exactly that."""
        program = compile_sql(GROUPED, catalog)
        debugger = Debugger(program)
        root = program.slot_maps["q"][0]
        debugger.step(insert("bids", 2, 10, 3))
        standing = {name: debugger.map_snapshot(name) for name in program.maps}

        def updates(trace):
            return [u for statement in trace.statements for u in statement.updates]

        removal = updates(debugger.step(delete("bids", 2, 10, 3)))
        assert removal and all(value < 0 for _, _, value in removal)
        assert (root, (2,), -30) in removal
        assert debugger.map_snapshot(root) == {}
        restore = updates(debugger.step(insert("bids", 2, 10, 3)))
        assert sorted(restore) == sorted((m, k, -v) for m, k, v in removal)
        assert {name: debugger.map_snapshot(name) for name in program.maps} == standing

    def test_sink_receives_traces(self, catalog):
        lines = []
        debugger = Debugger(compile_sql(GROUPED, catalog), sink=lines.append)
        debugger.step(insert("bids", 1, 1, 1))
        assert lines and "bids" in lines[0]


class TestProfiler:
    def test_event_and_statement_counts(self, catalog):
        profiler = Profiler()
        engine = DeltaEngine(
            compile_sql(GROUPED, catalog), mode="interpreted", profiler=profiler
        )
        engine.insert("bids", 1, 10, 1)
        engine.delete("bids", 1, 10, 1)
        assert profiler.events == 2
        assert profiler.events_by_trigger == {"+bids": 1, "-bids": 1}
        assert sum(profiler.map_updates.values()) > 0
        assert "events processed: 2" in profiler.report()

    def test_a_mixed_batch_counts_each_row_under_its_sign(self, catalog):
        profiler = Profiler()
        engine = DeltaEngine(compile_sql(GROUPED, catalog), profiler=profiler)
        engine.process_batch("bids", [1, -1, 1], [(1, 10, 1), (1, 10, 1), (2, 5, 2)])
        engine.process_batch("bids", -1, [(2, 5, 2)])
        assert profiler.events == 4
        assert profiler.events_by_trigger == {"+bids": 2, "-bids": 2}

    def test_memory_accounting(self, engine):
        engine.insert("bids", 1, 10, 1)
        sizes = map_memory_bytes(engine.maps)
        assert set(sizes) == set(engine.maps)
        assert total_memory_bytes(engine.maps) == sum(sizes.values())

    def test_profile_compilation_report(self, catalog):
        report = profile_compilation(GROUPED, catalog)
        assert report.map_count >= 1
        assert report.python_source_bytes > 100
        # GROUPED keeps an int-keyed, int-valued map: a kernel signature.
        assert report.kernel_source_bytes > 100
        assert report.total_seconds > 0
        assert "generated Python" in report.report()
        # The module the profile sizes is the module a default engine runs.
        engine = DeltaEngine(compile_sql(GROUPED, catalog, name="q"))
        assert report.python_source_bytes == len(
            engine._executor.source.encode()
        )
