"""Runtime tests: engine API, events, views, sources, debugger, profiler."""

import csv
import itertools
import os

import pytest

from repro.errors import EventError, RuntimeEngineError, UnknownStreamError
from repro.compiler import compile_sql, compile_queries
from repro.algebra.translate import translate_sql
from repro.baselines import ENGINE_KINDS, make_engine
from repro.runtime import (
    DeltaEngine,
    ShardedEngine,
    StreamEvent,
    insert,
    delete,
    update,
)
from repro.runtime.debugger import Debugger
from repro.runtime.durability import DurableEngine
from repro.runtime.events import EventBatch, batches, flatten
from repro.runtime.profiler import (
    Profiler,
    map_memory_bytes,
    profile_compilation,
    total_memory_bytes,
)
from repro.runtime.sources import coerce_row, csv_source
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES
from tests.lanes import PYTHON_EXECUTORS, order_book, shipped_program

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

    @pytest.mark.parametrize(
        "name, message",
        [
            (None, "query_name is required when multiple queries are registered"),
            ("nope", "unknown query 'nope'"),
        ],
        ids=["missing", "unknown"],
    )
    def test_every_reader_names_queries_alike(self, catalog, name, message):
        """Every engine and every bakeoff baseline resolves a query name
        alike (``results_dict`` is the engines' alone)."""
        queries = {"by_broker": GROUPED, "total": "SELECT sum(volume) FROM bids"}
        for kind in sorted(ENGINE_KINDS):
            engine = make_engine(kind, queries, catalog)
            readers = [engine.results, engine.result_scalar]
            if hasattr(engine, "results_dict"):
                readers.append(engine.results_dict)
            for reader in readers:
                with pytest.raises(RuntimeEngineError) as error:
                    reader(name)
                assert type(error.value) is RuntimeEngineError, kind
                assert str(error.value) == message, kind

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
        engine = DeltaEngine(compile_sql(GROUPED, catalog))
        profiler = _profiled(engine)
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
        engine = DeltaEngine(compile_sql(GROUPED, catalog))
        profiler = _profiled(engine)
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


def _write_csv(path, events):
    """Archive ``events`` in the form :func:`csv_source` reads."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["op", "relation", "values..."])
        for event in events:
            writer.writerow(
                ["+" if event.sign == 1 else "-", event.relation, *event.values]
            )


class TestSources:
    def test_list_and_loader(self, engine):
        engine.process_stream([insert("bids", 1, 10, 1)])
        engine.load("bids", [(1, 20, 2)])
        assert engine.results() == [(1, 50)]

    def test_csv_round_trip(self, tmp_path, catalog, engine):
        path = tmp_path / "stream.csv"
        events = [
            insert("bids", 1, 100, 5),
            delete("bids", 1, 100, 5),
            insert("bids", 2, 30, 2),
        ]
        _write_csv(path, events)
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

    def test_a_static_table_delete_raises_as_admission_does(self):
        catalog = Catalog.from_script(
            "CREATE TABLE dim (k int, v int); CREATE STREAM fact (k int, x int);"
        )
        debugger = Debugger(compile_sql(
            "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k", catalog
        ))
        debugger.step(insert("dim", 1, 2))
        with pytest.raises(EventError, match="bulk-load inserts"):
            debugger.step(delete("dim", 1, 2))

    def test_a_static_insert_after_the_stream_raises_as_admission_does(self):
        catalog = Catalog.from_script(
            "CREATE STREAM R (a int, b int); CREATE TABLE S (b int, c int);"
        )
        program = compile_sql("SELECT sum(R.a * S.c) FROM R, S WHERE R.b = S.b", catalog)
        engine, debugger = DeltaEngine(program), Debugger(program)
        for event in (insert("S", 1, 5), insert("R", 2, 1)):
            engine.process(event)
            debugger.step(event)
        late = insert("S", 1, 7)
        with pytest.raises(EventError, match="cannot change after"):
            engine.process(late)
        with pytest.raises(EventError, match="cannot change after"):
            debugger.step(late)
        assert debugger.maps == _engine_maps(engine)
        assert debugger.maps["m1_s"] == {(1,): 5}

    def test_an_unread_relation_is_skipped_as_admission_does(self, catalog):
        debugger = Debugger(compile_sql(GROUPED, catalog))
        trace = debugger.step(insert("asks", 1, 1, 1))
        assert trace.statements == [] and debugger.events_skipped == 1

    @pytest.mark.parametrize("query", sorted(FINANCE_QUERIES))
    def test_maps_equal_the_engines_after_every_step(self, query):
        program = shipped_program(query, query)
        engine, debugger = DeltaEngine(program), Debugger(program)
        for event in order_book(3, 250):
            engine.process(event)
            debugger.step(event)
            assert debugger.maps == _engine_maps(engine)

    def test_maps_equal_the_engines_over_static_tables_then_the_stream(self):
        from repro.workloads.ssb import (
            SSB_Q41_COMBINED,
            ssb_catalog,
            warehouse_stream,
        )
        from repro.workloads.tpch import TpchGenerator

        program = compile_sql(SSB_Q41_COMBINED, ssb_catalog(), name="q41")
        engine, debugger = DeltaEngine(program), Debugger(program)
        generator = TpchGenerator(sf=0.0002, seed=7)
        static = [
            insert(relation, *row)
            for relation, rows in generator.static_tables().items()
            for row in rows
        ]
        stream = list(itertools.islice(warehouse_stream(generator), 200))
        for event in static + stream:
            engine.process(event)
            debugger.step(event)
            assert debugger.maps == _engine_maps(engine)
        assert engine.results()


def _engine_maps(engine):
    return {name: dict(engine.maps[name]) for name in engine.program.maps}


def _profiled(engine):
    """A :class:`Profiler` listening to ``engine``'s flush path."""
    profiler = Profiler()
    engine.add_batch_listener(profiler.on_batch)
    return profiler


def _hand_count(events):
    """``events_by_trigger`` counted by hand: one per event, under its
    sign and relation."""
    counts = {}
    for event in events:
        key = ("+" if event.sign == 1 else "-") + event.relation
        counts[key] = counts.get(key, 0) + 1
    return counts


#: Feeds a whole stream into an engine, one ingest path per entry.
FEED_PATHS = {
    "process": lambda engine, feed: [engine.process(event) for event in feed],
    "one-row batch": lambda engine, feed: [
        engine.process_batch(event.relation, event.sign, [event.values])
        for event in feed
    ],
    **{
        f"batches of {k}": lambda engine, feed, k=k: [
            engine.process_batch(batch.relation, batch.sign, batch.rows)
            for batch in batches(feed, k)
        ]
        for k in (3, 100)
    },
}


@pytest.fixture(scope="module")
def bsp():
    # bsp reads bids and asks, each partitioned on its broker column.
    return shipped_program("bsp")


@pytest.fixture(scope="module")
def feed():
    events = order_book(2009, 300)
    # Inserts and deletes of both relations, in mixed-sign runs.
    assert set(_hand_count(events)) == {"+bids", "-bids", "+asks", "-asks"}
    assert any(isinstance(batch.sign, list) for batch in batches(events, 100))
    return events


class TestProfiler:
    def test_report_prints_the_event_counts(self, catalog):
        engine = DeltaEngine(compile_sql(GROUPED, catalog), mode="interpreted")
        profiler = _profiled(engine)
        engine.insert("bids", 1, 10, 1)
        engine.delete("bids", 1, 10, 1)
        assert profiler.events == 2
        assert profiler.events_by_trigger == {"+bids": 1, "-bids": 1}
        assert profiler.report() == "events processed: 2\n  +bids: 1\n  -bids: 1"

    @pytest.mark.parametrize("path", sorted(FEED_PATHS))
    @pytest.mark.parametrize("mode", PYTHON_EXECUTORS)
    def test_a_delta_engine_counts_the_stream_by_hand(self, bsp, feed, mode, path):
        engine = DeltaEngine(bsp, mode=mode)
        profiler = _profiled(engine)
        FEED_PATHS[path](engine, feed)
        assert profiler.events_by_trigger == _hand_count(feed)
        assert profiler.events == len(feed) == engine.events_processed

    @pytest.mark.parametrize("parallel", [False, True], ids=["local", "forked"])
    def test_a_sharded_engine_counts_the_stream_by_hand(self, bsp, feed, parallel):
        if parallel and not hasattr(os, "fork"):
            pytest.skip("forked lanes need fork")
        with ShardedEngine(bsp, shards=2, parallel=parallel) as engine:
            assert len(engine._lanes) == 2
            profiler = _profiled(engine)
            FEED_PATHS["batches of 3"](engine, feed)
            assert profiler.events_by_trigger == _hand_count(feed)
            assert profiler.events == engine.events_processed

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_durable_engine_counts_the_stream_by_hand(
        self, bsp, feed, shards, tmp_path
    ):
        engine = DurableEngine(bsp, tmp_path, shards=shards, fsync="none")
        profiler = _profiled(engine)
        FEED_PATHS["batches of 3"](engine, feed)
        assert profiler.events_by_trigger == _hand_count(feed)
        assert profiler.events == engine.events_processed
        engine.close()

    def test_a_reopened_durable_engine_counts_no_replayed_event(
        self, bsp, feed, tmp_path
    ):
        logged = DurableEngine(bsp, tmp_path)
        FEED_PATHS["process"](logged, feed[:200])
        logged.close()
        engine = DurableEngine(bsp, tmp_path)
        profiler = _profiled(engine)
        assert engine.events_processed == 200
        assert profiler.events == 0
        engine.insert("bids", 1, 1, 7, 100, 5)
        assert profiler.events_by_trigger == {"+bids": 1}
        engine.close()

    def test_the_engine_takes_no_profiler_argument(self, catalog):
        with pytest.raises(TypeError):
            DeltaEngine(compile_sql(GROUPED, catalog), profiler=Profiler())

    def test_a_mixed_batch_counts_each_row_under_its_sign(self, catalog):
        engine = DeltaEngine(compile_sql(GROUPED, catalog))
        profiler = _profiled(engine)
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


@pytest.mark.parametrize("shards", [None, 2])
def test_a_hand_typed_value_no_column_takes_is_refused_before_any_write(shards):
    """An engine with no log step holds ``insert`` and ``delete`` to the
    value-type rule a logged batch meets: the event raises naming the
    relation and the column before any of bsp's writes, so no map moves."""
    program = shipped_program("bsp", "bsp")
    engine = DeltaEngine(program) if shards is None else ShardedEngine(program, shards)
    engine.insert("bids", 1, 7, 1, 100, 5)
    before = repr(engine.current_maps())
    for typed in (engine.insert, engine.delete):
        with pytest.raises(EventError, match="'bids' column 'price' is INT; got 'x'"):
            typed("bids", 1, 7, 1, "x", 5)
        assert repr(engine.current_maps()) == before
