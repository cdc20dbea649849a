"""Baseline engines must agree with the compiled DBToaster engine."""

import pytest

from repro.baselines import (
    ENGINE_KINDS,
    StreamOpEngine,
    UnsupportedQueryError,
    make_engine,
)
from repro.runtime import StreamEvent
from repro.sql.catalog import Catalog
from tests.integration.test_engine_vs_oracle import QUERIES, random_stream

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
CREATE STREAM bids (broker_id int, price int, volume int);
CREATE STREAM asks (broker_id int, price int, volume int);
"""

# Queries the stream-operator network can express (no subqueries).
STREAMABLE = [
    "chain_join",
    "grouped",
    "avg",
    "minmax",
    "self_join",
    "two_way_grouped",
    "axfinder",
    "or_predicate",
]

NESTED = ["exists_correlated", "in_subquery", "vwap_nested", "not_in"]


def drive(engine, events):
    for event in events:
        engine.process(event)


@pytest.fixture
def catalog():
    return Catalog.from_script(CATALOG_DDL)


def relations_for(sql, catalog):
    from repro.algebra.translate import translate_sql

    return list(translate_sql(sql, catalog, name="q").relations)


class TestAgreementWithDBToaster:
    @pytest.mark.parametrize("name", STREAMABLE)
    @pytest.mark.parametrize("kind", ["ivm", "streamops", "reeval_lazy"])
    def test_engine_matches_compiled(self, name, kind, catalog):
        sql = QUERIES[name]
        reference = make_engine("dbtoaster", {"q": sql}, catalog)
        other = make_engine(kind, {"q": sql}, catalog)
        events = random_stream(relations_for(sql, catalog), 150, seed=5)
        checkpoints = (30, 75, 149)
        for step, event in enumerate(events):
            reference.process(event)
            other.process(event)
            if step in checkpoints:
                expected = sorted(reference.results("q"), key=repr)
                got = sorted(other.results("q"), key=repr)
                assert _rows_close(got, expected), (kind, step, got, expected)

    @pytest.mark.parametrize("name", NESTED)
    def test_reeval_handles_nested_queries(self, name, catalog):
        sql = QUERIES[name]
        reference = make_engine("dbtoaster", {"q": sql}, catalog)
        other = make_engine("reeval_lazy", {"q": sql}, catalog)
        events = random_stream(relations_for(sql, catalog), 120, seed=9)
        for event in events:
            reference.process(event)
            other.process(event)
        expected = sorted(reference.results("q"), key=repr)
        got = sorted(other.results("q"), key=repr)
        assert _rows_close(got, expected)

    @pytest.mark.parametrize("name", NESTED)
    def test_streamops_rejects_nested_queries(self, name, catalog):
        """The paper: stream engines cannot express order-book nesting."""
        with pytest.raises(UnsupportedQueryError):
            StreamOpEngine({"q": QUERIES[name]}, catalog)


class TestBatchedDelivery:
    """Every bakeoff engine accepts batches and agrees with itself per-event."""

    @pytest.mark.parametrize(
        "kind", ["dbtoaster", "dbtoaster_interp", "ivm", "streamops", "reeval"]
    )
    def test_batched_stream_matches_per_event(self, kind, catalog):
        sql = QUERIES["two_way_grouped"]
        per_event = make_engine(kind, {"q": sql}, catalog)
        batched = make_engine(kind, {"q": sql}, catalog)
        events = random_stream(relations_for(sql, catalog), 120, seed=3)
        drive(per_event, events)
        count = batched.process_stream(events, batch_size=16)
        assert count == 120
        assert batched.events_processed == per_event.events_processed
        assert sorted(batched.results("q"), key=repr) == sorted(
            per_event.results("q"), key=repr
        )

    @pytest.mark.parametrize("kind", ["dbtoaster", "ivm", "streamops", "reeval"])
    def test_weight_column_batch_matches_per_event(self, kind, catalog):
        sql = QUERIES["two_way_grouped"]
        per_event = make_engine(kind, {"q": sql}, catalog)
        batched = make_engine(kind, {"q": sql}, catalog)
        rows = [(1, 100, 5), (2, 90, 3), (1, 100, 5)]
        weights = [1, 1, -1]
        for relation in ("bids", "asks"):
            for row, sign in zip(rows, weights):
                per_event.process(StreamEvent(relation, sign, row))
            assert batched.process_batch(relation, weights, rows) == 3
        assert sorted(batched.results("q"), key=repr) == sorted(
            per_event.results("q"), key=repr
        )


class TestEngineFactory:
    def test_all_kinds_constructible(self, catalog):
        for kind in ENGINE_KINDS:
            engine = make_engine(kind, {"q": QUERIES["grouped"]}, catalog)
            engine.insert("bids", 1, 100, 7)
            assert engine.results("q")

    def test_unknown_kind_raises(self, catalog):
        from repro.errors import EventError

        with pytest.raises(EventError):
            make_engine("oracle9i", {"q": QUERIES["grouped"]}, catalog)

    def test_eager_reeval_caches(self, catalog):
        engine = make_engine("reeval", {"q": QUERIES["grouped"]}, catalog)
        engine.insert("bids", 1, 100, 7)
        assert engine.results("q") == [(1, 700, 1)]


class TestSqliteReeval:
    """The re-evaluation baseline runs its queries in sqlite3."""

    def test_deepcopy_is_an_independent_engine(self, catalog):
        import copy

        engine = make_engine("reeval", {"q": QUERIES["grouped"]}, catalog)
        engine.insert("bids", 1, 100, 7)
        clone = copy.deepcopy(engine)
        clone.insert("bids", 1, 10, 1)
        engine.delete("bids", 1, 100, 7)
        assert clone.results("q") == [(1, 710, 2)]
        assert engine.results("q") == []
        assert (clone.total_entries(), engine.total_entries()) == (2, 0)
        assert (clone.events_processed, engine.events_processed) == (2, 2)

    def test_deleting_a_row_that_is_not_live_raises(self, catalog):
        from repro.errors import EventError

        engine = make_engine("reeval_lazy", {"q": QUERIES["grouped"]}, catalog)
        engine.insert("bids", 1, 100, 7)
        with pytest.raises(EventError, match="absent"):
            engine.delete("bids", 1, 100, 8)
        engine.delete("bids", 1, 100, 7)
        with pytest.raises(EventError, match="absent"):
            engine.delete("bids", 1, 100, 7)

    def test_division_is_refused(self, catalog):
        """sqlite's integer division and x/0 = NULL are not the query
        surface's true division with x/0 = 0."""
        with pytest.raises(UnsupportedQueryError, match="divides"):
            make_engine(
                "reeval", {"q": "SELECT sum(price / volume) FROM bids"}, catalog
            )


class TestStateAccounting:
    def test_streamops_materialises_join_state(self, catalog):
        engine = make_engine("streamops", {"q": QUERIES["two_way_grouped"]}, catalog)
        for i in range(10):
            engine.insert("bids", i % 3, 100 + i, 10)
            engine.insert("asks", i % 3, 100 + i, 5)
        assert engine.total_entries() > 20  # both join sides + groups

    def test_dbtoaster_keeps_compact_aggregates(self, catalog):
        engine = make_engine("dbtoaster", {"q": QUERIES["two_way_grouped"]}, catalog)
        for i in range(10):
            engine.insert("bids", i % 3, 100 + i, 10)
            engine.insert("asks", i % 3, 100 + i, 5)
        # Aggregate maps keyed by broker: far fewer entries than raw rows.
        assert engine.total_entries() < 30


def _rows_close(got, expected, tol=1e-9):
    if len(got) != len(expected):
        return False
    for g_row, e_row in zip(got, expected):
        if len(g_row) != len(e_row):
            return False
        for g, e in zip(g_row, e_row):
            if isinstance(g, str) or isinstance(e, str):
                if g != e:
                    return False
            elif abs(g - e) > tol:
                return False
    return True
