"""The sqlite re-evaluation baseline: its mirror, query semantics, and a
cross-check against the delta engine."""

import pytest

from repro.baselines import ReevalEngine
from repro.baselines.reeval import SqliteMirror
from repro.errors import EventError, UnsupportedQueryError
from repro.runtime.events import StreamEvent
from repro.sql.catalog import Catalog

ROWS = {
    "R": [(1, 10), (2, 20)],
    "S": [(10, 100), (20, 200), (20, 300)],
    "T": [(100, 5), (200, 7), (300, 11)],
    "bids": [(1, 100, 10), (1, 101, 20), (2, 99, 5)],
    "asks": [(1, 102, 8), (2, 100, 12), (3, 103, 4)],
}


@pytest.fixture
def catalog():
    return Catalog.from_script(
        """
        CREATE STREAM R (A int, B int);
        CREATE STREAM S (B int, C int);
        CREATE STREAM T (C int, D int);
        CREATE STREAM bids (broker_id int, price int, volume int);
        CREATE STREAM asks (broker_id int, price int, volume int);
        """
    )


def run(sql, catalog, rows=ROWS):
    engine = ReevalEngine({"q": sql}, catalog, refresh="lazy")
    for relation, tuples in rows.items():
        engine.process_batch(relation, 1, tuples)
    return engine.results("q")


def row_count(mirror, relation):
    return mirror.connection.execute(f"SELECT COUNT(*) FROM {relation}").fetchone()[0]


class TestMirror:
    def test_insert_delete_multiset(self, catalog):
        mirror = SqliteMirror(catalog)
        mirror.apply(StreamEvent("R", 1, (1, 2)))
        mirror.apply(StreamEvent("R", 1, (1, 2)))
        assert row_count(mirror, "R") == 2
        assert mirror.distinct_rows() == 1
        mirror.apply(StreamEvent("R", -1, (1, 2)))
        assert row_count(mirror, "R") == 1
        mirror.apply(StreamEvent("R", -1, (1, 2)))
        assert row_count(mirror, "R") == 0

    def test_delete_absent_raises(self, catalog):
        mirror = SqliteMirror(catalog)
        with pytest.raises(EventError, match="absent"):
            mirror.apply(StreamEvent("R", -1, (9, 9)))

    def test_unknown_relation_raises(self, catalog):
        mirror = SqliteMirror(catalog)
        with pytest.raises(EventError, match="unknown relation"):
            mirror.apply(StreamEvent("U", 1, (1, 2)))

    def test_arity_mismatch_raises(self, catalog):
        mirror = SqliteMirror(catalog)
        with pytest.raises(EventError, match="arity"):
            mirror.apply(StreamEvent("R", 1, (1, 2, 3)))
        assert row_count(mirror, "R") == 0

    def test_relation_names_are_case_insensitive(self, catalog):
        mirror = SqliteMirror(catalog)
        mirror.apply(StreamEvent("r", 1, (1, 2)))
        mirror.apply(StreamEvent("BIDS", 1, (1, 2, 3)))
        assert mirror.distinct_rows() == 2
        mirror.apply(StreamEvent("R", -1, (1, 2)))
        assert mirror.distinct_rows() == 1


class TestExecution:
    def test_paper_chain_join(self, catalog):
        rows = run(
            "SELECT sum(r.A * t.D) FROM R r, S s, T t "
            "WHERE r.B = s.B AND s.C = t.C",
            catalog,
        )
        assert rows == [(41,)]

    def test_group_by(self, catalog):
        rows = run(
            "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id",
            catalog,
        )
        assert rows == [(1, 3020), (2, 495)]

    def test_empty_scalar_query(self, catalog):
        """sqlite's NULL for an empty sum reads as 0."""
        rows = run("SELECT sum(volume), count(*) FROM bids", catalog, rows={})
        assert rows == [(0, 0)]

    def test_avg_and_minmax(self, catalog):
        rows = run(
            "SELECT broker_id, avg(price), min(volume), max(volume) "
            "FROM bids GROUP BY broker_id",
            catalog,
        )
        assert rows == [(1, 100.5, 10, 20), (2, 99.0, 5, 5)]

    def test_or_and_not(self, catalog):
        rows = run(
            "SELECT sum(volume) FROM bids WHERE price = 100 OR price = 99",
            catalog,
        )
        assert rows == [(15,)]
        rows = run("SELECT sum(volume) FROM bids WHERE NOT price = 100", catalog)
        assert rows == [(25,)]

    def test_correlated_exists(self, catalog):
        rows = run(
            "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
            "(SELECT a.price FROM asks a WHERE a.broker_id = b.broker_id)",
            catalog,
        )
        assert rows == [(35,)]

    def test_scalar_subquery(self, catalog):
        rows = run(
            "SELECT sum(b.price * b.volume) FROM bids b "
            "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)",
            catalog,
        )
        assert rows == [(3020,)]

    def test_in_subquery(self, catalog):
        rows = run(
            "SELECT sum(b.volume) FROM bids b WHERE b.broker_id IN "
            "(SELECT a.broker_id FROM asks a WHERE a.volume > 10)",
            catalog,
        )
        assert rows == [(5,)]

    def test_cross_product_when_disconnected(self, catalog):
        rows = run("SELECT sum(r.A * t.D) FROM R r, T t", catalog)
        # (1+2) * (5+7+11) = 69
        assert rows == [(69,)]

    def test_self_join(self, catalog):
        rows = run(
            "SELECT sum(b1.volume * b2.volume) FROM bids b1, bids b2 "
            "WHERE b1.broker_id = b2.broker_id",
            catalog,
        )
        # broker 1: (10+20)^2 = 900; broker 2: 25 -> 925
        assert rows == [(925,)]


class TestEngineContract:
    def test_division_inside_a_subquery_is_refused(self, catalog):
        with pytest.raises(UnsupportedQueryError, match="divides"):
            ReevalEngine(
                {
                    "q": "SELECT sum(b.volume) FROM bids b WHERE b.price > "
                    "(SELECT sum(a.price) / 2 FROM asks a)"
                },
                catalog,
            )

    def test_unknown_refresh_policy_raises(self, catalog):
        with pytest.raises(EventError, match="refresh"):
            ReevalEngine({"q": "SELECT sum(volume) FROM bids"}, catalog, "never")

    def test_eager_and_lazy_agree_over_a_weighted_batch(self, catalog):
        sql = "SELECT broker_id, sum(volume), count(*) FROM bids GROUP BY broker_id"
        engines = [ReevalEngine({"q": sql}, catalog, refresh) for refresh in ("eager", "lazy")]
        for engine in engines:
            engine.process_batch("bids", 1, ROWS["bids"])
            engine.process_batch(
                "bids", [1, -1, -1], [(3, 90, 6), (1, 100, 10), (2, 99, 5)]
            )
        eager, lazy = engines
        assert eager.results("q") == lazy.results("q") == [(1, 20, 1), (3, 6, 1)]
        assert eager.events_processed == lazy.events_processed == 6
        assert eager.total_entries() == lazy.total_entries() == 2


class TestCrossCheckEngine:
    """sqlite re-evaluation and the delta engine must agree."""

    QUERIES = [
        "SELECT sum(r.A * t.D) FROM R r, S s, T t WHERE r.B = s.B AND s.C = t.C",
        "SELECT broker_id, sum(volume), count(*) FROM bids GROUP BY broker_id",
        "SELECT sum(b.volume) FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "AND a.price > b.price",
        "SELECT sum(volume) FROM bids WHERE price BETWEEN 99 AND 101",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_agreement(self, sql, catalog):
        from repro.compiler import compile_sql
        from repro.runtime import DeltaEngine

        engine = DeltaEngine(compile_sql(sql, catalog, name="q"))
        for relation, tuples in ROWS.items():
            engine.load(relation, tuples)
        assert run(sql, catalog) == sorted(engine.results("q"), key=repr)
