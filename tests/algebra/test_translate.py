"""Translation tests: SQL -> calculus, checked against the evaluator."""

import pytest

from repro.algebra.eval import eval_expr, eval_scalar
from repro.algebra.expr import AggSum, relations_in
from repro.algebra.translate import (
    RBin,
    RGroup,
    RSlot,
    eval_result,
    translate_sql,
)
from repro.errors import ParseError, TranslationError
from repro.sql.catalog import Catalog


@pytest.fixture
def catalog():
    return Catalog.from_script(
        """
        CREATE STREAM R (A int, B int);
        CREATE STREAM S (B int, C int);
        CREATE STREAM T (C int, D int);
        CREATE STREAM bids (broker_id int, price int, volume int);
        CREATE STREAM asks (broker_id int, price int, volume int);
        CREATE TABLE nation (n_nationkey int, n_name varchar(25), n_regionkey int);
        """
    )


@pytest.fixture
def db():
    return {
        "R": {(1, 10): 1, (2, 20): 1},
        "S": {(10, 100): 1, (20, 200): 1, (20, 300): 1},
        "T": {(100, 5): 1, (200, 7): 1, (300, 11): 1},
        "bids": {(1, 100, 10): 1, (1, 101, 20): 1, (2, 99, 5): 1},
        "asks": {(1, 102, 8): 1, (2, 100, 12): 1, (3, 103, 4): 1},
        "nation": {(0, "FRANCE", 1): 1, (1, "KENYA", 0): 1},
    }


class TestPaperQuery:
    def test_structure(self, catalog):
        tq = translate_sql(
            "SELECT sum(r.A * t.D) FROM R r, S s, T t "
            "WHERE r.B = s.B AND s.C = t.C",
            catalog,
        )
        spec = tq.aggregates[0]
        assert spec.kind == "sum"
        assert isinstance(spec.expr, AggSum)
        assert spec.expr.group == ()
        assert relations_in(spec.expr) == {"R", "S", "T"}
        # Equijoins are unified: no residual Cmp factors.
        assert "{" not in repr(spec.expr)

    def test_value(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(r.A * t.D) FROM R r, S s, T t "
            "WHERE r.B = s.B AND s.C = t.C",
            catalog,
        )
        # 1*5 (b=10,c=100) + 2*7 + 2*11 = 5 + 14 + 22 = 41
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 41

    def test_scalar_query_has_no_hidden_count(self, catalog):
        tq = translate_sql(
            "SELECT sum(r.A * t.D) FROM R r, S s, T t "
            "WHERE r.B = s.B AND s.C = t.C",
            catalog,
        )
        assert tq.count_slot is None
        assert len(tq.aggregates) == 1

    def test_grouped_query_gets_hidden_count(self, catalog, db):
        tq = translate_sql(
            "SELECT broker_id, sum(volume) FROM bids GROUP BY broker_id",
            catalog,
        )
        assert tq.count_slot is not None
        count = tq.aggregates[tq.count_slot]
        _, rows = eval_expr(count.expr, {}, db)
        assert rows == {(1,): 2, (2,): 1}


class TestGroupByAndArithmetic:
    def test_group_by_value(self, catalog, db):
        tq = translate_sql(
            "SELECT broker_id, sum(price * volume) FROM bids GROUP BY broker_id",
            catalog,
            name="pv",
        )
        spec = next(s for s in tq.aggregates if s.name != "__count")
        cols, rows = eval_expr(spec.expr, {}, db)
        assert rows == {(1,): 100 * 10 + 101 * 20, (2,): 99 * 5}

    def test_sum_difference_item(self, catalog, db):
        tq = translate_sql(
            "SELECT b.broker_id, sum(a.volume) - sum(b.volume) "
            "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
            "GROUP BY b.broker_id",
            catalog,
        )
        item = tq.items[1]
        assert isinstance(item.result, RBin) and item.result.op == "-"
        slots = [eval_expr(s.expr, {}, db)[1] for s in tq.aggregates]
        # broker 1: bids (10+20), ask volume 8 joined against 2 bids -> 16.
        key = (1,)
        values = [s.get(key, 0) for s in slots]
        assert eval_result(item.result, key, values) == 16 - 30

    def test_constant_pinning(self, catalog):
        tq = translate_sql(
            "SELECT sum(n_nationkey) FROM nation WHERE n_name = 'FRANCE'",
            catalog,
        )
        spec = tq.aggregates[0]
        atom = next(
            n for n in [spec.expr.body] if True
        )
        assert "'FRANCE'" in repr(spec.expr)
        assert "{" not in repr(spec.expr)  # pinned, not filtered

    def test_contradictory_pins_yield_empty(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(n_nationkey) FROM nation "
            "WHERE n_name = 'FRANCE' AND n_name = 'KENYA'",
            catalog,
        )
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 0


class TestAggregateExpansion:
    def test_avg_becomes_sum_over_count(self, catalog, db):
        tq = translate_sql("SELECT avg(price) FROM bids", catalog)
        item = tq.items[0]
        assert isinstance(item.result, RBin) and item.result.op == "/"
        slots = [eval_scalar(s.expr, {}, db) for s in tq.aggregates]
        assert eval_result(item.result, (), slots) == (100 + 101 + 99) / 3

    def test_count_star(self, catalog, db):
        tq = translate_sql("SELECT count(*) FROM bids", catalog)
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 3
        # count(*) doubles as the hidden count slot.
        assert tq.count_slot == 0
        assert len(tq.aggregates) == 1

    def test_min_occurrence_map(self, catalog, db):
        tq = translate_sql("SELECT min(price) FROM bids", catalog)
        spec = tq.aggregates[0]
        assert spec.kind == "min"
        assert spec.value_var is not None
        cols, rows = eval_expr(spec.expr, {}, db)
        assert cols == (spec.value_var,)
        assert rows == {(100,): 1, (101,): 1, (99,): 1}

    def test_max_grouped(self, catalog, db):
        tq = translate_sql(
            "SELECT broker_id, max(volume) FROM bids GROUP BY broker_id", catalog
        )
        spec = next(s for s in tq.aggregates if s.kind == "max")
        cols, rows = eval_expr(spec.expr, {}, db)
        assert rows == {(1, 10): 1, (1, 20): 1, (2, 5): 1}


class TestPredicates:
    def test_or_predicate(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(volume) FROM bids WHERE price = 100 OR price = 99",
            catalog,
        )
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 15

    def test_not_predicate(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(volume) FROM bids WHERE NOT price = 100", catalog
        )
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 25

    def test_between(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(volume) FROM bids WHERE price BETWEEN 99 AND 100",
            catalog,
        )
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 15

    def test_exists_correlated(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
            "(SELECT a.price FROM asks a WHERE a.broker_id = b.broker_id)",
            catalog,
        )
        # brokers 1 and 2 have asks; broker 3 doesn't bid. 10+20+5 = 35.
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 35

    def test_not_in_subquery(self, catalog, db):
        tq = translate_sql(
            "SELECT sum(b.volume) FROM bids b WHERE b.broker_id NOT IN "
            "(SELECT a.broker_id FROM asks a WHERE a.volume > 10)",
            catalog,
        )
        # asks with volume>10: broker 2. bids not broker 2: 10+20 = 30.
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 30

    def test_scalar_subquery_vwap_shape(self, catalog, db):
        tq = translate_sql(
            """
            SELECT sum(b.price * b.volume) FROM bids b
            WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)
            """,
            catalog,
        )
        # total volume 35; threshold 8.75; qualifying bids: v=10, v=20.
        assert eval_scalar(tq.aggregates[0].expr, {}, db) == 100 * 10 + 101 * 20


class TestResultEval:
    def test_division_by_zero_convention(self):
        expr = RBin("/", RSlot(0), RSlot(1))
        assert eval_result(expr, (), [5, 0]) == 0

    def test_group_projection(self):
        expr = RGroup(1)
        assert eval_result(expr, ("x", "y"), []) == "y"


def test_a_distinct_scalar_subquery_is_refused_by_name(catalog):
    """A scalar subquery's DISTINCT was dropped: ``COUNT(DISTINCT s.C)``
    counted every row.  With R = {(7, 1)} and S = {(0, 5), (1, 5), (9,
    5)}, S holds one distinct C, so ``r.B < 1`` keeps no row and sqlite
    answers NULL, where counting all three rows answered 7.  It is
    refused, naming the aggregate; ``SUM(DISTINCT ...)`` the parser
    already refuses."""
    import sqlite3

    sql = (
        "SELECT sum(r.A) FROM R r WHERE r.B < "
        "(SELECT {}(DISTINCT s.C) FROM S s)"
    )
    connection = sqlite3.connect(":memory:")
    connection.executescript(
        "CREATE TABLE R (A int, B int); CREATE TABLE S (B int, C int);"
        "INSERT INTO R VALUES (7, 1);"
        "INSERT INTO S VALUES (0, 5), (1, 5), (9, 5);"
    )
    assert connection.execute(sql.format("COUNT")).fetchall() == [(None,)]
    with pytest.raises(TranslationError, match=r"COUNT\(DISTINCT \.\.\.\)"):
        translate_sql(sql.format("COUNT"), catalog)
    with pytest.raises(ParseError, match=r"SUM\(DISTINCT \.\.\.\)"):
        translate_sql(sql.format("SUM"), catalog)
