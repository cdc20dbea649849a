"""End-to-end correctness: every engine mode vs sqlite.

For a diverse suite of SQL query shapes we drive identical random streams of
inserts and deletes through the compiled engine, the interpreted engine, and
the first-order (classical IVM) compiled variant, and after every event
compare their full result sets exactly to sqlite re-evaluating the query
over the accumulated tables (``tests/integration/sql_oracle.py``; only
sqlite's NULL, the empty aggregate, reads as the engines' 0), and to each
other by ``repr``.

This one test family subsumes: recursive compilation, map sharing, trigger
ordering, code generation, group-by semantics (incl. group disappearance),
avg/min/max rendering, and nested-aggregate fallback compilation.
"""

import random

import pytest

from repro.algebra.translate import translate_sql
from repro.compiler import CompileOptions, compile_queries
from repro.runtime import DeltaEngine, StreamEvent
from repro.sql.catalog import Catalog
from tests.integration.sql_oracle import SqliteOracle

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
CREATE STREAM bids (broker_id int, price int, volume int);
CREATE STREAM asks (broker_id int, price int, volume int);
"""

QUERIES = {
    "chain_join": (
        "SELECT sum(r.A * t.D) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C"
    ),
    "grouped": (
        "SELECT broker_id, sum(price * volume), count(*) FROM bids "
        "GROUP BY broker_id"
    ),
    "avg": "SELECT broker_id, avg(price) FROM bids GROUP BY broker_id",
    "minmax": (
        "SELECT broker_id, min(price), max(price) FROM bids GROUP BY broker_id"
    ),
    "self_join": (
        "SELECT sum(b1.volume * b2.volume) FROM bids b1, bids b2 "
        "WHERE b1.broker_id = b2.broker_id"
    ),
    "two_way_grouped": (
        "SELECT b.broker_id, sum(a.volume) - sum(b.volume) "
        "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "GROUP BY b.broker_id"
    ),
    "axfinder": (
        "SELECT b.broker_id, sum(a.volume) - sum(b.volume) "
        "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "AND a.price - b.price < 3 AND b.price - a.price < 3 "
        "GROUP BY b.broker_id"
    ),
    "exists_correlated": (
        "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT a.broker_id FROM asks a WHERE a.broker_id = b.broker_id)"
    ),
    "in_subquery": (
        "SELECT sum(b.volume) FROM bids b WHERE b.broker_id IN "
        "(SELECT a.broker_id FROM asks a WHERE a.volume > 2)"
    ),
    # Threshold EXISTS: answered from a maintained min/max of the asks
    # prices (mst's shape), restated only when that extremum moves.
    "exists_threshold": (
        "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT a.price FROM asks a WHERE a.price <= b.price - 1)"
    ),
    "not_exists_threshold": (
        "SELECT sum(b.volume) FROM bids b WHERE NOT EXISTS "
        "(SELECT a.price FROM asks a WHERE a.price > 2 * b.price)"
    ),
    "vwap_nested": (
        "SELECT sum(b.price * b.volume) FROM bids b "
        "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)"
    ),
    "or_predicate": (
        "SELECT sum(volume) FROM bids WHERE price < 3 OR price > 7"
    ),
    "not_in": (
        "SELECT sum(b.volume) FROM bids b WHERE b.broker_id NOT IN "
        "(SELECT a.broker_id FROM asks a)"
    ),
}

_RELATION_ARITY = {"R": 2, "S": 2, "T": 2, "bids": 3, "asks": 3}


def random_stream(relations, steps, seed, domain=4, delete_rate=0.4):
    """A random insert/delete stream keeping deletions valid."""
    rng = random.Random(seed)
    live = {rel: [] for rel in relations}
    events = []
    for _ in range(steps):
        rel = rng.choice(relations)
        if live[rel] and rng.random() < delete_rate:
            tup = live[rel].pop(rng.randrange(len(live[rel])))
            events.append(StreamEvent(rel, -1, tup))
        else:
            tup = tuple(
                rng.randint(0, domain) for _ in range(_RELATION_ARITY[rel])
            )
            live[rel].append(tup)
            events.append(StreamEvent(rel, 1, tup))
    return events


def exact_rows(rows) -> list[tuple]:
    """``rows`` sorted, with NULL as 0 and every other value as it is."""
    return sorted(
        (tuple(0 if value is None else value for value in row) for row in rows),
        key=repr,
    )


def run_comparison(sql, engines_options, steps=220, seed=7, **stream_shape):
    catalog = Catalog.from_script(CATALOG_DDL)
    query = translate_sql(sql, catalog, name="q")
    engines = {}
    for label, (mode, options) in engines_options.items():
        program = compile_queries(
            [translate_sql(sql, catalog, name="q")], catalog, options
        )
        engines[label] = DeltaEngine(program, mode=mode)

    oracle = SqliteOracle(catalog, sql)
    for step, event in enumerate(
        random_stream(list(query.relations), steps, seed, **stream_shape)
    ):
        oracle.apply(event)
        expected = exact_rows(oracle.connection.execute(sql).fetchall())
        results = {}
        for label, engine in engines.items():
            engine.process(event)
            got = results[label] = exact_rows(engine.results("q"))
            assert got == expected, (
                f"{label} diverged at step {step} after {event}:\n"
                f"  got      {got}\n  expected {expected}"
            )
        assert len({repr(rows) for rows in results.values()}) == 1, results


ALL_MODES = {
    "compiled": ("compiled", None),
    "interpreted": ("interpreted", None),
    "first_order": ("compiled", CompileOptions(derived_maps=False)),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engines_match_oracle(name):
    run_comparison(QUERIES[name], ALL_MODES)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["exists_threshold", "not_exists_threshold"])
def test_threshold_exists_more_seeds(name, seed):
    """Shallow books over three prices: a side empties, or loses its
    extremum, every few events."""
    catalog = Catalog.from_script(CATALOG_DDL)
    program = compile_queries(
        [translate_sql(QUERIES[name], catalog, name="q")], catalog
    )
    assert "cache" in program.base_maps["asks"].extremum
    run_comparison(
        QUERIES[name], ALL_MODES, steps=200, seed=seed, domain=2, delete_rate=0.5
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_join_more_seeds(seed):
    run_comparison(QUERIES["chain_join"], ALL_MODES, steps=300, seed=seed)


def test_multi_query_program_shares_maps_and_stays_correct():
    catalog = Catalog.from_script(CATALOG_DDL)
    sqls = [QUERIES["grouped"], QUERIES["two_way_grouped"], QUERIES["avg"]]
    queries = [
        translate_sql(sql, catalog, name=f"q{i}") for i, sql in enumerate(sqls)
    ]
    program = compile_queries(queries, catalog)
    engine = DeltaEngine(program, mode="compiled")
    oracle = SqliteOracle(catalog, "")
    for event in random_stream(["bids", "asks"], 260, seed=11):
        engine.process(event)
        oracle.apply(event)
    for i, sql in enumerate(sqls):
        expected = oracle.connection.execute(sql).fetchall()
        assert exact_rows(engine.results(f"q{i}")) == exact_rows(expected)
