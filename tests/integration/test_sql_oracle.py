"""Differential testing against sqlite3 (see ``sql_oracle.py``).

The non-linear aggregates (MIN/MAX, DISTINCT, COUNT(DISTINCT ...)) are
the focus: their auxiliary caches are kept by the writes whose key
crosses zero, with a re-derivation path on extremum deletes, which no
linear parity suite exercises.  The harness replays identical random
insert/delete streams — biased towards deleting the current extremum —
into the engines and an in-memory sqlite3 database, asserting
repr-normalised result parity at every batch boundary, across:

* compiled and interpreted engines, batch sizes 1-100 (hypothesis);
* sharded engines with 1-4 lanes;
* the bundled non-linear finance workloads (``bbo``, ``act``) and the
  existing linear query shapes (sum/count/avg, joins, nesting);
* the native backend's forced-off configuration, its plan declining the
  non-linear maps, and its kernel lane wherever a kernel attaches;
* a SIGKILL crash / recover cycle of a durable engine.
"""

import signal
import sys
from functools import lru_cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler import compile_sql
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from tests import lanes
from tests.integration.sql_oracle import (
    BOOKS,
    NARROWED_QUERIES,
    SqliteOracle,
    assert_rows_match,
    narrowed_program,
    normalize_rows,
    oracle_stream,
    run_differential,
)

NONLINEAR_QUERIES = {
    "minmax_grouped": (
        "SELECT broker_id, min(price), max(price) FROM bids "
        "GROUP BY broker_id"
    ),
    "scalar_extrema": (
        "SELECT min(price), max(price), count(DISTINCT broker_id) FROM bids"
    ),
    "count_distinct_grouped": (
        "SELECT price, count(DISTINCT broker_id) FROM bids GROUP BY price"
    ),
    "select_distinct": "SELECT DISTINCT broker_id, price FROM bids",
    "join_minmax": (
        "SELECT b.broker_id, max(b.price), min(a.price) "
        "FROM bids b, asks a WHERE b.broker_id = a.broker_id "
        "GROUP BY b.broker_id"
    ),
    "mixed": (
        "SELECT broker_id, sum(volume), max(price), count(DISTINCT price) "
        "FROM bids GROUP BY broker_id"
    ),
}

LINEAR_QUERIES = {
    "grouped_sum": (
        "SELECT broker_id, sum(price * volume), count(*) FROM bids "
        "GROUP BY broker_id"
    ),
    "avg": "SELECT broker_id, avg(price) FROM bids GROUP BY broker_id",
    "join_sum": (
        "SELECT b.broker_id, sum(a.price * a.volume) - "
        "sum(b.price * b.volume) FROM bids b, asks a "
        "WHERE b.broker_id = a.broker_id GROUP BY b.broker_id"
    ),
    "vwap_nested": (
        "SELECT sum(b.price * b.volume) FROM bids b "
        "WHERE b.volume > 0.25 * (SELECT sum(b1.volume) FROM bids b1)"
    ),
    "exists_correlated": (
        "SELECT sum(b.volume) FROM bids b WHERE EXISTS "
        "(SELECT a.broker_id FROM asks a WHERE a.broker_id = b.broker_id)"
    ),
    # COUNT(col) counts rows (columns are never NULL); IN / NOT IN take a
    # list of values.
    "count_col_grouped": (
        "SELECT broker_id, count(price), count(*) FROM bids GROUP BY broker_id"
    ),
    "count_col_subquery": (
        "SELECT sum(b.volume) FROM bids b "
        "WHERE b.price < (SELECT count(a.price) FROM asks a)"
    ),
    "in_list": (
        "SELECT broker_id, sum(volume) FROM bids WHERE price IN (1, 3) "
        "GROUP BY broker_id"
    ),
    "not_in_list": "SELECT sum(volume) FROM bids WHERE price NOT IN (1, 3, 4)",
}

ALL_QUERIES = {**NONLINEAR_QUERIES, **LINEAR_QUERIES}


@lru_cache(maxsize=None)
def _program(query_name: str):
    return compile_sql(ALL_QUERIES[query_name], BOOKS, name="q")


def _events(query_name: str, steps: int, seed: int):
    """A live-delete stream over the query's relations, attacking the
    price column's extrema (index 1 in both schemas)."""
    program = _program(query_name)
    relations = {
        rel: BOOKS.get(rel).arity
        for rel in sorted({rel for rel, _ in program.triggers})
    }
    return oracle_stream(
        relations, steps, seed, domain=6,
        attack={rel: 1 for rel in relations},
    )


def _oracle(query_name: str) -> SqliteOracle:
    return SqliteOracle(BOOKS, ALL_QUERIES[query_name])


# ---------------------------------------------------------------------------
# Randomised streams (hypothesis): the bulk of the ≥200-stream budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_name", sorted(NONLINEAR_QUERIES))
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@settings(max_examples=18, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    batch_size=st.integers(min_value=1, max_value=100),
)
def test_nonlinear_matches_sqlite(query_name, mode, seed, batch_size):
    engine = DeltaEngine(_program(query_name), mode=mode)
    run_differential(
        engine, _oracle(query_name), _events(query_name, 110, seed),
        batch_size=batch_size,
    )


@pytest.mark.parametrize("query_name", sorted(LINEAR_QUERIES))
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    batch_size=st.integers(min_value=1, max_value=100),
)
def test_linear_matches_sqlite(query_name, mode, seed, batch_size):
    """The oracle is not non-linear-only: the linear surface runs too."""
    engine = DeltaEngine(_program(query_name), mode=mode)
    run_differential(
        engine, _oracle(query_name), _events(query_name, 110, seed),
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Deterministic legs: sharding, extremum eviction, finance workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "query_name", ["join_minmax", "count_distinct_grouped", "minmax_grouped"]
)
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_matches_sqlite(query_name, shards):
    """Lane-merged auxiliary caches (rebuilt from merged occurrence maps,
    never summed) must equal sqlite at every boundary."""
    for seed in (3, 44):
        with ShardedEngine(_program(query_name), shards=shards) as engine:
            run_differential(
                engine, _oracle(query_name), _events(query_name, 140, seed),
                batch_size=13,
            )


@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
def test_extremum_delete_rederivation(mode):
    """Deleting the stored extremum forces a re-derive from the occurrence
    map — checked per event on an adversarial insert/delete sequence."""
    engine = DeltaEngine(_program("minmax_grouped"), mode=mode)
    oracle = _oracle("minmax_grouped")
    events = []
    for price in range(12):  # ascending: every insert moves the max
        events.append(StreamEvent("bids", 1, (1, price, 1)))
    for price in range(11, -1, -1):  # delete max first, then next...
        events.append(StreamEvent("bids", -1, (1, price, 1)))
    for price in (5, 5, 3, 9):  # duplicates: eviction with a tie survivor
        events.append(StreamEvent("bids", 1, (2, price, 1)))
    events.append(StreamEvent("bids", -1, (2, 9, 1)))  # unique max dies
    events.append(StreamEvent("bids", -1, (2, 5, 1)))  # tied copy remains
    events.append(StreamEvent("bids", -1, (2, 3, 1)))  # min re-derives to 5
    run_differential(engine, oracle, events, batch_size=1)


#: The query-surface regressions on the RST schema, each with the
#: stream it was found on: ``count(C)`` read as ``sum(C)`` (5 here, not
#: 2), in a select item and in a scalar subquery (7 here, not 0); a
#: literal ``IN`` / ``NOT IN`` list was a ``ParseError``.
SURFACE_REGRESSIONS = {
    "count_col": (
        "SELECT count(C) FROM T",
        [StreamEvent("T", 1, (3, 1)), StreamEvent("T", 1, (2, 5))],
    ),
    "count_col_subquery": (
        "SELECT sum(r.A) FROM R r WHERE r.B < (SELECT count(s.C) FROM S s)",
        [StreamEvent("R", 1, (7, 2)), StreamEvent("S", 1, (1, 3))],
    ),
    "in_list": (
        "SELECT r.B, sum(r.A) FROM R r WHERE r.B IN (1, 2) GROUP BY r.B",
        [StreamEvent("R", 1, (a, b)) for a, b in ((7, 0), (5, 1), (11, 2), (3, 1))],
    ),
    "not_in_list": (
        "SELECT sum(r.A) FROM R r WHERE r.B NOT IN (1, 2)",
        [StreamEvent("R", 1, (a, b)) for a, b in ((7, 0), (5, 1), (11, 2), (13, 3))],
    ),
}


@pytest.mark.parametrize("query_name", sorted(SURFACE_REGRESSIONS))
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
def test_query_surface_regressions_match_sqlite(query_name, mode):
    sql, events = SURFACE_REGRESSIONS[query_name]
    engine = DeltaEngine(compile_sql(sql, lanes.RST, name="q"), mode=mode)
    run_differential(engine, SqliteOracle(lanes.RST, sql), events)


#: A MIN/MAX argument equated with a group column: the write keyed
#: ``[group, value]`` took its value key from a lift onto the group key
#: before the equality fixed that key, and named an unbound ``__k0``.
EXTREMUM_ON_GROUP_KEY = {
    "max_joined": (
        "SELECT r0.B, max(t1.C) FROM R r0, T t1 WHERE t1.C = r0.B GROUP BY r0.B"
    ),
    "min_self_join": (
        "SELECT r1.B, min(r0.B) FROM R r0, R r1 WHERE r1.B = r0.B GROUP BY r1.B"
    ),
}


@pytest.mark.parametrize("query_name", sorted(EXTREMUM_ON_GROUP_KEY))
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@pytest.mark.parametrize("batch_size", [1, 7])
def test_extremum_on_a_group_key_matches_sqlite(query_name, mode, batch_size):
    sql = EXTREMUM_ON_GROUP_KEY[query_name]
    engine = DeltaEngine(compile_sql(sql, lanes.RST, name="q"), mode=mode)
    events = oracle_stream(
        {"R": 2, "T": 2}, 120, seed=13, domain=4, attack={"R": 1, "T": 0}
    )
    run_differential(engine, SqliteOracle(lanes.RST, sql), events, batch_size)


#: A batch body whose lifted prelude ``share-locals`` rewrote: the row
#: loop kept reading ``__d3``, a lookup the pass renamed away, and a batch
#: of R rows raised ``NameError`` (``KeyError`` interpreted).
BATCH_PRELUDE = (
    "SELECT sum(s1.B) FROM R r0, S s1 WHERE s1.C = r0.A AND s1.C = 4"
    " AND NOT EXISTS (SELECT z.B FROM S z WHERE z.C = r0.B)"
)


@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@pytest.mark.parametrize("batch_size", [1, 7])
def test_a_batch_body_reads_only_names_it_binds(mode, batch_size):
    engine = DeltaEngine(compile_sql(BATCH_PRELUDE, lanes.RST, name="q"), mode=mode)
    events = oracle_stream({"R": 2, "S": 2}, 120, seed=5, domain=4)
    oracle = SqliteOracle(lanes.RST, BATCH_PRELUDE)
    run_differential(engine, oracle, events, batch_size)


@pytest.mark.parametrize("query_name", ["bbo", "act"])
@pytest.mark.parametrize("mode,batch_size", [
    ("compiled", 1), ("compiled", 64), ("interpreted", 23),
])
def test_finance_nonlinear_matches_sqlite(query_name, mode, batch_size):
    """The bundled non-linear finance workloads against real book traffic."""
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    engine = DeltaEngine(lanes.shipped_program(query_name), mode=mode)
    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query_name])
    run_differential(engine, oracle, lanes.order_book(2009, 400), batch_size=batch_size)


def _order(relation, sign, order_id, broker, price, volume=10):
    return StreamEvent(relation, sign, (order_id, order_id, broker, price, volume))


#: Per event: the current max bid, the current min ask, and the last live
#: value of a group leave their occurrence map — the writes whose
#: zero crossing rescans a group or steps a distinct count.
_CROSSINGS = [
    *(_order("bids", 1, i, 1, price) for i, price in enumerate((5, 9, 7, 9))),
    *(_order("asks", 1, 10 + i, 1, price) for i, price in enumerate((12, 11, 14))),
    _order("bids", 1, 20, 2, 3),
    _order("asks", 1, 21, 2, 4),
    _order("bids", -1, 1, 1, 9),  # a tied max: 9 stays live
    _order("bids", -1, 3, 1, 9),  # the max leaves: 7
    _order("asks", -1, 11, 1, 11),  # the min leaves: 12
    _order("bids", -1, 20, 2, 3),  # broker 2's last bid: its group empties
    _order("asks", -1, 21, 2, 4),  # ... and its last ask
    _order("bids", 1, 22, 2, 6),  # the group comes back
    _order("asks", -1, 10, 1, 12),
    _order("asks", -1, 12, 1, 14),  # broker 1's asks are gone
    _order("bids", -1, 0, 1, 5),
    _order("bids", -1, 2, 1, 7),
]


@pytest.mark.parametrize("query_name", ["bbo", "mst", "act"])
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
def test_finance_caches_cross_zero_per_event(query_name, mode):
    """bbo (grouped MIN and MAX), mst (a scalar MIN read by EXISTS) and
    act (COUNT DISTINCT): each extremum and each group's last value
    leaves one event at a time."""
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    program = lanes.shipped_program(query_name)
    assert program.finalizers
    engine = DeltaEngine(program, mode=mode)
    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query_name])
    run_differential(engine, oracle, _CROSSINGS, batch_size=1)


@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@pytest.mark.parametrize("batch_size", [1, 7])
def test_self_join_max_crosses_in_sequence(mode, batch_size):
    """A self-join writes one occurrence key several times per event (the
    event's own row, then its join partners): each write sees the pre-value
    the one before left, so the crossings apply in sequence."""
    from repro.workloads.finance import finance_catalog

    sql = (
        "SELECT b.broker_id, max(b.price) FROM bids b, bids b2 "
        "WHERE b.broker_id = b2.broker_id GROUP BY b.broker_id"
    )
    catalog = finance_catalog()
    program = compile_sql(sql, catalog, name="q")
    assert program.finalizers
    bids = [event for event in _CROSSINGS if event.relation == "bids"]
    run_differential(
        DeltaEngine(program, mode=mode), SqliteOracle(catalog, sql), bids,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Narrowed base maps and extremum-backed EXISTS: every shape they touch
# ---------------------------------------------------------------------------


def _narrowed_stream(seed: int) -> list:
    """Random traffic over both books (domain 0..4: zero volumes, duplicate
    full rows, ties at the extremum; deletes attack min and max price),
    then every live row deleted — each side passes through empty — and a
    few rows back in."""
    events = oracle_stream(
        {"asks": 3, "bids": 3}, 70, seed, domain=4,
        attack={"asks": 1, "bids": 1},
    )
    live: list = []
    for event in events:
        if event.sign == 1:
            live.append(event)
        else:
            live.remove(StreamEvent(event.relation, 1, event.values))
    events += [StreamEvent(e.relation, -1, e.values) for e in live]
    events += [
        StreamEvent("bids", 1, (1, 2, 3)),
        StreamEvent("asks", 1, (1, 2, 0)),
        StreamEvent("asks", 1, (1, 2, 0)),
        StreamEvent("bids", 1, (2, 1, 5)),
    ]
    return events


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 100])
@pytest.mark.parametrize(
    "query_name,mode",
    lanes.matrix(
        {q: lambda q=q: narrowed_program(q) for q in sorted(NARROWED_QUERIES)}
    ),
)
def test_narrowed_shapes_match_sqlite(query_name, mode, batch_size, shards):
    program = narrowed_program(query_name)
    sql, reads_extremum = NARROWED_QUERIES[query_name]
    assert bool(program.finalizers) == reads_extremum
    if shards == 1:
        engine = DeltaEngine(program, mode=mode)
    else:
        engine = ShardedEngine(program, shards=shards, mode=mode)
    with engine:
        run_differential(
            engine, SqliteOracle(BOOKS, sql), _narrowed_stream(seed=31),
            batch_size=batch_size,
        )


@pytest.mark.parametrize("mode,batch_size,query_name", [
    (mode, batch_size, query)
    for query in ("mst", "vwap", "axf")
    for mode, batch_size in zip(lanes.EXECUTORS, (1, 23, 64))
    if mode in lanes.executors(lanes.shipped_program(query))
])
def test_finance_narrowed_matches_sqlite(query_name, mode, batch_size):
    """The three finance queries whose base maps narrow, on book traffic."""
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    engine = DeltaEngine(lanes.shipped_program(query_name), mode=mode)
    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query_name])
    run_differential(engine, oracle, lanes.order_book(2009, 300), batch_size=batch_size)


# ---------------------------------------------------------------------------
# Native backend: declined plans and the forced-off configuration
# ---------------------------------------------------------------------------


def test_native_plan_excludes_nonlinear_maps():
    """Eligibility is decided in the storage plan, up front: occurrence
    maps whose writes keep a cache and the auxiliary caches themselves
    never reach the C kernel."""
    from repro.compiler.storage import analyze_storage
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    for query_name in ("bbo", "act"):
        program = compile_sql(
            FINANCE_QUERIES[query_name], finance_catalog(), name="q"
        )
        plan = analyze_storage(program)
        assert program.finalizers, query_name
        native = set(plan.native_maps)
        for occ_name, specs in program.finalizers.items():
            storage = plan.storage_for(occ_name)
            assert occ_name not in native
            # Declined with a stated reason (the cache gate when
            # nothing else disqualified the map first).
            assert not storage.native and storage.native_reason
            for spec in specs:
                aux = plan.storage_for(spec.aux)
                assert spec.aux not in native
                assert aux.kind == "dict" and not aux.native
                assert "auxiliary" in (aux.reason or "")


@pytest.mark.parametrize("query_name", ["bbo", "act"])
def test_forced_native_off_parity(query_name):
    """The REPRO_NATIVE=off lane (CI's forced fallback) on the new
    workloads: pure-python storage, same sqlite parity."""
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    with lanes.native_off():
        engine = DeltaEngine(lanes.shipped_program(query_name), mode="compiled")
        assert not engine.native_active
        oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[query_name])
        run_differential(engine, oracle, lanes.order_book(11, 150), batch_size=9)


# ---------------------------------------------------------------------------
# Crash recovery: SIGKILL a durable engine mid-stream, recover, compare
# ---------------------------------------------------------------------------

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "runtime"))
from fault_injection import (  # noqa: E402
    assert_recovery_parity,
    build_program,
    run_to_crash,
    stream_events,
)


@pytest.mark.parametrize("workload,label,hits,snapshot_every", [
    ("bbo", "engine.after_append", 7, None),
    ("act", "engine.after_apply", 9, 4),
    ("bbo", "snapshot.before_rename", 2, 64),
    ("act", "wal.mid_frame", 6, None),
])
def test_sigkill_recover_matches_sqlite(
    tmp_path, workload, label, hits, snapshot_every
):
    """An actual SIGKILL mid-stream: the recovered auxiliary caches (and
    everything else) must equal both the fresh-engine reference and the
    sqlite oracle replaying the recovered LSN's prefix."""
    from repro.runtime.durability import recover_engine
    from repro.runtime.events import batches
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog

    n_events, seed, batch_size = 400, 2009, 16
    code = run_to_crash(
        tmp_path, label, hits, workload=workload, n_events=n_events,
        seed=seed, batch_size=batch_size, snapshot_every=snapshot_every,
    )
    assert code == -signal.SIGKILL
    program = build_program(workload)
    engine, lsn = recover_engine(program, tmp_path)
    assert lsn > 0
    assert_recovery_parity(engine, lsn, workload, n_events, seed, batch_size)

    oracle = SqliteOracle(finance_catalog(), FINANCE_QUERIES[workload])
    for index, batch in enumerate(
        batches(stream_events(workload, n_events, seed), batch_size)
    ):
        if index >= lsn:
            break
        oracle.apply_all(batch)  # its events, each with its own sign
    assert_rows_match(engine, oracle, "q", context=f" at recovered LSN {lsn}")


def test_normalize_rows_canonicalises():
    assert normalize_rows([(None, 2.0, 2.5, "x")]) == [(0, 2, 2.5, "x")]
