"""The compiled lane's ordered key index (``repro.codegen.pygen.ordered_maps``).

* Random streams (hypothesis) over RST shapes whose compiled triggers read
  an ordered key index: threshold scans over a whole map (the bound on
  either side) and over one hash bucket, and grouped and scalar MIN/MAX
  whose deletes favour the current extremum.  Each runs per event, through
  ``process_stream`` at batch 7 and as one window, and behind 2 in-process
  shards at batch 7; every compiled run leaves maps ``repr``-equal
  (insertion order included) to the interpreted lane's, which keeps plain
  scans, and answers what sqlite answers.
* Module pins: vwap, mst, bbo and the shared finance program keep an
  ordered index (threshold scans read a bisected slice, a leaving extremum
  the end of a sorted list); no other shipped program does, and no
  ``optimize=False`` or ``use_indexes=False`` module does.

The order book at depth 2000 runs in ``tests/integration/deep_book.py``
(CI's sqlite-oracle job; too slow for tier-1).
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.codegen.pygen import generate_module, ordered_maps
from repro.compiler import compile_sql
from repro.compiler.program import ExecutorOptions
from repro.runtime.engine import EMPTY_STATE
from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.ssb import SSB_FLIGHT
from tests import lanes
from tests.integration.sql_oracle import (
    SqliteOracle,
    normalize_rows,
    oracle_stream,
    run_differential,
)

#: name -> (sql, the column its deletes attack in each relation it reads).
ORDERED_SHAPES = {
    "threshold": (
        "SELECT sum(r.A) FROM R r WHERE r.B > 0.5 * (SELECT sum(r1.B) FROM R r1)",
        {"R": 1},
    ),
    "threshold_bound_left": (
        "SELECT sum(r.A) FROM R r WHERE 0.5 * (SELECT sum(r1.B) FROM R r1) >= r.B",
        {"R": 1},
    ),
    "bucket_threshold": (
        "SELECT sum(s.C) FROM R r, S s WHERE r.A = s.B AND s.C < r.B",
        {"R": 1, "S": 1},
    ),
    "grouped_minmax": (
        "SELECT r.A, max(r.B), min(r.B) FROM R r GROUP BY r.A",
        {"R": 1},
    ),
    "scalar_min": ("SELECT min(t.D), count(*) FROM T t", {"T": 1}),
}


@lru_cache(maxsize=None)
def _program(shape):
    return compile_sql(ORDERED_SHAPES[shape][0], lanes.RST, name="q")


_ENGINES: dict = {}


def _empty(shape, lane):
    if (shape, lane) not in _ENGINES:
        _ENGINES[shape, lane] = lanes.build_engine(_program(shape), lane)
    engine = _ENGINES[shape, lane]
    engine.restore_state(EMPTY_STATE)
    return engine


@pytest.mark.parametrize("shape", sorted(ORDERED_SHAPES))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), steps=st.integers(0, 60))
def test_compiled_maps_equal_the_interpreted_lanes(shape, seed, steps):
    sql, attack = ORDERED_SHAPES[shape]
    assert ordered_maps(_program(shape)), "the shape reads no ordered index"
    feed = oracle_stream(
        {relation: 2 for relation in attack}, steps, seed, domain=6, attack=attack
    )
    oracle = SqliteOracle(lanes.RST, sql)
    oracle.apply_all(feed)
    expected = oracle.rows()
    for shards, delivery in (
        ("", "process"), ("", "stream-7"), ("", "stream"), ("/2", "stream-7")
    ):
        compiled = _empty(shape, "compiled" + shards)
        interpreted = _empty(shape, "interpreted" + shards)
        for engine in (compiled, interpreted):
            lanes.deliver(engine, feed, delivery)
        assert repr(compiled.current_maps()) == repr(interpreted.current_maps())
        assert normalize_rows(compiled.results()) == expected, (shards, delivery)


#: Every shipped program: the 11 queries alone, and the SSB four-view and
#: the seven-view finance programs.
SHIPPED = (*FINANCE_QUERIES, *SSB_FLIGHT, "warehouse", "finance")

#: The programs whose compiled module keeps an ordered key index, by map.
ORDERED = {
    "vwap": {"m1_bids": 1},  # threshold scans per event and in the restate
    "mst": {"m2_asks": 1},  # the MIN rescan; its restate runs under a guard
    "bbo": {"q_q_max_1": 2, "q_q_min_2": 2},  # the MAX and MIN rescans
    "finance": {"q_bbo_max_1": 2, "q_bbo_min_2": 2},
}


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("options", [{}, {"optimize": False}, {"use_indexes": False}])
def test_which_shipped_programs_keep_an_ordered_index(name, options):
    """Only vwap, mst, bbo and the finance program keep one, and only in
    the default rendering: ``optimize=False`` and ``use_indexes=False``
    keep plain scans, as the interpreted lane does."""
    program = lanes.shipped_program(name)
    expected = {} if options else ORDERED.get(name, {})
    assert ordered_maps(program, ExecutorOptions("compiled", **options)) == expected
    source = generate_module(program, **options)
    if not expected:
        assert not any(word in source for word in ("_insort", "_bisect", "__s_"))
        return
    # A threshold scan reads a bisected slice; a leaving extremum reads a
    # sorted list, and no longer rescans its occurrence map.
    assert ("in __s_m1_bids[_bisect_right(" in source) == (name == "vwap")
    rescans = [line for line in source.splitlines() if "for __q" in line]
    assert rescans == []


@pytest.mark.parametrize("batch_size", [1, 7])
def test_a_bucket_threshold_keeps_no_hash_bucket(batch_size):
    """Every loop over ``S``'s base map under a bucket pattern is a
    threshold scan its ordered key lists serve, so no write keeps the hash
    bucket index on that pattern; ``optimize=False``, which keeps no
    ordered index, keeps the bucket.  The maps equal the interpreted
    lane's, which keeps neither, and the results sqlite's after every
    batch."""
    sql = ORDERED_SHAPES["bucket_threshold"][0]
    program = _program("bucket_threshold")
    assert ordered_maps(program) == {"m1_base_s": 2}
    source = generate_module(program)
    assert "__s_m1_base_s" in source and "__x_m1_base_s_" not in source
    assert "__x_m1_base_s_0" in generate_module(program, optimize=False)
    feed = oracle_stream({"R": 2, "S": 2}, 150, 3, domain=6, attack={"S": 1})
    compiled = lanes.build_engine(program)
    run_differential(compiled, SqliteOracle(lanes.RST, sql), feed, batch_size)
    interpreted = lanes.build_engine(program, "interpreted")
    lanes.deliver(interpreted, feed, f"stream-{batch_size}")
    assert repr(compiled.current_maps()) == repr(interpreted.current_maps())
