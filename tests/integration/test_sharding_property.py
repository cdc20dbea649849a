"""Sharded execution must be indistinguishable from a single engine.

Property (hypothesis, over the R/S/T strategies): for random event
streams, any shard count 1–4 and any batch size, a ``ShardedEngine``'s
merged maps, results and event counters equal a single ``DeltaEngine``
processing the same stream — in compiled and interpreted modes, for a
partitionable program (hash-routed lanes), a co-partitioned join, and a
non-partitionable program (serial fallback).  A deterministic family
pins the same identity on the finance workload streams the benchmarks
measure, including the forked worker-process backend.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.sql.catalog import Catalog
from tests.strategies import events

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""

#: Shapes covering the three routing classes: hash-partitioned grouped
#: maps, co-partitioned join state on a shared key, and the serial lane.
QUERIES = {
    "grouped": "SELECT A, sum(B) FROM R GROUP BY A",
    "co_partitioned_join": (
        "SELECT r.B, sum(r.A * s.C) FROM R r, S s "
        "WHERE r.B = s.B GROUP BY r.B"
    ),
    "serial_chain_join": (
        "SELECT sum(r.A * t.D) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C"
    ),
}


@lru_cache(maxsize=None)
def _program(query_name: str):
    catalog = Catalog.from_script(CATALOG_DDL)
    translated = translate_sql(QUERIES[query_name], catalog, name="q")
    return compile_queries([translated], catalog)


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
@settings(max_examples=20, deadline=None)
@given(
    stream=st.lists(events(), max_size=40),
    shards=st.integers(min_value=1, max_value=4),
    batch_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
def test_sharded_equals_single_engine(query_name, mode, stream, shards, batch_size):
    program = _program(query_name)
    reference = DeltaEngine(program, mode=mode)
    sharded = ShardedEngine(program, shards=shards, mode=mode)
    stream_events = [
        StreamEvent(relation, sign, values) for relation, sign, values in stream
    ]
    for event in stream_events:
        reference.process(event)
    consumed = sharded.process_stream(stream_events, batch_size=batch_size)
    assert consumed == len(stream_events)
    assert sharded.current_maps() == reference.maps
    assert sharded.results() == reference.results()
    assert sharded.events_processed == reference.events_processed
    assert sharded.events_skipped == reference.events_skipped


@pytest.mark.parametrize(
    "query_name", ["vwap", "axf", "bsp", "psp", "mst", "bbo", "act"]
)
@pytest.mark.parametrize("shards", [2, 4])
def test_finance_workload_sharded_identical(query_name, shards):
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.orderbook import OrderBookGenerator

    catalog = finance_catalog()
    translated = translate_sql(
        FINANCE_QUERIES[query_name], catalog, name=query_name
    )
    program = compile_queries([translated], catalog)
    stream_events = list(OrderBookGenerator(seed=2009).events(400))
    reference = DeltaEngine(program, mode="compiled")
    for event in stream_events:
        reference.process(event)
    sharded = ShardedEngine(program, shards=shards)
    sharded.process_stream(stream_events, batch_size=64)
    assert sharded.current_maps() == reference.maps
    assert sharded.results() == reference.results()


def test_warehouse_workload_sharded_identical():
    from repro.workloads.ssb import SSB_Q41_COMBINED, ssb_catalog
    from repro.workloads.tpch import TpchGenerator

    catalog = ssb_catalog()
    translated = translate_sql(SSB_Q41_COMBINED, catalog, name="ssb41")
    program = compile_queries([translated], catalog)
    generator = TpchGenerator(sf=0.0004, seed=1992)
    stream_events = [
        StreamEvent(relation, 1, row)
        for relation, rows in generator.static_tables().items()
        for row in rows
    ] + [
        StreamEvent(relation, 1, row)
        for relation, row in generator.orders_and_lineitems()
    ]
    reference = DeltaEngine(program)
    for event in stream_events:
        reference.process(event)
    sharded = ShardedEngine(program, shards=4)
    sharded.process_stream(stream_events, batch_size=128)
    assert sharded.current_maps() == reference.maps
    assert sharded.results() == reference.results()
