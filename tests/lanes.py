"""The engine lanes, deliveries, programs and feeds the parity suites share.

A lane is an engine configuration: an executor of ``LANES``, alone or
behind in-process shards (``compiled/2``), forked shard workers
(``forked/2``), or durable (:func:`build_engine`).  A delivery is how a
feed reaches it (:func:`deliver`).  Every suite that runs a matrix of
lanes takes it from here.

The native lane differs from the compiled one only where its C kernel
owns a map; elsewhere its generated module is the compiled one past the
header (``tests/runtime/test_storage_layout.py`` pins that).  So
:func:`executors` keeps a native leg only for programs whose native
layout holds a kernel map.  The rule reads the layout decision, not the
host: the legs and their ids are the same with or without a C toolchain.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from functools import lru_cache

from repro.algebra.translate import translate_sql
from repro.codegen.native import probe_toolchain
from repro.codegen.pygen import fused_scan_sites
from repro.compiler import compile_queries, compile_sql
from repro.compiler.storage import storage_layout
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.durability import DurableEngine
from repro.runtime.events import batches, flatten
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog
from repro.workloads.tpch import TpchGenerator
from tests.integration.sql_oracle import SqliteOracle, normalize_rows

#: lane -> the engine keyword arguments that select it.
LANES = {
    "compiled": {},
    "interpreted": {"mode": "interpreted"},
    "native": {"mode": "native"},
    "unindexed": {"use_indexes": False},
}

#: The executor modes; the first two run Python only.
EXECUTORS = ("compiled", "interpreted", "native")
PYTHON_EXECUTORS = EXECUTORS[:2]


def build_engine(program, lane="compiled", durable=None):
    """An empty engine of ``lane``: ``<executor>``, a ``DeltaEngine``;
    ``<executor>/<n>``, a ``ShardedEngine`` of ``n`` in-process lanes;
    ``forked/<n>``, of ``n`` forked compiled workers.  With ``durable``, an
    unsharded ``DurableEngine`` of the executor logging under that
    directory."""
    executor, _, shards = lane.partition("/")
    forked = executor == "forked"
    options = LANES["compiled" if forked else executor]
    if durable is not None:
        assert not shards, "the durable lane is unsharded"
        return DurableEngine(program, durable, fsync="none", **options)
    if shards:
        return ShardedEngine(program, shards=int(shards), parallel=forked, **options)
    return DeltaEngine(program, **options)


_KERNEL_MAPS: dict[int, tuple] = {}


def kernel_maps(program) -> frozenset:
    """The maps the native lane hands ``program``'s kernel wherever a C
    toolchain builds one."""
    if id(program) not in _KERNEL_MAPS:  # holding the program keeps its id
        scans = fused_scan_sites(program)
        layout = storage_layout(program, "native", kernel=True, scans=scans)
        _KERNEL_MAPS[id(program)] = (program, layout.kernel_maps)
    return _KERNEL_MAPS[id(program)][1]


def executors(program) -> tuple:
    """``EXECUTORS``, without ``native`` when no kernel would own a map of
    ``program``: that leg would re-run the compiled code."""
    return tuple(
        lane for lane in EXECUTORS if lane != "native" or kernel_maps(program)
    )


@contextmanager
def native_off():
    """``REPRO_NATIVE=off`` for the block: no kernel loads anywhere."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "off"
    probe_toolchain(refresh=True)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = saved
        probe_toolchain(refresh=True)


def matrix(programs: dict) -> list[tuple]:
    """``(name, lane)`` for each ``programs[name]()`` and each of its
    :func:`executors`: a ``parametrize`` list with ids ``name-lane``."""
    return [
        (name, lane) for name, build in programs.items() for lane in executors(build())
    ]


def deliver(engine, feed, delivery: str) -> None:
    """Drive ``feed`` through ``engine``: ``process`` calls ``process()``
    per event, ``one-row`` one one-row ``process_batch`` per event;
    ``batch-k`` / ``columns-k`` call ``process_batch`` /
    ``process_batch_columns`` once per batch of ``batches(feed, k)``;
    ``stream-k`` / ``stream`` call ``process_stream(feed, k)`` / with
    the whole feed as one window."""
    kind, _, size = delivery.partition("-")
    if kind == "process":
        for event in feed:
            engine.process(event)
    elif kind == "one":
        for event in feed:
            engine.process_batch(event.relation, event.sign, [event.values])
    elif kind == "stream":
        assert engine.process_stream(feed, int(size) if size else None) == len(feed)
    else:
        for run in batches(feed, int(size)):
            if kind == "columns":
                engine.process_batch_columns(run.relation, run.sign, run.columns)
            else:
                engine.process_batch(run.relation, run.sign, run.rows)


def applied_order(feed, delivery: str) -> list:
    """The order in which :func:`deliver` applies ``feed``'s events to an
    engine whose maps are all exact integers: a batched or streamed
    delivery applies each window one relation after another, as
    ``flatten(batches(feed, k))`` replays it."""
    kind, _, size = delivery.partition("-")
    if kind in ("process", "one"):
        return list(feed)
    return list(flatten(batches(feed, int(size) if size else None)))


def exact_items(maps) -> dict:
    """Every map's entries with full key and value identity (``repr``
    tells ``5`` from ``5.0`` and ``0.0`` from ``-0.0``), in key order:
    for engines whose lanes interleave insertion order."""
    return {
        name: sorted((repr(k), repr(v)) for k, v in contents.items())
        for name, contents in maps.items()
    }


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

#: The random-stream shapes' schema (``U`` is ``T`` with a FLOAT ``D``).
RST = Catalog.from_script(
    "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C int);"
    " CREATE STREAM T (C int, D int); CREATE STREAM U (C int, D float);"
)

#: Shapes covering straight-line triggers, foreach loops, grouped and
#: co-partitioned targets, correlated EXISTS (buffered two-phase), nested
#: aggregation, extremum-answered EXISTS, shared batch accumulators and
#: whole-map scans the native kernel owns.
RST_QUERIES = {
    "chain_join": (
        "SELECT sum(r.A * t.D) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C"
    ),
    "grouped": "SELECT A, sum(B) FROM R GROUP BY A",
    "co_partitioned_join": (
        "SELECT r.B, sum(r.A * s.C) FROM R r, S s "
        "WHERE r.B = s.B GROUP BY r.B"
    ),
    "exists_correlated": (
        "SELECT sum(r.A) FROM R r WHERE EXISTS "
        "(SELECT s.C FROM S s WHERE s.B = r.B)"
    ),
    "nested_threshold": (
        "SELECT sum(r.A) FROM R r "
        "WHERE r.B > 0.5 * (SELECT sum(r1.B) FROM R r1)"
    ),
    # mst's shape: S[C] -> count answers the test from its maintained
    # minimum; inserts into S restate q only when that minimum moves.
    "exists_threshold": (
        "SELECT sum(r.A) FROM R r WHERE EXISTS "
        "(SELECT s.B FROM S s WHERE s.C <= r.B + 1)"
    ),
    # Two sums and a count into one group through nested loops: several
    # statements per target share one batch accumulator, and their scans
    # fuse inside the outer loop ...
    "grouped_three_way": (
        "SELECT r.A, sum(r.B * t.D - t.D), sum(t.D + r.B), count(*) "
        "FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C GROUP BY r.A"
    ),
    # ... unless the sums are FLOAT: then every statement keeps its own
    # accumulator and its order.
    "grouped_three_way_float": (
        "SELECT r.A, sum(r.B * u.D - u.D), sum(u.D + r.B), count(*) "
        "FROM R r, S s, U u "
        "WHERE r.B = s.B AND s.C = u.C GROUP BY r.A"
    ),
    # Each trigger scans the other side's map whole: the native lane
    # hands both to the kernel.
    "scan": "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B < s.B",
}

#: Shapes reading ``U`` in place of ``T``: their streams carry T's rows as
#: U's, with a FLOAT ``D`` (half-integers, so every sum is exact in any
#: order and a reference may add in its own).
FLOAT_TWINS = {"grouped_three_way_float"}

#: Shapes whose compiled form reads EXISTS as "some live row", which is
#: the ring's ``sum != 0`` only while multiplicities stay non-negative
#: (the precondition MIN/MAX document): their random streams drop the
#: deletes of rows that are not there.
WELL_FORMED_ONLY = {"exists_threshold"}


@lru_cache(maxsize=None)
def rst_program(name: str):
    return compile_sql(RST_QUERIES[name], RST, name="q")


def rst_stream(name: str, drawn) -> list:
    """``tests.strategies.events`` draws as the stream shape ``name``
    reads."""
    events, live = [], {}
    for relation, sign, values in drawn:
        if name in FLOAT_TWINS and relation == "T":
            relation, values = "U", (values[0], values[1] + 0.5)
        if name in WELL_FORMED_ONLY:
            count = live.get((relation, values), 0) + sign
            if count < 0:
                continue
            live[relation, values] = count
        events.append(StreamEvent(relation, sign, values))
    return events


def compile_shipped(query: str, name: str = "q"):
    """One of the 11 shipped queries compiled alone as view ``name``, or
    ``warehouse`` / ``finance``: warehouse-load's four SSB views, or the
    seven finance views, compiled together into one program."""
    if query in FINANCE_QUERIES:
        return compile_sql(FINANCE_QUERIES[query], finance_catalog(), name=name)
    if query in SSB_FLIGHT:
        return compile_sql(SSB_FLIGHT[query], ssb_catalog(), name=name)
    if query == "warehouse":
        catalog, views = ssb_catalog(), SSB_FLIGHT
    else:
        assert query == "finance", query
        catalog, views = finance_catalog(), FINANCE_QUERIES
    return compile_queries(
        [translate_sql(sql, catalog, name=view) for view, sql in views.items()], catalog
    )


#: ``compile_shipped``, compiled once per ``(query, name)``.
shipped_program = lru_cache(maxsize=None)(compile_shipped)


# ---------------------------------------------------------------------------
# Feeds
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _book(seed: int, count: int) -> tuple:
    return tuple(OrderBookGenerator(seed=seed).events(count))


def order_book(seed: int, count: int) -> list:
    """The order-book generator's first ``count`` events."""
    return list(_book(seed, count))


def bounded_book(seed: int, depth: int, count: int) -> list[StreamEvent]:
    """Order-book traffic whose sides never hold more than ``depth``
    orders: an insert past it deletes that side's oldest order, and the
    generator's cancels of orders no longer standing are dropped."""
    live: dict[str, dict] = {"bids": {}, "asks": {}}
    events: list[StreamEvent] = []
    for event in OrderBookGenerator(seed=seed).events(1 << 62):
        book = live[event.relation]
        order_id = event.values[1]
        if event.sign > 0:
            book[order_id] = event.values
            events.append(event)
            if len(book) > depth:
                oldest = book.pop(next(iter(book)))
                events.append(StreamEvent(event.relation, -1, oldest))
        elif book.get(order_id) == event.values:
            del book[order_id]
            events.append(event)
        if len(events) >= count:
            return events[:count]
    raise AssertionError("unreachable: the generator never ends")


@lru_cache(maxsize=None)
def workload(name: str) -> tuple:
    """``(program, catalog, {view: sql}, static tables, feed)`` of a
    shipped feed: a finance query alone, as view ``name``, on the order
    book's first 600 events (seed 2009); ``ssb``, warehouse-load's four
    views on a TPC-H fact feed with cancels of live facts interleaved; or
    ``q41``, SSB q4.1 alone with its dimension rows streamed as inserts
    ahead of the facts."""
    if name in FINANCE_QUERIES:
        views = {name: FINANCE_QUERIES[name]}
        program = shipped_program(name, name)
        return program, finance_catalog(), views, {}, order_book(2009, 600)
    if name == "ssb":
        generator = TpchGenerator(sf=0.00004, seed=1992)
        rng, live, feed = random.Random(7), {}, []
        for relation, row in generator.orders_and_lineitems():
            feed.append(StreamEvent(relation, 1, row))
            rows = live.setdefault(relation, [])
            rows.append(row)
            if rng.random() < 0.55:  # then cancel a live fact of the relation
                cancelled = rows.pop(rng.randrange(len(rows)))
                feed.append(StreamEvent(relation, -1, cancelled))
        static = generator.static_tables()
        program = shipped_program("warehouse")
        return program, ssb_catalog(), SSB_FLIGHT, static, feed
    generator = TpchGenerator(sf=0.0004, seed=1992)
    tables = generator.static_tables().items()
    feed = [StreamEvent(rel, 1, row) for rel, rows in tables for row in rows]
    feed += [StreamEvent(rel, 1, row) for rel, row in generator.orders_and_lineitems()]
    program = shipped_program(name, name)
    return program, ssb_catalog(), {name: SSB_FLIGHT[name]}, {}, feed


@lru_cache(maxsize=None)
def sqlite_results(name: str) -> dict:
    """What sqlite answers per view of ``workload(name)``, normalised."""
    _, catalog, views, static, feed = workload(name)
    oracle = SqliteOracle(catalog, "")
    for relation, rows in static.items():
        oracle.apply_all(StreamEvent(relation, 1, row) for row in rows)
    oracle.apply_all(feed)
    return {
        view: normalize_rows(oracle.connection.execute(sql).fetchall())
        for view, sql in views.items()
    }
