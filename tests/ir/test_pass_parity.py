"""Leaving a pass out changes no map: ``share-locals`` (a lookup is
evaluated and a key tuple built once per scope, and read from its local)
and ``guards`` (statements sharing a condition, an explicit guard's or an
exact-integer factor's ``F != 0``, run under one test of it).

The programs a pass changes (every shipped query and warehouse-load's
four-view SSB program for ``share-locals``, those in ``GUARDED`` for
``guards``) run with ``DEFAULT_PASSES`` and with the pass left out, on
every lane of ``tests/lanes.py`` (the executors, native only
where a kernel owns a map; the unindexed one; two in-process shards),
per event and in batches of 3 and 100, over the bounded order book or a
TPC-H fact feed that deletes every third fact: the maps must be
``repr``-equal (values, keys and insertion order).  A batch of one runs
the per-event trigger, and ``tests/integration/test_map_parity.py`` pins
batches to per-event processing.  A program ``guards`` does not change
is pinned byte-identical without it instead.  The structural pins
check the rendered triggers read the shared locals, the four-view
lineitem row skips its supplier-keyed work behind one guard, and a float
sum is never guarded.
"""

import re
from collections import Counter
from functools import lru_cache

import pytest

import repro.ir.optimize as optimize_module
from repro.codegen.pygen import generate_module
from repro.compiler import compile_sql
from repro.ir import DEFAULT_PASSES, lower_program
from repro.ir.nodes import (
    AddTo,
    Assign,
    Compare,
    Const,
    ForEachMap,
    ForEachRow,
    IfCond,
    Lookup,
    Name,
    stmt_exprs,
    walk_stmts,
)
from repro.runtime import StreamEvent
from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.ssb import SSB_FLIGHT, load_static_tables, warehouse_stream
from repro.workloads.tpch import TpchGenerator
from tests.lanes import (
    RST,
    bounded_book,
    build_engine,
    compile_shipped,
    deliver,
    executors,
)

DELIVERIES = ("process", "stream-3", "stream-100")
PROGRAMS = (*FINANCE_QUERIES, *SSB_FLIGHT, "warehouse")
#: The programs whose module ``guards`` changes.
GUARDED = ("vwap", "axf", "bsp", "mst", "q11", "q21", "q31", "q41", "warehouse")
CASES = [
    *(("share-locals", name) for name in PROGRAMS),
    *(("guards", name) for name in GUARDED),
]


def _without(dropped: str) -> tuple[str, ...]:
    return tuple(name for name in DEFAULT_PASSES if name != dropped)


def _lanes(program) -> tuple[str, ...]:
    return (*executors(program), "unindexed", "compiled/2")


@lru_cache(maxsize=None)
def _feeds():
    """The order book (inserts and deletes at bounded depth), and a
    TPC-H fact feed that inserts every order and lineitem, then deletes
    every third one again."""
    generator = TpchGenerator(sf=0.0001, seed=2009)
    facts = list(warehouse_stream(generator))
    facts += [StreamEvent(e.relation, -1, e.values) for e in facts[::3]]
    return bounded_book(2009, 20, 600), generator, facts


def _maps(name: str, program, lane: str, delivery: str) -> str:
    """The engine's maps after the feed, as a ``repr`` that keeps each
    map's insertion order."""
    book, generator, facts = _feeds()
    engine = build_engine(program, lane)
    feed = book
    if name not in FINANCE_QUERIES:
        load_static_tables(engine, generator)
        feed = facts
    deliver(engine, feed, delivery)
    maps = engine.current_maps()
    return repr({key: list(rows.items()) for key, rows in maps.items()})


@pytest.mark.parametrize("dropped, name", CASES)
def test_maps_match_without_the_pass(dropped, name, monkeypatch):
    """Reading a lookup or a key from its local is the same probe or
    write, and a guarded group only skipped what a false condition or an
    exact zero annihilates: every map ends the same, on every lane,
    however the feed is batched."""
    full = compile_shipped(name, name)
    lanes = _lanes(full)
    expected = {
        (lane, delivery): _maps(name, full, lane, delivery)
        for lane in lanes
        for delivery in DELIVERIES
    }
    monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", _without(dropped))
    built = compile_shipped(name, name)
    for lane in lanes:
        for delivery in DELIVERIES:
            got = _maps(name, built, lane, delivery)
            assert got == expected[lane, delivery], (name, lane, delivery)


def _source(program) -> str:
    """The generated module past its header's pass list."""
    return re.sub(r"IR optimisation passes: .*\n", "", generate_module(program))


@pytest.mark.parametrize("name", PROGRAMS)
def test_guards_change_only_the_guarded_programs(name, monkeypatch):
    """Every other program's module is the same byte for byte without
    the pass, so the parity legs above cover all it changes."""
    full = _source(compile_shipped(name, name))
    monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", _without("guards"))
    assert (_source(compile_shipped(name, name)) != full) == (name in GUARDED)


def _lookups(stmts) -> Counter:
    """How often ``stmts`` probe each map."""
    counts: Counter = Counter()
    for stmt in walk_stmts(stmts):
        stack = list(stmt_exprs(stmt))
        while stack:
            expr = stack.pop()
            if isinstance(expr, Lookup):
                counts[expr.slot.name] += 1
            stack.extend(expr.children())
    return counts


def test_lineitem_row_skips_its_supplier_work_behind_one_guard():
    """Seven lineitem rows in ten of warehouse-load's feed find no
    supplier in ``m4_nation_region_supplier``: the ``m19`` scan and the
    ``m21``/``m23``/``m24``/``m25`` writes, products with that probe,
    run under its non-zero test, and the ``m17``/``m18``/``m20`` probes
    only they read are made inside it."""
    body = lower_program(compile_shipped("warehouse")).batch_triggers["lineitem", 0]
    (rows,) = [s for s in body.body if isinstance(s, ForEachRow)]
    (probe,) = [
        s.name
        for s in walk_stmts(rows.body)
        if isinstance(s, Assign)
        and isinstance(s.value, Lookup)
        and s.value.slot.name == "m4_nation_region_supplier"
    ]
    (guard,) = [
        s
        for s in walk_stmts(rows.body)
        if isinstance(s, IfCond) and s.cond == Compare("!=", Name(probe), Const(0))
    ]
    inside = walk_stmts(guard.body)
    assert "m19_customer_ddate_nation_orders_region" in {
        s.slot.name for s in inside if isinstance(s, ForEachMap)
    }
    written = {s.slot.name for s in inside if isinstance(s, AddTo)}
    for view in ("m21", "m23", "m24", "m25"):
        assert f"{view}_lineitem_nation_part_partsupp_region_supplier" in written
    probes, guarded = _lookups(rows.body), _lookups(guard.body)
    for name in ("m17_part", "m18_partsupp", "m20_partsupp"):
        assert probes[name] == guarded[name] == 1, name


#: A FLOAT sum and an integer one over the same ``m[C]`` factor.
FLOAT_SHAPE = "SELECT sum(r.A * u.D), sum(r.A) FROM R r, U u WHERE r.B = u.C"


@pytest.mark.parametrize("delivery", DELIVERIES)
def test_float_target_keeps_its_zero_factor_unguarded(delivery, monkeypatch):
    """A U row whose ``C`` no R row joins makes the factor 0, and ``0 *
    nan`` is ``nan``, which the per-event write adds to the float sum: the
    exact-integer gate leaves the statement unguarded, so ``inf`` and
    ``nan`` land in the maps as they do without the pass."""
    nan, inf = float("nan"), float("inf")
    # No R row joins an infinite or nan D: only a skipped zero product
    # could keep them out of the float sum.
    feed = [
        StreamEvent("U", 1, (1, nan)),
        StreamEvent("U", 1, (2, inf)),
        StreamEvent("R", 1, (3, 7)),
        StreamEvent("U", 1, (7, 1.5)),
        StreamEvent("U", 1, (4, -inf)),
        StreamEvent("R", 1, (5, 8)),
        StreamEvent("U", 1, (8, 2.5)),
        StreamEvent("U", -1, (4, -inf)),
        StreamEvent("U", 1, (6, nan)),
    ]
    runs = []
    for passes in (DEFAULT_PASSES, _without("guards")):
        monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", passes)
        program = compile_sql(FLOAT_SHAPE, RST, name="q")
        engine = build_engine(program)
        deliver(engine, feed, delivery)
        runs.append((repr(engine.maps), _source(program)))
    (maps, source), (maps_without, source_without) = runs
    assert maps == maps_without
    assert "nan" in maps and "inf" in maps
    assert source == source_without  # the statement stays unguarded


def _function(source: str, name: str) -> str:
    functions = re.split(r"\n(?=def )", source)
    (found,) = [f for f in functions if f.startswith(f"def {name}(")]
    return found.split("\n", 1)[1]  # the body (the signature lists the maps)


def _scopes(body: str, text: str) -> list[int]:
    """For each line of ``body`` holding ``text``, the line opening the
    block it sits in (-1: the function's top level)."""
    lines = body.splitlines()
    scopes = []
    for at, line in enumerate(lines):
        if text not in line:
            continue
        indent = len(line) - len(line.lstrip())
        opener = next(
            (
                up
                for up in range(at - 1, -1, -1)
                if lines[up].strip()
                and len(lines[up]) - len(lines[up].lstrip()) < indent
            ),
            -1,
        )
        scopes.append(opener)
    return scopes


def test_bsp_builds_its_broker_key_once():
    """bsp's bid trigger reads ``(ev_bids_broker_id,)`` twelve times
    (two probes, and the ``get`` and the store or ``pop`` of five
    writes): it builds it once, and so does each row of its batch."""
    source = generate_module(compile_shipped("bsp", "bsp"))
    for trigger in ("on_bids", "on_bids_batch"):
        body = _function(source, trigger)
        assert body.count("(ev_bids_broker_id,)") == 1, trigger
        assert not re.search(r"__k\d+ = \(", body), trigger  # no per-write key


def test_lineitem_builds_its_order_key_once_per_scope():
    """The four-view lineitem trigger read ``(ev_lineitem_l_orderkey,)``
    in 37 places: each scope now builds it at most once, and the index
    probes, writes and index maintenance after it read the local."""
    body = _function(generate_module(compile_shipped("warehouse")), "on_lineitem")
    scopes = _scopes(body, "(ev_lineitem_l_orderkey,)")
    assert 1 <= len(scopes) <= 2
    assert len(set(scopes)) == len(scopes)
