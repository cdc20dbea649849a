"""``share-keys``: a key tuple is built once per scope, and building it
once changes no map.

Every shipped query and warehouse-load's four-view SSB program runs with
``DEFAULT_PASSES`` and with ``DEFAULT_PASSES`` minus ``share-keys``, on
the compiled, interpreted and native lanes (vwap's kernel map applies
through ``add()``; without a toolchain the native lane is the compiled
one), per event and in batches of 1, 3 and 100: the maps must be
``repr``-equal (values, keys and insertion order).  The structural pins
check the rendered triggers read the shared locals.
"""

import re
from functools import lru_cache

import pytest

import repro.ir.optimize as optimize_module
from repro.algebra.translate import translate_sql
from repro.codegen.pygen import generate_module
from repro.compiler import compile_queries, compile_sql
from repro.ir import DEFAULT_PASSES
from repro.runtime import DeltaEngine, StreamEvent
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.ssb import (
    SSB_FLIGHT,
    load_static_tables,
    ssb_catalog,
    warehouse_stream,
)
from repro.workloads.tpch import TpchGenerator
from tests.integration.test_shared_finance import bounded_book

WITHOUT = tuple(name for name in DEFAULT_PASSES if name != "share-keys")
LANES = {
    "compiled": {"mode": "compiled"},
    "interpreted": {"mode": "interpreted"},
    "native": {"mode": "native"},
}
BATCHINGS = (None, 1, 3, 100)
PROGRAMS = (*FINANCE_QUERIES, *SSB_FLIGHT, "warehouse")


def _compile(name: str):
    if name in FINANCE_QUERIES:
        return compile_sql(FINANCE_QUERIES[name], finance_catalog(), name=name)
    catalog = ssb_catalog()
    if name in SSB_FLIGHT:
        return compile_sql(SSB_FLIGHT[name], catalog, name=name)
    return compile_queries(
        [translate_sql(sql, catalog, name=query) for query, sql in SSB_FLIGHT.items()],
        catalog,
    )


@lru_cache(maxsize=None)
def _feeds():
    """The order book (inserts and deletes at bounded depth), and a
    TPC-H fact feed that inserts every order and lineitem, then deletes
    every third one again."""
    generator = TpchGenerator(sf=0.0001, seed=2009)
    facts = list(warehouse_stream(generator))
    facts += [StreamEvent(e.relation, -1, e.values) for e in facts[::3]]
    return bounded_book(2009, 20, 600), generator, facts


def _maps(name: str, program, lane: dict, batch) -> str:
    """The engine's maps after the feed, per event or in ``batches(feed,
    batch)``, as a ``repr`` that keeps each map's insertion order."""
    book, generator, facts = _feeds()
    engine = DeltaEngine(program, **lane)
    feed = book
    if name not in FINANCE_QUERIES:
        load_static_tables(engine, generator)
        feed = facts
    if batch is None:
        for event in feed:
            engine.process(event)
    else:
        engine.process_stream(feed, batch_size=batch)
    return repr({key: list(rows.items()) for key, rows in engine.maps.items()})


@pytest.mark.parametrize("name", PROGRAMS)
def test_maps_match_without_share_keys(name, monkeypatch):
    """Reading a key from its local is the same probe or write: every map
    ends the same, on every lane, however the feed is batched."""
    shared = _compile(name)
    expected = {
        (lane, batch): _maps(name, shared, LANES[lane], batch)
        for lane in LANES
        for batch in BATCHINGS
    }
    monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", WITHOUT)
    built = _compile(name)
    for lane in LANES:
        for batch in BATCHINGS:
            got = _maps(name, built, LANES[lane], batch)
            assert got == expected[lane, batch], (name, lane, batch)


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
    source = generate_module(_compile("bsp"))
    for trigger in ("on_bids", "on_bids_batch"):
        body = _function(source, trigger)
        assert body.count("(ev_bids_broker_id,)") == 1, trigger
        assert not re.search(r"__k\d+ = \(", body), trigger  # no per-write key


def test_lineitem_builds_its_order_key_once_per_scope():
    """The four-view lineitem trigger read ``(ev_lineitem_l_orderkey,)``
    in 37 places: each scope now builds it at most once, and the index
    probes, writes and index maintenance after it read the local."""
    body = _function(generate_module(_compile("warehouse")), "on_lineitem")
    scopes = _scopes(body, "(ev_lineitem_l_orderkey,)")
    assert 1 <= len(scopes) <= 2
    assert len(set(scopes)) == len(scopes)
