"""``share-locals``: a map lookup is evaluated and a key tuple built once
per scope, and reading either from its local changes no map.

Every shipped query and warehouse-load's four-view SSB program runs with
``DEFAULT_PASSES`` and with ``DEFAULT_PASSES`` minus ``share-locals``, on
the executor lanes of ``tests/lanes.py`` (native only for vwap, whose
kernel map applies through ``add()``), per event and in batches of 3
and 100: the maps must be ``repr``-equal (values, keys and insertion
order).  A batch of one runs the per-event trigger, and
``tests/integration/test_map_parity.py`` pins batches to per-event
processing.  The structural pins check the rendered triggers read the
shared locals.
"""

import re
from functools import lru_cache

import pytest

import repro.ir.optimize as optimize_module
from repro.codegen.pygen import generate_module
from repro.ir import DEFAULT_PASSES
from repro.runtime import StreamEvent
from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.ssb import SSB_FLIGHT, load_static_tables, warehouse_stream
from repro.workloads.tpch import TpchGenerator
from tests.lanes import bounded_book, build_engine, compile_shipped, deliver, executors

WITHOUT = tuple(name for name in DEFAULT_PASSES if name != "share-locals")
DELIVERIES = ("process", "stream-3", "stream-100")
PROGRAMS = (*FINANCE_QUERIES, *SSB_FLIGHT, "warehouse")


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
    return repr({key: list(rows.items()) for key, rows in engine.maps.items()})


@pytest.mark.parametrize("name", PROGRAMS)
def test_maps_match_without_share_locals(name, monkeypatch):
    """Reading a lookup or a key from its local is the same probe or
    write: every map ends the same, on every lane, however the feed is
    batched."""
    shared = compile_shipped(name, name)
    lanes = executors(shared)
    expected = {
        (lane, delivery): _maps(name, shared, lane, delivery)
        for lane in lanes
        for delivery in DELIVERIES
    }
    monkeypatch.setattr(optimize_module, "DEFAULT_PASSES", WITHOUT)
    built = compile_shipped(name, name)
    for lane in lanes:
        for delivery in DELIVERIES:
            got = _maps(name, built, lane, delivery)
            assert got == expected[lane, delivery], (name, lane, delivery)


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
