"""E7 — ablation: recursive materialisation vs first-order deltas.

The introduction's claim: "we generate asymptotically simpler code at each
recurrence, since computing increments allows us to avoid certain database
scans or joins."  Test: chain joins of widening width, measured at two
database sizes.  Full recursion keeps per-event cost O(1)-ish (keyed map
lookups); first-order IVM re-joins base state, so its per-event cost grows
with both join width and database size.
"""

from functools import lru_cache
import random

import pytest

from repro.algebra.expr import AggSum, walk
from repro.compiler import CompileOptions, compile_sql
from repro.runtime import DeltaEngine, StreamEvent
from repro.sql.catalog import Catalog


def chain_schema(width: int) -> tuple[Catalog, str, list[str]]:
    """R0(a0,a1) join R1(a1,a2) join ... with sum(first*last)."""
    ddl = []
    names = []
    for i in range(width):
        ddl.append(f"CREATE STREAM R{i} (K{i} int, K{i+1} int);")
        names.append(f"R{i}")
    froms = ", ".join(f"R{i} t{i}" for i in range(width))
    joins = " AND ".join(f"t{i}.K{i+1} = t{i+1}.K{i+1}" for i in range(width - 1))
    sql = f"SELECT sum(t0.K0 * t{width-1}.K{width}) FROM {froms}"
    if joins:
        sql += f" WHERE {joins}"
    return Catalog.from_script("\n".join(ddl)), sql, names


def chain_stream(names: list[str], events: int, seed: int, domain: int):
    rng = random.Random(seed)
    live = {name: [] for name in names}
    out = []
    for _ in range(events):
        name = rng.choice(names)
        if live[name] and rng.random() < 0.3:
            tup = live[name].pop(rng.randrange(len(live[name])))
            out.append(StreamEvent(name, -1, tup))
        else:
            tup = (rng.randint(0, domain), rng.randint(0, domain))
            live[name].append(tup)
            out.append(StreamEvent(name, 1, tup))
    return out


@lru_cache(maxsize=None)
def prepared(width: int, recursive: bool, prefill: int):
    catalog, sql, names = chain_schema(width)
    options = CompileOptions(derived_maps=recursive)
    program = compile_sql(sql, catalog, options=options)
    engine = DeltaEngine(program, mode="compiled")
    stream = chain_stream(names, prefill + 200, seed=31, domain=30)
    for event in stream[:prefill]:
        engine.process(event)
    return engine, stream[prefill : prefill + 100]


@pytest.mark.parametrize("recursive", [True, False], ids=["recursive", "first_order"])
@pytest.mark.parametrize("width", [2, 3, 4])
def bench_chain_depth(benchmark, width, recursive):
    """Per-event cost by join width and compilation depth."""
    import copy

    engine, slice_events = prepared(width, recursive, prefill=1_500)

    def setup():
        return (copy.deepcopy(engine),), {}

    def run(fresh):
        for event in slice_events:
            fresh.process(event)

    benchmark.pedantic(run, setup=setup, rounds=3)
    benchmark.extra_info["events_per_op"] = len(slice_events)


def test_recursive_state_is_aggregate_maps():
    """Recursion trades extra (small) maps for join-free triggers."""
    catalog, sql, names = chain_schema(3)
    full = compile_sql(sql, catalog)
    first = compile_sql(sql, catalog, options=CompileOptions(derived_maps=False))
    full_roles = {m.role for m in full.maps.values()}
    assert "derived" in full_roles
    # First-order keeps only roots + base occurrences.
    assert {m.role for m in first.maps.values()} <= {"root", "occurrence"}

    def root_statements(program):
        root = program.slot_maps["q"][0]
        return [
            s
            for t in program.triggers.values()
            for s in t.statements
            if s.target == root
        ]

    def joins(statement):
        return any(isinstance(node, AggSum) for node in walk(statement.rhs))

    # Recursion reads its maps by keyed probes; first-order re-joins base
    # state through a nested aggregate on every root update.
    assert root_statements(full) and root_statements(first)
    assert not any(joins(s) for s in root_statements(full))
    assert all(joins(s) for s in root_statements(first))
