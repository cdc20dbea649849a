"""Layout agreement: one storage-layout decision, three readers.

:func:`repro.compiler.storage.storage_layout` decides what every map of
an engine is stored as.  The engine builds its maps from the decision,
the renderer emits the access code for it and stamps it into the
generated-module header, and ``Engine.storage_classes()`` reads it back
from the live objects — this suite pins all three to the decision
function for every shipped query and executor mode, in a single engine
and in every lane of a sharded one, on hosts with and without a C
toolchain (CI reruns it under ``REPRO_NATIVE=off``).  It also
forces the degrade path that changes a map's class mid-stream — a kernel
eject beside dict neighbours, in one engine and inside a forked shard
lane — and checks nothing is lost.
"""

import random
from functools import lru_cache

import pytest

from repro.codegen.native import probe_toolchain
from repro.codegen.pygen import fused_scan_sites
from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries, compile_sql
from repro.compiler.storage import storage_layout
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.storage import _NativeColumnarMap
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.ssb import SSB_FLIGHT
from tests import lanes
from tests.integration.sql_oracle import (
    NARROWED_QUERIES,
    SqliteOracle,
    narrowed_program,
    run_differential,
)

SHIPPED = {**FINANCE_QUERIES, **SSB_FLIGHT}

#: Maps the native lane hands to the kernel by default: the ones a
#: per-event trigger scans whole on every event (vwap's bids[volume]).
#: mst scans bids[price] only when its watched minimum moved, or once per
#: batch — not worth an FFI crossing per bid — so its native lane is the
#: compiled one; every other shipped query only point-probes its maps.
KERNEL_MAPS = {"vwap": 1}

_TYPES = {"dict": dict, "kernel": _NativeColumnarMap}


def _header_layout(source: str) -> dict[str, str]:
    """``{map: kind}`` as stamped under the module header's
    ``== storage layout (<mode>) ==`` line."""
    stamped = {}
    lines = iter(source.splitlines())
    for line in lines:
        if line.startswith("== storage layout ("):
            break
    for line in lines:
        if not line.startswith("map "):
            break
        name, rest = line[len("map "):].split(": ", 1)
        stamped[name] = rest.split(" ", 1)[0]
    return stamped


@pytest.mark.parametrize("engine_class", ["delta", "sharded"])
@pytest.mark.parametrize("mode", lanes.EXECUTORS)
@pytest.mark.parametrize("query", sorted(SHIPPED))
def test_engine_header_and_live_classes_follow_the_layout(
    query, mode, engine_class
):
    """A sharded engine's serial lane and every shard lane share one
    executor, so each builds the layout a single engine does."""
    program = lanes.shipped_program(query)
    if engine_class == "delta":
        engine = DeltaEngine(program, mode=mode)
        holders = [engine]
    else:
        engine = ShardedEngine(program, shards=2, mode=mode)
        holders = [engine._serial, *engine._lanes]
    executor = holders[0]._executor
    decided = storage_layout(
        program, mode,
        kernel=executor.native_active, scans=fused_scan_sites(program),
    )
    kinds = {name: layout.kind for name, layout in decided.maps.items()}
    assert set(kinds) == set(program.maps)
    for holder in holders:
        for name, kind in kinds.items():
            assert type(holder.maps[name]) is _TYPES[kind], (name, kind)
        assert holder.storage_classes() == kinds
    assert engine.storage_classes() == kinds
    if mode != "interpreted":
        assert _header_layout(executor.source) == kinds
    # The rule itself, not just agreement with it.
    kernel_maps = [name for name, kind in kinds.items() if kind == "kernel"]
    wanted = KERNEL_MAPS.get(query, 0) if mode == "native" else 0
    if not probe_toolchain().available:
        wanted = 0
    assert len(kernel_maps) == wanted
    assert all(kind != "packed" for kind in kinds.values())


def _code(engine) -> str:
    """The generated module past its header."""
    return engine._executor.source.split('"""', 2)[2]


#: Every shipped query, warehouse-load's four-view program and every
#: narrowed sqlite shape: name -> program.
_SOURCES = {
    **{q: lambda q=q: lanes.shipped_program(q) for q in sorted(SHIPPED)},
    "ssb": lambda: lanes.shipped_program("warehouse"),
    **{
        f"narrowed/{name}": lambda name=name: narrowed_program(name)
        for name in sorted(NARROWED_QUERIES)
    },
}


@pytest.mark.parametrize("name", sorted(_SOURCES))
def test_native_off_is_the_compiled_lane_and_matches_sqlite(name):
    """Where the native layout holds no kernel map, the native lane's
    module is the compiled one past its header, toolchain or not — the
    fact ``tests/lanes.py`` drops those native legs on.  Under
    ``REPRO_NATIVE=off`` every program's native lane is the compiled one,
    dict maps and all, and a finance query still matches sqlite."""
    program = _SOURCES[name]()
    if not lanes.kernel_maps(program):
        native = DeltaEngine(program, mode="native")
        assert not native.native_active
        assert _code(native) == _code(DeltaEngine(program, mode="compiled"))
    with lanes.native_off():
        engine = DeltaEngine(program, mode="native")
        assert not engine.native_active
        assert all(type(contents) is dict for contents in engine.maps.values())
        assert _code(engine) == _code(DeltaEngine(program, mode="compiled"))
        if name in FINANCE_QUERIES:
            run_differential(
                engine,
                SqliteOracle(finance_catalog(), FINANCE_QUERIES[name]),
                lanes.order_book(15, 120),
                batch_size=16,
            )


def _exact_items(maps):
    return {
        name: [(repr(k), repr(v)) for k, v in contents.items()]
        for name, contents in maps.items()
    }


def test_mid_stream_kernel_eject_beside_dict_neighbours_loses_nothing():
    """An int64 overflow in a kernel-owned map's key column ejects that one
    map; its kernel and dict neighbours carry on, and every map stays
    repr-identical (order included) to an all-dict engine."""
    if not probe_toolchain().available:
        pytest.skip(f"no C toolchain: {probe_toolchain().reason}")
    catalog = Catalog.from_script(
        "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C int);"
    )
    program = compile_sql(
        "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B < s.B", catalog, name="q"
    )
    native = DeltaEngine(program, mode="native")
    reference = DeltaEngine(program, mode="compiled")
    before = native.storage_classes()
    assert sorted(before.values()) == ["dict", "kernel", "kernel"]

    rng = random.Random(15)
    live = []

    def churn(count):
        for _ in range(count):
            if live and rng.random() < 0.4:
                yield StreamEvent(*live.pop(rng.randrange(len(live))))
            else:
                row = (rng.choice("RS"), (rng.randrange(9), rng.randrange(-9, 9)))
                live.append((row[0], -1, row[1]))
                yield StreamEvent(row[0], 1, row[1])

    overflow = ("S", (4, (1 << 63) + 7))  # C no longer fits an int64 column
    stream = list(churn(200))
    stream.append(StreamEvent(overflow[0], 1, overflow[1]))
    stream.extend(churn(200))
    stream.append(StreamEvent(overflow[0], -1, overflow[1]))
    stream.extend(churn(50))
    for index, event in enumerate(stream):
        native.process(event)
        reference.process(event)
        if index % 50 == 0:
            assert native.results() == reference.results()
    ejected = [
        name for name, now in native.storage_classes().items()
        if now != before[name]
    ]
    assert len(ejected) == 1 and before[ejected[0]] == "kernel"
    assert native.storage_classes()[ejected[0]] == "ejected"
    assert _exact_items(native.maps) == _exact_items(reference.maps)
    assert native.results() == reference.results()


def test_float_sums_beside_a_kernel_map_stay_bit_identical():
    """Float-valued maps beside a kernel map: the native lane must not
    disturb a single bit of a float sum."""
    catalog = Catalog.from_script(
        "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C float);"
    )
    sql = "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B < s.B"
    rng = random.Random(11)
    stream, live = [], []
    for _ in range(400):
        if live and rng.random() < 0.3:
            relation, row = live.pop(rng.randrange(len(live)))
            stream.append(StreamEvent(relation, -1, row))
        else:
            relation = rng.choice("RS")
            if relation == "R":
                row = (rng.randrange(-9, 9), rng.randrange(6))
            else:
                row = (rng.randrange(6), rng.random() * 100 - 50)
            live.append((relation, row))
            stream.append(StreamEvent(relation, 1, row))
    maps_seen = []
    for mode in ("compiled", "native"):
        program = compile_sql(sql, catalog, name="q")
        engine = DeltaEngine(program, mode=mode)
        engine.process_stream(stream, batch_size=16)
        if engine.native_active:
            assert "kernel" in engine.storage_classes().values()
        maps_seen.append(_exact_items(engine.maps))
    assert maps_seen[0] == maps_seen[1]


@lru_cache(maxsize=None)
def _mixed_program():
    """The inequality join beside a point-probed grouped view over ``T``:
    the kernel owns the two maps the join's triggers scan whole, the
    grouped view's stay dicts.  Sharded, ``T`` is hash-routed and the join
    runs in the serial lane, and every lane builds the kernel layout."""
    catalog = Catalog.from_script(
        "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C int);"
        " CREATE STREAM T (A int, B int);"
    )
    return compile_queries(
        [
            translate_sql(sql, catalog, name=name)
            for name, sql in (
                ("grouped", "SELECT A, sum(B) FROM T GROUP BY A"),
                ("scan", "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B < s.B"),
            )
        ],
        catalog,
    )


@pytest.mark.parametrize("shards", [2, 4])
def test_storage_classes_cross_the_lane_pipe(shards):
    """Forked native workers run against a dict engine, and their live
    classes reach the coordinator through the ``stats`` op: each lane
    attaches its own kernel (none without a toolchain), and a mid-stream
    eject reports ``ejected``.  Merged entries stay repr-identical to a
    dict engine's."""
    program = _mixed_program()
    reference = DeltaEngine(program)
    toolchain = probe_toolchain().available
    with ShardedEngine(
        program, shards=shards, mode="native", parallel=True
    ) as sharded:
        if not sharded.parallel:
            pytest.skip("fork unavailable on this platform")
        rng = random.Random(13)
        for i in range(120):
            relation = "TRS"[i % 3]
            row = (rng.randrange(9), rng.randrange(-9, 9))
            reference.insert(relation, *row)
            sharded.insert(relation, *row)
        kernel_maps = {"m1_s", "m2_r"} if toolchain else set()
        assert sharded._serial._executor.layout.kernel_maps == kernel_maps
        for lane in sharded._lanes:
            classes = lane.storage_classes()  # read in the worker
            assert {n for n, k in classes.items() if k == "kernel"} == kernel_maps
        overflow = (4, (1 << 63) + 7)  # C no longer fits an int64 column
        reference.insert("S", *overflow)
        sharded.insert("S", *overflow)
        if toolchain:
            assert sharded.storage_classes()["m1_s"] == "ejected"
        # Lanes interleave keys: order differs.
        merged = lanes.exact_items(sharded.current_maps())
        assert merged == lanes.exact_items(reference.maps)
        for view in ("grouped", "scan"):
            assert sharded.results(view) == reference.results(view)
    with ShardedEngine(program, shards=2) as default:
        assert set(default.storage_classes().values()) == {"dict"}


def test_packed_storage_is_not_an_engine_option(tmp_path):
    """Maps are dicts, or kernel-held under ``mode="native"``: no engine
    takes a ``columnar`` argument, and the executor options do not carry
    one."""
    import dataclasses

    from repro.compiler.program import ExecutorOptions
    from repro.runtime.durability import DurableEngine

    program = lanes.shipped_program("bsp")
    with pytest.raises(TypeError):
        DeltaEngine(program, columnar=True)
    with pytest.raises(TypeError):
        ShardedEngine(program, columnar=True)
    with pytest.raises(TypeError):
        DurableEngine(program, tmp_path, columnar=True)
    assert [f.name for f in dataclasses.fields(ExecutorOptions)] == [
        "mode", "use_indexes", "optimize"
    ]
