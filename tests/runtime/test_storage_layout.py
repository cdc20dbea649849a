"""Layout agreement: one storage-layout decision, three readers.

:func:`repro.compiler.storage.storage_layout` decides what every map of
an engine is stored as.  The engine builds its maps from the decision,
the renderer emits the access code for it and stamps it into the
generated-module header, and ``Engine.storage_classes()`` reads it back
from the live objects — this suite pins all three to the decision
function for every shipped query, executor mode and ``columnar`` setting,
on hosts with and without a C toolchain (CI reruns it under
``REPRO_NATIVE=off``).  It also forces the two degrade paths that change
a map's class mid-stream — a kernel eject beside dict neighbours, a
packed spill inside a forked shard lane — and checks nothing is lost.
"""

import os
import random
from functools import lru_cache

import pytest

from repro.codegen.native import probe_toolchain
from repro.codegen.pygen import fused_scan_sites
from repro.compiler import compile_sql
from repro.compiler.storage import storage_layout
from repro.runtime import ColumnarMap, DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.storage import _NativeColumnarMap
from repro.sql.catalog import Catalog
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog
from tests.integration.sql_oracle import SqliteOracle, run_differential

SHIPPED = {**FINANCE_QUERIES, **SSB_FLIGHT}

#: Maps the native lane hands to the kernel by default: the ones a
#: per-event trigger scans whole on every event (vwap's bids[volume]).
#: mst scans bids[price] only when its watched minimum moved, or once per
#: batch — not worth an FFI crossing per bid — so its native lane is the
#: compiled one; every other shipped query only point-probes its maps.
KERNEL_MAPS = {"vwap": 1}

_TYPES = {"dict": dict, "packed": ColumnarMap, "kernel": _NativeColumnarMap}


@lru_cache(maxsize=None)
def _program(query: str):
    catalog = finance_catalog() if query in FINANCE_QUERIES else ssb_catalog()
    return compile_sql(SHIPPED[query], catalog, name="q")


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


@pytest.mark.parametrize("columnar", [False, True])
@pytest.mark.parametrize("mode", ["compiled", "interpreted", "native"])
@pytest.mark.parametrize("query", sorted(SHIPPED))
def test_engine_header_and_live_classes_follow_the_layout(query, mode, columnar):
    program = _program(query)
    engine = DeltaEngine(program, mode=mode, columnar=columnar)
    decided = storage_layout(
        program, mode, columnar,
        kernel=engine.native_active, scans=fused_scan_sites(program),
    )
    kinds = {name: layout.kind for name, layout in decided.maps.items()}
    assert set(kinds) == set(program.maps)
    for name, kind in kinds.items():
        assert type(engine.maps[name]) is _TYPES[kind], (name, kind)
    assert engine.storage_classes() == kinds
    if mode != "interpreted":
        assert _header_layout(engine._executor.source) == kinds
    # The rule itself, not just agreement with it.
    if not columnar:
        kernel_maps = [name for name, kind in kinds.items() if kind == "kernel"]
        wanted = KERNEL_MAPS.get(query, 0) if mode == "native" else 0
        if not probe_toolchain().available:
            wanted = 0
        assert len(kernel_maps) == wanted
        assert all(kind != "packed" for kind in kinds.values())
    elif mode != "native":
        assert "kernel" not in kinds.values()


@pytest.fixture
def native_off():
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "off"
    probe_toolchain(refresh=True)
    yield
    if saved is None:
        os.environ.pop("REPRO_NATIVE", None)
    else:
        os.environ["REPRO_NATIVE"] = saved
    probe_toolchain(refresh=True)


@pytest.mark.parametrize("query", ["vwap", "mst", "bbo"])
def test_native_off_is_the_compiled_lane_and_matches_sqlite(native_off, query):
    program = _program(query)
    engine = DeltaEngine(program, mode="native")
    assert not engine.native_active
    assert all(type(contents) is dict for contents in engine.maps.values())
    compiled = DeltaEngine(program, mode="compiled")
    code = [e._executor.source.split('"""', 2)[2] for e in (engine, compiled)]
    assert code[0] == code[1]
    run_differential(
        engine,
        SqliteOracle(finance_catalog(), FINANCE_QUERIES[query]),
        list(OrderBookGenerator(seed=15).events(120)),
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


def test_storage_classes_cross_the_lane_pipe():
    """A forked lane's live classes reach the coordinator through the
    ``stats`` op: one lane spilling a packed map reports ``spilled``."""
    catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
    program = compile_sql("SELECT a, sum(b) FROM R r GROUP BY a", catalog, name="q")
    with ShardedEngine(
        program, shards=2, parallel=True, columnar=True
    ) as sharded:
        if not sharded.parallel:
            pytest.skip("fork unavailable on this platform")
        for a in range(20):
            sharded.insert("R", a, a + 1)
        assert set(sharded.storage_classes().values()) == {"packed"}
        # NaN keys keep dict identity semantics: the owning lane's maps
        # fall back to dicts, the other lane's stay packed.
        sharded.insert("R", float("nan"), 1)
        assert set(sharded.storage_classes().values()) == {"spilled"}
        assert len(sharded.results()) == 21
    with ShardedEngine(program, shards=2) as default:
        assert set(default.storage_classes().values()) == {"dict"}
