"""The native C column kernel: probe, build cache, parity, ejection.

Four layers:

* **toolchain probing** — cached per process, honours the ``REPRO_NATIVE*``
  env knobs, and its decision is stamped into ``describe_native`` /
  generated-module headers;
* **kernel-attached maps** — a :class:`_NativeColumnarMap` must behave
  exactly like the pure :class:`ColumnarMap` (itself pinned against dict),
  across both FFI loaders (cffi and ctypes);
* **the fallback boundary** — any value/key the packed C layout cannot
  represent ejects the map back to the pure class *mid-stream without
  losing entries*: int64 overflow, int-into-float promotion, exotic keys,
  wrong-arity keys (spill), pop/popitem;
* **the executor lane** — ``mode="native"`` engines, whose kernel owns
  the maps a per-event trigger scans whole, stay repr-identical to
  compiled ones, and ``REPRO_NATIVE=off`` degrades the lane to exactly
  the compiled one with the reason recorded.

Every kernel-touching test skips (visibly) when the host has no C
toolchain; the fallback-lane tests run everywhere.
"""

import copy
import os
import pickle
import random
from functools import lru_cache

import pytest

from repro.codegen import native
from repro.codegen.native import (
    KernelLib,
    NativeExecutor,
    describe_native,
    kernel_signatures,
    load_kernel,
    probe_toolchain,
    render_kernel_source,
)
from repro.compiler import compile_sql
from repro.compiler.storage import storage_layout
from repro.runtime import ColumnarMap, DeltaEngine
from repro.runtime.storage import _INT64_MAX, _NativeColumnarMap
from repro.sql.catalog import Catalog
from tests.runtime.test_storage_layout import _mixed_program

SIGS = frozenset({(1, "q"), (2, "q"), (1, "d")})


def _restore_env(name: str, saved) -> None:
    if saved is None:
        os.environ.pop(name, None)
    else:
        os.environ[name] = saved


def _require_toolchain():
    probe = probe_toolchain()
    if not probe.available:
        pytest.skip(f"no C toolchain: {probe.reason}")
    return probe


@lru_cache(maxsize=None)
def _kernel_for(loader: str) -> KernelLib:
    probe = probe_toolchain()
    source = render_kernel_source(SIGS)
    so_path = native._build_shared_object(source, probe)
    if loader == "cffi":
        pytest.importorskip("cffi")
        lib, ffi = native._load_cffi(so_path, SIGS)
    else:
        lib, ffi = native._load_ctypes(so_path, SIGS)
    return KernelLib(loader, lib, ffi, SIGS, so_path)


@pytest.fixture(params=["cffi", "ctypes"])
def kernel(request):
    _require_toolchain()
    return _kernel_for(request.param)


def _attached(kernel, arity=1, vkind="q", items=()):
    m = ColumnarMap(arity, vkind)
    for key, value in items:
        m[key] = value
    assert kernel.attach(m), "attach declined on a conforming map"
    assert type(m) is _NativeColumnarMap
    return m


@lru_cache(maxsize=None)
def _grouped_program():
    """Point-probed only: the native lane hands the kernel nothing."""
    catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
    return compile_sql("SELECT a, sum(b) FROM R r GROUP BY a", catalog, name="q")


@lru_cache(maxsize=None)
def _scanning_program():
    """An inequality join: each trigger scans the other side's map whole
    (a fused ``reduce_scalar``), so the kernel owns both by default."""
    catalog = Catalog.from_script(
        "CREATE STREAM R (A int, B int); CREATE STREAM S (B int, C int);"
    )
    return compile_sql(
        "SELECT sum(r.A * s.C) FROM R r, S s WHERE r.B < s.B", catalog, name="q"
    )


#: Programs under which a native engine attaches a kernel by default.
_KERNEL_LANES = [
    pytest.param(_scanning_program, id="scanned-maps"),
    pytest.param(_mixed_program, id="beside-dict-maps"),
]


# ---------------------------------------------------------------------------
# Toolchain probing and the build cache
# ---------------------------------------------------------------------------


class TestToolchainProbe:
    def test_probe_is_cached_per_process(self):
        assert probe_toolchain() is probe_toolchain()

    def test_describe_names_loader_or_reason(self):
        probe = probe_toolchain()
        if probe.available:
            assert probe.loader in ("cffi", "ctypes")
            assert probe.loader in probe.describe()
        else:
            assert "fallback" in probe.describe()

    def test_repro_native_off_disables_backend(self):
        saved = os.environ.get("REPRO_NATIVE")
        os.environ["REPRO_NATIVE"] = "off"
        try:
            probe = probe_toolchain(refresh=True)
            assert not probe.available
            assert "REPRO_NATIVE" in probe.reason
        finally:
            _restore_env("REPRO_NATIVE", saved)
            probe_toolchain(refresh=True)

    def test_build_cache_is_content_addressed(self):
        probe = _require_toolchain()
        source = render_kernel_source(SIGS)
        first = native._build_shared_object(source, probe)
        second = native._build_shared_object(source, probe)
        assert first == second and first.exists()
        other = native._build_shared_object(
            render_kernel_source(frozenset({(3, "q")})), probe
        )
        assert other != first

    def test_describe_native_reports_probe_and_eligibility(self):
        text = describe_native(_grouped_program())
        assert text.startswith("== native kernel ==")
        assert "toolchain:" in text
        assert "native-eligible" in text

    def test_generated_header_stamps_toolchain_note(self):
        from repro.codegen.pygen import fused_scan_sites, generate_module

        program = _scanning_program()
        layout = storage_layout(
            program, "native", kernel=True, scans=fused_scan_sites(program)
        )
        source = generate_module(
            program, layout=layout, native_note="probe-note-for-test"
        )
        assert "native kernel: probe-note-for-test" in source
        assert len(layout.kernel_maps) == 2
        assert (
            "fused column scans: " + ", ".join(sorted(layout.kernel_maps))
            in source
        )

    def test_load_kernel_notes_reason_without_eligible_maps(self):
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        scalar_only = compile_sql("SELECT sum(a) FROM R r", catalog, name="q")
        lib, note = load_kernel(scalar_only)
        assert lib is None
        assert "no native-eligible maps" in note


# ---------------------------------------------------------------------------
# Kernel-attached map parity (both loaders)
# ---------------------------------------------------------------------------


class TestKernelMapParity:
    def test_set_get_delete_add(self, kernel):
        m = _attached(kernel)
        m[(1,)] = 5
        assert m[(1,)] == 5 and (1,) in m and len(m) == 1
        assert m.get((9,), "d") == "d"
        assert m.add((1,), -5) == 0
        assert (1,) not in m and len(m) == 0
        del_target = _attached(kernel, items=[((3,), 4)])
        del del_target[(3,)]
        assert len(del_target) == 0
        with pytest.raises(KeyError):
            del del_target[(3,)]
        with pytest.raises(KeyError):
            _attached(kernel)[(8,)]

    def test_churn_matches_dict_order(self, kernel):
        m, d = _attached(kernel, arity=2), {}
        rng = random.Random(7)
        for _ in range(4000):
            key = (rng.randrange(40), rng.randrange(3))
            if rng.random() < 0.4 and key in d:
                del d[key]
                del m[key]
            else:
                value = rng.randrange(1, 9)
                d[key] = value
                m[key] = value
        assert type(m) is _NativeColumnarMap  # never ejected
        assert list(m.items()) == list(d.items())
        assert list(m) == list(d)
        assert list(m.values()) == list(d.values())
        assert m == d

    def test_migration_carries_existing_entries(self, kernel):
        m = ColumnarMap(1, "q")
        for i in range(200):
            m[(i,)] = i + 1
        for i in range(0, 200, 3):
            m.pop((i,), None)
        expected = list(m.items())
        assert kernel.attach(m)
        assert list(m.items()) == expected

    def test_attach_declines_spilled_and_foreign(self, kernel):
        spilled = ColumnarMap(1, "q")
        spilled["not-a-tuple"] = 1
        assert not kernel.attach(spilled)
        assert type(spilled) is ColumnarMap
        unknown_sig = ColumnarMap(7, "q")
        assert not kernel.attach(unknown_sig)
        assert not kernel.attach({})

    def test_attach_is_idempotent(self, kernel):
        m = _attached(kernel, items=[((1,), 2)])
        assert kernel.attach(m)
        assert m[(1,)] == 2

    def test_float_values_bit_exact(self, kernel):
        import struct

        m = _attached(kernel, vkind="d")
        for i, value in enumerate((0.1 + 0.2, -0.0, 1e-310)):
            m[(i,)] = value
            assert struct.pack("d", m[(i,)]) == struct.pack("d", value)

    def test_clone_stays_native_and_independent(self, kernel):
        m = _attached(kernel, items=[((i,), i + 1) for i in range(50)])
        clone = m.copy()
        assert type(clone) is _NativeColumnarMap
        clone[(99,)] = 1
        assert (99,) not in m and list(m.items())[:3] == [
            ((0,), 1), ((1,), 2), ((2,), 3)
        ]

    def test_pickle_and_deepcopy_ship_pure_maps(self, kernel):
        m = _attached(kernel, items=[((i,), i + 1) for i in range(20)])
        revived = pickle.loads(pickle.dumps(m))
        assert type(revived) is ColumnarMap and not revived.spilled
        assert list(revived.items()) == list(m.items())
        duplicate = copy.deepcopy(m)
        assert list(duplicate.items()) == list(m.items())
        duplicate[(999,)] = 1
        assert (999,) not in m

    def test_storage_bytes_reports_kernel_arena(self, kernel):
        m = _attached(kernel)
        small = m.storage_bytes()
        assert small > 0
        for i in range(5000):
            m[(i,)] = i + 1
        assert m.storage_bytes() > small
        # and the profiler picks the kernel-side number up
        from repro.runtime.profiler import map_memory_bytes

        assert map_memory_bytes({"m": m})["m"] == m.storage_bytes()


# ---------------------------------------------------------------------------
# The fallback boundary: ejection must never lose entries
# ---------------------------------------------------------------------------


class TestEjectionBoundary:
    def test_int64_overflow_set_ejects(self, kernel):
        m = _attached(kernel, items=[((1,), 3)])
        m[(2,)] = _INT64_MAX + 10
        assert type(m) is ColumnarMap
        assert m[(1,)] == 3 and m[(2,)] == _INT64_MAX + 10

    def test_int64_overflow_add_ejects_exact(self, kernel):
        m = _attached(kernel, items=[((1,), _INT64_MAX - 5)])
        assert m.add((1,), 100) == _INT64_MAX + 95
        assert type(m) is ColumnarMap
        assert m[(1,)] == _INT64_MAX + 95

    def test_int_into_float_column_ejects_unboxed(self, kernel):
        m = _attached(kernel, vkind="d", items=[((1,), 2.5)])
        m[(2,)] = 3  # must stay an int, not coerce to 3.0
        assert type(m) is ColumnarMap
        assert type(m[(2,)]) is int and m[(1,)] == 2.5

    def test_exotic_key_part_ejects_then_boxes(self, kernel):
        m = _attached(kernel, items=[((1,), 10)])
        m[("x",)] = 20
        assert type(m) is ColumnarMap and not m.spilled
        assert dict(m) == {(1,): 10, ("x",): 20}

    def test_wrong_arity_key_ejects_then_spills(self, kernel):
        m = _attached(kernel, arity=2, items=[((1, 2), 3)])
        m[(1, 2, 3)] = 4
        assert type(m) is ColumnarMap and m.spilled
        assert dict(m) == {(1, 2): 3, (1, 2, 3): 4}

    def test_pop_and_popitem_eject(self, kernel):
        m = _attached(kernel, items=[((i,), i + 1) for i in range(6)])
        assert m.pop((2,)) == 3
        assert type(m) is ColumnarMap
        n = _attached(kernel, items=[((i,), i + 1) for i in range(6)])
        assert n.popitem() == ((5,), 6)
        assert type(n) is ColumnarMap

    def test_mid_stream_ejection_loses_nothing(self, kernel):
        """A whole-map eject halfway through an add stream must keep every
        prior entry, in insertion order, and keep applying deltas."""
        m, d = _attached(kernel), {}
        for i in range(500):
            delta = (
                _INT64_MAX if i == 250  # overflow: ejects mid-stream
                else (i % 13) - 6
            )
            key = (i % 97,)
            m.add(key, delta)
            cur = d.get(key, 0) + delta
            if cur == 0:
                d.pop(key, None)
            else:
                d[key] = cur
        assert type(m) is ColumnarMap
        assert list(m.items()) == list(d.items())


# ---------------------------------------------------------------------------
# The fused scalar reduction
# ---------------------------------------------------------------------------


class TestReduceScalar:
    def _oracle(self, items, mulpos, predicates, cmul=1):
        total = 0
        ops = {0: "__gt__", 1: "__ge__", 2: "__lt__", 3: "__le__",
               4: "__eq__", 5: "__ne__"}
        for key, value in items:
            if all(
                getattr(float(key[pos]), ops[op])(float(thr))
                for pos, op, thr in predicates
            ):
                term = value * cmul
                for pos in mulpos:
                    term *= key[pos]
                total += term
        return total

    def test_matches_python_loop(self, kernel):
        items = [((i, i % 5), (i % 7) - 3) for i in range(300)]
        items = [(k, v) for k, v in items if v]
        m = _attached(kernel, arity=2, items=items)
        for mulpos, preds, cmul in [
            ((), (), 1),
            ((0,), ((1, 0, 2.0),), 1),       # key1 > 2
            ((0, 1), ((0, 3, 100.0),), -2),  # key0 <= 100
            ((), ((1, 4, 3.0),), 5),         # key1 == 3
            ((1,), ((0, 5, 7.0), (1, 1, 1.0)), 1),
        ]:
            got = m.reduce_scalar(mulpos, preds, cmul)
            assert got == self._oracle(list(m.items()), mulpos, preds, cmul)
            assert type(got) is int

    def test_pure_and_float_maps_decline(self, kernel):
        assert ColumnarMap(1, "q").reduce_scalar((), ()) is None
        floaty = _attached(kernel, vkind="d", items=[((1,), 2.5)])
        assert floaty.reduce_scalar((), ()) is None

    def test_overflow_bails_to_none(self, kernel):
        m = _attached(kernel, items=[((2,), _INT64_MAX - 1), ((3,), 5)])
        assert m.reduce_scalar((), ()) is None  # sum overflows
        assert m.reduce_scalar((0,), ()) is None  # product overflows
        assert m.reduce_scalar((), (), 2) is None  # cmul overflows
        # un-overflowed shapes still compute
        assert m.reduce_scalar((), ((0, 0, 2.5),)) == 5

    def test_filtered_key_beyond_double_window_bails(self, kernel):
        big = (1 << 53) + 1  # not double-exact: comparison would lie
        m = _attached(kernel, items=[((big,), 1)])
        assert m.reduce_scalar((), ((0, 0, 0.0),)) is None
        assert m.reduce_scalar((), ()) == 1  # unfiltered is fine

    def test_threshold_marshalling(self, kernel):
        m = _attached(kernel, items=[((1,), 10), ((3,), 20)])
        assert m.reduce_scalar((), ((0, 0, 2),)) == 20  # int threshold
        assert m.reduce_scalar((), ((0, 0, True),)) == 20  # bool → 1.0
        assert m.reduce_scalar((), ((0, 0, 2.5),)) == 20
        # non-double-exact / non-numeric thresholds decline
        assert m.reduce_scalar((), ((0, 0, (1 << 53) + 1),)) is None
        assert m.reduce_scalar((), ((0, 0, 10 ** 400),)) is None
        assert m.reduce_scalar((), ((0, 0, "x"),)) is None
        # out-of-range cmul declines before touching C
        assert m.reduce_scalar((), (), _INT64_MAX + 1) is None


# ---------------------------------------------------------------------------
# The executor lane
# ---------------------------------------------------------------------------


def _drive(engine, n=400):
    rng = random.Random(3)
    relations = sorted({relation for relation, _ in engine.program.triggers})
    live = []
    for _ in range(n):
        if live and rng.random() < 0.35:
            relation, row = live.pop(rng.randrange(len(live)))
            engine.delete(relation, *row)
        else:
            relation = rng.choice(relations)
            row = (rng.randrange(8), rng.randrange(-50, 50))
            live.append((relation, row))
            engine.insert(relation, *row)
    return engine


def _items(maps):
    return {
        name: sorted((repr(k), repr(v)) for k, v in contents.items())
        for name, contents in maps.items()
    }


class TestNativeExecutorLane:
    @pytest.mark.parametrize("build", _KERNEL_LANES)
    def test_native_engine_matches_compiled(self, build):
        _require_toolchain()
        program = build()
        nat = _drive(DeltaEngine(program, mode="native"))
        ref = _drive(DeltaEngine(program, mode="compiled"))
        assert nat.native_active
        assert "kernel" in nat.storage_classes().values()
        assert probe_toolchain().version in nat.native_note
        assert _items(nat.maps) == _items(ref.maps)
        for query in program.queries:
            assert nat.results(query.name) == ref.results(query.name)

    def test_point_probed_program_runs_the_compiled_lane(self):
        """No trigger scans a map whole: nothing is worth handing to the
        kernel, so none is built and the lane is the compiled one."""
        program = _grouped_program()
        nat = _drive(DeltaEngine(program, mode="native"))
        ref = _drive(DeltaEngine(program, mode="compiled"))
        assert not nat.native_active
        assert "scanned whole" in nat.native_note
        assert set(nat.storage_classes().values()) == {"dict"}
        code = [e._executor.source.split('"""', 2)[2] for e in (nat, ref)]
        assert code[0] == code[1]  # the modules differ in the header only
        assert _items(nat.maps) == _items(ref.maps)

    @pytest.mark.parametrize("build", _KERNEL_LANES)
    def test_deepcopy_preserves_native_lane(self, build):
        _require_toolchain()
        engine = _drive(DeltaEngine(build(), mode="native"), n=60)
        clone = copy.deepcopy(engine)
        assert clone.maps == engine.maps
        assert clone.storage_classes() == engine.storage_classes()
        _drive(clone, n=60)  # clone keeps processing independently
        assert clone.native_active

    @pytest.mark.parametrize("build", _KERNEL_LANES)
    def test_forced_fallback_runs_pure_python(self, build):
        saved = os.environ.get("REPRO_NATIVE")
        os.environ["REPRO_NATIVE"] = "off"
        try:
            probe_toolchain(refresh=True)
            engine = _drive(DeltaEngine(build(), mode="native"))
            assert not engine.native_active
            assert "REPRO_NATIVE" in engine.native_note
            assert "kernel" not in engine.storage_classes().values()
        finally:
            _restore_env("REPRO_NATIVE", saved)
            probe_toolchain(refresh=True)
        ref = _drive(DeltaEngine(build(), mode="compiled"))
        assert engine.storage_classes() == ref.storage_classes()
        assert _items(engine.maps) == _items(ref.maps)

    def test_executor_exposes_note_and_signature_set(self):
        program = _grouped_program()
        executor = NativeExecutor(program)
        assert isinstance(executor.native_note, str) and executor.native_note
        sigs = kernel_signatures(program)
        assert all(kind == "q" for _, kind in sigs)
