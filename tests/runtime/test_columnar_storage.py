"""Columnar map storage: unit edge cases and the storage plan.

Two layers:

* :class:`ColumnarMap` alone must behave exactly like a dict — same
  contents, same insertion-order iteration under churn, same key
  equality — while packing values into typed columns (unit suite:
  deletes to zero, mixed-type key/value promotion, int64 overflow,
  spill-to-dict on non-conforming keys, deepcopy/pickle/copy).  It is
  the class the native lane's C kernel attaches underneath, and what a
  kernel map ejects to;
* the compiler's storage plan must classify maps soundly (scalar →
  dict; exact-int / always-float / unproven value classes), and the
  packed layout it still renders must build exactly the maps it proves
  packable.

Engines keep every map in a dict, or, under ``mode="native"``, hand the
maps a trigger scans whole to the C kernel, which attaches underneath a
:class:`ColumnarMap`; ``tests/integration/test_map_parity.py`` pins every
engine lane entry-for-entry to a per-event compiled dict engine.
"""

import copy
import pickle
import random
from types import MappingProxyType

import pytest

from repro.compiler import analyze_storage, compile_sql
from repro.runtime import ColumnarMap, DeltaEngine
from repro.runtime.storage import _INT64_MAX
from repro.sql.catalog import Catalog
from tests.lanes import rst_program


# ---------------------------------------------------------------------------
# ColumnarMap unit suite
# ---------------------------------------------------------------------------


class TestColumnarMapBasics:
    def test_set_get_len_contains(self):
        m = ColumnarMap(2, "q")
        m[(1, 2)] = 5
        m[(3, 4)] = -7
        assert m[(1, 2)] == 5
        assert m.get((3, 4)) == -7
        assert m.get((9, 9), 0) == 0
        assert (1, 2) in m and (9, 9) not in m
        assert len(m) == 2

    def test_requires_positive_arity(self):
        with pytest.raises(ValueError):
            ColumnarMap(0, "q")

    def test_delete_to_zero_eviction_cycle(self):
        """The canonical GMR update: entries reaching zero disappear."""
        m = ColumnarMap(1, "q")
        for delta in (3, -1, -2):
            cur = m.get((7,), 0) + delta
            if cur == 0:
                m.pop((7,), None)
            else:
                m[(7,)] = cur
        assert (7,) not in m and len(m) == 0
        # add() is the same update in one probe
        assert m.add((7,), 3) == 3
        assert m.add((7,), -3) == 0
        assert (7,) not in m and len(m) == 0
        assert m.add((7,), 0) == 0 and len(m) == 0

    def test_pop_semantics(self):
        m = ColumnarMap(1, "q")
        m[(1,)] = 2
        assert m.pop((1,)) == 2
        with pytest.raises(KeyError):
            m.pop((1,))
        assert m.pop((1,), "sentinel") == "sentinel"
        with pytest.raises(KeyError):
            del m[(1,)]

    def test_insertion_order_matches_dict_under_churn(self):
        m, d = ColumnarMap(1, "q"), {}
        rng = random.Random(42)
        for _ in range(4000):
            key = (rng.randrange(60),)
            if rng.random() < 0.4 and key in d:
                d.pop(key)
                m.pop(key)
            else:
                value = rng.randrange(1, 9)
                d[key] = value
                m[key] = value
        assert list(m.items()) == list(d.items())
        assert list(m) == list(d)
        assert list(m.values()) == list(d.values())
        assert m == d and d == dict(m)

    def test_compaction_preserves_order(self):
        m = ColumnarMap(1, "q")
        for i in range(300):
            m[(i,)] = i + 1
        for i in range(0, 300, 2):  # delete enough to trigger compaction
            m.pop((i,), None)
        assert list(m) == [(i,) for i in range(1, 300, 2)]
        m[(0,)] = 99  # re-insert lands at the end, like a dict
        assert list(m)[-1] == (0,)

    def test_int_float_key_equivalence(self):
        """2 and 2.0 are the same dict key; same for columnar storage."""
        m = ColumnarMap(1, "q")
        m[(2,)] = 10
        assert m[(2.0,)] == 10
        m[(2.0,)] = 11  # overwrite keeps the originally stored key
        assert list(m) == [(2,)] and m[(2,)] == 11

    def test_views_are_sized_and_reiterable(self):
        m = ColumnarMap(1, "q")
        for i in range(5):
            m[(i,)] = i + 1
        items, keys, values = m.items(), m.keys(), m.values()
        assert len(items) == len(keys) == len(values) == 5
        assert list(items) == list(items)  # fresh iterator per pass
        assert list(values) == list(values) == [1, 2, 3, 4, 5]
        assert ((0,), 1) in items and (0,) in keys
        assert keys | {(99,)} == {(i,) for i in range(5)} | {(99,)}
        m.pop((0,), None)  # views are live
        assert len(items) == 4 and (0,) not in keys

    def test_popitem_is_lifo_like_dict(self):
        m, d = ColumnarMap(1, "q"), {}
        for i in range(6):
            m[(i,)] = i + 1
            d[(i,)] = i + 1
        m.pop((5,), None), d.pop((5,), None)
        assert m.popitem() == d.popitem() == ((4,), 5)
        assert m.popitem() == d.popitem() == ((3,), 4)
        empty = ColumnarMap(1, "q")
        with pytest.raises(KeyError):
            empty.popitem()

    def test_clear_resets_packed_columns(self):
        m = ColumnarMap(1, "d")
        m[(1,)] = 2.5
        m.clear()
        assert len(m) == 0 and list(m.items()) == []
        m[(3,)] = 4.5  # still usable, still packed
        assert m[(3,)] == 4.5 and not m.spilled


class TestColumnarMapTyping:
    def test_value_overflow_promotes_not_truncates(self):
        m = ColumnarMap(1, "q")
        m[(1,)] = 3
        m[(2,)] = _INT64_MAX + 10
        assert m[(1,)] == 3
        assert m[(2,)] == _INT64_MAX + 10

    def test_int_in_float_column_promotes(self):
        """A float-planned map receiving an int must not coerce it."""
        m = ColumnarMap(1, "d")
        m[(1,)] = 2.5
        m[(2,)] = 3  # not a float: column promotes to boxed
        assert m[(2,)] == 3 and type(m[(2,)]) is int
        assert m[(1,)] == 2.5 and type(m[(1,)]) is float

    def test_bool_values_keep_identity(self):
        m = ColumnarMap(1, "q")
        m[(1,)] = True
        assert m[(1,)] is True

    def test_float_values_bit_exact(self):
        import struct

        m = ColumnarMap(1, "d")
        for i, value in enumerate((0.1 + 0.2, -0.0, 1e-310)):
            m[(i,)] = value
            assert struct.pack("d", m[(i,)]) == struct.pack("d", value)

    def test_mixed_type_key_column_promotes(self):
        m = ColumnarMap(1, "q")
        m[(1,)] = 10
        m[("x",)] = 20  # int column sees a string: boxed promotion
        m[(2.5,)] = 30
        assert dict(m) == {(1,): 10, ("x",): 20, (2.5,): 30}
        assert not m.spilled  # promotion is per-column, not a spill


class TestColumnarMapSpill:
    def test_wrong_arity_key_spills_to_dict(self):
        m = ColumnarMap(2, "q")
        m[(1, 2)] = 3
        m[(1, 2, 3)] = 4  # non-conforming: whole map falls back
        assert m.spilled
        assert dict(m) == {(1, 2): 3, (1, 2, 3): 4}
        assert list(m.items())[0] == ((1, 2), 3)  # order preserved

    def test_non_tuple_key_spills(self):
        m = ColumnarMap(1, "q")
        m[(1,)] = 1
        m["scalar"] = 2
        assert m.spilled and m["scalar"] == 2 and m[(1,)] == 1

    def test_nan_key_spills(self):
        nan = float("nan")
        m = ColumnarMap(1, "d")
        m[(nan,)] = 1
        assert m.spilled
        assert m[(nan,)] == 1  # same-object nan lookup works via the dict

    def test_reads_with_bad_keys_do_not_spill(self):
        m = ColumnarMap(2, "q")
        m[(1, 2)] = 3
        assert m.get((1, 2, 3), "d") == "d"
        assert m.get("x", "d") == "d"
        assert (1,) not in m
        assert not m.spilled


class TestColumnarMapCopying:
    def _populated(self):
        m = ColumnarMap(2, "q")
        for i in range(50):
            m[(i, i * 2)] = i + 1
        for i in range(0, 50, 3):
            m.pop((i, i * 2), None)
        return m

    def test_deepcopy_is_independent(self):
        m = self._populated()
        clone = copy.deepcopy(m)
        assert list(clone.items()) == list(m.items())
        clone[(999, 0)] = 1
        clone[(1, 2)] = 42
        assert (999, 0) not in m and m.get((1, 2)) != 42

    def test_copy_preserves_spill(self):
        m = ColumnarMap(1, "q")
        m["bad-key"] = 1
        clone = m.copy()
        assert clone.spilled and dict(clone) == dict(m)

    def test_pickle_roundtrip(self):
        m = self._populated()
        revived = pickle.loads(pickle.dumps(m))
        assert isinstance(revived, ColumnarMap)
        assert list(revived.items()) == list(m.items())
        revived[(7, 14)] = 123  # still writable/packed
        assert revived[(7, 14)] == 123

    def test_mapping_proxy_view(self):
        m = self._populated()
        proxy = MappingProxyType(m)
        assert proxy == dict(m)
        assert proxy.get((1, 2)) == m.get((1, 2))

    def test_storage_bytes_beats_dict_on_numeric_maps(self):
        import sys

        m = ColumnarMap(1, "q")
        d = {}
        for i in range(5000):
            m[(i,)] = i * 3 + 1
            d[(i,)] = i * 3 + 1
        dict_bytes = sys.getsizeof(d) + sum(
            sys.getsizeof(k) + sys.getsizeof(v) + sys.getsizeof(k[0])
            for k, v in d.items()
        )
        assert m.storage_bytes() * 2 < dict_bytes


# ---------------------------------------------------------------------------
# Storage plan analysis
# ---------------------------------------------------------------------------


class TestStoragePlan:
    def test_scalar_maps_stay_dict(self):
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql("SELECT sum(A*B) FROM R", catalog, name="q")
        plan = analyze_storage(program)
        scalar = plan.storage_for("q_q_sum_0")
        assert not scalar.columnar and scalar.arity == 0

    def test_int_proof_on_integer_streams(self):
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql(
            "SELECT a, sum(b) FROM R r GROUP BY a", catalog, name="q"
        )
        plan = analyze_storage(program)
        for name, storage in plan.maps.items():
            if storage.arity:
                assert storage.label == "columnar[int]", name

    def test_float_column_values_prove_float(self):
        catalog = Catalog.from_script("CREATE STREAM R (A int, P float);")
        program = compile_sql(
            "SELECT a, sum(p) FROM R r GROUP BY a", catalog, name="q"
        )
        labels = {
            name: s.label for name, s in analyze_storage(program).maps.items()
        }
        assert labels["q_q_sum_1"] == "columnar[float]"
        # count over a float stream is still provably int (sharper than
        # the optimiser's whole-relation float exclusion)
        assert labels["q_q___count"] == "columnar[int]"

    def test_plan_is_memoised_and_stamped_into_ir(self):
        from repro.ir import lower_program

        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql(
            "SELECT a, sum(b) FROM R r GROUP BY a", catalog, name="q"
        )
        assert analyze_storage(program) is analyze_storage(program)
        ir = lower_program(program)
        storages = {decl.storage for decl in ir.maps.values()}
        assert "columnar[int]" in storages

    def test_describe_lists_every_map(self):
        catalog = Catalog.from_script("CREATE STREAM R (A int, B int);")
        program = compile_sql(
            "SELECT a, sum(b) FROM R r GROUP BY a", catalog, name="q"
        )
        text = analyze_storage(program).describe()
        assert text.startswith("== storage plan ==")
        for name in program.maps:
            assert f"map {name}:" in text


# ---------------------------------------------------------------------------
# The packed layout
# ---------------------------------------------------------------------------


def test_packed_layout_constructs_storage_from_plan():
    """The packed layout (rendered by ``generate_module(columnar=True)``)
    packs exactly the maps the plan proves packable; an engine holds
    plain dicts."""
    from repro.compiler.storage import storage_layout

    program = rst_program("grouped")
    maps = storage_layout(program, "compiled", columnar=True).create_maps()
    plan = analyze_storage(program)
    assert set(maps) == set(program.maps)
    for name, contents in maps.items():
        if plan.storage_for(name).columnar:
            assert isinstance(contents, ColumnarMap)
        else:
            assert type(contents) is dict
    engine = DeltaEngine(program)
    assert all(type(c) is dict for c in engine.maps.values())


def test_generated_header_stamps_storage_plan():
    from repro.codegen.pygen import generate_module

    program = rst_program("grouped")
    source = generate_module(program, columnar=True)
    assert "== storage plan ==" in source
    assert "columnar[int]" in source
    assert "rendered for: columnar storage (add() applies)" in source
    assert ".add(" in source
    agnostic = generate_module(program, columnar=False)
    assert "rendered for: storage-agnostic (mapping protocol)" in agnostic
    assert ".add(" not in agnostic
