"""Columnar value storage for maintained maps.

The engine's default map storage is a Python ``dict`` keyed by key
tuples — convenient, but the worst possible layout for the dense numeric
aggregate state delta programs maintain: every entry pays a hash-table
slot (~100 B), a boxed key tuple (56 B + 8 B/position + boxed parts) and
a boxed ring value (28 B).  :class:`ColumnarMap` stores the same mapping
as *columns*: one packed ``array`` (or pointer list) per key position,
one value column, one packed hash column, and an open-addressing bucket
table of slot indexes.  Per live entry that is roughly ``8·arity`` bytes
of keys, 8 bytes of value, 8 bytes of cached hash, a liveness byte and
4–12 bytes of bucket.  Measured as retained bytes the saving is smaller
than that count suggests (a dict shares its small ints and repeated key
parts): about 2.5x on vwap's maps, none on axf's, whose packed maps
retained 12% more — and every probe from Python bytecode costs several
times a dict probe.  So no engine stores its maps this way by choice:
the class is the storage the native lane's C kernel attaches underneath
(:mod:`repro.codegen.native`), and what a kernel map ejects to.

Semantics are *bit-identical* to dict storage by construction:

* **iteration order** is insertion order with deleted keys forgotten —
  new entries append to the column tails, deletions tombstone their slot
  (and a re-inserted key appends at the end, exactly like a dict);
* **key equality** is Python equality over cached hashes (``2`` and
  ``2.0`` collide into one entry, like a dict);
* **value exactness** — packed columns only ever hold values that
  round-trip exactly (``int`` within 64 bits in a ``'q'`` column,
  ``float`` in a ``'d'`` column).  A value the packed column cannot
  represent exactly (an overflowing int, an int arriving in a float
  column, a bool) *promotes the column* to boxed object storage rather
  than coercing the value.

Non-conforming **keys** (wrong arity, not a tuple, NaN components —
whose identity-based dict semantics a packed column cannot reproduce)
trigger the spill-to-dict fallback: the whole map converts to an
ordinary dict (order preserved) and behaves exactly like one from then
on.  None of this ever arises from compiled programs — the compiler's
storage analysis (:mod:`repro.compiler.storage`) only plans columnar
storage for maps with fixed-arity keys — but the fallback keeps ad-hoc
writes through ``map_view``-style embedding safe.

The class implements the full ``MutableMapping`` protocol (including
re-iterable, ``len()``-able key/item/value *views*), so generated
trigger code, the IR interpreter, the view layer and the shard merge all
use it unchanged.

One dict behaviour is *not* reproduced: mutating the map while iterating
it.  A dict raises ``RuntimeError``; the columnar iterators read the
live column arrays and would observe appends, or stale slots after a
compaction, without noticing.  Compiled programs never do this (reads of
a written map go through the two-phase pending buffers by construction);
embedded ad-hoc code must collect first, as with any snapshot.

One more storage class lives here, chosen at run time rather than by the
layout rule: :class:`RecordingDict`, the ``dict`` a served view's result
maps become while a delta tap watches them.  :func:`storage_class` names
what a live map object is.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import ItemsView, KeysView, MutableMapping, ValuesView
from itertools import compress
from typing import Iterator, Optional

#: 64-bit signed bounds for the packed int value/key columns.
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Mask keeping the probe perturbation non-negative.
_HASH_MASK = (1 << 64) - 1

#: Bucket sentinel values (buckets store slot+1 for occupied buckets).
_FREE = 0
_TOMB = -1


def _new_column(kind: str):
    """An empty column store of one kind ('q' int64, 'd' double, 'o' boxed)."""
    return [] if kind == "o" else array(kind)


class ColumnarMap(MutableMapping):
    """A dict-compatible map stored as packed columns.

    ``arity`` is the fixed key width (every key is a tuple of that many
    scalars); ``value_kind`` is the compiler's value-type hint — ``"q"``
    (proved exact-integer ring values), ``"d"`` (proved float values) or
    ``"o"`` (boxed).  The hints choose the initial column representation
    only: runtime type guards promote a column to boxed storage before
    ever storing a value it could not round-trip exactly, so soundness
    never depends on the analysis.

    >>> m = ColumnarMap(arity=2, value_kind="q")
    >>> m[(1, "GOOG")] = 5
    >>> m.add((1, "GOOG"), -5)   # the one-probe GMR update: += with
    0
    >>> (1, "GOOG") in m         # zero eviction, like every map apply
    False
    >>> m.update({(2, "IBM"): 7}); dict(m) == {(2, "IBM"): 7}
    True
    """

    __slots__ = (
        "arity",
        "value_kind",
        "_key_kinds",
        "_key_cols",
        "_vkind",
        "_values",
        "_hashes",
        "_live",
        "_used",
        "_size",
        "_buckets",
        "_mask",
        "_fill",
        "_dict",
        "_native",
    )

    def __init__(self, arity: int, value_kind: str = "o") -> None:
        if arity < 1:
            raise ValueError("ColumnarMap requires arity >= 1 (use a dict)")
        if value_kind not in ("q", "d", "o"):
            raise ValueError(f"unknown value kind {value_kind!r}")
        self.arity = arity
        self.value_kind = value_kind
        self._dict: Optional[dict] = None
        self._native = None  # C-kernel wrapper (see codegen/native.py)
        self._reset()

    def _reset(self) -> None:
        self._key_kinds: list[Optional[str]] = [None] * self.arity
        self._key_cols: list = [None] * self.arity
        self._vkind = self.value_kind
        self._values = _new_column(self.value_kind)
        self._hashes = array("q")
        self._live = bytearray()
        self._used = 0  # slots allocated (live + tombstoned)
        self._size = 0  # live entries
        self._buckets = array("i", bytes(4 * 8))  # 8 empty buckets
        self._mask = 7
        self._fill = 0  # non-FREE buckets (occupied + tombstones)

    # -- probing -----------------------------------------------------------

    def _probe(self, key: tuple, h: int) -> tuple[int, int]:
        """Locate ``key``: ``(slot, bucket)`` when present, else
        ``(-1, insertion bucket)`` (reusing the first tombstone seen)."""
        buckets = self._buckets
        mask = self._mask
        hashes = self._hashes
        cols = self._key_cols
        i = h & mask
        perturb = h & _HASH_MASK
        insert = -1
        while True:
            s = buckets[i]
            if s == _FREE:
                return -1, (insert if insert >= 0 else i)
            if s == _TOMB:
                if insert < 0:
                    insert = i
            else:
                slot = s - 1
                if hashes[slot] == h:
                    for col, part in zip(cols, key):
                        if col[slot] != part:
                            break
                    else:
                        return slot, i
            perturb >>= 5
            i = (5 * i + perturb + 1) & mask

    def _rebuild_buckets(self) -> None:
        """Re-bucket every live slot (grows the table, drops tombstones)."""
        capacity = 8
        needed = 2 * self._size + 1
        while capacity < needed:
            capacity <<= 1
        capacity <<= 1  # land at load factor <= 1/4 so growth amortises
        buckets = array("i", bytes(4 * capacity))
        mask = capacity - 1
        hashes = self._hashes
        live = self._live
        for slot in range(self._used):
            if not live[slot]:
                continue
            h = hashes[slot]
            i = h & mask
            perturb = h & _HASH_MASK
            while buckets[i] != _FREE:
                perturb >>= 5
                i = (5 * i + perturb + 1) & mask
            buckets[i] = slot + 1
        self._buckets = buckets
        self._mask = mask
        self._fill = self._size

    def _compact(self) -> None:
        """Drop tombstoned slots from every column, preserving order."""
        live = self._live
        keep = [slot for slot in range(self._used) if live[slot]]
        for position, kind in enumerate(self._key_kinds):
            if kind is None:
                continue
            old = self._key_cols[position]
            fresh = _new_column(kind)
            fresh.extend(old[slot] for slot in keep)
            self._key_cols[position] = fresh
        fresh_values = _new_column(self._vkind)
        fresh_values.extend(self._values[slot] for slot in keep)
        self._values = fresh_values
        self._hashes = array("q", (self._hashes[slot] for slot in keep))
        self._live = bytearray(b"\x01" * len(keep))
        self._used = len(keep)
        self._rebuild_buckets()

    # -- column typing ------------------------------------------------------

    @staticmethod
    def _packed_kind(part) -> str:
        """The packed column kind that stores ``part`` exactly, or 'o'."""
        kind = type(part)
        if kind is int:
            return "q" if _INT64_MIN <= part <= _INT64_MAX else "o"
        if kind is float:
            return "o" if part != part else "d"  # NaN handled by caller
        return "o"

    def _promote_key_column(self, position: int) -> None:
        self._key_cols[position] = list(self._key_cols[position])
        self._key_kinds[position] = "o"

    def _append_key_part(self, position: int, part) -> None:
        kind = self._key_kinds[position]
        if kind is None:
            kind = self._packed_kind(part)
            self._key_kinds[position] = kind
            column = _new_column(kind)
            column.extend([part] * self._used)  # only ever at _used == 0
            self._key_cols[position] = column
            column.append(part)
            return
        if kind != "o" and self._packed_kind(part) != kind:
            self._promote_key_column(position)
        self._key_cols[position].append(part)

    def _promote_values(self) -> None:
        self._values = list(self._values)
        self._vkind = "o"

    def _fits_value(self, value) -> bool:
        kind = self._vkind
        if kind == "o":
            return True
        vtype = type(value)
        if kind == "q":
            return vtype is int and _INT64_MIN <= value <= _INT64_MAX
        return vtype is float  # 'd'

    # -- spill-to-dict fallback --------------------------------------------

    def _conforming_key(self, key) -> bool:
        if type(key) is not tuple or len(key) != self.arity:
            return False
        for part in key:
            if part != part:  # NaN: packed storage loses dict's identity
                return False  # semantics for it, so fall back
        return True

    def _spill(self) -> dict:
        """Convert to dict-backed storage (order preserved), idempotent."""
        if self._dict is None:
            self._dict = dict(self._iter_items())
            # Release the columns: from now on every operation delegates.
            self._key_cols = []
            self._key_kinds = []
            self._values = []
            self._hashes = array("q")
            self._live = bytearray()
            self._buckets = array("i")
            self._used = self._size = self._fill = 0
        return self._dict

    @property
    def spilled(self) -> bool:
        """True once the map has fallen back to dict storage."""
        return self._dict is not None

    # -- the mapping protocol ----------------------------------------------

    def __len__(self) -> int:
        if self._dict is not None:
            return len(self._dict)
        return self._size

    def get(self, key, default=None):
        if self._dict is not None:
            return self._dict.get(key, default)
        if type(key) is not tuple or len(key) != self.arity:
            return default
        slot, _ = self._probe(key, hash(key))
        if slot < 0:
            return default
        return self._values[slot]

    def __getitem__(self, key):
        if self._dict is not None:
            return self._dict[key]
        if type(key) is not tuple or len(key) != self.arity:
            raise KeyError(key)
        slot, _ = self._probe(key, hash(key))
        if slot < 0:
            raise KeyError(key)
        return self._values[slot]

    def __contains__(self, key) -> bool:
        if self._dict is not None:
            return key in self._dict
        if type(key) is not tuple or len(key) != self.arity:
            return False
        return self._probe(key, hash(key))[0] >= 0

    def _append_entry(self, key: tuple, h: int, bucket: int, value) -> None:
        """Append a new live entry at the column tails and claim ``bucket``
        (the insertion position a preceding probe miss returned).  The one
        insert sequence ``__setitem__`` and ``add`` share."""
        if not self._fits_value(value):
            self._promote_values()
        for position, part in enumerate(key):
            self._append_key_part(position, part)
        self._values.append(value)
        self._hashes.append(h)
        self._live.append(1)
        slot = self._used
        self._used += 1
        self._size += 1
        if self._buckets[bucket] == _FREE:
            self._fill += 1
        self._buckets[bucket] = slot + 1
        if 3 * self._fill >= 2 * (self._mask + 1):
            self._rebuild_buckets()

    def __setitem__(self, key, value) -> None:
        if self._dict is not None:
            self._dict[key] = value
            return
        if not self._conforming_key(key):
            self._spill()[key] = value
            return
        h = hash(key)
        slot, bucket = self._probe(key, h)
        if slot >= 0:  # overwrite (the stored key object wins, like a dict)
            if not self._fits_value(value):
                self._promote_values()
            self._values[slot] = value
            return
        self._append_entry(key, h, bucket, value)

    def add(self, key, value):
        """``self[key] += value`` with zero eviction, in one probe.

        The canonical GMR update every backend applies
        (:class:`repro.ir.nodes.AddTo`): returns the new ring value, with
        0 meaning the entry is now absent.  Equivalent to the dict-path
        ``cur = m.get(k, 0) + v; m.pop(k) if cur == 0 else m[k] = cur``
        but pays one hash/probe instead of two.
        """
        d = self._dict
        if d is not None:
            current = d.get(key, 0) + value
            if current == 0:
                d.pop(key, None)
            else:
                d[key] = current
            return current
        if not self._conforming_key(key):
            self._spill()
            return self.add(key, value)
        h = hash(key)
        slot, bucket = self._probe(key, h)
        if slot >= 0:
            current = self._values[slot] + value
            if current == 0:
                self._kill(slot, bucket)
            else:
                if not self._fits_value(current):
                    self._promote_values()
                self._values[slot] = current
            return current
        if value == 0:
            return 0  # absent + 0: a dict would evict; nothing to store
        self._append_entry(key, h, bucket, value)
        return value

    def __delitem__(self, key) -> None:
        if self._dict is not None:
            del self._dict[key]
            return
        if type(key) is not tuple or len(key) != self.arity:
            raise KeyError(key)
        slot, bucket = self._probe(key, hash(key))
        if slot < 0:
            raise KeyError(key)
        self._kill(slot, bucket)

    def _kill(self, slot: int, bucket: int) -> None:
        self._live[slot] = 0
        self._buckets[bucket] = _TOMB
        self._size -= 1
        if self._vkind == "o":
            self._values[slot] = None  # release the boxed value
        if self._used > 64 and self._used > 2 * self._size:
            self._compact()

    _MISSING = object()

    def pop(self, key, default=_MISSING):
        if self._dict is not None:
            if default is ColumnarMap._MISSING:
                return self._dict.pop(key)
            return self._dict.pop(key, default)
        if type(key) is tuple and len(key) == self.arity:
            slot, bucket = self._probe(key, hash(key))
            if slot >= 0:
                value = self._values[slot]
                self._kill(slot, bucket)
                return value
        if default is ColumnarMap._MISSING:
            raise KeyError(key)
        return default

    def clear(self) -> None:
        if self._dict is not None:
            self._dict.clear()
            return
        self._reset()

    # -- iteration (insertion order, like a dict) --------------------------

    def _key_at(self, slot: int) -> tuple:
        return tuple(col[slot] for col in self._key_cols)

    def _iter_items(self) -> Iterator[tuple]:
        """(key tuple, value) pairs in slot (== insertion) order.

        Entirely C-level: key tuples zip straight out of the columns and
        tombstoned slots are dropped by :func:`itertools.compress` — this
        is the scan path state-scanning triggers run on (their stale key
        parts and ``None`` values never surface).
        """
        if self._size == 0:
            return iter(())
        pairs = zip(zip(*self._key_cols), self._values)
        if self._used == self._size:
            return pairs
        return compress(pairs, self._live)

    def _iter_values(self) -> Iterator:
        if self._size == 0:
            return iter(())
        if self._used == self._size:
            return iter(self._values)
        return compress(self._values, self._live)

    def scan_columns(self, positions) -> tuple:
        """Fused column scan: one sequence per requested key position,
        plus the value column last — live entries only, insertion order.

        This is the contract the native code generator renders full-map
        loops against (``for k, v in zip(*m.scan_columns((0,)))`` instead
        of tuple-building ``items()``), and it holds across all three
        storage states: packed columns (zero-copy when tombstone-free),
        spilled dict, and the native C kernel (which overrides it with a
        per-column ``cm_scan_column`` snapshot).
        """
        positions = tuple(positions)
        contents = self._dict
        if contents is not None:
            items = list(contents.items())
            cols = [
                [key[pos] for key, _ in items] for pos in positions
            ]
            cols.append([value for _, value in items])
            return tuple(cols)
        if self._size == 0:
            return tuple(() for _ in range(len(positions) + 1))
        cols = [self._key_cols[pos] for pos in positions]
        cols.append(self._values)
        if self._used == self._size:
            return tuple(cols)
        live = self._live
        return tuple(list(compress(col, live)) for col in cols)

    def reduce_scalar(self, mulpos, predicates, cmul=1):
        """Fused restate reduction; ``None`` means "not provided here".

        Only the native C kernel computes this (one call instead of a
        Python loop — see ``_KernelMapBase.reduce_scalar``); the pure
        and spilled states always decline, and the generated triggers
        then run their equivalent column-zip loop.
        """
        return None

    def items(self):
        """A re-iterable items view (fresh C-level iterator per pass)."""
        if self._dict is not None:
            return self._dict.items()
        return _ColumnarItemsView(self)

    def __iter__(self):
        if self._dict is not None:
            yield from self._dict
            return
        if self._size:
            keys = zip(*self._key_cols)
            if self._used == self._size:
                yield from keys
            else:
                yield from compress(keys, self._live)

    def keys(self):
        if self._dict is not None:
            return self._dict.keys()
        return _ColumnarKeysView(self)

    def values(self):
        if self._dict is not None:
            return self._dict.values()
        return _ColumnarValuesView(self)

    def popitem(self):
        """Remove and return the *most recently inserted* entry (dict
        LIFO semantics; the MutableMapping default would pop the first)."""
        if self._dict is not None:
            return self._dict.popitem()
        live = self._live
        for slot in range(self._used - 1, -1, -1):
            if live[slot]:
                key = self._key_at(slot)
                value = self._values[slot]
                found, bucket = self._probe(key, self._hashes[slot])
                assert found == slot
                self._kill(slot, bucket)
                return key, value
        raise KeyError("popitem(): map is empty")

    def __repr__(self) -> str:
        return f"ColumnarMap({dict(self)!r})"

    # -- copying / pickling -------------------------------------------------

    def copy(self) -> "ColumnarMap":
        """An independent copy preserving storage layout and order."""
        clone = ColumnarMap(self.arity, self.value_kind)
        if self._dict is not None:
            clone._dict = dict(self._dict)
            return clone
        clone._key_kinds = list(self._key_kinds)
        clone._key_cols = [
            None if col is None else col[:] for col in self._key_cols
        ]
        clone._vkind = self._vkind
        clone._values = self._values[:]
        clone._hashes = self._hashes[:]
        clone._live = self._live[:]
        clone._used = self._used
        clone._size = self._size
        clone._buckets = self._buckets[:]
        clone._mask = self._mask
        clone._fill = self._fill
        return clone

    def __copy__(self) -> "ColumnarMap":
        return self.copy()

    def __deepcopy__(self, memo: dict) -> "ColumnarMap":
        clone = self.copy()  # entries are scalars: a layout copy is deep
        memo[id(self)] = clone
        return clone

    def __reduce__(self):
        # Hashes are salted per process (PYTHONHASHSEED), so pickling ships
        # the logical items and rebuilds the layout on the receiving side —
        # this is what lets shard workers send maps over pipes.
        return (_rebuild_columnar, (self.arity, self.value_kind,
                                    list(self.items()), self.spilled))

    # -- accounting ---------------------------------------------------------

    def storage_bytes(self) -> int:
        """Approximate live bytes, matching the dict-side methodology of
        :func:`repro.runtime.profiler.map_memory_bytes` (container +
        boxed contents; packed columns count their buffers)."""
        if self._dict is not None:
            contents = self._dict
            total = sys.getsizeof(contents)
            for key, value in contents.items():
                total += sys.getsizeof(key) + sys.getsizeof(value)
                if isinstance(key, tuple):
                    total += sum(sys.getsizeof(part) for part in key)
            return total
        total = sys.getsizeof(self._buckets) + sys.getsizeof(self._hashes)
        total += sys.getsizeof(self._live)
        for kind, col in zip(self._key_kinds, self._key_cols):
            if col is None:
                continue
            total += sys.getsizeof(col)
            if kind == "o":
                total += sum(sys.getsizeof(part) for part in col)
        total += sys.getsizeof(self._values)
        if self._vkind == "o":
            total += sum(
                sys.getsizeof(value) for value in self._values
                if value is not None
            )
        return total


class _ColumnarItemsView(ItemsView):
    """Dict-style items view over a :class:`ColumnarMap` (re-iterable,
    sized, a Set) whose iteration takes the C-level column scan."""

    __slots__ = ()

    def __iter__(self):
        return self._mapping._iter_items()


class _ColumnarKeysView(KeysView):
    __slots__ = ()


class _ColumnarValuesView(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._iter_values()


def _rebuild_columnar(
    arity: int, value_kind: str, items: list, spilled: bool
) -> ColumnarMap:
    """Unpickle helper: rebuild a :class:`ColumnarMap` from logical items."""
    rebuilt = ColumnarMap(arity, value_kind)
    if spilled:
        rebuilt._spill()
    for key, value in items:
        rebuilt[key] = value
    return rebuilt


class _NativeColumnarMap(ColumnarMap):
    """A :class:`ColumnarMap` whose entries live in the generated C
    kernel (``codegen/native.py``).

    Attachment works by ``__class__`` reassignment (both classes are
    slot-compatible, so flipping is free): the kernel wrapper sits in
    the ``_native`` slot and every hot method dispatches straight to it
    with zero overhead left on the pure class.  Any operation the
    packed C layout cannot represent — an int64 overflow, an int stored
    into a float column, a non-conforming key — *ejects* the map: the C
    entries are snapshotted in insertion order, the class flips back,
    the pure columnar layout is rebuilt (re-promoting columns as
    needed), and the operation reruns there.  Ejection is one-way and
    loses nothing; the map re-attaches at the next executor
    ``bind()`` only if its contents conform again.

    Pickling is inherited: ``__reduce__`` ships logical items, so maps
    crossing shard pipes arrive as pure ColumnarMaps and re-attach in
    the receiving worker's own kernel.
    """

    __slots__ = ()

    def _eject_native(self) -> None:
        wrapper = self._native
        items = wrapper.items_list()
        wrapper.release()
        self._native = None
        self.__class__ = ColumnarMap
        self._reset()
        for key, value in items:
            self[key] = value

    # -- hot-path dispatch --------------------------------------------------

    def add(self, key, value):
        return self._native.add(key, value)

    def get(self, key, default=None):
        return self._native.get(key, default)

    def __getitem__(self, key):
        value = self._native.get(key, _SENTINEL)
        if value is _SENTINEL:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self._native.get(key, _SENTINEL) is not _SENTINEL

    def __setitem__(self, key, value) -> None:
        self._native.set(key, value)

    def __delitem__(self, key) -> None:
        self._native.delete(key)

    def __len__(self) -> int:
        return self._native.length()

    def clear(self) -> None:
        self._native.clear()

    # -- rare mutators: cheaper correct than fast ---------------------------

    def pop(self, key, default=ColumnarMap._MISSING):
        self._eject_native()
        if default is ColumnarMap._MISSING:
            return self.pop(key)
        return self.pop(key, default)

    def popitem(self):
        self._eject_native()
        return self.popitem()

    # -- iteration (snapshot scans out of the kernel) -----------------------

    def scan_columns(self, positions) -> tuple:
        return self._native.scan_columns(tuple(positions))

    def reduce_scalar(self, mulpos, predicates, cmul=1):
        return self._native.reduce_scalar(mulpos, predicates, cmul)

    def _iter_items(self) -> Iterator[tuple]:
        cols = self._native.scan_columns(range(self.arity))
        return zip(zip(*cols[:-1]), cols[-1])

    def _iter_values(self) -> Iterator:
        return iter(self._native.scan_columns(())[0])

    def __iter__(self):
        cols = self._native.scan_columns(range(self.arity))
        return iter(zip(*cols[:-1]))

    # -- copying / accounting ----------------------------------------------

    def copy(self) -> ColumnarMap:
        clone = ColumnarMap(self.arity, self.value_kind)
        wrapper = self._native.clone(clone)
        if wrapper is None:  # C-side allocation failed: copy pure
            for key, value in self._iter_items():
                clone[key] = value
            return clone
        clone._native = wrapper
        clone.__class__ = _NativeColumnarMap
        return clone

    def storage_bytes(self) -> int:
        """Kernel-side bytes (slot columns + bucket table, as resized in
        C) — what keeps the memory-bench table honest under this lane."""
        return self._native.bytes_used()


_SENTINEL = object()


class RecordingDict(dict):
    """A result map under a delta tap: a ``dict`` that notes the key of
    every write into its watchers' *touched* sets.

    The engine swaps a served view's result maps for this class while a
    :class:`~repro.runtime.serving.ViewDeltaTap` watches them
    (:meth:`~repro.runtime.engine.DeltaEngine.watch_results`) and swaps
    plain dicts back when the last watch is released, so an engine nobody
    taps never pays for it.  Reads — ``get``, ``in``, ``len``, iteration
    — are the inherited C methods; every mutating method notes first and
    then defers to ``dict``, so no write can bypass the record: the forms
    generated triggers use (``m[k] = v``, ``pop``, ``clear``, ``update``), the
    bulk forms ``restore_state`` uses (``clear`` + ``update``), the rest
    of the ``dict`` surface, and ``add`` — the
    :class:`ColumnarMap` one-probe update the IR interpreter calls on any
    map that is not exactly a ``dict``.

    Copies and pickles are plain dicts: a snapshot, a deep-copied engine
    or a map crossing a pipe leaves the recording behind.

    ``__setitem__`` and ``pop`` are a tapped trigger's write path — a
    Python-level call where an untapped one has a C slot — so they bind
    the ``dict`` methods they defer to as defaults.
    """

    __slots__ = ("_note",)

    def __init__(self, contents, sinks) -> None:
        dict.__init__(self, contents)
        self.record_into(sinks)

    def record_into(self, sinks) -> None:
        """Note written keys into every set of ``sinks`` (one per watching
        view; more than one only when views or taps share the map)."""
        if len(sinks) == 1:
            self._note = sinks[0].add
            return
        adds = [sink.add for sink in sinks]

        def note(key) -> None:
            for add in adds:
                add(key)

        self._note = note

    def __setitem__(self, key, value, _set=dict.__setitem__) -> None:
        self._note(key)
        _set(self, key, value)

    def pop(self, key, default=_SENTINEL, _pop=dict.pop):
        self._note(key)
        if default is _SENTINEL:
            return _pop(self, key)
        return _pop(self, key, default)

    def clear(self) -> None:
        for key in self:
            self._note(key)
        dict.clear(self)

    def update(self, *args, **kwargs) -> None:
        incoming = dict(*args, **kwargs)
        for key in incoming:
            self._note(key)
        dict.update(self, incoming)

    def __ior__(self, other):
        self.update(other)
        return self

    def __delitem__(self, key) -> None:
        self._note(key)
        dict.__delitem__(self, key)

    def setdefault(self, key, default=None):
        self._note(key)
        return dict.setdefault(self, key, default)

    def popitem(self):
        key, value = dict.popitem(self)
        self._note(key)
        return key, value

    def add(self, key, value):
        """``self[key] += value`` with zero eviction (see
        :meth:`ColumnarMap.add`); returns the new ring value."""
        self._note(key)
        current = self.get(key, 0) + value
        if current == 0:
            dict.pop(self, key, None)
        else:
            dict.__setitem__(self, key, current)
        return current

    def __reduce__(self):
        return dict, (dict(self),)


def storage_class(contents) -> str:
    """What a live map object is stored as: ``"kernel"`` (entries in the
    C kernel), ``"spilled"`` (a ColumnarMap fallen back to a dict),
    ``"packed"`` (pure-Python columns), ``"recording"`` (a dict noting
    its writes for a delta tap) or ``"dict"``."""
    if type(contents) is _NativeColumnarMap:
        return "kernel"
    if isinstance(contents, ColumnarMap):
        return "spilled" if contents.spilled else "packed"
    if type(contents) is RecordingDict:
        return "recording"
    return "dict"
