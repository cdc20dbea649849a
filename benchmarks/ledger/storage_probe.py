"""``runtime.storage`` measured directly, beside a ``dict``.

The engine reaches map storage only through generated trigger code, so a
span around ``engine.process`` cannot split probe time from arithmetic.
This probe takes the *final key sets* a workload left in its maps and
replays them into a fresh :class:`~repro.runtime.storage.ColumnarMap` and
a fresh ``dict``: the same adds, gets and one full scan on both.  The
columnar/dict ratio of these numbers is the storage share of ROADMAP's
unexplained 5x batch-1 gap (anomaly a).
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.runtime.profiler import map_memory_bytes
from repro.runtime.storage import ColumnarMap

#: Keys replayed per probe: enough to time, bounded so the probe stays a
#: small part of the traced run.
MAX_KEYS = 50_000

_clock = time.perf_counter


def _dict_add(target: dict, key, value) -> None:
    # What generated code does to a dict-stored map: += with zero eviction.
    current = target.get(key, 0) + value
    if current == 0:
        target.pop(key, None)
    else:
        target[key] = current


def probe(maps: Mapping[str, Mapping]) -> dict[str, float]:
    """Storage metrics over the columnar maps of one finished engine."""
    columnar = {
        name: contents
        for name, contents in maps.items()
        if isinstance(contents, ColumnarMap) and not contents.spilled
    }
    entries = sum(len(contents) for contents in maps.values())
    total_bytes = sum(map_memory_bytes(maps).values())
    result = {
        "storage.entries": float(entries),
        "storage.bytes_per_entry": total_bytes / entries if entries else 0.0,
        "storage.dict_maps": float(len(maps) - len(columnar)),
        "storage.add_ns": 0.0,
        "storage.get_ns": 0.0,
        "storage.scan_ns_per_entry": 0.0,
        "storage.dict_add_ns": 0.0,
        "storage.dict_get_ns": 0.0,
    }
    add = get = scan = dict_add = dict_get = 0.0
    keys_total = 0
    for contents in columnar.values():
        items = list(contents.items())[:MAX_KEYS]
        if not items:
            continue
        keys_total += len(items)
        fresh = ColumnarMap(contents.arity, contents.value_kind)
        fresh_add = fresh.add
        started = _clock()
        for key, value in items:
            fresh_add(key, value)
        add += _clock() - started
        fresh_get = fresh.get
        started = _clock()
        for key, _ in items:
            fresh_get(key)
        get += _clock() - started
        started = _clock()
        for _ in fresh.items():
            pass
        scan += _clock() - started

        plain: dict = {}
        started = _clock()
        for key, value in items:
            _dict_add(plain, key, value)
        dict_add += _clock() - started
        plain_get = plain.get
        started = _clock()
        for key, _ in items:
            plain_get(key)
        dict_get += _clock() - started
    if keys_total:
        per_key = 1e9 / keys_total
        result["storage.add_ns"] = add * per_key
        result["storage.get_ns"] = get * per_key
        result["storage.scan_ns_per_entry"] = scan * per_key
        result["storage.dict_add_ns"] = dict_add * per_key
        result["storage.dict_get_ns"] = dict_get * per_key
    return result
