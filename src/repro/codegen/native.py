"""Native C column-kernel backend for :class:`ColumnarMap` (the PR 5
follow-up named by the ROADMAP's "Native execution backend" item).

A ``ColumnarMap`` probed from Python bytecode costs 3-5x a dict probe,
and a C probe reached through the FFI still loses to CPython's own C
hash table on point lookups — the kernel wins where a trigger *scans* a
map whole.  So the native lane (:func:`native_layout`) hands the kernel
only the native-eligible maps (int64 key columns, ``int``/``float``
value column, arity within the generated entry-point range — see
:func:`repro.compiler.storage._native_eligibility`) that some per-event
trigger scans whole with a fused loop; everything else stays a dict.
Among the seven finance queries that is vwap's bids base map alone.
For those maps it renders a small C kernel, builds it with the detected
toolchain, loads it through cffi (ctypes when cffi is unavailable), and
attaches it underneath ``ColumnarMap`` as a drop-in probe engine:

* ``cm_add_{arity}_{q|d}`` — the single-probe GMR update (hash, one
  bucket walk, add-with-overflow-check, zero-eviction) that replaces
  ~40 Python bytecodes per event with one foreign call;
* ``cm_get_{arity}_{q|d}`` / ``cm_set`` / ``cm_del`` — point lookups
  and dict-protocol writes;
* ``cm_scan_column`` — the fused scan entry point: one call copies a
  live-only, insertion-ordered column into a Python ``array``, feeding
  the restate-style full-map traversals the second-order batch path
  performs per batch.

The kernel owns its own slot/bucket memory (C-side ``malloc``), so the
map's Python columns are freed on attach and
:meth:`ColumnarMap.storage_bytes` reports ``cm_bytes`` instead.

**Fallback semantics** are the load-bearing part (see
``docs/NATIVE.md``): every generated wrapper method guards its fast
path with exact type checks, and anything the packed representation
cannot round-trip — an int beyond int64, an int stored into a float
column, a non-tuple key, an exotic key part — *ejects* the map from
the kernel mid-stream: the C entries are snapshotted in insertion
order, rebuilt into the pure-Python columnar layout, and the operation
is retried there, so maps stay repr-identical to the pure path under
any input.  With no toolchain at all (the CI container),
:func:`probe_toolchain` reports ``none`` and the lane is exactly the
compiled one; the decision is stamped into the compile trace, the
generated module header, and BENCH metadata.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import weakref
from array import array
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Optional

from repro.codegen.pygen import CompiledExecutor, fused_scan_sites
from repro.compiler.program import (
    CompiledProgram,
    ExecutorOptions,
    TriggerTable,
)
from repro.compiler.storage import (
    NATIVE_MAX_ARITY,
    StorageLayout,
    analyze_storage,
    storage_layout,
)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class NativeBuildError(Exception):
    """The toolchain was found but compiling/loading the kernel failed."""


# ---------------------------------------------------------------------------
# Toolchain probing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToolchainProbe:
    """One cached answer to "can this host build and load the kernel?"."""

    available: bool
    compiler: str  # resolved compiler path ("" when unavailable)
    version: str  # first line of `cc --version` ("" when unavailable)
    loader: str  # "cffi" | "ctypes" | ""
    reason: str  # why unavailable ("" when available)

    def describe(self) -> str:
        """One-line summary for compile traces and module headers."""
        if not self.available:
            return f"none: pure-python fallback ({self.reason})"
        return f"{self.version} via {self.loader}"


_PROBE: Optional[ToolchainProbe] = None


def probe_toolchain(refresh: bool = False) -> ToolchainProbe:
    """Detect (once per process) the C compiler and FFI loader.

    Honours ``CC`` / ``REPRO_NATIVE_CC`` for the compiler,
    ``REPRO_NATIVE_LOADER=ctypes`` to skip cffi, and
    ``REPRO_NATIVE=off`` to disable the backend outright (what the CI
    forced-fallback lane sets).
    """
    global _PROBE
    if _PROBE is not None and not refresh:
        return _PROBE
    _PROBE = _probe_toolchain()
    return _PROBE


def _probe_toolchain() -> ToolchainProbe:
    if os.environ.get("REPRO_NATIVE", "").lower() in ("0", "off", "no", "false"):
        return ToolchainProbe(False, "", "", "", "disabled by REPRO_NATIVE")
    compiler = None
    for candidate in (
        os.environ.get("REPRO_NATIVE_CC"),
        os.environ.get("CC"),
        "gcc",
        "cc",
        "clang",
    ):
        if candidate and shutil.which(candidate):
            compiler = shutil.which(candidate)
            break
    if compiler is None:
        return ToolchainProbe(False, "", "", "", "no C compiler on PATH")
    try:
        out = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        version = (out.stdout or out.stderr).splitlines()[0].strip()
    except Exception as exc:  # unrunnable compiler counts as absent
        return ToolchainProbe(
            False, "", "", "", f"{compiler} --version failed: {exc}"
        )
    loader = "ctypes"
    if os.environ.get("REPRO_NATIVE_LOADER", "").lower() != "ctypes":
        try:
            import cffi  # noqa: F401

            loader = "cffi"
        except ImportError:
            loader = "ctypes"
    return ToolchainProbe(True, compiler, version, loader, "")


# ---------------------------------------------------------------------------
# C kernel rendering
# ---------------------------------------------------------------------------

#: (arity, value kind letter) pairs a kernel is generated for.
Signature = tuple[int, str]

_C_PRELUDE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CM_FREE 0
#define CM_TOMB (-1)
#define CM_MAX_ARITY %(max_arity)d

typedef struct CM {
    int64_t arity;
    int64_t vkind;       /* 'q' (int64) or 'd' (double) values */
    int64_t used;        /* occupied slots, dead included */
    int64_t size;        /* live entries */
    int64_t cap;         /* allocated slots */
    int64_t fill;        /* occupied buckets, tombstones included */
    int64_t mask;        /* bucket-table length - 1 */
    int64_t *keys[CM_MAX_ARITY];
    int64_t *hashes;
    unsigned char *live;
    int64_t *values;     /* doubles stored bitwise */
    int64_t *buckets;    /* slot+1; CM_FREE / CM_TOMB */
} CM;

/* splitmix64 finaliser, folded across key parts; independent of (and
 * never observable from) Python's hash — ejection recomputes Python
 * hashes from the key values. */
static uint64_t cm_mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

static int64_t cm_hash(const int64_t *ks, int64_t arity) {
    uint64_t h = 0x345678ULL;
    for (int64_t i = 0; i < arity; i++)
        h = cm_mix(h ^ (uint64_t)ks[i]);
    return (int64_t)h;
}

/* CPython-style perturbed probe.  Returns the slot of the matching
 * live entry, or -1 with *bucket_out set to the bucket an insert
 * should claim (first tombstone on the walk, else the free bucket). */
static int64_t cm_find(const CM *m, const int64_t *ks, int64_t h,
                       int64_t *bucket_out) {
    uint64_t mask = (uint64_t)m->mask;
    uint64_t i = (uint64_t)h & mask;
    uint64_t perturb = (uint64_t)h;
    int64_t first_tomb = -1;
    for (;;) {
        int64_t b = m->buckets[i];
        if (b == CM_FREE) {
            *bucket_out = first_tomb >= 0 ? first_tomb : (int64_t)i;
            return -1;
        }
        if (b == CM_TOMB) {
            if (first_tomb < 0)
                first_tomb = (int64_t)i;
        } else {
            int64_t slot = b - 1;
            if (m->hashes[slot] == h) {
                int eq = 1;
                for (int64_t k = 0; k < m->arity; k++)
                    if (m->keys[k][slot] != ks[k]) { eq = 0; break; }
                if (eq) { *bucket_out = (int64_t)i; return slot; }
            }
        }
        perturb >>= 5;
        i = (5 * i + perturb + 1) & mask;
    }
}

/* Allocate-first, swap-on-success: a failed calloc leaves the old
 * (still valid) table in place and returns 1, and callers treat that
 * as "skip the resize", never as corruption. */
static int cm_rebuild_buckets(CM *m) {
    int64_t cap = 8;
    while (cap < 2 * (m->size + 1))
        cap <<= 1;
    cap <<= 1;  /* load factor <= ~1/4 after rebuild */
    int64_t *buckets = (int64_t *)calloc((size_t)cap, sizeof(int64_t));
    if (!buckets)
        return 1;
    free(m->buckets);
    m->buckets = buckets;
    m->mask = cap - 1;
    m->fill = m->size;
    for (int64_t slot = 0; slot < m->used; slot++) {
        if (!m->live[slot])
            continue;
        uint64_t mask = (uint64_t)m->mask;
        uint64_t h = (uint64_t)m->hashes[slot];
        uint64_t i = h & mask;
        uint64_t perturb = h;
        while (m->buckets[i] != CM_FREE) {
            perturb >>= 5;
            i = (5 * i + perturb + 1) & mask;
        }
        m->buckets[i] = slot + 1;
    }
    return 0;
}

static int cm_grow_slots(CM *m) {
    int64_t cap = m->cap ? m->cap * 2 : 8;
    for (int64_t k = 0; k < m->arity; k++) {
        int64_t *col =
            (int64_t *)realloc(m->keys[k], (size_t)cap * sizeof(int64_t));
        if (!col)
            return 2;
        m->keys[k] = col;
    }
    int64_t *hashes =
        (int64_t *)realloc(m->hashes, (size_t)cap * sizeof(int64_t));
    if (!hashes)
        return 2;
    m->hashes = hashes;
    unsigned char *live = (unsigned char *)realloc(m->live, (size_t)cap);
    if (!live)
        return 2;
    m->live = live;
    int64_t *values =
        (int64_t *)realloc(m->values, (size_t)cap * sizeof(int64_t));
    if (!values)
        return 2;
    m->values = values;
    m->cap = cap;
    return 0;
}

/* Drop dead slots, preserving insertion order (iteration is a linear
 * slot scan, so tombstone debt would otherwise leak into every scan).
 * The replacement bucket table is allocated before anything moves, so
 * an allocation failure just skips the compaction. */
static void cm_compact(CM *m) {
    int64_t cap = 8;
    while (cap < 2 * (m->size + 1))
        cap <<= 1;
    cap <<= 1;
    int64_t *buckets = (int64_t *)calloc((size_t)cap, sizeof(int64_t));
    if (!buckets)
        return;
    int64_t w = 0;
    for (int64_t r = 0; r < m->used; r++) {
        if (!m->live[r])
            continue;
        if (w != r) {
            for (int64_t k = 0; k < m->arity; k++)
                m->keys[k][w] = m->keys[k][r];
            m->hashes[w] = m->hashes[r];
            m->values[w] = m->values[r];
        }
        m->live[w] = 1;
        w++;
    }
    m->used = w;
    free(m->buckets);
    m->buckets = buckets;
    m->mask = cap - 1;
    m->fill = m->size;
    for (int64_t slot = 0; slot < m->used; slot++) {
        uint64_t mask = (uint64_t)m->mask;
        uint64_t h = (uint64_t)m->hashes[slot];
        uint64_t i = h & mask;
        uint64_t perturb = h;
        while (m->buckets[i] != CM_FREE) {
            perturb >>= 5;
            i = (5 * i + perturb + 1) & mask;
        }
        m->buckets[i] = slot + 1;
    }
}

/* Failure discipline: every return-2 path fires *before* any logical
 * mutation, so Python can eject the map and retry the operation on the
 * pure path without double-applying the delta. */
static int cm_append(CM *m, const int64_t *ks, int64_t h, int64_t bucket,
                     int64_t value_bits) {
    int was_free = m->buckets[bucket] == CM_FREE;
    if (was_free && 3 * (m->fill + 1) >= 2 * (m->mask + 1)) {
        if (cm_rebuild_buckets(m) == 0) {
            int64_t fresh;
            cm_find(m, ks, h, &fresh);  /* key absent: yields the bucket */
            bucket = fresh;
        } else if (m->fill + 2 >= m->mask + 1) {
            return 2;  /* table nearly full and ungrowable */
        }
    }
    if (m->used == m->cap && cm_grow_slots(m))
        return 2;
    int64_t slot = m->used;
    for (int64_t k = 0; k < m->arity; k++)
        m->keys[k][slot] = ks[k];
    m->hashes[slot] = h;
    m->live[slot] = 1;
    m->values[slot] = value_bits;
    if (m->buckets[bucket] == CM_FREE)
        m->fill++;
    m->buckets[bucket] = slot + 1;
    m->used++;
    m->size++;
    return 0;
}

static void cm_kill(CM *m, int64_t slot, int64_t bucket) {
    m->live[slot] = 0;
    m->buckets[bucket] = CM_TOMB;
    m->size--;
    if (m->used > 64 && m->used > 2 * m->size)
        cm_compact(m);
}

CM *cm_new(int arity, int vkind) {
    if (arity < 1 || arity > CM_MAX_ARITY)
        return NULL;
    CM *m = (CM *)calloc(1, sizeof(CM));
    if (!m)
        return NULL;
    m->arity = arity;
    m->vkind = vkind;
    m->buckets = (int64_t *)calloc(8, sizeof(int64_t));
    if (!m->buckets) {
        free(m);
        return NULL;
    }
    m->mask = 7;
    return m;
}

static void cm_release_arrays(CM *m) {
    for (int64_t k = 0; k < m->arity; k++) {
        free(m->keys[k]);
        m->keys[k] = NULL;
    }
    free(m->hashes);  m->hashes = NULL;
    free(m->live);    m->live = NULL;
    free(m->values);  m->values = NULL;
    free(m->buckets); m->buckets = NULL;
}

void cm_free(CM *m) {
    if (!m)
        return;
    cm_release_arrays(m);
    free(m);
}

long long cm_len(const CM *m) { return m->size; }

long long cm_bytes(const CM *m) {
    long long per_slot = (m->arity + 2) * 8 + 1; /* keys + hash + value + live */
    return (long long)sizeof(CM) + m->cap * per_slot + (m->mask + 1) * 8;
}

int cm_clear(CM *m) {
    int64_t *buckets = (int64_t *)calloc(8, sizeof(int64_t));
    if (!buckets)
        return 2;  /* alloc-first: the map is untouched on failure */
    cm_release_arrays(m);
    m->buckets = buckets;
    m->used = m->size = m->cap = m->fill = 0;
    m->mask = 7;
    return 0;
}

CM *cm_clone(const CM *m) {
    CM *c = (CM *)calloc(1, sizeof(CM));
    if (!c)
        return NULL;
    *c = *m;
    for (int64_t k = 0; k < CM_MAX_ARITY; k++)
        c->keys[k] = NULL;
    c->hashes = NULL; c->live = NULL; c->values = NULL; c->buckets = NULL;
    if (m->cap) {
        for (int64_t k = 0; k < m->arity; k++) {
            c->keys[k] = (int64_t *)malloc((size_t)m->cap * sizeof(int64_t));
            if (!c->keys[k]) { cm_free(c); return NULL; }
            memcpy(c->keys[k], m->keys[k], (size_t)m->used * sizeof(int64_t));
        }
        c->hashes = (int64_t *)malloc((size_t)m->cap * sizeof(int64_t));
        c->live = (unsigned char *)malloc((size_t)m->cap);
        c->values = (int64_t *)malloc((size_t)m->cap * sizeof(int64_t));
        if (!c->hashes || !c->live || !c->values) { cm_free(c); return NULL; }
        memcpy(c->hashes, m->hashes, (size_t)m->used * sizeof(int64_t));
        memcpy(c->live, m->live, (size_t)m->used);
        memcpy(c->values, m->values, (size_t)m->used * sizeof(int64_t));
    }
    c->buckets = (int64_t *)malloc((size_t)(m->mask + 1) * sizeof(int64_t));
    if (!c->buckets) { cm_free(c); return NULL; }
    memcpy(c->buckets, m->buckets, (size_t)(m->mask + 1) * sizeof(int64_t));
    return c;
}

/* Fused scan: copy one live-only column, insertion-ordered, into `out`
 * (a Python array's buffer).  pos >= 0 selects a key column, pos < 0
 * the value column (bitwise, so it lands in array('q') or array('d')
 * untranslated).  Returns the number of entries written. */
long long cm_scan_column(const CM *m, int pos, void *out) {
    int64_t *dst = (int64_t *)out;
    const int64_t *src = pos >= 0 ? m->keys[pos] : m->values;
    int64_t w = 0;
    if (m->used == m->size) {  /* no tombstones: straight memcpy */
        memcpy(dst, src, (size_t)m->used * sizeof(int64_t));
        return m->used;
    }
    for (int64_t r = 0; r < m->used; r++)
        if (m->live[r])
            dst[w++] = src[r];
    return w;
}

/* Fused scan/aggregate for restate loops over int-valued maps:
 *     sum over live entries of  value * keys[mulpos...] * cmul
 * restricted to entries passing every (fpos, fop, fthr) comparison
 * (opcodes 0 '>', 1 '>=', 2 '<', 3 '<=', 4 '==', 5 '!=').  Thresholds
 * arrive as doubles; any filtered key outside the exactly-representable
 * +/-2^53 window bails out (return 1), as does any int64 overflow in
 * the products or the running sum — the caller then replays the loop
 * in Python, whose arbitrary-precision arithmetic is the reference.
 * Returns 0 with the sum in *out on success. */
#define CM_EXACT_DOUBLE (1LL << 53)
int cm_reduce_q(const CM *m,
                const long long *mulpos, long long nmul,
                const long long *fpos, const long long *fops,
                const double *fthr, long long nfil,
                long long cmul, long long *out) {
    int64_t sum = 0;
    int dense = m->used == m->size;
    for (int64_t r = 0; r < m->used; r++) {
        if (!dense && !m->live[r])
            continue;
        int pass = 1;
        for (int64_t f = 0; f < nfil; f++) {
            int64_t k = m->keys[fpos[f]][r];
            if (k > CM_EXACT_DOUBLE || k < -CM_EXACT_DOUBLE)
                return 1;
            double dk = (double)k, t = fthr[f];
            int ok;
            switch ((int)fops[f]) {
                case 0: ok = dk > t; break;
                case 1: ok = dk >= t; break;
                case 2: ok = dk < t; break;
                case 3: ok = dk <= t; break;
                case 4: ok = dk == t; break;
                default: ok = dk != t; break;
            }
            if (!ok) { pass = 0; break; }
        }
        if (!pass)
            continue;
        int64_t term = m->values[r];
        for (int64_t j = 0; j < nmul; j++)
            if (__builtin_mul_overflow(term, m->keys[mulpos[j]][r], &term))
                return 1;
        if (__builtin_mul_overflow(term, (int64_t)cmul, &term))
            return 1;
        if (__builtin_add_overflow(sum, term, &sum))
            return 1;
    }
    *out = sum;
    return 0;
}
"""

_C_ADD_Q = r"""
int cm_add_%(arity)d_q(CM *m, %(key_params)s, long long v, long long *out) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t h = cm_hash(ks, %(arity)d);
    int64_t bucket;
    int64_t slot = cm_find(m, ks, h, &bucket);
    if (slot >= 0) {
        int64_t nv;
        if (__builtin_add_overflow(m->values[slot], (int64_t)v, &nv))
            return 1;  /* value overflow: eject to boxed Python column */
        if (nv == 0) {
            *out = 0;
            cm_kill(m, slot, bucket);
            return 0;
        }
        m->values[slot] = nv;
        *out = nv;
        return 0;
    }
    if (v == 0) {
        *out = 0;
        return 0;
    }
    *out = v;
    return cm_append(m, ks, h, bucket, (int64_t)v);
}
"""

_C_ADD_D = r"""
int cm_add_%(arity)d_d(CM *m, %(key_params)s, double v, double *out) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t h = cm_hash(ks, %(arity)d);
    int64_t bucket;
    int64_t slot = cm_find(m, ks, h, &bucket);
    double nv;
    if (slot >= 0) {
        double cur;
        memcpy(&cur, &m->values[slot], 8);
        nv = cur + v;
        if (nv == 0.0) {  /* -0.0 evicts too, matching the pure path */
            *out = 0.0;
            cm_kill(m, slot, bucket);
            return 0;
        }
        memcpy(&m->values[slot], &nv, 8);
        *out = nv;
        return 0;
    }
    if (v == 0.0) {
        *out = 0.0;
        return 0;
    }
    int64_t bits;
    memcpy(&bits, &v, 8);
    *out = v;
    return cm_append(m, ks, h, bucket, bits);
}
"""

_C_GET_Q = r"""
int cm_get_%(arity)d_q(const CM *m, %(key_params)s, long long *out) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t bucket;
    int64_t slot = cm_find(m, ks, cm_hash(ks, %(arity)d), &bucket);
    if (slot < 0)
        return 0;
    *out = m->values[slot];
    return 1;
}
"""

_C_GET_D = r"""
int cm_get_%(arity)d_d(const CM *m, %(key_params)s, double *out) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t bucket;
    int64_t slot = cm_find(m, ks, cm_hash(ks, %(arity)d), &bucket);
    if (slot < 0)
        return 0;
    memcpy(out, &m->values[slot], 8);
    return 1;
}
"""

_C_SET_Q = r"""
int cm_set_%(arity)d_q(CM *m, %(key_params)s, long long v) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t h = cm_hash(ks, %(arity)d);
    int64_t bucket;
    int64_t slot = cm_find(m, ks, h, &bucket);
    if (slot >= 0) {
        m->values[slot] = (int64_t)v;
        return 0;
    }
    return cm_append(m, ks, h, bucket, (int64_t)v);
}
"""

_C_SET_D = r"""
int cm_set_%(arity)d_d(CM *m, %(key_params)s, double v) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t h = cm_hash(ks, %(arity)d);
    int64_t bucket;
    int64_t slot = cm_find(m, ks, h, &bucket);
    int64_t bits;
    memcpy(&bits, &v, 8);
    if (slot >= 0) {
        m->values[slot] = bits;
        return 0;
    }
    return cm_append(m, ks, h, bucket, bits);
}
"""

_C_DEL = r"""
int cm_del_%(arity)d(CM *m, %(key_params)s) {
    int64_t ks[%(arity)d] = {%(key_names)s};
    int64_t bucket;
    int64_t slot = cm_find(m, ks, cm_hash(ks, %(arity)d), &bucket);
    if (slot < 0)
        return 0;
    cm_kill(m, slot, bucket);
    return 1;
}
"""


def render_kernel_source(
    signatures: frozenset[Signature], note: str = ""
) -> str:
    """Render the C kernel for one set of (arity, value-kind) signatures.

    The core (struct, hashing, probing, growth) is signature-independent;
    per-signature ``cm_add/get/set/del`` entry points take their key
    parts as scalar C arguments so a probe is a single foreign call with
    no intermediate Python tuple packing.
    """
    parts = [
        "/* Generated ColumnarMap kernel — repro.codegen.native.",
        " * Regenerate via render_kernel_source(); do not edit builds",
        " * in the cache directory by hand.",
    ]
    if note:
        parts.append(f" * {note}")
    parts.append(" */")
    parts.append(_C_PRELUDE % {"max_arity": NATIVE_MAX_ARITY})
    arities = sorted({arity for arity, _ in signatures})
    for arity in arities:
        subs = {
            "arity": arity,
            "key_params": ", ".join(
                f"long long k{i}" for i in range(arity)
            ),
            "key_names": ", ".join(f"k{i}" for i in range(arity)),
        }
        parts.append(_C_DEL % subs)
        for _, vkind in sorted(sig for sig in signatures if sig[0] == arity):
            if vkind == "q":
                parts.append(_C_ADD_Q % subs)
                parts.append(_C_GET_Q % subs)
                parts.append(_C_SET_Q % subs)
            else:
                parts.append(_C_ADD_D % subs)
                parts.append(_C_GET_D % subs)
                parts.append(_C_SET_D % subs)
    return "\n".join(parts)


def render_cdef(signatures: frozenset[Signature]) -> str:
    """The cffi ``cdef`` declarations matching the rendered kernel."""
    lines = [
        "typedef struct CM CM;",
        "CM *cm_new(int arity, int vkind);",
        "void cm_free(CM *m);",
        "long long cm_len(const CM *m);",
        "long long cm_bytes(const CM *m);",
        "int cm_clear(CM *m);",
        "CM *cm_clone(const CM *m);",
        "long long cm_scan_column(const CM *m, int pos, void *out);",
        "int cm_reduce_q(const CM *m, const long long *mulpos,"
        " long long nmul, const long long *fpos, const long long *fops,"
        " const double *fthr, long long nfil, long long cmul,"
        " long long *out);",
    ]
    for arity, vkind in sorted(signatures):
        keys = ", ".join(f"long long k{i}" for i in range(arity))
        if vkind == "q":
            lines.append(
                f"int cm_add_{arity}_q(CM *m, {keys}, long long v,"
                " long long *out);"
            )
            lines.append(
                f"int cm_get_{arity}_q(const CM *m, {keys}, long long *out);"
            )
            lines.append(f"int cm_set_{arity}_q(CM *m, {keys}, long long v);")
        else:
            lines.append(
                f"int cm_add_{arity}_d(CM *m, {keys}, double v, double *out);"
            )
            lines.append(
                f"int cm_get_{arity}_d(const CM *m, {keys}, double *out);"
            )
            lines.append(f"int cm_set_{arity}_d(CM *m, {keys}, double v);")
    for arity in sorted({arity for arity, _ in signatures}):
        keys = ", ".join(f"long long k{i}" for i in range(arity))
        lines.append(f"int cm_del_{arity}(CM *m, {keys});")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Build + load
# ---------------------------------------------------------------------------


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        path = Path(override)
    else:
        uid = os.getuid() if hasattr(os, "getuid") else 0
        path = Path(tempfile.gettempdir()) / f"repro-native-{uid}"
    path.mkdir(parents=True, exist_ok=True, mode=0o700)
    return path


def _build_shared_object(source: str, probe: ToolchainProbe) -> Path:
    """Compile ``source`` to a cached ``.so`` (content-addressed)."""
    digest = sha256(
        (probe.compiler + "\0" + probe.version + "\0" + source).encode()
    ).hexdigest()[:20]
    cache = _cache_dir()
    so_path = cache / f"kernel-{digest}.so"
    if so_path.exists():
        return so_path
    c_path = cache / f"kernel-{digest}.c"
    c_path.write_text(source)
    tmp_so = cache / f"kernel-{digest}.{os.getpid()}.tmp.so"
    cmd = [
        probe.compiler,
        "-O2",
        "-shared",
        "-fPIC",
        "-o",
        str(tmp_so),
        str(c_path),
    ]
    try:
        result = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
    except Exception as exc:
        raise NativeBuildError(f"{probe.compiler} failed to run: {exc}")
    if result.returncode != 0:
        tail = (result.stderr or result.stdout).strip()[-500:]
        raise NativeBuildError(
            f"{probe.compiler} exited {result.returncode}: {tail}"
        )
    os.replace(tmp_so, so_path)  # atomic publish under concurrent builds
    return so_path


def _load_cffi(so_path: Path, signatures: frozenset[Signature]):
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(render_cdef(signatures))
    lib = ffi.dlopen(str(so_path))
    return lib, ffi


def _load_ctypes(so_path: Path, signatures: frozenset[Signature]):
    import ctypes

    lib = ctypes.CDLL(str(so_path))
    ll, dd = ctypes.c_longlong, ctypes.c_double
    ptr = ctypes.c_void_p
    lib.cm_new.argtypes = [ctypes.c_int, ctypes.c_int]
    lib.cm_new.restype = ptr
    lib.cm_free.argtypes = [ptr]
    lib.cm_free.restype = None
    lib.cm_len.argtypes = [ptr]
    lib.cm_len.restype = ll
    lib.cm_bytes.argtypes = [ptr]
    lib.cm_bytes.restype = ll
    lib.cm_clear.argtypes = [ptr]
    lib.cm_clear.restype = ctypes.c_int
    lib.cm_clone.argtypes = [ptr]
    lib.cm_clone.restype = ptr
    lib.cm_scan_column.argtypes = [ptr, ctypes.c_int, ptr]
    lib.cm_scan_column.restype = ll
    llp = ctypes.POINTER(ll)
    lib.cm_reduce_q.argtypes = [
        ptr, llp, ll, llp, llp, ctypes.POINTER(dd), ll, ll, llp,
    ]
    lib.cm_reduce_q.restype = ctypes.c_int
    for arity, vkind in sorted(signatures):
        keys = [ll] * arity
        val = ll if vkind == "q" else dd
        out = ctypes.POINTER(ll if vkind == "q" else dd)
        fn = getattr(lib, f"cm_add_{arity}_{vkind}")
        fn.argtypes = [ptr] + keys + [val, out]
        fn.restype = ctypes.c_int
        fn = getattr(lib, f"cm_get_{arity}_{vkind}")
        fn.argtypes = [ptr] + keys + [out]
        fn.restype = ctypes.c_int
        fn = getattr(lib, f"cm_set_{arity}_{vkind}")
        fn.argtypes = [ptr] + keys + [val]
        fn.restype = ctypes.c_int
        fn = getattr(lib, f"cm_del_{arity}")
        fn.argtypes = [ptr] + keys
        fn.restype = ctypes.c_int
    return lib, None


# ---------------------------------------------------------------------------
# Python-side wrapper generation
# ---------------------------------------------------------------------------

_ZERO8 = bytes(8)


def _wrapper_source(arity: int, vkind: str, loader: str) -> str:
    """Render the per-signature wrapper class (exec'd per kernel).

    The fast paths are exact-type-guarded so only values the packed C
    layout round-trips take the foreign call; everything else drops to
    the generic slow path or ejects the owning map back to pure Python.
    cffi raises ``OverflowError`` on out-of-range int64 arguments so the
    fast path just catches it; ctypes silently *truncates*, so its
    guards carry explicit range checks.
    """
    names = [f"k{i}" for i in range(arity)]
    unpack = ", ".join(names) + ("," if arity == 1 else "") + " = key"
    ks = ", ".join(names)
    range_ok = [
        f"-9223372036854775808 <= {n} <= 9223372036854775807" for n in names
    ]
    key_guard = " and ".join(f"type({n}) is int" for n in names)
    if loader == "ctypes":
        key_guard += " and " + " and ".join(range_ok)
    if vkind == "q":
        val_guard = "type(value) is int"
        if loader == "ctypes":
            val_guard += (
                " and -9223372036854775808 <= value <= 9223372036854775807"
            )
    else:
        val_guard = "type(value) is float"
    pad = " " * 16
    if loader == "cffi":
        out_new = f'_ffi.new("{"long long" if vkind == "q" else "double"}[1]")'
        out_read = "self._out[0]"
        add_call = (
            f"{pad}try:\n"
            f"{pad}    st = _c_add(self._h, {ks}, value, self._out)\n"
            f"{pad}except OverflowError:\n"
            f"{pad}    st = -1\n"
        )
        get_call = (
            f"{pad}try:\n"
            f"{pad}    st = _c_get(self._h, {ks}, self._out)\n"
            f"{pad}except OverflowError:\n"
            f"{pad}    st = 0\n"
        )
        set_call = (
            f"{pad}try:\n"
            f"{pad}    st = _c_set(self._h, {ks}, value)\n"
            f"{pad}except OverflowError:\n"
            f"{pad}    st = -1\n"
        )
        del_call = (
            f"{pad}try:\n"
            f"{pad}    st = _c_del(self._h, {ks})\n"
            f"{pad}except OverflowError:\n"
            f"{pad}    st = 0\n"
        )
    else:
        out_new = (
            "_ctypes.c_longlong()" if vkind == "q" else "_ctypes.c_double()"
        )
        out_read = "self._out.value"
        add_call = (
            f"{pad}st = _c_add(self._h, {ks}, value,"
            f" _ctypes.byref(self._out))\n"
        )
        get_call = (
            f"{pad}st = _c_get(self._h, {ks}, _ctypes.byref(self._out))\n"
        )
        set_call = f"{pad}st = _c_set(self._h, {ks}, value)\n"
        del_call = f"{pad}st = _c_del(self._h, {ks})\n"

    return f'''\
class _KernelMap(_KernelMapBase):
    __slots__ = ()
    _arity = {arity}
    _vkind = {vkind!r}

    def __init__(self, handle, owner):
        self._h = handle
        self._owner = owner
        self._out = {out_new}
        self._rcache = {{}}
        self._finalizer = _weakref.finalize(self, _c_free, handle)

    def add(self, key, value):
        if type(key) is tuple and len(key) == {arity}:
            {unpack}
            if {key_guard} and {val_guard}:
{add_call}\
                if st == 0:
                    return {out_read}
        owner = self._owner
        owner._eject_native()
        return owner.add(key, value)

    def set(self, key, value):
        if type(key) is tuple and len(key) == {arity}:
            {unpack}
            if {key_guard} and {val_guard}:
{set_call}\
                if st == 0:
                    return
        owner = self._owner
        owner._eject_native()
        owner[key] = value

    def get(self, key, default=None):
        if type(key) is tuple and len(key) == {arity}:
            {unpack}
            if {key_guard}:
{get_call}\
                if st == 1:
                    return {out_read}
                return default
            return self._get_slow(key, default)
        return default

    def delete(self, key):
        if type(key) is tuple and len(key) == {arity}:
            {unpack}
            if {key_guard}:
{del_call}\
                if st == 1:
                    return
                raise KeyError(key)
        self._delete_slow(key)
'''


_BASE_SOURCE = '''\
class _KernelMapBase:
    """Shared machinery for the generated per-signature wrappers."""

    __slots__ = (
        "_h", "_owner", "_out", "_finalizer", "_rcache", "__weakref__",
    )

    def length(self):
        return _c_len(self._h)

    def bytes_used(self):
        return _c_bytes(self._h)

    def clear(self):
        if _c_clear(self._h):
            self._owner._eject_native()
            self._owner.clear()

    def release(self):
        """Free the C map now (idempotent; also runs at GC)."""
        self._finalizer()

    def scan_columns(self, positions):
        n = _c_len(self._h)
        out = []
        for pos in tuple(positions) + (-1,):
            kind = "q" if pos >= 0 else self._vkind
            buf = _array(kind, _ZERO8 * n) if n else _array(kind)
            if n:
                _c_scan(self._h, pos, _scan_addr(buf))
            out.append(buf)
        return tuple(out)

    def reduce_scalar(self, mulpos, predicates, cmul=1):
        """Fused restate reduction (see ``cm_reduce_q``), or ``None``.

        ``None`` tells the generated trigger to run its Python column-zip
        loop instead: float-valued maps, non-numeric thresholds, or a C
        bail-out (int64 overflow, filtered keys beyond the +/-2^53
        double-exact window) all decline rather than approximate.
        """
        if self._vkind != "q":
            return None
        if not -9223372036854775808 <= cmul <= 9223372036854775807:
            return None
        shape = (mulpos, tuple((pos, op) for pos, op, _ in predicates))
        entry = self._rcache.get(shape)
        if entry is None:
            entry = (
                _i64_arr(mulpos),
                len(mulpos),
                _i64_arr([pos for pos, _, _ in predicates]),
                _i64_arr([op for _, op, _ in predicates]),
                _f64_buf(len(predicates)),
                len(predicates),
            )
            self._rcache[shape] = entry
        marr, nmul, parr, oarr, tbuf, npred = entry
        for index, (_, _, threshold) in enumerate(predicates):
            kind = type(threshold)
            if kind is float:
                tbuf[index] = threshold
            elif kind is int or kind is bool:
                try:
                    as_float = float(threshold)
                except OverflowError:
                    return None
                if as_float != threshold:
                    return None
                tbuf[index] = as_float
            else:
                return None
        st = _c_reduce(
            self._h, marr, nmul, parr, oarr, tbuf, npred, cmul,
            _out_ref(self._out),
        )
        if st != 0:
            return None
        return _out_val(self._out)

    def items_list(self):
        cols = self.scan_columns(range(self._arity))
        return list(zip(zip(*cols[:-1]), cols[-1]))

    def clone(self, owner):
        handle = _c_clone(self._h)
        if not handle:
            return None
        return type(self)(handle, owner)

    def migrate(self, items):
        """Bulk-load conforming entries; False rejects the whole map."""
        arity = self._arity
        int_values = self._vkind == "q"
        for key, value in items:
            if type(key) is not tuple or len(key) != arity:
                return False
            for part in key:
                if type(part) is not int or not (
                    -9223372036854775808 <= part <= 9223372036854775807
                ):
                    return False
            if int_values:
                if type(value) is not int or not (
                    -9223372036854775808 <= value <= 9223372036854775807
                ):
                    return False
            elif type(value) is not float:
                return False
            self.set(key, value)
        return True

    def _get_slow(self, key, default):
        """Non-int key parts: convert when value-equal, else miss/eject."""
        converted = []
        for part in key:
            kind = type(part)
            if kind is int:
                if not (
                    -9223372036854775808 <= part <= 9223372036854775807
                ):
                    return default  # beyond int64: cannot be stored here
                converted.append(part)
            elif kind is bool:
                converted.append(int(part))
            elif kind is float:
                if part != part or not part.is_integer():
                    return default
                as_int = int(part)
                if not (
                    -9223372036854775808 <= as_int <= 9223372036854775807
                ):
                    return default
                converted.append(as_int)
            else:
                owner = self._owner
                owner._eject_native()
                return owner.get(key, default)
        return self.get(tuple(converted), default)

    def _delete_slow(self, key):
        if type(key) is not tuple or len(key) != self._arity:
            raise KeyError(key)
        converted = []
        for part in key:
            kind = type(part)
            if kind is int:
                converted.append(part)
            elif kind is bool:
                converted.append(int(part))
            elif kind is float:
                if part != part or not part.is_integer():
                    raise KeyError(key)
                converted.append(int(part))
            else:
                owner = self._owner
                owner._eject_native()
                del owner[key]
                return
        try:
            self.delete(tuple(converted))
        except KeyError:
            raise KeyError(key) from None
'''


def _build_namespace(lib, ffi, loader: str, arity: int, vkind: str) -> dict:
    if loader == "cffi":
        def _scan_addr(buf, _ffi=ffi):
            return _ffi.from_buffer(buf)

        def _i64_arr(values, _ffi=ffi):
            return _ffi.new("long long[]", list(values))

        def _f64_buf(count, _ffi=ffi):
            return _ffi.new("double[]", count)

        def _out_ref(out):
            return out

        def _out_val(out):
            return out[0]
    else:
        import ctypes as _ct

        def _scan_addr(buf):
            return buf.buffer_info()[0]

        def _i64_arr(values, _ct=_ct):
            values = list(values)
            return (_ct.c_longlong * len(values))(*values)

        def _f64_buf(count, _ct=_ct):
            return (_ct.c_double * count)()

        def _out_ref(out, _ct=_ct):
            return _ct.byref(out)

        def _out_val(out):
            return out.value
    namespace = {
        "_weakref": weakref,
        "_array": array,
        "_ZERO8": _ZERO8,
        "_scan_addr": _scan_addr,
        "_i64_arr": _i64_arr,
        "_f64_buf": _f64_buf,
        "_out_ref": _out_ref,
        "_out_val": _out_val,
        "_c_reduce": lib.cm_reduce_q,
        "_c_free": lib.cm_free,
        "_c_len": lib.cm_len,
        "_c_bytes": lib.cm_bytes,
        "_c_clear": lib.cm_clear,
        "_c_clone": lib.cm_clone,
        "_c_scan": lib.cm_scan_column,
        "_c_add": getattr(lib, f"cm_add_{arity}_{vkind}"),
        "_c_get": getattr(lib, f"cm_get_{arity}_{vkind}"),
        "_c_set": getattr(lib, f"cm_set_{arity}_{vkind}"),
        "_c_del": getattr(lib, f"cm_del_{arity}"),
    }
    if loader == "ctypes":
        import ctypes

        namespace["_ctypes"] = ctypes
    else:
        namespace["_ffi"] = ffi
    return namespace


class KernelLib:
    """One loaded kernel: the shared library plus its wrapper classes."""

    def __init__(
        self,
        loader: str,
        lib,
        ffi,
        signatures: frozenset[Signature],
        so_path: Path,
    ):
        self.loader = loader
        self.lib = lib
        self.ffi = ffi
        self.signatures = signatures
        self.so_path = so_path
        self._classes: dict[Signature, type] = {}

    def wrapper_class(self, arity: int, vkind: str) -> type:
        sig = (arity, vkind)
        cls = self._classes.get(sig)
        if cls is None:
            namespace = _build_namespace(
                self.lib, self.ffi, self.loader, arity, vkind
            )
            exec(_BASE_SOURCE, namespace)
            exec(_wrapper_source(arity, vkind, self.loader), namespace)
            cls = namespace["_KernelMap"]
            cls.__qualname__ = f"_KernelMap_{arity}_{vkind}"
            self._classes[sig] = cls
        return cls

    def attach(self, contents) -> bool:
        """Re-home a pure ColumnarMap onto the C kernel (idempotent).

        Declines (returns False, map untouched) when the map has
        spilled, holds non-conforming entries, or its signature was not
        generated; a decline is always safe because the pure path is
        the semantic reference.
        """
        from repro.runtime.storage import ColumnarMap, _NativeColumnarMap

        if type(contents) is _NativeColumnarMap:
            return True
        if type(contents) is not ColumnarMap or contents.spilled:
            return False
        arity, vkind = contents.arity, contents.value_kind
        if (arity, vkind) not in self.signatures:
            return False
        handle = self.lib.cm_new(arity, ord(vkind))
        if not handle:
            return False
        wrapper = self.wrapper_class(arity, vkind)(handle, contents)
        if len(contents) and not wrapper.migrate(contents.items()):
            wrapper.release()
            return False
        contents._native = wrapper
        contents.__class__ = _NativeColumnarMap
        ColumnarMap._reset(contents)  # free the Python-side columns
        return True


# ---------------------------------------------------------------------------
# Per-program kernel resolution
# ---------------------------------------------------------------------------

_KERNEL_CACHE: dict[tuple, Optional[KernelLib]] = {}


def kernel_signatures(
    program: CompiledProgram, names: Optional[frozenset] = None
) -> frozenset[Signature]:
    """The ``(arity, value kind)`` entry points a program's native-eligible
    maps need — all of them, or just the maps in ``names``."""
    plan = analyze_storage(program)
    return frozenset(
        (s.arity, "q" if s.value_class == "int" else "d")
        for s in plan.maps.values()
        if s.native and (names is None or s.name in names)
    )


def kernel_source(program: CompiledProgram) -> str:
    """The C source serving all of a program's native-eligible maps —
    what ``repro compile --emit c`` prints and ``load_kernel(program)``
    builds (``""`` when no map is native-eligible)."""
    signatures = kernel_signatures(program)
    return render_kernel_source(signatures) if signatures else ""


def load_kernel(
    program: CompiledProgram, names: Optional[frozenset] = None
) -> tuple[Optional[KernelLib], str]:
    """Build/load the kernel for a program's native-eligible maps (just
    those in ``names`` when given); (None, reason) on fallback.

    The built ``.so`` is content-addressed, so programs sharing a
    signature set share one build, and repeat loads are cached
    in-process.
    """
    signatures = kernel_signatures(program, names)
    if not signatures:
        return None, "no native-eligible maps in the storage plan"
    probe = probe_toolchain()
    if not probe.available:
        return None, probe.describe()
    key = (signatures, probe.loader, probe.compiler)
    if key in _KERNEL_CACHE:
        kernel = _KERNEL_CACHE[key]
        if kernel is None:
            return None, "kernel build failed earlier this process"
        return kernel, probe.describe()
    try:
        source = render_kernel_source(signatures)
        so_path = _build_shared_object(source, probe)
        if probe.loader == "cffi":
            lib, ffi = _load_cffi(so_path, signatures)
        else:
            lib, ffi = _load_ctypes(so_path, signatures)
        kernel = KernelLib(probe.loader, lib, ffi, signatures, so_path)
    except NativeBuildError as exc:
        _KERNEL_CACHE[key] = None
        return None, f"kernel build failed: {exc}"
    except OSError as exc:
        _KERNEL_CACHE[key] = None
        return None, f"kernel load failed: {exc}"
    _KERNEL_CACHE[key] = kernel
    return kernel, probe.describe()


def native_layout(
    program: CompiledProgram, options: ExecutorOptions = ExecutorOptions()
) -> tuple[StorageLayout, Optional[KernelLib], str]:
    """The native lane's storage layout on this host, the kernel serving
    it (``None`` on fallback) and the note saying which.

    The kernel is built for exactly the maps the layout rule would hand
    it (:func:`repro.compiler.storage.storage_layout`); when none
    qualifies, or the build/probe fails, the layout is the compiled
    lane's and nothing is attached.
    """
    scans = fused_scan_sites(program, options)
    layout = storage_layout(program, "native", kernel=True, scans=scans)
    if layout.kernel_maps:
        kernel, note = load_kernel(program, layout.kernel_maps)
    else:
        kernel, note = None, (
            "no native-eligible map is scanned whole on every event; "
            "running the compiled lane"
        )
    if kernel is None:
        layout = storage_layout(program, "native", kernel=False, scans=scans)
    return layout, kernel, note


def describe_layouts(program: CompiledProgram, optimize: bool = True) -> str:
    """The layout half of ``repro compile``'s storage-plan section: what
    each map is stored as under every executor mode, and why.  The
    native column assumes the probed toolchain builds the kernel (nothing
    is compiled here)."""
    probe = probe_toolchain()
    scans = fused_scan_sites(program, ExecutorOptions(optimize=optimize))
    lines = []
    for title, layout in (
        ("compiled / interpreted", storage_layout(program, "compiled")),
        (
            f"native ({probe.describe()})",
            storage_layout(
                program, "native", kernel=probe.available, scans=scans
            ),
        ),
    ):
        lines.append(f"layout, {title}:")
        lines.extend("  " + line for line in layout.describe().splitlines())
    return "\n".join(lines)


def describe_native(program: CompiledProgram) -> str:
    """The ``repro compile`` native-kernel section."""
    probe = probe_toolchain()
    plan = analyze_storage(program)
    lines = ["== native kernel ==", f"toolchain: {probe.describe()}"]
    eligible = [s for _, s in sorted(plan.maps.items()) if s.native]
    if not eligible:
        lines.append("native-eligible maps: (none)")
    for storage in eligible:
        lines.append(
            f"map {storage.name}: native-eligible ({storage.native_reason})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The executor lane
# ---------------------------------------------------------------------------


class NativeExecutor(CompiledExecutor):
    """The compiled executor with kernel-owned scan maps.

    Identical generated triggers, two differences: the maps the layout
    hands to the kernel (native-eligible *and* scanned whole on every
    event by some trigger) are attached to the C kernel at every
    (re)bind, and full-map loops over them are rendered as fused column
    scans (``scan_columns`` / ``reduce_scalar``) instead of ``items()``
    iteration.  Every other map is whatever the compiled lane would
    hold.  With no toolchain — or no map worth handing over — nothing is
    attached (``native_active`` False) and the lane *is* the compiled
    lane: same layout, same generated module.
    """

    mode = "native"

    def __init__(
        self,
        program: CompiledProgram,
        options: ExecutorOptions = ExecutorOptions(),
    ):
        layout, self.kernel, self.native_note = native_layout(program, options)
        super().__init__(program, options, layout=layout)

    @property
    def native_active(self) -> bool:
        return self.kernel is not None

    def bind(self, maps) -> TriggerTable:
        table = super().bind(maps)
        for name in self.layout.kernel_maps:  # empty without a kernel
            self.kernel.attach(maps[name])
        return table
