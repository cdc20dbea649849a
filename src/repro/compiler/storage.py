"""Storage analysis: per-map type proofs, and the layout each engine gets.

The paper's premise is that compiled delta programs win by keeping their
maintained state resident and cheap to touch.  Two things are decided
here, and only here:

**The type proofs** (:func:`analyze_storage` -> :class:`StoragePlan`), one
analysis of each map's definition:

* **key arity** — fixed by construction (every :class:`MapDef` declares
  its canonical key tuple), which is what makes a struct-of-arrays
  layout possible at all;
* **value class** — ``int`` when every monomial of the defining query is
  built from provably-integer factors (int literals, variables bound at
  non-FLOAT columns, 0/1 comparisons, multiplicities, references to int
  maps — a fixpoint), ``float`` when every monomial provably carries a
  float factor (a float literal, a division, a variable bound to a FLOAT
  column, or a reference to an always-float map — a second fixpoint),
  and ``object`` otherwise.  The ``int`` verdict is *the* exact-integer
  proof (:func:`exact_int_maps`): additions into such a map commute
  bit-identically, so the optimiser's fusion/reorder gates, the
  second-order batch plan, the fused native reduction and the sharding
  analysis's cross-shard sums all gate on it, and on nothing else;
* **native eligibility** — int64 key columns and a numeric value column
  within the generated C kernel's arity range.

The plan says what a map *can* be packed as
(:class:`repro.runtime.storage.ColumnarMap`: one array per key position
plus a packed value column behind the plain mapping protocol).  It is
pure compiler metadata: ``ir/lower`` stamps its labels on the lowered map
declarations (``compile --dump-ir``) and the code generator records it in
the generated-module header.

**The layout** (:func:`storage_layout` -> :class:`StorageLayout`) — what
each map of one engine *is*, picked by access pattern from (type proof x
how the triggers touch the map x which executor runs them):

* ``dict`` — the default for every map under the Python executors, and
  under the native one for every map no trigger scans on every event:
  CPython's C hash table is the fastest probe available to generated
  Python, a ``ColumnarMap`` probed from Python bytecode costs 3-5x as
  much per update;
* ``kernel`` — under ``mode="native"`` with a loaded C kernel, a
  native-eligible map that some per-event trigger scans whole on every
  event (a fused ``scan_columns`` / ``reduce_scalar`` loop outside any
  condition): the scan runs in C, which is the only place the kernel
  beats a dict — a scan that runs once per batch, or only when a
  watched extremum moves, does not repay an FFI crossing per update;
* ``packed`` — every keyed map in pure-Python packed columns.  No
  engine builds it (it ran the order book at 0.11-0.64x a dict engine's
  rate and was not smaller on the largest state measured);
  ``generate_module(..., columnar=True)`` still renders it.

The executor computes the layout once; the engine builds its maps from
it and the renderer emits the matching access code (``add()`` applies and
column scans for packed/kernel maps, the mapping protocol for dicts), so
the two cannot disagree.

For *storage* the proofs are hints, not soundness obligations: the
runtime map promotes any column to boxed storage before storing a value
the packed representation could not round-trip exactly, so maps stay
bit-identical to dict storage even where the proofs are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra.expr import (
    Add,
    AggSum,
    Cmp,
    Const,
    Div,
    Exists,
    Expr,
    Lift,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
    walk,
)
from repro.algebra.simplify import monomials
from repro.compiler.program import CompiledProgram
from repro.sql.catalog import Column, SqlType

#: value-class -> ColumnarMap value-column kind.
_VALUE_KINDS = {"int": "q", "float": "d", "object": "o"}

_VALUE_REASONS = {
    "int": "exact-integer ring proof",
    "float": "every defining monomial carries a float factor",
    "object": "packed keys, boxed values (value type unproven)",
}

#: Widest key tuple the generated C kernel supports (``cm_add_{n}_*``
#: entry points are emitted per arity; see ``codegen/native.py``).
NATIVE_MAX_ARITY = 8


@dataclass(frozen=True)
class MapStorage:
    """The storage decision for one maintained map."""

    name: str
    kind: str  # "columnar" | "dict"
    #: value type proof: "int" / "float" from the ring fixpoints (held by
    #: dict-stored scalar maps too — the native reduce fusion gates on
    #: it), "object" (columnar, unproven) or "any" (dict, unproven).
    value_class: str
    arity: int
    reason: str
    #: per-key-position type class ("int" | "float" | "str" | "any"), in
    #: key order.
    key_classes: tuple[str, ...] = ()
    #: whether the native C kernel can own this map (int64 keys, numeric
    #: values, arity within the generated entry-point range).
    native: bool = False
    native_reason: str = ""
    #: for a relation's base map: which columns it keeps and why, and the
    #: extremum decision (:meth:`repro.compiler.program.BaseMap.describe`).
    access: str = ""

    @property
    def columnar(self) -> bool:
        return self.kind == "columnar"

    @property
    def label(self) -> str:
        """Compact tag for IR dumps and generated-module headers."""
        if not self.columnar:
            return "dict"
        return f"columnar[{self.value_class}]"

    def create(self):
        """Fresh empty storage for this map."""
        if not self.columnar:
            return {}
        from repro.runtime.storage import ColumnarMap

        return ColumnarMap(self.arity, _VALUE_KINDS[self.value_class])


@dataclass(frozen=True)
class StoragePlan:
    """The per-map storage plan of one compiled program."""

    maps: dict[str, MapStorage]
    #: maps whose ring values are provably exact integers — exactly the
    #: ``value_class == "int"`` ones (auxiliary caches hold column values,
    #: not ring sums: never among them).  See :func:`exact_int_maps`.
    int_maps: frozenset[str]

    def storage_for(self, name: str) -> MapStorage:
        return self.maps[name]

    def create(self, name: str):
        """Fresh empty *packed* storage for one map (a dict where there
        is nothing to pack)."""
        return self.maps[name].create()

    @property
    def columnar_maps(self) -> tuple[str, ...]:
        return tuple(
            sorted(name for name, s in self.maps.items() if s.columnar)
        )

    @property
    def native_maps(self) -> tuple[str, ...]:
        """Maps the generated C kernel can own (see ``codegen/native.py``)."""
        return tuple(
            sorted(name for name, s in self.maps.items() if s.native)
        )

    def describe(self) -> str:
        """Human-readable summary (compile trace / generated header)."""
        lines = ["== storage plan =="]
        for name in sorted(self.maps):
            storage = self.maps[name]
            native = " [native-eligible]" if storage.native else ""
            lines.append(
                f"map {name}: {storage.label}{native} ({storage.reason})"
            )
            if storage.access:
                lines.append(f"  {storage.access}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MapLayout:
    """What one map of one engine is stored as, and why."""

    kind: str  # "dict" | "packed" | "kernel"
    reason: str


@dataclass(frozen=True)
class StorageLayout:
    """The realised storage layout of one engine (see the module
    docstring): engines build their maps from it, the renderer emits the
    access code that matches it."""

    plan: StoragePlan
    mode: str
    maps: dict[str, MapLayout]

    def create_maps(self) -> dict:
        """Fresh storage for every map (what engines construct from)."""
        return {
            name: {} if layout.kind == "dict" else self.plan.create(name)
            for name, layout in self.maps.items()
        }

    @property
    def columnar_maps(self) -> frozenset[str]:
        """Maps held in :class:`~repro.runtime.storage.ColumnarMap`
        objects (packed, or kernel-attached — an ejected kernel map falls
        back to the packed class): their applies render as ``add()``."""
        return frozenset(
            name for name, m in self.maps.items() if m.kind != "dict"
        )

    @property
    def kernel_maps(self) -> frozenset[str]:
        """Maps the C kernel owns: attached at every executor bind, full
        scans rendered as fused column traversals."""
        return frozenset(
            name for name, m in self.maps.items() if m.kind == "kernel"
        )

    def describe(self) -> str:
        """Per-map layout and reason (``repro compile``, module headers)."""
        return "\n".join(
            f"map {name}: {layout.kind} ({layout.reason})"
            for name, layout in sorted(self.maps.items())
        )


def storage_layout(
    program: CompiledProgram,
    mode: str = "compiled",
    columnar: bool = False,
    kernel: bool = False,
    scans: Optional[Mapping[str, str]] = None,
) -> StorageLayout:
    """The one storage-layout decision (see the module docstring).

    ``mode`` is the executor lane, ``columnar`` the packed layout (only
    :func:`~repro.codegen.pygen.generate_module` still renders it; no
    engine builds it), ``kernel`` whether the native lane's C kernel actually
    loaded on this host, and ``scans`` maps each map some trigger scans
    whole on every event to the trigger doing so
    (:func:`repro.codegen.pygen.fused_scan_sites`).  Without a loaded
    kernel the native lane's layout is exactly the compiled one.
    """
    plan = analyze_storage(program)
    native = mode == "native"
    scans = scans or {}
    decisions: dict[str, MapLayout] = {}
    for name, storage in plan.maps.items():
        scanned_by = scans.get(name)
        if native and kernel and storage.native and scanned_by:
            kind, reason = "kernel", f"fused scan in {scanned_by}"
        elif columnar and storage.columnar:
            kind = "packed"
            reason = f"packed memory mode: {storage.reason}"
        else:
            kind = "dict"
            if not storage.columnar:
                reason = storage.reason
            elif not native:
                reason = "probed from Python: CPython's dict is the native probe"
            elif not storage.native:
                reason = f"not native-eligible: {storage.native_reason}"
            elif not scanned_by:
                reason = "no trigger scans it on every event"
            else:
                reason = f"no kernel loaded for the scan in {scanned_by}"
        decisions[name] = MapLayout(kind, reason)
    return StorageLayout(plan, mode, decisions)


def _var_classes(
    defn: Expr, columns: Mapping[str, tuple[Column, ...]]
) -> dict[str, str]:
    """Type class (``"int"`` | ``"float"`` | ``"str"``) of the variables
    a map definition binds; a variable absent from the result is unproven.

    A variable bound by base-relation atoms only at columns of one class
    takes it: ``float`` for FLOAT columns, ``str`` for STRING ones, ``int``
    for the rest.  A variable equated across columns of two classes may
    carry either side's value, and a Lift-bound one is an arbitrary
    computed scalar — both stay unproven — unless the lift renames one
    variable (``v ^= x``, a MIN/MAX argument's key): it then holds ``x``'s
    values.
    """
    column_classes = {SqlType.FLOAT: "float", SqlType.STRING: "str"}
    bound: dict[str, set[str]] = {}
    lifted: set[str] = set()
    renames: list[tuple[str, str]] = []
    for node in walk(defn):
        if isinstance(node, Lift):
            if isinstance(node.body, Var):
                renames.append((node.var, node.body.name))
            else:
                lifted.add(node.var)
        elif isinstance(node, Rel):
            declared = columns[node.name]
            for position, arg in enumerate(node.args):
                if isinstance(arg, Var):
                    bound.setdefault(arg.name, set()).add(
                        column_classes.get(declared[position].type, "int")
                    )
    for var, source in renames:
        if source in bound:
            bound.setdefault(var, set()).update(bound[source])
        else:
            lifted.add(var)
    return {
        var: next(iter(found))
        for var, found in bound.items()
        if len(found) == 1 and var not in lifted
    }


def _int_factor(
    factor: Expr, classes: Mapping[str, str], int_maps: frozenset[str]
) -> bool:
    """Whether this value-position factor is provably an exact integer.

    Comparisons, lifts, EXISTS tests and relation atoms always are
    (0/1 values and tuple multiplicities); constants, variables and map
    references are checked, divisions never qualify.
    """
    if isinstance(factor, (Cmp, Exists, Lift, Rel)):
        return True
    if isinstance(factor, Const):
        return isinstance(factor.value, int)
    if isinstance(factor, Var):
        return classes.get(factor.name) == "int"
    if isinstance(factor, MapRef):
        return factor.name in int_maps
    if isinstance(factor, Neg):
        return _int_factor(factor.body, classes, int_maps)
    if isinstance(factor, (Mul, Add)):
        return all(
            _int_factor(child, classes, int_maps)
            for child in factor.children()
        )
    if isinstance(factor, AggSum):
        return _always_int(factor.body, classes, int_maps)
    return False


def _always_int(
    body: Expr, classes: Mapping[str, str], int_maps: frozenset[str]
) -> bool:
    """True when every monomial of ``body`` is built from int factors:
    every ring value is then an exact integer, so additions into the map
    commute bit-identically.  A FLOAT column only taints the maps whose
    value position actually carries it — group-by ``count`` slots over
    float streams still prove integer."""
    try:
        expanded = monomials(body)
    except Exception:
        return False
    return all(
        not isinstance(coeff, float)
        and all(_int_factor(factor, classes, int_maps) for factor in factors)
        for coeff, factors in expanded
    )


def _float_factor(
    factor: Expr, classes: Mapping[str, str], float_maps: frozenset[str]
) -> bool:
    """Whether this value-position factor is provably a float.

    Comparisons, lifts, EXISTS and relation atoms yield 0/1/multiplicity
    integers and never qualify; the proof only fires on float literals,
    divisions, FLOAT-column variables and always-float map references.
    """
    if isinstance(factor, Div):
        return True
    if isinstance(factor, Const):
        return isinstance(factor.value, float)
    if isinstance(factor, Var):
        return classes.get(factor.name) == "float"
    if isinstance(factor, MapRef):
        return factor.name in float_maps
    if isinstance(factor, Neg):
        return _float_factor(factor.body, classes, float_maps)
    if isinstance(factor, Mul):
        return any(
            _float_factor(child, classes, float_maps)
            for child in factor.factors
        )
    if isinstance(factor, Add):
        return all(
            _float_factor(term, classes, float_maps)
            for term in factor.terms
        )
    if isinstance(factor, AggSum):
        return _always_float(factor.body, classes, float_maps)
    return False


def _always_float(
    body: Expr, classes: Mapping[str, str], float_maps: frozenset[str]
) -> bool:
    """True when every monomial of ``body`` carries a float factor."""
    try:
        expanded = monomials(body)
    except Exception:
        return False
    if not expanded:
        return False  # identically zero: nothing to type
    return all(
        isinstance(coeff, float)
        or any(_float_factor(factor, classes, float_maps) for factor in factors)
        for coeff, factors in expanded
    )


def _fixpoint(candidates, proves) -> frozenset[str]:
    """Least set of ``candidates`` closed under ``proves(name, proven)``
    (map references resolve against the previous round's verdicts)."""
    proven: frozenset[str] = frozenset()
    while True:
        new = {
            name
            for name in candidates
            if name not in proven and proves(name, proven)
        }
        if not new:
            return proven
        proven |= new


def _native_eligibility(
    kind: str, value_class: str, arity: int, key_classes: tuple[str, ...]
) -> tuple[bool, str]:
    """Whether the generated C kernel can own this map, and why (not)."""
    if kind != "columnar":
        return False, "dict storage"
    if not 1 <= arity <= NATIVE_MAX_ARITY:
        return False, f"arity {arity} outside generated range 1..{NATIVE_MAX_ARITY}"
    if value_class not in ("int", "float"):
        return False, "boxed value column"
    bad = [
        f"key[{position}]: {cls}"
        for position, cls in enumerate(key_classes)
        if cls != "int"
    ]
    if bad:
        return False, "non-int64 key columns (" + ", ".join(bad) + ")"
    return True, f"int64 keys, {value_class} values"


def analyze_storage(program: CompiledProgram) -> StoragePlan:
    """Compute (and memoise) the storage plan for a compiled program.

    Like the partitioning spec, the plan is a pure function of the
    immutable-after-compile program, so it is cached on the program
    object — the engine, the lowering, the code generator and the CLI
    all share one analysis.
    """
    cached = getattr(program, "_storage_plan", None)
    if cached is not None:
        return cached
    plan = _analyze_storage(program)
    program._storage_plan = plan
    return plan


def exact_int_maps(program: CompiledProgram) -> frozenset[str]:
    """The one exact-integer proof: maps into which additions may be
    reordered, batched or merged across shards bit-identically."""
    return analyze_storage(program).int_maps


def _analyze_storage(program: CompiledProgram) -> StoragePlan:
    ring_maps = {
        name: map_def
        for name, map_def in program.maps.items()
        if map_def.role != "auxiliary"
    }
    classes = {
        name: _var_classes(map_def.defn, program.columns)
        for name, map_def in ring_maps.items()
    }
    bodies = {
        name: m.defn.body if isinstance(m.defn, AggSum) else m.defn
        for name, m in ring_maps.items()
    }
    # The exact-integer proof (the one every reorder gate reads, see
    # :func:`exact_int_maps`), then the always-float proof over the rest.
    int_maps = _fixpoint(
        ring_maps,
        lambda name, proven: _always_int(bodies[name], classes[name], proven),
    )
    float_maps = _fixpoint(
        ring_maps.keys() - int_maps,
        lambda name, proven: _always_float(
            bodies[name], classes[name], proven
        ),
    )

    access = {
        base.name: f"reads {base.relation}: {base.describe()}"
        for base in program.base_maps.values()
    }
    decisions: dict[str, MapStorage] = {}
    for name, map_def in program.maps.items():
        arity = map_def.arity
        if map_def.role == "auxiliary":
            # Extremum/distinct caches are kept by their source's writes
            # (pop/re-derive writes, column values rather than ring sums):
            # plain dicts, never native.
            decisions[name] = MapStorage(
                name, "dict", "any", arity,
                "auxiliary extremum/distinct cache (kept by its source's writes)",
                native=False,
                native_reason="auxiliary extremum/distinct cache",
            )
            continue
        proven = (
            "int" if name in int_maps
            else "float" if name in float_maps
            else None
        )
        if arity == 0:
            decisions[name] = MapStorage(
                name, "dict", proven or "any", 0, "scalar map: nothing to pack",
                access=access.get(name, ""),
            )
            continue
        kind, value_class = "columnar", proven or "object"
        reason = _VALUE_REASONS[value_class]
        key_classes = tuple(
            classes[name].get(var, "any") for var in map_def.keys
        )
        native, native_reason = _native_eligibility(
            kind, value_class, arity, key_classes
        )
        if native and name in program.finalizers:
            # The C kernel applies updates itself and would bypass the
            # cache updates this map's writes make —
            # decline up front rather than eject mid-stream.
            native = False
            native_reason = (
                "keeps an auxiliary extremum/distinct cache"
            )
        decisions[name] = MapStorage(
            name, kind, value_class, arity, reason,
            key_classes=key_classes,
            native=native,
            native_reason=native_reason,
            access=access.get(name, ""),
        )
    return StoragePlan(maps=decisions, int_maps=int_maps)
