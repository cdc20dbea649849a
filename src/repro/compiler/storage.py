"""Storage analysis: per-map type proofs, and the layout each engine gets.

The paper's premise is that compiled delta programs win by keeping their
maintained state resident and cheap to touch.  Two things are decided
here, and only here:

**The type proofs** (:func:`analyze_storage` -> :class:`StoragePlan`), a
per-map analysis extending the exact-integer ring proofs the optimiser
and the sharding analysis already rely on:

* **key arity** — fixed by construction (every :class:`MapDef` declares
  its canonical key tuple), which is what makes a struct-of-arrays
  layout possible at all;
* **value class** — ``int`` when the map's ring values are provably
  exact integers (:func:`repro.ir.optimize.exact_value_maps`, plus
  occurrence maps, whose values are tuple multiplicities whatever the
  key columns hold), ``float`` when every monomial of the defining query
  provably carries a float factor (a float literal, a division, a
  variable bound to a FLOAT column, or a reference to an always-float
  map — computed as a fixpoint), and ``object`` otherwise;
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
  for point-probed maps under the native one: CPython's C hash table is
  the fastest probe available to generated Python, a ``ColumnarMap``
  probed from Python bytecode costs 3-5x as much per update;
* ``kernel`` — under ``mode="native"`` with a loaded C kernel, a
  native-eligible map that some trigger scans whole (a fused
  ``scan_columns`` / ``reduce_scalar`` loop): the scan runs in C, which
  is the only place the kernel beats a dict;
* ``packed`` — the explicit memory mode (``columnar=True``): every keyed
  map in pure-Python packed columns, 2-4x fewer bytes per entry at the
  probe cost above.

The executor computes the layout once; the engine builds its maps from
it and the renderer emits the matching access code (``add()`` applies and
column scans for packed/kernel maps, the mapping protocol for dicts), so
the two cannot disagree.

The proofs are *hints*, not soundness obligations: the runtime map
promotes any column to boxed storage before storing a value the packed
representation could not round-trip exactly, so maps stay bit-identical
to dict storage even where the proofs are conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.algebra.expr import (
    Add,
    AggSum,
    Const,
    Div,
    Expr,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
    walk,
)
from repro.algebra.simplify import monomials
from repro.compiler.program import CompiledProgram

#: value-class -> ColumnarMap value-column kind.
_VALUE_KINDS = {"int": "q", "float": "d", "object": "o"}

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
    #: per-key-position type class ("int" | "float" | "any"), in key order.
    key_classes: tuple[str, ...] = ()
    #: whether the native C kernel can own this map (int64 keys, numeric
    #: values, arity within the generated entry-point range).
    native: bool = False
    native_reason: str = ""

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

    ``mode`` is the executor lane, ``columnar`` the explicit packed
    memory mode, ``kernel`` whether the native lane's C kernel actually
    loaded on this host, and ``scans`` maps each map some trigger scans
    whole to the trigger doing so
    (:func:`repro.codegen.pygen.fused_scan_sites`).  Without a loaded
    kernel the native lane's layout is exactly the compiled one.
    """
    plan = analyze_storage(program)
    native = mode == "native"
    scans = scans or {}
    decisions: dict[str, MapLayout] = {}
    for name, storage in plan.maps.items():
        scanned_by = scans.get(name)
        if native and kernel and storage.native and (columnar or scanned_by):
            kind = "kernel"
            reason = (
                f"fused scan in {scanned_by}"
                if scanned_by
                else "packed memory mode, native-eligible"
            )
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
                reason = "point-probed only"
            else:
                reason = f"no kernel loaded for the scan in {scanned_by}"
        decisions[name] = MapLayout(kind, reason)
    return StorageLayout(plan, mode, decisions)


def _float_capable_vars(defn: Expr, program: CompiledProgram) -> frozenset[str]:
    """Variables that *may* carry FLOAT column values.

    The complement of this set is integer-typed: every base-relation atom
    binding such a variable does so at a non-FLOAT column.
    """
    float_positions = program.float_columns
    out: set[str] = set()
    for node in walk(defn):
        if not isinstance(node, Rel):
            continue
        floats = float_positions.get(node.name, frozenset())
        for position in floats:
            arg = node.args[position]
            if isinstance(arg, Var):
                out.add(arg.name)
    return frozenset(out)


def _int_factor(
    factor: Expr, float_capable: frozenset[str], int_maps: frozenset[str]
) -> bool:
    """Whether this value-position factor is provably an exact integer.

    Comparisons, lifts, EXISTS tests and relation atoms always are
    (0/1 values and tuple multiplicities); constants, variables and map
    references are checked, divisions never qualify.
    """
    from repro.algebra.expr import Cmp, Exists, Lift

    if isinstance(factor, (Cmp, Exists, Lift, Rel)):
        return True
    if isinstance(factor, Const):
        return isinstance(factor.value, int)
    if isinstance(factor, Var):
        return factor.name not in float_capable
    if isinstance(factor, MapRef):
        return factor.name in int_maps
    if isinstance(factor, Neg):
        return _int_factor(factor.body, float_capable, int_maps)
    if isinstance(factor, (Mul, Add)):
        return all(
            _int_factor(child, float_capable, int_maps)
            for child in factor.children()
        )
    if isinstance(factor, AggSum):
        return _always_int_body(factor.body, float_capable, int_maps)
    return False


def _always_int_body(
    body: Expr, float_capable: frozenset[str], int_maps: frozenset[str]
) -> bool:
    """True when every monomial of ``body`` is built from int factors."""
    try:
        expanded = monomials(body)
    except Exception:
        return False
    for coeff, factors in expanded:
        if isinstance(coeff, float):
            return False
        if not all(
            _int_factor(factor, float_capable, int_maps)
            for factor in factors
        ):
            return False
    return True


def _always_int(
    map_def, program: CompiledProgram, int_maps: frozenset[str]
) -> bool:
    """Whether every ring value of the map is provably an exact integer.

    Sharper than :func:`repro.ir.optimize.exact_value_maps` (which
    excludes any map whose definition *touches* a FLOAT relation): here a
    FLOAT column only taints the maps whose value position actually
    carries it, so group-by ``count`` slots over float streams still
    prove integer.  Used for storage planning only — the optimiser's
    reorder gates keep the conservative proof.
    """
    defn = map_def.defn
    body = defn.body if isinstance(defn, AggSum) else defn
    float_capable = _float_capable_vars(defn, program)
    return _always_int_body(body, float_capable, int_maps)


def _float_typed_vars(defn: Expr, program: CompiledProgram) -> frozenset[str]:
    """Variables provably bound to FLOAT column values.

    A variable qualifies when every base-relation atom binding it does so
    at a FLOAT column position (a variable equated across a FLOAT and an
    INT column may carry the int side's value, so it is dropped).
    """
    float_positions = program.float_columns
    candidates: set[str] = set()
    demoted: set[str] = set()
    for node in walk(defn):
        if not isinstance(node, Rel):
            continue
        floats = float_positions.get(node.name, frozenset())
        for position, arg in enumerate(node.args):
            if not isinstance(arg, Var):
                continue
            if position in floats:
                candidates.add(arg.name)
            else:
                demoted.add(arg.name)
    return frozenset(candidates - demoted)


def _float_factor(
    factor: Expr, float_vars: frozenset[str], float_maps: frozenset[str]
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
        return factor.name in float_vars
    if isinstance(factor, MapRef):
        return factor.name in float_maps
    if isinstance(factor, Neg):
        return _float_factor(factor.body, float_vars, float_maps)
    if isinstance(factor, Mul):
        return any(
            _float_factor(child, float_vars, float_maps)
            for child in factor.factors
        )
    if isinstance(factor, Add):
        return all(
            _float_factor(term, float_vars, float_maps)
            for term in factor.terms
        )
    if isinstance(factor, AggSum):
        return _always_float_body(factor.body, float_vars, float_maps)
    return False


def _always_float_body(
    body: Expr, float_vars: frozenset[str], float_maps: frozenset[str]
) -> bool:
    """True when every monomial of ``body`` carries a float factor."""
    try:
        expanded = monomials(body)
    except Exception:
        return False
    if not expanded:
        return False  # identically zero: nothing to type
    for coeff, factors in expanded:
        if isinstance(coeff, float):
            continue
        if not any(
            _float_factor(factor, float_vars, float_maps)
            for factor in factors
        ):
            return False
    return True


def _always_float(
    map_def, program: CompiledProgram, float_maps: frozenset[str]
) -> bool:
    """Whether every ring value of the map is provably a Python float."""
    defn = map_def.defn
    body = defn.body if isinstance(defn, AggSum) else defn
    float_vars = _float_typed_vars(defn, program)
    return _always_float_body(body, float_vars, float_maps)


def _key_classes(map_def, program: CompiledProgram) -> tuple[str, ...]:
    """Per-key-position type classes ("int" | "float" | "any").

    A key variable is class "int" when every base-relation atom binding
    it does so at a non-FLOAT column and it is never Lift-bound (a lift
    body is an arbitrary computed scalar, so its Python type is
    unproven); "float" when it is FLOAT-column-bound only; "any"
    otherwise.  The "int" class is what licenses the native C kernel:
    those key columns are provably int64-packable by the same evidence
    that backs :func:`_float_capable_vars`.
    """
    from repro.algebra.expr import Lift

    defn = map_def.defn
    float_positions = program.float_columns
    int_bound: set[str] = set()
    float_bound: set[str] = set()
    unproven: set[str] = set()
    for node in walk(defn):
        if isinstance(node, Lift):
            unproven.add(node.var)
            continue
        if not isinstance(node, Rel):
            continue
        floats = float_positions.get(node.name, frozenset())
        for position, arg in enumerate(node.args):
            if not isinstance(arg, Var):
                continue
            if position in floats:
                float_bound.add(arg.name)
            else:
                int_bound.add(arg.name)

    def classify(var: str) -> str:
        if var in unproven:
            return "any"
        if var in int_bound:
            return "int" if var not in float_bound else "any"
        if var in float_bound:
            return "float"
        return "any"

    return tuple(classify(var) for var in map_def.keys)


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


def _analyze_storage(program: CompiledProgram) -> StoragePlan:
    from repro.ir.optimize import exact_value_maps

    # Int fixpoint, seeded with the optimiser's exact-integer proof and
    # the occurrence maps (their values are tuple multiplicities whatever
    # the key columns hold), then widened by the per-value-position proof
    # above; map references resolve against the previous round's verdicts.
    int_maps: set[str] = set(exact_value_maps(program))
    int_maps.update(
        name
        for name, map_def in program.maps.items()
        if map_def.role == "occurrence"
    )
    changed = True
    while changed:
        changed = False
        for name, map_def in program.maps.items():
            if name in int_maps:
                continue
            if _always_int(map_def, program, frozenset(int_maps)):
                int_maps.add(name)
                changed = True

    # Float fixpoint over the remainder: a map whose every defining
    # monomial carries a float factor is always-float.
    float_maps: set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, map_def in program.maps.items():
            if name in int_maps or name in float_maps:
                continue
            if _always_float(map_def, program, frozenset(float_maps)):
                float_maps.add(name)
                changed = True

    decisions: dict[str, MapStorage] = {}
    for name, map_def in program.maps.items():
        arity = map_def.arity
        if map_def.role == "auxiliary":
            # Extremum/distinct caches are maintained by Finalize steps
            # (pop/re-derive writes, column values rather than ring sums):
            # plain dicts, never native.
            decisions[name] = MapStorage(
                name, "dict", "any", arity,
                "auxiliary extremum/distinct cache (Finalize-maintained)",
                native=False,
                native_reason="Finalize-maintained auxiliary cache",
            )
            continue
        if arity == 0:
            if name in int_maps:
                scalar_class = "int"
            elif name in float_maps:
                scalar_class = "float"
            else:
                scalar_class = "any"
            decisions[name] = MapStorage(
                name, "dict", scalar_class, 0, "scalar map: nothing to pack"
            )
            continue
        if name in int_maps:
            kind, value_class, reason = (
                "columnar", "int", "exact-integer ring proof"
            )
        elif name in float_maps:
            kind, value_class, reason = (
                "columnar", "float",
                "every defining monomial carries a float factor",
            )
        else:
            kind, value_class, reason = (
                "columnar", "object",
                "packed keys, boxed values (value type unproven)",
            )
        key_classes = _key_classes(map_def, program)
        native, native_reason = _native_eligibility(
            kind, value_class, arity, key_classes
        )
        if native and name in program.finalizers:
            # The C kernel applies updates itself and would bypass the
            # Finalize step maintaining this map's auxiliary caches —
            # decline up front rather than eject mid-stream.
            native = False
            native_reason = (
                "feeds a Finalize-maintained auxiliary cache"
            )
        decisions[name] = MapStorage(
            name, kind, value_class, arity, reason,
            key_classes=key_classes,
            native=native,
            native_reason=native_reason,
        )
    return StoragePlan(maps=decisions)
