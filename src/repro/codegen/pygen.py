"""Python trigger-code generation: the IR -> Python renderer.

Each trigger becomes one module-level function whose parameters are the
event's weight (+1 insert, -1 delete) and values, and whose body renders
the trigger's imperative IR
(:mod:`repro.ir`) — loops appear only where the lowered statements
iterate map entries (the paper's ``foreach``).  Maps are bound as default
arguments, so the generated code pays no attribute or global lookups on
the hot path.

Every relation's trigger is emitted twice: the per-event function
``on_<rel>(__w, *row)`` and a *batch* variant ``on_<rel>_batch(__cols,
__ws)`` rendered from the batch IR derived from the same lowering.  The
batch variant binds map/index locals once per call and iterates the
*columnar* batch — one parallel list per event column, and the weight
column, whatever its signs — binding only the columns its body reads
(unused columns are never touched).  Its row loop runs the per-event
body; writes to an accumulating target are staged in a local flushed
once (the Z-set batch-delta shape; a keyed accumulator holds its keys'
current values, see :class:`repro.ir.nodes.AddTo`), and self-reading
triggers that admit a second-order plan restate the order-2 targets once
per batch (see :func:`repro.ir.lower.lower_trigger_batch`).

Secondary indexes are a back-end concern layered onto the IR here, in
two kinds.  A *hash* index: the loop access patterns collected from the
lowered IR get one index dict per pattern, maintained inline by every map
apply and probed by matching loops so they touch only matching entries.
An *ordered key* index (:func:`ordered_maps`): a map's last key position
kept as one sorted list per prefix of the others, changed only when a
key enters or leaves the map, read by threshold scans (a bisected slice)
and by MIN/MAX caches whose extremum left (the list's first or last
value).

The generated source is a readable artifact in its own right (the
``binary-size``/profiling experiments measure it); ``generate_module``
returns it as a string and :class:`CompiledExecutor` ``exec``-compiles it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import cached_property
from typing import Iterator, Optional, Sequence

from repro.errors import CodegenError
from repro.compiler.program import (
    CompiledProgram,
    ExecutorOptions,
    Trigger,
    TriggerTable,
)
from repro.compiler.storage import StorageLayout, exact_int_maps, storage_layout
from repro.ir.interp import unstage
from repro.ir.lower import collect_patterns_ir, lower_for, router_folds
from repro.ir.nodes import (
    AddTo,
    AppendTo,
    Assign,
    Accum,
    Block,
    BufferDecl,
    Cache,
    Clear,
    Compare,
    Const,
    Finalize,
    FlushBuffer,
    ForEachGroup,
    ForEachMap,
    ForEachRow,
    GROUPS,
    IfCond,
    IRExpr,
    IRStmt,
    KeyAt,
    KeyTuple,
    LocalMapDecl,
    Lookup,
    MergeInto,
    Name,
    Neg,
    Prod,
    SafeDiv,
    Sum,
    TriggerIR,
    WEIGHTS,
    binders,
    expr_names,
    expr_slots,
    read_slots,
    routed_group,
    stmt_children,
    stmt_exprs,
    used_names,
    walk_stmts,
    written_slots,
)

_CMP_PY = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Comparison opcodes of the native kernel's fused ``cm_reduce_q`` entry
#: point (see ``codegen/native.py``); keys are IR ``Compare`` ops.
_REDUCE_OPS = {">": 0, ">=": 1, "<": 2, "<=": 3, "=": 4, "!=": 5}
#: Mirror of each comparison when its operands are swapped.
_FLIP_OPS = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "=": "=", "!=": "!="}


def _literal(value) -> str:
    """Python source for a constant: ``repr``, except the infinities an
    empty extremum cache reads as (``1e999`` is the literal that parses
    to ``inf``; ``repr`` gives the bare name)."""
    if value in (float("inf"), float("-inf")):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


class Emitter:
    """An indentation-aware source builder."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0
        self._temp = 0
        #: set once a rendered expression calls the ``_div`` helper.
        self.divides = False

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def blank(self) -> None:
        self.lines.append("")

    def fresh(self, prefix: str = "t") -> str:
        """A new temp ``__<prefix><n>``.  Its prefix must be one no IR
        local takes (those of ``repro.ir.lower``'s and
        ``repro.ir.optimize``'s namers, the batch accumulators ``__b<n>``,
        the compiler's loop variables ``__k<n>``/``__i<n>``): a temp
        inside a loop must not rebind the loop's names."""
        self._temp += 1
        return f"__{prefix}{self._temp}"

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    class _Block:
        def __init__(self, emitter: "Emitter") -> None:
            self.emitter = emitter

        def __enter__(self) -> None:
            self.emitter.indent += 1

        def __exit__(self, *exc) -> None:
            self.emitter.indent -= 1

    def block(self) -> "_Block":
        return Emitter._Block(self)


def map_local(name: str) -> str:
    """The local (default-argument) name a map is bound to."""
    return f"_m_{name}"


def index_name(map_name: str, pattern: tuple[int, ...]) -> str:
    """The INDEXES key / local name for one access pattern of a map."""
    return f"__x_{map_name}_" + "_".join(str(p) for p in pattern)


def collect_patterns(
    program: CompiledProgram,
    options: ExecutorOptions = ExecutorOptions(),
    ordered: Optional[dict[str, int]] = None,
) -> dict[str, set[tuple[int, ...]]]:
    """Access patterns needing hash bucket indexes, from the lowered IR
    (none under ``use_indexes=False``).

    A pattern is the tuple of key positions bound at a map-loop site; real
    DBToaster calls these the map's *in/out patterns* and maintains one
    index per pattern so loops touch only matching entries.  Every write
    keeps a bucket, value included; the other kind of secondary index,
    an ordered key list kept on key entry and exit only, is
    :func:`ordered_maps`'.  Given the maps that keep one (``ordered``), a
    pattern every loop of which is a threshold scan that list serves
    (:func:`threshold_scan`) needs no bucket, and is left out.
    """
    if not options.use_indexes:
        return {}
    ir = lower_for(program, options)
    bodies = [*ir.triggers.values(), *ir.batch_triggers.values()]
    patterns = collect_patterns_ir(bodies)
    if not ordered:
        return patterns
    int_maps = exact_int_maps(program)
    kept: dict[str, set[tuple[int, ...]]] = {}
    for trigger_ir in bodies:
        for stmt in walk_stmts(trigger_ir.body):
            if (
                isinstance(stmt, ForEachMap)
                and _loop_uses_index(stmt, patterns)
                and not threshold_scan(stmt, trigger_ir.body, int_maps, ordered)
            ):
                kept.setdefault(stmt.slot.name, set()).add(stmt.pattern)
    return kept


def ordered_name(map_name: str) -> str:
    """The INDEXES key / local name of a map's ordered key index."""
    return f"__s_{map_name}"


#: How a threshold test ``key OP bound`` cuts a sorted list: the bisect
#: finding the cut, and whether the passing keys lie after it.
_SLICES = {
    ">": ("_bisect_right", True),
    ">=": ("_bisect_left", True),
    "<": ("_bisect_left", False),
    "<=": ("_bisect_right", False),
}


def ordered_maps(
    program: CompiledProgram,
    options: ExecutorOptions = ExecutorOptions(),
    layout: Optional[StorageLayout] = None,
) -> dict[str, int]:
    """Map name -> arity, for the maps that keep an ordered key index
    (none under ``use_indexes=False`` or ``optimize=False``, the plain
    renderings the ablations compare against): one sorted list of the
    last key position's values per prefix of the other positions.

    A map keeps one when a per-event trigger runs a threshold scan of it
    (:func:`threshold_scan`) on every event — as for the kernel's fused
    scans (:func:`fused_scan_sites`), a scan under a condition (mst's
    restate, run when its watched minimum moved) does not pay back a
    list kept on every key entry and exit — or when a MIN/MAX cache is
    kept from it: the writes whose key crosses zero maintain the list,
    and a leaving extremum's replacement is the list's first or last
    value.  Once kept, every threshold scan of the map reads it (vwap's
    batch restate too).  The rule is read off the IR and the type proofs
    of ``layout`` (the compiled lane's by default); a kernel-owned or
    packed map keeps none.
    """
    if not (options.use_indexes and options.optimize):
        return {}
    if layout is None:
        layout = storage_layout(program, "compiled")
    # Keyed dict-held ring maps whose last key position is proved int:
    # ``bisect`` then sees a total order, and a scan's exact integers
    # added in key order sum exactly.
    orderable = {
        name: storage.arity
        for name, storage in layout.plan.maps.items()
        if storage.key_classes[-1:] == ("int",)
        and name not in layout.columnar_maps
        and program.maps[name].role != "auxiliary"
    }
    int_maps = layout.plan.int_maps
    ir = lower_for(program, options)
    found: dict[str, int] = {}
    for trigger_ir in ir.triggers.values():
        for stmt in _unconditional(trigger_ir.body):
            if isinstance(stmt, ForEachMap) and threshold_scan(
                stmt, trigger_ir.body, int_maps, orderable
            ):
                found[stmt.slot.name] = orderable[stmt.slot.name]
    for trigger_ir in (*ir.triggers.values(), *ir.batch_triggers.values()):
        for stmt in walk_stmts(trigger_ir.body):
            if isinstance(stmt, (AddTo, FlushBuffer)):
                target = stmt.slot if isinstance(stmt, AddTo) else stmt.target
                if target.name in orderable and any(
                    cache.kind != "distinct" for cache in stmt.caches
                ):
                    found[target.name] = orderable[target.name]
    return found


def threshold_scan(
    loop: ForEachMap,
    body: Sequence[IRStmt],
    int_maps: frozenset[str],
    orderable: dict[str, int],
) -> Optional[tuple[str, str, IRExpr]]:
    """``(key name, op, bound)`` when ``loop`` may visit only the entries
    passing its threshold test, read off its map's ordered key index as a
    bisected slice; else ``None``.

    The loop runs over a whole map or one hash bucket of it (keyed on
    every position but the last), binding only the last position.  Its
    body is one ``if key OP bound`` (``<``, ``<=``, ``>``, ``>=``, the key
    on either side) with ``bound`` loop-invariant, and under it the loop
    only accumulates exact integers (:func:`_exact_sums`) into locals or
    scalar int maps, reading none of them: visiting the passing entries
    in key order then adds the same integers in another order, which is
    exact.  ``body`` is the trigger body around the loop: an accumulator
    holds an int constant before the loop, and nothing outside the loop
    reads a name the loop binds.
    """
    arity = orderable.get(loop.slot.name)
    if arity is None or len(loop.body) != 1 or not loop.binds:
        return None
    last = arity - 1
    if loop.pattern != tuple(range(last)) or any(
        pos != last for pos, _ in loop.binds
    ) or any(isinstance(expr, KeyAt) for _, expr in loop.filters):
        return None
    test = loop.body[0]
    if not (isinstance(test, IfCond) and isinstance(test.cond, Compare)):
        return None
    cond, keys = test.cond, {name for _, name in loop.binds}
    if cond.op not in _SLICES:
        return None
    if isinstance(cond.left, Name) and cond.left.name in keys:
        key, op, bound = cond.left.name, cond.op, cond.right
    elif isinstance(cond.right, Name) and cond.right.name in keys:
        key, op, bound = cond.right.name, _FLIP_OPS[cond.op], cond.left
    else:
        return None
    ints = keys | ({loop.value_var} if loop.slot.name in int_maps else set())
    accums = _exact_sums(test.body, ints, int_maps)
    if accums is None:
        return None
    written = written_slots(test.body)
    temps = {stmt.name for stmt in walk_stmts(test.body) if isinstance(stmt, Assign)}
    local = {loop.entry_var, *binders(loop)} | temps
    if (
        temps & accums
        or expr_names(bound) & (local | accums)
        or expr_slots(bound) & written
        or read_slots(test.body) & written
        or used_names(test.body) & accums
    ):
        return None
    stack = list(body)
    while stack:
        stmt = stack.pop()
        if stmt is loop:
            continue
        if any(expr_names(expr) & local for expr in stmt_exprs(stmt)):
            return None
        if accums & set(binders(stmt)) and not (
            isinstance(stmt, Assign) and _exact(stmt.value, set())
        ):
            return None
        stack.extend(stmt_children(stmt))
    return key, op, bound


def _exact_sums(
    stmts: Sequence[IRStmt], ints: set[str], int_maps: frozenset[str]
) -> Optional[set[str]]:
    """The accumulators ``stmts`` add exact integers to, or ``None`` when
    they do anything else.  Allowed: ``if``s and blocks of allowed
    statements, a temp assigned an exact integer (:func:`_exact`, with
    ``ints`` the names known to hold one), an accumulator adding one, and
    a cache-free, unstaged write of one to a scalar int map."""
    ints = set(ints)  # a temp assigned here is known here and below only
    accums: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, (IfCond, Block)):
            inner = _exact_sums(stmt_children(stmt), ints, int_maps)
            if inner is None:
                return None
            accums |= inner
        elif isinstance(stmt, Assign) and _exact(stmt.value, ints):
            ints.add(stmt.name)
        elif isinstance(stmt, Accum) and _exact(stmt.value, ints):
            accums.add(stmt.name)
        elif not (
            isinstance(stmt, AddTo)
            and not (stmt.keys or stmt.caches or stmt.acc)
            and stmt.slot.name in int_maps
            and _exact(stmt.value, ints)
        ):
            return None
    return accums


def _exact(expr: IRExpr, ints: set[str]) -> bool:
    """Whether ``expr`` is an int constant, a name in ``ints`` or a sum,
    product or negation of such, so provably an exact integer."""
    if isinstance(expr, Const):
        return type(expr.value) is int
    if isinstance(expr, Name):
        return expr.name in ints
    return isinstance(expr, (Neg, Prod, Sum)) and all(
        _exact(child, ints) for child in expr.children()
    )


def _loop_uses_index(
    stmt: ForEachMap, indexes: dict[str, set[tuple[int, ...]]]
) -> bool:
    """Whether a map loop probes a secondary index (touching only the
    matching entries) instead of scanning the map."""
    return (
        bool(stmt.binds)
        and bool(stmt.filters)
        and not any(isinstance(expr, KeyAt) for _, expr in stmt.filters)
        and stmt.pattern in indexes.get(stmt.slot.name, ())
    )


def _loop_fuses(
    stmt: ForEachMap, indexes: dict[str, set[tuple[int, ...]]]
) -> bool:
    """Whether a map loop is a *fused-scan site*: a whole-map scan of a
    program map that never materialises the key tuple, so a kernel-owned
    map can run it over its column arrays (``scan_columns`` /
    ``reduce_scalar``)."""
    return (
        not _loop_uses_index(stmt, indexes)
        and stmt.entry_var not in used_names(stmt.body)
    )


def _unconditional(stmts) -> Iterator[IRStmt]:
    """The statements of a body that run whenever the body does (those
    outside every ``if``), pre-order."""
    for stmt in stmts:
        yield stmt
        if not isinstance(stmt, IfCond):
            yield from _unconditional(stmt_children(stmt))


def fused_scan_sites(
    program: CompiledProgram, options: ExecutorOptions = ExecutorOptions()
) -> dict[str, str]:
    """Map name -> the first per-event trigger that runs a fused scan
    over it on *every* event — the "how triggers touch the map" input of
    :func:`repro.compiler.storage.storage_layout`.

    Only these maps are worth handing to the C kernel, whose every update
    is an FFI crossing: a scan under a condition (mst's restate, run only
    when its watched minimum moved) or in a batch body (once per batch,
    after one update per changed key) does not pay that back.
    """
    ir = lower_for(program, options)
    indexes = collect_patterns(program, options)
    sites: dict[str, str] = {}
    for key in sorted(program.triggers):
        for stmt in _unconditional(ir.triggers[key].body):
            if isinstance(stmt, ForEachMap) and _loop_fuses(stmt, indexes):
                sites.setdefault(stmt.slot.name, program.triggers[key].name)
    return sites


def generate_module(
    program: CompiledProgram,
    use_indexes: bool = True,
    optimize: bool = True,
    columnar: bool = False,
    layout: Optional[StorageLayout] = None,
    native_note: Optional[str] = None,
) -> str:
    """Generate the full trigger module source for a compiled program.

    With ``use_indexes`` (the default, matching production DBToaster),
    maps iterated with partially-bound keys get secondary index
    dictionaries, maintained inline by every writer and used by loops to
    touch only matching entries.  ``optimize=False`` renders the raw
    lowering with the IR pass pipeline disabled (the ablation knob).

    ``layout`` is the realised storage layout of the engine the module
    will bind to (:func:`repro.compiler.storage.storage_layout` — the
    executors pass the one their engine builds its maps from): applies to
    its ``ColumnarMap``-held maps go through the single-probe ``add()``
    update instead of the dict ``get``/``pop``/set sequence, and whole-map
    scans of its kernel-owned maps render as fused column traversals
    (``scan_columns`` / ``reduce_scalar``).  Without one, the module is
    rendered for the compiled lane's all-dict layout, which works on any
    mapping; ``columnar=True`` renders the packed layout instead (every
    keyed map through ``add()``), which no engine builds any more —
    ``benchmarks/ledger/compile_suite.py`` still counts its bytes.
    ``native_note`` stamps the native lane's toolchain decision into the
    header.
    """
    from repro.compiler.partition import analyze_partitioning

    options = ExecutorOptions("compiled", use_indexes, optimize)
    ir = lower_for(program, options)
    if layout is None:
        layout = storage_layout(program, "compiled", columnar)
    ordered = ordered_maps(program, options, layout)
    indexes = collect_patterns(program, options, ordered)
    plan = layout.plan
    columnar_maps = layout.columnar_maps
    native_scan_maps = layout.kernel_maps
    # The fused C reduction only fires when the scanned map and every
    # appended-to target carry the exact-integer proof, so collapsing a
    # per-entry delta stream into one summed delta is exact arithmetic.
    int_value_maps = plan.int_maps
    emitter = Emitter()
    emitter.line('"""Generated delta-processing triggers (do not edit).')
    emitter.line("")
    emitter.line("Produced by repro.codegen.pygen from the trigger IR")
    emitter.line("(repro.ir); maps (and secondary indexes) are bound as")
    emitter.line("default arguments at exec time.  Each trigger has a")
    emitter.line("per-event function of the event's weight and values and")
    emitter.line("a *_batch variant applying a whole columnar batch (one")
    emitter.line("parallel list per event column, and its weight column)")
    emitter.line("per call.")
    emitter.line("")
    passes = ", ".join(ir.passes) if ir.passes else "disabled"
    emitter.line(f"IR optimisation passes: {passes}.")
    emitter.line("")
    for title, lines in (
        ("factored extrema", program.factored_extrema()),
        ("product views", program.product_views()),
    ):
        if lines:
            emitter.line(f"== {title} ==")
            for line in lines:
                emitter.line(line)
            emitter.line("")
    # Shard-routing metadata: which event column each relation's batches
    # may be hash-partitioned on (see repro.compiler.partition); stamped
    # here so the generated artifact documents its own parallelism.
    folds = router_folds(program, ir)
    for line in analyze_partitioning(program).describe(folds).splitlines():
        emitter.line(line)
    emitter.line("")
    # The type proofs, then the layout this module was rendered for (see
    # repro.compiler.storage): all-dict layouts render storage-agnostic
    # code (mapping protocol only), ColumnarMap-held maps the single-probe
    # add() update, kernel-owned maps fused column scans on top.
    for line in plan.describe().splitlines():
        emitter.line(line)
    if native_scan_maps:
        rendered_for = (
            "columnar storage (add() applies; fused column scans: "
            + ", ".join(sorted(native_scan_maps))
            + ")"
        )
    elif columnar_maps:
        rendered_for = "columnar storage (add() applies)"
    else:
        rendered_for = "storage-agnostic (mapping protocol)"
    emitter.line("rendered for: " + rendered_for)
    emitter.line(f"== storage layout ({layout.mode}) ==")
    for line in layout.describe().splitlines():
        emitter.line(line)
    if native_note is not None:
        emitter.line(f"native kernel: {native_note}")
    emitter.line('"""')
    emitter.blank()
    if indexes or ordered:
        _generate_index_rebuild(indexes, ordered, emitter)
        emitter.blank()
    renderer = _PyRenderer(
        emitter, indexes, columnar_maps, native_scan_maps, int_value_maps, ordered
    )
    for key in sorted(program.triggers):
        _generate_trigger(
            program.triggers[key], ir.triggers[key], ir.batch_triggers[key], renderer
        )
        emitter.blank()
    if emitter.divides:
        emitter.line("def _div(n, d):")
        with emitter.block():
            emitter.line("return 0 if d == 0 else n / d")
    return emitter.source()


def _generate_index_rebuild(
    indexes: dict[str, set[tuple[int, ...]]],
    ordered: dict[str, int],
    emitter: Emitter,
) -> None:
    """``_rebuild_indexes()``: reconstruct every index from its map, in
    place — each hash bucket from the entries, each ordered key list from
    the keys, sorted.  :meth:`CompiledExecutor.bind` runs it, so a copy,
    a snapshot, a restore, a shard lane or a forked lane binds consistent
    indexes over whatever its maps hold."""
    emitter.line("def _rebuild_indexes():")
    with emitter.block():
        for map_name, arity in sorted(ordered.items()):
            emitter.line(f"__idx = INDEXES[{ordered_name(map_name)!r}]")
            if arity == 1:
                emitter.line(f"__idx[:] = sorted(__k[0] for __k in MAPS[{map_name!r}])")
                continue
            emitter.line("__idx.clear()")
            emitter.line(f"for __key in MAPS[{map_name!r}]:")
            with emitter.block():
                emitter.line(
                    f"__idx.setdefault(__key[:{arity - 1}], [])"
                    f".append(__key[{arity - 1}])"
                )
            emitter.line("for __values in __idx.values():")
            with emitter.block():
                emitter.line("__values.sort()")
        for map_name in sorted(indexes):
            for pattern in sorted(indexes[map_name]):
                local = index_name(map_name, pattern)
                emitter.line(f"__idx = INDEXES[{local!r}]")
                emitter.line("__idx.clear()")
                emitter.line(f"for __key, __val in MAPS[{map_name!r}].items():")
                with emitter.block():
                    subkey = (
                        f"(__key[{pattern[0]}],)"
                        if len(pattern) == 1
                        else "(" + ", ".join(f"__key[{p}]" for p in pattern) + ")"
                    )
                    emitter.line(
                        f"__idx.setdefault({subkey}, {{}})[__key] = __val"
                    )


def _global_maps_used(*bodies) -> list[str]:
    names: set[str] = set()
    for body in bodies:
        names.update(slot.name for slot in read_slots(body) | written_slots(body))
        for stmt in walk_stmts(body):
            if isinstance(stmt, AppendTo) and stmt.target.name:
                names.add(stmt.target.name)
    return sorted(names)


def _generate_trigger(
    trigger: Trigger, per_event: TriggerIR, batch: TriggerIR, renderer: "_PyRenderer"
) -> None:
    emitter = renderer.emitter
    maps_used = _global_maps_used(per_event.body, batch.body)
    params = list(trigger.signature)
    defaults = [f"{map_local(name)}=MAPS[{name!r}]" for name in maps_used]
    for name in maps_used:
        locals_ = [index_name(name, p) for p in sorted(renderer.indexes.get(name, ()))]
        if name in renderer.ordered:
            locals_.append(ordered_name(name))
        defaults += [f"{local}=INDEXES[{local!r}]" for local in locals_]
    signature = ", ".join(params + defaults)
    emitter.line(f"def {trigger.name}({signature}):")
    with emitter.block():
        renderer.render_trigger(per_event.body)
    emitter.blank()
    loop = routed_group(batch.body)
    if loop is None:
        batch_signature = ", ".join(["__cols", WEIGHTS] + defaults)
        emitter.line(f"def {trigger.name}_batch({batch_signature}):")
        with emitter.block():
            renderer.render_trigger(batch.body)
        return
    # A routed fold: the fold, the body over its groups, and the batch
    # trigger, which is the one applied to the other.
    emitter.line(f"def {trigger.name}_fold({loop.rows_var}, {WEIGHTS}):")
    with emitter.block():
        renderer.render_fold(loop)
        emitter.line(f"return {GROUPS}")
    emitter.blank()
    emitter.line(f"def {trigger.name}_groups({', '.join([GROUPS] + defaults)}):")
    with emitter.block():
        renderer.render_trigger(batch.body)
        emitter.line("return __rows")  # see _render_group_loop
    emitter.blank()
    emitter.line(f"def {trigger.name}_batch({loop.rows_var}, {WEIGHTS}):")
    with emitter.block():
        emitter.line(
            f"{trigger.name}_groups({trigger.name}_fold({loop.rows_var}, {WEIGHTS})"
            ".items())"
        )


class _PyRenderer:
    """Renders IR statements to Python source lines.

    ``columnar_maps`` names the maps the binding engine stores in
    :class:`~repro.runtime.storage.ColumnarMap` columns — their applies
    render as the storage's single-probe ``add()``.  ``native_maps``
    additionally renders their full-map scans as fused column zips
    (``scan_columns``) when the loop never materialises the key tuple.
    ``ordered`` names the maps keeping an ordered key index
    (:func:`ordered_maps`), with their arities.
    """

    def __init__(
        self,
        emitter: Emitter,
        indexes: dict[str, set[tuple[int, ...]]],
        columnar_maps: frozenset[str],
        native_maps: frozenset[str],
        int_value_maps: frozenset[str],
        ordered: dict[str, int],
    ) -> None:
        self.emitter = emitter
        self.indexes = indexes
        self.columnar_maps = columnar_maps
        self.native_maps = native_maps
        self.int_value_maps = int_value_maps
        self.ordered = ordered
        #: the body of the trigger being rendered (threshold scans read
        #: the statements around a loop).
        self.trigger_body: Sequence[IRStmt] = ()

    # -- statements --------------------------------------------------------

    def render_trigger(self, body: Sequence[IRStmt]) -> None:
        if not body:
            self.emitter.line("pass")
            return
        self.trigger_body = body
        self.render_body(body)

    def render_body(self, stmts: Sequence[IRStmt]) -> None:
        for stmt in stmts:
            self.render_stmt(stmt)

    def render_stmt(self, stmt: IRStmt) -> None:
        emitter = self.emitter
        if isinstance(stmt, Block):
            for comment in stmt.comments:
                emitter.line(f"# {comment}")
            self.render_body(stmt.stmts)
            return
        if isinstance(stmt, Assign):
            emitter.line(f"{stmt.name} = {self.expr(stmt.value)}")
            return
        if isinstance(stmt, Accum):
            emitter.line(f"{stmt.name} += {self.expr(stmt.value)}")
            return
        if isinstance(stmt, IfCond):
            emitter.line(f"if {self.cond(stmt.cond)}:")
            with emitter.block():
                self.render_body(stmt.body)
            return
        if isinstance(stmt, ForEachMap):
            self._render_map_loop(stmt)
            return
        if isinstance(stmt, ForEachRow):
            self._render_row_loop(stmt)
            return
        if isinstance(stmt, ForEachGroup):
            self._render_group_loop(stmt)
            return
        if isinstance(stmt, AddTo):
            self._render_add_to(stmt)
            return
        if isinstance(stmt, AppendTo):
            key = self._key_code([self.expr(k) for k in stmt.keys])
            emitter.line(
                f"{stmt.buffer}.append(({key}, {self.expr(stmt.value)}))"
            )
            return
        if isinstance(stmt, BufferDecl):
            emitter.line(f"{stmt.name} = []")
            return
        if isinstance(stmt, FlushBuffer):
            emitter.line(f"for __key, __val in {stmt.name}:")
            with emitter.block():
                self._emit_apply(
                    target=stmt.target.name,
                    key_code="__key",
                    val_code="__val",
                    key_parts=None,
                    caches=stmt.caches,
                )
            return
        if isinstance(stmt, LocalMapDecl):
            emitter.line(f"{stmt.name} = {{}}")
            return
        if isinstance(stmt, MergeInto):
            self._render_merge(stmt)
            return
        if isinstance(stmt, Clear):
            emitter.line(f"{map_local(stmt.target.name)}.clear()")
            # A cleared map's secondary indexes are cleared with it (the
            # recompute that follows re-populates both through _apply).
            for pattern in sorted(self.indexes.get(stmt.target.name, ())):
                emitter.line(f"{index_name(stmt.target.name, pattern)}.clear()")
            if stmt.target.name in self.ordered:
                emitter.line(f"{ordered_name(stmt.target.name)}.clear()")
            return
        if isinstance(stmt, Finalize):
            self._render_finalize(stmt)
            return
        raise CodegenError(f"cannot render IR statement {stmt!r}")

    def _render_finalize(self, stmt: Finalize) -> None:
        """Rebuild a min/max/distinct cache from its occurrence source
        (caches are plain dicts per the storage plan)."""
        emitter = self.emitter
        target = map_local(stmt.target.name)
        ga = stmt.group_arity
        emitter.line(f"{target}.clear()")
        emitter.line(f"for __key, __val in {map_local(stmt.source.name)}.items():")
        with emitter.block():
            emitter.line("if __val == 0:")
            with emitter.block():
                emitter.line("continue")
            emitter.line(f"__g = __key[:{ga}]")
            if stmt.kind == "distinct":
                emitter.line(f"{target}[__g] = {target}.get(__g, 0) + 1")
            else:
                op = "<" if stmt.kind == "min" else ">"
                emitter.line(f"__v = __key[{ga}]")
                emitter.line(f"__cur = {target}.get(__g)")
                emitter.line(f"if __cur is None or __v {op} __cur:")
                with emitter.block():
                    emitter.line(f"{target}[__g] = __v")

    def _emit_crossing(
        self,
        source: str,
        key_code: str,
        key_parts: Optional[list[str]],
        cache: Cache,
        entered: bool,
        key_locals: dict[tuple[int, ...], str],
    ) -> None:
        """Update ``cache`` for a key that just entered (or left) the
        occurrence map ``source``: a value may become its group's
        extremum, a distinct count steps.  A leaving extremum's
        replacement is the first (MIN) or last (MAX) value of the group's
        ordered key list when ``source`` keeps one (its crossing branch
        has already moved the list, see :meth:`_emit_crossings`), else a
        rescan of the group (through the group-prefix index when there is
        one)."""
        emitter = self.emitter
        ga = cache.group_arity
        aux = map_local(cache.slot.name)
        group = self._prefix_code(ga, key_code, key_parts, key_locals)
        if cache.kind == "distinct":
            if entered:
                emitter.line(f"{aux}[{group}] = {aux}.get({group}, 0) + 1")
                return
            count = emitter.fresh("o")
            emitter.line(f"{count} = {aux}.get({group}, 0) - 1")
            emitter.line(f"if {count} == 0:")
            with emitter.block():
                emitter.line(f"{aux}.pop({group}, None)")
            emitter.line("else:")
            with emitter.block():
                emitter.line(f"{aux}[{group}] = {count}")
            return
        op = "<" if cache.kind == "min" else ">"
        if key_parts is not None:
            value = key_parts[ga]
        else:
            value = emitter.fresh("u")
            emitter.line(f"{value} = {key_code}[{ga}]")
        best = emitter.fresh("o")
        if entered:
            emitter.line(f"{best} = {aux}.get({group})")
            emitter.line(f"if {best} is None or {value} {op} {best}:")
            with emitter.block():
                emitter.line(f"{aux}[{group}] = {value}")
            return
        emitter.line(f"if {aux}.get({group}) == {value}:")
        with emitter.block():
            if self.ordered.get(source) == ga + 1:
                values = self._ordered_list(source, group)
                emitter.line(f"if {values}:")
                with emitter.block():
                    end = 0 if cache.kind == "min" else -1
                    emitter.line(f"{aux}[{group}] = {values}[{end}]")
                emitter.line("else:")
                with emitter.block():
                    emitter.line(f"{aux}.pop({group}, None)")
                return
            emitter.line(f"{best} = None")
            member, candidate = emitter.fresh("q"), emitter.fresh("w")
            prefix = tuple(range(ga))
            indexed = ga and prefix in self.indexes.get(source, ())
            if indexed:
                bucket = f"{index_name(source, prefix)}.get({group}, _EMPTY)"
                emitter.line(f"for {member} in {bucket}:")
            else:
                emitter.line(f"for {member} in {map_local(source)}:")
            with emitter.block():
                if ga and not indexed:
                    emitter.line(f"if {member}[:{ga}] != {group}:")
                    with emitter.block():
                        emitter.line("continue")
                emitter.line(f"{candidate} = {member}[{ga}]")
                emitter.line(f"if {best} is None or {candidate} {op} {best}:")
                with emitter.block():
                    emitter.line(f"{best} = {candidate}")
            emitter.line(f"if {best} is None:")
            with emitter.block():
                emitter.line(f"{aux}.pop({group}, None)")
            emitter.line("else:")
            with emitter.block():
                emitter.line(f"{aux}[{group}] = {best}")

    def _prefix_code(
        self,
        width: int,
        key_code: str,
        key_parts: Optional[list[str]],
        key_locals: dict[tuple[int, ...], str],
    ) -> str:
        """The tuple of a key's first ``width`` positions: a local already
        holding it, else one built here and remembered in ``key_locals``
        for the statements after it."""
        if not width:
            return "()"
        prefix = tuple(range(width))
        if prefix not in key_locals:
            local = self.emitter.fresh("g")
            if key_parts is not None:
                self.emitter.line(f"{local} = {self._key_code(key_parts[:width])}")
            else:
                self.emitter.line(f"{local} = {key_code}[:{width}]")
            key_locals[prefix] = local
        return key_locals[prefix]

    def _emit_ordered_step(
        self,
        target: str,
        key_code: str,
        key_parts: Optional[list[str]],
        entered: bool,
        key_locals: dict[tuple[int, ...], str],
    ) -> None:
        """Insert a key that just entered ``target`` into its ordered key
        list, or remove one that just left (a group's list goes with its
        last key; a map keyed by one position has one list)."""
        emitter = self.emitter
        last = self.ordered[target] - 1
        index = ordered_name(target)
        value = key_parts[last] if key_parts is not None else f"{key_code}[{last}]"
        if not last:
            if entered:
                emitter.line(f"_insort({index}, {value})")
            else:
                emitter.line(f"del {index}[_bisect_left({index}, {value})]")
            return
        group = self._prefix_code(last, key_code, key_parts, key_locals)
        values = emitter.fresh("ol")
        if entered:
            emitter.line(f"{values} = {index}.get({group})")
            emitter.line(f"if {values} is None:")
            with emitter.block():
                emitter.line(f"{index}[{group}] = [{value}]")
            emitter.line("else:")
            with emitter.block():
                emitter.line(f"_insort({values}, {value})")
            return
        emitter.line(f"{values} = {index}[{group}]")
        emitter.line(f"if len({values}) == 1:")
        with emitter.block():
            emitter.line(f"del {index}[{group}]")
        emitter.line("else:")
        with emitter.block():
            emitter.line(f"del {values}[_bisect_left({values}, {value})]")

    def _ordered_list(self, target: str, group: str) -> str:
        """A name holding ``group``'s ordered key list of ``target`` (the
        index itself for a map keyed by one position; an empty tuple for
        a group with no key)."""
        index = ordered_name(target)
        if self.ordered[target] == 1:
            return index
        values = self.emitter.fresh("ol")
        self.emitter.line(f"{values} = {index}.get({group}, ())")
        return values

    def _render_row_loop(self, stmt: ForEachRow) -> None:
        """The columnar batch loop: iterate only the columns the body reads.

        ``stmt.rows_var`` holds the batch's parallel column lists (one per
        event parameter, equal lengths), ``WEIGHTS`` its weight column.
        Parameters the body never references are pruned from the loop
        header, so a trigger touching two of five event columns walks
        exactly two lists.
        """
        self._row_header(stmt.rows_var, stmt.params, used_names(stmt.body))
        with self.emitter.block():
            self.render_body(stmt.body)

    def _row_header(self, rows_var: str, params, used) -> None:
        """The header of a loop over a columnar batch's rows, binding the
        ``params`` in ``used`` (the weight first, then event columns)."""
        emitter = self.emitter
        sources = [WEIGHTS] + [
            f"{rows_var}[{position}]" for position in range(len(params) - 1)
        ]
        pairs = [
            (source, param) for source, param in zip(sources, params) if param in used
        ]
        if not pairs:
            emitter.line(f"for _ in {WEIGHTS}:")
        elif len(pairs) == 1:
            source, param = pairs[0]
            emitter.line(f"for {param} in {source}:")
        else:
            names = ", ".join(param for _, param in pairs)
            columns = ", ".join(source for source, _ in pairs)
            emitter.line(f"for {names} in zip({columns}):")

    def _render_group_loop(self, stmt: ForEachGroup) -> None:
        """Batch pre-aggregation: the fold (:meth:`render_fold`), then the
        body per entry.  An empty group sums into locals, and the body
        follows once.  A routed loop does not fold: it reads the pairs
        its function is given (see :func:`_generate_trigger`) and sums
        their row counts, each entry's last item, into ``__rows``, which
        the function returns."""
        emitter = self.emitter
        if not stmt.group:
            self.render_fold(stmt)
            self.render_body(stmt.body)
            return
        (key,) = stmt.group  # ``plan_preaggregation`` keys on one column at most
        if stmt.routed:
            emitter.line("__rows = 0")
            emitter.line(f"for {key}, ({', '.join(stmt.sums)}, __n) in {GROUPS}:")
            with emitter.block():
                emitter.line("__rows += __n")
                self.render_body(stmt.body)
            return
        self.render_fold(stmt)
        held = stmt.sums[0] if len(stmt.sums) == 1 else f"({', '.join(stmt.sums)})"
        emitter.line(f"for {key}, {held} in {GROUPS}.items():")
        with emitter.block():
            self.render_body(stmt.body)

    def render_fold(self, stmt: ForEachGroup) -> None:
        """One pass over the rows (the columns the group and the sums
        read) sums each value into its group's entry in :data:`GROUPS`
        — the sum itself for one sum, a list of them for several, a
        routed fold's with its row count last — or, for an empty group,
        into the sums' locals."""
        emitter = self.emitter
        used = set(stmt.group).union(*map(expr_names, stmt.values))
        values = [self.expr(value) for value in stmt.values]
        if not stmt.group:
            for name in stmt.sums:
                emitter.line(f"{name} = 0")
            self._row_header(stmt.rows_var, stmt.params, used)
            with emitter.block():
                for name, value in zip(stmt.sums, values):
                    emitter.line(f"{name} += {value}")
            return
        (key,) = stmt.group
        if stmt.routed:
            values.append("1")
        emitter.line(f"{GROUPS} = {{}}")  # one fold per batch body, at its top level
        self._row_header(stmt.rows_var, stmt.params, used)
        with emitter.block():
            if len(values) == 1:
                emitter.line(f"{GROUPS}[{key}] = {GROUPS}.get({key}, 0) + {values[0]}")
            else:
                sums = "__group"
                emitter.line(f"{sums} = {GROUPS}.get({key})")
                emitter.line(f"if {sums} is None:")
                with emitter.block():
                    emitter.line(f"{GROUPS}[{key}] = [{', '.join(values)}]")
                emitter.line("else:")
                with emitter.block():
                    for position, value in enumerate(values):
                        emitter.line(f"{sums}[{position}] += {value}")

    def _render_map_loop(self, stmt: ForEachMap) -> None:
        emitter = self.emitter
        key_var = stmt.entry_var
        val_var = stmt.value_var
        source = map_local(stmt.slot.name)
        use_index = _loop_uses_index(stmt, self.indexes)
        if stmt.slot.name in self.native_maps and _loop_fuses(
            stmt, self.indexes
        ):
            # Full scan that never materialises the key tuple: fuse it
            # over the storage's column arrays (one native snapshot call
            # per column under the C kernel, zero-copy zip once ejected).
            self._render_native_scan(stmt, source)
            return
        threshold = threshold_scan(
            stmt, self.trigger_body, self.int_value_maps, self.ordered
        )
        if threshold is not None:
            self._render_threshold_scan(stmt, *threshold)
            return
        if use_index:
            # Probe the secondary index: only matching entries are touched.
            subkey = stmt.key_local or self._key_code(
                [self.expr(expr) for _, expr in sorted(stmt.filters)]
            )
            idx = index_name(stmt.slot.name, stmt.pattern)
            emitter.line(
                f"for {key_var}, {val_var} in {idx}.get({subkey}, _EMPTY).items():"
            )
            remaining: list[tuple[int, IRExpr]] = []
        else:
            emitter.line(f"for {key_var}, {val_var} in {source}.items():")
            remaining = list(stmt.filters)
        with emitter.block():
            conditions = [
                f"{key_var}[{pos}] == {self._filter_code(expr, key_var)}"
                for pos, expr in remaining
            ]
            if conditions:
                emitter.line(f"if not ({' and '.join(conditions)}): continue")
            for pos, name in stmt.binds:
                emitter.line(f"{name} = {key_var}[{pos}]")
            self.render_body(stmt.body)

    def _render_threshold_scan(
        self, stmt: ForEachMap, key: str, op: str, bound: IRExpr
    ) -> None:
        """A threshold scan (:func:`threshold_scan`): walk the bisected
        slice of the group's ordered key list, looking each entry up.

        The slice holds exactly the keys passing ``key OP bound`` — the
        test stays in the loop for a NaN bound, which ``bisect`` cannot
        place."""
        emitter = self.emitter
        name = stmt.slot.name
        prefix = [self.expr(expr) for _, expr in sorted(stmt.filters)]
        limit = self.expr(bound)
        if not isinstance(bound, (Name, Const)):
            temp = emitter.fresh("t")
            emitter.line(f"{temp} = {limit}")
            limit = temp
        values = self._ordered_list(name, stmt.key_local or self._key_code(prefix))
        bisect, after = _SLICES[op]
        cut = f"{bisect}({values}, {limit})"
        emitter.line(
            f"for {key} in {values}[{cut}:]:" if after
            else f"for {key} in {values}[:{cut}]:"
        )
        with emitter.block():
            entry = self._key_code(prefix + [key])
            used = used_names(stmt.body)
            if stmt.entry_var in used:
                emitter.line(f"{stmt.entry_var} = {entry}")
                entry = stmt.entry_var
            if stmt.value_var in used:
                emitter.line(f"{stmt.value_var} = {map_local(name)}[{entry}]")
            for _, alias in stmt.binds:
                if alias != key:
                    emitter.line(f"{alias} = {key}")
            emitter.line(f"if {key} {_CMP_PY[op]} {limit}:")
            with emitter.block():
                self.render_body(stmt.body[0].body)

    def _filter_code(self, expr: IRExpr, key_var: str) -> str:
        if isinstance(expr, KeyAt):
            return f"{key_var}[{expr.pos}]"
        return self.expr(expr)

    def _render_native_scan(self, stmt: ForEachMap, source: str) -> None:
        """Render a native map's full scan as a fused column traversal.

        Restate-shaped loops — per-entry delta is a product of the entry
        value, bound key parts and integer constants, guarded by
        loop-invariant comparisons, appended to scalar pending buffers —
        collapse into one ``reduce_scalar`` kernel call (the whole loop
        runs in C; ``None`` means the kernel declined — not attached,
        overflow risk, boxed columns — and the column-zip loop runs
        instead).  Everything else renders as the column zip alone.
        """
        emitter = self.emitter
        reduced = self._match_scalar_reduce(stmt)
        if reduced is not None:
            mulpos, preds, cmul, sinks = reduced
            result = emitter.fresh("r")
            mul_code = (
                "(" + ", ".join(str(pos) for pos in mulpos)
                + ("," if len(mulpos) == 1 else "") + ")"
            )
            pred_parts = [
                f"({pos}, {opcode}, {self.expr(rhs)})"
                for pos, opcode, rhs in preds
            ]
            pred_code = (
                "(" + ", ".join(pred_parts)
                + ("," if len(pred_parts) == 1 else "") + ")"
            )
            emitter.line(
                f"{result} = {source}.reduce_scalar"
                f"({mul_code}, {pred_code}, {cmul})"
            )
            emitter.line(f"if {result} is None:")
            with emitter.block():
                self._render_column_zip(stmt, source)
            emitter.line(f"elif {result} != 0:")
            with emitter.block():
                for kind, sink in sinks:
                    if kind == "append":
                        emitter.line(f"{sink}.append(((), {result}))")
                    elif kind == "accum":
                        emitter.line(f"{sink} += {result}")
                    else:
                        self._emit_apply(
                            target=sink,
                            key_code="()",
                            val_code=result,
                            key_parts=[],
                        )
            return
        self._render_column_zip(stmt, source)

    def _match_scalar_reduce(self, stmt: ForEachMap):
        """Match the restate-reduction loop shape, or return ``None``.

        Shape: optional loop-invariant comparison guards wrapping either
        one or more ``acc += Prod(value × bound keys × int consts)`` of
        the same product (a correlated existence/aggregate accumulation,
        a per-event loop sum) or one or more pairs of
        ``Assign(d, Prod(...))`` (the same product in each — what fusing
        statements with one right-hand side leaves) followed by
        ``if d != 0`` sinking ``d`` under the empty key —
        appended to pending buffers (per-event triggers) or applied
        directly (second-order batch restates).  Exactness gate: the
        scanned map and every sink target must be proven always-int, so
        one C int64 sum (with overflow bail-out) is bit-identical to the
        per-entry Python delta stream.
        """
        if stmt.slot.name not in self.int_value_maps:
            return None
        if any(isinstance(expr, KeyAt) for _, expr in stmt.filters):
            return None
        bound = {name: pos for pos, name in stmt.binds}
        loop_names = set(bound) | {stmt.value_var, stmt.entry_var}
        preds: list[tuple[int, int, IRExpr]] = []
        for pos, expr in stmt.filters:
            if expr_names(expr) & loop_names:
                return None
            preds.append((pos, _REDUCE_OPS["="], expr))
        body = stmt.body
        while len(body) == 1 and isinstance(body[0], IfCond):
            cond = body[0].cond
            if not isinstance(cond, Compare) or cond.op not in _REDUCE_OPS:
                return None
            op, left, right = cond.op, cond.left, cond.right
            if isinstance(left, Name) and left.name in bound:
                var, rhs = left, right
            elif isinstance(right, Name) and right.name in bound:
                var, rhs = right, left
                op = _FLIP_OPS[op]
            else:
                return None
            if expr_names(rhs) & loop_names:
                return None
            preds.append((bound[var.name], _REDUCE_OPS[op], rhs))
            body = body[0].body
        sinks: list[tuple[str, str]] = []
        if body and all(isinstance(stmt, Accum) for stmt in body):
            # Accumulators summing the same product (fused statements)
            # share one reduction.
            delta_expr = body[0].value
            if any(stmt.value != delta_expr for stmt in body):
                return None
            sinks += [("accum", stmt.name) for stmt in body]
        elif body and len(body) % 2 == 0:
            # Fused statements each keep their own (delta, guard) pair;
            # pairs computing the same product share one reduction.
            delta_expr = getattr(body[0], "value", None)
            for assign, guard in zip(body[::2], body[1::2]):
                pair_sinks = self._guarded_sinks(assign, guard)
                if pair_sinks is None or assign.value != delta_expr:
                    return None
                sinks += pair_sinks
        else:
            return None
        if not sinks:
            return None
        factors = (
            delta_expr.factors
            if isinstance(delta_expr, Prod)
            else (delta_expr,)
        )
        mulpos: list[int] = []
        cmul = 1
        value_seen = False
        for factor in factors:
            if isinstance(factor, Name) and factor.name == stmt.value_var:
                if value_seen:
                    return None
                value_seen = True
            elif isinstance(factor, Name) and factor.name in bound:
                mulpos.append(bound[factor.name])
            elif isinstance(factor, Const) and type(factor.value) is int:
                cmul *= factor.value
            else:
                return None
        if not value_seen:
            return None
        return tuple(mulpos), preds, cmul, sinks

    def _guarded_sinks(self, assign: IRStmt, guard: IRStmt):
        """The sinks of one ``d := ...; if d != 0: <sinks of d under the
        empty key>`` pair, or ``None`` when the pair is not that shape or
        a sink target lacks the exact-integer proof."""
        if not isinstance(assign, Assign) or not isinstance(guard, IfCond):
            return None
        gc = guard.cond
        if not (isinstance(gc, Compare) and gc.op == "!="):
            return None
        if isinstance(gc.left, Name) and gc.left.name == assign.name:
            zero = gc.right
        elif isinstance(gc.right, Name) and gc.right.name == assign.name:
            zero = gc.left
        else:
            return None
        if not (isinstance(zero, Const) and zero.value == 0):
            return None
        sinks: list[tuple[str, str]] = []
        for sink in guard.body:
            value = getattr(sink, "value", None)
            if not (isinstance(value, Name) and value.name == assign.name):
                return None
            if isinstance(sink, AppendTo):
                if sink.keys or sink.target.name not in self.int_value_maps:
                    return None
                sinks.append(("append", sink.buffer))
            elif isinstance(sink, AddTo):
                if sink.keys or sink.acc:
                    return None
                if sink.slot.name not in self.int_value_maps:
                    return None
                sinks.append(("apply", sink.slot.name))
            else:
                return None
        return sinks

    def _render_column_zip(self, stmt: ForEachMap, source: str) -> None:
        """``for kp_i, ..., val in zip(*m.scan_columns((...,))):``

        Only the key positions the loop actually reads (binds, filters,
        key-equality tests) are scanned; each bound position's column
        value lands directly in its bind name, so the per-entry work is
        one C-level zip step instead of tuple building plus indexing.
        """
        emitter = self.emitter
        positions: set[int] = {pos for pos, _ in stmt.binds}
        positions.update(pos for pos, _ in stmt.filters)
        positions.update(
            expr.pos
            for _, expr in stmt.filters
            if isinstance(expr, KeyAt)
        )
        ordered = sorted(positions)
        var_of: dict[int, str] = {}
        aliases: list[tuple[str, str]] = []
        for pos, name in stmt.binds:
            if pos in var_of:
                aliases.append((name, var_of[pos]))
            else:
                var_of[pos] = name
        for pos in ordered:
            if pos not in var_of:
                var_of[pos] = emitter.fresh("kp")
        cols = emitter.fresh("s")
        pos_code = (
            "(" + ", ".join(str(pos) for pos in ordered)
            + ("," if len(ordered) == 1 else "") + ")"
        )
        emitter.line(f"{cols} = {source}.scan_columns({pos_code})")
        if not ordered:
            emitter.line(f"for {stmt.value_var} in {cols}[0]:")
        else:
            names = ", ".join(
                [var_of[pos] for pos in ordered] + [stmt.value_var]
            )
            seqs = ", ".join(
                f"{cols}[{i}]" for i in range(len(ordered) + 1)
            )
            emitter.line(f"for {names} in zip({seqs}):")
        with emitter.block():
            conditions = []
            for pos, expr in stmt.filters:
                if isinstance(expr, KeyAt):
                    code = var_of[expr.pos]
                else:
                    code = self.expr(expr)
                conditions.append(f"{var_of[pos]} == {code}")
            if conditions:
                emitter.line(f"if not ({' and '.join(conditions)}): continue")
            for name, primary in aliases:
                emitter.line(f"{name} = {primary}")
            self.render_body(stmt.body)

    def _render_add_to(self, stmt: AddTo) -> None:
        key_parts = [self.expr(k) for k in stmt.keys]
        key_locals = dict(stmt.key_locals)
        key = key_locals.pop(tuple(range(len(key_parts))), "")
        value = self.expr(stmt.value)
        if stmt.acc:
            self._render_staged_add(stmt, key, key_parts, value)
            return
        self._emit_apply(
            target=stmt.slot.name,
            key_code=key or self._key_code(key_parts),
            val_code=value,
            key_parts=key_parts,
            caches=stmt.caches,
            key_locals=key_locals,
        )

    def _render_staged_add(
        self, stmt: AddTo, key_var: str, key_parts: list[str], value: str
    ) -> None:
        """A write staged in ``acc`` (its current value is the staged one,
        else the map's); a key reaching zero takes ``_unstage``.  Its key
        is read from ``key_var``, built here when that is empty."""
        emitter = self.emitter
        local = map_local(stmt.slot.name)
        cur = emitter.fresh("sv")
        if not key_var:
            key_var = emitter.fresh("sk")
            emitter.line(f"{key_var} = {self._key_code(key_parts)}")
        emitter.line(
            f"{cur} = ({stmt.acc}.get({key_var}) or {local}.get({key_var}, 0))"
            f" + {value}"
        )
        emitter.line(f"if {cur}:")
        with emitter.block():
            emitter.line(f"{stmt.acc}[{key_var}] = {cur}")
        emitter.line("else:")
        with emitter.block():
            indexes = "".join(
                f"({index_name(stmt.slot.name, pattern)}, {pattern!r}), "
                for pattern in sorted(self.indexes.get(stmt.slot.name, ()))
            )
            ordered = (
                f", {ordered_name(stmt.slot.name)}"
                if stmt.slot.name in self.ordered else ""
            )
            emitter.line(
                f"_unstage({local}, {stmt.acc}, {key_var}, ({indexes}){ordered})"
            )

    def _render_merge(self, stmt: MergeInto) -> None:
        """Store every staged value into the target (and, key by key,
        into its indexes: a key new to the target enters its ordered key
        list)."""
        emitter = self.emitter
        target = stmt.target.name
        patterns = sorted(self.indexes.get(target, ()))
        if not patterns and target not in self.ordered:
            emitter.line(f"{map_local(target)}.update({stmt.acc})")
            return
        emitter.line(f"for __key, __val in {stmt.acc}.items():")
        with emitter.block():
            if target in self.ordered:
                emitter.line(f"if __key not in {map_local(target)}:")
                with emitter.block():
                    self._emit_ordered_step(target, "__key", None, True, {})
            emitter.line(f"{map_local(target)}[__key] = __val")
            for pattern in patterns:
                subkey = "(" + "".join(f"__key[{p}], " for p in pattern) + ")"
                emitter.line(
                    f"{index_name(target, pattern)}.setdefault({subkey}, {{}})"
                    "[__key] = __val"
                )

    def _emit_apply(
        self,
        target: str,
        key_code: str,
        val_code: str,
        key_parts: Optional[list[str]],
        caches: tuple[Cache, ...] = (),
        key_locals: Optional[dict[tuple[int, ...], str]] = None,
    ) -> None:
        """``target[key] += val`` with zero eviction and index maintenance;
        a write keeping ``caches`` or an ordered key index keeps the
        pre-value, and a key crossing zero updates them
        (:meth:`_emit_crossings`).  ``key_locals`` hold the subkeys and
        group keys already built, by key positions."""
        emitter = self.emitter
        local = map_local(target)
        patterns = sorted(self.indexes.get(target, ()))
        cur = emitter.fresh("c")
        if caches or target in self.ordered:
            pre = emitter.fresh("p")
            emitter.line(f"{pre} = {local}.get({key_code}, 0)")
            emitter.line(f"{cur} = {pre} + {val_code}")
            self._emit_index_maintenance(
                target, key_code, key_parts, patterns, cur, map_updated=False,
                crossing=(pre, caches), key_locals=key_locals,
            )
            return
        if target in self.columnar_maps:
            # Columnar storage: one probe does lookup, add and eviction.
            if not patterns:
                emitter.line(f"{local}.add({key_code}, {val_code})")
                return
            emitter.line(f"{cur} = {local}.add({key_code}, {val_code})")
            self._emit_index_maintenance(
                target, key_code, key_parts, patterns, cur,
                map_updated=True, key_locals=key_locals,
            )
            return
        emitter.line(f"{cur} = {local}.get({key_code}, 0) + {val_code}")
        self._emit_index_maintenance(
            target, key_code, key_parts, patterns, cur, map_updated=False,
            key_locals=key_locals,
        )

    def _emit_index_maintenance(
        self,
        target: str,
        key_code: str,
        key_parts: Optional[list[str]],
        patterns: list[tuple[int, ...]],
        cur: str,
        map_updated: bool,
        crossing: Optional[tuple[str, tuple[Cache, ...]]] = None,
        key_locals: Optional[dict[tuple[int, ...], str]] = None,
    ) -> None:
        """The evict-or-store branch over ``cur`` (the new ring value).

        With ``map_updated`` the map write already happened (the columnar
        ``add()`` path) and only the secondary indexes need maintaining —
        callers only take that path when the map has index patterns, so
        the emitted branches are never empty.  ``crossing`` is the
        pre-value's name and the caches a key crossing zero updates, last
        in each branch (after the indexes a rescan may probe).
        """
        assert patterns or not map_updated
        emitter = self.emitter
        local = map_local(target)
        key_locals = key_locals or {}

        def subkey_code(pattern: tuple[int, ...]) -> str:
            if pattern in key_locals:
                return key_locals[pattern]
            if key_parts is not None:
                parts = [key_parts[p] for p in pattern]
            else:
                parts = [f"{key_code}[{p}]" for p in pattern]
            if len(parts) == 1:
                return f"({parts[0]},)"
            return "(" + ", ".join(parts) + ")"

        emitter.line(f"if {cur} == 0:")
        with emitter.block():
            if not map_updated:
                emitter.line(f"{local}.pop({key_code}, None)")
            for pattern in patterns:
                idx = index_name(target, pattern)
                bucket = emitter.fresh("bk")
                emitter.line(f"{bucket} = {idx}.get({subkey_code(pattern)})")
                emitter.line(f"if {bucket} is not None:")
                with emitter.block():
                    emitter.line(f"{bucket}.pop({key_code}, None)")
                    emitter.line(f"if not {bucket}:")
                    with emitter.block():
                        emitter.line(f"{idx}.pop({subkey_code(pattern)}, None)")
            if crossing is not None:
                self._emit_crossings(
                    target, key_code, key_parts, crossing, False, key_locals
                )
        emitter.line("else:")
        with emitter.block():
            if not map_updated:
                emitter.line(f"{local}[{key_code}] = {cur}")
            for pattern in patterns:
                idx = index_name(target, pattern)
                emitter.line(
                    f"{idx}.setdefault({subkey_code(pattern)}, {{}})"
                    f"[{key_code}] = {cur}"
                )
            if crossing is not None:
                self._emit_crossings(
                    target, key_code, key_parts, crossing, True, key_locals
                )

    def _emit_crossings(
        self,
        target: str,
        key_code: str,
        key_parts: Optional[list[str]],
        crossing: tuple[str, tuple[Cache, ...]],
        entered: bool,
        key_locals: dict[tuple[int, ...], str],
    ) -> None:
        """``if`` the pre-value says the key crossed zero — it entered
        when it was zero, left when it was not — move it in the target's
        ordered key list, then update every cache (a leaving extremum
        reads the list).  These branches are the only place a key enters
        or leaves a map written one key at a time."""
        pre, caches = crossing
        key_locals = dict(key_locals)  # a group key built here serves all
        self.emitter.line(f"if {pre} {'==' if entered else '!='} 0:")
        with self.emitter.block():
            if target in self.ordered:
                self._emit_ordered_step(
                    target, key_code, key_parts, entered, key_locals
                )
            for cache in caches:
                self._emit_crossing(
                    target, key_code, key_parts, cache, entered, key_locals
                )

    @staticmethod
    def _key_code(parts: list[str]) -> str:
        if not parts:
            return "()"
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"

    # -- expressions -------------------------------------------------------

    def cond(self, expr: IRExpr) -> str:
        """Render an expression in boolean (guard) position."""
        if isinstance(expr, Compare):
            return (
                f"{self.expr(expr.left)} {_CMP_PY[expr.op]} "
                f"{self.expr(expr.right)}"
            )
        return self.expr(expr)

    def expr(self, expr: IRExpr) -> str:
        if isinstance(expr, Const):
            return _literal(expr.value)
        if isinstance(expr, Name):
            return expr.name
        if isinstance(expr, Neg):
            return f"(-{self.expr(expr.body)})"
        if isinstance(expr, Sum):
            return "(" + " + ".join(self.expr(t) for t in expr.terms) + ")"
        if isinstance(expr, Prod):
            return " * ".join(self._factor(f) for f in expr.factors)
        if isinstance(expr, SafeDiv):
            self.emitter.divides = True
            return f"_div({self.expr(expr.left)}, {self.expr(expr.right)})"
        if isinstance(expr, Compare):
            return (
                f"(1 if {self.expr(expr.left)} {_CMP_PY[expr.op]} "
                f"{self.expr(expr.right)} else 0)"
            )
        if isinstance(expr, Lookup):
            key = expr.key_local or self._key_code([self.expr(k) for k in expr.keys])
            storage = map_local(expr.slot.name)
            return f"{storage}.get({key}, {_literal(expr.default)})"
        if isinstance(expr, KeyTuple):
            return self._key_code([self.expr(item) for item in expr.items])
        raise CodegenError(f"unsupported IR expression {expr!r}")

    def _factor(self, expr: IRExpr) -> str:
        code = self.expr(expr)
        if isinstance(expr, Prod):
            return f"({code})"
        return code


class CompiledExecutor:
    """The generated trigger module of one program under one set of
    options: rendered and ``compile()``d once, bound per engine.

    Everything here is immutable after construction, so one executor is
    shared by every lane, copy and forked worker of an engine; what is
    per-engine — the maps, the secondary indexes over them, the trigger
    functions closed over both — is made by :meth:`bind`.
    """

    mode = "compiled"
    native_active = False
    native_note: Optional[str] = None

    def __init__(
        self,
        program: CompiledProgram,
        options: ExecutorOptions = ExecutorOptions(),
        layout: Optional[StorageLayout] = None,
    ):
        """``layout`` is the storage layout the triggers are rendered for
        and the bound maps must follow — engines build their maps from
        ``executor.layout.create_maps()``.  It defaults to the compiled
        lane's layout (all dicts); the native lane passes its own."""
        self.program = program
        self.options = options
        self.layout = (
            layout if layout is not None else storage_layout(program, self.mode)
        )
        self._ordered = ordered_maps(program, options, self.layout)
        self._index_patterns = collect_patterns(program, options, self._ordered)
        self.source = generate_module(
            program,
            use_indexes=options.use_indexes,
            optimize=options.optimize,
            layout=self.layout,
            native_note=self.native_note,
        )

    @cached_property
    def _code(self):
        """The module's code object — compiled by the first :meth:`bind`
        (inside the span the ledger times as ``codegen.exec``), kept for
        every later one."""
        return compile(self.source, "<repro-generated-triggers>", "exec")

    def bind(self, maps: dict) -> TriggerTable:
        """Exec the generated module against one engine's map storage.

        Secondary indexes are built from the current map contents, so
        binding a snapshot (a deep copy, a restored engine) is consistent.
        """
        patterns, ordered = self._index_patterns, self._ordered
        indexes: dict[str, dict] = {
            index_name(map_name, pattern): {}
            for map_name, map_patterns in patterns.items()
            for pattern in map_patterns
        }
        indexes.update(
            (ordered_name(map_name), [] if arity == 1 else {})
            for map_name, arity in ordered.items()
        )
        namespace: dict = {
            "MAPS": maps, "INDEXES": indexes, "_EMPTY": {}, "_unstage": unstage,
            "_insort": insort, "_bisect_left": bisect_left,
            "_bisect_right": bisect_right,
        }
        exec(self._code, namespace)  # noqa: S102 - this is the compiler back end
        rebuild = namespace.get("_rebuild_indexes")
        if rebuild is not None:
            rebuild()

        def index_entry_counts() -> dict[str, int]:
            counts = {
                map_name: sum(
                    len(bucket)
                    for pattern in map_patterns
                    for bucket in indexes[index_name(map_name, pattern)].values()
                )
                for map_name, map_patterns in patterns.items()
            }
            for map_name, arity in ordered.items():
                held = indexes[ordered_name(map_name)]
                held = len(held) if arity == 1 else sum(map(len, held.values()))
                counts[map_name] = counts.get(map_name, 0) + held
            return counts

        triggers = self.program.triggers
        routed = [key for key, t in triggers.items() if f"{t.name}_fold" in namespace]
        return TriggerTable(
            {key: namespace[t.name] for key, t in triggers.items()},
            {key: namespace[f"{t.name}_batch"] for key, t in triggers.items()},
            index_entry_counts,
            {key: namespace[f"{triggers[key].name}_fold"] for key in routed},
            {key: namespace[f"{triggers[key].name}_groups"] for key in routed},
        )
