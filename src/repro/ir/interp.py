"""Direct interpretation of the trigger IR.

The interpreted engine mode walks the same lowered (and optimised) IR the
code generators render, instead of re-deriving loops from the calculus
per event.  It deliberately stays a tree-walker — every event re-traverses
the IR nodes — so the compiled-vs-interpreted ablation still isolates
exactly what code generation removes.

``run_trigger`` executes one trigger body against the engine's maps;
``collect`` mode additionally records every map update a block performed
(the debugger's statement trace).  :class:`InterpretedExecutor` is the
executor protocol over them (``mode="interpreted"``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import add
from typing import Optional

from repro.errors import CodegenError
from repro.compiler.program import (
    CompiledProgram,
    ExecutorOptions,
    TriggerTable,
)
from repro.compiler.storage import storage_layout
from repro.ir.lower import lower_for
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
    compare_values,
    routed_group,
)


def _eval(expr: IRExpr, env: dict, maps: dict, entry: Optional[tuple]) -> object:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Name):
        return env[expr.name]
    if isinstance(expr, Prod):
        value = _eval(expr.factors[0], env, maps, entry)
        for factor in expr.factors[1:]:
            value = value * _eval(factor, env, maps, entry)
        return value
    if isinstance(expr, Sum):
        value = _eval(expr.terms[0], env, maps, entry)
        for term in expr.terms[1:]:
            value = value + _eval(term, env, maps, entry)
        return value
    if isinstance(expr, Lookup):
        storage = maps[expr.slot.name]
        key = tuple(_eval(k, env, maps, entry) for k in expr.keys)
        return storage.get(key, expr.default)
    if isinstance(expr, Compare):
        left = _eval(expr.left, env, maps, entry)
        right = _eval(expr.right, env, maps, entry)
        return 1 if compare_values(expr.op, left, right) else 0
    if isinstance(expr, Neg):
        return -_eval(expr.body, env, maps, entry)
    if isinstance(expr, SafeDiv):
        num = _eval(expr.left, env, maps, entry)
        den = _eval(expr.right, env, maps, entry)
        return 0 if den == 0 else num / den
    if isinstance(expr, KeyAt):
        return entry[expr.pos]
    if isinstance(expr, KeyTuple):
        return tuple(_eval(item, env, maps, entry) for item in expr.items)
    raise CodegenError(f"cannot interpret IR expression {expr!r}")


class _Recorder:
    """Per-block update collection for profiling and the debugger."""

    __slots__ = ("updates",)

    def __init__(self) -> None:
        self.updates: list[tuple[str, tuple, object]] = []

    def record(self, target: str, key: tuple, value: object) -> None:
        self.updates.append((target, key, value))


def run_stmts(
    stmts,
    env: dict,
    maps: dict,
    recorder: Optional[_Recorder] = None,
    entry: Optional[tuple] = None,
) -> None:
    for stmt in stmts:
        run_stmt(stmt, env, maps, recorder, entry)


def run_stmt(
    stmt: IRStmt,
    env: dict,
    maps: dict,
    recorder: Optional[_Recorder],
    entry: Optional[tuple] = None,
) -> None:
    if isinstance(stmt, Block):
        run_stmts(stmt.stmts, env, maps, recorder, entry)
        return
    if isinstance(stmt, Assign):
        env[stmt.name] = _eval(stmt.value, env, maps, entry)
        return
    if isinstance(stmt, Accum):
        env[stmt.name] = env[stmt.name] + _eval(stmt.value, env, maps, entry)
        return
    if isinstance(stmt, IfCond):
        if _eval(stmt.cond, env, maps, entry):
            run_stmts(stmt.body, env, maps, recorder, entry)
        return
    if isinstance(stmt, ForEachMap):
        storage = maps[stmt.slot.name]
        binds = stmt.binds
        value_var = stmt.value_var
        body = stmt.body
        filters = stmt.filters
        for key, value in storage.items():
            ok = True
            for pos, expr in filters:
                if key[pos] != _eval(expr, env, maps, key):
                    ok = False
                    break
            if not ok:
                continue
            for pos, name in binds:
                env[name] = key[pos]
            env[value_var] = value
            run_stmts(body, env, maps, recorder, key)
        return
    if isinstance(stmt, ForEachRow):
        params = stmt.params
        body = stmt.body
        for row in zip(env[WEIGHTS], *env[stmt.rows_var]):
            for name, value in zip(params, row):
                env[name] = value
            run_stmts(body, env, maps, recorder, entry)
        return
    if isinstance(stmt, ForEachGroup):
        if stmt.routed:  # its fold's pairs, keyed on the one value
            for key, sums in env[GROUPS]:
                env[stmt.group[0]] = key
                env.update(zip(stmt.sums, sums))
                env["__rows"] += sums[-1]  # see run_groups
                run_stmts(stmt.body, env, maps, recorder, entry)
            return
        for key, sums in _fold(stmt, env, maps, entry).items():
            env.update(zip(stmt.group, key))
            env.update(zip(stmt.sums, sums))
            run_stmts(stmt.body, env, maps, recorder, entry)
        return
    if isinstance(stmt, AddTo):
        storage = maps[stmt.slot.name]
        key = tuple(_eval(k, env, maps, entry) for k in stmt.keys)
        value = _eval(stmt.value, env, maps, entry)
        if stmt.acc:
            staged = env[stmt.acc]
            current = (staged.get(key) or storage.get(key, 0)) + value
            if current:
                staged[key] = current
            else:
                unstage(storage, staged, key)
            return
        _apply(storage, key, value, stmt.caches, maps)
        if recorder is not None:
            recorder.record(stmt.slot.name, key, value)
        return
    if isinstance(stmt, AppendTo):
        key = tuple(_eval(k, env, maps, entry) for k in stmt.keys)
        value = _eval(stmt.value, env, maps, entry)
        env[stmt.buffer].append((key, value))
        if recorder is not None:
            recorder.record(stmt.target.name, key, value)
        return
    if isinstance(stmt, BufferDecl):
        env[stmt.name] = []
        return
    if isinstance(stmt, FlushBuffer):
        storage = maps[stmt.target.name]
        for key, value in env[stmt.name]:
            _apply(storage, key, value, stmt.caches, maps)
        return
    if isinstance(stmt, LocalMapDecl):
        env[stmt.name] = {}
        return
    if isinstance(stmt, MergeInto):
        staged = env[stmt.acc]
        maps[stmt.target.name].update(staged)
        if recorder is not None:
            for key, value in staged.items():
                recorder.record(stmt.target.name, key, value)
        return
    if isinstance(stmt, Clear):
        maps[stmt.target.name].clear()
        return
    if isinstance(stmt, Finalize):
        run_finalize(
            maps[stmt.target.name],
            maps[stmt.source.name],
            stmt.kind,
            stmt.group_arity,
        )
        return
    raise CodegenError(f"cannot interpret IR statement {stmt!r}")


def _fold(stmt: ForEachGroup, env: dict, maps: dict, entry=None) -> dict:
    """The rows in ``env`` folded per group of ``stmt``: ``{group values:
    sums}``, or a routed fold's ``{group value: [sums..., rows]}``."""
    routed = stmt.routed
    groups = {(): [0] * len(stmt.sums)} if not stmt.group else {}
    for row in zip(env[WEIGHTS], *env[stmt.rows_var]):
        env.update(zip(stmt.params, row))
        values = [_eval(value, env, maps, entry) for value in stmt.values]
        if routed:
            values.append(1)
            key = env[stmt.group[0]]
        else:
            key = tuple(env[name] for name in stmt.group)
        sums = groups.setdefault(key, values)
        if sums is not values:
            sums[:] = map(add, sums, values)
    return groups


def _apply(storage, key, value, caches, maps: dict) -> None:
    """``storage[key] += value`` with zero eviction; when the key's
    multiplicity crosses zero, each of ``caches`` is updated."""
    pre = storage.get(key, 0)
    post = pre + value
    if post == 0:
        storage.pop(key, None)
    else:
        storage[key] = post
    if caches and (pre != 0) != (post != 0):
        for cache in caches:
            _cross(maps[cache.slot.name], storage, cache, key, post != 0)


def unstage(target, staged: dict, key, indexes=(), ordered=None) -> None:
    """A write staged in a batch accumulator (:class:`~repro.ir.nodes.AddTo`
    ``acc``) took ``key`` to zero: flush the accumulator into ``target``,
    its ``(index, key positions)`` pairs and its ``ordered`` key index
    (the sorted last key positions, per prefix of the others unless the
    key has one position; a key new to ``target`` enters it), then evict
    ``key`` from all of them.  Generated batch triggers call it too."""
    flat = type(ordered) is list
    for staged_key, value in staged.items():
        if ordered is not None and staged_key not in target:
            values = ordered if flat else ordered.setdefault(staged_key[:-1], [])
            insort(values, staged_key[-1])
        target[staged_key] = value
        for index, positions in indexes:
            subkey = tuple([staged_key[p] for p in positions])
            index.setdefault(subkey, {})[staged_key] = value
    staged.clear()
    del target[key]
    for index, positions in indexes:
        subkey = tuple([key[p] for p in positions])
        bucket = index[subkey]
        del bucket[key]
        if not bucket:
            del index[subkey]
    if ordered is not None:
        values = ordered if flat else ordered[key[:-1]]
        del values[bisect_left(values, key[-1])]
        if not values and not flat:
            del ordered[key[:-1]]


def _cross(target, source, cache: Cache, key: tuple, entered: bool) -> None:
    """Update one cache for ``key`` entering (or leaving) ``source``."""
    ga = cache.group_arity
    group, value = key[:ga], key[ga]
    if cache.kind == "distinct":
        count = target.get(group, 0) + (1 if entered else -1)
        if count == 0:
            target.pop(group, None)
        else:
            target[group] = count
        return
    better = (lambda a, b: a < b) if cache.kind == "min" else (lambda a, b: a > b)
    if entered:
        best = target.get(group)
        if best is None or better(value, best):
            target[group] = value
    elif target.get(group) == value:
        # The stored extremum left the group: re-derive or evict.
        best = None
        for other in source:
            if other[:ga] == group and (best is None or better(other[ga], best)):
                best = other[ga]
        if best is None:
            target.pop(group, None)
        else:
            target[group] = best


def run_finalize(target, source, kind: str, ga: int) -> None:
    """Rebuild a min/max/distinct cache from its occurrence map (the
    restate path, and the sharded-merge path)."""
    target.clear()
    for key, count in source.items():
        if count == 0:
            continue
        group = key[:ga]
        if kind == "distinct":
            target[group] = target.get(group, 0) + 1
        else:
            value = key[ga]
            best = target.get(group)
            if best is None or (value < best if kind == "min" else value > best):
                target[group] = value


def run_trigger(trigger_ir: TriggerIR, values, maps: dict) -> None:
    """Execute one per-event trigger body."""
    run_stmts(trigger_ir.body, dict(zip(trigger_ir.params, values)), maps, None)


def run_trigger_batch(trigger_ir: TriggerIR, columns, weights, maps: dict) -> None:
    """Execute one *batch* trigger body over a columnar batch.

    ``columns`` is the struct-of-arrays row set
    (:class:`~repro.runtime.events.EventBatch` layout), ``weights`` its
    weight column; the body's
    :class:`ForEachRow` loop iterates it directly, so the interpreter
    absorbs batches with the same first-/second-order accumulation shape
    the compiled back end runs — while still re-traversing the IR nodes
    (the interpretation overhead the ablation isolates).
    """
    loop = routed_group(trigger_ir.body)
    if loop is not None:
        run_groups(trigger_ir, run_fold(loop, columns, weights, maps).items(), maps)
        return
    run_stmts(trigger_ir.body, {"__cols": columns, WEIGHTS: weights}, maps, None)


def run_fold(loop: ForEachGroup, columns, weights, maps: dict) -> dict:
    """A routed group loop's fold of one columnar batch (see
    :class:`~repro.compiler.program.TriggerTable`)."""
    return _fold(loop, {loop.rows_var: columns, WEIGHTS: weights}, maps)


def run_groups(trigger_ir: TriggerIR, pairs, maps: dict) -> int:
    """Execute a batch body whose group loop is routed over ``pairs``
    of its fold; returns the rows they stand for."""
    env = {GROUPS: pairs, "__rows": 0}
    run_stmts(trigger_ir.body, env, maps, None)
    return env["__rows"]


def run_trigger_collect(
    trigger_ir: TriggerIR, values, maps: dict
) -> list[tuple[Block, list[tuple[str, tuple, object]]]]:
    """Execute a trigger, returning per-block update traces (debugger)."""
    env = dict(zip(trigger_ir.params, values))
    traces: list[tuple[Block, list[tuple[str, tuple, object]]]] = []
    for stmt in trigger_ir.body:
        if isinstance(stmt, Block):
            recorder = _Recorder()
            run_stmt(stmt, env, maps, recorder)
            traces.append((stmt, recorder.updates))
        else:
            run_stmt(stmt, env, maps, None)
    return traces


class InterpretedExecutor:
    """Executes triggers by walking the lowered IR directly.

    This is deliberately an *interpreter*: every event re-traverses the
    IR nodes — the overhead that code generation removes.  It shares the
    loop-level lowering (and optimisation pipeline) with the compiled
    back end, so its semantics are the generated code's by construction:
    batches walk the same accumulate-then-flush bodies the compiled back
    end renders (first-order accumulation, second-order restatement).
    """

    mode = "interpreted"
    #: No module is generated, no kernel attached, no index maintained.
    source = None
    native_active = False
    native_note = None

    def __init__(
        self,
        program: CompiledProgram,
        options: ExecutorOptions = ExecutorOptions(),
    ) -> None:
        self.program = program
        self.options = options
        self.layout = storage_layout(program, self.mode)
        self._ir = lower_for(program, options)

    def bind(self, maps: dict[str, dict]) -> TriggerTable:
        """The tree-walker's triggers closed over one engine's maps."""

        def per_event(trigger_ir):
            return lambda *values: run_trigger(trigger_ir, values, maps)

        def batch(trigger_ir):
            return lambda columns, weights: run_trigger_batch(
                trigger_ir, columns, weights, maps
            )

        def fold(loop):
            return lambda columns, weights: run_fold(loop, columns, weights, maps)

        def groups(trigger_ir):
            return lambda pairs: run_groups(trigger_ir, pairs, maps)

        ir = self._ir
        routed = {
            key: (body, routed_group(body.body))
            for key, body in ir.batch_triggers.items()
            if routed_group(body.body) is not None
        }
        return TriggerTable(
            {key: per_event(body) for key, body in ir.triggers.items()},
            {key: batch(body) for key, body in ir.batch_triggers.items()},
            dict,  # no secondary indexes: ``dict()`` is the empty count
            {key: fold(loop) for key, (_, loop) in routed.items()},
            {key: groups(body) for key, (body, _) in routed.items()},
        )
