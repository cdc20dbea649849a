"""Lowering: compiled delta statements → imperative trigger IR.

One pass shared by every back end.  Each compiled
:class:`~repro.compiler.program.Statement` (``target[args] += rhs`` with
implied loops) lowers to a :class:`~repro.ir.nodes.Block`: nested map
loops, lift assignments, comparison guards, nested-aggregate accumulator
loops, and a final update whose shape depends on the *sink* — a direct
map apply, a two-phase pending-buffer append (self-reading triggers), or
a batch accumulator (scalar or keyed) for the ``*_batch`` variants.  The
per-event and batch trigger bodies are both derived from this one
statement lowering.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CodegenError, CompilationError
from repro.algebra.expr import (
    Add,
    AggSum,
    Cmp,
    Const as AConst,
    Div,
    Exists,
    Expr,
    Lift,
    MapRef,
    Mul,
    Neg as ANeg,
    Var,
    mul as alg_mul,
)
from repro.algebra.schema import output_vars
from repro.algebra.simplify import monomials
from repro.compiler.materialize import (
    MapRegistry,
    Materializer,
    read_base_maps,
    read_extrema,
)
from repro.compiler.program import (
    CompiledProgram,
    ExecutorOptions,
    FinalizeSpec,
    Statement,
    Trigger,
    needs_buffering,
    validate_statement,
)
from repro.compiler.storage import analyze_storage, exact_int_maps
from repro.ir.nodes import (
    AddTo,
    AppendTo,
    Assign,
    Accum,
    Block,
    BufferDecl,
    Clear,
    Compare,
    Const,
    Finalize,
    FlushBuffer,
    ForEachMap,
    ForEachRow,
    IfCond,
    IRExpr,
    IRStmt,
    KeyAt,
    LocalMapDecl,
    Lookup,
    MapDecl,
    MergeInto,
    Name,
    Neg,
    Prod,
    ProgramIR,
    SafeDiv,
    Slot,
    Sum,
    TriggerIR,
    walk_stmts,
)


def _factors_of(expr: Expr) -> list[Expr]:
    if isinstance(expr, Mul):
        return list(expr.factors)
    return [expr]


def pending_buffer(target: str) -> str:
    """The pending-buffer local for a two-phase (buffered) target map."""
    return f"__pending_{target}"


class _Namer:
    """Per-trigger deterministic gensym source."""

    def __init__(self) -> None:
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"__{prefix}{self._counter}"


class _Sink:
    """How a statement's computed update leaves the loop nest."""

    def __init__(
        self,
        kind: str,  # "direct" | "buffered" | "scalar-acc" | "keyed-acc"
        target: str,
        args: tuple[Expr, ...],
        acc: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.target = target
        self.args = args
        self.acc = acc


class _StatementLowering:
    """Lowers one compiled statement into a list of IR statements.

    A direct port of the recursive product emitter: scalars fold into the
    running term list, comparisons become guards, lifts bind or test,
    map references open loops, and nested aggregates accumulate into
    temporaries emitted before their use site.
    """

    def __init__(
        self,
        statement: Statement,
        params: tuple[str, ...],
        sink: _Sink,
        namer: _Namer,
    ) -> None:
        self.statement = statement
        self.params = tuple(params)
        self.sink = sink
        self.namer = namer
        self.bound: set[str] = set()

    def lower(self) -> list[IRStmt]:
        expanded = monomials(self.statement.rhs)
        if not expanded:
            return []  # identically zero RHS: nothing to do
        if len(expanded) != 1:
            raise CodegenError(
                f"statement RHS must be a single monomial: {self.statement!r}"
            )
        coeff, factors = expanded[0]
        self.bound = set(self.params)
        terms: list[IRExpr] = [] if coeff == 1 else [Const(coeff)]
        return self._product(list(factors), terms)

    # -- the recursive product lowering -----------------------------------

    def _product(self, factors: list[Expr], terms: list[IRExpr]) -> list[IRStmt]:
        out: list[IRStmt] = []
        factors = list(factors)
        terms = list(terms)
        while factors:
            factor = factors[0]
            if isinstance(factor, (AggSum, Exists)):
                break  # handled by the dispatch below (flatten or guard)
            if isinstance(factor, Cmp) and self._is_scalar(factor):
                # Comparisons become guards: cheaper than multiplying 0/1
                # and they short-circuit the rest of the statement.
                left = self._scalar(factor.left, out)
                right = self._scalar(factor.right, out)
                out.append(
                    IfCond(
                        Compare(factor.op, left, right),
                        tuple(self._product(factors[1:], terms)),
                    )
                )
                return out
            if self._is_scalar(factor):
                terms.append(self._scalar(factor, out))
                factors.pop(0)
                continue
            break
        if not factors:
            out.extend(self._update(terms))
            return out

        factor = factors.pop(0)
        rest = factors

        if isinstance(factor, Lift):
            body = self._scalar(factor.body, out)
            if factor.var in self.bound:
                out.append(
                    IfCond(
                        Compare("=", Name(factor.var), body),
                        tuple(self._product(rest, list(terms))),
                    )
                )
                return out
            out.append(Assign(factor.var, body))
            self.bound.add(factor.var)
            out.extend(self._product(rest, list(terms)))
            return out

        if isinstance(factor, MapRef):
            out.extend(self._map_loop(factor, rest, terms))
            return out

        if isinstance(factor, AggSum):
            # Linear position: flatten (grouping is reconstituted by the
            # target accumulation; summed variables are invisible outside).
            out.extend(self._product(_factors_of(factor.body) + rest, list(terms)))
            return out

        if isinstance(factor, Exists):
            inner = factor.body
            unbound = [v for v in output_vars(inner) if v not in self.bound]
            if not unbound:
                # Scalar existence test: accumulate the body value, then
                # guard the rest of the statement on it being non-zero.
                acc = self._scalar_aggregate(inner, out)
                out.append(
                    IfCond(
                        Compare("!=", Name(acc), Const(0)),
                        tuple(self._product(rest, list(terms))),
                    )
                )
                return out
            if isinstance(inner, MapRef):
                out.extend(self._map_loop(inner, rest, terms, cap_value=True))
                return out
            raise CodegenError(f"unsupported Exists structure: {factor!r}")

        raise CodegenError(f"cannot lower factor {factor!r} in {self.statement!r}")

    def _map_loop(
        self,
        ref: MapRef,
        rest: list[Expr],
        terms: list[IRExpr],
        cap_value: bool = False,
    ) -> list[IRStmt]:
        arity = len(ref.args)
        if arity == 0:
            value: IRExpr = Lookup(Slot(ref.name), (), ref.absent)
            term = Compare("!=", value, Const(0)) if cap_value else value
            return self._product(rest, terms + [term])

        filters: list[tuple[int, IRExpr]] = []
        binds: list[tuple[int, str]] = []
        seen_here: dict[str, int] = {}
        for position, arg in enumerate(ref.args):
            if isinstance(arg, AConst):
                filters.append((position, Const(arg.value)))
            elif arg.name in self.bound:
                filters.append((position, Name(arg.name)))
            elif arg.name in seen_here:
                filters.append((position, KeyAt(seen_here[arg.name])))
            else:
                seen_here[arg.name] = position
                binds.append((position, arg.name))

        entry_var = self.namer.fresh("e")
        value_var = self.namer.fresh("v")
        for _, var in binds:
            self.bound.add(var)
        term = (
            Compare("!=", Name(value_var), Const(0))
            if cap_value
            else Name(value_var)
        )
        body = self._product(rest, terms + [term])
        for _, var in binds:
            self.bound.discard(var)
        return [
            ForEachMap(
                Slot(ref.name),
                entry_var,
                value_var,
                tuple(binds),
                tuple(filters),
                tuple(body),
            )
        ]

    def _update(self, terms: list[IRExpr]) -> list[IRStmt]:
        sink = self.sink
        value = _prod(terms)
        if sink.kind == "scalar-acc":
            return [Accum(sink.acc, value)]
        temp = self.namer.fresh("d")
        guard_body: list[IRStmt]
        if sink.kind == "keyed-acc":
            guard_body = [
                AddTo(
                    Slot(sink.acc, local=True),
                    self._key_exprs(),
                    Name(temp),
                    evict=False,
                )
            ]
        elif sink.kind == "buffered":
            guard_body = [
                AppendTo(
                    pending_buffer(sink.target),
                    self._key_exprs(),
                    Name(temp),
                    target=Slot(sink.target),
                )
            ]
        else:
            guard_body = [AddTo(Slot(sink.target), self._key_exprs(), Name(temp))]
        return [
            Assign(temp, value),
            IfCond(Compare("!=", Name(temp), Const(0)), tuple(guard_body)),
        ]

    def _key_exprs(self) -> tuple[IRExpr, ...]:
        scratch: list[IRStmt] = []
        keys = tuple(self._scalar(arg, scratch) for arg in self.sink.args)
        if scratch:
            raise CodegenError(
                f"key expressions of {self.statement!r} must be loop-free"
            )
        return keys

    # -- scalar expressions ------------------------------------------------

    def _is_scalar(self, expr: Expr) -> bool:
        """True when the factor has no unbound outputs (pure value)."""
        if isinstance(expr, (AConst, Var, Cmp, Div)):
            return True
        if isinstance(expr, MapRef):
            return all(isinstance(a, AConst) or a.name in self.bound for a in expr.args)
        if isinstance(expr, Lift):
            return False
        if isinstance(expr, (AggSum, Exists)):
            return all(v in self.bound for v in output_vars(expr))
        if isinstance(expr, (Mul, Add, ANeg)):
            return all(self._is_scalar(c) for c in expr.children())
        return False

    def _scalar(self, expr: Expr, prelude: list[IRStmt]) -> IRExpr:
        """Translate a contextually scalar expression.

        Nested aggregates (AggSum/Exists in value position) need loops:
        those are appended to ``prelude`` and the aggregate becomes a
        reference to the accumulator temp.
        """
        if isinstance(expr, AConst):
            return Const(expr.value)
        if isinstance(expr, Var):
            return Name(expr.name)
        if isinstance(expr, ANeg):
            return Neg(self._scalar(expr.body, prelude))
        if isinstance(expr, Add):
            return Sum(tuple(self._scalar(t, prelude) for t in expr.terms))
        if isinstance(expr, Mul):
            return Prod(tuple(self._scalar(f, prelude) for f in expr.factors))
        if isinstance(expr, Div):
            return SafeDiv(
                self._scalar(expr.left, prelude), self._scalar(expr.right, prelude)
            )
        if isinstance(expr, Cmp):
            return Compare(
                expr.op,
                self._scalar(expr.left, prelude),
                self._scalar(expr.right, prelude),
            )
        if isinstance(expr, MapRef):
            keys = tuple(self._scalar(a, prelude) for a in expr.args)
            return Lookup(Slot(expr.name), keys, expr.absent)
        if isinstance(expr, Exists):
            acc = self._scalar_aggregate(expr.body, prelude)
            return Compare("!=", Name(acc), Const(0))
        if isinstance(expr, AggSum):
            return Name(self._scalar_aggregate(expr, prelude))
        raise CodegenError(f"unsupported scalar expression {expr!r}")

    def _scalar_aggregate(self, expr: Expr, prelude: list[IRStmt]) -> str:
        """Lower a nested aggregate into accumulator loops.

        The loops land in ``prelude`` (before the statement that uses the
        value); the accumulator temp's name is returned.
        """
        acc = self.namer.fresh("acc")
        prelude.append(Assign(acc, Const(0)))
        body = expr.body if isinstance(expr, AggSum) else expr
        saved_bound = set(self.bound)
        saved_sink = self.sink
        self.sink = _Sink("scalar-acc", saved_sink.target, (), acc=acc)
        try:
            for coeff, factors in monomials(body):
                prefix = [] if coeff == 1 else [AConst(coeff)]
                prelude.extend(self._product(prefix + list(factors), []))
                self.bound = set(saved_bound)
        finally:
            self.sink = saved_sink
        return acc


def _prod(terms: list[IRExpr]) -> IRExpr:
    if not terms:
        return Const(1)
    if len(terms) == 1:
        return terms[0]
    return Prod(tuple(terms))


# ---------------------------------------------------------------------------
# Trigger- and program-level lowering
# ---------------------------------------------------------------------------


def lower_statement(
    statement: Statement,
    params: tuple[str, ...],
    sink: _Sink,
    namer: _Namer,
) -> Block:
    """Lower one compiled statement to a :class:`Block`."""
    stmts = _StatementLowering(statement, params, sink, namer).lower()
    return Block(
        comments=(repr(statement),),
        targets=(statement.target,),
        stmts=tuple(stmts),
        sources=(statement,),
    )


def _finalize_blocks(
    finalizers: dict,
    targets,
    pending_of,
    keyed: bool = False,
) -> list[IRStmt]:
    """One :class:`Finalize` block per (occurrence target, auxiliary spec).

    ``pending_of(occ)`` names the per-batch delta accumulators for the
    occurrence map — pending buffers (per-event bodies, left intact by the
    flush) or, with ``keyed``, keyed batch accumulators.  An empty tuple
    requests a full rebuild of the auxiliary map instead.
    """
    blocks: list[IRStmt] = []
    for occ in targets:
        for spec in finalizers.get(occ, ()):
            blocks.append(
                Block(
                    comments=(
                        f"finalize {spec.kind} cache {spec.aux} from {occ}",
                    ),
                    targets=(spec.aux,),
                    stmts=(
                        Finalize(
                            target=Slot(spec.aux),
                            source=Slot(occ),
                            kind=spec.kind,
                            group_arity=spec.group_arity,
                            pending=tuple(pending_of(occ)),
                            keyed=keyed,
                        ),
                    ),
                    sources=(),
                )
            )
    return blocks


def _independent(trigger: Trigger, finalizers: dict) -> bool:
    """Whether no statement reads a map the trigger changes: every event
    of a batch then sees the same inputs."""
    changed = _changed_maps(trigger.statements, finalizers)
    return not any(s.reads() & changed for s in trigger.statements)


def _changed_maps(statements: list[Statement], finalizers: dict) -> set[str]:
    """Maps whose contents the statements change: their targets, and the
    auxiliary caches Finalize maintains from those."""
    targets = {s.target for s in statements}
    return targets | {
        spec.aux for name in targets for spec in finalizers.get(name, ())
    }


def lower_trigger(
    trigger: Trigger,
    namer: Optional[_Namer] = None,
    finalizers: Optional[dict] = None,
    plan: Optional["SecondOrderPlan"] = None,
) -> TriggerIR:
    """The per-event trigger body (with two-phase buffering when needed).

    With a ``plan`` whose restated targets see this trigger's writes only
    through extremum caches (:func:`watched_extrema`), the event applies
    the plan's first-order statements, finalizes, and restates those
    targets from post-Finalize state *only when a watched extremum
    actually moved* — the restate sink of the batch triggers, guarded.
    Any other plan is the batch path's business and changes nothing here.
    """
    namer = namer or _Namer()
    finalizers = finalizers or {}
    watched = watched_extrema(plan, finalizers) if plan is not None else ()
    statements = plan.base if watched else trigger.statements
    written = sorted({s.target for s in statements})
    finalized = [name for name in written if name in finalizers]
    # Conflicting statements buffer every write (two-phase apply); a
    # finalized map always buffers its own — the pending buffer doubles
    # as the Finalize step's delta (the flush reads but keeps it).
    buffered = written if needs_buffering(statements) else finalized
    body: list[IRStmt] = [BufferDecl(pending_buffer(name)) for name in buffered]
    for statement in statements:
        kind = "buffered" if statement.target in buffered else "direct"
        sink = _Sink(kind, statement.target, statement.args)
        body.append(lower_statement(statement, trigger.params, sink, namer))
    body.extend(FlushBuffer(pending_buffer(name), Slot(name)) for name in buffered)
    body.extend(
        _finalize_blocks(
            finalizers, finalized, lambda occ: (pending_buffer(occ),)
        )
    )
    if watched:
        reads = [Lookup(Slot(spec.aux), (), spec.absent) for spec in watched]
        before = [namer.fresh("x") for _ in watched]
        moved = [
            Compare("!=", read, Name(old)) for read, old in zip(reads, before)
        ]
        body = [
            *(Assign(old, read) for read, old in zip(reads, before)),
            *body,
            Block(
                comments=(
                    f"restate {', '.join(plan.order)} when "
                    f"{', '.join(spec.aux for spec in watched)} moved",
                ),
                targets=tuple(plan.order),
                stmts=(
                    IfCond(
                        moved[0] if len(moved) == 1 else Sum(tuple(moved)),
                        tuple(_restate_blocks(plan, namer, finalizers)),
                    ),
                ),
                sources=(),
            ),
        ]
    return TriggerIR(
        relation=trigger.relation,
        sign=trigger.sign,
        name=trigger.name,
        params=trigger.params,
        body=tuple(body),
    )


# ---------------------------------------------------------------------------
# Second-order batch planning (delta-of-delta absorption)
# ---------------------------------------------------------------------------


class SecondOrderPlan:
    """How a self-reading trigger absorbs a whole batch.

    ``base`` are the statements whose per-event delta is batch-independent
    (:func:`repro.algebra.delta.batch_delta_order` 1 on their targets):
    they run in the row loop with first-order accumulation.  ``restate``
    maps the order-2 targets — whose deltas shift as the batch applies —
    to once-per-batch *recompute* statements derived from the target's
    defining query, rewritten over already-maintained maps.  The
    second-order deltas telescope across the batch, so clearing the target
    and re-evaluating its definition against the post-batch base maps
    yields exactly the per-event end state (gated on exact-integer ring
    values so float addition order cannot diverge).  ``order`` sequences
    the restatements so one recompute may read another's fresh value.
    """

    def __init__(
        self,
        base: list[Statement],
        restate: dict[str, list[Statement]],
        order: list[str],
    ) -> None:
        self.base = base
        self.restate = restate
        self.order = order


def _recompute_statements(
    map_def, registry: MapRegistry, program: CompiledProgram
) -> Optional[list[Statement]]:
    """Statements re-evaluating a map's definition over maintained maps.

    Every materialisable aggregate of the defining query must resolve to
    a map the program *already* maintains (the registry is seeded
    read-only; any attempt to create a new map rejects the plan), and
    every base-relation atom left over must be served by its relation's
    base map the way this definition reads it; threshold tests read the
    extremum caches the program maintains.  Returns one
    ``target[keys] += monomial`` statement per monomial of the definition
    body, or ``None`` when the definition cannot be restated from
    existing maps.
    """
    defn = map_def.defn
    if not isinstance(defn, AggSum):
        return None
    materializer = Materializer(registry, bound=(), derived_maps=True)

    def extremum(map_name: str, kind: str) -> Optional[FinalizeSpec]:
        for spec in program.finalizers.get(map_name, ()):
            if spec.kind == kind and spec.group_arity == 0:
                return spec
        return None

    statements: list[Statement] = []
    for coeff, factors in monomials(defn.body):
        bound: set[str] = set()
        parts: list[Expr] = [] if coeff == 1 else [AConst(coeff)]
        for factor in factors:
            parts.append(materializer.rewrite(factor, frozenset(bound)))
            bound.update(output_vars(factor))
        args = tuple(Var(key) for key in map_def.keys)
        rhs = read_base_maps(args, alg_mul(*parts), (), program.base_maps)
        if registry.pending or rhs is None:
            return None
        rhs = read_extrema(args, rhs, (), extremum)
        statement = Statement(
            target=map_def.name,
            args=args,
            rhs=rhs,
            loop_vars=tuple(map_def.keys),
        )
        try:
            validate_statement(statement)
        except CompilationError:
            return None
        statements.append(statement)
    return statements


def plan_second_order(
    trigger: Trigger, program: CompiledProgram
) -> Optional[SecondOrderPlan]:
    """Derive the second-order batch plan for a self-reading trigger.

    Per target, the delta-of-delta of its defining query with respect to
    two formal events of this trigger's ``(relation, sign)`` decides the
    sink: a vanishing second-order delta means the per-row deltas sum
    (first-order accumulation in the row loop); a non-vanishing one means
    the target is *restated* once per batch from its definition.  The
    compiler classified each target while it held the first-order deltas
    (``program.delta_orders``); nothing is re-derived here.  The plan
    is rejected — falling back to the per-row loop — when any of the
    soundness gates fails:

    * every written map must have provably exact (integer) ring values, so
      the re-ordered additions stay bit-identical to per-event execution;
    * first-order statements must read no map the trigger writes (their
      inputs are constant across the batch);
    * every restated definition must be expressible over maps the program
      already maintains, must not read its own target, and the restate
      dependencies must be acyclic.
    """
    if not trigger.statements:
        return None
    written = {s.target for s in trigger.statements}
    if not written <= exact_int_maps(program):
        return None
    orders = program.delta_orders[(trigger.relation, trigger.sign)]
    restate_targets = sorted(name for name in written if orders[name] >= 2)
    if not restate_targets:
        return None
    base = [s for s in trigger.statements if s.target not in restate_targets]
    changed = _changed_maps(trigger.statements, program.finalizers)
    if any(s.reads() & changed for s in base):
        return None

    registry = MapRegistry.seeded(program.maps)
    restate: dict[str, list[Statement]] = {}
    restate_reads: dict[str, set[str]] = {}
    for name in restate_targets:
        statements = _recompute_statements(program.maps[name], registry, program)
        if statements is None:
            return None
        reads = set().union(*(s.reads() for s in statements)) if statements else set()
        if name in reads:
            return None
        restate[name] = statements
        restate_reads[name] = reads & set(restate_targets)

    # Topologically order the restatements (reader after read).
    order: list[str] = []
    placed: set[str] = set()
    remaining = list(restate_targets)
    while remaining:
        ready = [n for n in remaining if restate_reads[n] <= placed]
        if not ready:
            return None  # mutually recursive restatements
        order.extend(ready)
        placed.update(ready)
        remaining = [n for n in remaining if n not in placed]
    return SecondOrderPlan(base, restate, order)


def watched_extrema(
    plan: SecondOrderPlan, finalizers: dict
) -> tuple[FinalizeSpec, ...]:
    """The extremum caches (their specs) through which alone ``plan``'s
    restated targets see what its first-order statements write.

    Non-empty exactly when restating per event can be *guarded*: the
    restatements read none of the written maps themselves, only scalar
    min/max caches Finalize maintains from them — so while those caches
    hold their values, every restated target holds its own.
    """
    written = {s.target for s in plan.base}
    caches = {
        spec.aux: spec for name in written for spec in finalizers.get(name, ())
    }
    reads: set[str] = set()
    for statements in plan.restate.values():
        for statement in statements:
            reads |= statement.reads()
    watched = sorted(reads & caches.keys())
    if reads & written or any(
        caches[aux].group_arity or caches[aux].kind == "distinct"
        for aux in watched
    ):
        return ()
    return tuple(caches[aux] for aux in watched)


def _restate_blocks(
    plan: SecondOrderPlan, namer: _Namer, finalizers: dict
) -> list[IRStmt]:
    """Clear every order-2 target, then re-evaluate each from its
    definition over the current maps.  All clears precede all recomputes
    so one restatement may read another's fresh value, and so the
    recompute loops stay fusable.  Restated occurrence maps have no delta
    to finalize from, so their auxiliary caches are rebuilt."""
    blocks: list[IRStmt] = [
        Block(
            comments=(f"second-order flush: restate {target}",),
            targets=(target,),
            stmts=(Clear(Slot(target)),),
            sources=(),
        )
        for target in plan.order
    ]
    for target in plan.order:
        for statement in plan.restate[target]:
            sink = _Sink("direct", statement.target, statement.args)
            blocks.append(lower_statement(statement, (), sink, namer))
    blocks.extend(
        _finalize_blocks(
            finalizers,
            sorted(t for t in plan.order if t in finalizers),
            lambda occ: (),
        )
    )
    return blocks


def _accumulates(
    statement: Statement,
    trigger: Trigger,
    patterns: dict[str, set[tuple[int, ...]]],
) -> bool:
    """Whether a batch-independent statement accumulates its batch delta
    locally before touching the target map.

    Always worthwhile for scalar targets (a local add per row).  Keyed
    targets accumulate when keys are expected to repeat across the batch
    (fewer key positions than event parameters — group-by style) or when
    the target maintains secondary indexes (hoists index maintenance out
    of the row loop); occurrence-style maps keyed by the whole event tuple
    apply directly.
    """
    if not statement.args:
        return True
    if patterns.get(statement.target):
        return True
    return len(statement.args) < len(trigger.params)


def _lower_accumulated(
    statements: list[Statement],
    trigger: Trigger,
    patterns: dict[str, set[tuple[int, ...]]],
    namer: _Namer,
    sinks: dict[int, str],
    finalizers: Optional[dict] = None,
    exact: frozenset[str] = frozenset(),
) -> list[IRStmt]:
    """The accumulate-then-merge row loop over ``statements``.

    Statements whose batch delta is worth accumulating get a trigger-local
    accumulator (scalar or keyed) merged into the program map once after
    the loop; the rest apply directly per row.  Keyed statements writing
    the same ``exact`` target share one accumulator and one merge (their
    additions commute); every other accumulator serves one statement, so
    float targets keep their per-statement addition order.  ``sinks``
    receives the chosen sink per statement position (reporting).
    Statements writing a finalized occurrence map always accumulate, each
    into its own — the keyed accumulators double as the appended
    :class:`Finalize` steps' batch deltas.
    """
    finalizers = finalizers or {}
    accs: dict[int, str] = {}
    shared: dict[str, str] = {}
    for position, statement in enumerate(statements):
        target = statement.target
        if target in finalizers:
            accs[position] = f"__b{position}"
        elif _accumulates(statement, trigger, patterns):
            acc = f"__b{position}"
            if statement.args and target in exact:
                acc = shared.setdefault(target, acc)
            accs[position] = acc
    # One declaration and one flush per accumulator, at its first writer.
    firsts: dict[str, int] = {}
    for position, acc in accs.items():
        firsts.setdefault(acc, position)
    body: list[IRStmt] = []
    for acc, position in firsts.items():
        statement = statements[position]
        body.append(
            Assign(acc, Const(0))
            if not statement.args
            else LocalMapDecl(acc, arity=len(statement.args))
        )
    row_blocks: list[IRStmt] = []
    for position, statement in enumerate(statements):
        acc = accs.get(position)
        if acc is None:
            sink = _Sink("direct", statement.target, statement.args)
            sinks[position] = "direct"
        elif not statement.args:
            sink = _Sink("scalar-acc", statement.target, statement.args, acc=acc)
            sinks[position] = "accumulator"
        else:
            sink = _Sink("keyed-acc", statement.target, statement.args, acc=acc)
            sinks[position] = "accumulator"
        row_blocks.append(lower_statement(statement, trigger.params, sink, namer))
    body.append(ForEachRow("__cols", trigger.params, tuple(row_blocks)))
    for acc, position in firsts.items():
        statement = statements[position]
        if not statement.args:
            body.append(
                Block(
                    comments=(),
                    targets=(statement.target,),
                    stmts=(
                        IfCond(
                            Compare("!=", Name(acc), Const(0)),
                            (AddTo(Slot(statement.target), (), Name(acc)),),
                        ),
                    ),
                    sources=(statement,),
                )
            )
        else:
            body.append(
                Block(
                    comments=(),
                    targets=(statement.target,),
                    stmts=(MergeInto(Slot(statement.target), Slot(acc, local=True)),),
                    sources=tuple(
                        s for p, s in enumerate(statements) if accs.get(p) == acc
                    ),
                )
            )
    pending_accs: dict[str, list[str]] = {}
    for position, statement in enumerate(statements):
        if statement.target in finalizers and position in accs:
            pending_accs.setdefault(statement.target, []).append(accs[position])
    body.extend(
        _finalize_blocks(
            finalizers,
            sorted(pending_accs),
            lambda occ: pending_accs[occ],
            keyed=True,
        )
    )
    return body


def _lower_second_order(
    trigger: Trigger,
    plan: SecondOrderPlan,
    patterns: dict[str, set[tuple[int, ...]]],
    namer: _Namer,
    finalizers: Optional[dict] = None,
    exact: frozenset[str] = frozenset(),
) -> tuple[tuple[IRStmt, ...], tuple[tuple[str, str], ...]]:
    """The accumulate-then-flush batch body of a second-order plan.

    First-order (base) statements run in the row loop with batch-delta
    accumulation (and finalize the caches they feed); then every order-2
    target is restated once from the post-batch maps — the telescoped
    second-order correction (:func:`_restate_blocks`).
    """
    base_sinks: dict[int, str] = {}
    body = _lower_accumulated(
        plan.base, trigger, patterns, namer, base_sinks, finalizers, exact
    )
    body.extend(_restate_blocks(plan, namer, finalizers or {}))

    base_order = {id(s): base_sinks[i] for i, s in enumerate(plan.base)}
    report = tuple(
        (repr(statement), base_order.get(id(statement), "second-order"))
        for statement in trigger.statements
    )
    return tuple(body), report


def lower_trigger_batch(
    trigger: Trigger,
    per_event: TriggerIR,
    patterns: dict[str, set[tuple[int, ...]]],
    namer: Optional[_Namer] = None,
    finalizers: Optional[dict] = None,
    independent: Optional[bool] = None,
    plan: Optional[SecondOrderPlan] = None,
    exact: frozenset[str] = frozenset(),
) -> tuple[TriggerIR, tuple[tuple[str, str], ...]]:
    """The batch trigger body, derived from the same statement lowering.

    Returns the trigger IR plus the per-statement sink report.  Three
    shapes, by how the trigger's deltas behave across a batch:

    * ``independent`` triggers (no statement reads a map the trigger
      changes — :func:`_independent`, asked here when the caller has not)
      accumulate first-order batch deltas in locals flushed once after
      the row loop;
    * *self-reading* triggers given a :class:`SecondOrderPlan` (their
      delta-of-delta analysis admits one) accumulate their first-order
      statements and restate the order-2 targets once per batch;
    * everything else runs the per-event body once per row (the fallback,
      reported as ``per-row``/``buffered``).

    ``exact`` names the maps proven to hold exact integers: keyed
    statements writing one of them share its accumulator.
    """
    namer = namer or _Namer()
    name = f"{trigger.name}_batch"
    finalizers = finalizers or {}
    if not trigger.statements:
        return (
            TriggerIR(trigger.relation, trigger.sign, name, trigger.params, ()),
            (),
        )

    if plan is not None:
        body, report = _lower_second_order(
            trigger, plan, patterns, namer, finalizers, exact
        )
        return (
            TriggerIR(trigger.relation, trigger.sign, name, trigger.params, body),
            report,
        )

    if independent is None:
        independent = _independent(trigger, finalizers)
    if independent:
        sinks: dict[int, str] = {}
        accumulated = _lower_accumulated(
            trigger.statements, trigger, patterns, namer, sinks, finalizers, exact
        )
        if any(kind == "accumulator" for kind in sinks.values()):
            report = tuple(
                (repr(s), sinks[i]) for i, s in enumerate(trigger.statements)
            )
            return (
                TriggerIR(
                    trigger.relation,
                    trigger.sign,
                    name,
                    trigger.params,
                    tuple(accumulated),
                ),
                report,
            )

    # Reuse the (already optimised) per-event blocks row by row.
    fallback = "buffered" if needs_buffering(trigger.statements) else "per-row"
    report = tuple((repr(s), fallback) for s in trigger.statements)
    return (
        TriggerIR(
            trigger.relation,
            trigger.sign,
            name,
            trigger.params,
            (ForEachRow("__cols", trigger.params, per_event.body),),
        ),
        report,
    )


def collect_patterns_ir(triggers) -> dict[str, set[tuple[int, ...]]]:
    """Access patterns needing secondary indexes, from the lowered loops.

    A pattern is the sorted tuple of key positions a partially-bound map
    loop filters on — real DBToaster's in/out patterns.  Loops whose
    filters reference the key tuple itself (repeated loop variables) scan.
    """
    patterns: dict[str, set[tuple[int, ...]]] = {}
    for trigger_ir in triggers:
        for stmt in walk_stmts(trigger_ir.body):
            if not isinstance(stmt, ForEachMap) or stmt.slot.local:
                continue
            if not stmt.binds or not stmt.filters:
                continue
            if any(isinstance(expr, KeyAt) for _, expr in stmt.filters):
                continue
            patterns.setdefault(stmt.slot.name, set()).add(stmt.pattern)
    return patterns


def lower_program(
    program: CompiledProgram,
    optimize: bool = True,
    passes: Optional[tuple[str, ...]] = None,
    second_order: bool = True,
) -> ProgramIR:
    """Lower (and optionally optimise) a whole compiled program.

    ``second_order`` selects a sink for *batch* triggers only:
    ``False`` disables the delta-of-delta batch sink (self-reading
    triggers run the per-event body once per row) — the ablation knob for
    the higher-order batching experiment.  The per-event bodies are the
    same either way; where a trigger's second-order plan can be guarded
    on an extremum cache (:func:`lower_trigger`) they use it regardless.

    The result is cached on the program object: every back end asking for
    the same ``(optimize, passes, second_order)`` configuration shares one
    ProgramIR.
    """
    from repro.ir.optimize import DEFAULT_PASSES, optimize_program

    if passes is not None:
        wanted = tuple(passes)
    else:
        wanted = DEFAULT_PASSES if optimize else ()
    cache = program.__dict__.setdefault("_ir_cache", {})
    cached = cache.get((wanted, second_order))
    if cached is not None:
        return cached

    storage_plan = analyze_storage(program)
    maps = {
        name: MapDecl(
            name=name,
            arity=map_def.arity,
            keys=map_def.keys,
            role=map_def.role,
            defn=repr(map_def.defn),
            storage=storage_plan.storage_for(name).label,
        )
        for name, map_def in program.maps.items()
    }
    finalizers = program.finalizers
    exact = exact_int_maps(program)
    triggers: dict[tuple[str, int], TriggerIR] = {}
    namers: dict[tuple[str, int], _Namer] = {}
    # Per trigger, decided once for both variants: whether its events are
    # independent of each other, and otherwise its second-order plan.
    shapes: dict[tuple[str, int], tuple[bool, Optional[SecondOrderPlan]]] = {}
    for key, trigger in program.triggers.items():
        namers[key] = _Namer()
        independent = _independent(trigger, finalizers)
        plan = None if independent else plan_second_order(trigger, program)
        shapes[key] = independent, plan
        triggers[key] = lower_trigger(trigger, namers[key], finalizers, plan)

    ir = ProgramIR(maps=maps, triggers=triggers, batch_triggers={}, passes=())
    if wanted:
        ir = optimize_program(ir, program, wanted)

    # Batch variants are derived from the (optimised) per-event bodies so
    # both variants share one loop-level lowering; the acc-based variants
    # re-lower statements with redirected sinks and go through the same
    # pass pipeline.
    patterns = collect_patterns_ir(ir.triggers.values())
    batch: dict[tuple[str, int], TriggerIR] = {}
    sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = {}
    for key, trigger in program.triggers.items():
        batch[key], sinks[key] = lower_trigger_batch(
            trigger,
            ir.triggers[key],
            patterns,
            namers[key],
            finalizers,
            shapes[key][0],
            shapes[key][1] if second_order else None,
            exact,
        )
    ir.batch_triggers = batch
    ir.batch_sinks = sinks
    if wanted:
        ir = optimize_program(ir, program, wanted, batch_only=True)
    cache[(wanted, second_order)] = ir
    return ir


def lower_for(program: CompiledProgram, options: ExecutorOptions) -> ProgramIR:
    """:func:`lower_program` under an executor's options — the IR every
    back end built from ``options`` renders, walks or analyses."""
    return lower_program(
        program, optimize=options.optimize, second_order=options.second_order
    )
