"""Lowering: compiled delta statements → imperative trigger IR.

One pass shared by every back end.  Each compiled
:class:`~repro.compiler.program.Statement` (``target[args] += rhs`` with
implied loops) lowers to a :class:`~repro.ir.nodes.Block`: nested map
loops, lift assignments, comparison guards, nested-aggregate accumulator
loops, and a final update whose shape depends on the *sink* — a direct
map apply, a two-phase pending-buffer append (self-reading triggers), or
a per-event scalar accumulator (an exact-integer loop sum under an
event-fixed key).  A ``*_batch`` body is the optimised per-event body in
a row loop, its writes to accumulating targets staged and merged once
after the loop; an independent trigger's batch may first fold its rows
into one per group of what its body keys on, and run the body over each
group's sums (:func:`plan_preaggregation`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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
    WEIGHT,
    mul as alg_mul,
    used_vars,
)
from repro.algebra.schema import output_vars
from repro.algebra.simplify import monomials
from repro.compiler.materialize import (
    MapRegistry,
    Materializer,
    read_base_maps,
    read_extrema,
)
from repro.compiler.partition import analyze_partitioning
from repro.compiler.program import (
    CompiledProgram,
    ExecutorOptions,
    FinalizeSpec,
    Statement,
    Trigger,
    float_columns,
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
    Cache,
    Clear,
    Compare,
    Const,
    Finalize,
    FlushBuffer,
    ForEachGroup,
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
    routed_group,
    stmt_children,
    walk_stmts,
    with_body,
)


#: The event weight, as the lowered statements read it.
_WEIGHT = Name(WEIGHT)


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
    """How a statement's computed update leaves the loop nest.

    ``caches`` are the MIN/MAX/DISTINCT caches a direct write keeps
    current.  ``sums``, when given, is the trigger's table of per-event
    accumulators: an update inside a map loop adds to the scalar local
    ``sums[(target, args, weighted)]`` instead (named on first use, and
    recorded as ``acc``), which the trigger writes once after its last
    statement (times the event weight when ``weighted``).
    """

    def __init__(
        self,
        kind: str,  # "direct" | "buffered" | "scalar-acc"
        target: str,
        args: tuple[Expr, ...],
        acc: Optional[str] = None,
        caches: tuple[Cache, ...] = (),
        sums: Optional[dict] = None,
    ) -> None:
        self.kind = kind
        self.target = target
        self.args = args
        self.acc = acc
        self.caches = caches
        self.sums = sums


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
        self.loops = 0  # map loops open around the current point

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
        self.loops += 1
        body = self._product(rest, terms + [term])
        self.loops -= 1
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
        if sink.sums is not None and self.loops:
            key = (sink.target, sink.args, _WEIGHT in terms)
            if key not in sink.sums:
                sink.sums[key] = self.namer.fresh("a")
            sink.acc = sink.sums[key]
            return [Accum(sink.acc, _prod([t for t in terms if t != _WEIGHT]))]
        # The event weight is ±1, never zero: the zero guard tests the
        # rest of the product, which the write then scales by the weight.
        weight = [term for term in terms if term == _WEIGHT]
        rest = [term for term in terms if term != _WEIGHT]
        if all(isinstance(term, Const) for term in rest):
            # A constant rest decides the guard here; a unit one vanishes.
            constant = 1
            for term in rest:
                constant *= term.value
            if constant == 0:
                return []
            unit = type(constant) is int and constant == 1
            return [self._write(_prod(weight if unit else [*weight, Const(constant)]))]
        prelude: list[IRStmt] = []
        if len(rest) == 1 and isinstance(rest[0], Name):
            guard = rest[0]  # a bare name is tested and read as itself
        else:
            guard = Name(self.namer.fresh("d"))
            prelude.append(Assign(guard.name, _prod(rest)))
        write = self._write(_prod([*weight, guard]))
        return [*prelude, IfCond(Compare("!=", guard, Const(0)), (write,))]

    def _write(self, delta: IRExpr) -> IRStmt:
        sink = self.sink
        if sink.kind == "buffered":
            return AppendTo(
                pending_buffer(sink.target),
                self._key_exprs(),
                delta,
                target=Slot(sink.target),
            )
        return AddTo(Slot(sink.target), self._key_exprs(), delta, caches=sink.caches)

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
        stmts=tuple(stmts),
        sources=(statement,),
    )


def _caches(target: str, finalizers: dict) -> tuple[Cache, ...]:
    """The MIN/MAX/DISTINCT caches a write to ``target`` keeps current."""
    return tuple(
        Cache(Slot(spec.aux), spec.kind, spec.group_arity)
        for spec in finalizers.get(target, ())
    )


def _rebuild_blocks(finalizers: dict, targets) -> list[IRStmt]:
    """One :class:`Finalize` rebuild per cache of each occurrence map in
    ``targets`` (maps a restatement cleared and re-derived)."""
    return [
        Block(
            comments=(f"rebuild {spec.kind} cache {spec.aux} from {occ}",),
            stmts=(
                Finalize(
                    target=Slot(spec.aux),
                    source=Slot(occ),
                    kind=spec.kind,
                    group_arity=spec.group_arity,
                ),
            ),
            sources=(),
        )
        for occ in targets
        for spec in finalizers.get(occ, ())
    ]


def _independent(trigger: Trigger, finalizers: dict) -> bool:
    """Whether no statement reads a map the trigger changes: every event
    of a batch then sees the same inputs."""
    changed = _changed_maps(trigger.statements, finalizers)
    return not any(s.reads() & changed for s in trigger.statements)


def _changed_maps(statements: list[Statement], finalizers: dict) -> set[str]:
    """Maps whose contents the statements change: their targets, and the
    auxiliary caches kept from those."""
    targets = {s.target for s in statements}
    return targets | {
        spec.aux for name in targets for spec in finalizers.get(name, ())
    }


def lower_trigger(
    trigger: Trigger,
    namer: Optional[_Namer] = None,
    finalizers: Optional[dict] = None,
    plan: Optional["SecondOrderPlan"] = None,
    exact: frozenset[str] = frozenset(),
) -> tuple[TriggerIR, tuple[tuple[str, str], ...]]:
    """The per-event trigger body, plus its per-statement sink report.

    Statements apply their updates directly, each write to an occurrence
    map keeping its MIN/MAX/DISTINCT caches current.  When statements
    conflict (:func:`~repro.compiler.program.needs_buffering`; reading a
    cache reads the occurrence map it is kept from) every write appends
    to a pending buffer, flushed after the last statement.

    A statement writing an ``exact``-integer map without caches under a
    key of parameters and constants sums the updates its loop makes into
    a scalar local (``accumulator``), one per (target, key, whether the
    event weight scales it) and shared by every statement writing it
    there; one guarded write after the last
    statement — an append in a buffered trigger — replaces a read and a
    write of the map per iteration.  A float target keeps its
    per-iteration writes, and so their addition order.

    With a ``plan`` whose restated targets see this trigger's writes only
    through extremum caches (:func:`watched_extrema`), the event applies
    the plan's first-order statements and restates those targets *only
    when a watched extremum actually moved* — the restate sink of the
    batch triggers, guarded.  Any other plan is the batch path's
    business and changes nothing here.
    """
    namer = namer or _Namer()
    finalizers = finalizers or {}
    watched = watched_extrema(plan, finalizers) if plan is not None else ()
    statements = plan.base if watched else trigger.statements
    buffered = (
        sorted({s.target for s in statements})
        if needs_buffering(statements, finalizers)
        else []
    )
    sums: dict[tuple[str, tuple[Expr, ...], bool], str] = {}
    summed: dict[str, list[Statement]] = {}  # accumulator -> its statements
    blocks: list[IRStmt] = []
    sinks: dict[int, str] = {}
    for statement in statements:
        target = statement.target
        kind = "buffered" if target in buffered else "direct"
        summable = (
            target in exact
            and target not in finalizers
            and all(
                isinstance(arg, AConst) or arg.name in trigger.params
                for arg in statement.args
            )
        )
        sink = _Sink(
            kind,
            target,
            statement.args,
            caches=_caches(target, finalizers),
            sums=sums if summable else None,
        )
        blocks.append(lower_statement(statement, trigger.signature, sink, namer))
        if sink.acc is not None:
            kind = "accumulator"
            summed.setdefault(sink.acc, []).append(statement)
        sinks[id(statement)] = kind
    body: list[IRStmt] = [BufferDecl(pending_buffer(name)) for name in buffered]
    body.extend(Assign(acc, Const(0)) for acc in sums.values())
    body.extend(blocks)
    for (target, args, weighted), acc in sums.items():
        keys = tuple(
            Const(arg.value) if isinstance(arg, AConst) else Name(arg.name)
            for arg in args
        )
        value = _prod([_WEIGHT, Name(acc)] if weighted else [Name(acc)])
        if target in buffered:
            write: IRStmt = AppendTo(
                pending_buffer(target), keys, value, target=Slot(target)
            )
        else:
            write = AddTo(Slot(target), keys, value)
        body.append(
            Block(
                comments=(),
                stmts=(IfCond(Compare("!=", Name(acc), Const(0)), (write,)),),
                sources=tuple(summed[acc]),
            )
        )
    body.extend(
        FlushBuffer(pending_buffer(name), Slot(name), _caches(name, finalizers))
        for name in buffered
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
                stmts=(
                    IfCond(
                        moved[0] if len(moved) == 1 else Sum(tuple(moved)),
                        tuple(_restate_blocks(plan, namer, finalizers)),
                    ),
                ),
                sources=(),
            ),
        ]
    trigger_ir = TriggerIR(
        relation=trigger.relation,
        name=trigger.name,
        params=trigger.signature,
        body=tuple(body),
    )
    report = tuple(
        (repr(statement), sinks.get(id(statement), "second-order"))
        for statement in trigger.statements
    )
    return trigger_ir, report


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
    two formal events of this trigger's relation (of independent
    weights) decides the
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
    orders = program.delta_orders[(trigger.relation, 0)]
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
    to keep their caches current, so those caches are rebuilt."""
    blocks: list[IRStmt] = [
        Block(
            comments=(f"second-order flush: restate {target}",),
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
        _rebuild_blocks(finalizers, sorted(t for t in plan.order if t in finalizers))
    )
    return blocks


# ---------------------------------------------------------------------------
# Batch pre-aggregation (consolidating a batch before its body runs)
# ---------------------------------------------------------------------------


class Preaggregation(NamedTuple):
    """How an independent trigger folds a batch's rows before its body
    runs (:func:`plan_preaggregation`).

    ``group`` are the event parameters the body keys on; ``sums`` name
    one local per distinct product of the other (*value*) parameters,
    ``products[i]`` the names ``sums[i]`` multiplies (the event weight
    first), summed over a group's rows; ``statements`` are the trigger's,
    each reading its value product's sum where it read the product.
    ``routed`` says the group is the relation's partition column
    (:func:`repro.compiler.partition.analyze_partitioning`): a sharded
    engine then folds a long run once, at its router, and routes the
    groups (:attr:`~repro.ir.nodes.ForEachGroup.routed`).
    """

    group: tuple[str, ...]
    sums: tuple[str, ...]
    products: tuple[tuple[str, ...], ...]
    statements: list[Statement]
    routed: bool


def plan_preaggregation(
    trigger: Trigger, program: CompiledProgram, namer: _Namer
) -> Optional[Preaggregation]:
    """The pre-aggregation of an independent trigger's batch, or ``None``.

    A trigger's delta is linear in the event (DBSP: Q(ΣΔI) = ΣQ(ΔI)), so
    rows that agree on every parameter its statements key on, look up or
    test — its *group* — add up to one row carrying, per product of the
    other parameters a statement multiplies in, the sum of ``weight ×
    product``; the body then runs once per group instead of once per row.
    Applies when every map the trigger writes is exact-integer (the sums
    reorder additions) and keeps no MIN/MAX/DISTINCT cache, and the group
    has at most one column, which is not FLOAT (one group holds equal
    values, which ``0.0``/``-0.0`` are without being the same key).  Every
    statement must multiply the event weight in once, as a bare factor.
    The caller has checked that the trigger is independent
    (:func:`_independent`): every row of a batch sees the same maps.
    """
    written = {s.target for s in trigger.statements}
    if (
        not trigger.statements
        or not written <= exact_int_maps(program)
        or written & program.finalizers.keys()
    ):
        return None
    params = set(trigger.params)
    group: set[str] = set()
    shapes = []
    for statement in trigger.statements:
        expanded = monomials(statement.rhs)
        if len(expanded) != 1:
            return None
        coeff, factors = expanded[0]
        value: list[str] = []
        rest: list[Expr] = []
        for factor in factors:
            if isinstance(factor, Var) and (
                factor.name in params or factor.name == WEIGHT
            ):
                value.append(factor.name)
            else:
                rest.append(factor)
                group |= used_vars(factor) & params
        if value.count(WEIGHT) != 1 or any(WEIGHT in used_vars(f) for f in rest):
            return None
        for arg in statement.args:
            group |= used_vars(arg) & params
        shapes.append((statement, coeff, factors, value))
    floats = float_columns(program.columns).get(trigger.relation, frozenset())
    if len(group) > 1 or any(trigger.params.index(p) in floats for p in group):
        return None
    sums: dict[tuple[str, ...], str] = {}
    products: dict[str, tuple[str, ...]] = {}
    statements = []
    for statement, coeff, factors, value in shapes:
        product = (WEIGHT, *(n for n in value if n != WEIGHT and n not in group))
        name = sums.get(tuple(sorted(product)))
        if name is None:
            name = sums[tuple(sorted(product))] = namer.fresh("sum")
            products[name] = product
        # The sum stands where the weight stood; a group parameter stays.
        kept = [
            Var(name) if factor == Var(WEIGHT) else factor
            for factor in factors
            if not (isinstance(factor, Var) and factor.name in product[1:])
        ]
        rhs = alg_mul(AConst(coeff), *kept)
        statements.append(
            Statement(statement.target, statement.args, rhs, statement.loop_vars)
        )
    grouped = tuple(p for p in trigger.params if p in group)
    column = analyze_partitioning(program).relation_columns.get(trigger.relation)
    return Preaggregation(
        grouped,
        tuple(products),
        tuple(products.values()),
        statements,
        column is not None and grouped == (trigger.params[column],),
    )


def _accumulates(
    statement: Statement,
    trigger: Trigger,
    patterns: dict[str, set[tuple[int, ...]]],
    finalizers: dict,
) -> bool:
    """Whether a batch-independent statement accumulates its batch delta
    locally before touching the target map.

    Always worthwhile for scalar targets (a local add per row).  Keyed
    targets accumulate when keys are expected to repeat across the batch
    (fewer key positions than event parameters — group-by style) or when
    the target maintains secondary indexes (hoists index maintenance out
    of the row loop); occurrence-style maps keyed by the whole event tuple
    apply directly, and so does a map keeping MIN/MAX/DISTINCT caches
    (each key crossing zero updates them in stream order).
    """
    if not statement.args:
        return True
    if statement.target in finalizers:
        return False
    if patterns.get(statement.target):
        return True
    return len(statement.args) < len(trigger.params)


def _keyed_by(statement: Statement, group: tuple[str, ...]) -> bool:
    """Whether ``statement`` writes under a key of the group's parameters
    (and constants) alone."""
    names = [arg.name for arg in statement.args if isinstance(arg, Var)]
    return bool(names) and set(names) <= set(group)


def _stage(stmts, accs: dict[str, str]) -> tuple[IRStmt, ...]:
    """``stmts`` with every write to a target in ``accs`` sent to its
    batch accumulator: a keyed write stages through ``AddTo.acc``, a
    scalar one adds to the accumulator's local sum."""
    out: list[IRStmt] = []
    for stmt in stmts:
        if isinstance(stmt, AddTo) and stmt.slot.name in accs:
            acc = accs[stmt.slot.name]
            if stmt.keys:
                full = tuple(range(len(stmt.keys)))
                key_locals = tuple(kl for kl in stmt.key_locals if kl[0] == full)
                stmt = AddTo(
                    stmt.slot, stmt.keys, stmt.value, acc=acc, key_locals=key_locals
                )
            else:
                stmt = Accum(acc, stmt.value)
        elif stmt_children(stmt):
            stmt = with_body(stmt, _stage(stmt_children(stmt), accs))
        out.append(stmt)
    return tuple(out)


def lower_trigger_batch(
    trigger: Trigger,
    rows: TriggerIR,
    patterns: dict[str, set[tuple[int, ...]]],
    finalizers: dict,
    independent: bool,
    plan: Optional[SecondOrderPlan],
    namer: _Namer,
    grouped: Optional[Preaggregation] = None,
) -> tuple[TriggerIR, tuple[tuple[str, str], ...]]:
    """The batch trigger body: ``rows``, the (optimised) per-event body
    of the statements each row runs, in a row loop.

    By linearity a batch's delta is the sum of its rows' deltas, so a row
    does exactly a per-event call's work: loop sums in locals, each
    target written once.  Only a target whose batch delta is worth
    accumulating (:func:`_accumulates`) has its writes staged: a keyed
    one in a local map merged once after the loop, a scalar one in a
    local sum written once after it.  The shapes differ only in which
    statements may stage:

    * an ``independent`` trigger (no statement reads a map the trigger
      changes — :func:`_independent`): all of them;
    * a *self-reading* trigger with a :class:`SecondOrderPlan`: the
      first-order ``plan.base`` (``rows`` runs only those), and the
      order-2 targets are restated once after the merges;
    * any other: none — the per-event body once per row (reported as
      ``per-row``/``buffered``), as for an independent trigger in which
      nothing accumulates.

    An independent trigger with a :class:`Preaggregation` (``grouped``)
    first folds the batch into one entry per group, and ``rows`` is the
    body over ``grouped.statements`` run once per group
    (:class:`~repro.ir.nodes.ForEachGroup`, every statement reported as
    ``grouped``): a write keyed by the group alone is direct, since no
    other group writes its key, and so is every write of a body that runs
    once (an empty group).  A ``routed`` plan's loop is a routed one: the
    fold and the rest of the body are the trigger's two entries.

    Returns the trigger IR plus the per-statement sink report.
    """
    name = f"{trigger.name}_batch"
    params = trigger.signature
    if not trigger.statements:
        return TriggerIR(trigger.relation, name, params, ()), ()

    if plan is not None:
        statements = plan.base
    elif grouped is not None:
        statements = grouped.statements
    else:
        statements = trigger.statements if independent else []
    accs: dict[str, str] = {}
    writers: dict[str, list[Statement]] = {}
    for position, statement in enumerate(statements):
        if grouped is not None and (
            not grouped.group or _keyed_by(statement, grouped.group)
        ):
            continue
        if _accumulates(statement, trigger, patterns, finalizers):
            accs.setdefault(statement.target, f"__b{position}")
            writers.setdefault(statement.target, []).append(statement)

    decls: list[IRStmt] = []
    merges: list[IRStmt] = []
    for target, acc in accs.items():
        arity = len(writers[target][0].args)
        if arity:
            decls.append(LocalMapDecl(acc, arity=arity))
            merge: IRStmt = MergeInto(Slot(target), acc)
        else:
            decls.append(Assign(acc, Const(0)))
            flush = AddTo(Slot(target), (), Name(acc))
            merge = IfCond(Compare("!=", Name(acc), Const(0)), (flush,))
        merges.append(Block((), (merge,), tuple(writers[target])))
    staged = _stage(rows.body, accs)
    if grouped is None:
        loop: IRStmt = ForEachRow("__cols", params, staged)
    else:
        values = tuple(_prod(list(map(Name, names))) for names in grouped.products)
        loop = ForEachGroup(
            "__cols",
            params,
            grouped.group,
            grouped.sums,
            values,
            staged,
            grouped.routed,
        )
    body = [*decls, loop, *merges]
    if plan is not None:
        body.extend(_restate_blocks(plan, namer, finalizers))

    if grouped is not None:
        sinks = {id(s): "grouped" for s in trigger.statements}
    elif plan is None and not accs:
        fallback = "per-row"
        if needs_buffering(trigger.statements, finalizers):
            fallback = "buffered"
        sinks = {id(s): fallback for s in trigger.statements}
    else:
        sinks = {
            id(s): "accumulator" if s.target in accs else "direct"
            for s in statements
        }
    report = tuple(
        (repr(s), sinks.get(id(s), "second-order")) for s in trigger.statements
    )
    return TriggerIR(trigger.relation, name, params, tuple(body)), report


def router_folds(program: CompiledProgram, ir: ProgramIR) -> dict[str, str]:
    """{relation: what its routed fold does}, for each relation whose
    batch trigger folds a long run once at a sharded engine's router
    (:attr:`Preaggregation.routed`): the column it groups on and its
    number of sums."""
    notes = {}
    for key, trigger_ir in sorted(ir.batch_triggers.items()):
        loop = routed_group(trigger_ir.body)
        if loop is not None:
            relation = key[0]
            position = program.triggers[key].params.index(loop.group[0])
            column = program.columns[relation][position].name
            sums = len(loop.sums)
            notes[relation] = (
                f"a long run folds at the router on {column} "
                f"({sums} sum{'s' if sums != 1 else ''})"
            )
    return notes


def collect_patterns_ir(triggers) -> dict[str, set[tuple[int, ...]]]:
    """Access patterns needing secondary indexes, from the lowered loops.

    A pattern is the sorted tuple of key positions a partially-bound map
    loop filters on — real DBToaster's in/out patterns.  Loops whose
    filters reference the key tuple itself (repeated loop variables) scan.
    """
    patterns: dict[str, set[tuple[int, ...]]] = {}
    for trigger_ir in triggers:
        for stmt in walk_stmts(trigger_ir.body):
            if not isinstance(stmt, ForEachMap):
                continue
            if not stmt.binds or not stmt.filters:
                continue
            if any(isinstance(expr, KeyAt) for _, expr in stmt.filters):
                continue
            patterns.setdefault(stmt.slot.name, set()).add(stmt.pattern)
    return patterns


def lower_program(program: CompiledProgram, optimize: bool = True) -> ProgramIR:
    """Lower (and optionally optimise) a whole compiled program.

    Each batch body wraps the optimised per-event body of the statements
    its rows run (:func:`lower_trigger_batch`): the trigger's own, its
    second-order plan's first-order statements, or its statements over a
    group's sums (:func:`plan_preaggregation`), lowered and optimised
    alongside.  Where a trigger's plan can be guarded on an extremum
    cache (:func:`lower_trigger`) its per-event body uses the plan too.

    The result is cached on the program object: every back end asking for
    the same passes (``DEFAULT_PASSES``, or none) shares one ProgramIR.
    """
    from repro.ir.optimize import DEFAULT_PASSES, optimize_program

    wanted = DEFAULT_PASSES if optimize else ()
    cache = program.__dict__.setdefault("_ir_cache", {})
    cached = cache.get(wanted)
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
    rows: dict[tuple[str, int], TriggerIR] = {}
    event_sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = {}
    namers: dict[tuple[str, int], _Namer] = {}
    # Per trigger, decided once for both variants: whether its events are
    # independent of each other, and then its pre-aggregation, or else its
    # second-order plan.
    shapes: dict[tuple[str, int], tuple] = {}
    for key, trigger in program.triggers.items():
        namers[key] = _Namer()
        independent = _independent(trigger, finalizers)
        plan = None if independent else plan_second_order(trigger, program)
        triggers[key], event_sinks[key] = lower_trigger(
            trigger, namers[key], finalizers, plan, exact
        )
        grouped = None
        if independent:
            grouped = plan_preaggregation(trigger, program, namers[key])
        shapes[key] = independent, plan, namers[key], grouped
        # What a batch row runs: the per-event body itself (the same
        # object, so the optimiser runs it once), the plan's base, or the
        # body over a group's sums.
        rows[key] = triggers[key]
        base = None
        if grouped is not None:
            params = (*grouped.group, *grouped.sums)
            base = Trigger(trigger.relation, params, grouped.statements)
        elif plan is not None:
            base = Trigger(trigger.relation, trigger.params, plan.base)
        if base is not None:
            rows[key], _ = lower_trigger(base, namers[key], finalizers, exact=exact)

    ir = ProgramIR(
        maps=maps,
        triggers=triggers,
        batch_triggers=rows,
        passes=(),
        event_sinks=event_sinks,
    )
    # The access patterns of the lowered loops: the optimiser moves and
    # merges loops, and adds none.
    patterns = collect_patterns_ir(triggers.values())
    if wanted:
        ir = optimize_program(ir, program, wanted, patterns=patterns)

    batch: dict[tuple[str, int], TriggerIR] = {}
    sinks: dict[tuple[str, int], tuple[tuple[str, str], ...]] = {}
    for key, trigger in program.triggers.items():
        batch[key], sinks[key] = lower_trigger_batch(
            trigger, ir.batch_triggers[key], patterns, finalizers, *shapes[key]
        )
    ir.batch_triggers = batch
    ir.batch_sinks = sinks
    if wanted:
        ir = optimize_program(ir, program, wanted, batch_only=True, patterns=patterns)
    cache[wanted] = ir
    return ir


def lower_for(program: CompiledProgram, options: ExecutorOptions) -> ProgramIR:
    """:func:`lower_program` under an executor's options — the IR every
    back end built from ``options`` renders, walks or analyses."""
    return lower_program(program, optimize=options.optimize)
