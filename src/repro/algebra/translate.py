"""Translation from bound SQL to the map algebra.

The output of translation is a :class:`TranslatedQuery`: one calculus
expression per *aggregate slot* plus a small result-expression tree that the
view layer evaluates to produce final rows.  Design decisions that matter:

* **Equijoin unification** — conjunctive ``a.x = b.y`` predicates unify the
  two column variables into one (and ``a.x = 3`` pins the variable to a
  constant inside the relation atom).  This is what makes the compiler's
  materialised maps keyed for O(1) lookups instead of scans, reproducing the
  map shapes of the paper's Figure 2.
* **Aggregate expansion** — ``avg`` becomes a sum slot and a count slot
  divided in the view layer; ``min``/``max`` become occurrence-count maps
  keyed by (group, value), from which the view extracts the extreme value
  (exactly how production DBToaster handles non-invertible aggregates).
  A grouped occurrence map keeps only the join component carrying the
  argument (:func:`factor_occurrence`): the count slot gates every row.
* **Hidden count slot** — every grouped query gets an implicit ``count(*)``
  slot so group existence under deletions is exact (a group vanishes when
  its row count reaches zero, even if visible sums happen to be zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import TranslationError
from repro.algebra.expr import (
    AggSum,
    Cmp,
    Const,
    Div,
    Exists,
    Expr,
    FreshNamer,
    Lift,
    Mul,
    Rel,
    Var,
    ONE,
    ZERO,
    add,
    mul,
    neg,
    relations_in,
    used_vars,
)
from repro.algebra.schema import output_vars
from repro.sql.ast import (
    AggregateCall,
    Arith,
    BetweenExpr,
    BoolOp,
    ColumnRef,
    Comparison,
    ExistsExpr,
    InExpr,
    Literal,
    Not,
    ScalarSubquery,
    SelectQuery,
    SqlExpr,
    Star,
    UnaryMinus,
)
from repro.sql.binder import BoundQuery, bind_query
from repro.sql.catalog import Catalog


# ---------------------------------------------------------------------------
# Result expressions (evaluated by the view layer over the maintained maps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RSlot:
    """The value of aggregate slot ``index`` for the current group."""

    index: int


@dataclass(frozen=True)
class RGroup:
    """The value of group-by column ``index`` of the current group key."""

    index: int


@dataclass(frozen=True)
class RConst:
    value: Union[int, float, str]


@dataclass(frozen=True)
class RBin:
    op: str  # + - * /
    left: "ResultExpr"
    right: "ResultExpr"


@dataclass(frozen=True)
class RNeg:
    operand: "ResultExpr"


ResultExpr = Union[RSlot, RGroup, RConst, RBin, RNeg]


def eval_result(expr: ResultExpr, group_key: tuple, slot_values: list) -> object:
    """Evaluate a result expression given a group key and slot values."""
    if isinstance(expr, RSlot):
        return slot_values[expr.index]
    if isinstance(expr, RGroup):
        return group_key[expr.index]
    if isinstance(expr, RConst):
        return expr.value
    if isinstance(expr, RNeg):
        return -eval_result(expr.operand, group_key, slot_values)  # type: ignore
    left = eval_result(expr.left, group_key, slot_values)
    right = eval_result(expr.right, group_key, slot_values)
    if expr.op == "+":
        return left + right  # type: ignore[operator]
    if expr.op == "-":
        return left - right  # type: ignore[operator]
    if expr.op == "*":
        return left * right  # type: ignore[operator]
    if expr.op == "/":
        return 0 if right == 0 else left / right  # type: ignore[operator]
    raise TranslationError(f"unknown result operator {expr.op!r}")


# ---------------------------------------------------------------------------
# Aggregate slots
# ---------------------------------------------------------------------------


@dataclass
class AggregateSpec:
    """One maintained aggregate: a closed calculus query.

    ``kind`` is ``"sum"`` for invertible aggregates (sum/count and the
    components of avg) whose map directly stores the aggregate value, or
    ``"min"``/``"max"``/``"distinct"`` for occurrence-count maps keyed by
    ``group_vars + (value_var,)`` from which the extreme value (min/max)
    or the number of distinct present values (count-distinct) is derived.
    A grouped query's occurrence map is kept over the join component
    carrying the argument only (:func:`factor_occurrence`); ``dropped``
    names the relations it left out, ``()`` when it keeps the whole body.
    """

    name: str
    kind: str  # "sum" | "min" | "max" | "distinct"
    expr: Expr
    group_vars: tuple[str, ...]
    value_var: Optional[str] = None  # non-sum kinds: the lifted value variable
    dropped: tuple[str, ...] = ()  # relations the occurrence map factored out


@dataclass
class TranslatedItem:
    name: str
    result: ResultExpr


@dataclass
class TranslatedQuery:
    """Everything the engines need to maintain and render one SQL query."""

    name: str
    group_names: tuple[str, ...]
    group_vars: tuple[str, ...]
    items: list[TranslatedItem]
    aggregates: list[AggregateSpec]
    relations: tuple[str, ...]
    count_slot: Optional[int]  # count(*) slot index; None for scalar queries
    sql: Optional[str] = None

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(item.name for item in self.items)

    @property
    def is_grouped(self) -> bool:
        return bool(self.group_vars)


def translate_sql(
    sql: str, catalog: Catalog, name: str = "q"
) -> TranslatedQuery:
    """Parse, bind and translate a SQL string in one step."""
    from repro.sql.parser import parse_query

    bound = bind_query(parse_query(sql), catalog)
    translated = translate_query(bound, name=name)
    translated.sql = sql
    return translated


def translate_query(bound: BoundQuery, name: str = "q") -> TranslatedQuery:
    """Translate a bound query into aggregate slots + result expressions."""
    translator = _Translator(bound)
    return translator.translate(name)


# ---------------------------------------------------------------------------
# Implementation
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over column variables, tracking pinned constants."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._constant: dict[str, Const] = {}
        self._rank: dict[str, int] = {}

    def add(self, var: str, rank: int = 0) -> None:
        if var not in self._parent:
            self._parent[var] = var
            self._rank[var] = rank

    def find(self, var: str) -> str:
        root = var
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[var] != root:
            self._parent[var], var = root, self._parent[var]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # The higher-ranked variable (outer scope) becomes the representative.
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        const = self._constant.pop(rb, None)
        if const is not None:
            self.pin(ra, const)

    def pin(self, var: str, value: Const) -> bool:
        """Pin a class to a constant; returns False on contradiction."""
        root = self.find(var)
        existing = self._constant.get(root)
        if existing is not None and existing != value:
            return False
        self._constant[root] = value
        return True

    def term_for(self, var: str) -> Expr:
        root = self.find(var)
        return self._constant.get(root, Var(root))


@dataclass
class _Scope:
    """Variable bindings for one query level."""

    vars: dict[tuple[str, str], str]  # (binding, column-lower) -> variable
    parent: Optional["_Scope"] = None

    def lookup(self, binding: str, column: str, depth: int) -> str:
        scope: Optional[_Scope] = self
        for _ in range(depth):
            if scope is None:
                break
            scope = scope.parent
        if scope is None:
            raise TranslationError(f"no scope at depth {depth} for {binding}.{column}")
        try:
            return scope.vars[(binding, column.lower())]
        except KeyError:
            raise TranslationError(
                f"unresolved column {binding}.{column}"
            ) from None


class _Translator:
    def __init__(self, bound: BoundQuery) -> None:
        self.bound = bound
        self.namer = FreshNamer("t")
        self.uf = _UnionFind()
        self.contradiction = False

    def translate(self, name: str) -> TranslatedQuery:
        query = self.bound.query
        body, scope = self._translate_from_where(query, parent_scope=None, depth_rank=1)

        # Group-by columns resolve to representative variables.
        group_vars: list[str] = []
        group_names: list[str] = []
        group_index_of: dict[tuple[str, str], int] = {}
        for col in query.group_by:
            resolution = self.bound.resolve(col)
            var = scope.lookup(resolution.binding, resolution.column, resolution.depth)
            term = self.uf.term_for(var)
            if not isinstance(term, Var):
                # Pinned to a constant: the group column is constant; keep a
                # variable lifted to the constant so the key column survives.
                fresh = self.namer.fresh(var)
                body = mul(body, Lift(fresh, term))
                term = Var(fresh)
            if term.name not in group_vars:
                group_vars.append(term.name)
            group_index_of[(resolution.binding, resolution.column.lower())] = (
                group_vars.index(term.name)
            )
            group_names.append(col.column.lower())

        specs: list[AggregateSpec] = []
        items: list[TranslatedItem] = []
        used_names: set[str] = set()

        def add_spec(spec: AggregateSpec) -> int:
            if spec.name in used_names:
                suffix = 2
                while f"{spec.name}_{suffix}" in used_names:
                    suffix += 1
                spec.name = f"{spec.name}_{suffix}"
            used_names.add(spec.name)
            specs.append(spec)
            return len(specs) - 1

        gv = tuple(group_vars)

        def finalize(value: Expr) -> Expr:
            inner = body if value == ONE else mul(body, value)
            return AggSum(gv, inner)

        for info, item in zip(self.bound.item_info, query.items):
            if not info.is_aggregate:
                resolution = self.bound.resolve(item.expr)  # type: ignore[arg-type]
                index = group_index_of[
                    (resolution.binding, resolution.column.lower())
                ]
                items.append(TranslatedItem(info.name, RGroup(index)))
                continue
            result = self._translate_item_expr(
                item.expr, scope, add_spec, finalize, gv, info.name
            )
            items.append(TranslatedItem(info.name, result))

        # Hidden count(*) slot: grouped queries need exact group existence
        # under deletions.  Scalar queries always have exactly one result row,
        # so no extra map is maintained for them (an existing count is reused
        # either way).
        count_slot = None
        for index, spec in enumerate(specs):
            if spec.kind == "sum" and spec.expr == finalize(ONE):
                count_slot = index
                break
        if count_slot is None and gv:
            count_slot = add_spec(
                AggregateSpec(
                    name="__count", kind="sum", expr=finalize(ONE), group_vars=gv
                )
            )

        if self.contradiction:
            # An always-false equality: every slot is the empty aggregate.
            for spec in specs:
                spec.expr = AggSum(gv, ZERO) if gv else AggSum((), ZERO)
                spec.dropped = ()

        return TranslatedQuery(
            name=name,
            group_names=tuple(group_names),
            group_vars=gv,
            items=items,
            aggregates=specs,
            relations=tuple(sorted(self.bound.relations_used)),
            count_slot=count_slot,
        )

    # -- FROM/WHERE -------------------------------------------------------

    def _translate_from_where(
        self,
        query: SelectQuery,
        parent_scope: Optional[_Scope],
        depth_rank: int,
    ) -> tuple[Expr, _Scope]:
        """Build the join body for one query level.

        ``depth_rank`` orders union-find representatives so outer-scope
        variables win over inner (correlated) ones.
        """
        scope_vars: dict[tuple[str, str], str] = {}
        for table in query.tables:
            relation = self.bound.catalog.get(table.name)
            binding = table.binding.lower()
            for column in relation.columns:
                var = self.namer.fresh(f"{binding}_{column.name.lower()}")
                scope_vars[(binding, column.name.lower())] = var
                self.uf.add(var, rank=depth_rank)
        scope = _Scope(vars=scope_vars, parent=parent_scope)

        conjuncts = _split_conjuncts(query.where)
        residual: list[SqlExpr] = []
        for conjunct in conjuncts:
            if not self._try_unify(conjunct, scope):
                residual.append(conjunct)

        atoms: list[Expr] = []
        for table in query.tables:
            relation = self.bound.catalog.get(table.name)
            binding = table.binding.lower()
            args = tuple(
                self.uf.term_for(scope_vars[(binding, column.name.lower())])
                for column in relation.columns
            )
            atoms.append(Rel(relation.name, args))

        predicates = [self._translate_predicate(p, scope) for p in residual]
        return mul(*atoms, *predicates), scope

    def _try_unify(self, conjunct: SqlExpr, scope: _Scope) -> bool:
        """Absorb ``col = col`` and ``col = literal`` equalities.

        Only columns of the *current* scope participate: correlated
        equalities stay as residual comparison factors (the simplifier's
        equality propagation later pushes them into atoms where legal),
        because outer-scope atoms are already built when subqueries
        translate.
        """
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            return False
        left, right = conjunct.left, conjunct.right

        def var_of(node: SqlExpr) -> Optional[str]:
            if not isinstance(node, ColumnRef):
                return None
            resolution = self.bound.resolve(node)
            if resolution.depth != 0:
                return None
            return scope.lookup(resolution.binding, resolution.column, resolution.depth)

        lvar, rvar = var_of(left), var_of(right)
        if lvar is not None and rvar is not None:
            self.uf.union(lvar, rvar)
            return True
        if lvar is not None and isinstance(right, Literal):
            if not self.uf.pin(lvar, Const(right.value)):
                self.contradiction = True
            return True
        if rvar is not None and isinstance(left, Literal):
            if not self.uf.pin(rvar, Const(left.value)):
                self.contradiction = True
            return True
        return False

    # -- predicates ---------------------------------------------------------

    def _translate_predicate(self, expr: SqlExpr, scope: _Scope) -> Expr:
        """Translate a boolean SQL expression to a 0/1-valued factor."""
        if isinstance(expr, Comparison):
            return Cmp(
                expr.op,
                self._translate_scalar(expr.left, scope),
                self._translate_scalar(expr.right, scope),
            )
        if isinstance(expr, BetweenExpr):
            operand = self._translate_scalar(expr.operand, scope)
            return mul(
                Cmp(">=", operand, self._translate_scalar(expr.low, scope)),
                Cmp("<=", operand, self._translate_scalar(expr.high, scope)),
            )
        if isinstance(expr, BoolOp) and expr.op == "AND":
            factors = []
            for operand in expr.operands:
                factors.append(self._translate_predicate(operand, scope))
            return mul(*factors)
        if isinstance(expr, BoolOp) and expr.op == "OR":
            return Exists(add(*(self._translate_predicate(o, scope) for o in expr.operands)))
        if isinstance(expr, Not):
            inner = self._translate_predicate(expr.operand, scope)
            return add(ONE, neg(inner))
        if isinstance(expr, ExistsExpr):
            sub_body, _ = self._translate_from_where(
                expr.query, parent_scope=scope, depth_rank=0
            )
            return Exists(AggSum((), sub_body))
        if isinstance(expr, InExpr):
            sub_body, sub_scope = self._translate_from_where(
                expr.query, parent_scope=scope, depth_rank=0
            )
            item = expr.query.items[0].expr
            member = self._translate_scalar(item, sub_scope)
            needle = self._translate_scalar(expr.needle, scope)
            return Exists(AggSum((), mul(sub_body, Cmp("=", member, needle))))
        raise TranslationError(f"unsupported predicate {expr!r}")

    # -- scalars ------------------------------------------------------------

    def _translate_scalar(self, expr: SqlExpr, scope: _Scope) -> Expr:
        if isinstance(expr, Literal):
            return Const(expr.value)
        if isinstance(expr, ColumnRef):
            resolution = self.bound.resolve(expr)
            var = scope.lookup(resolution.binding, resolution.column, resolution.depth)
            return self.uf.term_for(var)
        if isinstance(expr, UnaryMinus):
            return neg(self._translate_scalar(expr.operand, scope))
        if isinstance(expr, Arith):
            left = self._translate_scalar(expr.left, scope)
            right = self._translate_scalar(expr.right, scope)
            if expr.op == "+":
                return add(left, right)
            if expr.op == "-":
                return add(left, neg(right))
            if expr.op == "*":
                return mul(left, right)
            if expr.op == "/":
                return Div(left, right)
            raise TranslationError(f"unknown arithmetic operator {expr.op!r}")
        if isinstance(expr, ScalarSubquery):
            sub = expr.query
            sub_body, sub_scope = self._translate_from_where(
                sub, parent_scope=scope, depth_rank=0
            )
            agg = sub.items[0].expr
            if not isinstance(agg, AggregateCall):
                raise TranslationError(
                    "scalar subqueries must select a single aggregate"
                )
            if agg.func not in ("SUM", "COUNT"):
                raise TranslationError(
                    f"only sum/count scalar subqueries are supported, got {agg.func}"
                )
            if agg.distinct:
                raise TranslationError(
                    f"{agg.func}(DISTINCT ...) scalar subqueries are not "
                    "supported; SUM, COUNT(*) and COUNT(col) are"
                )
            # Engine columns are never NULL: COUNT(col) counts every row,
            # as COUNT(*) does.
            if agg.func == "COUNT" or isinstance(agg.argument, Star):
                value: Expr = ONE
            else:
                value = self._translate_scalar(agg.argument, sub_scope)
            inner = sub_body if value == ONE else mul(sub_body, value)
            return AggSum((), inner)
        raise TranslationError(f"unsupported scalar expression {expr!r}")

    # -- select items ---------------------------------------------------------

    def _translate_item_expr(
        self, expr: SqlExpr, scope, add_spec, finalize, gv, item_name: str
    ) -> ResultExpr:
        """Translate a select item over aggregates into a result tree."""
        if isinstance(expr, Literal):
            return RConst(expr.value)
        if isinstance(expr, UnaryMinus):
            return RNeg(self._translate_item_expr(expr.operand, scope, add_spec, finalize, gv, item_name))
        if isinstance(expr, Arith):
            left = self._translate_item_expr(expr.left, scope, add_spec, finalize, gv, item_name)
            right = self._translate_item_expr(expr.right, scope, add_spec, finalize, gv, item_name)
            return RBin(expr.op, left, right)
        if isinstance(expr, AggregateCall):
            func = expr.func
            slot_base = (
                item_name
                if isinstance(expr, AggregateCall) and item_name
                else func.lower()
            )
            if expr.distinct or func in ("MIN", "MAX"):
                # MIN/MAX and COUNT(DISTINCT x): an occurrence map keyed
                # (group..., value) → multiplicity, from which the extreme
                # value or the number of keys with non-zero multiplicity
                # per group is derived.  Structural map sharing makes
                # MIN(x)/MAX(x)/COUNT(DISTINCT x) over the same body
                # maintain one shared occurrence map.
                kind = "distinct" if expr.distinct else func.lower()
                value = self._translate_scalar(expr.argument, scope)
                value_var = self.namer.fresh("dval" if expr.distinct else "mval")
                lift = Lift(value_var, value)
                kept, dropped = factor_occurrence(finalize(ONE).body, gv, lift)
                index = add_spec(
                    AggregateSpec(
                        name=slot_base,
                        kind=kind,
                        expr=AggSum(gv + (value_var,), mul(kept, lift)),
                        group_vars=gv,
                        value_var=value_var,
                        dropped=dropped,
                    )
                )
                return RSlot(index)
            if func in ("SUM", "COUNT"):
                # COUNT(col) is COUNT(*): engine columns are never NULL.
                if func == "COUNT" or isinstance(expr.argument, Star):
                    value: Expr = ONE
                else:
                    value = self._translate_scalar(expr.argument, scope)
                index = add_spec(
                    AggregateSpec(
                        name=slot_base, kind="sum", expr=finalize(value), group_vars=gv
                    )
                )
                return RSlot(index)
            if func == "AVG":
                value = self._translate_scalar(expr.argument, scope)
                sum_index = add_spec(
                    AggregateSpec(
                        name=f"{slot_base}_sum",
                        kind="sum",
                        expr=finalize(value),
                        group_vars=gv,
                    )
                )
                count_index = add_spec(
                    AggregateSpec(
                        name=f"{slot_base}_cnt",
                        kind="sum",
                        expr=finalize(ONE),
                        group_vars=gv,
                    )
                )
                return RBin("/", RSlot(sum_index), RSlot(count_index))
            raise TranslationError(
                f"unsupported aggregate {func}; supported aggregates are "
                "SUM, COUNT, AVG, MIN, MAX and COUNT(DISTINCT ...)"
            )
        if isinstance(expr, ColumnRef):
            resolution = self.bound.resolve(expr)
            var = scope.lookup(resolution.binding, resolution.column, resolution.depth)
            rep = self.uf.find(var)
            if rep in gv:
                return RGroup(gv.index(rep))
            raise TranslationError(f"non-grouped column {expr!r} in select item")
        raise TranslationError(f"unsupported select item {expr!r}")


def factor_occurrence(
    body: Expr, group: tuple[str, ...], lift: Lift
) -> tuple[Expr, tuple[str, ...]]:
    """The part of a grouped query's join ``body`` an occurrence map of
    ``lift`` keeps, and the relations it drops.

    The factors of ``body`` fall into components linked by the variables
    they share outside ``group``.  A component holding a relation and not
    linked to the lift's argument is dropped: with ``body = A × B`` and
    the lift in ``B``, a group's count is ``Σ_g A × Σ_g B``, so on every
    group the count slot renders ``Σ_g A ≠ 0``, and ``AggSum(g + (v,),
    A × B)`` has the support of ``AggSum(g + (v,), B)``.  A factor holding
    no relation and reading only group columns stays (a test on the group
    costs no map).  ``body`` stays whole when the query is ungrouped (no
    count gates its row), when the argument reads only group columns, or
    when what is kept would not bind every group column.
    """
    grouped = frozenset(group)
    reach = used_vars(lift.body) - grouped
    if not group or not reach:
        return body, ()
    factors = body.factors if isinstance(body, Mul) else (body,)
    keep = [
        not relations_in(factor) and used_vars(factor) <= grouped
        for factor in factors
    ]
    for component in join_components(factors, grouped):
        names = frozenset().union(*(used_vars(factors[i]) for i in component))
        if names & reach:
            for index in component:
                keep[index] = True
    dropped = set().union(
        *(relations_in(f) for f, kept in zip(factors, keep) if not kept)
    )
    kept = mul(*(f for f, kept in zip(factors, keep) if kept))
    if not dropped or not grouped <= set(output_vars(kept)):
        return body, ()
    return kept, tuple(sorted(dropped))


def join_components(
    factors: tuple[Expr, ...], group: frozenset[str]
) -> list[list[int]]:
    """The positions of ``factors`` split into join components: two
    factors are in one component when a chain of factors links them,
    each sharing a variable outside ``group`` with the next.  A factor
    reading group columns only is a component of its own.  Components
    come in order of their first factor, each in factor order."""
    components: list[tuple[set[str], list[int]]] = []
    for index, factor in enumerate(factors):
        names = set(used_vars(factor) - group)
        members = [index]
        for linked in [c for c in components if c[0] & names]:
            components.remove(linked)
            names |= linked[0]
            members += linked[1]
        components.append((names, sorted(members)))
    return sorted((members for _, members in components), key=lambda m: m[0])


def _split_conjuncts(expr: Optional[SqlExpr]) -> list[SqlExpr]:
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "AND":
        out: list[SqlExpr] = []
        for operand in expr.operands:
            out.extend(_split_conjuncts(operand))
        return out
    return [expr]
