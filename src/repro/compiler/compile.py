"""The recursive compilation driver.

Starting from the root maps (one per aggregate slot of each query), the
driver repeatedly takes a map definition, derives its delta for every
relation's formal event, simplifies, materialises the stream-dependent
pieces as new maps, and emits one update statement per monomial.  A
stream's event has either sign: its delta is derived once, carrying the
event's weight as a variable, so one trigger serves inserts and deletes.
Newly created maps join the work queue — the recursion of the paper — until
every maintained map has triggers.  Finally each relation's statements are
dependency-ordered into its trigger.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from dataclasses import replace
from typing import Iterable, Optional

from repro.errors import CompilationError
from repro.algebra.delta import Event, delta, delta_order, event_for
from repro.algebra.expr import (
    AggSum,
    Const,
    Expr,
    Lift,
    Var,
    ZERO,
    mul,
    relations_in,
)
from repro.algebra.simplify import monomials, simplify
from repro.algebra.translate import TranslatedQuery, translate_sql
from repro.sql.catalog import Catalog
from repro.compiler.materialize import (
    Materializer,
    MapRegistry,
    column_uses,
    merge_uses,
    read_base_maps,
    read_extrema,
)
from repro.compiler.program import (
    BaseMap,
    ColumnUse,
    CompiledProgram,
    CompileOptions,
    FinalizeSpec,
    MapDef,
    Statement,
    Trigger,
    float_columns,
    order_statements,
    validate_statement,
)

_NAME_RE = re.compile(r"[^A-Za-z0-9_]+")


def _sanitize(name: str) -> str:
    return _NAME_RE.sub("_", name)


def compile_sql(
    sql: str,
    catalog: Catalog,
    name: str = "q",
    options: Optional[CompileOptions] = None,
) -> CompiledProgram:
    """Compile one SQL query end to end."""
    return compile_queries([translate_sql(sql, catalog, name=name)], catalog, options)


def compile_queries(
    queries: Iterable[TranslatedQuery],
    catalog: Catalog,
    options: Optional[CompileOptions] = None,
) -> CompiledProgram:
    """Compile a set of standing queries into one delta-processing program.

    Maps are shared across queries: two aggregate slots with structurally
    identical definitions are maintained once.
    """
    queries = list(queries)
    options = options or CompileOptions()
    registry = MapRegistry()

    slot_maps: dict[str, list[str]] = {}
    # (query, slot index, occurrence map, kind) for non-linear slots;
    # their auxiliary maps are registered once triggers are final.
    aux_requests: list[tuple[str, int, str, str]] = []
    for query in queries:
        names: list[str] = []
        for index, spec in enumerate(query.aggregates):
            defn = spec.expr
            if not isinstance(defn, AggSum):
                raise CompilationError(
                    f"aggregate slot {spec.name!r} is not an AggSum: {defn!r}"
                )
            root_name = _sanitize(f"q_{query.name}_{spec.name}")
            map_def = registry.register_root(
                root_name,
                defn.group,
                defn.body,
                description=f"{query.name}.{spec.name}",
            )
            names.append(map_def.name)
            if spec.kind in ("min", "max", "distinct"):
                aux_requests.append((query.name, index, map_def.name, spec.kind))
        slot_maps[query.name] = names

    all_relations = {rel for query in queries for rel in query.relations}
    columns = {rel: tuple(catalog.get(rel).columns) for rel in sorted(all_relations)}

    # One formal event per relation: of either sign on a stream, an
    # insert on a static table.
    events: dict[str, Event] = {
        rel: event_for(
            rel,
            catalog.get(rel).column_names,
            0 if catalog.get(rel).is_stream else 1,
        )
        for rel in all_relations
    }
    statements: dict[str, list[Statement]] = defaultdict(list)
    delta_orders: dict[tuple[str, int], dict[str, int]] = defaultdict(dict)
    compiled: set[str] = set()
    # Whole simplifications and single rule passes (``simplify``'s memo),
    # kept for this compile only: one program's deltas repeat subterms
    # (and maps may share a definition, deltas a second-order term), but
    # nothing learned here is reused by another compile.
    simplified: dict[tuple[Expr, tuple[str, ...]], Expr] = {}
    passes: dict = {}

    def simplify_once(expr: Expr, bound: tuple[str, ...]) -> Expr:
        """:func:`simplify`, once per distinct ``(expr, bound)``."""
        key = (expr, bound)
        result = simplified.get(key)
        if result is None:
            result = simplified[key] = simplify(expr, bound, passes)
        return result

    def compile_pending() -> None:
        """Derive triggers for every registered-but-uncompiled map — and
        for the maps *their* deltas materialise (the paper's recursion)."""
        queue: deque[MapDef] = deque(registry.take_pending())
        while queue:
            map_def = queue.popleft()
            if map_def.name in compiled:
                continue
            compiled.add(map_def.name)
            map_relations = relations_in(map_def.defn)
            static_only = all(
                not catalog.get(r).is_stream for r in map_relations
            )
            for rel_name in sorted(map_relations):
                relation = catalog.get(rel_name)
                if not relation.is_stream and not static_only:
                    # Static tables are loaded before any stream event
                    # arrives; while loading, every stream-dependent map is
                    # identically zero, so mixed maps need no static-table
                    # triggers.  Only maps defined purely over static tables
                    # are maintained during the load phase.
                    continue
                event = events[rel_name]
                d = simplify_once(delta(map_def.defn, event), event.bound)
                if d == ZERO:
                    continue
                # Classified now, while the delta is at hand: the
                # second-order batch planner reads only the order.
                delta_orders[(rel_name, 0)][map_def.name] = delta_order(
                    d, event, simplify_once
                )
                materializer = Materializer(
                    registry,
                    bound=event.bound,
                    derived_maps=options.derived_maps,
                )
                for coeff, factors in monomials(d):
                    statement = _build_statement(
                        map_def, coeff, factors, materializer
                    )
                    statements[rel_name].append(statement)
                for new_map in registry.take_pending():
                    new_map.level = map_def.level + 1
                    queue.append(new_map)

    compile_pending()
    base_maps = _read_through_base_maps(
        statements, events, registry, catalog, float_columns(columns),
        narrow=options.derived_maps,
    )
    compile_pending()

    # Non-linear auxiliary maps: one per (occurrence map, kind), shared
    # across queries.  They carry no delta triggers of their own — the IR
    # lowering makes every write to the occurrence map keep them (a key
    # crossing zero updates its group), and the engines treat them as
    # ordinary state
    # (snapshotted, WAL-replayed, merged by rebuild after sharding).
    maps = dict(registry.maps)
    finalizers: dict[str, tuple[FinalizeSpec, ...]] = {}
    slot_aux: dict[str, dict[int, str]] = {}
    for query_name, slot_index, occ_name, kind in aux_requests:
        slot_aux.setdefault(query_name, {})[slot_index] = _auxiliary(
            maps, finalizers, occ_name, kind
        ).aux
    base_maps = _read_extrema_of_count_maps(
        statements, events, base_maps, catalog, maps, finalizers
    )

    static_relations = {
        rel for rel in all_relations if not catalog.get(rel).is_stream
    }
    triggers = {
        (rel, 0): Trigger(
            relation=rel,
            params=events[rel].params,
            statements=order_statements(
                _merge_statements(statements.get(rel, []))
            ),
        )
        for rel in sorted(all_relations)
    }

    program = CompiledProgram(
        queries=queries,
        maps=maps,
        triggers=triggers,
        slot_maps=slot_maps,
        options=options,
        static_relations=static_relations,
        columns=columns,
        finalizers=finalizers,
        slot_aux=slot_aux,
        base_maps=base_maps,
    )
    program.delta_orders = dict(delta_orders)
    return program


def _auxiliary(
    maps: dict[str, MapDef],
    finalizers: dict[str, tuple[FinalizeSpec, ...]],
    occ_name: str,
    kind: str,
) -> FinalizeSpec:
    """The spec of the auxiliary map caching ``kind`` over the last key of
    ``occ_name`` per group of the keys before it, registered (once) with
    the map itself."""
    aux_name = f"{occ_name}__{kind}"
    if aux_name not in maps:
        occ_def = maps[occ_name]
        group_arity = len(occ_def.keys) - 1
        maps[aux_name] = MapDef(
            name=aux_name,
            keys=occ_def.keys[:group_arity],
            defn=occ_def.defn,
            role="auxiliary",
            description=f"{kind} cache over {occ_name}",
            level=occ_def.level,
        )
        finalizers[occ_name] = finalizers.get(occ_name, ()) + (
            FinalizeSpec(aux=aux_name, kind=kind, group_arity=group_arity),
        )
    return next(spec for spec in finalizers[occ_name] if spec.aux == aux_name)


def _read_extrema_of_count_maps(
    statements: dict[str, list[Statement]],
    events: dict[str, Event],
    base_maps: dict[str, BaseMap],
    catalog: Catalog,
    maps: dict[str, MapDef],
    finalizers: dict[str, tuple[FinalizeSpec, ...]],
) -> dict[str, BaseMap]:
    """Turn threshold EXISTS scans of a count map into reads of its
    maintained extremum (:func:`repro.compiler.materialize.read_extrema`).

    A base map qualifies when it counts rows (nothing folded into its
    value) under a single numeric key: the cache-keeping writes MIN/MAX
    already use then keep ``min``/``max`` of its live keys under deletes.
    Returns the base maps with the decision — the caches read, or the
    gate that refused — recorded on each.
    """

    def refusal(base: BaseMap) -> Optional[str]:
        if base.shape.folds:
            return "its value is a folded sum, not a row count"
        if len(base.keys) != 1:
            return f"{len(base.keys)} key columns, a threshold bounds one"
        if not catalog.get(base.relation).columns[base.keys[0]].type.is_numeric:
            return "its key column is not numeric"
        return None

    refused = {base.name: refusal(base) for base in base_maps.values()}

    def extremum(map_name: str, kind: str) -> Optional[FinalizeSpec]:
        if refused.get(map_name, "not a base map") is not None:
            return None
        return _auxiliary(maps, finalizers, map_name, kind)

    if None in refused.values():
        for relation, trigger_statements in statements.items():
            params = events[relation].bound
            for index, statement in enumerate(trigger_statements):
                rhs = read_extrema(statement.args, statement.rhs, params, extremum)
                if rhs != statement.rhs:
                    trigger_statements[index] = replace(statement, rhs=rhs)

    def decision(base: BaseMap) -> str:
        if refused[base.name] is not None:
            return f"none ({refused[base.name]})"
        caches = [f"{spec.kind} cache {spec.aux}" for spec in finalizers.get(base.name, ())]
        return ", ".join(caches) or "none (no threshold EXISTS scans it)"

    return {
        relation: replace(base, extremum=decision(base))
        for relation, base in base_maps.items()
    }


def _read_through_base_maps(
    statements: dict[str, list[Statement]],
    events: dict[str, Event],
    registry: MapRegistry,
    catalog: Catalog,
    float_columns: dict[str, frozenset[int]],
    narrow: bool,
) -> dict[str, BaseMap]:
    """Register one base map per relation the statements still read
    directly, and rewrite those reads to go through it.

    With ``narrow`` the map keeps exactly the columns its readers bind
    (:func:`repro.compiler.materialize.merge_uses` over every reader in
    the program); without, it is the whole-row occurrence map.  FLOAT
    columns are never folded into a value (see ``_column_use``).
    """
    uses: dict[str, list[ColumnUse]] = defaultdict(list)
    readers: dict[str, list[str]] = defaultdict(list)
    reading: list[tuple[list[Statement], int, tuple[str, ...]]] = []
    for relation, trigger_statements in statements.items():
        params = events[relation].bound
        for index, statement in enumerate(trigger_statements):
            found = column_uses(
                statement.args, statement.rhs, params, float_columns
            )
            if found:
                reading.append((trigger_statements, index, params))
            for atom, use in found:
                uses[atom.name].append(use)
                readers[atom.name].append(statement.target)

    base_maps: dict[str, BaseMap] = {}
    for relation in sorted(uses):
        columns = catalog.get(relation).column_names
        shape = (
            merge_uses(uses[relation])
            if narrow
            else ColumnUse(frozenset(range(len(columns))))
        )
        base_maps[relation] = registry.base_map(relation, columns, shape)
        map_def = registry.maps[base_maps[relation].name]
        if map_def in registry.pending:
            map_def.level = 1 + min(
                registry.maps[name].level for name in readers[relation]
            )

    for trigger_statements, index, params in reading:
        statement = trigger_statements[index]
        rhs = read_base_maps(statement.args, statement.rhs, params, base_maps)
        if rhs is None:
            raise CompilationError(
                f"no base map serves the relation reads of {statement!r}"
            )
        trigger_statements[index] = replace(statement, rhs=rhs)
    return base_maps


def _merge_statements(statements: list[Statement]) -> list[Statement]:
    """Combine identical statements into one with a scaled coefficient.

    Symmetric delta terms of self-joins produce structurally identical
    updates (``dB*B`` and ``B*dB``); executing one statement with a
    coefficient halves the per-event work.
    """
    counts: dict[tuple, int] = {}
    order: list[tuple] = []
    originals: dict[tuple, Statement] = {}
    for statement in statements:
        key = (
            statement.target,
            statement.args,
            statement.rhs,
            statement.loop_vars,
        )
        if key not in counts:
            counts[key] = 0
            order.append(key)
            originals[key] = statement
        counts[key] += 1
    merged = []
    for key in order:
        statement = originals[key]
        n = counts[key]
        if n == 1:
            merged.append(statement)
        else:
            merged.append(
                Statement(
                    target=statement.target,
                    args=statement.args,
                    rhs=mul(Const(n), statement.rhs),
                    loop_vars=statement.loop_vars,
                )
            )
    return merged


def _build_statement(
    map_def: MapDef,
    coeff: object,
    factors: tuple[Expr, ...],
    materializer: Materializer,
) -> Statement:
    """Turn one delta monomial into a ``target[args] += rhs`` statement.

    Lifts that bind the target map's key variables become fixed key
    arguments; keys without a lift iterate (bound by evaluating the RHS).
    """
    from repro.algebra.expr import Cmp, substitute
    from repro.algebra.schema import output_vars

    key_args: dict[str, Expr] = {}
    bound = set(materializer.bound)
    subst: dict[str, Expr] = {}
    rhs_parts: list[Expr] = []
    if coeff != 1:
        rhs_parts.append(Const(coeff))
    for factor in factors:
        if subst:
            factor = substitute(factor, subst)
        if (
            isinstance(factor, Lift)
            and factor.var in map_def.keys
            and factor.var not in key_args
        ):
            body = materializer.rewrite(factor.body, frozenset(bound))
            if isinstance(body, (Var, Const)):
                # The key value flows into every later occurrence of the
                # key variable (e.g. correlated map references).
                key_args[factor.var] = body
                subst[factor.var] = body
            else:
                # Complex key expression: keep the lift in the RHS (it
                # binds the variable there) and loop over its single row.
                rhs_parts.append(Lift(factor.var, body))
            bound.add(factor.var)
        else:
            rhs_parts.append(materializer.rewrite(factor, frozenset(bound)))
            bound.update(output_vars(factor))

    # Loop-key equality filters become direct key arguments: a factor
    # {k = t} with k an unfixed key and t over event parameters turns the
    # foreach-and-filter scan into an O(1) keyed update.
    changed = True
    while changed:
        changed = False
        for index, part in enumerate(rhs_parts):
            if not isinstance(part, Cmp) or part.op != "=":
                continue
            for var_side, term_side in (
                (part.left, part.right),
                (part.right, part.left),
            ):
                if not isinstance(var_side, Var):
                    continue
                key = var_side.name
                if key not in map_def.keys or key in key_args:
                    continue
                if not isinstance(term_side, (Var, Const)):
                    continue
                if (
                    isinstance(term_side, Var)
                    and term_side.name not in materializer.bound
                ):
                    continue
                # A key fixed earlier to this key's variable (a lift
                # ``__k1 ^= __k0``) takes its value too.
                key_args = {
                    k: substitute(v, {key: term_side}) for k, v in key_args.items()
                }
                key_args[key] = term_side
                rhs_parts.pop(index)
                rhs_parts = [
                    substitute(p, {key: term_side}) for p in rhs_parts
                ]
                changed = True
                break
            if changed:
                break

    loop_keys = tuple(k for k in map_def.keys if k not in key_args)
    rhs = mul(*rhs_parts)

    args = tuple(key_args.get(k, Var(k)) for k in map_def.keys)
    statement = Statement(
        target=map_def.name, args=args, rhs=rhs, loop_vars=loop_keys
    )
    validate_statement(statement)
    return statement
