"""The recursive compilation driver.

Starting from the root maps (one per aggregate slot of each query), the
driver repeatedly takes a map definition, derives its delta for every
(relation, insert/delete) event, simplifies, materialises the stream-
dependent pieces as new maps, and emits one update statement per monomial.
Newly created maps join the work queue — the recursion of the paper — until
every maintained map has triggers.  Finally the statements for each event
are dependency-ordered into triggers.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from typing import Iterable, Optional

from repro.errors import CompilationError
from repro.algebra.delta import delta, event_for
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
from repro.compiler.materialize import Materializer, MapRegistry
from repro.compiler.program import (
    CompiledProgram,
    CompileOptions,
    FinalizeSpec,
    MapDef,
    Statement,
    Trigger,
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
    registry = MapRegistry(share=options.share_maps)

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

    statements: dict[tuple[str, int], list[Statement]] = defaultdict(list)
    compiled: set[str] = set()
    queue: deque[MapDef] = deque(registry.take_pending())
    signs = (1, -1) if options.deletions else (1,)

    while queue:
        map_def = queue.popleft()
        if map_def.name in compiled:
            continue
        compiled.add(map_def.name)
        map_relations = relations_in(map_def.defn)
        static_only = all(not catalog.get(r).is_stream for r in map_relations)
        for rel_name in sorted(map_relations):
            relation = catalog.get(rel_name)
            if not relation.is_stream and not static_only:
                # Static tables are loaded before any stream event arrives;
                # while loading, every stream-dependent map is identically
                # zero, so mixed maps need no static-table triggers.  Only
                # maps defined purely over static tables are maintained
                # during the load phase.
                continue
            rel_signs = signs if relation.is_stream else (1,)
            for sign in rel_signs:
                event = event_for(rel_name, relation.column_names, sign)
                d = simplify(delta(map_def.defn, event), bound=event.params)
                if d == ZERO:
                    continue
                materializer = Materializer(
                    registry,
                    bound=event.params,
                    derived_maps=options.derived_maps,
                )
                for coeff, factors in monomials(d):
                    statement = _build_statement(
                        map_def, coeff, factors, materializer
                    )
                    statements[(relation.name, sign)].append(statement)
                for new_map in registry.take_pending():
                    new_map.level = map_def.level + 1
                    queue.append(new_map)

    triggers: dict[tuple[str, int], Trigger] = {}
    all_relations = {rel for query in queries for rel in query.relations}
    static_relations = {
        rel for rel in all_relations if not catalog.get(rel).is_stream
    }
    for rel_name in sorted(all_relations):
        relation = catalog.get(rel_name)
        rel_signs = signs if relation.is_stream else (1,)
        for sign in rel_signs:
            event = event_for(relation.name, relation.column_names, sign)
            merged = _merge_statements(
                statements.get((relation.name, sign), [])
            )
            ordered = order_statements(merged)
            triggers[(relation.name, sign)] = Trigger(
                relation=relation.name,
                sign=sign,
                params=event.params,
                statements=ordered,
            )

    from repro.sql.catalog import SqlType

    float_columns = {
        rel: frozenset(
            position
            for position, column in enumerate(catalog.get(rel).columns)
            if column.type is SqlType.FLOAT
        )
        for rel in all_relations
    }
    float_columns = {rel: pos for rel, pos in float_columns.items() if pos}

    # Non-linear auxiliary maps: one per (occurrence map, kind), shared
    # across queries.  They carry no delta triggers of their own — the IR
    # lowering appends a Finalize step to every trigger that writes the
    # occurrence map, and the engines treat them as ordinary state
    # (snapshotted, WAL-replayed, merged by rebuild after sharding).
    maps = dict(registry.maps)
    finalizers: dict[str, tuple[FinalizeSpec, ...]] = {}
    slot_aux: dict[str, dict[int, str]] = {}
    for query_name, slot_index, occ_name, kind in aux_requests:
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
        slot_aux.setdefault(query_name, {})[slot_index] = aux_name

    return CompiledProgram(
        queries=queries,
        maps=maps,
        triggers=triggers,
        slot_maps=slot_maps,
        options=options,
        static_relations=static_relations,
        float_columns=float_columns,
        finalizers=finalizers,
        slot_aux=slot_aux,
    )


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
