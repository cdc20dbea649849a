"""Partitioning analysis: which triggers can run on parallel shards.

Delta programs over generalised multiset relations parallelise naturally
when every map access of a trigger is keyed on one event attribute (the
per-group independence of ``AggSum`` maps): hash-partitioning the event
stream by that attribute gives each shard exclusive ownership of a key
subset of every map it reads, so shards never observe each other's state
and merged shard maps equal a single-engine run.

The analysis answers, per program:

* for each relation, which event column (if any) every map read *and*
  write of its triggers is keyed on — the **partition column** used to
  hash-route batches (``relation_columns``);
* for each map that some trigger reads, the key position that carries the
  partition value (``map_positions``) — shards own disjoint slices of
  these maps and a merge is a disjoint union;
* which maps are **additive**: written by a sharded relation's trigger
  but never read by any.  Their per-event deltas depend only on correctly
  partitioned reads, so each lane may accumulate a partial map and the
  merge sums values key-wise (this is what makes scalar query results
  shardable even though the result map itself has no keys).  Cross-shard
  summation re-associates additions, which is exact over the integer
  ring only — write-only maps without the exact-integer proof
  (:func:`repro.compiler.storage.exact_int_maps`) that are not keyed on
  the partition column force their writers serial, preserving the
  bit-identity-with-a-single-engine contract;
* which relations fall back to the **serial lane** (``serial_relations``)
  because no column works — e.g. a trigger reading a zero-key map
  (``psp``'s running sums) or joining on several different columns (SSB's
  star joins).  Read maps touched by any serial trigger are owned by the
  serial lane outright, and sharded relations touching a serial-owned map
  are demoted until the two lanes share nothing (the fixpoint below).

The resulting :class:`PartitionSpec` is pure compiler metadata: the
runtime (:class:`repro.runtime.engine.ShardedEngine`) routes batches with
it, and the code generator stamps it into the generated module header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.algebra.expr import MapRef, Var, walk
from repro.compiler.program import CompiledProgram, Trigger
from repro.compiler.storage import exact_int_maps

#: Backtracking-node budget for the (tiny) column-assignment search; real
#: programs have a handful of relations with at most a few feasible
#: columns each, so the budget only guards pathological inputs.
_SEARCH_BUDGET = 10_000


@dataclass(frozen=True)
class PartitionSpec:
    """The shard-routing metadata for one compiled program.

    ``relation_columns`` maps a relation to the event-tuple index whose
    hash routes its rows; relations absent from it are listed in
    ``serial_relations`` and run on the serial lane.  ``map_positions``
    gives, for every read map owned by the shard lanes, the key position
    holding the partition value; ``serial_maps`` are read maps owned by
    the serial lane; ``additive_maps`` are write-only maps some sharded
    relation writes, merged by key-wise summation across all lanes.
    """

    relation_columns: dict[str, int]
    map_positions: dict[str, int]
    serial_relations: frozenset[str]
    serial_maps: frozenset[str]
    additive_maps: frozenset[str]

    @property
    def partitionable(self) -> bool:
        """True when at least one relation can be hash-routed to shards."""
        return bool(self.relation_columns)

    def column_for(self, relation: str) -> Optional[int]:
        """The routing column of a relation (None → serial lane)."""
        return self.relation_columns.get(relation)

    def describe(self) -> str:
        """Human-readable summary (the CLI's compilation trace)."""
        lines = ["== partitioning =="]
        if not self.relation_columns:
            lines.append("(no partitionable relations: serial execution)")
        for rel in sorted(self.relation_columns):
            lines.append(
                f"{rel}: hash-route by column {self.relation_columns[rel]}"
            )
        for rel in sorted(self.serial_relations):
            lines.append(f"{rel}: serial lane")
        for name in sorted(self.map_positions):
            lines.append(
                f"map {name}: sharded on key position {self.map_positions[name]}"
            )
        if self.serial_maps:
            lines.append("serial-lane maps: " + ", ".join(sorted(self.serial_maps)))
        if self.additive_maps:
            lines.append(
                "additive (sum-merged) maps: "
                + ", ".join(sorted(self.additive_maps))
            )
        return "\n".join(lines)


def _statement_reads(statement, cache_sources: dict[str, str]) -> set[str]:
    """Maps a statement reads (nested references included).  Reading an
    auxiliary cache reads the map Finalize derives it from: the cache is
    only whole on the lane that owns all of that map."""
    reads = statement.reads()
    return reads | {
        cache_sources[name] for name in reads if name in cache_sources
    }


def _var_positions(args: Iterable, param: str) -> set[int]:
    """Argument positions holding exactly ``Var(param)``."""
    return {
        i
        for i, arg in enumerate(args)
        if isinstance(arg, Var) and arg.name == param
    }


def _trigger_constraints(
    trigger: Trigger, param: str, read_maps: set[str]
) -> Optional[dict[str, set[int]]]:
    """Key-position constraints if ``trigger`` partitions by ``param``.

    Returns ``{map: feasible positions}`` covering every read map the
    trigger touches, or ``None`` when some access cannot be keyed on the
    parameter (a read with the parameter absent from the key, a write to a
    read map without the parameter as a key argument, or any zero-key read).
    """
    constraints: dict[str, set[int]] = {}

    def constrain(name: str, positions: set[int]) -> bool:
        if not positions:
            return False
        merged = constraints.get(name)
        constraints[name] = positions if merged is None else merged & positions
        return bool(constraints[name])

    for statement in trigger.statements:
        if statement.target in read_maps:
            if not constrain(
                statement.target, _var_positions(statement.args, param)
            ):
                return None
        for node in walk(statement.rhs):
            if isinstance(node, MapRef):
                if not constrain(node.name, _var_positions(node.args, param)):
                    return None
    return constraints


def _relation_candidates(
    triggers: list[Trigger], read_maps: set[str]
) -> list[tuple[int, dict[str, set[int]]]]:
    """Feasible (column index, constraints) choices for one relation.

    Insert and delete triggers share the relation's column list, so a
    candidate column must satisfy both; their per-map constraints are
    intersected.
    """
    params = triggers[0].params
    candidates: list[tuple[int, dict[str, set[int]]]] = []
    for index, param in enumerate(params):
        merged: dict[str, set[int]] = {}
        feasible = True
        for trigger in triggers:
            constraints = _trigger_constraints(trigger, param, read_maps)
            if constraints is None:
                feasible = False
                break
            for name, positions in constraints.items():
                if name in merged:
                    merged[name] &= positions
                    if not merged[name]:
                        feasible = False
                        break
                else:
                    merged[name] = set(positions)
            if not feasible:
                break
        if feasible:
            candidates.append((index, merged))
    return candidates


@dataclass
class _Search:
    """Backtracking over per-relation column choices.

    Maximises the number of partitionable relations subject to a single
    consistent key position per read map; a small node budget keeps the
    worst case bounded (on exhaustion the best assignment found so far
    wins — for every real program the search completes).
    """

    relations: list[str]
    candidates: dict[str, list[tuple[int, dict[str, set[int]]]]]
    nodes: int = 0
    best_assign: dict[str, int] = field(default_factory=dict)
    best_store: dict[str, set[int]] = field(default_factory=dict)

    def run(self) -> tuple[dict[str, int], dict[str, set[int]]]:
        self._recurse(0, {}, {})
        return self.best_assign, self.best_store

    def _recurse(
        self,
        index: int,
        store: dict[str, set[int]],
        assign: dict[str, int],
    ) -> None:
        self.nodes += 1
        if self.nodes > _SEARCH_BUDGET:
            return
        if index == len(self.relations):
            if len(assign) > len(self.best_assign):
                self.best_assign = dict(assign)
                self.best_store = {k: set(v) for k, v in store.items()}
            return
        relation = self.relations[index]
        for column, constraints in self.candidates[relation]:
            merged = {k: set(v) for k, v in store.items()}
            feasible = True
            for name, positions in constraints.items():
                if name in merged:
                    merged[name] &= positions
                    if not merged[name]:
                        feasible = False
                        break
                else:
                    merged[name] = set(positions)
            if feasible:
                assign[relation] = column
                self._recurse(index + 1, merged, assign)
                del assign[relation]
        # The serial-lane branch for this relation.
        self._recurse(index + 1, store, assign)


def analyze_partitioning(program: CompiledProgram) -> PartitionSpec:
    """Compute the shard-routing spec for a compiled program.

    The spec is memoised on the program object: the engine, the code
    generator and the CLI all ask for it, and the answer is a pure
    function of the (immutable-after-compile) program.
    """
    cached = getattr(program, "_partition_spec", None)
    if cached is not None:
        return cached
    spec = _analyze_partitioning(program)
    program._partition_spec = spec
    return spec


def _analyze_partitioning(program: CompiledProgram) -> PartitionSpec:
    cache_sources = {
        spec.aux: source
        for source, specs in program.finalizers.items()
        for spec in specs
    }
    read_maps: set[str] = set()
    for trigger in program.triggers.values():
        for statement in trigger.statements:
            read_maps |= _statement_reads(statement, cache_sources)

    by_relation: dict[str, list[Trigger]] = {}
    for (relation, _sign), trigger in sorted(program.triggers.items()):
        by_relation.setdefault(relation, []).append(trigger)

    candidates: dict[str, list[tuple[int, dict[str, set[int]]]]] = {}
    unconstrained: set[str] = set()
    for relation, triggers in by_relation.items():
        if not any(trigger.statements for trigger in triggers):
            # No-op triggers touch nothing; route them to the serial lane.
            unconstrained.add(relation)
            continue
        candidates[relation] = _relation_candidates(triggers, read_maps)

    # Relations with fewer feasible columns first: prunes the search early.
    ordered = sorted(candidates, key=lambda rel: (len(candidates[rel]), rel))
    assign, store = _Search(relations=ordered, candidates=candidates).run()
    serial = (set(candidates) - set(assign)) | unconstrained

    # Exactness guard: an additive map written by several shards under the
    # *same* key merges by re-associated summation.  Over the integer ring
    # that is exact; float addition rounds differently per association, so
    # it would break the engine's bit-identity-with-a-serial-run contract.
    # Writes that key on the partition column stay disjoint across shards
    # (no re-association) and are always allowed.
    exact = exact_int_maps(program)
    for relation in sorted(assign):
        demote = False
        for trigger in by_relation[relation]:
            param = trigger.params[assign[relation]]
            for statement in trigger.statements:
                if statement.target in read_maps:
                    continue
                if _var_positions(statement.args, param):
                    continue
                if statement.target not in exact:
                    demote = True
                    break
            if demote:
                break
        if demote:
            del assign[relation]
            serial.add(relation)

    # Fixpoint demotion: a read map touched by any serial trigger is owned
    # by the serial lane; sharded relations touching such a map cannot
    # co-locate their accesses with it, so they fall back too.
    touched: dict[str, set[str]] = {}
    for relation, triggers in by_relation.items():
        names: set[str] = set()
        for trigger in triggers:
            for statement in trigger.statements:
                names |= {statement.target}
                names |= _statement_reads(statement, cache_sources)
        touched[relation] = names & read_maps
    changed = True
    while changed:
        changed = False
        serial_owned = set()
        for relation in serial:
            serial_owned |= touched.get(relation, set())
        for relation in sorted(assign):
            if touched[relation] & serial_owned:
                del assign[relation]
                serial.add(relation)
                changed = True

    sharded_read_maps: set[str] = set()
    for relation in assign:
        sharded_read_maps |= touched[relation]
    map_positions = {
        name: min(store[name])
        for name in sharded_read_maps
        if name in store
    }
    serial_maps = read_maps - sharded_read_maps
    additive = {
        statement.target
        for relation in assign
        for trigger in by_relation[relation]
        for statement in trigger.statements
        if statement.target not in read_maps
    }

    return PartitionSpec(
        relation_columns=dict(sorted(assign.items())),
        map_positions=dict(sorted(map_positions.items())),
        serial_relations=frozenset(serial),
        serial_maps=frozenset(serial_maps),
        additive_maps=frozenset(additive),
    )
