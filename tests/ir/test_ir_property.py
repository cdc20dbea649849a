"""The IR refactor's acceptance property: every IR-backed executor is
map-identical to the pre-refactor engine.

``LegacyExecutor`` below is the pre-refactor interpreted executor: it
walks raw ``Statement``/``Expr`` trees with the calculus evaluator (the
semantics the pre-refactor compiled back end was tested bit-identical
against), and re-derives every min/max/distinct cache from its source
map after each event — the definition the cache-keeping writes
maintain incrementally.  A statement that reads such a cache carries what an
empty group reads as on the reference itself (``MapRef.absent``), so the
evaluator needs no side table.  For random streams over the example query
shapes of ``tests/lanes.py`` — and deterministically over the bundled
finance workload — the IR-backed compiled executor and the IR-walking
interpreted executor, optimised or not, must produce identical maps per
event.  That batched and sharded engines leave the per-event maps is
``tests/integration/test_map_parity.py``'s subject.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.algebra.eval import eval_expr, eval_scalar
from repro.compiler.program import needs_buffering
from repro.ir.lower import lower_program
from repro.ir.nodes import Assign, Block, LocalMapDecl, walk_stmts
from repro.runtime import DeltaEngine, StreamEvent
from repro.runtime.engine import EMPTY_STATE
from repro.workloads.finance import FINANCE_QUERIES
from tests import lanes
from tests.strategies import events

#: The example shapes: every R/S/T shape but the kernel-scan one.
QUERIES = {name: sql for name, sql in lanes.RST_QUERIES.items() if name != "scan"}


class LegacyExecutor:
    """The pre-refactor interpreted executor (eval over raw Expr trees)."""

    def __init__(self, program) -> None:
        self.program = program
        self.maps = {name: {} for name in program.maps}
        self._buffered = {
            key: needs_buffering(trigger.statements)
            for key, trigger in program.triggers.items()
        }

    def process(self, event: StreamEvent) -> None:
        trigger = self.program.trigger_for(event.relation)
        if trigger is None:
            return
        env = dict(zip(trigger.signature, (event.sign, *event.values)))
        buffered = self._buffered[(trigger.relation, 0)]
        pending = []
        for statement in trigger.statements:
            updates = self._statement_updates(statement, env)
            if buffered:
                pending.extend(updates)
            else:
                self._apply(updates)
        if buffered:
            self._apply(pending)
        for statement in trigger.statements:
            for spec in self.program.finalizers.get(statement.target, ()):
                self.maps[spec.aux] = _cache(spec, self.maps[statement.target])

    def _statement_updates(self, statement, env):
        cols, rows = eval_expr(statement.rhs, env, self.maps)
        updates = []
        for key_values, value in rows.items():
            row_env = {**env, **dict(zip(cols, key_values))}
            key = tuple(
                eval_scalar(arg, row_env, self.maps) for arg in statement.args
            )
            updates.append((statement.target, key, value))
        return updates

    def _apply(self, updates) -> None:
        for target, key, value in updates:
            contents = self.maps[target]
            updated = contents.get(key, 0) + value
            if updated == 0:
                contents.pop(key, None)
            else:
                contents[key] = updated


def _cache(spec, source):
    """The min/max/distinct cache of ``source`` (a zero-free GMR keyed
    ``group + (value,)``), by definition."""
    values = {}
    for key in source:
        values.setdefault(key[: spec.group_arity], []).append(key[spec.group_arity])
    fold = {"min": min, "max": max, "distinct": len}[spec.kind]
    return {group: fold(members) for group, members in values.items()}


@lru_cache(maxsize=None)
def _built(query_name: str, mode: str, optimize: bool) -> DeltaEngine:
    return DeltaEngine(lanes.rst_program(query_name), mode=mode, optimize=optimize)


def _engine(query_name: str, mode: str, optimize: bool = True) -> DeltaEngine:
    """An engine with empty maps: built once per configuration, emptied
    (``restore_state``) for every example."""
    engine = _built(query_name, mode, optimize)
    engine.restore_state(EMPTY_STATE)
    return engine


def _reference_maps(program, stream_events):
    legacy = LegacyExecutor(program)
    for event in stream_events:
        legacy.process(event)
    return legacy.maps


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
@settings(max_examples=20, deadline=None)
@given(stream=st.lists(events(), max_size=40))
def test_ir_backends_match_legacy_per_event(query_name, mode, stream):
    program = lanes.rst_program(query_name)
    stream_events = lanes.rst_stream(query_name, stream)
    reference = _reference_maps(program, stream_events)

    engine = _engine(query_name, mode)
    for event in stream_events:
        engine.process(event)
    assert engine.maps == reference

    unoptimised = _engine(query_name, mode, optimize=False)
    for event in stream_events:
        unoptimised.process(event)
    assert unoptimised.maps == reference


def test_threshold_shape_reads_an_extremum():
    """The random-stream shape above takes the path it is there for."""
    program = lanes.rst_program("exists_threshold")
    (spec,) = program.finalizers[program.base_maps["S"].name]
    assert (spec.kind, spec.group_arity, spec.absent) == ("min", 0, float("inf"))
    # R events test the cache in O(1) ...
    assert all(
        statement.reads() == {spec.aux}
        for statement in program.trigger_for("R").statements
        if statement.target in program.slot_maps["q"]
    )
    # ... S events restate the result only when the minimum moved.
    comments = [
        comment
        for stmt in walk_stmts(lower_program(program).triggers["S", 0].body)
        if isinstance(stmt, Block)
        for comment in stmt.comments
    ]
    assert any(
        c.startswith("restate") and c.endswith(f"when {spec.aux} moved")
        for c in comments
    )


@pytest.mark.parametrize("query_name", FINANCE_QUERIES)
def test_finance_workload_matches_legacy(query_name):
    program = lanes.shipped_program(query_name, query_name)
    stream_events = lanes.order_book(2009, 400)
    reference = _reference_maps(program, stream_events)
    for mode in ("compiled", "interpreted"):
        per_event = DeltaEngine(program, mode=mode)
        for event in stream_events:
            per_event.process(event)
        assert per_event.maps == reference, f"{mode} per-event diverged"


def test_float_twin_shares_accumulators_and_equals_per_event():
    """Keyed statements writing one target share its batch accumulator,
    exact or FLOAT alike (it stages the target's current values), so a
    FLOAT twin's batches, optimised or not, leave every map ``repr``-equal
    to per-event processing, insertion order included."""
    import random

    def accumulators(query_name):
        ir = lower_program(lanes.rst_program(query_name))
        body = ir.batch_triggers["R", 0].body
        declared = [s for s in body if isinstance(s, (LocalMapDecl, Assign))]
        sinks = [sink for _, sink in ir.batch_sinks["R", 0]]
        return len(declared), sinks.count("accumulator")

    for query_name in ("grouped_three_way", "grouped_three_way_float"):
        declared, accumulated = accumulators(query_name)
        assert declared < accumulated

    rng = random.Random(7)
    values = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(300)]
    drawn = [(rng.choice("RSTT"), rng.choice((1, 1, -1)), v) for v in values]
    stream_events = lanes.rst_stream("grouped_three_way_float", drawn)
    maps = set()
    for batch_size in (None, 7, 100):
        for optimize in (True, False):
            engine = _engine("grouped_three_way_float", "compiled", optimize)
            engine.process_stream(stream_events, batch_size=batch_size)
            maps.add(repr(engine.maps))
    assert len(maps) == 1
