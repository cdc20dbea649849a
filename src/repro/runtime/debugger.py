"""Step-tracing debugger for delta processing (the paper's Figure 4 tool).

Steps a program's triggers event by event, collecting the per-statement
map changes (print a step's trace to see them).  Events are admitted by
the engines' one rule, :func:`~repro.runtime.engine.admit`, so the
debugger's maps are the engine's.  Implemented over the trigger
IR walked *unoptimised*, which preserves one IR block per compiled
statement — the generated compiled code (and the fused/hoisted optimised
IR) is intentionally opaque straight-line code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.program import CompiledProgram, Statement
from repro.ir.interp import run_trigger_collect
from repro.ir.lower import lower_program
from repro.runtime.engine import admit
from repro.runtime.events import EventBatch, StreamEvent


@dataclass
class StatementTrace:
    """What one statement did for one event."""

    statement: Statement
    updates: list[tuple[str, tuple, object]]

    def __repr__(self) -> str:
        changes = ", ".join(
            f"{target}[{key!r}] += {value!r}" for target, key, value in self.updates
        ) or "(no change)"
        return f"{self.statement!r}\n    -> {changes}"


@dataclass
class EventTrace:
    """The full trace of one processed event."""

    event: StreamEvent
    statements: list[StatementTrace] = field(default_factory=list)

    def __repr__(self) -> str:
        lines = [f"== {self.event!r} =="]
        lines.extend(repr(s) for s in self.statements)
        return "\n".join(lines)


class Debugger:
    """Traces delta processing over a program's maps, event by event:
    each step returns the trace of the statements the event's trigger ran
    and the map entries they touched, which prints as below.

    >>> from repro.compiler import compile_sql
    >>> from repro.runtime.events import delete, insert
    >>> from repro.sql.catalog import Catalog
    >>> catalog = Catalog.from_script("CREATE STREAM R (a int, b int);")
    >>> program = compile_sql("SELECT a, sum(b) FROM R GROUP BY a", catalog)
    >>> debugger = Debugger(program)
    >>> print(debugger.step(insert("R", 1, 10)))
    == +R(1, 10) ==
    q_q_sum_1[ev_r_a] += __w * ev_r_b
        -> q_q_sum_1[(1,)] += 10
    q_q___count[ev_r_a] += __w
        -> q_q___count[(1,)] += 1
    >>> print(debugger.step(delete("R", 1, 10)))
    == -R(1, 10) ==
    q_q_sum_1[ev_r_a] += __w * ev_r_b
        -> q_q_sum_1[(1,)] += -10
    q_q___count[ev_r_a] += __w
        -> q_q___count[(1,)] += -1
    >>> debugger.map_snapshot("q_q_sum_1")
    {}
    """

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program
        self.maps: dict[str, dict] = {name: {} for name in program.maps}
        # Unoptimised IR: one block per compiled statement, so traces keep
        # statement granularity.
        self._ir = lower_program(program, optimize=False)
        self.history: list[EventTrace] = []
        # The state admit() reads and advances, as a lenient engine's.
        self._log = None
        self.strict = False
        self._stream_started = False
        self.events_skipped = 0

    def step(self, event: StreamEvent) -> EventTrace:
        """Process one event, returning (and recording) its trace.  An
        event the engine would refuse raises the engine's error and
        changes nothing."""
        trace = EventTrace(event=event)
        batch = EventBatch(event.relation, event.sign, [event.values])
        if admit(self, batch) is not None:
            for block, updates in run_trigger_collect(
                self._ir.triggers[(event.relation, 0)],
                (event.sign, *event.values),
                self.maps,
            ):
                statement = block.sources[0] if block.sources else None
                trace.statements.append(StatementTrace(statement, updates))
        self.history.append(trace)
        return trace

    def run(self, events) -> list[EventTrace]:
        return [self.step(event) for event in events]

    def map_snapshot(self, name: str) -> dict:
        """A copy of one map's current contents."""
        return dict(self.maps[name])

    def watch(self, map_name: str) -> list[tuple[StreamEvent, list]]:
        """History filtered to events that touched ``map_name``."""
        out = []
        for trace in self.history:
            touched = [
                update
                for statement in trace.statements
                for update in statement.updates
                if update[0] == map_name
            ]
            if touched:
                out.append((trace.event, touched))
        return out
