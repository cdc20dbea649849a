"""Step-tracing debugger for delta processing (the paper's Figure 4 tool).

Wraps an engine so each event can be stepped through, printing (or
collecting) the per-statement map changes.  Implemented over the trigger
IR walked *unoptimised*, which preserves one IR block per compiled
statement — the generated compiled code (and the fused/hoisted optimised
IR) is intentionally opaque straight-line code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.compiler.program import CompiledProgram, Statement
from repro.ir.interp import run_trigger_collect
from repro.ir.lower import lower_program
from repro.runtime.events import StreamEvent


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
    """Traces delta processing over a program's maps, event by event.

    >>> debugger = Debugger(program)
    >>> trace = debugger.step(insert("R", 1, 10))
    >>> print(trace)          # statements and the map entries they touched
    """

    def __init__(
        self,
        program: CompiledProgram,
        sink: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.program = program
        self.maps: dict[str, dict] = {name: {} for name in program.maps}
        # Unoptimised IR: one block per compiled statement, so traces keep
        # statement granularity.
        self._ir = lower_program(program, optimize=False)
        self.history: list[EventTrace] = []
        self.sink = sink

    def step(self, event: StreamEvent) -> EventTrace:
        """Process one event, returning (and recording) its trace."""
        trigger_ir = self._ir.triggers.get((event.relation, 0))
        trace = EventTrace(event=event)
        # A trigger derived for inserts alone makes a delete a no-op.
        if trigger_ir is not None and (
            event.sign == 1 or self.program.takes_deletes(event.relation)
        ):
            for block, updates in run_trigger_collect(
                trigger_ir, (event.sign, *event.values), self.maps
            ):
                statement = block.sources[0] if block.sources else None
                trace.statements.append(StatementTrace(statement, updates))
        self.history.append(trace)
        if self.sink is not None:
            self.sink(repr(trace))
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
