"""The imperative trigger IR: one typed loop-level lowering shared by the
Python generator and the interpreted executor.

Pipeline position::

    SQL -> calculus -> delta -> materialise -> statements
        -> ir.lower (this package) -> ir.optimize -> { pygen, interp }

Real DBToaster lowers through its M3 map-maintenance language the same
way; lowering once means every backend shares loop structure, semantics
fixes land once, and loop-level optimisation (loop fusion, guard
merging, invariant hoisting, lookup and key sharing) has a home.
"""

from repro.ir.lower import (
    collect_patterns_ir,
    lower_program,
    lower_trigger,
    lower_trigger_batch,
)
from repro.ir.optimize import DEFAULT_PASSES, optimize_program
from repro.ir.lower import plan_second_order
from repro.ir.pretty import (
    batch_sinks_str,
    event_sinks_str,
    ir_stats,
    program_str,
    trigger_str,
)
from repro.ir.nodes import ProgramIR, TriggerIR

__all__ = [
    "DEFAULT_PASSES",
    "ProgramIR",
    "TriggerIR",
    "batch_sinks_str",
    "collect_patterns_ir",
    "event_sinks_str",
    "ir_stats",
    "lower_program",
    "lower_trigger",
    "lower_trigger_batch",
    "optimize_program",
    "plan_second_order",
    "program_str",
    "trigger_str",
]
