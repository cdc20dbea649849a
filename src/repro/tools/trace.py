"""The compilation trace, rendered in the format of the paper's Figure 2.

Figure 2 tabulates the recursive compilation: for each recursion level and
event, the query being compiled, the procedural code for its delta, the
maps the code uses, and the definitions of those maps.  This module derives
the same table from a compiled program.
"""

from __future__ import annotations

from repro.compiler.program import CompiledProgram


def _short(text: str, width: int) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


def compilation_rows(program: CompiledProgram) -> list[dict]:
    """One row per (maintained map, event, statement), Figure 2's columns."""
    rows: list[dict] = []
    for (relation, _), trigger in sorted(program.triggers.items()):
        symbol = "+" if relation in program.static_relations else "±"
        for statement in trigger.statements:
            target = program.maps[statement.target]
            used = sorted(statement.reads())
            rows.append(
                {
                    "level": target.level + 1,  # Figure 2 levels start at 1
                    "event": f"{symbol}{relation}",
                    "query": repr(target.defn),
                    "code": repr(statement),
                    "maps_used": used,
                    "map_definitions": {
                        name: repr(program.maps[name].defn) for name in used
                    },
                }
            )
    rows.sort(key=lambda r: (r["level"], r["event"]))
    return rows


def compilation_table(program: CompiledProgram, width: int = 46) -> str:
    """Render the Figure 2 table as text."""
    rows = compilation_rows(program)
    lines = [
        f"{'lvl':<4}{'event':<11}{'query Q to compile':<{width + 2}}"
        f"{'code for delta-Q':<{width + 2}}maps used (definition)"
    ]
    lines.append("-" * (len(lines[0]) + 24))
    for row in rows:
        used = ", ".join(
            f"{name} := {_short(defn, width)}"
            for name, defn in row["map_definitions"].items()
        ) or "(no maps)"
        lines.append(
            f"{row['level']:<4}{row['event']:<11}"
            f"{_short(row['query'], width):<{width + 2}}"
            f"{_short(row['code'], width):<{width + 2}}"
            f"{used}"
        )
    return "\n".join(lines)


def recursion_summary(program: CompiledProgram) -> dict[int, int]:
    """Maps per recursion level (how deep the compilation went)."""
    summary: dict[int, int] = {}
    for map_def in program.maps.values():
        summary[map_def.level] = summary.get(map_def.level, 0) + 1
    return dict(sorted(summary.items()))


def ir_summary(program: CompiledProgram, optimize: bool = True) -> str:
    """One-line trace of the imperative lowering every back end shares."""
    from repro.ir import ir_stats, lower_program
    from repro.ir.pretty import passes_str

    ir = lower_program(program, optimize=optimize)
    stats = ir_stats(ir)
    passes = passes_str(ir) if ir.passes else "disabled"

    def counted(reports) -> str:
        sinks: dict[str, int] = {}
        for report in reports:
            for _statement, sink in report:
                sinks[sink] = sinks.get(sink, 0) + 1
        return ", ".join(f"{n} {s}" for s, n in sorted(sinks.items())) or "none"

    return (
        f"IR: {stats['blocks']} statement blocks, {stats['loops']} map loops, "
        f"{stats['hoisted_temps']} hoisted temps, {stats['shared_keys']} shared "
        f"keys across {stats['triggers']} triggers "
        f"(passes: {passes}; "
        f"event sinks: {counted(ir.event_sinks.values())}; "
        f"batch sinks: {counted(ir.batch_sinks.values())})"
    )

