"""Human-readable rendering of the trigger IR (the ``--dump-ir`` view)."""

from __future__ import annotations

from repro.ir.nodes import (
    AddTo,
    AppendTo,
    Assign,
    Accum,
    Block,
    BufferDecl,
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
    KeyTuple,
    LocalMapDecl,
    Lookup,
    MergeInto,
    Name,
    Neg,
    Prod,
    ProgramIR,
    SafeDiv,
    Sum,
    TriggerIR,
    WEIGHTS,
)


def expr_str(expr: IRExpr) -> str:
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Sum):
        return "(" + " + ".join(expr_str(t) for t in expr.terms) + ")"
    if isinstance(expr, Prod):
        return " * ".join(_maybe_paren(f) for f in expr.factors)
    if isinstance(expr, Neg):
        return f"-{_maybe_paren(expr.body)}"
    if isinstance(expr, SafeDiv):
        return f"div0({expr_str(expr.left)}, {expr_str(expr.right)})"
    if isinstance(expr, Compare):
        return f"{expr_str(expr.left)} {expr.op} {expr_str(expr.right)}"
    if isinstance(expr, Lookup):
        keys = ", ".join(expr_str(k) for k in expr.keys)
        return f"lookup({expr.slot!r}[{keys}]{_via(expr.key_local)}, {expr.default})"
    if isinstance(expr, KeyAt):
        return f"key[{expr.pos}]"
    if isinstance(expr, KeyTuple):
        return "key(" + ", ".join(expr_str(item) for item in expr.items) + ")"
    return repr(expr)


def _via(key_local: str) -> str:
    """`` via __key1`` for a key read from a local ('' otherwise)."""
    return f" via {key_local}" if key_local else ""


def _maybe_paren(expr: IRExpr) -> str:
    text = expr_str(expr)
    if isinstance(expr, (Sum, Compare)):
        return text if text.startswith("(") else f"({text})"
    return text


def _key_str(keys) -> str:
    return "[" + ", ".join(expr_str(k) for k in keys) + "]"


def _keeps(caches) -> str:
    """`` keeps min m__min`` for a write keeping caches ('' otherwise)."""
    if not caches:
        return ""
    return " keeps " + ", ".join(f"{c.kind} {c.slot!r}" for c in caches)


def stmt_lines(stmt: IRStmt, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(stmt, Block):
        lines = [f"{pad}; {comment}" for comment in stmt.comments]
        for inner in stmt.stmts:
            lines.extend(stmt_lines(inner, indent))
        return lines
    if isinstance(stmt, Assign):
        return [f"{pad}{stmt.name} := {expr_str(stmt.value)}"]
    if isinstance(stmt, Accum):
        return [f"{pad}{stmt.name} += {expr_str(stmt.value)}"]
    if isinstance(stmt, IfCond):
        lines = [f"{pad}if {expr_str(stmt.cond)}:"]
        for inner in stmt.body:
            lines.extend(stmt_lines(inner, indent + 1))
        return lines
    if isinstance(stmt, ForEachMap):
        binds = ", ".join(f"{name}@{pos}" for pos, name in stmt.binds)
        filters = " ".join(f"[{pos}]=={expr_str(expr)}" for pos, expr in stmt.filters)
        head = f"{pad}foreach ({binds or '_'}; {stmt.value_var}) in {stmt.slot!r}"
        if filters:
            head += f" where {filters}{_via(stmt.key_local)}"
        lines = [head + ":"]
        for inner in stmt.body:
            lines.extend(stmt_lines(inner, indent + 1))
        return lines
    if isinstance(stmt, ForEachRow):
        lines = [
            f"{pad}foreach row ({', '.join(stmt.params)}) in "
            f"{WEIGHTS}, {stmt.rows_var}:"
        ]
        for inner in stmt.body:
            lines.extend(stmt_lines(inner, indent + 1))
        return lines
    if isinstance(stmt, ForEachGroup):
        lines = [
            f"{pad}foreach group ({', '.join(stmt.group)}) of rows "
            f"({', '.join(stmt.params)}) in {WEIGHTS}, {stmt.rows_var}, "
            f"summing {_sums_str(stmt)}:"
        ]
        for inner in stmt.body:
            lines.extend(stmt_lines(inner, indent + 1))
        return lines
    if isinstance(stmt, AddTo):
        staged = f" staged in {stmt.acc}" if stmt.acc else ""
        full = tuple(range(len(stmt.keys)))
        via = "".join(
            f" via {name}" if positions == full else f" {list(positions)} via {name}"
            for positions, name in stmt.key_locals
        )
        return [
            f"{pad}{stmt.slot!r}{_key_str(stmt.keys)} += {expr_str(stmt.value)}"
            + staged
            + _keeps(stmt.caches)
            + via
        ]
    if isinstance(stmt, AppendTo):
        return [
            f"{pad}append {stmt.buffer} <- ({_key_str(stmt.keys)}, "
            f"{expr_str(stmt.value)})"
        ]
    if isinstance(stmt, BufferDecl):
        return [f"{pad}buffer {stmt.name}"]
    if isinstance(stmt, FlushBuffer):
        return [f"{pad}flush {stmt.name} -> {stmt.target!r}{_keeps(stmt.caches)}"]
    if isinstance(stmt, LocalMapDecl):
        return [f"{pad}localmap {stmt.name}"]
    if isinstance(stmt, MergeInto):
        return [f"{pad}merge %{stmt.acc} -> {stmt.target!r}"]
    if isinstance(stmt, Clear):
        return [f"{pad}clear {stmt.target!r}"]
    if isinstance(stmt, Finalize):
        return [f"{pad}rebuild {stmt.kind} {stmt.target!r} from {stmt.source!r}"]
    return [f"{pad}{stmt!r}"]


def trigger_str(trigger_ir: TriggerIR) -> str:
    head = f"trigger {trigger_ir.name}({', '.join(trigger_ir.params)}):"
    lines = [head]
    if not trigger_ir.body:
        lines.append("  pass")
    for stmt in trigger_ir.body:
        lines.extend(stmt_lines(stmt, 1))
    return "\n".join(lines)


def _sums_str(loop: ForEachGroup) -> str:
    return ", ".join(
        f"{name} = Σ {expr_str(value)}" for name, value in zip(loop.sums, loop.values)
    )


def grouping_str(trigger_ir: TriggerIR) -> str:
    """``grouped on (<columns>): <sums>`` for a batch body that
    pre-aggregates its rows, else ``""``."""
    for stmt in trigger_ir.body:
        if isinstance(stmt, ForEachGroup):
            return f"grouped on ({', '.join(stmt.group)}): {_sums_str(stmt)}"
    return ""


def _sinks_str(title: str, sinks: dict, triggers: dict) -> str:
    lines = [f"== {title} =="]
    for key in sorted(sinks):
        lines.append(f"{triggers[key].name}:")
        grouping = grouping_str(triggers[key])
        if grouping:
            lines.append(f"  {grouping}")
        if not sinks[key]:
            lines.append("  (no statements)")
        for statement, sink in sinks[key]:
            lines.append(f"  [{sink:>12}] {statement}")
    return "\n".join(lines)


def batch_sinks_str(ir: ProgramIR) -> str:
    """The per-statement batch-sink report (``--dump-ir``).

    For every trigger, how each compiled statement leaves the batch row
    loop: ``direct`` (applied per row), ``accumulator`` (first-order
    batch local flushed once), ``second-order`` (target cleared and
    restated once per batch — the delta-of-delta sink),
    ``per-row``/``buffered`` (the whole per-event body replays per row),
    or ``grouped`` (the batch is pre-aggregated and the body runs once per
    group; a ``grouped on (<columns>)`` line names the group's columns
    and its sums).
    """
    return _sinks_str("batch sinks", ir.batch_sinks, ir.batch_triggers)


def event_sinks_str(ir: ProgramIR) -> str:
    """The per-statement per-event sink report (``--dump-ir``): ``direct``
    (applied where computed), ``buffered`` (appended, flushed after the
    last statement), ``accumulator`` (a loop sum in a scalar local,
    written once after the last statement) or ``second-order`` (restated
    when a watched extremum moved)."""
    return _sinks_str("event sinks", ir.event_sinks, ir.triggers)


def passes_str(ir: ProgramIR) -> str:
    """The pass list in pipeline order, each with the change in IR node
    count it made over every trigger body (``ProgramIR.pass_yield``)."""
    return ", ".join(
        f"{name} ({-ir.pass_yield.get(name, 0):+d} nodes)" for name in ir.passes
    )


def program_str(ir: ProgramIR) -> str:
    """The full IR dump: map declarations, passes, per-event and batch
    sinks, every trigger body."""
    lines = ["== IR maps =="]
    for decl in ir.maps.values():
        role = f" ({decl.role})" if decl.role != "derived" else ""
        lines.append(
            f"{decl.name}[{','.join(decl.keys)}]{role} "
            f"<{decl.storage}> := {decl.defn}"
        )
    lines.append("")
    lines.append("== IR passes ==\n" + (passes_str(ir) if ir.passes else "(none)"))
    if ir.event_sinks:
        lines.append("")
        lines.append(event_sinks_str(ir))
    if ir.batch_sinks:
        lines.append("")
        lines.append(batch_sinks_str(ir))
    for key in sorted(ir.triggers):
        lines.append("")
        lines.append(trigger_str(ir.triggers[key]))
    for key in sorted(ir.batch_triggers):
        lines.append("")
        lines.append(trigger_str(ir.batch_triggers[key]))
    return "\n".join(lines)


def ir_stats(ir: ProgramIR) -> dict[str, int]:
    """Loop/statement counts for the compile trace summary."""
    from repro.ir.nodes import walk_stmts

    loops = blocks = hoisted = keys = 0
    for trigger_ir in ir.triggers.values():
        for stmt in walk_stmts(trigger_ir.body):
            if isinstance(stmt, ForEachMap):
                loops += 1
            elif isinstance(stmt, Block):
                blocks += 1
            elif isinstance(stmt, Assign) and isinstance(stmt.value, KeyTuple):
                keys += 1
            elif isinstance(stmt, Assign) and stmt.name.startswith("__h"):
                hoisted += 1
    return {
        "maps": len(ir.maps),
        "triggers": len(ir.triggers),
        "blocks": blocks,
        "loops": loops,
        "hoisted_temps": hoisted,
        "shared_keys": keys,
    }
