"""Profiling: per-trigger event counts, memory estimates, compile times.

This reproduces the paper's demo readouts (Figure 4): "detailed profiling of
DBToaster's compiled code breaking down its overheads for each map, the
binary size, and finally the compile time".  Cache counters are not
observable from Python, so the profiler reports their architecture-level
causes instead: event counts per trigger and live map entries/bytes.
Per-map update counts come from stepping the same stream through a
:class:`~repro.runtime.debugger.Debugger`, which records every update of
every statement.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Mapping


@dataclass
class Profiler:
    """Counts events per trigger (it takes no timings; per-stage
    latencies are the ledger's job).  A flush-path listener: attach it
    with ``engine.add_batch_listener(profiler.on_batch)`` on any engine
    class; it sees every batch that reached a trigger, and nothing a
    recovery replays."""

    events: int = 0
    events_by_trigger: dict[str, int] = field(default_factory=dict)

    def on_batch(self, lsn: int, batch) -> None:
        """Count one batch's rows, each under its own sign (a mixed
        batch carries a weight column)."""
        count = len(batch)
        self.events += count
        sign = batch.sign
        inserts = sign.count(1) if isinstance(sign, list) else count * (sign == 1)
        relation = batch.relation
        for key, n in ((f"+{relation}", inserts), (f"-{relation}", count - inserts)):
            if n:
                self.events_by_trigger[key] = self.events_by_trigger.get(key, 0) + n

    def report(self) -> str:
        lines = [f"events processed: {self.events}"]
        for key in sorted(self.events_by_trigger):
            lines.append(f"  {key}: {self.events_by_trigger[key]}")
        return "\n".join(lines)


def map_memory_bytes(maps: Mapping[str, Mapping]) -> dict[str, int]:
    """Approximate live bytes per map (keys + values + container overhead).

    Dict-backed maps sum the table plus each boxed key tuple, its parts
    and the boxed value; storage objects exposing ``storage_bytes()``
    (:class:`repro.runtime.storage.ColumnarMap`) report their packed
    columns.  A dict's key parts and values are sized as if unshared,
    but small ints and repeated key parts are shared objects, so this
    overcounts what a dict retains: on the finance queries' maps this
    estimate is 1.5-3.8x the retained bytes ``tracemalloc`` measures.
    """
    sizes: dict[str, int] = {}
    for name, contents in maps.items():
        measure = getattr(contents, "storage_bytes", None)
        if measure is not None:
            sizes[name] = measure()
            continue
        total = sys.getsizeof(contents)
        for key, value in contents.items():
            total += sys.getsizeof(key) + sys.getsizeof(value)
            if isinstance(key, tuple):
                total += sum(sys.getsizeof(part) for part in key)
        sizes[name] = total
    return sizes


def total_memory_bytes(maps: Mapping[str, Mapping]) -> int:
    return sum(map_memory_bytes(maps).values())


@dataclass
class CompileReport:
    """Timing and size breakdown of the compilation pipeline (Figure 4)."""

    parse_seconds: float
    compile_seconds: float
    codegen_seconds: float
    exec_seconds: float
    map_count: int
    statement_count: int
    python_source_bytes: int
    #: size of the native C kernel (0 when no map is native-eligible).
    kernel_source_bytes: int

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.compile_seconds
            + self.codegen_seconds
            + self.exec_seconds
        )

    def report(self) -> str:
        return "\n".join(
            [
                f"parse+bind+translate: {self.parse_seconds * 1e3:8.2f} ms",
                f"recursive compile:    {self.compile_seconds * 1e3:8.2f} ms",
                f"code generation:      {self.codegen_seconds * 1e3:8.2f} ms",
                f"exec (to bytecode):   {self.exec_seconds * 1e3:8.2f} ms",
                f"total:                {self.total_seconds * 1e3:8.2f} ms",
                f"maps: {self.map_count}   trigger statements: {self.statement_count}",
                f"generated Python: {self.python_source_bytes} bytes   "
                f"native kernel C: {self.kernel_source_bytes} bytes",
            ]
        )


def profile_compilation(sql: str, catalog, name: str = "q") -> CompileReport:
    """Compile a query while timing each pipeline stage."""
    from repro.algebra.translate import translate_sql
    from repro.compiler.compile import compile_queries
    from repro.codegen.native import kernel_source
    from repro.codegen.pygen import CompiledExecutor, generate_module

    t0 = time.perf_counter()
    translated = translate_sql(sql, catalog, name=name)
    t1 = time.perf_counter()
    program = compile_queries([translated], catalog)
    t2 = time.perf_counter()
    python_source = generate_module(program)
    c_source = kernel_source(program)
    t3 = time.perf_counter()
    executor = CompiledExecutor(program)
    executor.bind(executor.layout.create_maps())
    t4 = time.perf_counter()

    return CompileReport(
        parse_seconds=t1 - t0,
        compile_seconds=t2 - t1,
        codegen_seconds=t3 - t2,
        exec_seconds=t4 - t3,
        map_count=len(program.maps),
        statement_count=program.statements_count(),
        python_source_bytes=len(python_source.encode()),
        kernel_source_bytes=len(c_source.encode()),
    )
