"""Shared benchmark harness: the DBMS bakeoff machinery (Figure 4).

Methodology
-----------
Per-update cost depends on live state size, so every measurement is taken at
*steady state*: an engine is prefilled with a prefix of the workload stream,
snapshotted, and the measured call processes a fixed slice of subsequent
events on a fresh copy of the snapshot.  All systems see identical streams
and slices; reported numbers are events/second over the slice.

Running ``python benchmarks/harness.py`` prints the full paper-style tables
(throughput with speedup factors, and state sizes); the ``bench_*`` modules
expose the same measurements through pytest-benchmark.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.baselines import UnsupportedQueryError, make_engine
from repro.runtime.events import StreamEvent
from repro.sql.catalog import Catalog

#: Bakeoff rows, in the order the paper's dashboard lists its systems.
BAKEOFF_SYSTEMS = [
    "dbtoaster",
    "dbtoaster_interp",
    "streamops",
    "ivm",
    "reeval",
]


@dataclass
class SteadyState:
    """A prefilled engine snapshot plus the slice it will measure."""

    kind: str
    engine: object
    slice_events: list[StreamEvent]

    def fresh_engine(self):
        return copy.deepcopy(self.engine)

    def run_slice(self, engine) -> int:
        for event in self.slice_events:
            engine.process(event)
        return len(self.slice_events)


def prepare_steady_state(
    kind: str,
    queries: dict[str, str],
    catalog: Catalog,
    stream: Iterable[StreamEvent],
    prefill: int,
    slice_size: int,
    engine_kwargs: Optional[dict] = None,
) -> Optional[SteadyState]:
    """Prefill an engine and capture the measurement slice.

    Returns ``None`` when the system cannot express the queries (the
    paper's point about stream engines and order-book nesting).
    ``engine_kwargs`` pass through to the DBToaster engine kinds (e.g.
    ``{"optimize": False}`` for the IR-optimisation ablation).
    """
    try:
        engine = make_engine(kind, queries, catalog, engine_kwargs=engine_kwargs)
    except UnsupportedQueryError:
        return None
    iterator = iter(stream)
    consumed = 0
    for event in iterator:
        engine.process(event)
        consumed += 1
        if consumed >= prefill:
            break
    slice_events = []
    for event in iterator:
        slice_events.append(event)
        if len(slice_events) >= slice_size:
            break
    return SteadyState(kind=kind, engine=engine, slice_events=slice_events)


@dataclass
class BakeoffRow:
    system: str
    query: str
    events_per_second: Optional[float]
    state_entries: Optional[int]

    @property
    def supported(self) -> bool:
        return self.events_per_second is not None


def measure(state: Optional[SteadyState], rounds: int = 3) -> tuple[Optional[float], Optional[int]]:
    """Best-of-``rounds`` events/second on the steady-state slice."""
    if state is None:
        return None, None
    best = float("inf")
    engine = None
    for _ in range(rounds):
        engine = state.fresh_engine()
        start = time.perf_counter()
        count = state.run_slice(engine)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / max(count, 1))
    entries = engine.total_entries() if hasattr(engine, "total_entries") else None
    return (1.0 / best if best > 0 else float("inf")), entries


def bench_metadata(optimize: bool = True, native: bool = False) -> dict:
    """IR-optimisation and native-kernel settings stamped into a bench
    script's ``--json`` payload, so a number can be traced to a pass
    configuration or a toolchain."""
    from repro.codegen.native import probe_toolchain
    from repro.ir import DEFAULT_PASSES

    return {
        "ir_optimize": optimize,
        "ir_passes": list(DEFAULT_PASSES) if optimize else [],
        "toolchain": probe_toolchain().describe(),
        "native": bool(native),
    }


def write_bench_json(
    path: str | Path,
    benchmark: str,
    metrics: dict[str, float],
    metadata: Optional[dict] = None,
) -> None:
    """Persist one benchmark run: the raw ``metrics`` plus the run's
    ``metadata`` (IR optimisation settings by default)."""
    payload = {
        "benchmark": benchmark,
        "metadata": metadata if metadata is not None else bench_metadata(),
        "metrics": {key: value for key, value in sorted(metrics.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(metrics)} metrics)")


def run_bakeoff(
    queries: dict[str, str],
    catalog: Catalog,
    make_stream,
    prefill: int,
    slice_size: int,
    systems: Iterable[str] = tuple(BAKEOFF_SYSTEMS),
    rounds: int = 3,
) -> list[BakeoffRow]:
    """One bakeoff table: every system against every query, same stream."""
    rows: list[BakeoffRow] = []
    for query_name, sql in queries.items():
        for kind in systems:
            state = prepare_steady_state(
                kind, {query_name: sql}, catalog, make_stream(), prefill, slice_size
            )
            events_per_second, entries = measure(state, rounds=rounds)
            rows.append(
                BakeoffRow(
                    system=kind,
                    query=query_name,
                    events_per_second=events_per_second,
                    state_entries=entries,
                )
            )
    return rows


def format_bakeoff(rows: list[BakeoffRow], baseline: str = "reeval") -> str:
    """Render the throughput table with speedups over the DBMS baseline."""
    queries = list(dict.fromkeys(r.query for r in rows))
    systems = list(dict.fromkeys(r.system for r in rows))
    by_key = {(r.system, r.query): r for r in rows}

    lines = []
    header = f"{'system':<18}" + "".join(f"{q:>16}" for q in queries)
    lines.append(header)
    lines.append("-" * len(header))
    for system in systems:
        cells = []
        for query in queries:
            row = by_key.get((system, query))
            if row is None or not row.supported:
                cells.append(f"{'unsupported':>16}")
            else:
                cells.append(f"{row.events_per_second:>13,.0f}/s")
        lines.append(f"{system:<18}" + "".join(cells))
    lines.append("")
    lines.append("speedup of dbtoaster over each system:")
    for system in systems:
        if system == "dbtoaster":
            continue
        factors = []
        for query in queries:
            top = by_key.get(("dbtoaster", query))
            other = by_key.get((system, query))
            if top and other and top.supported and other.supported:
                factors.append(
                    f"{query}: {top.events_per_second / other.events_per_second:,.0f}x"
                )
            else:
                factors.append(f"{query}: n/a")
        lines.append(f"  vs {system:<16} " + "   ".join(factors))
    return "\n".join(lines)


def format_state_table(rows: list[BakeoffRow]) -> str:
    queries = list(dict.fromkeys(r.query for r in rows))
    systems = list(dict.fromkeys(r.system for r in rows))
    by_key = {(r.system, r.query): r for r in rows}
    lines = [f"{'system':<18}" + "".join(f"{q:>16}" for q in queries)]
    lines.append("-" * len(lines[0]))
    for system in systems:
        cells = []
        for query in queries:
            row = by_key.get((system, query))
            if row is None or row.state_entries is None:
                cells.append(f"{'-':>16}")
            else:
                cells.append(f"{row.state_entries:>16,}")
        lines.append(f"{system:<18}" + "".join(cells))
    return "\n".join(lines)


def main() -> None:
    from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
    from repro.workloads.orderbook import OrderBookGenerator

    catalog = finance_catalog()
    print("=" * 72)
    print("DBMS bakeoff — financial application (order book stream)")
    print("  steady state after 1500 events; slice of 40 events; best of 3")
    print("=" * 72)
    rows = run_bakeoff(
        FINANCE_QUERIES,
        catalog,
        make_stream=lambda: OrderBookGenerator(seed=2009).events(10_000),
        prefill=1_500,
        slice_size=40,
    )
    print(format_bakeoff(rows))
    print()
    print("live state entries at steady state:")
    print(format_state_table(rows))


if __name__ == "__main__":
    main()
