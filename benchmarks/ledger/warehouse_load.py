"""warehouse-load: the same trigger and storage layers, used the other way.

The four SSB flight queries compile into *one* program (44 shared maps);
dimensions bulk-load through ``load_static_tables`` and the fact feed of a
seeded ``TpchGenerator`` streams through ``process_stream(batch_size=1000)``.
Insert-only, long same-relation runs (true batches: accumulator sinks,
columnar ``EventBatch``), state that grows and rehashes.  A per-event fast
path paid for in batch speed or memory shows here and not on finance-event.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro import DeltaEngine, batches, compile_queries
from repro.algebra.translate import translate_sql
from repro.runtime.events import StreamEvent
from repro.runtime.profiler import map_memory_bytes
from repro.workloads.ssb import SSB_FLIGHT, ssb_catalog
from repro.workloads.tpch import TpchGenerator

from benchmarks.ledger import storage_probe
from benchmarks.ledger.common import (
    Outcome,
    note_host,
    peak_rss_mb,
    per_reference_second,
    rounds,
    summarize,
    traced_section,
)
from benchmarks.ledger.oracle import SqliteOracle, mismatches

NAME = "warehouse-load"

#: TPC-H scale factor: ~37k fact events, ~48k map entries, one pass ~0.7 s
#: on the reference host.
SCALE_FACTOR = 0.005
SMOKE_SCALE_FACTOR = 0.0005
#: Seed of the dimension tables, the same in every run.  At this scale a
#: region holds 10 +- 3 of the 50 suppliers, so seeded dimensions move the
#: share of facts that pass the queries' filters — and with it the state
#: size (42k-60k entries) and the rate (+-8%) — from seed to seed.
DIMENSION_SEED = 1992
BATCH_SIZE = 1000
ORDER_CHUNK = 1000

_clock = time.perf_counter


@dataclass
class State:
    static: dict  # dimension relation -> rows
    events: list
    program: object
    catalog: object


def generate(seed: int, scale_factor: float) -> tuple[dict, list]:
    """``(dimension tables, fact feed)``: the dimensions are the
    warehouse's standing reference data, the same in every run; the seed
    draws the orders and lineitems that stream in."""
    generator = TpchGenerator(sf=scale_factor, seed=DIMENSION_SEED)
    static = generator.static_tables()
    # Every table draws from its own "<seed>:<table>" stream when asked
    # for, and the part-supplier pairs lineitems must reference were fixed
    # at construction: only the fact draw follows the run's seed.
    generator.seed = seed
    return static, _load_file_order(generator)


def setup(seed: int, smoke: bool) -> State:
    catalog = ssb_catalog()
    static, events = generate(seed, SMOKE_SCALE_FACTOR if smoke else SCALE_FACTOR)
    program = compile_queries(
        [translate_sql(sql, catalog, name=name) for name, sql in SSB_FLIGHT.items()],
        catalog,
    )
    state = State(static, events, program, catalog)
    _fresh_engine(state)  # prefill: one engine built and loaded, as in every pass
    return state


def _load_file_order(generator: TpchGenerator) -> list:
    """The fact feed as a warehouse loader delivers it: ``ORDER_CHUNK``
    orders, then those orders' lineitems, and so on.

    ``TpchGenerator`` emits each order followed by its 1-7 lineitems, so
    the raw feed's same-relation runs average 2.5 rows and
    ``batch_size=1000`` never sees a real batch.  Chunked delivery keeps
    every order ahead of its lineitems (the stream is insert-only, so the
    final database is the same) and gives the batch path 1000-row runs."""
    events: list = []
    orders: list = []
    lines: list = []
    for relation, row in generator.orders_and_lineitems():
        if relation == "orders":
            if len(orders) == ORDER_CHUNK:
                events += orders + lines
                orders, lines = [], []
            orders.append(StreamEvent(relation, 1, row))
        else:
            lines.append(StreamEvent(relation, 1, row))
    return events + orders + lines


def teardown(state: State) -> None:
    pass


def _fresh_engine(state: State) -> DeltaEngine:
    """An engine with every dimension bulk-loaded, one batch per table (what
    ``load_static_tables`` does with a generator's tables)."""
    engine = DeltaEngine(state.program)
    for relation, rows in state.static.items():
        engine.load(relation, rows)
    return engine


def _check(state: State, engine: DeltaEngine, outcome: Outcome) -> None:
    oracle = SqliteOracle(state.catalog)
    for relation, rows in state.static.items():
        oracle.load(relation, rows)
    for relation in ("orders", "lineitem"):
        oracle.load(
            relation, (e.values for e in state.events if e.relation == relation)
        )
    for name, sql in SSB_FLIGHT.items():
        outcome.attempted += 1
        outcome.fail(
            mismatches(engine.results(name), oracle.rows(sql)),
            f"{name} differs from sqlite",
        )
    outcome.fail(engine.events_skipped, "events skipped")
    oracle.close()


def measure(state: State, seconds: float, minimum: int = 3) -> Outcome:
    outcome = Outcome()
    last: dict = {}

    def one_round() -> dict:
        engine = last["engine"] = _fresh_engine(state)
        started = _clock()
        consumed = engine.process_stream(state.events, batch_size=BATCH_SIZE)
        elapsed = _clock() - started
        outcome.attempted += consumed
        return {"rate": consumed / elapsed}

    samples, factors = rounds(one_round, seconds, minimum)
    engine = last["engine"]
    outcome.metrics["events_per_s"] = summarize(
        outcome, "process_stream",
        per_reference_second(samples["rate"], factors), " ev/s",
    )
    note_host(outcome, factors)
    outcome.metrics["e2e.state_mb"] = sum(map_memory_bytes(engine.maps).values()) / 1e6
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    outcome.notes.append(
        f"{len(state.events)} events, {engine.total_entries()} map entries"
    )
    _check(state, engine, outcome)
    return outcome


def trace(state: State, seconds: float, recorder) -> Outcome:
    """``process_stream``'s own loop, driven from outside: a span around
    each ``next()`` of ``batches`` and each ``process_batch_columns``."""
    outcome = measure(state, seconds / 4, minimum=1)

    engine = _fresh_engine(state)
    started = _clock()
    for batch in batches(state.events, BATCH_SIZE):
        engine.process_batch_columns(batch.relation, batch.sign, batch.columns)
    outcome.untraced_wall += _clock() - started

    engine = _fresh_engine(state)
    group = recorder.wrap_generator(batches, "events.group")
    apply = recorder.wrap(engine.process_batch_columns, "engine.batch")
    with traced_section(recorder, outcome):
        for batch in group(state.events, BATCH_SIZE):
            recorder.new_trace()
            apply(batch.relation, batch.sign, batch.columns)
    outcome.attempted += len(state.events)

    metrics = outcome.metrics
    groups = recorder.durations("events.group")
    metrics["events.group_us_per_batch"] = 1e6 * sum(groups) / len(groups)
    metrics["engine.batch_us_per_event"] = (
        1e6 * sum(recorder.durations("engine.batch")) / len(state.events)
    )
    metrics["engine.events_skipped"] = float(engine.events_skipped)
    started = _clock()
    for name in SSB_FLIGHT:
        engine.results(name)
    outcome.untraced_wall += _clock() - started
    render = recorder.wrap(engine.results, "views.render")
    with traced_section(recorder, outcome):
        for name in SSB_FLIGHT:
            render(name)
    renders = recorder.durations("views.render")
    metrics["views.render_us"] = 1e6 * sum(renders) / len(renders)
    metrics.update(storage_probe.probe(engine.maps))
    _check(state, engine, outcome)
    return outcome
