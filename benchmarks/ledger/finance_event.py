"""finance-event: the paper's headline table, one event at a time.

Each of the seven finance queries runs in its own default ``DeltaEngine``
(compiled, columnar, no WAL, no sockets) through ``engine.process(event)``
— a closed loop with one caller.  The natively-eligible queries run the
same events again in ``mode="native"``.  Trigger bodies, storage probes
and engine dispatch do all the work; durability and serving do none.

The feed is ``OrderBookGenerator``'s, held at a fixed book depth.  The
raw generator's book grows by one order per ~12 events and the nested
queries (vwap, axf, mst) cost O(depth) per event, so over a raw prefix a
query's rate is mostly a reading of how deep this seed's book happened to
get (mst: 5.9k-14.5k events/s over ten seeds).  Here a standing order
*expires* once ``DEPTH`` newer orders rest on its side: the book fills to
``DEPTH`` per side during set-up (bulk-loaded into every engine) and then
churns — inserts, cancels, modifications, expiries — at that depth, so
every window of the feed costs the same and rates repeat across seeds.

A *round* gives each engine the next window of the churn; windows are
sized per query (per-event cost spans three orders of magnitude) so a
round of the seven compiled engines takes ~0.35 s on the reference host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro import DeltaEngine, compile_sql
from repro.runtime.events import StreamEvent
from repro.runtime.profiler import map_memory_bytes
from repro.workloads.finance import FINANCE_QUERIES, finance_catalog
from repro.workloads.orderbook import OrderBookGenerator

from benchmarks.ledger import stats, storage_probe
from benchmarks.ledger.common import (
    FINANCE,
    NATIVE,
    Outcome,
    note_host,
    peak_rss_mb,
    per_reference_second,
    rounds,
    summarize,
    traced_section,
)
from benchmarks.ledger.oracle import SqliteOracle, mismatches, net_live_rows

NAME = "finance-event"

#: Standing orders per side.  At 100, mst runs ~1k events/s and psp ~900k.
DEPTH = 100
SMOKE_DEPTH = 30

#: Events of churn generated, and how many of them one round hands each
#: engine: ~75 ms of work for the slow queries, capped for the fast ones
#: so the churn lasts 30 rounds.
CHURN = 75_000
WINDOW = {
    "compiled": {"vwap": 2500, "axf": 1800, "bsp": 2500, "psp": 2500,
                 "mst": 120, "bbo": 2000, "act": 2500},
    "native": {"vwap": 2500, "axf": 2000, "bsp": 2500, "psp": 2500, "mst": 500},
}
SMOKE_SHRINK = 10  # --smoke: a tenth of the churn and of every window

_clock = time.perf_counter


def bounded_book(seed: int, depth: int, churn: int) -> tuple[dict, list]:
    """``(prefill, events)``: the rows standing on each side once both
    hold ``depth`` orders, and the ``churn`` events that follow.

    Every event is the generator's own, except that an insert which takes
    a side past ``depth`` is followed by a delete of that side's oldest
    standing order, and the generator's later cancels of expired orders
    are dropped (a later modify of one re-enters it as a new order)."""
    live: dict[str, dict] = {"bids": {}, "asks": {}}  # side -> id -> row
    prefill: Optional[dict] = None
    events: list = []
    for event in OrderBookGenerator(seed=seed).events(1 << 62):
        book = live[event.relation]
        order_id = event.values[1]
        if event.sign > 0:
            book[order_id] = event.values
            events.append(event)
            if len(book) > depth:
                oldest = next(iter(book))
                events.append(StreamEvent(event.relation, -1, book.pop(oldest)))
        elif book.get(order_id) == event.values:
            del book[order_id]
            events.append(event)
        if prefill is None:
            if all(len(side) >= depth for side in live.values()):
                prefill = {side: list(rows.values()) for side, rows in live.items()}
                events.clear()
        elif len(events) >= churn:
            return prefill, events[:churn]
    raise AssertionError("unreachable: the generator never ends")


@dataclass
class Lane:
    """One engine and its place in the churn."""

    query: str
    mode: str
    engine: DeltaEngine
    window: int
    cursor: int = 0

    def next_window(self, churn: list) -> Optional[list]:
        events = churn[self.cursor : self.cursor + self.window]
        if len(events) < self.window:
            return None
        self.cursor += self.window
        return events


@dataclass
class State:
    prefill: dict
    churn: list
    programs: dict
    catalog: object
    shrink: int
    lanes: list


def _lanes(state: State) -> list:
    """A fresh engine per query and mode, the full book bulk-loaded."""
    lanes = []
    for mode, windows in WINDOW.items():
        for query, window in windows.items():
            engine = DeltaEngine(state.programs[query], mode=mode)
            for side, rows in state.prefill.items():
                engine.process_batch(side, 1, rows)
            lanes.append(
                Lane(query, mode, engine, max(1, window // state.shrink))
            )
    return lanes


def setup(seed: int, smoke: bool) -> State:
    shrink = SMOKE_SHRINK if smoke else 1
    catalog = finance_catalog()
    prefill, churn = bounded_book(
        seed, SMOKE_DEPTH if smoke else DEPTH, CHURN // shrink
    )
    programs = {
        query: compile_sql(FINANCE_QUERIES[query], catalog, name=query)
        for query in FINANCE
    }
    state = State(prefill, churn, programs, catalog, shrink, [])
    # Prefill: engines built (on first use in a checkout that compiles the
    # C kernels, so no measured round pays for gcc) and the book loaded.
    state.lanes = _lanes(state)
    return state


def teardown(state: State) -> None:
    pass


def _check(state: State, lanes: list, outcome: Outcome) -> None:
    """Every engine's rows against sqlite over the rows its part of the
    feed leaves standing."""
    oracle = SqliteOracle(state.catalog)
    loaded = [
        StreamEvent(side, 1, row)
        for side, rows in state.prefill.items()
        for row in rows
    ]
    for lane in lanes:
        events = loaded + state.churn[: lane.cursor]
        oracle.clear()
        oracle.load_live(net_live_rows(events))
        outcome.attempted += 1
        outcome.fail(
            mismatches(
                lane.engine.results(lane.query), oracle.rows(FINANCE_QUERIES[lane.query])
            ),
            f"{lane.query}/{lane.mode} differs from sqlite",
        )
        # vwap and act read bids only: the feed's asks are theirs to skip.
        reads = {relation for relation, _ in state.programs[lane.query].triggers}
        unread = sum(1 for event in events if event.relation not in reads)
        outcome.fail(
            abs(lane.engine.events_skipped - unread),
            f"{lane.query}/{lane.mode} skipped events of a relation it reads",
        )
    oracle.close()


def measure(
    state: State, seconds: float, minimum: int = 3, modes: tuple = ("compiled",)
) -> Outcome:
    """Rounds over the lanes of ``modes``.  The end-to-end metrics read the
    compiled lanes only; the native rate is a per-layer metric, so the
    native lanes run only when the per-layer listing asks (``trace``)."""
    outcome = Outcome()
    lanes = [lane for lane in state.lanes if lane.mode in modes]

    def one_round() -> Optional[dict]:
        rates = {}
        for lane in lanes:
            events = lane.next_window(state.churn)
            if events is None:
                return None
            process = lane.engine.process
            started = _clock()
            for event in events:
                process(event)
            rates[f"{lane.mode}/{lane.query}"] = len(events) / (_clock() - started)
            outcome.attempted += len(events)
        return rates

    samples, factors = rounds(one_round, seconds, minimum)
    rate = {
        key: summarize(
            outcome, key, per_reference_second(samples[key], factors), " ev/s"
        )
        for key in sorted(samples)
    }
    note_host(outcome, factors)
    outcome.metrics["events_per_s"] = stats.geometric_mean(
        [rate[f"compiled/{query}"] for query in FINANCE]
    )
    if "native" in modes:
        outcome.metrics["e2e.native_events_per_s"] = stats.geometric_mean(
            [rate[f"native/{query}"] for query in NATIVE]
        )
    outcome.metrics["e2e.state_mb"] = sum(
        sum(map_memory_bytes(lane.engine.maps).values())
        for lane in state.lanes
        if lane.mode == "compiled"
    ) / 1e6
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    _check(state, lanes, outcome)
    return outcome


def trace(state: State, seconds: float, recorder) -> Outcome:
    """Twin engines take the same windows, one plainly and one with a span
    around every ``engine.process`` call (one trace id per event)."""
    # The untraced e2e.* numbers, native lanes included.
    outcome = measure(state, seconds / 4, minimum=1, modes=tuple(WINDOW))
    plain, traced = _lanes(state), _lanes(state)
    begin, finish, new_trace = recorder.begin, recorder.finish, recorder.new_trace
    spans = [
        recorder.intern(f"engine.process.{lane.mode}.{lane.query}") for lane in traced
    ]
    deadline = _clock() + seconds / 2
    exhausted = False
    while not exhausted and _clock() < deadline:
        for twin, lane, span in zip(plain, traced, spans):
            events = lane.next_window(state.churn)
            if events is None:
                exhausted = True
                break
            twin.cursor = lane.cursor
            process = twin.engine.process
            started = _clock()
            for event in events:
                process(event)
            outcome.untraced_wall += _clock() - started
            process = lane.engine.process
            with traced_section(recorder, outcome):
                for event in events:
                    new_trace()
                    index = begin(span)
                    process(event)
                    finish(index)
            outcome.attempted += len(events)

    metrics = outcome.metrics
    for query in FINANCE:
        durations = recorder.durations(f"engine.process.compiled.{query}")
        metrics[f"engine.event_us.{query}"] = 1e6 * sum(durations) / len(durations)
        metrics[f"engine.event_p99_us.{query}"] = (
            1e6 * stats.supported_percentile(durations, 99.0)
        )
    for query in NATIVE:
        durations = recorder.durations(f"engine.process.native.{query}")
        metrics[f"engine.native_event_us.{query}"] = (
            1e6 * sum(durations) / len(durations)
        )
    metrics["engine.events_skipped"] = float(
        sum(lane.engine.events_skipped for lane in traced)
    )  # asks offered to the bids-only queries (vwap, act)

    started = _clock()
    for lane in plain:
        lane.engine.results(lane.query)
    outcome.untraced_wall += _clock() - started
    render = recorder.intern("views.render")
    with traced_section(recorder, outcome):
        for lane in traced:
            index = begin(render)
            lane.engine.results(lane.query)
            finish(index)
    renders = recorder.durations("views.render")
    metrics["views.render_us"] = 1e6 * sum(renders) / len(renders)

    metrics.update(storage_probe.probe({
        f"{lane.query}.{name}": contents
        for lane in traced
        if lane.mode == "compiled"
        for name, contents in lane.engine.maps.items()
    }))
    _check(state, plain + traced, outcome)
    return outcome
