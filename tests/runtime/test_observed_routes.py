"""The tap parity matrix for observed routes and event-keyed candidates.

A served engine keeps its route table: a one-row publish calls the
trigger from the route and then the listeners, and a view whose groups
are the event's own values takes its candidate groups off the batch
instead of a :class:`~repro.runtime.storage.RecordingDict`.  Every query
shipped with the finance workload (alone) and the four-view SSB program
are driven through a ``DeltaEngine`` and a ``DurableEngine`` over one,
by ``process()``, by one-row ``process_batch`` calls, by
``batches(feed, k)`` and by columnar batches.  After every batch the live tap's delta frames must
be byte-identical to those of a closed tap (the whole-view candidate
set), and ``snapshot ⊎ deltas`` must equal ``engine.results``; a
mid-stream ``restore_state`` and listener add/remove cycles ride along.
The maps end ``repr``-equal to per-event processing in the order the
batches replay the events (``lanes.applied_order``).
"""

from collections import Counter
from functools import lru_cache
from itertools import islice

import pytest

from repro.runtime import DeltaEngine
from repro.runtime.engine import EMPTY_STATE
from repro.runtime.serving import ViewDeltaTap, _delta_record, apply_changes
from repro.workloads.finance import FINANCE_QUERIES
from repro.workloads.ssb import warehouse_stream
from repro.workloads.tpch import TpchGenerator
from tests.lanes import (
    applied_order,
    build_engine,
    deliver,
    exact_items,
    order_book,
    shipped_program,
)

DELIVERIES = ("process", "one-row", "batch-1", "batch-3", "batch-100", "columns-3")


@lru_cache(maxsize=None)
def _finance(query):
    return shipped_program(query), {}, order_book(31, 120)


@lru_cache(maxsize=None)
def _ssb():
    generator = TpchGenerator(sf=0.0005, seed=1992)
    static = generator.static_tables()
    events = list(islice(warehouse_stream(generator), 150))
    return shipped_program("warehouse"), static, events


#: Where each view's candidate groups come from.  Every finance view's
#: group is a column of the event (or it is scalar); an SSB view groups
#: on dimension attributes a lineitem reads from a map — but q11 is a
#: scalar sum, whose one group every write names.
EXPECTED_MODES = {
    **{query: {"q": "event"} for query in FINANCE_QUERIES},
    "ssb": {"q11": "event", "q21": "recorded", "q31": "recorded", "q41": "recorded"},
}


@pytest.mark.parametrize("delivery", DELIVERIES)
@pytest.mark.parametrize("kind", ["delta", "durable"])
@pytest.mark.parametrize("case", sorted(FINANCE_QUERIES) + ["ssb"])
def test_observed_tap_matches_the_whole_view_tap(case, kind, delivery, tmp_path):
    program, static, events = _ssb() if case == "ssb" else _finance(case)
    engine = build_engine(program, "compiled", tmp_path if kind == "durable" else None)
    for relation, rows in static.items():
        engine.load(relation, rows)
    live = ViewDeltaTap(engine)
    whole = ViewDeltaTap(engine)
    whole.close()
    assert live.candidates == EXPECTED_MODES[case]
    assert whole.candidates == {view: "whole" for view in live.views}
    held = {view: Counter(dict(live.snapshot(view)[1])) for view in live.views}
    seen = []

    def listener(lsn, batch):
        deltas = live.on_batch(lsn, batch)
        reference = whole.on_batch(lsn, batch)
        assert deltas.keys() == reference.keys()
        for view, changes in deltas.items():
            assert (
                _delta_record(view, lsn, 0.0, changes).wire
                == _delta_record(view, lsn, 0.0, reference[view]).wire
            )
            apply_changes(held[view], changes)
        for view in live.views:
            assert held[view] == Counter(engine.results(view)), view
        seen.append(len(batch))

    def idle(lsn, batch):
        pass

    engine.add_batch_listener(listener)
    third = len(events) // 3
    deliver(engine, events[:third], delivery)
    # Columnar batches take the batch path, which installs no route.
    routes = kind == "delta" and delivery != "columns-3"
    if routes:  # an observed relation keeps a route that notifies
        routed = [relation for relation, route in engine._routes.items() if route]
        assert routed
        for relation in routed:
            assert engine._routes[relation][1] is not engine._signed[relation][1]
    snapshot = {name: dict(contents) for name, contents in engine.maps.items()}
    # Listener cycles: another listener comes and goes, ours leaves and
    # comes back, with no batch in between.
    engine.add_batch_listener(idle)
    deliver(engine, events[third : 2 * third], delivery)
    engine.remove_batch_listener(listener)
    engine.add_batch_listener(listener)
    engine.remove_batch_listener(idle)
    # A restore is a whole-map write no batch shows: the next batch's
    # deltas carry it.
    engine.restore_state(
        dict(EMPTY_STATE, maps=snapshot, events_processed=third, stream_started=True)
    )
    deliver(engine, events[third:], delivery)
    driven = events[: 2 * third] + events[third:]
    assert sum(seen) == sum((e.relation, 0) in program.triggers for e in driven)
    engine.remove_batch_listener(listener)
    assert live.candidates == EXPECTED_MODES[case]
    if routes:
        routed = [relation for relation, route in engine._routes.items() if route]
        assert routed
        for relation in routed:
            assert engine._routes[relation][1] is engine._signed[relation][1]
    if kind == "delta":
        # The maps equal the per-event run over the order the deliveries
        # applied the events in, insertion order included, and in their
        # entries the per-event run in stream order.
        applied = applied_order(events[:third], delivery) + applied_order(
            events[third:], delivery
        )
        for order, compare in ((applied, repr), (events, exact_items)):
            plain = DeltaEngine(program)
            for relation, rows in static.items():
                plain.load(relation, rows)
            for event in order:
                plain.process(event)
            assert compare(engine.maps) == compare(plain.maps)
    live.close()
    engine.close()
