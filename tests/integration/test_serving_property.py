"""Serving must stream exactly what the engine computes.

Property (hypothesis, over the R/S/T strategies): for random event
streams, any batch size, shard counts 1–4 and any late-join point, a
subscriber's accumulated state — the catch-up snapshot plus every
streamed delta — equals the engine's direct
:func:`~repro.runtime.views.query_results` and a reference single
engine's results.  The bulk of the examples run at the
:class:`~repro.runtime.serving.ViewDeltaTap` level (no sockets, so
hypothesis can afford many examples); a smaller socket-level family
pins the same identity through the real server, client and framed
protocol.
"""

from collections import Counter
from functools import lru_cache

import hypothesis.strategies as st
from hypothesis import given, settings
import pytest

from repro.algebra.translate import translate_sql
from repro.compiler import compile_queries
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent, batches
from repro.runtime.serving import (
    ServerThread,
    SubscriberClient,
    ViewDeltaTap,
    apply_changes,
    rows_from_snapshot,
)
from repro.runtime.views import result_delta
from repro.sql.catalog import Catalog
from tests.strategies import events

CATALOG_DDL = """
CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
CREATE STREAM T (C int, D int);
"""

QUERIES = {
    "grouped": "SELECT A, sum(B) FROM R GROUP BY A",
    "join": (
        "SELECT r.B, sum(r.A * s.C) FROM R r, S s "
        "WHERE r.B = s.B GROUP BY r.B"
    ),
    # Non-linear aggregates: streamed deltas must track the
    # auxiliary caches the writes keep (extremum re-derivation
    # retracts one row and asserts another).
    "minmax": "SELECT A, min(B), max(B) FROM R GROUP BY A",
    "distinct": "SELECT A, count(DISTINCT B) FROM R GROUP BY A",
}


@lru_cache(maxsize=None)
def _program(query_name: str):
    catalog = Catalog.from_script(CATALOG_DDL)
    translated = translate_sql(QUERIES[query_name], catalog, name="q")
    return compile_queries([translated], catalog)


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@settings(max_examples=20, deadline=None)
@given(
    stream=st.lists(events(), max_size=40),
    shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=8),
    join_at=st.integers(min_value=0, max_value=40),
)
def test_tap_stream_equals_query_results(
    query_name, stream, shards, batch_size, join_at
):
    program = _program(query_name)
    stream_events = [
        StreamEvent(relation, sign, values) for relation, sign, values in stream
    ]
    reference = DeltaEngine(program)
    for event in stream_events:
        reference.process(event)

    if shards == 1:
        engine = DeltaEngine(program)
    else:
        engine = ShardedEngine(program, shards=shards)
    join_at = min(join_at, len(stream_events))
    # History before the subscriber arrives...
    engine.process_stream(stream_events[:join_at], batch_size=batch_size)
    # ...is captured by its snapshot; everything after streams as deltas.
    tap = ViewDeltaTap(engine)
    _, snapshot_rows = tap.snapshot("q")
    accumulated = Counter(dict(snapshot_rows))

    def listener(lsn, batch):
        for changes in tap.on_batch(lsn, batch).values():
            apply_changes(accumulated, changes)

    engine.add_batch_listener(listener)
    engine.process_stream(stream_events[join_at:], batch_size=batch_size)
    assert accumulated == Counter(engine.results("q"))
    assert accumulated == Counter(reference.results("q"))


@settings(max_examples=10, deadline=None)
@given(
    stream=st.lists(events(), max_size=30),
    batch_size=st.integers(min_value=1, max_value=8),
    join_at=st.integers(min_value=0, max_value=30),
)
def test_subscriber_stream_equals_query_results(stream, batch_size, join_at):
    program = _program("grouped")
    stream_events = [
        StreamEvent(relation, sign, values) for relation, sign, values in stream
    ]
    reference = DeltaEngine(program)
    for event in stream_events:
        reference.process(event)

    engine = DeltaEngine(program)
    join_at = min(join_at, len(stream_events))
    with ServerThread(engine) as handle:
        handle.publish_stream(stream_events[:join_at], batch_size=batch_size)
        with SubscriberClient(handle.host, handle.port) as subscriber:
            rows = rows_from_snapshot(subscriber.subscribe("q"))
            handle.publish_stream(stream_events[join_at:], batch_size=batch_size)
            for frame in subscriber.drain_deltas("q", subscriber.ping()):
                apply_changes(rows, frame["changes"])
    assert rows == Counter(engine.results("q"))
    assert rows == Counter(reference.results("q"))


@pytest.mark.parametrize("query_name", sorted(QUERIES))
@settings(max_examples=20, deadline=None)
@given(
    stream=st.lists(events(), max_size=40),
    batch_size=st.integers(min_value=1, max_value=8),
    join_at=st.integers(min_value=0, max_value=40),
)
def test_touched_group_deltas_equal_the_whole_view_diff(
    query_name, stream, batch_size, join_at
):
    """What the tap emits from the groups a batch touched is, change
    list for change list, the whole-view ``result_delta`` of the rendered
    view before and after — kept here as the reference — including on
    streams that delete rows which were never inserted (negative
    multiplicities) and extremum deletes that re-derive a group's row."""
    program = _program(query_name)
    stream_events = [
        StreamEvent(relation, sign, values) for relation, sign, values in stream
    ]
    engine = DeltaEngine(program)
    join_at = min(join_at, len(stream_events))
    engine.process_stream(stream_events[:join_at], batch_size=batch_size)
    tap = ViewDeltaTap(engine)
    assert tap.incremental == {"q": True}
    previous = Counter(engine.results("q"))
    assert Counter(dict(tap.snapshot("q")[1])) == previous
    for lsn, batch in enumerate(batches(stream_events[join_at:], batch_size)):
        engine.process_batch(batch.relation, batch.sign, batch.rows)
        current = Counter(engine.results("q"))
        emitted = tap.on_batch(lsn, batch).get("q", [])
        assert emitted == result_delta(previous, current)
        previous = current
