"""A batch is a window: ``batches(feed, n)`` cuts each ``n``-event window
into one batch per relation.

* The cut (hypothesis, on the RST shapes' streams and on the book): each
  window yields at most one batch per relation, in order of first
  appearance, and each batch is a stable slice of its window — the
  relation's events, in stream order, with their weights.
* Who regroups: ``process_stream`` on an RST shape leaves maps
  ``repr``-equal to per-event processing over the regrouped order when
  every ring map is an exact integer, and over the stream's own order when
  one is FLOAT (the float twin), at every window size; a map a
  pre-aggregating trigger writes has equal entries
  (``lanes.batch_identity``), as a group writes each key once.
* A durable sharded engine abandoned between the two batches of one window
  recovers to the per-event state of that regrouped prefix (bsp
  pre-aggregates: the entries of the maps its triggers write).
* A window that mixes static and stream rows is accepted with sqlite's
  answer, or refused whole with the named static-table error — never
  half-applied.
"""

from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import compile_sql
from repro.errors import EventError
from repro.runtime import DeltaEngine, ShardedEngine, StreamEvent
from repro.runtime.durability import CrashPoint, DurableEngine, recover_engine
from repro.runtime.engine import engine_state
from repro.runtime.events import batches, flatten
from repro.sql.catalog import Catalog
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows
from tests.strategies import events


@lru_cache(maxsize=None)
def _book() -> tuple:
    return tuple(lanes.bounded_book(2009, 100, 600))


@st.composite
def feeds(draw):
    """An RST shape's stream, or a slice of the book."""
    if draw(st.booleans()):
        shape = draw(st.sampled_from(sorted(lanes.RST_QUERIES)))
        return lanes.rst_stream(shape, draw(st.lists(events(), max_size=40)))
    start = draw(st.integers(0, len(_book()) - 1))
    return list(_book()[start:start + draw(st.integers(0, 60))])


def _by_window(runs, size: int) -> list[list]:
    """``runs`` split where the events they hold fill a window."""
    windows, current, count = [], [], 0
    for run in runs:
        current.append(run)
        count += len(run)
        if count == size:
            windows.append(current)
            current, count = [], 0
    assert not current or count < size
    return windows + [current] * bool(current)


@settings(max_examples=60, deadline=None)
@given(feed=feeds(), batch_size=st.one_of(st.none(), st.integers(1, 9)))
def test_each_window_is_one_stable_batch_per_relation(feed, batch_size):
    size = batch_size or max(len(feed), 1)
    windows = _by_window(list(batches(feed, batch_size)), size)
    assert len(windows) == -(-len(feed) // size)
    for index, window in enumerate(windows):
        chunk = feed[index * size:(index + 1) * size]
        relations = [batch.relation for batch in window]
        assert relations == list(dict.fromkeys(e.relation for e in chunk))
        for batch in window:
            assert list(batch) == [e for e in chunk if e.relation == batch.relation]


@pytest.mark.parametrize("shape", sorted(lanes.RST_QUERIES))
@settings(max_examples=10, deadline=None)
@given(
    stream=st.lists(events(), max_size=40),
    batch_size=st.one_of(st.none(), st.integers(1, 8)),
)
def test_process_stream_regroups_only_exact_programs(shape, stream, batch_size):
    program, feed = lanes.rst_program(shape), lanes.rst_stream(shape, stream)
    engine = DeltaEngine(program)
    assert engine.process_stream(feed, batch_size) == len(feed)
    if shape in lanes.FLOAT_TWINS:
        order = feed
    else:
        delivery = "stream" if batch_size is None else f"stream-{batch_size}"
        order = lanes.applied_order(feed, delivery)
    reference = DeltaEngine(program)
    for event in order:
        reference.process(event)
    identity = lanes.batch_identity(program)
    assert identity(engine.maps) == identity(reference.maps)
    assert engine.events_processed == reference.events_processed


class _Crash(Exception):
    """Stands in for a SIGKILL."""


def _crash():
    raise _Crash()


def test_durable_sharded_engine_abandoned_mid_window_recovers(tmp_path):
    program = lanes.shipped_program("bsp", "q")
    feed, size = list(_book()[:400]), 50
    runs = list(batches(feed, size))
    windows = _by_window(runs, size)
    assert all(len(window) == 2 for window in windows)  # bids and asks
    # Abandoned after the first batch of the fourth window.
    logged = sum(map(len, windows[:3])) + 1
    probe = CrashPoint("engine.after_apply", hits=logged, action=_crash)
    engine = DurableEngine(program, tmp_path, shards=2, fsync="always", probe=probe)
    with pytest.raises(_Crash):
        engine.process_stream(feed, size)
    engine.abandon()
    recovered, lsn = recover_engine(program, tmp_path)
    assert lsn == logged
    prefix = list(flatten(runs[:logged]))
    assert len(prefix) % size  # the window is cut between its batches
    reference = DeltaEngine(program)
    for event in prefix:
        reference.process(event)
    identity = lanes.batch_identity(program)
    assert identity(recovered.maps) == identity(reference.maps)
    assert recovered.results("q") == reference.results("q")
    assert recovered.events_processed == reference.events_processed == len(prefix)


_STATIC = Catalog.from_script(
    "CREATE TABLE dim (k int, v int); CREATE STREAM fact (k int, x int);"
)
_STATIC_SQL = "SELECT sum(f.x * d.v) FROM fact f, dim d WHERE f.k = d.k"

#: A dimension row (a cancel now and then) or a fact insert.
_STATIC_EVENTS = st.one_of(
    st.builds(
        StreamEvent, st.just("dim"), st.sampled_from([1, 1, 1, -1]),
        st.tuples(st.integers(0, 2), st.integers(1, 3)),
    ),
    st.builds(
        StreamEvent, st.just("fact"), st.just(1),
        st.tuples(st.integers(0, 2), st.integers(1, 5)),
    ),
)


def _snapshot(engine) -> str:
    return repr(engine_state(getattr(engine, "engine", engine)))


@pytest.mark.parametrize("shape", ["delta", "sharded", "durable"])
@settings(max_examples=20, deadline=None)
@given(feed=st.lists(_STATIC_EVENTS, max_size=16), size=st.integers(2, 6))
def test_a_window_mixing_static_and_stream_rows_applies_whole_or_not(
    shape, feed, size, tmp_path_factory
):
    program = compile_sql(_STATIC_SQL, _STATIC, name="q")
    engine = {
        "delta": lambda: DeltaEngine(program),
        "sharded": lambda: ShardedEngine(program, shards=2),
        "durable": lambda: DurableEngine(
            program, tmp_path_factory.mktemp("wal"), shards=2, fsync="none"
        ),
    }[shape]()
    oracle = SqliteOracle(_STATIC, _STATIC_SQL)
    for start in range(0, len(feed), size):
        window = feed[start:start + size]
        before, lsn = _snapshot(engine), getattr(engine, "lsn", None)
        try:
            engine.process_stream(window, size)
        except EventError as refused:
            assert "static table 'dim'" in str(refused)
            assert _snapshot(engine) == before
            assert getattr(engine, "lsn", None) == lsn
            break
        oracle.apply_all(window)
        assert normalize_rows(engine.results("q")) == oracle.rows()
    engine.close()


def test_static_rows_ahead_of_a_window_load_first():
    """A window whose dimension rows come first loads them ahead of its
    facts even where a later dimension row follows a fact; one whose fact
    comes first is refused whole."""
    program = compile_sql(_STATIC_SQL, _STATIC, name="q")
    dim, fact = (1, 2), (1, 5)
    engine = DeltaEngine(program)
    window = [StreamEvent("dim", 1, dim), StreamEvent("fact", 1, fact),
              StreamEvent("dim", 1, (1, 3))]
    assert engine.process_stream(window, 3) == 3
    assert engine.results("q") == [(25,)]
    refused = DeltaEngine(program)
    with pytest.raises(EventError, match="cannot change after stream"):
        refused.process_stream(window[1:], 2)
    assert refused.events_processed == 0 and not any(refused.maps.values())
