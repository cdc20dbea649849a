"""A batch is consolidated before its body runs: an independent trigger
whose writes are exact integers folds its rows into one entry per value
of the one column (or none) its statements key on, look up or test, and
runs its body once per group over the group's sums of ``weight ×
value product`` (``repro.ir.lower.plan_preaggregation``).

* A random-stream property (hypothesis) over RST shapes that
  pre-aggregate, with an empty group and with one column: its feeds
  repeat group keys (a domain of four values), cancel a row inside a
  batch, and swap a live row for one differing in a single column, so a
  group's weights sum to 0 while its values do not.  Each runs per
  event, through ``process_stream`` at windows 7 and 100 on both Python
  executors and behind 2 in-process shards: the maps hold the per-event
  run's entries (``lanes.exact_items``), and the results equal sqlite's
  at every window boundary.  CI's fixed-seed step runs it at four times
  the examples (``tests/integration/preaggregate_ci.py``).
* A group whose weights cancel writes its value sum, and no zero delta.
* A durable 2-shard engine abandoned mid-stream recovers the per-event
  entries.
* What does not pre-aggregate keeps its batch body byte for byte: a FLOAT
  sum (``grouped_three_way_float``) and a trigger keyed on two columns
  (``chain_join``'s S).
"""

import hashlib
import re
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.codegen.pygen import generate_module
from repro.compiler import compile_sql
from repro.ir.lower import lower_program
from repro.ir.nodes import ForEachGroup
from repro.ir.pretty import batch_sinks_str, grouping_str
from repro.runtime import DeltaEngine, StreamEvent
from repro.runtime.durability import DurableEngine, recover_engine
from repro.runtime.engine import EMPTY_STATE
from repro.runtime.events import batches
from repro.tools.trace import ir_summary
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows, run_differential

#: name -> (sql, {relation: the parameters its batch groups on}); a
#: relation the query reads that this leaves out keeps the row loop.
SHAPES = {
    # psp's shape: every batch folds into one row.
    "cross": ("SELECT sum(r.A - s.C) FROM R r, S s", {"R": (), "S": ()}),
    # bsp's: each side grouped on the join column, two sums each.
    "co_partitioned_join": (
        lanes.RST_QUERIES["co_partitioned_join"],
        {"R": ("ev_r_b",), "S": ("ev_s_b",)},
    ),
    # A group's sums written under the keys of the loop they multiply:
    # staged writes, which a zero delta would reach.
    "grouped_three_way": (
        lanes.RST_QUERIES["grouped_three_way"],
        {"T": ("ev_t_c",)},
    ),
    "chain_join": (
        lanes.RST_QUERIES["chain_join"],
        {"R": ("ev_r_b",), "T": ("ev_t_c",)},
    ),
}

#: The relations each shape's feeds draw rows of.
_READS = {
    "cross": ("R", "S"),
    "co_partitioned_join": ("R", "S"),
    "grouped_three_way": ("R", "S", "T"),
    "chain_join": ("R", "S", "T"),
}

#: Tier-1's examples per shape (CI's fixed-seed step runs four times as
#: many).
EXAMPLES = 10

_ARITY = {"R": 2, "S": 2, "T": 2}


@lru_cache(maxsize=None)
def _program(shape):
    return compile_sql(SHAPES[shape][0], lanes.RST, name="q")


def _groups(program) -> dict:
    """{relation: the group of its batch trigger}, for those that fold."""
    return {
        key[0]: stmt.group
        for key, trigger_ir in lower_program(program).batch_triggers.items()
        for stmt in trigger_ir.body
        if isinstance(stmt, ForEachGroup)
    }


@st.composite
def cancelling_feeds(draw, relations):
    """A feed over ``relations`` that deletes only live rows: inserts,
    deletes, an insert cancelled at once, and a *swap* — a live row
    deleted right after a row differing from it in one column is
    inserted, so where that column is a value both land in one group with
    weights summing to 0."""
    live: dict = {relation: [] for relation in relations}
    feed: list = []

    def row(relation):
        return tuple(draw(st.integers(0, 3)) for _ in range(_ARITY[relation]))

    for _ in range(draw(st.integers(0, 40))):
        relation = draw(st.sampled_from(relations))
        rows = live[relation]
        op = draw(st.sampled_from(("insert", "insert", "delete", "cancel", "swap")))
        if op in ("delete", "swap") and not rows:
            op = "insert"
        if op == "insert":
            rows.append(row(relation))
            feed.append(StreamEvent(relation, 1, rows[-1]))
        elif op == "cancel":
            new = row(relation)
            feed += [StreamEvent(relation, 1, new), StreamEvent(relation, -1, new)]
        else:
            old = rows.pop(draw(st.integers(0, len(rows) - 1)))
            if op == "swap":
                column = draw(st.integers(0, len(old) - 1))
                new = old[:column] + (draw(st.integers(0, 3)),) + old[column + 1:]
                rows.append(new)
                feed.append(StreamEvent(relation, 1, new))
            feed.append(StreamEvent(relation, -1, old))
    return feed


_ENGINES: dict = {}


def _empty(shape, lane):
    if (shape, lane) not in _ENGINES:
        _ENGINES[shape, lane] = lanes.build_engine(_program(shape), lane)
    engine = _ENGINES[shape, lane]
    engine.restore_state(EMPTY_STATE)
    return engine


def check_windows_fold_as_rows_do(shape, feed):
    """The property: per event, at windows 7 and 100, on both Python
    executors and behind 2 shards, the same entries and sqlite's results
    at every window boundary."""
    program = _program(shape)
    assert _groups(program) == SHAPES[shape][1]
    reference = _empty(shape, "compiled")
    lanes.deliver(reference, feed, "process")
    expected = lanes.exact_items(reference.current_maps())
    for lane in (*lanes.PYTHON_EXECUTORS, "compiled/2"):
        for size in (7, 100):
            engine = _empty(shape, lane)
            oracle = SqliteOracle(lanes.RST, SHAPES[shape][0])
            run_differential(engine, oracle, feed, size)
            assert lanes.exact_items(engine.current_maps()) == expected, (lane, size)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_windows_fold_as_rows_do(shape, data):
    check_windows_fold_as_rows_do(shape, data.draw(cancelling_feeds(_READS[shape])))


#: ``R (A, B)`` rows of one ``B`` group: (7, 1) replaces (5, 1) inside a
#: window of two, so the group's weights sum to 0 and its ``A`` to 2.
_SWAP = [
    StreamEvent("S", 1, (1, 3)),
    StreamEvent("R", 1, (5, 1)),
    StreamEvent("R", 1, (7, 1)),
    StreamEvent("R", -1, (5, 1)),
]


@pytest.mark.parametrize("mode", lanes.PYTHON_EXECUTORS)
def test_a_group_whose_weights_cancel_writes_its_value_sum(mode):
    """The batch ``[+(7, 1), -(5, 1)]`` of ``co_partitioned_join`` folds
    into one group, ``Σw = 0`` and ``Σw·A = 2``: the count it keeps does
    not move (no zero delta is written), the sum does."""
    program = _program("co_partitioned_join")
    sql = SHAPES["co_partitioned_join"][0]
    engine = DeltaEngine(program, mode=mode)
    oracle = SqliteOracle(lanes.RST, sql)
    run_differential(engine, oracle, _SWAP[:2], 1)
    run_differential(engine, oracle, _SWAP[2:], 2)
    assert normalize_rows(engine.results("q")) == [(1, 21)]
    reference = DeltaEngine(program)
    lanes.deliver(reference, _SWAP, "process")
    assert lanes.exact_items(engine.maps) == lanes.exact_items(reference.maps)


@pytest.mark.parametrize("shape", ["cross", "co_partitioned_join"])
def test_an_abandoned_durable_sharded_engine_recovers_the_per_event_entries(
    shape, tmp_path
):
    """Two in-process shards behind the WAL, abandoned halfway through a
    cancelling stream: recovery replays each logged batch through the
    same grouped triggers."""
    program = _program(shape)
    feed = [
        StreamEvent(relation, sign, (a, b))
        for a in range(4)
        for relation in ("R", "S")
        for sign, b in ((1, a % 3), (1, (a + 1) % 3), (-1, a % 3))
    ]
    half = len(feed) // 2
    engine = DurableEngine(program, tmp_path, shards=2, fsync="always")
    assert engine.process_stream(feed[:half], 7) == half
    engine.abandon()
    recovered, lsn = recover_engine(program, tmp_path)
    assert lsn == len(list(batches(feed[:half], 7)))
    reference = DeltaEngine(program)
    lanes.deliver(reference, feed[:half], "process")
    assert lanes.exact_items(recovered.maps) == lanes.exact_items(reference.maps)
    assert recovered.results("q") == reference.results("q")
    recovered.close()


#: sha256 prefixes of batch functions that do not pre-aggregate, as they
#: were rendered before pre-aggregation existed.
KEPT_BATCH_BODIES = {
    ("grouped_three_way_float", "R"): "ed2140567db42a2c",
    ("grouped_three_way_float", "S"): "f1a0e99edca0e372",
    ("grouped_three_way_float", "U"): "0623e3f320f2429f",
    ("chain_join", "S"): "2fef891e4f10b352",
}


def _function(source: str, name: str) -> str:
    functions = re.split(r"\n(?=def )", source)
    (found,) = [f for f in functions if f.startswith(f"def {name}(")]
    return found


@pytest.mark.parametrize("shape,relation", sorted(KEPT_BATCH_BODIES))
def test_what_does_not_fold_keeps_its_batch_body(shape, relation):
    program = lanes.rst_program(shape)
    assert relation not in _groups(program)
    batch = _function(generate_module(program), f"on_{relation.lower()}_batch")
    digest = hashlib.sha256(batch.encode()).hexdigest()
    assert digest[:16] == KEPT_BATCH_BODIES[shape, relation]


#: The shipped batch triggers that pre-aggregate: their group and sums.
SHIPPED_GROUPS = {
    ("bsp", "on_asks_batch"): "grouped on (ev_asks_broker_id): __sum2 = Σ __w *"
    " ev_asks_price * ev_asks_volume, __sum3 = Σ __w",
    ("bsp", "on_bids_batch"): "grouped on (ev_bids_broker_id): __sum2 = Σ __w,"
    " __sum3 = Σ __w * ev_bids_price * ev_bids_volume",
    ("psp", "on_asks_batch"): "grouped on (): __sum1 = Σ __w * ev_asks_price,"
    " __sum2 = Σ __w",
    ("psp", "on_bids_batch"): "grouped on (): __sum1 = Σ __w,"
    " __sum2 = Σ __w * ev_bids_price",
    ("mst", "on_bids_batch"): "grouped on (ev_bids_price):"
    " __sum1 = Σ __w * ev_bids_volume",
}


@pytest.mark.parametrize("query", ["vwap", "axf", "bsp", "mst", "psp", "bbo", "act"])
def test_the_sink_reports_name_each_group_and_its_sums(query):
    """``--dump-ir``'s batch sinks and the compile trace's line name a
    pre-aggregating trigger's group and sums; its statements report
    ``grouped``.  Only bsp, psp and mst's bids do, among the finance
    queries (the seven compiled as one program: none)."""
    program = lanes.shipped_program(query, query)
    ir = lower_program(program)
    report = batch_sinks_str(ir)
    line = ir_summary(program)
    for key, trigger_ir in ir.batch_triggers.items():
        expected = SHIPPED_GROUPS.get((query, trigger_ir.name))
        assert grouping_str(trigger_ir) == (expected or "")
        sinks = {sink for _, sink in ir.batch_sinks[key]}
        assert (sinks == {"grouped"}) == bool(expected)
        if expected:
            assert f"{trigger_ir.name}:\n  {expected}\n" in report
            assert f"; {trigger_ir.name} {expected}" in line
    assert not _groups(lanes.shipped_program("finance"))
