"""Factored extrema: a grouped MIN/MAX/COUNT(DISTINCT) over a join keeps
its occurrence map over the join component that carries its argument.

``repro.algebra.translate.factor_occurrence`` drops the components that
share only group columns with the argument's: on every group the count
slot renders, what they contribute is a non-zero factor, so the
occurrence map's support is unchanged.  The sqlite oracle decides every
shape at every boundary, on every lane, per event and at batch 7, over
streams that empty each relation and refill it while the others change
(a live group's dropped factor goes to zero and back while its kept
factor moves).  The structural pins say where the rule applies and where
it must not: an ungrouped query, sides linked by a non-group variable or
an inequality, an argument reading both sides or only group columns.
"""

from functools import lru_cache

import pytest

from repro.algebra.expr import Rel, relations_in, walk
from repro.algebra.translate import translate_sql
from repro.codegen.pygen import generate_module
from repro.compiler import compile_queries, compile_sql
from repro.ir import lower_program
from repro.ir.nodes import ForEachMap, walk_stmts
from repro.runtime import StreamEvent
from tests import lanes
from tests.integration.sql_oracle import SqliteOracle, normalize_rows, oracle_stream

#: name -> (sql, the relations its MIN/MAX/DISTINCT slots drop).
FACTORED = {
    "max_right_two_way": (
        "SELECT r.B, max(s.C) FROM R r, S s WHERE r.B = s.B GROUP BY r.B",
        ("R",),
    ),
    "min_left_two_way": (
        "SELECT s.B, min(r.A) FROM R r, S s WHERE r.B = s.B GROUP BY s.B",
        ("S",),
    ),
    "distinct_two_way": (
        "SELECT r.B, count(DISTINCT s.C) FROM R r, S s WHERE r.B = s.B "
        "GROUP BY r.B",
        ("R",),
    ),
    "max_left_three_way": (
        "SELECT r.B, max(r.A) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C GROUP BY r.B",
        ("S", "T"),
    ),
    "min_middle_three_way": (
        "SELECT s.B, min(s.C), count(*) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C GROUP BY s.B",
        ("R",),
    ),
    "distinct_right_three_way": (
        "SELECT t.C, count(DISTINCT t.D), max(t.D) FROM R r, S s, T t "
        "WHERE r.B = s.B AND s.C = t.C GROUP BY t.C",
        ("R", "S"),
    ),
    "self_join_max": (
        "SELECT r1.B, max(r1.A) FROM R r1, R r2 WHERE r1.B = r2.B GROUP BY r1.B",
        ("R",),
    ),
}

#: Shapes the rule must leave as they are: an argument reading both
#: sides; sides linked by an inequality besides the group key; ungrouped
#: queries (no count gates their one row), over an equijoin and over a
#: cross product (whose sides share no variable at all); and an argument
#: equated with the group column.
UNFACTORED = {
    "argument_reads_both": (
        "SELECT r.B, max(r.A + s.C) FROM R r, S s WHERE r.B = s.B GROUP BY r.B"
    ),
    "inequality_link": (
        "SELECT r.B, min(s.C) FROM R r, S s WHERE r.B = s.B AND r.A < s.C "
        "GROUP BY r.B"
    ),
    "ungrouped": "SELECT min(s.C) FROM R r, S s WHERE r.B = s.B",
    "ungrouped_cross": "SELECT min(s.C), count(DISTINCT r.A) FROM R r, S s",
    "argument_on_group_key": (
        "SELECT r0.B, max(t1.C) FROM R r0, T t1 WHERE t1.C = r0.B GROUP BY r0.B"
    ),
}

SHAPES = {**{name: sql for name, (sql, _) in FACTORED.items()}, **UNFACTORED}

_HEADER = "== factored extrema =="


def _nonlinear(sql: str):
    return [
        spec
        for spec in translate_sql(sql, lanes.RST).aggregates
        if spec.kind != "sum"
    ]


def _atoms(expr) -> int:
    return sum(isinstance(node, Rel) for node in walk(expr))


@pytest.mark.parametrize("name", sorted(FACTORED))
def test_grouped_extrema_keep_only_the_argument_component(name):
    sql, dropped = FACTORED[name]
    translated = translate_sql(sql, lanes.RST)
    joined = _atoms(translated.aggregates[translated.count_slot].expr)
    specs = _nonlinear(sql)
    assert specs
    for spec in specs:
        assert spec.dropped == dropped
        assert _atoms(spec.expr) == joined - len(dropped)
    source = generate_module(compile_sql(sql, lanes.RST, name="q"))
    assert _HEADER in source
    assert f"{', '.join(dropped)} dropped (a per-group count" in source


@pytest.mark.parametrize("name", sorted(UNFACTORED))
def test_the_rule_does_not_fire(name):
    sql = UNFACTORED[name]
    translated = translate_sql(sql, lanes.RST)
    everything = set(translated.relations)
    for spec in _nonlinear(sql):
        assert spec.dropped == ()
        assert relations_in(spec.expr) == everything
    assert _HEADER not in generate_module(compile_sql(sql, lanes.RST, name="q"))


def test_bbo_per_event_triggers_have_no_loop():
    """bbo's occurrence maps are its own sides' (max over bids, min over
    asks): a bid no longer rewrites every ask level of its broker, nor an
    ask every bid level, and 9 maps become 7 (6 once its count is read
    as the product of its two sides' counts)."""
    program = lanes.shipped_program("bbo", "bbo")
    ir = lower_program(program)
    for key in program.triggers:
        assert not any(
            isinstance(stmt, ForEachMap) for stmt in walk_stmts(ir.triggers[key].body)
        ), key
    assert len(program.maps) == 6
    header = generate_module(program).split('"""')[1]
    assert (
        "q_bbo_min_2: min over asks; bids dropped "
        "(a per-group count, non-zero on every live group)"
    ) in header.splitlines()
    assert (
        "q_bbo_max_1: max over bids; asks dropped "
        "(a per-group count, non-zero on every live group)"
    ) in header.splitlines()


#: A three-way join's rows, live before the random traffic starts.
_SEEDED = {
    "R": [(1, 0), (2, 1), (3, 1)],
    "S": [(0, 1), (1, 2), (1, 0)],
    "T": [(1, 3), (2, 0), (0, 2)],
}


def _stream(seed: int) -> list[StreamEvent]:
    """The seeded rows, random traffic over R, S and T (deletes attack
    each argument column's extrema), then for each relation in turn:
    every live row deleted, the other two churned (a new row each, their
    largest argument deleted), the rows put back."""
    columns = {"R": 0, "S": 1, "T": 1}
    events = [
        StreamEvent(name, 1, row) for name, rows in _SEEDED.items() for row in rows
    ]
    events += oracle_stream(
        {name: 2 for name in columns}, 60, seed, domain=3, attack=columns
    )
    live: dict[str, list] = {name: [] for name in columns}
    for event in events:
        rows = live[event.relation]
        if event.sign > 0:
            rows.append(event.values)
        else:
            rows.remove(event.values)
    for emptied in columns:
        rows = list(live[emptied])
        events += [StreamEvent(emptied, -1, row) for row in rows]
        for other, column in columns.items():
            if other == emptied:
                continue
            fresh = (len(events) % 3, (seed + len(events)) % 4)
            live[other].append(fresh)
            events.append(StreamEvent(other, 1, fresh))
            top = max(live[other], key=lambda row: row[column])
            live[other].remove(top)
            events.append(StreamEvent(other, -1, top))
        events += [StreamEvent(emptied, 1, row) for row in rows]
    return events


@lru_cache(maxsize=None)
def _program():
    """Every shape as one view of one program (maps shared where equal)."""
    return compile_queries(
        [translate_sql(sql, lanes.RST, name=name) for name, sql in SHAPES.items()],
        lanes.RST,
    )


@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize(
    "lane", ["compiled", "interpreted", "unindexed", "interpreted/2", "durable"]
)
def test_shapes_match_sqlite(lane, batch_size, tmp_path):
    program = _program()
    if lane == "durable":
        engine = lanes.build_engine(program, durable=tmp_path)
    else:
        engine = lanes.build_engine(program, lane)
    oracle = SqliteOracle(lanes.RST, "")
    events = _stream(seed=49)
    with engine:
        for start in range(0, len(events), batch_size):
            chunk = events[start : start + batch_size]
            engine.process_stream(chunk, batch_size=batch_size)
            oracle.apply_all(chunk)
            for name, sql in SHAPES.items():
                expected = normalize_rows(oracle.connection.execute(sql).fetchall())
                got = normalize_rows(engine.results(name))
                assert got == expected, (name, lane, start + len(chunk))
