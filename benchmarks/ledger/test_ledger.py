"""Pins the ledger's own arithmetic (no workload runs here; < 2 s)."""

import copy

import pytest

from benchmarks.ledger import run  # noqa: F401 - puts src/ on sys.path
from benchmarks.ledger import check_manifest, common, spans, stats
from benchmarks.ledger.oracle import net_live_rows, normalize_rows

REPO = common.REPO


class FakeClock:
    """Each reading is the next of the scripted times."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


# -- spans ------------------------------------------------------------------------


def test_self_time_with_nested_and_sibling_spans(monkeypatch):
    # root 0..10 holds a 1..4 (which holds g 2..3) and its sibling b 5..9.
    monkeypatch.setattr(spans, "_clock", FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    recorder = spans.SpanRecorder()
    with recorder.span("bench.drive"):
        with recorder.span("engine.a"):
            with recorder.span("wal.g"):
                pass
        with recorder.span("engine.b"):
            pass
    assert recorder.self_by_name() == {
        "bench.drive": 3, "engine.a": 2, "wal.g": 1, "engine.b": 4,
    }
    assert recorder.self_by_layer() == {"bench": 3, "engine": 6, "wal": 1}
    # Self times partition the root's wall time exactly.
    assert sum(recorder.self_seconds()) == 10
    assert recorder.parent == [-1, 0, 1, 0]
    assert recorder.durations("engine.a") == [3]
    assert recorder.self_times("engine.a") == [2]


def test_spans_share_their_trace_id(monkeypatch):
    monkeypatch.setattr(spans, "_clock", FakeClock(range(100)))
    recorder = spans.SpanRecorder()
    for _event in range(2):
        recorder.new_trace()
        with recorder.span("engine.process"):
            with recorder.span("views.render"):
                pass
    assert recorder.trace == [1, 1, 2, 2]


def test_generator_spans_exclude_the_consumer(monkeypatch):
    monkeypatch.setattr(spans, "_clock", FakeClock(range(100)))
    recorder = spans.SpanRecorder()

    def numbers():
        yield 1
        yield 2

    seen = []
    for item in recorder.wrap_generator(numbers, "events.group")():
        with recorder.span("engine.batch"):  # the consumer's own work
            seen.append(item)
    assert seen == [1, 2]
    # Three next() calls (two items + exhaustion), none containing the
    # consumer's spans.
    assert len(recorder.durations("events.group")) == 3
    assert all(parent == -1 for parent in recorder.parent)


def test_patched_wraps_every_alias_and_restores():
    import repro.sql.lexer as lexer
    import repro.sql.parser as parser

    original = lexer.tokenize
    assert parser.tokenize is original  # parser imported it by name
    recorder = spans.SpanRecorder()
    with spans.patched(recorder, [(lexer, "tokenize", "sql.lex")]):
        assert parser.tokenize is not original
        parser.parse_query("SELECT sum(a) FROM r")
    assert parser.tokenize is original and lexer.tokenize is original
    assert len(recorder.durations("sql.lex")) == 1


def test_patched_wraps_static_methods():
    from repro.runtime.durability import WriteAheadLog

    recorder = spans.SpanRecorder()
    targets = [(WriteAheadLog, "replay", "recovery.replay", "generator")]
    with spans.patched(recorder, targets):
        assert isinstance(vars(WriteAheadLog)["replay"], staticmethod)
    assert not hasattr(vars(WriteAheadLog)["replay"].__func__, "__wrapped__")


# -- statistics -------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, highest",
    [(19, None), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0),
     (1000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_percentile_needs_ten_samples_beyond_it(count, highest):
    assert stats.highest_percentile(count) == highest


def test_supported_percentile_lowers_an_unsupported_request():
    values = list(range(1, 101))  # 100 samples support p90, not p99
    assert stats.supported_percentile(values, 99.0) == stats.percentile(values, 90.0)
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 50.0) == 50
    assert stats.supported_percentile(list(range(2000)), 99.0) == 1979


def test_geometric_mean():
    assert stats.geometric_mean([1, 4]) == pytest.approx(2)
    assert stats.geometric_mean([2, 8, 4]) == pytest.approx(4)
    # Doubling one rate and halving another cancel out.
    assert stats.geometric_mean([20, 5]) == pytest.approx(stats.geometric_mean([10, 10]))
    with pytest.raises(ValueError):
        stats.geometric_mean([3, 0])


def test_spread_is_interquartile_distance_over_median():
    values = [10, 11, 9, 10, 12, 10, 8, 10, 11, 9]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_open_loop_schedule_charges_stalls_from_the_due_time():
    due = stats.due_times(4, rate=2.0, start=10.0)
    assert due == [10.0, 10.5, 11.0, 11.5]
    assert stats.frames_due(due, 9.9) == 0
    assert stats.frames_due(due, 10.6) == 2
    assert stats.frames_due(due, 99.0) == 4
    # The generator stalled until 11.2: three frames went out together.
    sent = [10.0, 11.2, 11.2, 11.5]
    assert stats.lateness(due, sent) == pytest.approx([0.0, 0.7, 0.2, 0.0])
    # Receipt 0.1 s after each send; one frame changed no view (no delta).
    receipt = [10.1, 11.3, None, 11.6]
    assert stats.delivery_latencies(due, receipt) == pytest.approx([0.1, 0.8, 0.1])


def test_rounds_drop_the_warm_up_and_stop_when_input_runs_out():
    counter = iter(range(100))
    samples, factors = common.rounds(
        lambda: {"x": next(counter)}, seconds=0.0, minimum=3
    )
    assert samples == {"x": [1, 2, 3]}  # 0 was the warm-up round's
    assert len(factors) == 3 and all(factor > 0 for factor in factors)
    supply = iter([{"x": 0}, {"x": 1}, {"x": 2}, {"x": 3}, None])
    assert common.rounds(lambda: next(supply), seconds=60.0)[0] == {"x": [1, 2, 3]}
    with pytest.raises(ValueError):
        short = iter([{"x": 0}, {"x": 1}, None])
        common.rounds(lambda: next(short), seconds=60.0, minimum=3)


def test_reference_host_seconds(monkeypatch):
    # The kernel ran 1.5x, then 2.5x its reference time around the work:
    # the host was twice as slow, so 3 s of wall time are 1.5 s of work.
    kernel = iter([1.5 * common.REFERENCE_KERNEL_S, 2.5 * common.REFERENCE_KERNEL_S])
    monkeypatch.setattr(common, "kernel_seconds", lambda: next(kernel))
    clock = FakeClock([10.0, 13.0])
    monkeypatch.setattr(common.time, "perf_counter", clock)
    result, wall, factor = common.timed(lambda: "done")
    assert (result, wall, factor) == ("done", 3.0, pytest.approx(2.0))
    assert common.reference_seconds([wall], [factor]) == [pytest.approx(1.5)]
    assert common.per_reference_second([100.0], [factor]) == [pytest.approx(200.0)]


def test_summarize_reports_the_median_and_notes_the_quartiles():
    outcome = common.Outcome()
    assert common.summarize(outcome, "rate", [5, 1, 3, 2, 4], " ev/s") == 3
    assert "5 rounds" in outcome.notes[0] and "median 3 ev/s" in outcome.notes[0]


# -- inputs -----------------------------------------------------------------------


def test_bounded_book_holds_its_depth_and_never_deletes_a_dead_row():
    from benchmarks.ledger.finance_event import bounded_book

    prefill, events = bounded_book(seed=5, depth=8, churn=400)
    assert {side: len(rows) for side, rows in prefill.items()} == {
        "bids": 8, "asks": 8,
    }
    assert len(events) == 400
    assert (prefill, events) == bounded_book(seed=5, depth=8, churn=400)
    assert events != bounded_book(seed=6, depth=8, churn=400)[1]
    live = {side: set(rows) for side, rows in prefill.items()}
    for event in events:
        if event.sign > 0:
            live[event.relation].add(event.values)
        else:
            live[event.relation].remove(event.values)  # KeyError: a dead row
        assert len(live[event.relation]) <= 9  # depth + the insert being expired


def test_warehouse_seed_draws_the_facts_not_the_dimensions():
    from benchmarks.ledger.warehouse_load import generate

    static, events = generate(seed=1, scale_factor=0.0005)
    other_static, other_events = generate(seed=2, scale_factor=0.0005)
    assert static == other_static
    assert [e.values for e in events] != [e.values for e in other_events]
    assert (static, events) == generate(seed=1, scale_factor=0.0005)
    # Every lineitem references a part-supplier pair the dimensions hold.
    pairs = {(part, supplier) for part, supplier, _cost in static["partsupp"]}
    lines = [e.values for e in events if e.relation == "lineitem"]
    assert lines and all((row[1], row[2]) in pairs for row in lines)


# -- oracle -----------------------------------------------------------------------


def test_net_live_rows_and_normalisation():
    from repro import delete, insert

    live = net_live_rows(
        [insert("r", 1, 2), insert("r", 1, 2), delete("r", 1, 2), insert("s", 3)]
    )
    assert live["r"] == {(1, 2): 1} and live["s"] == {(3,): 1}
    with pytest.raises(ValueError):
        net_live_rows([delete("r", 9)])
    assert normalize_rows([(2.0, None), (1.5, "x")]) == [(1.5, "x"), (2, 0)]


# -- manifest ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def manifest():
    return check_manifest.load(REPO / "BENCHMARK.json")


def test_manifest_is_valid_and_declares_what_is_printed(manifest):
    assert check_manifest.validate(manifest, REPO) == []
    assert check_manifest.compare_names(manifest) == []


def test_dry_listing_matches_the_manifest(manifest, capsys):
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        assert run.main(["--names", "--trace", trace]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == [metric["name"] for metric in manifest[kind]]


def test_validate_names_each_breach(manifest):
    def problems(edit):
        broken = copy.deepcopy(manifest)
        edit(broken)
        return check_manifest.validate(broken, REPO)

    assert problems(lambda m: m.update(extra=1))
    assert problems(lambda m: m["end_to_end"][0].update(bound=0.3))
    assert problems(lambda m: m["end_to_end"][0].update(name="bad name"))
    assert problems(lambda m: m["per_layer"][0].update(unit="way-too-long-a-unit-name"))
    assert problems(lambda m: m["paths"].append("no/such/dir"))
    assert problems(lambda m: m["paths"].append("../outside"))
    assert problems(lambda m: m.update(run_seconds=61))
    assert problems(lambda m: m.update(command=["python3", "benchmarks/harness.py"]))
    assert problems(lambda m: m["workloads"][0].update(why="x" * 201))
    assert problems(
        lambda m: m["per_layer"].append(dict(m["per_layer"][0]))  # name twice
    )
    assert problems(
        lambda m: m.update(
            end_to_end=[e for e in m["end_to_end"] if e["name"] != "setup_s"]
        )
    )
    undeclared = copy.deepcopy(manifest)
    undeclared["per_layer"].pop()
    assert check_manifest.compare_names(undeclared)


def test_finance_windows_cover_the_declared_queries():
    from benchmarks.ledger.finance_event import WINDOW

    assert tuple(WINDOW["compiled"]) == common.FINANCE
    assert tuple(WINDOW["native"]) == common.NATIVE
