"""The verdict logic of ``benchmarks/ledger_pair.py``, on synthetic result
lines: no ledger run, no subprocess."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from benchmarks import ledger_pair  # noqa: E402

MANIFEST = {
    "workloads": [{"name": "finance-event"}],
    "end_to_end": [
        {"name": "events_per_s", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
}
#: A tight parent: spread 2% for events_per_s, 0% for peak_rss_mb.
PARENT_RATES = [98.0, 99.0, 100.0, 101.0, 102.0]


def runs(rates, rss=50.0, correct=True, failed=0):
    return [
        {"finance-event": {
            "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"events_per_s": {"value": rate, "unit": "ev/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
        }}
        for rate in rates
    ]


def verdicts(lines):
    return [line.split()[-1] for line in lines]


def test_better_and_worse_within_the_bound_pass():
    for factor, said in ((1.5, "better"), (0.85, "same")):
        lines, failures = ledger_pair.judge(
            MANIFEST, runs(PARENT_RATES), runs([r * factor for r in PARENT_RATES])
        )
        assert failures == []
        assert verdicts(lines) == [said, "same"]


def test_worse_beyond_the_bound_on_a_tight_parent_fails_and_names_it():
    lines, failures = ledger_pair.judge(
        MANIFEST, runs(PARENT_RATES), runs(PARENT_RATES, rss=60.0)
    )
    assert verdicts(lines) == ["same", "WORSE"]
    assert len(failures) == 1
    assert "finance-event" in failures[0] and "peak_rss_mb" in failures[0]


def test_parent_spread_wider_than_the_bound_is_unresolved_and_passes():
    wide = [50.0, 70.0, 100.0, 130.0, 150.0]
    lines, failures = ledger_pair.judge(
        MANIFEST, runs(wide), runs([r * 0.6 for r in wide])
    )
    assert verdicts(lines)[0] == "unresolved"
    assert failures == []


def test_higher_failed_share_fails():
    _, failures = ledger_pair.judge(
        MANIFEST, runs(PARENT_RATES), runs(PARENT_RATES[:4]) + runs([100.0], failed=1)
    )
    assert len(failures) == 1 and "failed share" in failures[0]


def test_a_run_that_is_not_correct_fails():
    for parent, change in (
        (runs(PARENT_RATES), runs(PARENT_RATES[:4]) + runs([100.0], correct=False)),
        (runs(PARENT_RATES[:4]) + runs([100.0], correct=False), runs(PARENT_RATES)),
    ):
        _, failures = ledger_pair.judge(MANIFEST, parent, change)
        assert any("not correct" in failure for failure in failures)


def test_a_workload_missing_from_a_run_counts_as_failed():
    _, failures = ledger_pair.judge(
        MANIFEST, runs(PARENT_RATES), runs(PARENT_RATES[:4]) + [{}]
    )
    assert any("not correct" in failure for failure in failures)
    assert any("failed share" in failure for failure in failures)
