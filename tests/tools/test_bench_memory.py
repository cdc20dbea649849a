"""Report-shape coverage for ``benchmarks/bench_memory.py``.

The memory benchmark is CI's storage-layout gate (smoke-run like the
other benches): these tests pin the shape of its report rows, the
acceptance check, and the JSON payload — on a tiny stream so the suite
stays fast.  The measured *numbers* are the benchmark's business; the
suite only asserts structure and the invariants the script itself
relies on (maps equal across layouts, entries counted once).
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS.parent))

import benchmarks.bench_memory as bench_memory  # noqa: E402

ROW_KEYS = {
    "query",
    "entries",
    "dict_bytes",
    "columnar_bytes",
    "dict_bytes_per_entry",
    "columnar_bytes_per_entry",
    "ratio",
    "plan",
}


@pytest.fixture(scope="module")
def rows():
    return bench_memory.storage_table(event_count=400)


def test_rows_cover_measured_queries(rows):
    assert set(rows) == set(bench_memory.MEASURED_QUERIES)
    assert set(bench_memory.TARGET_QUERIES) <= set(rows)


def test_row_shape(rows):
    for query, row in rows.items():
        assert set(row) == ROW_KEYS
        assert row["query"] == query
        assert row["entries"] >= 1
        assert row["dict_bytes"] > 0 and row["columnar_bytes"] > 0
        assert row["ratio"] == pytest.approx(
            row["dict_bytes"] / row["columnar_bytes"]
        )
        assert row["plan"]  # per-map storage labels
        assert all(
            label == "dict" or label.startswith("columnar[")
            for label in row["plan"].values()
        )


def test_check_target_logic(capsys):
    def fake(ratios):
        return {
            query: {"ratio": ratios.get(query, 1.0)}
            for query in bench_memory.MEASURED_QUERIES
        }

    assert bench_memory.check_target(fake({"vwap": 2.5, "mst": 2.1}))
    assert not bench_memory.check_target(fake({"vwap": 2.5}))
    capsys.readouterr()


def test_main_smoke_writes_json(tmp_path, capsys):
    payload_path = tmp_path / "BENCH_memory.json"
    exit_code = bench_memory.main(
        ["--events", "1500", "--json", str(payload_path)]
    )
    out = capsys.readouterr().out
    assert "per-entry map memory" in out
    assert "state contrast" in out
    payload = json.loads(payload_path.read_text())
    assert payload["benchmark"] == "memory"
    assert payload["metadata"]["target_queries"] == list(
        bench_memory.TARGET_QUERIES
    )
    for query in bench_memory.MEASURED_QUERIES:
        assert f"storage/{query}/ratio" in payload["metrics"]
    # On a real run the acceptance target holds and the exit code is 0;
    # tiny streams may legitimately miss it (the narrowed base maps hold
    # a few dozen entries, where fixed per-map bytes dominate), but 1500
    # events suffice.
    assert exit_code == 0
