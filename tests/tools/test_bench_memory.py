"""Report-shape coverage for ``benchmarks/bench_memory.py``.

The memory benchmark is smoke-run in CI like the other benches: these
tests pin the shape of its native-kernel rows and the JSON payload — on
a tiny stream so the suite stays fast.  The measured *numbers* are the
benchmark's business; the suite only asserts structure and the
invariants the script itself relies on (maps equal to the dict
engine's, kernel maps sized by their arena).
"""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS.parent))

import benchmarks.bench_memory as bench_memory  # noqa: E402
from repro.codegen.native import probe_toolchain  # noqa: E402

ROW_KEYS = {"entries", "kernel_maps", "native_bytes", "native_bytes_per_entry"}


def test_native_rows_cover_the_kernel_queries(capsys):
    rows = bench_memory.native_storage_table(event_count=400)
    out = capsys.readouterr().out
    if not probe_toolchain().available:
        assert rows == {} and "SKIPPED" in out
        return
    assert set(rows) == {"vwap"}  # the one finance query with a fused scan
    for row in rows.values():
        assert set(row) == ROW_KEYS
        assert row["entries"] >= 1 and row["kernel_maps"] >= 1
        assert row["native_bytes_per_entry"] == pytest.approx(
            row["native_bytes"] / row["entries"]
        )


def test_state_contrast_reports_the_figure_4_entries(capsys):
    facts = bench_memory.state_contrast(2_000)
    assert set(facts) == {
        "dbtoaster/psp/entries",
        "streamops/psp/entries",
        "reeval_lazy/psp/entries",
        "dbtoaster/bsp/entries",
    }
    assert all(isinstance(value, int) for value in facts.values())
    out = capsys.readouterr().out
    assert "state contrast" in out and "(structural claims hold)" in out


def test_main_smoke_writes_json(tmp_path, capsys):
    payload_path = tmp_path / "BENCH_memory.json"
    exit_code = bench_memory.main(
        ["--events", "400", "--json", str(payload_path)]
    )
    out = capsys.readouterr().out
    assert "state contrast" in out
    payload = json.loads(payload_path.read_text())
    assert payload["benchmark"] == "memory"
    assert "dbtoaster/psp/entries" in payload["metrics"]
    for query in payload["metadata"]["native_queries"]:
        assert f"storage/{query}/native_bytes_per_entry" in payload["metrics"]
    assert exit_code == 0
