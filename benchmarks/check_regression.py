"""CI benchmark-regression gate.

Compares the ``BENCH_*.json`` files written by ``bench_batching.py
--json`` / ``bench_sharding.py --json`` / ``bench_serving.py --json``
against the committed ``benchmarks/baseline.json``.  Raw events/sec is meaningless across
hosts, so every metric is first normalised by its run's
:func:`benchmarks.harness.calibration_score` (a fixed synthetic loop
measuring the host's single-thread dict throughput); the gate fails when
any normalised metric drops more than ``--tolerance`` (default 30%)
below its normalised baseline value.

Baselines are refreshed by re-running the benchmarks with ``--json`` and
copying the payloads into ``baseline.json``::

    PYTHONPATH=src python benchmarks/bench_batching.py --smoke --json BENCH_batching.json
    PYTHONPATH=src python benchmarks/bench_sharding.py --smoke --json BENCH_sharding.json
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --json BENCH_serving.json
    PYTHONPATH=src python benchmarks/check_regression.py --update-baseline \
        BENCH_batching.json BENCH_sharding.json BENCH_serving.json

Usage (the CI job)::

    python benchmarks/check_regression.py \
        BENCH_batching.json BENCH_sharding.json BENCH_serving.json

All committed metrics are higher-is-better; latency-shaped measurements
are committed inverted (e.g. the serving bench's ``p99_inv_per_sec``)
with the raw values in the payload's metadata.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"


def load_results(paths: list[str]) -> dict[str, dict]:
    """Read BENCH_*.json payloads, keyed by their ``benchmark`` name."""
    results: dict[str, dict] = {}
    for path in paths:
        payload = json.loads(Path(path).read_text())
        results[payload["benchmark"]] = payload
    return results


def compare(
    baseline: dict[str, dict],
    results: dict[str, dict],
    tolerance: float,
) -> list[str]:
    """All regression/coverage failures, as human-readable lines."""
    failures: list[str] = []
    for benchmark, base in sorted(baseline.items()):
        current = results.get(benchmark)
        if current is None:
            failures.append(f"{benchmark}: no BENCH_*.json produced")
            continue
        base_cal = base["calibration"]
        cur_cal = current["calibration"]
        print(
            f"[{benchmark}] calibration: baseline {base_cal:,.0f} ops/s, "
            f"current {cur_cal:,.0f} ops/s"
        )
        for name, base_value in sorted(base["metrics"].items()):
            cur_value = current["metrics"].get(name)
            if cur_value is None:
                if name.startswith("native/") and not current.get(
                    "metadata", {}
                ).get("native"):
                    # The native-impact section skips itself (loudly) on a
                    # host without a C toolchain; that is not a regression.
                    print(f"  {name:<44} skipped: no C toolchain on this host")
                    continue
                failures.append(f"{benchmark}/{name}: metric disappeared")
                continue
            base_norm = base_value / base_cal
            cur_norm = cur_value / cur_cal
            ratio = cur_norm / base_norm if base_norm else float("inf")
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "REGRESSION"
                failures.append(
                    f"{benchmark}/{name}: {cur_value:,.0f}/s is "
                    f"{(1.0 - ratio) * 100:.0f}% below baseline "
                    f"(normalised {cur_norm:.3f} vs {base_norm:.3f})"
                )
            print(
                f"  {name:<44} {cur_value:>12,.0f}/s "
                f"({ratio:>5.2f}x of baseline) {status}"
            )
    return failures


def update_baseline(results: dict[str, dict]) -> None:
    BASELINE_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
    print(f"updated {BASELINE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="BENCH_*.json files")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed normalised-throughput drop (0.30 = 30%%)")
    parser.add_argument("--baseline", default=str(BASELINE_PATH))
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the committed baseline instead of "
                        "checking against it")
    args = parser.parse_args(argv)

    results = load_results(args.results)
    if args.update_baseline:
        update_baseline(results)
        return 0

    baseline = json.loads(Path(args.baseline).read_text())
    failures = compare(baseline, results, args.tolerance)
    if failures:
        print(f"\n{len(failures)} benchmark regression(s):", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
