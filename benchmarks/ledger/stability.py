"""Run the ledger the way the driver judges it, and print the spread table.

For every workload: ``--runs`` runs in fresh processes, each with another
seed, make one *set*; two sets are made (the second on seeds the first
never used).  For each end-to-end metric the table shows each set's median
and its spread — the distance between the first and third quartile as a
share of the median — and how much worse the second median is than the
first.  The benchmark is steady when every spread (``setup_s`` excepted)
and every worsening stays inside the metric's bound; otherwise this script
exits non-zero::

    python3 benchmarks/ledger/stability.py [--runs 10] [--seconds S]
        [--workload W]... [--out FILE]

The README quotes this script's output as the evidence for each bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve()
REPO = HERE.parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from benchmarks.ledger import check_manifest, stats  # noqa: E402

SETS = 2


def run_once(manifest: dict, workload: str, seed: int, seconds: int) -> dict:
    command = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.perf_counter()
    done = subprocess.run(
        command, cwd=REPO, capture_output=True, text=True, timeout=180
    )
    if done.returncode:
        raise SystemExit(
            f"{workload} seed {seed}: exit {done.returncode}\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["log"] = done.stdout
    return result


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", metavar="FILE", help="write every run as JSON")
    args = parser.parse_args(argv)

    manifest = check_manifest.load(REPO / "BENCHMARK.json")
    seconds = args.seconds or manifest["run_seconds"]
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    runs: dict = {name: [[] for _ in range(SETS)] for name in workloads}
    for index in range(SETS):
        for name in workloads:
            for run in range(args.runs):
                seed = 1 + index * args.runs + run
                result = run_once(manifest, name, seed, seconds)
                runs[name][index].append(result)
                print(f"set {index + 1} {name} seed {seed}: "
                      f"{result['wall_s']:.1f} s", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")

    header = (f"{'workload':<16}{'metric':<14}{'median 1':>12}{'spread 1':>10}"
              f"{'median 2':>12}{'spread 2':>10}{'worse by':>10}{'bound':>7}  verdict")
    print(header)
    print("-" * len(header))
    unsteady = 0
    slowest = 0.0
    for name in workloads:
        for metric in manifest["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][key]["value"] for r in s] for s in runs[name]]
            medians = [stats.median(values) for values in sets]
            spreads = [stats.spread(values) for values in sets]
            worse = worsening(medians[0], medians[1], metric["better"])
            steady = worse <= bound and (
                key == "setup_s" or max(spreads) <= bound
            )
            unsteady += not steady
            print(f"{name:<16}{key:<14}{medians[0]:>12,.4g}{spreads[0]:>10.1%}"
                  f"{medians[1]:>12,.4g}{spreads[1]:>10.1%}{worse:>+10.1%}"
                  f"{bound:>7.0%}  {'ok' if steady else 'UNSTEADY'}")
        slowest = max(
            [slowest] + [r["wall_s"] for s in runs[name] for r in s]
        )
        wrong = sum(not r["correct"] for s in runs[name] for r in s)
        if wrong:
            unsteady += wrong
            print(f"{name}: {wrong} runs were not correct")
    print(f"\nslowest run: {slowest:.1f} s wall")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
