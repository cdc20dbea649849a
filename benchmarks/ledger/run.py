"""The ledger: one benchmark, five workloads, end-to-end and per-layer
numbers for an event's life and a query's life.

One workload, as the driver runs it (last stdout line is the result)::

    python3 benchmarks/ledger/run.py --workload finance-event --seed 7 \\
        --seconds 10 --trace 0

Every workload, each in a fresh process::

    python3 benchmarks/ledger/run.py [--seed S] [--trace] [--smoke] [--out F]

``--trace 0`` measures the end-to-end metrics with tracing off (set-up
repeated and its median reported, one warm-up round, then measured rounds
for ``--seconds``).  ``--trace 1`` runs a separate traced pass and reports
the per-layer metrics.  Inputs come from ``--seed``; the program under
test only ever receives the generated inputs.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
REPO = HERE.parents[2]
# The repository root (for ``benchmarks.ledger``) and the program itself.
sys.path[:0] = [str(REPO), str(REPO / "src")]

from benchmarks.ledger import check_manifest, common  # noqa: E402

WORKLOADS = common.WORKLOADS

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The traced pass must account for its own wall time this closely.
SUM_OVER_WALL_TOLERANCE = 0.10


def _load(name: str):
    return importlib.import_module(f"benchmarks.ledger.{name.replace('-', '_')}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload in this process; returns ``(outcome, metrics)``
    where ``metrics`` holds exactly the declared names of the mode."""
    from benchmarks.ledger.spans import SpanRecorder

    workload = _load(name)
    setups = []
    state = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        state, wall, factor = common.timed(lambda: workload.setup(seed, smoke))
        setups.append(wall / factor)
    try:
        if not trace:
            outcome = workload.measure(state, seconds)
            outcome.metrics["setup_s"] = common.summarize(
                outcome, "set-up", setups, " s"
            )
            wanted = common.END_TO_END
        else:
            recorder = SpanRecorder()
            outcome = workload.trace(state, seconds, recorder)
            _account(recorder, outcome)
            common.WORK.mkdir(parents=True, exist_ok=True)
            recorder.dump(common.WORK / f"spans-{name}.json")
            wanted = common.PER_LAYER
    finally:
        workload.teardown(state)
    # A layer that did no work on this workload spent 0 there.
    metrics = {
        metric: {"value": float(outcome.metrics.get(metric, 0.0)), "unit": unit}
        for metric, unit in wanted.items()
    }
    return outcome, metrics


def _account(recorder, outcome) -> None:
    """Close the books of a traced pass: self times must add up to the
    traced wall time, and each layer gets its share of it."""
    by_layer = recorder.self_by_layer()
    unknown = set(by_layer) - set(common.LAYERS)
    if unknown:
        raise SystemExit(f"spans name unknown layers: {sorted(unknown)}")
    total = sum(by_layer.values())
    metrics = outcome.metrics
    metrics["trace.sum_over_wall"] = total / outcome.traced_wall
    metrics["trace.overhead_frac"] = (
        outcome.traced_wall / outcome.untraced_wall - 1.0
    )
    for layer in common.LAYERS:
        metrics[f"share.{layer}"] = by_layer.get(layer, 0.0) / total
    outcome.attempted += 1
    outcome.fail(
        abs(metrics["trace.sum_over_wall"] - 1.0) > SUM_OVER_WALL_TOLERANCE,
        f"self times sum to {metrics['trace.sum_over_wall']:.3f} of traced wall",
    )


def _print_table(name: str, outcome, metrics: dict) -> None:
    print(f"== {name} ==")
    for note in outcome.notes:
        print(f"   {note}")
    for metric, entry in metrics.items():
        print(f"{metric:<34}{entry['value']:>18,.4f} {entry['unit']}")


def _run_all(args) -> int:
    """Every workload, each in a fresh process so peak RSS is its own."""
    results = {}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True, cwd=REPO)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=2009,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: traced pass, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, same metric names (whole suite < 30 s)")
    parser.add_argument("--out", metavar="FILE",
                        help="with no --workload: write all results as JSON")
    parser.add_argument("--names", action="store_true",
                        help="list the metric names this mode prints and exit")
    args = parser.parse_args(argv)

    # Before anything else: the manifest must be one the driver accepts,
    # and must declare exactly what this program prints.
    manifest = check_manifest.load(REPO / "BENCHMARK.json")
    problems = check_manifest.validate(manifest, REPO)
    problems += check_manifest.compare_names(manifest)
    if problems:
        for problem in problems:
            print(f"BENCHMARK.json: {problem}", file=sys.stderr)
        return 2
    if args.names:
        names = common.PER_LAYER if args.trace else common.END_TO_END
        print("\n".join(names))
        return 0
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(manifest["run_seconds"])
    if args.workload is None:
        return _run_all(args)

    common.prepare_environment()
    outcome, metrics = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    _print_table(args.workload, outcome, metrics)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
