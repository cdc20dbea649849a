"""Validate ``BENCHMARK.json`` against the driver's contract.

``run.py`` calls :func:`validate` and :func:`compare_names` before it does
anything else, so a manifest the driver would refuse never gets as far as
a measurement.  Run directly, this script also *runs* every workload at
``--smoke`` size in both trace modes and checks that each run prints
exactly the declared metrics::

    python3 benchmarks/ledger/check_manifest.py [--static]

Exit status is non-zero on any mismatch.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve()
REPO = HERE.parents[2]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from benchmarks.ledger import common  # noqa: E402

KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BOUND = 0.25
MAX_BYTES = 64 * 1024
DRIVER_SECONDS = 3420  # all the driver's runs, set-up and builds included


def driver_runs(workloads: int) -> int:
    return 4 + 22 * workloads


def load(path: Path) -> dict:
    raw = path.read_bytes()
    if len(raw) > MAX_BYTES:
        raise SystemExit(f"{path}: {len(raw)} bytes exceeds {MAX_BYTES}")
    return json.loads(raw)


def _escapes(entry: str) -> bool:
    return entry.startswith("/") or ".." in Path(entry).parts


def _metric_problems(kind: str, metrics, keys: set, limit: int) -> list[str]:
    problems = []
    if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
        return [f"{kind}: needs 1 to {limit} metrics"]
    for metric in metrics:
        label = f"{kind} {metric.get('name')!r}"
        if set(metric) != keys:
            problems.append(f"{label}: keys must be exactly {sorted(keys)}")
            continue
        if not NAME.match(str(metric["name"])):
            problems.append(f"{label}: bad name")
        if not UNIT.match(str(metric["unit"])):
            problems.append(f"{label}: bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{label}: better must be lower or higher")
        if "bound" in keys:
            bound = metric["bound"]
            if not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
                problems.append(f"{label}: bound must be in (0, {MAX_BOUND}]")
    return problems


def validate(manifest: dict, root: Path) -> list[str]:
    """Every way ``manifest`` breaks the contract (empty when valid)."""
    if set(manifest) != KEYS:
        return [f"keys must be exactly {sorted(KEYS)}, got {sorted(manifest)}"]
    problems: list[str] = []

    paths = manifest["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths: needs 1 to 16 directories")
        paths = []
    for entry in paths:
        if not isinstance(entry, str) or not PATH.match(entry) or _escapes(entry):
            problems.append(f"paths: bad entry {entry!r}")
        elif not (root / entry).is_dir():
            problems.append(f"paths: {entry!r} is not a directory")
        elif any(p.is_symlink() for p in (root / entry).rglob("*")):
            problems.append(f"paths: {entry!r} holds a symbolic link")

    command = manifest["command"]
    if (
        not isinstance(command, list)
        or not 1 <= len(command) <= 32
        or not all(isinstance(part, str) and len(part) <= 200 for part in command)
    ):
        problems.append("command: needs 1 to 32 strings of at most 200 characters")
    else:
        for part in command:
            if _escapes(part):
                problems.append(f"command: {part!r} leaves the checkout")
            elif (root / part).exists() and not any(
                Path(part).is_relative_to(entry) for entry in paths
            ):
                problems.append(f"command: {part!r} is outside paths")

    seconds = manifest["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        problems.append("run_seconds: must be a whole number from 1 to 60")
    elif isinstance(manifest["workloads"], list):
        runs = driver_runs(len(manifest["workloads"]))
        if runs * seconds > DRIVER_SECONDS:
            problems.append(
                f"run_seconds: {runs} runs of {seconds} s measure longer than "
                f"the {DRIVER_SECONDS} s the driver allows for everything"
            )

    workloads = manifest["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("workloads: needs 2 to 8")
        workloads = []
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload {workload!r}: keys must be name and why")
        elif not NAME.match(str(workload["name"])):
            problems.append(f"workload {workload['name']!r}: bad name")
        elif len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"workload {workload['name']!r}: why must be one "
                            "line of at most 200 characters")

    problems += _metric_problems(
        "end_to_end", manifest["end_to_end"], {"name", "unit", "better", "bound"}, 16
    )
    problems += _metric_problems(
        "per_layer", manifest["per_layer"], {"name", "unit", "better"}, 128
    )
    if problems:
        return problems

    names = [w["name"] for w in workloads]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        problems.append(f"names used more than once: {repeated}")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end: needs setup_s with unit s, better lower")
    return problems


def compare_names(manifest: dict) -> list[str]:
    """The manifest must declare exactly what ``run.py`` runs and prints."""
    problems = []
    for kind, printed in (
        ("workloads", {name: None for name in common.WORKLOADS}),
        ("end_to_end", common.END_TO_END),
        ("per_layer", common.PER_LAYER),
    ):
        declared = {entry["name"]: entry.get("unit") for entry in manifest[kind]}
        for name in sorted(set(declared) - set(printed)):
            problems.append(f"{kind}: {name!r} is declared but never printed")
        for name in sorted(set(printed) - set(declared)):
            problems.append(f"{kind}: {name!r} is printed but not declared")
        for name, unit in printed.items():
            if unit is not None and declared.get(name, unit) != unit:
                problems.append(
                    f"{kind}: {name!r} is printed in {unit}, declared in "
                    f"{declared[name]}"
                )
    return problems


def check_runs(manifest: dict) -> list[str]:
    """Run every workload at smoke size, both trace modes, and compare the
    printed metric names with the declared ones."""
    problems = []
    for workload in manifest["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            command = manifest["command"] + [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--smoke",
            ]
            label = f"{workload['name']} --trace {trace}"
            done = subprocess.run(
                command, cwd=REPO, capture_output=True, text=True, timeout=180
            )
            if done.returncode:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            declared = {m["name"]: m["unit"] for m in manifest[kind]}
            printed = {n: e["unit"] for n, e in result["metrics"].items()}
            if printed != declared:
                problems.append(
                    f"{label}: printed and declared metrics differ: "
                    f"{sorted(set(printed) ^ set(declared))}"
                )
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct ({result['failed']} failed)")
            if kind == "end_to_end":
                zero = [n for n, e in result["metrics"].items() if not e["value"]]
                if zero:
                    problems.append(f"{label}: end-to-end metrics at 0: {zero}")
            print(f"ok  {label}: {len(printed)} metrics")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    manifest = load(REPO / "BENCHMARK.json")
    problems = validate(manifest, REPO)
    if not problems:
        problems = compare_names(manifest)
    if not problems and "--static" not in argv:
        problems = check_runs(manifest)
    for problem in problems:
        print(f"BENCHMARK.json: {problem}", file=sys.stderr)
    if not problems:
        print("BENCHMARK.json: valid")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
