"""The performance gate: the ledger run on a parent and a change in
alternating pairs, judged workload by workload, metric by metric::

    python3 benchmarks/ledger_pair.py PARENT CHANGE

PARENT and CHANGE are checkouts.  Each side runs
``benchmarks/ledger/run.py --smoke`` ``PAIRS`` times, the side that goes
first alternating from pair to pair.  Every end-to-end metric of CHANGE's
``BENCHMARK.json`` gets a verdict per workload:

* ``WORSE`` — the change's median is worse than the parent's by more than
  the metric's bound, and the parent's own spread (IQR / median) fits
  inside that bound;
* ``unresolved`` — the parent's spread is wider than the bound, so the
  runs cannot tell (``better`` when every change run beats every parent
  run);
* ``better`` — the change's median is better by more than the parent's
  spread; ``same`` otherwise.

The gate fails on a ``WORSE``, on a workload whose failed/attempted share
is higher on the change, and on any run that is not ``correct``.  A
workload missing from a run's results (its process failed) counts as one
failed attempt that was not correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.ledger import stats  # noqa: E402
from benchmarks.ledger.stability import worsening  # noqa: E402

PAIRS = 5
LEDGER = ["benchmarks/ledger/run.py", "--smoke"]
MISSING = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_ledger(checkout: Path, out: Path) -> dict:
    """One smoke suite in ``checkout``: ``{workload: result line}``."""
    done = subprocess.run([sys.executable, *LEDGER, "--out", str(out)],
                          cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        print(f"{checkout}: ledger exit {done.returncode}\n{done.stderr[-2000:]}",
              file=sys.stderr)
    return json.loads(out.read_text()) if out.exists() else {}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """One metric's verdict from both sides' run values (see above)."""
    spread = stats.spread(parent)
    if spread > bound:
        beats = (min(change) > max(parent) if better == "higher"
                 else max(change) < min(parent))
        return "better" if beats else "unresolved"
    worse = worsening(stats.median(parent), stats.median(change), better)
    if worse > bound:
        return "WORSE"
    return "better" if -worse > spread else "same"


def judge(manifest: dict, parent_runs: list, change_runs: list):
    """The report lines and the failures of one parent/change set."""
    lines, failures = [], []
    for workload in (w["name"] for w in manifest["workloads"]):
        sides = {
            "parent": [run.get(workload, MISSING) for run in parent_runs],
            "change": [run.get(workload, MISSING) for run in change_runs],
        }
        for name, results in sides.items():
            wrong = sum(not result["correct"] for result in results)
            if wrong:
                failures.append(f"{workload}: {wrong} {name} runs not correct")
        share = {name: sum(r["failed"] for r in results)
                 / max(1, sum(r["attempted"] for r in results))
                 for name, results in sides.items()}
        if share["change"] > share["parent"]:
            failures.append(f"{workload}: failed share {share['parent']:.2%} "
                            f"-> {share['change']:.2%}")
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            values = {name: [r["metrics"][key]["value"] for r in results
                             if key in r["metrics"]]
                      for name, results in sides.items()}
            if not values["parent"] or not values["change"]:
                lines.append(f"{workload:<16}{key:<14}  no runs")
                continue
            said = verdict(values["parent"], values["change"],
                           metric["better"], metric["bound"])
            p_med, c_med = (stats.median(v) for v in values.values())
            lines.append(
                f"{workload:<16}{key:<14}{p_med:>12,.4g}"
                f"{stats.spread(values['parent']):>8.1%}{c_med:>12,.4g}"
                f"{worsening(p_med, c_med, metric['better']):>+10.1%}"
                f"{metric['bound']:>7.0%}  {said}")
            if said == "WORSE":
                failures.append(f"{workload} {key}: worse beyond its bound")
    return lines, failures


def main(argv: list) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: ledger_pair.py PARENT CHANGE")
    checkouts = dict(zip(("parent", "change"), (Path(a).resolve() for a in argv)))
    manifest = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                started = time.perf_counter()
                out = Path(scratch) / f"{side}-{pair}.json"
                runs[side].append(run_ledger(checkouts[side], out))
                print(f"pair {pair + 1}/{PAIRS} {side} {checkouts[side]}: "
                      f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    lines, failures = judge(manifest, runs["parent"], runs["change"])
    print(f"{'workload':<16}{'metric':<14}{'parent':>12}{'spread':>8}"
          f"{'change':>12}{'worse by':>10}{'bound':>7}  verdict")
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
