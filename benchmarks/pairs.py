"""Parent-versus-change pairs of the end-to-end benchmark.

The rule every ``perf_opt`` PR applies (``benchmarks/e2e/README.md``,
"Measure in pairs"): run at least ten pairs of parent and change, alternating
which side goes first; claim a gain only when the change wins nine pairs in
ten (ties count for neither) and the medians differ by more than the distance
between the quartiles of the parent's own runs.

    python3 benchmarks/pairs.py --workload cond_scan            # parent = HEAD
    python3 benchmarks/pairs.py --workload cond_scan passive_mix \\
        --parent HEAD~1 --pairs 10 --metric stimuli_per_s

The change is the working tree this script sits in.  The parent commit is
extracted (``git archive``) into a temporary directory, which honours
``TMPDIR`` and is removed at exit; each side runs ``benchmarks/e2e/run.py
--workload W --seed S --seconds N --trace 0`` from the root of its own tree.
Pair *i* gives both sides the same seed, cycling through ``--seeds``, whose
last entry (23) is the held-out seed no change is tuned on.  Every gated
end-to-end metric of ``BENCHMARK.json`` is reported; ``--metric`` names the
claimed one, and the exit status is 1 unless that claim holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SEEDS = [11, 12, 13, 14, 15, 16, 17, 18, 19, 23]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; the result object of its last line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def report(workload: str, metrics: List[dict], claimed: str,
           runs: Dict[str, List[dict]]) -> bool:
    """Print one row per gated metric; return whether the claim holds."""
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    print("%s: %d pairs, failed operations parent %d / change %d"
          % (workload, len(runs["parent"]), failed["parent"], failed["change"]))
    print("  %-20s %-31s %-31s %-6s %-9s %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "won", "> IQR", "verdict"))
    held = False
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent, change = ([run["metrics"][name]["value"] for run in runs[side]]
                          for side in ("parent", "change"))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        lost = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        beyond = abs(cm - pm) > p3 - p1
        if won >= 0.9 * len(parent) and beyond and sign * (cm - pm) > 0:
            verdict = "better (x%.2f)" % (cm / pm)
        elif sign * (pm - cm) > metric["bound"] * pm:
            verdict = "WORSE than the %d%% bound" % (100 * metric["bound"])
        elif lost >= 0.9 * len(parent) and beyond:
            verdict = "worse, within the %d%% bound (x%.3f)" % (
                100 * metric["bound"], cm / pm)
        else:
            verdict = "no claim (x%.2f)" % (cm / pm)
        if name == claimed:
            held = (verdict.startswith("better")
                    and failed["change"] <= failed["parent"])
        print("  %-20s %-31s %-31s %-6s %-9s %s" % (
            name, "%.4g [%.4g, %.4g]" % (pm, p1, p3),
            "%.4g [%.4g, %.4g]" % (cm, c1, c3),
            "%d-%d" % (won, lost), "yes" if beyond else "no", verdict))
    return held


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare the working tree against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                        default=SEEDS)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--metric", default="stimuli_per_s",
                        choices=[m["name"] for m in spec["end_to_end"]],
                        help="the end-to-end metric the change claims")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        held = True
        for workload in args.workload:
            runs: Dict[str, List[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                seed = args.seeds[pair % len(args.seeds)]
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed,
                                               args.seconds))
                print("  pair %d seed %d: %s %s" % (pair + 1, seed, args.metric, " ".join(
                    "%s=%.4g" % (side, runs[side][-1]["metrics"][args.metric]["value"])
                    for side in ("parent", "change"))), file=sys.stderr)
            held &= report(workload, spec["end_to_end"], args.metric, runs)
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
