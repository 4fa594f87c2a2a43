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

``--counts`` checks the other half of a change's contract instead: one
``--trace 1`` run per side at seed 11, and every per-layer metric that
``BENCHMARK.json`` declares with ``"unit": "count"`` (transactions created,
locks granted, rules triggered ... per stimulus) must be *exactly* equal on
both sides.  The exit status is 1 on any difference not announced with
``--moved NAME``.  The ``"unit": "B"`` rows (WAL, journal and durable bytes
per stimulus) are printed beside them as information and never fail the run:
``recovery.wal_bytes`` repeats exactly, the journal's bytes carry wall-clock
digits and batch framing.

    python3 benchmarks/pairs.py --counts --workload saa_mem coupling_mix
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


COUNTS_SEED = 11


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in ``tree``; the result object of its last line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
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


def report_counts(workload: str, names: List[str], byte_names: List[str],
                  moved: List[str], sides: Dict[str, dict]) -> bool:
    """Print one row per count metric, then the byte rows; return whether
    every difference in a count was announced."""
    print("%s: exact per-stimulus counts, seed %d" % (workload, COUNTS_SEED))
    print("  %-28s %-14s %-14s %s" % ("metric", "parent", "change", "verdict"))
    clean = True
    for name in names + byte_names:
        parent, change = (sides[side]["metrics"][name]["value"]
                          for side in ("parent", "change"))
        if name in byte_names:
            verdict = "bytes (not compared)"
        elif parent == change:
            verdict = "same"
        elif name in moved:
            verdict = "moved (announced)"
        else:
            verdict, clean = "MOVED", False
        print("  %-28s %-14.6f %-14.6f %s" % (name, parent, change, verdict))
    return clean


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    byte_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "B"]
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
    parser.add_argument("--counts", action="store_true",
                        help="compare the exact per-layer counts of one traced"
                             " run per side instead of running pairs")
    parser.add_argument("--moved", nargs="*", default=[], metavar="NAME",
                        choices=count_names,
                        help="count metrics the change is meant to move")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        held = True
        for workload in args.workload:
            if args.counts:
                held &= report_counts(workload, count_names, byte_names,
                                      args.moved, {
                    side: run_once(tree, workload, COUNTS_SEED, args.seconds,
                                   trace=1) for side, tree in trees.items()})
                continue
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
