"""The whole suite: every workload, end to end and layer by layer.

Each measurement is one :mod:`.unit` run in a process of its own, so that
``rss_mb`` and ``setup_s`` mean the same here as for the benchmark driver.
A workload's untraced time is split into ``PASSES`` runs taken round-robin
across the workloads: a slow phase of the host then lands on a slice of
every workload instead of on the whole of one.  The passes are merged as
blocks are merged inside a run: by the median of each metric.  One traced
run per workload, half as long, gives the ledger.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .unit import COUNTS, END_TO_END, LAYERS, PER_LAYER, WORK_ROOT
from .workloads import WORKLOADS

PASSES = 3
DEFAULT_OUT = "%s/result.json" % WORK_ROOT
HERE = Path(__file__).resolve().parent
Results = Dict[str, Dict[str, float]]       # workload -> metric -> value


def spec() -> Dict[str, Any]:
    """The committed BENCHMARK.json (bounds, run length)."""
    with open(HERE.parents[1] / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_unit(workload: str, seed: int, seconds: float, trace: int,
             extra: List[str]) -> Tuple[Dict[str, Any], List[str]]:
    """One unit run in a subprocess: the result object and the report
    lines (``profile:``, ``oracle:``...) printed before it."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "%g" % seconds,
               "--trace", str(trace)] + extra
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    notes = [line for line in lines[:-1]
             if line.split(" ", 1)[0].rstrip(":") in ("profile", "oracle",
                                                      "wrote")]
    return result, notes


def run_set(seed: int, seconds: float, extra: List[str], profile: bool
            ) -> Tuple[Results, Results, int, int, List[str]]:
    """All workloads once: ``(end_to_end, per_layer, attempted, failed,
    notes)``."""
    passes: Dict[str, List[Dict[str, float]]] = {name: [] for name in WORKLOADS}
    attempted = failed = 0
    notes: List[str] = []
    for index in range(PASSES):
        for name in WORKLOADS:
            print("  pass %d/%d  %s" % (index + 1, PASSES, name),
                  file=sys.stderr)
            result, lines = run_unit(name, seed, seconds / PASSES, 0, extra)
            passes[name].append({metric: entry["value"] for metric, entry
                                 in result["metrics"].items()})
            attempted += result["attempted"]
            failed += result["failed"]
            notes.extend("%s: %s" % (name, line) for line in lines)
    end_to_end: Results = {
        name: {metric: statistics.median(run[metric] for run in runs)
               for metric in END_TO_END}
        for name, runs in passes.items()}
    per_layer: Results = {}
    traced_extra = extra + (["--profile"] if profile else [])
    for name in WORKLOADS:
        print("  traced      %s" % name, file=sys.stderr)
        result, lines = run_unit(name, seed, seconds / 2, 1, traced_extra)
        per_layer[name] = {metric: entry["value"] for metric, entry
                           in result["metrics"].items()}
        attempted += result["attempted"]
        failed += result["failed"]
        notes.extend("%s: %s" % (name, line) for line in lines)
    return end_to_end, per_layer, attempted, failed, notes


def table(results: Results, units: Dict[str, str]) -> List[str]:
    """Metrics down, workloads across."""
    names = list(results)
    lines = ["%-28s %-6s" % ("metric", "unit")
             + "".join("%14s" % name for name in names)]
    for metric in next(iter(results.values())):
        lines.append("%-28s %-6s" % (metric, units.get(metric, ""))
                     + "".join("%14.4f" % results[name][metric]
                               for name in names))
    return lines


def ranking(per_layer: Results) -> List[str]:
    """The three most expensive layers of each workload, by package (a
    package's row adds up its ``*_us`` ledger entries)."""
    lines = []
    for name, metrics in per_layer.items():
        cost: Dict[str, float] = {}
        for metric in LAYERS:
            package = metric.split(".", 1)[0]
            cost[package] = cost.get(package, 0.0) + metrics[metric]
        whole = sum(cost.values()) or 1.0
        top = sorted(cost, key=lambda package: -cost[package])[:3]
        lines.append("%-14s %s" % (name, ", ".join(
            "%s %.0f us (%.0f%%)" % (package, cost[package],
                                     100.0 * cost[package] / whole)
            for package in top)))
    return lines


def agree(first: Tuple[Results, Results], second: Tuple[Results, Results]
          ) -> Tuple[List[str], int]:
    """Two sets of runs of the same code, side by side.  A breach is an
    end-to-end metric whose two values differ by more than its bound, or a
    count that does not repeat exactly on a single-client workload."""
    bounds = {entry["name"]: entry["bound"] for entry in spec()["end_to_end"]}
    lines = ["%-14s %-22s %14s %14s %8s %7s" % (
        "workload", "metric", "first", "second", "diff", "bound")]
    breaches = 0
    for name in first[0]:
        for metric, bound in bounds.items():
            a, b = first[0][name][metric], second[0][name][metric]
            diff = abs(b - a) / a
            breach = diff > bound
            breaches += breach
            lines.append("%-14s %-22s %14.4f %14.4f %7.1f%% %6.0f%%%s" % (
                name, metric, a, b, 100 * diff, 100 * bound,
                "  BREACH" if breach else ""))
    for name in first[1]:
        if name == "coupling_mix":
            continue    # separate firings run beside the client
        for metric in COUNTS:
            if metric == "obs.journal_bytes":
                continue    # batch frames are cut by the 100 ms timer
            a, b = first[1][name][metric], second[1][name][metric]
            if a != b:
                breaches += 1
                lines.append("%-14s %-22s %14.6f %14.6f   count differs"
                             "  BREACH" % (name, metric, a, b))
    return lines, breaches


def main(seed: int, seconds: float, quick: bool, do_agree: bool,
         profile: bool, out: str) -> int:
    extra = ["--quick"] if quick else []
    sets = []
    for index in range(2 if do_agree else 1):
        print("set %d, seed %d" % (index + 1, seed), file=sys.stderr)
        sets.append(run_set(seed, seconds, extra, profile))
    end_to_end, per_layer, _, _, notes = sets[0]
    attempted = sum(done[2] for done in sets)
    failed = sum(done[3] for done in sets)
    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    print("\n".join(
        ["end to end (untraced; median block, median of %d passes)" % PASSES]
        + table(end_to_end, units)
        + ["", "per layer (traced run; per stimulus)"]
        + table(per_layer, PER_LAYER)
        + ["", "top three layers"] + ranking(per_layer) + [""] + notes))
    status = 0
    if do_agree:
        lines, breaches = agree(sets[0][:2], sets[1][:2])
        print("\n".join(["", "agreement of two sets of runs"] + lines
                        + ["%d breaches" % breaches]))
        status = 1 if breaches else 0
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"seed": seed, "seconds": seconds, "quick": quick,
                   "attempted": attempted, "failed": failed,
                   "end_to_end": end_to_end, "per_layer": per_layer},
                  handle, indent=1)
    print("oracles: %d failed of %d attempted; result in %s"
          % (failed, attempted, path))
    return 1 if failed else status
