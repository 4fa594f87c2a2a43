"""Command line of the benchmark."""

from __future__ import annotations

import argparse
from typing import List, Optional

from . import suite, unit
from .workloads import WORKLOADS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="End-to-end benchmark with a per-layer ledger.  With "
                    "--workload: one run, the result object on the last "
                    "line.  Without: the whole suite.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, about a second per workload")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="with --trace 1: dump the retained spans")
    parser.add_argument("--profile", action="store_true",
                        help="cross-check the span ledger of the traced "
                             "run against cProfile")
    parser.add_argument("--agree", action="store_true",
                        help="suite: two sets of runs, exit 1 unless they "
                             "agree within the bounds of BENCHMARK.json")
    parser.add_argument("--out", default=suite.DEFAULT_OUT,
                        help="suite: where the result is written")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (
        3.0 if args.quick else float(suite.spec()["run_seconds"]))
    if args.workload is None:
        return suite.main(args.seed, seconds, args.quick, args.agree,
                          args.profile, args.out)
    if (args.profile or args.spans_out) and not args.trace:
        parser.error("--profile and --spans-out need the traced run: "
                     "--trace 1")
    result = unit.run(args.workload, args.seed, seconds, bool(args.trace),
                      quick=args.quick, spans_out=args.spans_out,
                      profile=args.profile)
    print("\n".join(unit.render(result)))
    return 0
