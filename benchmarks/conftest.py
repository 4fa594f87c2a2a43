"""Shared helpers for the benchmark/experiment harness.

Every benchmark asserts the *qualitative shape* of its experiment (who
wins, what scales how) in addition to producing pytest-benchmark timings;
EXPERIMENTS.md records the paper's qualitative statement next to the
measured numbers.
"""

from __future__ import annotations

import statistics

import pytest

from repro import (
    Action,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
)


def stock_class() -> ClassDef:
    return ClassDef("Stock", (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("price", AttrType.NUMBER, default=0.0),
    ))


def make_db(**kwargs) -> HiPAC:
    """A HiPAC instance with the Stock class defined."""
    db = HiPAC(lock_timeout=30.0, **kwargs)
    db.define_class(stock_class())
    return db


def naive(db: HiPAC, *, graph: bool = True, indexes: bool = True) -> HiPAC:
    """Put ``db`` on the reference side an experiment compares against:
    ``graph=False`` re-evaluates every condition per rule instead of sharing
    it through the condition graph, ``indexes=False`` scans extents instead
    of probing indexes (A1, Q2).  The engine itself has no such option; set
    before any rule exists, since rule creation fills the graph."""
    if db.rule_names():
        raise ValueError("choose the reference side before creating rules")
    db.condition_evaluator.use_graph = graph
    db.object_manager.executor.use_indexes = indexes
    return db


def seed_stocks(db: HiPAC, count: int, price: float = 100.0):
    """Create ``count`` stocks; returns their OIDs."""
    oids = []
    with db.transaction() as txn:
        for i in range(count):
            oids.append(db.create(
                "Stock", {"symbol": "S%04d" % i, "price": price}, txn))
    return oids


def paired_overheads(stacks, sample, pairs, rounds, between=None):
    """The paired-block overhead estimator of the add-on benchmarks.

    ``sample(stack)`` runs one timing block on one stack and returns its
    seconds; every round samples all of ``stacks`` back to back, so the
    ratio of two stacks within a round is taken under the same machine
    load (on a shared host load drifts on a seconds timescale; pairing
    cancels the drift each round).  For each ``(numerator, denominator)``
    in ``pairs`` two estimates of the overhead come back, in percent:
    ``median_pct``, the median paired ratio (discards the outlier rounds a
    mean lets through), and ``best_pct``, the ratio of the best blocks
    (discounts one-sided scheduling noise).  ``between(index)`` runs
    untimed after each round.

    Returns ``(overheads, best)``: ``overheads[(numerator, denominator)]``
    is ``{"median_pct", "best_pct"}``, ``best[mode]`` the fastest block.
    """
    ratios = {pair: [] for pair in pairs}
    best = {mode: float("inf") for mode in stacks}
    for index in range(rounds):
        timings = {mode: sample(stack) for mode, stack in stacks.items()}
        for pair in pairs:
            ratios[pair].append(timings[pair[0]] / timings[pair[1]])
        for mode, seconds in timings.items():
            best[mode] = min(best[mode], seconds)
        if between is not None:
            between(index)
    overheads = {
        pair: {
            "median_pct": (statistics.median(ratios[pair]) - 1.0) * 100.0,
            "best_pct": (best[pair[0]] / best[pair[1]] - 1.0) * 100.0,
        }
        for pair in pairs
    }
    return overheads, best


def print_table(title: str, headers, rows) -> None:
    """Print one experiment table (visible with pytest -s; the assertions
    encode the shape regardless)."""
    print()
    print("== %s ==" % title)
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)] if rows else [len(str(h)) for h in headers]
    print("  " + "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  " + "  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
