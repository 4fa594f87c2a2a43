"""Experiment Q2 — efficient condition evaluation (paper §2.3/§5.5).

"Rule conditions can be complex, and rules with complex conditions can fire
frequently.  HiPAC must provide efficient condition evaluation, using
techniques such as multiple query optimization, incremental evaluation, and
materialization of derived data."

Measures per-signal processing time against the number of installed rules,
with the shared condition graph versus naive per-rule re-evaluation.  Shape
to hold: the graph's advantage grows with the rule count and the extent
size (naive rescans the extent per rule per event)."""

import time

import pytest

from benchmarks.conftest import make_db, naive, print_table, seed_stocks
from repro.workloads import make_threshold_rules

PRICE = [200.0]


def build(rule_count, use_graph, extent=200, shared_fraction=0.5):
    db = naive(make_db(), graph=use_graph)
    oids = seed_stocks(db, extent, price=50.0)
    for rule in make_threshold_rules(rule_count,
                                     shared_fraction=shared_fraction):
        db.create_rule(rule)
    return db, oids


def one_signal(db, oids):
    PRICE[0] += 1.0
    with db.transaction() as txn:
        db.update(oids[0], {"price": PRICE[0]}, txn)


@pytest.mark.parametrize("rules", [10, 50, 200])
def test_signal_with_condition_graph(rules, benchmark):
    db, oids = build(rules, use_graph=True)
    benchmark(one_signal, db, oids)


@pytest.mark.parametrize("rules", [10, 50, 200])
def test_signal_naive_evaluation(rules, benchmark):
    db, oids = build(rules, use_graph=False)
    benchmark(one_signal, db, oids)


def test_graph_beats_naive_at_scale(benchmark):
    """The headline shape: with many rules over a sizeable extent, shared
    materialized evaluation beats naive re-evaluation."""
    def cost(use_graph, rules=100, extent=400, signals=30):
        db, oids = build(rules, use_graph=use_graph, extent=extent)
        start = time.perf_counter()
        for _ in range(signals):
            one_signal(db, oids)
        return time.perf_counter() - start

    scan = cost(False)
    graph = cost(True)
    assert graph < scan, "graph %.3fs vs naive %.3fs" % (graph, scan)
    print_table(
        "Q2: 30 signals, 100 rules, extent 400",
        ["evaluator", "seconds"],
        [["condition graph", "%.4f" % graph], ["naive", "%.4f" % scan]],
    )

    db, oids = build(100, use_graph=True, extent=400)
    benchmark(one_signal, db, oids)


def test_sharing_collapses_identical_conditions(benchmark):
    """100 rules with one shared condition need one alpha node and one
    memory update per delta."""
    db, oids = build(100, use_graph=True, shared_fraction=1.0)
    assert db.condition_evaluator.graph.node_count() == 1
    benchmark(one_signal, db, oids)
    evaluations = db.condition_evaluator.stats["evaluations"]
    memo_hits = db.condition_evaluator.stats["memo_hits"]
    # Within each signal round all but one evaluation hit the memo.
    assert memo_hits >= evaluations * 0.9


def test_memory_update_cost_per_delta(benchmark):
    """Incremental maintenance: a delta touches each covering alpha node
    once, independent of how many rules share it."""
    db, oids = build(100, use_graph=True, shared_fraction=1.0)
    graph = db.condition_evaluator.graph
    before = graph.stats["deltas_processed"]
    one_signal(db, oids)
    assert graph.stats["deltas_processed"] == before + 1
    benchmark(one_signal, db, oids)
