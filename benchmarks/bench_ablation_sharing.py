"""Experiment A1 — ablations of the Condition Evaluator's techniques.

DESIGN.md calls out two design choices to ablate:

* **condition-graph sharing** on/off (multiple query optimization +
  materialization, §5.5);
* **index probes** on/off in the query executor.

Each ablation isolates one mechanism on a workload chosen to exercise it."""

import time

import pytest

from benchmarks.conftest import make_db, naive, print_table, seed_stocks
from repro import Attr, Compare, Condition, EventArg, Query
from repro.workloads import make_threshold_rules

PRICE = [500.0]


def one_signal(db, oids):
    PRICE[0] += 1.0
    with db.transaction() as txn:
        db.update(oids[0], {"price": PRICE[0]}, txn)


@pytest.mark.parametrize("sharing", [True, False],
                         ids=["sharing-on", "sharing-off"])
def test_ablate_condition_graph(sharing, benchmark):
    db = naive(make_db(), graph=sharing)
    oids = seed_stocks(db, 300)
    for rule in make_threshold_rules(80, shared_fraction=0.75):
        db.create_rule(rule)
    benchmark(one_signal, db, oids)


@pytest.mark.parametrize("indexes", [True, False],
                         ids=["indexes-on", "indexes-off"])
def test_ablate_indexes(indexes, benchmark):
    """Parameterized conditions (symbol == event binding) hit the symbol
    index when enabled, scan otherwise."""
    db = naive(make_db(), indexes=indexes)
    oids = seed_stocks(db, 500)

    def lookup():
        with db.transaction() as txn:
            return db.query(
                Query("Stock", Compare(Attr("symbol"), "==", EventArg("s"))),
                txn, {"s": "S0042"})

    result = benchmark(lookup)
    assert len(result) == 1


def test_ablation_summary(benchmark):
    """Both mechanisms must win on their target workloads."""
    rows = []

    def graph_cost(sharing):
        db = naive(make_db(), graph=sharing)
        oids = seed_stocks(db, 300)
        for rule in make_threshold_rules(80, shared_fraction=0.75):
            db.create_rule(rule)
        start = time.perf_counter()
        for _ in range(20):
            one_signal(db, oids)
        return time.perf_counter() - start

    with_graph = graph_cost(True)
    without_graph = graph_cost(False)
    rows.append(["condition graph", "%.4fs" % with_graph,
                 "%.4fs" % without_graph,
                 "%.1fx" % (without_graph / with_graph)])
    assert with_graph < without_graph

    def index_cost(indexes):
        db = naive(make_db(), indexes=indexes)
        seed_stocks(db, 500)
        query = Query("Stock", Compare(Attr("symbol"), "==", EventArg("s")))
        start = time.perf_counter()
        for i in range(200):
            with db.transaction() as txn:
                db.query(query, txn, {"s": "S%04d" % (i % 500)})
        return time.perf_counter() - start

    with_index = index_cost(True)
    without_index = index_cost(False)
    rows.append(["hash indexes", "%.4fs" % with_index,
                 "%.4fs" % without_index,
                 "%.1fx" % (without_index / with_index)])
    assert with_index < without_index

    print_table("A1: ablations (lower is better)",
                ["mechanism", "enabled", "disabled", "speedup"], rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
