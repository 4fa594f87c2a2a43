"""Experiment Q5 — concurrent sibling subtransactions (paper §3.1/§3.2).

"For rules with the same event and E-C coupling mode, the condition
evaluation transactions will execute concurrently."  This experiment
compares serial versus concurrent evaluation of an immediate group whose
conditions each take real (I/O-like) time, and measures separate-coupling
throughput with many firings in flight."""

import time

import pytest

from benchmarks.conftest import concurrent_siblings, make_db, seed_stocks
from repro import Action, Condition, Rule, on_update

SLEEP = 0.004  # per-condition "think time" (releases the GIL, like I/O)
RULES = 8
PRICE = [0.0]


def build(concurrent):
    db = make_db()
    if concurrent:
        concurrent_siblings(db)
    oids = seed_stocks(db, 5)
    for i in range(RULES):
        db.create_rule(Rule(
            name="slow-%d" % i,
            event=on_update("Stock", attrs=["price"]),
            condition=Condition(
                guard=lambda bindings, results: (time.sleep(SLEEP), True)[1]),
            action=Action.call(lambda ctx: None),
        ))
    return db, oids


def one_event(db, oids):
    PRICE[0] += 1.0
    with db.transaction() as txn:
        db.update(oids[0], {"price": PRICE[0]}, txn)


def test_serial_sibling_conditions(benchmark):
    db, oids = build(concurrent=False)
    try:
        benchmark.pedantic(one_event, args=(db, oids), rounds=10,
                           iterations=1)
    finally:
        db.close()


def test_concurrent_sibling_conditions(benchmark):
    db, oids = build(concurrent=True)
    try:
        benchmark.pedantic(one_event, args=(db, oids), rounds=10,
                           iterations=1)
    finally:
        db.close()


def test_concurrency_wins_for_slow_conditions(benchmark):
    """Shape: with 8 conditions of ~4ms each, concurrent siblings approach
    1x the single-condition latency; serial pays ~8x."""
    db_serial, oids_serial = build(concurrent=False)
    db_conc, oids_conc = build(concurrent=True)

    def cost(db, oids, rounds=8):
        start = time.perf_counter()
        for _ in range(rounds):
            one_event(db, oids)
        return (time.perf_counter() - start) / rounds

    try:
        serial = cost(db_serial, oids_serial)
        concurrent = cost(db_conc, oids_conc)
        assert concurrent < serial, \
            "concurrent %.4fs vs serial %.4fs per event" % (concurrent, serial)
        # Serial must pay at least the sum of sleeps; concurrent well under
        # it.
        assert serial >= RULES * SLEEP
        assert concurrent < serial * 0.7

        benchmark.pedantic(one_event, args=(db_conc, oids_conc),
                           rounds=10, iterations=1)
    finally:
        db_serial.close()
        db_conc.close()


def test_many_separate_firings_in_flight(benchmark):
    """Separate-coupling throughput: 20 events x 4 separate rules = 80
    top-level firings draining on the thread pool."""
    db = make_db()
    oids = seed_stocks(db, 5)
    for i in range(4):
        db.create_rule(Rule(
            name="sep-%d" % i,
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: time.sleep(0.001)),
            ec_coupling="separate",
        ))

    def run():
        for i in range(20):
            PRICE[0] += 1.0
            with db.transaction() as txn:
                db.update(oids[0], {"price": PRICE[0]}, txn)
        assert db.drain(timeout=60.0)

    try:
        benchmark.pedantic(run, rounds=3, iterations=1)
        assert db.rule_manager.background_errors == []
    finally:
        db.close()
