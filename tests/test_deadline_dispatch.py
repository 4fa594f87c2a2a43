"""Tests for deadline-aware dispatch of separate-coupling firings (the
[BUC88] time-constrained scheduling integration)."""

import threading
import time


from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_update,
)
from repro.rules import manager as rule_manager


def build(monkeypatch, workers):
    """A HiPAC whose separate-coupling executor has ``workers`` workers."""
    monkeypatch.setattr(rule_manager, "SEPARATE_WORKERS", workers)
    db = HiPAC(lock_timeout=5.0)
    db.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    return db


class TestDeadlineDispatch:
    def test_separate_firings_run_via_executor(self, monkeypatch):
        db = build(monkeypatch, workers=2)
        executor = db.rule_manager.executor
        ran = []
        lock = threading.Lock()
        db.create_rule(Rule(
            name="r",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(
                lambda ctx: (lock.acquire(), ran.append(1), lock.release())),
            ec_coupling="separate",
            deadline=5.0,
        ))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        for i in range(10):
            with db.transaction() as txn:
                db.update(oid, {"price": float(i + 2)}, txn)
        assert db.drain(timeout=30.0)
        assert len(ran) == 10
        assert executor.stats["submitted"] == 10
        db.close()

    def test_urgent_rule_dispatched_first(self, monkeypatch):
        db = build(monkeypatch, workers=1)
        executor = db.rule_manager.executor
        order = []
        gate = threading.Event()
        # Occupy the single worker so both firings queue.
        executor.submit(0.0, gate.wait)

        def make(name, deadline):
            db.create_rule(Rule(
                name=name,
                event=on_update("Stock", attrs=["price"]),
                condition=Condition.true(),
                action=Action.call(lambda ctx, n=name: order.append(n)),
                ec_coupling="separate",
                deadline=deadline,
                # alphabetical firing order would put 'relaxed' first;
                # deadlines must override it at dispatch
                priority=0,
            ))

        make("a-relaxed", deadline=100.0)
        make("b-urgent", deadline=1.0)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
        time.sleep(0.1)  # both submissions queued behind the gate
        gate.set()
        assert db.drain(timeout=30.0)
        assert order == ["b-urgent", "a-relaxed"]
        db.close()

    def test_rules_without_deadline_run_last(self, monkeypatch):
        db = build(monkeypatch, workers=1)
        executor = db.rule_manager.executor
        order = []
        gate = threading.Event()
        executor.submit(0.0, gate.wait)
        db.create_rule(Rule(
            name="a-nodeadline",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: order.append("none")),
            ec_coupling="separate",
        ))
        db.create_rule(Rule(
            name="b-deadline",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: order.append("deadline")),
            ec_coupling="separate",
            deadline=2.0,
        ))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
        time.sleep(0.1)
        gate.set()
        assert db.drain(timeout=30.0)
        assert order == ["deadline", "none"]
        db.close()
