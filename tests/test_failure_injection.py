"""Failure-injection tests: lock timeouts, aborted firings, guard crashes,
and misbehaving applications must leave the system consistent."""

import threading
import time

import pytest

from repro import (
    Action,
    ApplicationError,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    on_update,
)
from repro.rules.actions import RequestStep


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=0.5)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    database.define_class(ClassDef("Audit", attributes("note")))
    yield database
    database.close()


class TestSeparateFiringLockTimeout:
    def test_timed_out_separate_firing_is_contained(self, db):
        """A separate firing blocked past the lock timeout aborts itself;
        the application and the rest of the system continue unharmed."""
        db.create_rule(Rule(
            name="auditor",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock")),  # needs extent S lock
            action=Action.call(lambda ctx: None),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        blocker = db.begin()
        db.update(oid, {"price": 2.0}, blocker)  # holds X; firing will block
        # Trigger a firing from another transaction? The update above is the
        # trigger itself: the separate firing spawned and now blocks on the
        # extent lock until `blocker` ends or the timeout hits.
        time.sleep(0.8)  # beyond the 0.5s lock timeout
        db.abort(blocker)
        assert db.drain(timeout=10.0)
        firings = db.firing_log().for_rule("auditor")
        assert firings
        # The firing either timed out (error recorded) or squeaked through
        # after the abort; in both cases no background error escalates.
        assert db.rule_manager.background_errors == []

    def test_system_usable_after_timeout(self, db):
        self.test_timed_out_separate_firing_is_contained(db)
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "B", "price": 1.0}, txn)


class TestGuardCrash:
    def test_condition_guard_crash_fails_operation_and_rolls_back(self, db):
        db.create_rule(Rule(
            name="bad-guard",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition(guard=lambda b, r: 1 / 0),
            action=Action.call(lambda ctx: None),
        ))
        with db.transaction() as setup:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, setup)
        from repro.errors import ConditionError
        txn = db.begin()
        with pytest.raises(ConditionError):
            db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        with db.transaction() as r:
            assert db.read(oid, r)["price"] == 1.0


class TestApplicationFailure:
    def test_failing_application_aborts_immediate_firing(self, db):
        app = db.application("flaky")
        app.operations.register("notify", lambda: 1 / 0)
        db.create_rule(Rule(
            name="notify-rule",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.of(RequestStep("flaky", "notify")),
        ))
        with db.transaction() as setup:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, setup)
        txn = db.begin()
        with pytest.raises(ApplicationError):
            db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        with db.transaction() as r:
            assert db.read(oid, r)["price"] == 1.0

    def test_failing_application_in_separate_firing_recorded(self, db):
        app = db.application("flaky")
        app.operations.register("notify", lambda: 1 / 0)
        db.create_rule(Rule(
            name="notify-rule",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.of(RequestStep("flaky", "notify")),
            ec_coupling="separate",
        ))
        with db.transaction() as setup:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, setup)
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
        db.drain()
        assert db.rule_manager.background_errors
        # The triggering transaction was unaffected:
        with db.transaction() as r:
            assert db.read(oid, r)["price"] == 2.0


class TestFiringErrorCount:
    def test_one_failing_firing_counts_one_error(self, db):
        """A separate-coupled condition hosts its immediate action: when
        the action raises, the action path records the error and the
        condition path re-raises it.  The firing failed once, and the
        firing-error objective windows this count against ``triggered``."""
        db.create_rule(Rule(
            name="doomed", event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: 1 / 0),
            ec_coupling="separate"))
        with db.transaction() as setup:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, setup)
        for price in (2.0, 3.0, 4.0, 5.0):
            with db.transaction() as txn:
                db.update(oid, {"price": price}, txn)
        assert db.drain(timeout=10.0)
        assert len(db.rule_manager.background_errors) == 4
        assert db.stats()["rules"]["firing_errors"] == 4


class TestActionWritesRolledBackOnLaterFailure:
    def test_first_steps_rolled_back_when_later_step_fails(self, db):
        def two_steps(ctx):
            ctx.create("Audit", {"note": "step1"})
            raise RuntimeError("step2 failed")

        db.create_rule(Rule(
            name="partial",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(two_steps),
        ))
        with db.transaction() as setup:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, setup)
        txn = db.begin()
        with pytest.raises(RuntimeError):
            db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        with db.transaction() as r:
            assert len(db.query(Query("Audit"), r)) == 0


class TestSoak:
    def test_mixed_workload_soak(self):
        """A few thousand operations across all mechanisms; invariants at
        the end: no stuck locks, no live transactions, no background
        errors, condition-graph memories exact."""
        db = HiPAC(lock_timeout=10.0)
        db.define_class(ClassDef("Stock", attributes(
            "symbol", ("price", "number"))))
        hits = []
        lock = threading.Lock()

        def tally(ctx):
            with lock:
                hits.append(1)

        from repro import Attr
        db.create_rule(Rule(
            name="imm", event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock", Attr("price") > 100)),
            action=Action.call(tally)))
        db.create_rule(Rule(
            name="def", event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock", Attr("price") > 100)),
            action=Action.call(tally), ec_coupling="deferred"))
        db.create_rule(Rule(
            name="sep", event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(tally), ec_coupling="separate"))

        import random
        rng = random.Random(99)
        oids = []
        with db.transaction() as txn:
            for i in range(20):
                oids.append(db.create(
                    "Stock", {"symbol": "S%d" % i, "price": 50.0}, txn))
        for round_no in range(150):
            txn = db.begin()
            for _ in range(3):
                db.update(rng.choice(oids),
                          {"price": rng.uniform(10, 200)}, txn)
            if rng.random() < 0.2:
                db.abort(txn)
            else:
                db.commit(txn)
        assert db.drain(timeout=60.0)
        assert db.rule_manager.background_errors == []
        assert db.transaction_manager.live_transactions() == []
        assert db.locks.resource_count() == 0
        # Graph memory exactness: recompute from scratch and compare.
        query = Query("Stock", Attr("price") > 100)
        node = db.condition_evaluator.graph.node_for(query)
        with db.transaction() as r:
            truth = set(db.query(query, r).oids())
        assert node.memory == truth
        assert hits  # rules actually fired during the soak
