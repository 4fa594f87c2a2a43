"""Tests for deferral scoping: deferred firings whose event occurred in a
subtransaction queue on the top-level transaction and run once, at its
commit, against the transaction's final state (the execution-model intent;
DESIGN decisions 8 and 39)."""

import pytest

from repro import (
    Action,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    IntegrityViolation,
    Rule,
    on_create,
    on_update,
)
from repro.declarative import DomainConstraint, install_domain_constraint


def build():
    db = HiPAC(lock_timeout=2.0)
    db.define_class(ClassDef("Order", (
        AttributeDef("item", AttrType.STRING, required=True),
        AttributeDef("qty", AttrType.INT, default=1),
        AttributeDef("status", AttrType.STRING, default="new"),
    )))
    return db


def install_doubling_rule(db):
    """On status update, a rule action doubles qty (in a subtransaction)."""
    db.create_rule(Rule(
        name="double-qty",
        event=on_update("Order", attrs=["status"]),
        condition=Condition.true(),
        action=Action.call(lambda ctx: ctx.update(
            ctx.bindings["oid"], {"qty": ctx.bindings["new_qty"] * 2})),
    ))


class TestTopLevelDeferral:
    def test_constraint_violated_by_rule_action_aborts_at_top_commit(self):
        from repro.objstore.predicates import Attr
        db = build()
        install_domain_constraint(db, DomainConstraint(
            "qty-cap", "Order", Attr("qty") <= 10))
        install_doubling_rule(db)
        with db.transaction() as txn:
            oid = db.create("Order", {"item": "x", "qty": 8}, txn)
        txn = db.begin()
        db.update(oid, {"status": "rush"}, txn)  # action doubles qty to 16
        with pytest.raises(IntegrityViolation):
            db.commit(txn)
        with db.transaction() as r:
            assert db.read(oid, r)["qty"] == 8

    def test_violation_repaired_later_in_same_top_level_passes(self):
        from repro.objstore.predicates import Attr
        db = build()
        install_domain_constraint(db, DomainConstraint(
            "qty-cap", "Order", Attr("qty") <= 10))
        install_doubling_rule(db)
        with db.transaction() as txn:
            oid = db.create("Order", {"item": "x", "qty": 8}, txn)
        with db.transaction() as txn:
            db.update(oid, {"status": "rush"}, txn)   # qty -> 16 (violating)
            db.update(oid, {"qty": 5}, txn)           # repaired pre-commit
        with db.transaction() as r:
            assert db.read(oid, r)["qty"] == 5


class TestPerTransactionDeferral:
    """Deferred work triggered in any transaction of a tree waits for the
    top-level commit, whether the event occurred in a subtransaction or in
    the top-level transaction itself."""

    def test_top_level_deferral_waits_for_outer_commit(self):
        db = build()
        order_of_events = []
        db.create_rule(Rule(
            name="spawn",
            event=on_create("Order"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                ctx.bindings["oid"], {"status": "spawned"})),
        ))
        db.create_rule(Rule(
            name="deferred-observer",
            event=on_update("Order", attrs=["status"]),
            condition=Condition.true(),
            action=Action.call(
                lambda ctx: order_of_events.append("deferred-ran")),
            ec_coupling="deferred",
        ))
        txn = db.begin()
        db.create("Order", {"item": "x"}, txn)
        order_of_events.append("before-top-commit")
        db.commit(txn)
        assert order_of_events == ["before-top-commit", "deferred-ran"]

    def test_direct_top_level_event_runs_at_its_commit(self):
        db = build()
        ran = []
        db.create_rule(Rule(
            name="probe",
            event=on_create("Order"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
            ec_coupling="deferred",
        ))
        txn = db.begin()
        db.create("Order", {"item": "x"}, txn)
        assert ran == []
        db.commit(txn)
        assert ran == [1]
