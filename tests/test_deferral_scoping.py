"""Tests for the two deferral-scoping semantics (RuleManagerConfig.
defer_to_top_level): top-level commit (default, the execution-model intent)
versus the §2.1-literal per-transaction deferral."""

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
from repro.rules.manager import RuleManagerConfig


def build(defer_to_top_level):
    db = HiPAC(lock_timeout=2.0,
               config=RuleManagerConfig(defer_to_top_level=defer_to_top_level))
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
        db = build(defer_to_top_level=True)
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
        db = build(defer_to_top_level=True)
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
    def test_subtransaction_event_defers_to_subtransaction_commit(self):
        """With the §2.1-literal semantics, a deferred rule triggered inside
        an action subtransaction runs when *that subtransaction* commits —
        before the top-level transaction ends."""
        db = build(defer_to_top_level=False)
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
        # The status update happened inside the `spawn` action
        # subtransaction; per-transaction deferral already drained it at
        # that subtransaction's commit:
        order_of_events.append("before-top-commit")
        db.commit(txn)
        assert order_of_events == ["deferred-ran", "before-top-commit"]
        # The host was the internal action subtransaction: the Transaction
        # Manager still signals the commit of an internal transaction that
        # carries deferred work.
        spawn = db.firing_log().for_rule("spawn")[0]
        observer = db.firing_log().for_rule("deferred-observer")[0]
        assert observer.triggering_txn == spawn.action_txn != txn.txn_id

    def test_top_level_deferral_waits_for_outer_commit(self):
        db = build(defer_to_top_level=True)
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

    def test_direct_top_level_events_identical_in_both_modes(self):
        for mode in (True, False):
            db = build(defer_to_top_level=mode)
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
            assert ran == [1], "mode=%s" % mode
