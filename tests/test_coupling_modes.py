"""Tests for the execution model: all nine E-C x C-A coupling combinations
(paper §2.1, §3.2, §6.2)."""

import pytest

from repro import (
    Action,
    Attr,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    every,
    external,
    on_update,
)
from repro.rules.coupling import DEFERRED, IMMEDIATE, SEPARATE, all_combinations


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    return database


def install(db, events, ec, ca, condition=None):
    """Install a rule recording (phase, txn_id) into ``events``."""
    rule = Rule(
        name="probe",
        event=on_update("Stock"),
        condition=condition or Condition.true(),
        action=Action.call(lambda ctx: events.append(("action", ctx.txn.txn_id))),
        ec_coupling=ec,
        ca_coupling=ca,
    )
    db.create_rule(rule)
    return rule


def trigger(db, events):
    """Create + update a stock; record operation/commit boundary markers."""
    txn = db.begin()
    oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
    db.update(oid, {"price": 2.0}, txn)
    events.append(("after-update", txn.txn_id))
    db.commit(txn)
    events.append(("after-commit", txn.txn_id))
    db.drain()
    return txn


def phase_index(events, phase):
    return [i for i, e in enumerate(events) if e[0] == phase]


@pytest.mark.parametrize("ec,ca", all_combinations())
def test_every_combination_executes_action(db, ec, ca):
    events = []
    install(db, events, ec, ca)
    trigger(db, events)
    assert phase_index(events, "action"), "action never ran for %s/%s" % (ec, ca)


class TestImmediateImmediate:
    def test_action_preempts_operation(self, db):
        events = []
        install(db, events, IMMEDIATE, IMMEDIATE)
        trigger(db, events)
        assert phase_index(events, "action")[0] < phase_index(events, "after-update")[0]

    def test_action_runs_in_subtransaction_of_trigger(self, db):
        firing = None
        events = []
        install(db, events, IMMEDIATE, IMMEDIATE)
        txn = trigger(db, events)
        firing = db.firing_log().for_rule("probe")[0]
        assert firing.triggering_txn == txn.txn_id
        assert firing.condition_txn is not None
        assert firing.action_txn is not None
        assert firing.condition_txn != firing.action_txn

    def test_transaction_tree_contains_firing_txns(self, db):
        events = []
        install(db, events, IMMEDIATE, IMMEDIATE)
        txn = trigger(db, events)
        # top + (cond+act per update event) — create event also triggers? No:
        # event is on_update, so one condition and one action subtransaction.
        assert txn.tree_size() == 3


class TestImmediateDeferred:
    def test_action_waits_for_commit(self, db):
        events = []
        install(db, events, IMMEDIATE, DEFERRED)
        trigger(db, events)
        action = phase_index(events, "action")[0]
        assert phase_index(events, "after-update")[0] < action
        assert action < phase_index(events, "after-commit")[0]


class TestImmediateSeparate:
    def test_action_in_new_top_level(self, db):
        events = []
        install(db, events, IMMEDIATE, SEPARATE)
        txn = trigger(db, events)
        firing = db.firing_log().for_rule("probe")[0]
        assert firing.separate_thread
        action_txn = firing.action_txn
        assert action_txn is not None
        assert action_txn != txn.txn_id


class TestDeferredFamily:
    def test_deferred_condition_waits_for_commit(self, db):
        events = []
        install(db, events, DEFERRED, IMMEDIATE)
        trigger(db, events)
        action = phase_index(events, "action")[0]
        assert phase_index(events, "after-update")[0] < action
        assert action < phase_index(events, "after-commit")[0]

    def test_one_firing_leaves_one_record(self, db):
        """The record made when the firing is queued is the one the commit
        completes — not a placeholder beside a second record."""
        events = []
        install(db, events, DEFERRED, IMMEDIATE)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        [queued] = db.firing_log().for_rule("probe")
        assert queued.deferred and queued.condition_txn is None
        db.commit(txn)
        [firing] = db.firing_log().for_rule("probe")
        assert firing is queued
        assert firing.deferred and firing.executed
        assert firing.condition_txn is not None
        assert firing.triggering_txn == txn.txn_id
        assert db.rule_profiler().profiles()["probe"].firings == 1

    def test_deferred_deferred(self, db):
        events = []
        install(db, events, DEFERRED, DEFERRED)
        trigger(db, events)
        action = phase_index(events, "action")[0]
        assert action < phase_index(events, "after-commit")[0]

    def test_deferred_sees_final_state(self, db):
        """A deferred condition evaluates against the transaction's final
        state, not the state at event time."""
        seen = []
        rule = Rule(
            name="probe",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock", Attr("price") > 100)),
            action=Action.call(
                lambda ctx: seen.append(ctx.results[0].values("price"))),
            ec_coupling=DEFERRED,
        )
        db.create_rule(rule)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 150.0}, txn)   # event: queues deferred
            db.update(oid, {"price": 120.0}, txn)   # final state
        # two deferred firings (two price updates), both see 120.0
        assert seen == [[120.0], [120.0]]

    def test_deferred_not_run_when_condition_false_at_commit(self, db):
        executed = []
        rule = Rule(
            name="probe",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.of(Query("Stock", Attr("price") > 100)),
            action=Action.call(lambda ctx: executed.append(True)),
            ec_coupling=DEFERRED,
        )
        db.create_rule(rule)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 150.0}, txn)
            db.update(oid, {"price": 50.0}, txn)    # back below threshold
        assert executed == []

    def test_abort_discards_deferred_firings(self, db):
        events = []
        install(db, events, DEFERRED, IMMEDIATE)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        assert phase_index(events, "action") == []


class TestSeparateFamily:
    def test_separate_runs_in_own_top_level(self, db):
        events = []
        install(db, events, SEPARATE, IMMEDIATE)
        txn = trigger(db, events)
        firing = db.firing_log().for_rule("probe")[0]
        assert firing.separate_thread
        assert firing.condition_txn != txn.txn_id

    def test_separate_separate_uses_two_top_levels(self, db):
        events = []
        install(db, events, SEPARATE, SEPARATE)
        trigger(db, events)
        firing = db.firing_log().for_rule("probe")[0]
        assert firing.condition_txn != firing.action_txn

    def test_separate_deferred_runs_at_separate_commit(self, db):
        events = []
        install(db, events, SEPARATE, DEFERRED)
        trigger(db, events)
        assert phase_index(events, "action")

    def test_separate_launched_even_if_trigger_aborts(self, db):
        events = []
        install(db, events, SEPARATE, IMMEDIATE)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        db.drain()
        # Causally independent separate firing ran despite the abort.
        assert phase_index(events, "action")

    def test_dependent_separate_discarded_on_abort(self, db):
        events = []
        rule = Rule(
            name="probe",
            event=on_update("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: events.append("action")),
            ec_coupling=SEPARATE,
            separate_dependent=True,
        )
        db.create_rule(rule)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        db.abort(txn)
        db.drain()
        assert events == []

    def test_dependent_separate_runs_after_commit(self, db):
        events = []
        rule = Rule(
            name="probe",
            event=on_update("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: events.append("action")),
            ec_coupling=SEPARATE,
            separate_dependent=True,
        )
        db.create_rule(rule)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        db.commit(txn)
        db.drain()
        assert events == ["action"]


class TestDetachedEvents:
    def test_temporal_event_hosts_immediate_in_fresh_txn(self, db):
        ran = []
        db.create_rule(Rule(
            name="tick",
            event=every(5.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(ctx.txn.top_level().label)),
            ec_coupling=IMMEDIATE,
        ))
        db.advance_time(5.0)
        assert ran == ["detached-firing"]

    def test_external_event_outside_txn(self, db):
        ran = []
        db.define_event("ping")
        db.create_rule(Rule(
            name="on-ping",
            event=external("ping"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(True)),
            ec_coupling=DEFERRED,  # escalated to detached immediate
        ))
        db.signal_event("ping")
        assert ran == [True]
