"""Tests for rule operations (paper §2.2): create, delete, enable, disable,
fire — their locking, and their undo when the enclosing transaction aborts."""

import threading

import pytest

from repro import (
    Action,
    Attr,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    RuleError,
    attributes,
    on_update,
)
from repro.rules.rule import RULE_CLASS
from repro.txn.locks import LockMode, LockResource


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    yield database
    database.close()


def probe_rule(events, name="probe", **kwargs):
    return Rule(
        name=name,
        event=kwargs.pop("event", on_update("Stock")),
        condition=kwargs.pop("condition", Condition.true()),
        action=Action.call(lambda ctx: events.append(name)),
        **kwargs,
    )


def touch(db):
    with db.transaction() as txn:
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)


class TestCreate:
    def test_rule_is_a_database_object(self, db):
        events = []
        rule = db.create_rule(probe_rule(events))
        assert rule.oid is not None
        assert rule.oid.class_name == RULE_CLASS
        with db.transaction() as txn:
            stored = db.read(rule.oid, txn)
        assert stored["name"] == "probe"
        assert stored["enabled"] is True

    def test_duplicate_name_rejected(self, db):
        events = []
        db.create_rule(probe_rule(events))
        with pytest.raises(RuleError):
            db.create_rule(probe_rule(events))

    def test_event_derived_from_condition_when_omitted(self, db):
        events = []
        rule = probe_rule(events, condition=Condition.of(
            Query("Stock", Attr("price") > 5)))
        rule.event = None
        db.create_rule(rule)
        assert rule.event is not None
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 10.0}, txn)
        assert events  # derived event triggered the rule

    def test_create_undone_on_abort(self, db):
        events = []
        txn = db.begin()
        db.rule_catalog.create_rule(probe_rule(events), txn)
        db.abort(txn)
        assert db.rule_names() == []
        touch(db)
        assert events == []
        # Detector programming was also rolled back.
        assert not db.object_manager.event_detector.is_defined(on_update("Stock"))

    def test_condition_graph_populated_on_create(self, db):
        events = []
        db.create_rule(probe_rule(events, condition=Condition.of(
            Query("Stock", Attr("price") > 5))))
        assert db.condition_evaluator.graph.node_count() == 1

    def test_rule_names_listed(self, db):
        events = []
        db.create_rule(probe_rule(events, name="b"))
        db.create_rule(probe_rule(events, name="a"))
        assert db.rule_names() == ["a", "b"]


class TestDelete:
    def test_deleted_rule_no_longer_fires(self, db):
        events = []
        db.create_rule(probe_rule(events))
        db.delete_rule("probe")
        touch(db)
        assert events == []
        assert db.rule_names() == []

    def test_delete_unknown_rejected(self, db):
        with pytest.raises(RuleError):
            db.delete_rule("nope")

    def test_delete_undone_on_abort(self, db):
        events = []
        db.create_rule(probe_rule(events))
        txn = db.begin()
        db.rule_catalog.delete_rule("probe", txn)
        db.abort(txn)
        assert db.rule_names() == ["probe"]
        touch(db)
        assert events == ["probe"]

    def test_delete_removes_store_object(self, db):
        events = []
        rule = db.create_rule(probe_rule(events))
        db.delete_rule("probe")
        assert not db.store.exists(rule.oid)

    def test_shared_event_survives_one_deletion(self, db):
        events = []
        db.create_rule(probe_rule(events, name="r1"))
        db.create_rule(probe_rule(events, name="r2"))
        db.delete_rule("r1")
        touch(db)
        assert events == ["r2"]


class TestEnableDisable:
    def test_disabled_rule_does_not_fire(self, db):
        events = []
        db.create_rule(probe_rule(events))
        db.disable_rule("probe")
        touch(db)
        assert events == []

    def test_reenabled_rule_fires(self, db):
        events = []
        db.create_rule(probe_rule(events))
        db.disable_rule("probe")
        db.enable_rule("probe")
        touch(db)
        assert events == ["probe"]

    def test_disable_reflected_in_store_object(self, db):
        events = []
        rule = db.create_rule(probe_rule(events))
        db.disable_rule("probe")
        with db.transaction() as txn:
            assert db.read(rule.oid, txn)["enabled"] is False

    def test_disable_undone_on_abort(self, db):
        events = []
        db.create_rule(probe_rule(events))
        txn = db.begin()
        db.rule_catalog.disable_rule("probe", txn)
        db.abort(txn)
        touch(db)
        assert events == ["probe"]

    def test_detector_disabled_only_when_no_enabled_rule_shares_event(self, db):
        events = []
        db.create_rule(probe_rule(events, name="r1"))
        db.create_rule(probe_rule(events, name="r2"))
        db.disable_rule("r1")
        touch(db)
        assert events == ["r2"]
        db.disable_rule("r2")
        assert not db.object_manager.event_detector.is_enabled(on_update("Stock"))

    def test_direct_store_update_also_disables(self, db):
        """Rules are first-class objects: updating the rule object's
        `enabled` attribute through the ordinary data API disables it."""
        events = []
        rule = db.create_rule(probe_rule(events))
        with db.transaction() as txn:
            db.update(rule.oid, {"enabled": False}, txn)
        touch(db)
        assert events == []


class TestManualFire:
    def test_fire_runs_condition_and_action(self, db):
        events = []
        db.create_rule(probe_rule(events))
        with db.transaction() as txn:
            db.fire_rule("probe", txn)
        assert events == ["probe"]

    def test_fire_respects_condition(self, db):
        events = []
        db.create_rule(probe_rule(events, condition=Condition.of(
            Query("Stock", Attr("price") > 5))))
        with db.transaction() as txn:
            db.fire_rule("probe", txn)
        assert events == []
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "X", "price": 10.0}, txn)
        events.clear()
        with db.transaction() as txn:
            db.fire_rule("probe", txn)
        assert events == ["probe"]

    def test_fire_works_when_disabled(self, db):
        events = []
        db.create_rule(probe_rule(events))
        db.disable_rule("probe")
        with db.transaction() as txn:
            db.fire_rule("probe", txn)
        assert events == ["probe"]

    def test_fire_works_when_disabled_deferred(self, db):
        """The deferred twin of the test above: the firing is queued on
        the transaction and still runs at its commit (§6.3)."""
        events = []
        db.create_rule(probe_rule(events, ec_coupling="deferred"))
        db.disable_rule("probe")
        with db.transaction() as txn:
            db.fire_rule("probe", txn)
            assert events == []
        assert events == ["probe"]
        [firing] = db.firing_log().for_rule("probe")
        assert (firing.deferred, firing.satisfied, firing.executed) == (
            True, True, True)

    def test_deferred_firing_dropped_when_disabled_before_commit(self, db):
        """Automatic firing stays off: a deferred firing whose rule is
        disabled before the commit that would run it never runs."""
        events = []
        db.create_rule(probe_rule(events, ec_coupling="deferred"))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
            db.rule_catalog.disable_rule("probe", txn)
        assert events == []
        [firing] = db.firing_log().for_rule("probe")
        assert (firing.deferred, firing.satisfied) == (True, None)

    def test_fire_with_args_binds_them(self, db):
        seen = []
        db.create_rule(Rule(
            name="param",
            event=on_update("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(ctx.bindings.get("who"))),
        ))
        with db.transaction() as txn:
            db.fire_rule("param", txn, args={"who": "tester"})
        assert seen == ["tester"]

    def test_fire_outside_transaction(self, db):
        events = []
        db.create_rule(probe_rule(events))
        db.fire_rule("probe")  # detached host transaction
        assert events == ["probe"]


class TestRuleLocking:
    def test_firing_takes_read_lock_blocking_on_writer(self, db):
        """A transaction holding a write lock on the rule object blocks
        firings (strict 2PL on rule objects, paper §2.2)."""
        from repro.errors import TransactionAborted
        events = []
        rule = db.create_rule(probe_rule(events))
        writer = db.begin()
        db.update(rule.oid, {"description": "locked"}, writer)  # X lock held
        with pytest.raises(TransactionAborted):
            with db.transaction() as txn:
                oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
                db.update(oid, {"price": 2.0}, txn)  # firing blocks on rule lock
        db.abort(writer)

    def test_firing_in_same_txn_as_writer_allowed(self, db):
        """Moss rule: the firing subtransaction may read a rule its ancestor
        has write-locked."""
        events = []
        rule = db.create_rule(probe_rule(events))
        with db.transaction() as txn:
            db.update(rule.oid, {"description": "mine"}, txn)
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
        assert events == ["probe"]

    @pytest.mark.parametrize("ec", ["immediate", "deferred", "separate"])
    def test_open_firing_transaction_blocks_rule_writers(self, db, ec):
        """The firing's read lock sits on the transaction the firing nests
        under — the triggering transaction, its top level at commit, the
        firing's own for separate E-C — so while that transaction is open
        another transaction's disable_rule waits, and is granted at its
        end."""
        in_action, finish = threading.Event(), threading.Event()

        def action(ctx):
            in_action.set()
            assert finish.wait(5.0)

        rule = db.create_rule(Rule(
            name="held", event=on_update("Stock"), condition=Condition.true(),
            action=Action.call(action), ec_coupling=ec))
        toucher = threading.Thread(target=touch, args=(db,), daemon=True)
        toucher.start()
        assert in_action.wait(5.0)
        firing = db.firing_log().for_rule("held")[0]
        host = (firing.condition_txn if ec == "separate"
                else firing.triggering_txn)
        assert db.locks.holders(LockResource.for_object(rule.oid)) == {
            host: LockMode.S}

        granted = threading.Event()
        writer = db.begin()

        def disable():
            db.disable_rule("held", writer)
            granted.set()

        disabler = threading.Thread(target=disable, daemon=True)
        disabler.start()
        assert not granted.wait(0.3)        # blocked behind the firing's host
        finish.set()
        toucher.join(5.0)
        db.drain()
        assert granted.wait(5.0)
        disabler.join(5.0)
        assert not toucher.is_alive() and not disabler.is_alive()
        db.commit(writer)
        assert db.locks.resource_count() == 0

    def test_failed_condition_leaves_the_host_usable_and_locked(self, db):
        """A condition that raises aborts its own subtransaction only; the
        triggering transaction goes on, and keeps the rule's read lock until
        it ends (more isolation than releasing it with the condition)."""
        def broken(bindings, results):
            raise ZeroDivisionError("guard")

        rule = db.create_rule(Rule(
            name="broken", event=on_update("Stock"),
            condition=Condition(guard=broken),
            action=Action.call(lambda ctx: None)))
        resource = LockResource.for_object(rule.oid)
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        with pytest.raises(Exception):
            db.update(oid, {"price": 2.0}, txn)
        firing = db.firing_log().for_rule("broken")[0]
        assert firing.error and firing.triggering_txn == txn.txn_id
        assert txn.is_active()
        assert db.locks.holders(resource) == {txn.txn_id: LockMode.S}
        db.disable_rule("broken", txn)      # its own S does not block its X
        db.update(oid, {"price": 3.0}, txn)
        db.commit(txn)
        assert db.locks.holders(resource) == {}
        with db.transaction() as reader:
            assert db.read(oid, reader)["price"] == 3.0
