"""Tests for cascading rule firings and the nested transaction trees they
build (paper §3.2: "cascading rule firings produce a tree of nested
transactions")."""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    RuleError,
    attributes,
    on_create,
)
from repro.rules import manager as rule_manager
from repro.rules.manager import RuleManagerConfig


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    for name in ("A", "B", "C", "D"):
        database.define_class(ClassDef(name, attributes(("v", "int"))))
    return database


def chain_rule(name, src, dst):
    return Rule(
        name=name,
        event=on_create(src),
        condition=Condition.true(),
        action=Action.call(lambda ctx: ctx.create(dst, {"v": 0})),
    )


class TestCascades:
    def test_chain_depth_three(self, db):
        db.create_rule(chain_rule("a2b", "A", "B"))
        db.create_rule(chain_rule("b2c", "B", "C"))
        db.create_rule(chain_rule("c2d", "C", "D"))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
            top = txn
        with db.transaction() as r:
            for name in ("B", "C", "D"):
                assert len(db.query(Query(name), r)) == 1
        # top -> cond/act(a2b) -> under act: cond/act(b2c) -> cond/act(c2d)
        assert top.tree_depth() == 4
        assert top.tree_size() == 7

    def test_cascade_effects_all_undone_on_abort(self, db):
        db.create_rule(chain_rule("a2b", "A", "B"))
        db.create_rule(chain_rule("b2c", "B", "C"))
        txn = db.begin()
        db.create("A", {"v": 0}, txn)
        db.abort(txn)
        with db.transaction() as r:
            for name in ("A", "B", "C"):
                assert len(db.query(Query(name), r)) == 0

    def test_infinite_cascade_bounded(self, db):
        """Mutually recursive immediate rules must hit the depth bound, not
        hang or blow the Python stack."""
        config = RuleManagerConfig(max_cascade_depth=10)
        database = HiPAC(lock_timeout=2.0, config=config)
        database.define_class(ClassDef("A", attributes(("v", "int"))))
        database.create_rule(Rule(
            name="loop",
            event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("A", {"v": 0})),
        ))
        from repro import TransactionAborted
        with pytest.raises((RuleError, TransactionAborted)):
            with database.transaction() as txn:
                database.create("A", {"v": 0}, txn)

    def test_deferred_loop_bounded(self, db, monkeypatch):
        """A deferred rule whose action re-queues it never quiesces: the
        commit gives up after MAX_DEFERRED_ROUNDS and aborts the transaction."""
        monkeypatch.setattr(rule_manager, "MAX_DEFERRED_ROUNDS", 3)
        db.create_rule(Rule(
            name="loop",
            event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("A", {"v": 0})),
            ec_coupling="deferred",
        ))
        txn = db.begin()
        db.create("A", {"v": 0}, txn)
        with pytest.raises(RuleError, match="did not quiesce after 3 rounds"):
            db.commit(txn)
        assert txn.state == "aborted"
        assert db.locks.resource_count() == 0
        with db.transaction() as r:
            assert len(db.query(Query("A"), r)) == 0

    def test_action_error_aborts_action_subtransaction_only_effects(self, db):
        """An action that raises propagates to the triggering operation; the
        action subtransaction's own effects are rolled back."""
        def boom(ctx):
            ctx.create("B", {"v": 1})
            raise ValueError("action failed")

        db.create_rule(Rule(
            name="bad",
            event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(boom),
        ))
        txn = db.begin()
        with pytest.raises(ValueError):
            db.create("A", {"v": 0}, txn)
        db.abort(txn)
        with db.transaction() as r:
            assert len(db.query(Query("B"), r)) == 0
            assert len(db.query(Query("A"), r)) == 0

    def test_deferred_cascade_processed_in_rounds(self, db):
        """A deferred action creating an object that triggers another
        deferred rule must drain before commit completes."""
        db.create_rule(Rule(
            name="a2b",
            event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 0})),
            ec_coupling="deferred",
        ))
        db.create_rule(Rule(
            name="b2c",
            event=on_create("B"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("C", {"v": 0})),
            ec_coupling="deferred",
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        with db.transaction() as r:
            assert len(db.query(Query("C"), r)) == 1

    def test_separate_cascade_drains(self, db):
        db.create_rule(Rule(
            name="a2b",
            event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 0})),
            ec_coupling="separate",
        ))
        db.create_rule(Rule(
            name="b2c",
            event=on_create("B"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("C", {"v": 0})),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert db.drain(timeout=10.0)
        with db.transaction() as r:
            assert len(db.query(Query("C"), r)) == 1
        assert db.rule_manager.background_errors == []


class TestMultiRuleEvents:
    def test_all_triggered_rules_fire(self, db):
        counts = []
        for i in range(5):
            db.create_rule(Rule(
                name="r%d" % i,
                event=on_create("A"),
                condition=Condition.true(),
                action=Action.call(lambda ctx, i=i: counts.append(i)),
            ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert sorted(counts) == [0, 1, 2, 3, 4]

    def test_no_conflict_resolution_all_fire_as_siblings(self, db):
        """The paper: 'there is no conflict resolution policy that chooses a
        single rule to fire' — every triggered rule gets its own condition
        subtransaction under the trigger."""
        for i in range(3):
            db.create_rule(Rule(
                name="r%d" % i,
                event=on_create("A"),
                condition=Condition.true(),
                action=Action.call(lambda ctx: None),
            ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
            top = txn
        firings = db.firing_log().all()
        assert len(firings) == 3
        assert all(f.triggering_txn == top.txn_id for f in firings)
        assert len({f.condition_txn for f in firings}) == 3

    def test_priority_orders_serial_firing(self, db):
        order = []
        for name, priority in (("low", 0), ("high", 5)):
            db.create_rule(Rule(
                name=name,
                event=on_create("A"),
                condition=Condition.true(),
                action=Action.call(lambda ctx, n=name: order.append(n)),
                priority=priority,
            ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert order == ["high", "low"]


class TestConcurrentConditions:
    def test_concurrent_sibling_condition_evaluation(self):
        config = RuleManagerConfig(concurrent_conditions=True)
        db = HiPAC(lock_timeout=5.0, config=config)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        fired = []
        import threading
        lock = threading.Lock()
        for i in range(8):
            db.create_rule(Rule(
                name="r%d" % i,
                event=on_create("A"),
                condition=Condition.true(),
                action=Action.call(
                    lambda ctx, i=i: (lock.acquire(), fired.append(i),
                                      lock.release())),
            ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
            top = txn
        assert sorted(fired) == list(range(8))
        # 8 condition + 8 action subtransactions under the trigger.
        assert top.tree_size() == 17
