"""Tests for the nested transaction model: structure, commit, abort, undo."""

import pytest

from repro.errors import TransactionStateError
from repro.objstore.store import ObjectStore
from repro.objstore.types import AttrType, AttributeDef, ClassDef
from repro.txn.locks import LockManager, LockMode, LockResource
from repro.txn.manager import TransactionManager
from repro.txn.transaction import ABORTED, ACTIVE, COMMITTED
from repro.txn.undo import CallbackUndo, DeltaUndo


@pytest.fixture
def tm():
    return TransactionManager(LockManager(default_timeout=1.0))


def seeded_store():
    store = ObjectStore()
    store.define_class(ClassDef("C", (AttributeDef("v", AttrType.INT),)))
    return store


class TestStructure:
    def test_top_level(self, tm):
        t = tm.create_transaction()
        assert t.is_top_level()
        assert t.depth == 0
        assert t.top_level() is t

    def test_nesting(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        g = tm.create_transaction(c)
        assert g.depth == 2
        assert g.top_level() is t
        assert g.is_descendant_of(t)
        assert not t.is_descendant_of(g)
        assert list(g.ancestors()) == [c, t]

    def test_children_tracked(self, tm):
        t = tm.create_transaction()
        a = tm.create_transaction(t)
        b = tm.create_transaction(t)
        assert t.children == [a, b]
        assert set(t.active_children()) == {a, b}

    def test_tree_metrics(self, tm):
        t = tm.create_transaction()
        a = tm.create_transaction(t)
        tm.create_transaction(a)
        tm.create_transaction(t)
        assert t.tree_size() == 4
        assert t.tree_depth() == 3

    def test_nesting_under_finished_rejected(self, tm):
        t = tm.create_transaction()
        tm.commit_transaction(t)
        with pytest.raises(TransactionStateError):
            tm.create_transaction(t)

    def test_ids_unique(self, tm):
        ids = {tm.create_transaction().txn_id for _ in range(10)}
        assert len(ids) == 10


class TestCommit:
    def test_commit_sets_state(self, tm):
        t = tm.create_transaction()
        tm.commit_transaction(t)
        assert t.state == COMMITTED
        assert t.is_finished()

    def test_commit_twice_rejected(self, tm):
        t = tm.create_transaction()
        tm.commit_transaction(t)
        with pytest.raises(TransactionStateError):
            tm.commit_transaction(t)

    def test_commit_with_active_children_rejected(self, tm):
        t = tm.create_transaction()
        tm.create_transaction(t)
        with pytest.raises(TransactionStateError):
            tm.commit_transaction(t)

    def test_commit_after_children_finish(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        tm.commit_transaction(c)
        tm.commit_transaction(t)
        assert t.state == COMMITTED

    def test_top_commit_releases_locks(self, tm):
        t = tm.create_transaction()
        res = LockResource.for_class("C")
        tm.locks.acquire(t, res, LockMode.X)
        tm.commit_transaction(t)
        assert tm.locks.resource_count() == 0

    def test_nested_commit_inherits_locks(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        res = LockResource.for_class("C")
        tm.locks.acquire(c, res, LockMode.X)
        tm.commit_transaction(c)
        assert tm.locks.mode_held(t, res) == LockMode.X

    def test_nested_commit_merges_undo_log(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        marker = []
        c.log_undo(CallbackUndo(lambda: marker.append("undone")))
        tm.commit_transaction(c)
        assert len(t.undo_log) == 1
        tm.abort_transaction(t)
        assert marker == ["undone"]

    def test_on_commit_hooks_run_at_top_level_only(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        ran = []
        c.on_commit.append(lambda txn: ran.append("child"))
        tm.commit_transaction(c)
        assert ran == []  # not yet permanent
        tm.commit_transaction(t)
        assert ran == ["child"]

    def test_on_commit_hooks_dropped_on_later_abort(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        ran = []
        c.on_commit.append(lambda txn: ran.append("child"))
        tm.commit_transaction(c)
        tm.abort_transaction(t)
        assert ran == []

    def test_stats(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        tm.commit_transaction(c)
        tm.commit_transaction(t)
        assert tm.stats["committed"] == 2
        assert tm.stats["top_level_committed"] == 1


class TestAbort:
    def test_abort_sets_state(self, tm):
        t = tm.create_transaction()
        tm.abort_transaction(t)
        assert t.state == ABORTED

    def test_abort_idempotent(self, tm):
        t = tm.create_transaction()
        tm.abort_transaction(t)
        tm.abort_transaction(t)  # no exception

    def test_abort_committed_rejected(self, tm):
        t = tm.create_transaction()
        tm.commit_transaction(t)
        with pytest.raises(TransactionStateError):
            tm.abort_transaction(t)

    def test_abort_replays_undo_in_reverse(self, tm):
        t = tm.create_transaction()
        order = []
        t.log_undo(CallbackUndo(lambda: order.append(1)))
        t.log_undo(CallbackUndo(lambda: order.append(2)))
        tm.abort_transaction(t)
        assert order == [2, 1]

    def test_abort_restores_store_state(self, tm):
        store = seeded_store()
        t = tm.create_transaction()
        delta1 = store.insert("C", {"v": 1})
        t.log_undo(DeltaUndo(store, delta1))
        delta2 = store.update(delta1.oid, {"v": 2})
        t.log_undo(DeltaUndo(store, delta2))
        tm.abort_transaction(t)
        assert store.extent("C") == []

    def test_abort_cascades_to_active_children(self, tm):
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        g = tm.create_transaction(c)
        tm.abort_transaction(t)
        assert c.state == ABORTED
        assert g.state == ABORTED

    def test_abort_discards_committed_child_effects(self, tm):
        store = seeded_store()
        t = tm.create_transaction()
        c = tm.create_transaction(t)
        delta = store.insert("C", {"v": 1})
        c.log_undo(DeltaUndo(store, delta))
        tm.commit_transaction(c)
        assert len(store.extent("C")) == 1
        tm.abort_transaction(t)
        assert store.extent("C") == []

    def test_child_abort_keeps_parent_effects(self, tm):
        store = seeded_store()
        t = tm.create_transaction()
        delta = store.insert("C", {"v": 1})
        t.log_undo(DeltaUndo(store, delta))
        c = tm.create_transaction(t)
        delta2 = store.insert("C", {"v": 2})
        c.log_undo(DeltaUndo(store, delta2))
        tm.abort_transaction(c)
        assert len(store.extent("C")) == 1
        assert t.state == ACTIVE
        tm.commit_transaction(t)
        assert len(store.extent("C")) == 1

    def test_abort_releases_locks(self, tm):
        t = tm.create_transaction()
        tm.locks.acquire(t, LockResource.for_class("C"), LockMode.X)
        tm.abort_transaction(t)
        assert tm.locks.resource_count() == 0

    def test_on_abort_hooks_run(self, tm):
        t = tm.create_transaction()
        ran = []
        t.on_abort.append(lambda txn: ran.append(txn.txn_id))
        tm.abort_transaction(t)
        assert ran == [t.txn_id]

    def test_deferred_sets_discarded_on_abort(self, tm):
        t = tm.create_transaction()
        t.add_deferred_condition(("rule", "signal"))
        t.add_deferred_action(("rule", "signal", "outcome", "firing"))
        tm.abort_transaction(t)
        assert not t.has_deferred_work()


class TestCommitEventSink:
    def test_commit_signals_before_finalizing(self, tm):
        states = []
        tm.event_sink = lambda kind, txn: states.append((kind, txn.state))
        t = tm.create_transaction()
        tm.commit_transaction(t)
        assert ("begin", ACTIVE) in states
        assert ("commit", "committing") in states

    def test_failing_commit_sink_aborts(self, tm):
        def sink(kind, txn):
            if kind == "commit":
                raise RuntimeError("deferred work failed")
        tm.event_sink = sink
        t = tm.create_transaction()
        with pytest.raises(RuntimeError):
            tm.commit_transaction(t)
        assert t.state == ABORTED

    def test_abort_signalled(self, tm):
        kinds = []
        tm.event_sink = lambda kind, txn: kinds.append(kind)
        t = tm.create_transaction()
        tm.abort_transaction(t)
        assert kinds == ["begin", "abort"]

    def test_live_transactions_tracking(self, tm):
        t = tm.create_transaction()
        assert t in tm.live_transactions()
        tm.commit_transaction(t)
        assert t not in tm.live_transactions()
