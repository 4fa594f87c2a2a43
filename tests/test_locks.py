"""Tests for the multigranularity, Moss-nested lock manager."""

import threading

import pytest

from repro.errors import DeadlockError, LockTimeout, TransactionStateError
from repro.txn.locks import (
    LockManager,
    LockMode,
    LockResource,
    compatible,
    supremum,
)
from repro.txn.transaction import Transaction


def txn(txn_id="t1", parent=None):
    return Transaction(txn_id, parent)


RES = LockResource.for_class("Stock")


class TestCompatibilityMatrix:
    def test_is_compatible_with_all_but_x(self):
        for mode in (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX):
            assert compatible(LockMode.IS, mode)
        assert not compatible(LockMode.IS, LockMode.X)

    def test_ix_conflicts(self):
        assert compatible(LockMode.IX, LockMode.IX)
        assert not compatible(LockMode.IX, LockMode.S)
        assert not compatible(LockMode.IX, LockMode.SIX)
        assert not compatible(LockMode.IX, LockMode.X)

    def test_s_conflicts(self):
        assert compatible(LockMode.S, LockMode.S)
        assert not compatible(LockMode.S, LockMode.IX)
        assert not compatible(LockMode.S, LockMode.X)

    def test_x_conflicts_with_everything(self):
        for mode in LockMode.ALL:
            assert not compatible(LockMode.X, mode)

    def test_matrix_symmetry(self):
        for a in LockMode.ALL:
            for b in LockMode.ALL:
                assert compatible(a, b) == compatible(b, a)


class TestSupremum:
    def test_identity(self):
        for mode in LockMode.ALL:
            assert supremum(mode, mode) == mode

    def test_ix_s_is_six(self):
        assert supremum(LockMode.IX, LockMode.S) == LockMode.SIX
        assert supremum(LockMode.S, LockMode.IX) == LockMode.SIX

    def test_x_dominates(self):
        for mode in LockMode.ALL:
            assert supremum(mode, LockMode.X) == LockMode.X

    def test_is_is_bottom(self):
        for mode in LockMode.ALL:
            assert supremum(LockMode.IS, mode) == mode

    def test_supremum_at_least_as_strong(self):
        # sup(a, b) must conflict with everything a or b conflicts with.
        for a in LockMode.ALL:
            for b in LockMode.ALL:
                sup = supremum(a, b)
                for other in LockMode.ALL:
                    if not compatible(a, other) or not compatible(b, other):
                        assert not compatible(sup, other)


class TestBasicAcquire:
    def test_acquire_and_hold(self):
        locks = LockManager()
        t = txn()
        locks.acquire(t, RES, LockMode.S)
        assert locks.mode_held(t, RES) == LockMode.S

    def test_shared_coexist(self):
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.S)
        locks.acquire(b, RES, LockMode.S)
        assert set(locks.holders(RES)) == {"a", "b"}

    def test_upgrade_s_to_x(self):
        locks = LockManager()
        t = txn()
        locks.acquire(t, RES, LockMode.S)
        locks.acquire(t, RES, LockMode.X)
        assert locks.mode_held(t, RES) == LockMode.X

    def test_upgrade_ix_s_gives_six(self):
        locks = LockManager()
        t = txn()
        locks.acquire(t, RES, LockMode.IX)
        locks.acquire(t, RES, LockMode.S)
        assert locks.mode_held(t, RES) == LockMode.SIX

    def test_try_acquire_conflict_returns_false(self):
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        assert not locks.try_acquire(b, RES, LockMode.S)
        assert locks.try_acquire(b, LockResource.for_class("Other"), LockMode.S)

    def test_finished_transaction_cannot_lock(self):
        locks = LockManager()
        t = txn()
        t.state = "committed"
        with pytest.raises(TransactionStateError):
            locks.acquire(t, RES, LockMode.S)

    def test_release_all_clears(self):
        locks = LockManager()
        t = txn()
        locks.acquire(t, RES, LockMode.X)
        locks.release_all(t)
        assert locks.mode_held(t, RES) is None
        assert locks.resource_count() == 0


class TestMossRules:
    def test_child_acquires_parent_held_lock(self):
        locks = LockManager()
        parent = txn("p")
        child = txn("c", parent)
        locks.acquire(parent, RES, LockMode.X)
        # Parent suspended; child may acquire despite the conflict.
        locks.acquire(child, RES, LockMode.X)
        assert locks.mode_held(child, RES) == LockMode.X

    def test_grandchild_acquires_ancestor_lock(self):
        locks = LockManager()
        p = txn("p")
        c = txn("c", p)
        g = txn("g", c)
        locks.acquire(p, RES, LockMode.X)
        locks.acquire(g, RES, LockMode.S)
        assert locks.mode_held(g, RES) == LockMode.S

    def test_sibling_conflict_blocks(self):
        locks = LockManager(default_timeout=0.1)
        p = txn("p")
        a = txn("a", p)
        b = txn("b", p)
        locks.acquire(a, RES, LockMode.X)
        with pytest.raises(LockTimeout):
            locks.acquire(b, RES, LockMode.X, timeout=0.1)

    def test_lock_under_an_ancestor_is_still_registered_for_siblings(self):
        # The parent's X covers anything child A asks for, yet A's read must
        # enter the table: it is the only thing that keeps sibling B out
        # while A runs.  Skipping an ancestor-covered request is unsound.
        locks = LockManager()
        p = txn("p")
        a = txn("a", p)
        b = txn("b", p)
        outsider = txn("o")
        locks.acquire(p, RES, LockMode.X)
        locks.acquire(a, RES, LockMode.S)
        assert locks.holders(RES) == {"p": LockMode.X, "a": LockMode.S}
        assert not locks.try_acquire(b, RES, LockMode.X)
        with pytest.raises(LockTimeout):
            locks.acquire(b, RES, LockMode.X, timeout=0)
        locks.inherit_to_parent(a)          # A commits
        # Now only the parent holds it: B passes as its descendant (and is
        # registered in turn), a stranger still waits for the parent.
        assert locks.try_acquire(b, RES, LockMode.X)
        assert locks.holders(RES) == {"p": LockMode.X, "b": LockMode.X}
        assert not locks.try_acquire(outsider, RES, LockMode.IS)

    def test_own_covered_request_is_a_counted_regrant(self):
        locks = LockManager()
        t = txn()
        locks.acquire(t, RES, LockMode.SIX)
        for mode in (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX):
            locks.acquire(t, RES, mode)
            assert locks.mode_held(t, RES) == LockMode.SIX
        assert locks.stats["acquired"] == 5
        locks.acquire(t, RES, LockMode.X)   # not covered: a real upgrade
        assert t.held_locks == {RES: LockMode.X}

    def test_unrelated_conflict_blocks(self):
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        with pytest.raises(LockTimeout):
            locks.acquire(b, RES, LockMode.S, timeout=0.1)

    def test_inherit_to_parent(self):
        locks = LockManager()
        p = txn("p")
        c = txn("c", p)
        locks.acquire(c, RES, LockMode.X)
        locks.inherit_to_parent(c)
        assert locks.mode_held(p, RES) == LockMode.X
        assert locks.mode_held(c, RES) is None
        assert c.held_locks == {}

    def test_inherit_merges_modes(self):
        locks = LockManager()
        p = txn("p")
        c = txn("c", p)
        locks.acquire(p, RES, LockMode.IX)
        locks.acquire(c, RES, LockMode.S)
        locks.inherit_to_parent(c)
        assert locks.mode_held(p, RES) == LockMode.SIX

    def test_inherit_without_parent_rejected(self):
        locks = LockManager()
        t = txn()
        with pytest.raises(TransactionStateError):
            locks.inherit_to_parent(t)

    def test_inherited_lock_blocks_others(self):
        locks = LockManager()
        p = txn("p")
        c = txn("c", p)
        other = txn("o")
        locks.acquire(c, RES, LockMode.X)
        locks.inherit_to_parent(c)
        with pytest.raises(LockTimeout):
            locks.acquire(other, RES, LockMode.S, timeout=0.1)


class TestBlockingAndRelease:
    def test_waiter_proceeds_after_release(self):
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        acquired = threading.Event()

        def waiter():
            locks.acquire(b, RES, LockMode.S, timeout=5.0)
            acquired.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not acquired.wait(0.1)
        locks.release_all(a)
        assert acquired.wait(2.0)
        thread.join(timeout=2.0)

    def test_aborted_flag_wakes_waiter(self):
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        failed = []

        def waiter():
            try:
                locks.acquire(b, RES, LockMode.S, timeout=5.0)
            except DeadlockError as exc:
                failed.append(exc)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        import time
        time.sleep(0.1)
        b.aborted_flag = True
        locks.wake_aborted(b)
        thread.join(timeout=2.0)
        assert failed


class TestDeadlockDetection:
    def test_two_party_cycle_detected(self):
        locks = LockManager()
        res2 = LockResource.for_class("Bond")
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        locks.acquire(b, res2, LockMode.X)
        blocked = threading.Event()

        def a_waits():
            blocked.set()
            try:
                locks.acquire(a, res2, LockMode.X, timeout=5.0)
            except DeadlockError:
                locks.release_all(a)

        thread = threading.Thread(target=a_waits, daemon=True)
        thread.start()
        blocked.wait(1.0)
        import time
        time.sleep(0.1)
        # b closing the cycle must raise immediately, not time out.
        start = time.monotonic()
        with pytest.raises(DeadlockError):
            locks.acquire(b, RES, LockMode.X, timeout=5.0)
        assert time.monotonic() - start < 1.0
        locks.release_all(b)
        thread.join(timeout=2.0)
        assert locks.stats["deadlocks"] >= 1

    def test_finished_transaction_cannot_try_acquire(self):
        # Regression: try_acquire used to skip the is_finished() guard that
        # acquire has, letting a committed/aborted transaction grab locks
        # after its release_all had already run — leaking them forever.
        locks = LockManager()
        for state in ("committed", "aborted"):
            t = txn("t-%s" % state)
            t.state = state
            with pytest.raises(TransactionStateError):
                locks.try_acquire(t, RES, LockMode.S)
        assert locks.resource_count() == 0

    def test_post_deadline_wakeup_rechecks_conflicts(self):
        # Regression: acquire classified a post-deadline wake-up as a
        # timeout even when the conflicting holder had released in the
        # meantime.  Simulate the race: the wait "times out" (returns
        # False) but the holder releases during that same wait.
        locks = LockManager()
        a, b = txn("a"), txn("b")
        locks.acquire(a, RES, LockMode.X)
        original_wait = locks._cond.wait

        def wait_and_lose_race(timeout=None):
            # Holder releases while b is blocked (a wait gives up the
            # table's mutex for its duration), then the wait returns False
            # as if the deadline had already passed.
            locks._mutex.release()
            try:
                locks.release_all(a)
            finally:
                locks._mutex.acquire()
            return False

        locks._cond.wait = wait_and_lose_race
        try:
            locks.acquire(b, RES, LockMode.S, timeout=5.0)
        finally:
            locks._cond.wait = original_wait
        assert locks.mode_held(b, RES) == LockMode.S
        assert locks.stats["timeouts"] == 0

    def test_wait_on_descendant_of_waiting_ancestor(self):
        # X waits on a lock held by parent P while P's child C waits on X:
        # the sphere rule must detect the cycle when C tries to wait.
        locks = LockManager()
        res2 = LockResource.for_class("Bond")
        p = txn("p")
        c = txn("c", p)
        x = txn("x")
        locks.acquire(p, RES, LockMode.X)     # P holds RES
        locks.acquire(x, res2, LockMode.X)    # X holds res2
        blocked = threading.Event()

        def x_waits():
            blocked.set()
            try:
                locks.acquire(x, RES, LockMode.S, timeout=5.0)
            except DeadlockError:
                pass

        thread = threading.Thread(target=x_waits, daemon=True)
        thread.start()
        blocked.wait(1.0)
        import time
        time.sleep(0.1)
        with pytest.raises(DeadlockError):
            locks.acquire(c, res2, LockMode.S, timeout=5.0)
        locks.release_all(p)
        thread.join(timeout=2.0)
