"""The Transaction Manager's bookkeeping against shadow state.

A hypothesis state machine grows and ends nested transaction trees on one
:class:`TransactionManager`: it creates top-level transactions and
children, takes IS/IX/S/X locks on a few resources, commits, aborts, and
fails commits two ways — the WAL refuses the top-level commit record, or a
deferred action raises inside the commit signal (§6.3).  After every step:

* every transaction's ``live_children`` equals ``len(active_children())``,
  the list the count stands in for;
* the lock table equals a shadow table rebuilt from every live
  transaction's ``held_locks``;
* an interned class resource is one object, ``==`` and hash-equal to a
  freshly built :class:`LockResource`;
* once no transaction is live, the lock table is empty.
"""

import sys
import threading

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.errors import TransactionStateError
from repro.objstore.objects import OID
from repro.txn import (ABORTED, ACTIVE, COMMITTED, LockManager, LockMode,
                       LockResource, TransactionManager)

RESOURCES = (LockResource.for_class("A"), LockResource.for_class("B"),
             LockResource.for_object(OID("A", 1)),
             LockResource.for_object(OID("A", 2)))
MODES = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.X)
#: marks a transaction whose deferred action raises at its commit
FAILING = "failing deferred action"


class Refused(Exception):
    """What the stub log and the failing deferred action raise."""


class StubWal:
    """Accepts commit records until armed, then refuses the next one."""

    def __init__(self):
        self.armed = False

    def log_commit(self, txn):
        if self.armed:
            self.armed = False
            raise Refused("no space left on device")


class Bookkeeping(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.locks = LockManager(default_timeout=0.01)
        self.tm = TransactionManager(self.locks)
        self.tm.wal = StubWal()
        self.tm.event_sink = self.sink
        self.created = []

    def sink(self, kind, txn):
        """The Rule Manager's side of the commit signal: run the deferred
        set, which here holds at most the one action that raises."""
        if kind == "commit" and FAILING in txn.deferred_actions:
            raise Refused(FAILING)

    def live(self):
        return self.tm.live_transactions()

    def active(self):
        return sorted((txn for txn in self.live() if txn.state == ACTIVE),
                      key=lambda txn: int(txn.txn_id[1:]))

    def leaves(self):
        return [txn for txn in self.active() if not txn.live_children]

    # ------------------------------------------------------------- steps

    @precondition(lambda self: len(self.live()) < 10)
    @rule(nested=st.booleans(), pick=st.integers(0, 20))
    def create(self, nested, pick):
        active = self.active()
        parent = active[pick % len(active)] if nested and active else None
        self.created.append(self.tm.create_transaction(parent))

    @precondition(lambda self: self.active())
    @rule(pick=st.integers(0, 20), resource=st.sampled_from(RESOURCES),
          mode=st.sampled_from(MODES))
    def lock(self, pick, resource, mode):
        active = self.active()
        self.locks.try_acquire(active[pick % len(active)], resource, mode)

    @precondition(lambda self: self.active())
    @rule(pick=st.integers(0, 20))
    def commit(self, pick):
        active = self.active()
        txn = active[pick % len(active)]
        if txn.live_children:
            with pytest.raises(TransactionStateError,
                               match="active subtransactions"):
                self.tm.commit_transaction(txn)
            assert txn.state == ACTIVE
        else:
            self.tm.commit_transaction(txn)
            assert txn.state == COMMITTED

    @precondition(lambda self: self.active())
    @rule(pick=st.integers(0, 20))
    def abort(self, pick):
        active = self.active()
        txn = active[pick % len(active)]
        self.tm.abort_transaction(txn)
        assert txn.state == ABORTED
        assert all(child.state in (COMMITTED, ABORTED)
                   for child in txn.children)

    @precondition(lambda self: self.leaves())
    @rule(pick=st.integers(0, 20), refused_by_log=st.booleans())
    def failed_commit(self, pick, refused_by_log):
        leaves = self.leaves()
        txn = leaves[pick % len(leaves)]
        if refused_by_log and txn.parent is None:
            self.tm.wal.armed = True
        else:
            txn.add_deferred_action(FAILING)
        with pytest.raises(Refused):
            self.tm.commit_transaction(txn)
        assert txn.state == ABORTED
        assert not txn.held_locks

    # --------------------------------------------------------- invariants

    @invariant()
    def live_children_counts_the_active_children(self):
        for txn in self.created:
            assert txn.live_children == len(txn.active_children()), txn

    @invariant()
    def lock_table_is_the_union_of_held_locks(self):
        live = self.live()
        shadow = {}
        for txn in live:
            for resource, mode in txn.held_locks.items():
                shadow.setdefault(resource, {})[txn.txn_id] = mode
        for resource in RESOURCES:
            assert self.locks.holders(resource) == shadow.get(resource, {})
        assert self.locks.resource_count() == len(shadow)
        if not live:
            assert self.locks.resource_count() == 0

    @invariant()
    def class_resources_are_interned(self):
        for name in ("A", "B"):
            interned = LockResource.for_class(name)
            fresh = LockResource("class", name)
            assert interned is LockResource.for_class(name)
            assert interned == fresh and hash(interned) == hash(fresh)

    def teardown(self):
        for txn in self.live():
            if txn.parent is None and txn.state == ACTIVE:
                self.tm.abort_transaction(txn)
        assert self.live() == []
        assert self.locks.resource_count() == 0
        for txn in self.created:
            assert txn.live_children == 0


Bookkeeping.TestCase.settings = settings(max_examples=60,
                                         stateful_step_count=30,
                                         deadline=None)
TestBookkeeping = Bookkeeping.TestCase


def test_transaction_ids_count_t1_t2():
    tm = TransactionManager()
    top = tm.create_transaction()
    child = tm.create_transaction(top)
    assert [top.txn_id, child.txn_id] == ["t1", "t2"]
    assert tm.create_transaction().txn_id == "t3"


def test_siblings_on_many_threads_keep_the_count():
    """Eight threads start and end children of one parent at once,
    switching as often as the interpreter allows; the count stays the
    number of active children and the parent commits when they are done."""
    tm = TransactionManager()
    parent = tm.create_transaction()
    errors = []
    start = threading.Barrier(8)

    def siblings(worker):
        try:
            start.wait()
            for round_ in range(150):
                child = tm.create_transaction(parent)
                tm.create_transaction(child)    # a grandchild, ended with it
                if (worker + round_) % 3:
                    tm.abort_transaction(child)
                else:
                    tm.abort_transaction(child.children[0])
                    tm.commit_transaction(child)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=siblings, args=(n,))
                   for n in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(parent.children) == 8 * 150
    assert parent.live_children == 0 == len(parent.active_children())
    tm.commit_transaction(parent)
