"""Model-based test of the lock manager (ROADMAP 4b).

A hypothesis state machine drives :class:`LockManager` over two top-level
transactions, a child, a grandchild and a *sibling* of the child, and a
model that shares no code with ``repro.txn.locks`` predicts, for every
request, whether it is granted and which mode the requester then holds, and
after every step the whole holder table.

The model knows nothing of compatibility matrices: a mode is the set of
rights it carries, two modes clash when a right of one excludes a right of
the other, and upgrading unions the rights.
"""

import pytest
from hypothesis import assume, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import LockTimeout, TransactionStateError
from repro.objstore.objects import OID
from repro.txn.locks import (LockManager, LockMode, LockResource, compatible,
                             supremum)
from repro.txn.transaction import Transaction

# ------------------------------------------------------------------ model

RIGHTS = {"IS": {"is"}, "IX": {"is", "ix"}, "S": {"is", "s"},
          "SIX": {"is", "ix", "s"}, "X": {"is", "ix", "s", "x"}}
#: what one holder's right denies everybody else
EXCLUDES = {"is": {"x"}, "ix": {"s", "x"}, "s": {"ix", "x"},
            "x": {"is", "ix", "s", "x"}}
PARENT = {"t1": None, "t2": None, "c": "t1", "g": "c", "s": "t1"}
NAMES = sorted(PARENT)


def clash(a, b):
    return any(RIGHTS[b] & EXCLUDES[right] for right in RIGHTS[a])


def join(a, b):
    rights = RIGHTS[a] | RIGHTS[b]
    return next(mode for mode, has in RIGHTS.items() if has == rights)


def ancestors(name):
    while PARENT[name] is not None:
        name = PARENT[name]
        yield name


class Model:
    def __init__(self):
        self.held = {}          # (transaction, resource) -> mode
        self.finished = set()
        self.granted = 0

    def can_grant(self, name, resource, mode):
        return all(other == name or other in ancestors(name)
                   or not clash(mode, has)
                   for (other, res), has in self.held.items()
                   if res == resource)

    def request(self, name, resource, mode):
        if not self.can_grant(name, resource, mode):
            return False
        has = self.held.get((name, resource))
        self.held[(name, resource)] = mode if has is None else join(has, mode)
        self.granted += 1
        return True

    def suspended(self, name):
        """§3.1: a parent is suspended while its subtransactions run, which
        they do for as long as one of them holds a lock."""
        return any(name in ancestors(holder) for holder, _ in self.held)

    def release(self, name):
        self.held = {key: mode for key, mode in self.held.items()
                     if key[0] != name}

    def inherit(self, name):
        for (holder, resource), mode in list(self.held.items()):
            if holder == name:
                has = self.held.get((PARENT[name], resource))
                self.held[(PARENT[name], resource)] = (
                    mode if has is None else join(has, mode))
        self.release(name)


def test_model_agrees_with_the_mode_tables():
    """The rights model and the manager's two tables are the same lattice:
    the join is commutative and idempotent, IX v S = SIX, X is top."""
    for a in LockMode.ALL:
        assert supremum(a, a) == a
        assert supremum(a, LockMode.X) == LockMode.X
        for b in LockMode.ALL:
            assert supremum(a, b) == supremum(b, a) == join(a, b)
            assert compatible(a, b) == compatible(b, a) == (not clash(a, b))
    assert supremum(LockMode.IX, LockMode.S) == LockMode.SIX


# ---------------------------------------------------------- state machine

RESOURCES = [LockResource.for_class("A"), LockResource.for_object(OID("A", 7))]

names = st.sampled_from(NAMES)
nested = st.sampled_from([n for n in NAMES if PARENT[n] is not None])
resources = st.integers(0, len(RESOURCES) - 1)
modes = st.sampled_from(LockMode.ALL)


class LockMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.locks = LockManager(default_timeout=5.0)
        self.model = Model()
        self.txns = {}
        for name in ("t1", "t2", "c", "g", "s"):      # parents first
            parent = PARENT[name]
            self.txns[name] = Transaction(
                name, self.txns[parent] if parent else None)

    def _request(self, name, res, mode, ask):
        """One request through ``ask``: refused for a finished transaction,
        else granted exactly when the model grants it."""
        assume(not self.model.suspended(name))
        txn, resource = self.txns[name], RESOURCES[res]
        if name in self.model.finished:
            with pytest.raises(TransactionStateError):
                ask(txn, resource, mode)
            return
        expected = self.model.request(name, res, mode)
        assert ask(txn, resource, mode) == expected
        if expected:
            assert (self.locks.mode_held(txn, resource)
                    == self.model.held[(name, res)])

    @rule(name=names, res=resources, mode=modes)
    def try_acquire(self, name, res, mode):
        self._request(name, res, mode, self.locks.try_acquire)

    @rule(name=names, res=resources, mode=modes)
    def acquire_without_waiting(self, name, res, mode):
        def ask(txn, resource, mode):
            try:
                self.locks.acquire(txn, resource, mode, timeout=0)
            except LockTimeout:
                return False
            return True
        self._request(name, res, mode, ask)

    @rule(name=nested)
    def inherit_to_parent(self, name):
        self.locks.inherit_to_parent(self.txns[name])
        self.model.inherit(name)

    @rule(name=names)
    def release_all(self, name):
        self.locks.release_all(self.txns[name])
        self.model.release(name)

    @rule(name=names)
    def abort(self, name):
        """What the Transaction Manager does to the lock table on abort:
        the subtree ends, deepest first, and every member's locks go."""
        for member in reversed(NAMES):
            if member == name or name in ancestors(member):
                self.txns[member].state = "aborted"
                self.locks.release_all(self.txns[member])
                self.model.release(member)
                self.model.finished.add(member)

    @invariant()
    def holder_table_matches(self):
        for res, resource in enumerate(RESOURCES):
            expected = {name: mode for (name, r), mode
                        in self.model.held.items() if r == res}
            assert self.locks.holders(resource) == expected
            for name, txn in self.txns.items():
                assert txn.held_locks.get(resource) == expected.get(name)
        assert self.locks.resource_count() == len(
            {res for _, res in self.model.held})
        assert self.locks.stats["acquired"] == self.model.granted


LockMachine.TestCase.settings = settings(max_examples=150,
                                         stateful_step_count=40,
                                         deadline=None)
TestLockModel = LockMachine.TestCase
