"""Lock manager: strict two-phase, multigranularity, Moss-nested.

The HiPAC execution model requires that concurrently executing transactions
(application transactions, sibling rule-firing subtransactions, and
separate-coupling top-level firings) be serializable, "and this is enforced
by the HiPAC transaction manager" (paper §3.2).  This lock manager provides
that guarantee:

* **Strict 2PL** — locks are held until the transaction (sphere) ends.
* **Multigranularity** — intention modes (IS/IX) on class extents plus S/X
  on individual objects, so rule firings reading one class do not serialize
  against writers of unrelated objects.
* **Moss rules for nesting** — a transaction may acquire a lock despite a
  conflicting holder when every conflicting holder is one of its ancestors
  (ancestors are suspended while descendants run, per §3.1); when a
  subtransaction commits, its locks are *inherited* by its parent; when it
  aborts they are released.

Deadlock handling: before blocking, the requester checks whether waiting
would close a cycle in the waits-for graph (treating a wait on a transaction
as a wait on its whole sphere of active descendants) and aborts itself with
:class:`~repro.errors.DeadlockError` if so.  Waits are additionally bounded
by a timeout that raises :class:`~repro.errors.LockTimeout`.
"""

from __future__ import annotations

import threading
import time as _time
from typing import (TYPE_CHECKING, Dict, Iterable, NamedTuple, Optional, Set,
                    Tuple)

from repro.errors import DeadlockError, LockTimeout, TransactionStateError
from repro.obs.metrics import MetricsRegistry
from repro.txn.transaction import ABORTED, COMMITTED
from repro.util.tally import Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction


class LockMode:
    """The five multigranularity lock modes."""

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    ALL = (IS, IX, S, SIX, X)


# Standard multigranularity compatibility matrix: requested mode (row)
# against held mode (column, in LockMode.ALL order).
_COMPATIBLE: Dict[Tuple[str, str], bool] = {
    (requested, held): ok
    for requested, row in {
        LockMode.IS: (True, True, True, True, False),
        LockMode.IX: (True, True, False, False, False),
        LockMode.S: (True, False, True, False, False),
        LockMode.SIX: (True, False, False, False, False),
        LockMode.X: (False, False, False, False, False),
    }.items()
    for held, ok in zip(LockMode.ALL, row)
}

# Least upper bound of two modes in the lattice IS < {IX, S} < SIX < X (the
# mode a holder ends up with after an upgrade or after inheriting a child's
# lock on the same resource); columns in LockMode.ALL order.
_SUPREMUM: Dict[Tuple[str, str], str] = {
    (a, b): join
    for a, row in {
        LockMode.IS: ("IS", "IX", "S", "SIX", "X"),
        LockMode.IX: ("IX", "IX", "SIX", "SIX", "X"),
        LockMode.S: ("S", "SIX", "S", "SIX", "X"),
        LockMode.SIX: ("SIX", "SIX", "SIX", "SIX", "X"),
        LockMode.X: ("X", "X", "X", "X", "X"),
    }.items()
    for b, join in zip(LockMode.ALL, row)
}

# (held, requested) pairs where the holding already covers the request.
_COVERS = frozenset(pair for pair, join in _SUPREMUM.items() if join == pair[0])

# A finished transaction's release_all already ran: a lock would leak.
_FINISHED = (COMMITTED, ABORTED)


def compatible(requested: str, held: str) -> bool:
    """Return True if ``requested`` can coexist with ``held``."""
    return _COMPATIBLE[(requested, held)]


def supremum(a: str, b: str) -> str:
    """Return the least upper bound of two lock modes."""
    return _SUPREMUM[(a, b)]


class LockResource(NamedTuple):
    """A lockable resource: a class extent or an individual object.

    ``kind`` is ``"class"`` or ``"object"``; ``name`` is the class name;
    ``number`` is the OID number for object resources (0 for class
    resources).  A tuple, hashed and compared on every lock request; a
    class's is interned (the schema bounds class names).
    """

    kind: str
    name: str
    number: int = 0

    @staticmethod
    def for_class(class_name: str) -> "LockResource":
        """The extent-level resource of ``class_name`` (interned)."""
        return _CLASS_RESOURCES.get(class_name) or _CLASS_RESOURCES.setdefault(
            class_name, LockResource("class", class_name))

    @staticmethod
    def for_object(oid) -> "LockResource":
        """The object-level resource of an OID."""
        return LockResource("object", oid.class_name, oid.number)

    def __str__(self) -> str:
        if self.kind == "class":
            return "class:%s" % self.name
        return "object:%s#%d" % (self.name, self.number)


_CLASS_RESOURCES: Dict[str, LockResource] = {}


class LockManager:
    """The system-wide lock table: resource -> holding transaction -> mode.

    The table is protected by one plain mutex.  A request its requester's
    own holding already covers is answered from ``txn.held_locks`` without
    it; an uncontended request is granted under one entry of it; only a
    request that must block reads the clock, records who it waits for and
    sleeps on the condition variable, and releases notify only when such a
    waiter exists.
    """

    def __init__(self, default_timeout: float = 10.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._table: Dict[LockResource, Dict["Transaction", str]] = {}
        #: blocked requests, by waiting thread: (requester, transactions it
        #: waits on).  By thread, not by transaction: concurrent condition
        #: evaluations take their rule locks for the one host transaction.
        self._waits_for: Dict[int, Tuple["Transaction",
                                         Tuple["Transaction", ...]]] = {}
        self.default_timeout = default_timeout
        #: statistics for benchmarks; ``acquired`` counts every request
        #: granted, re-grants of a lock already held included
        self.stats = Tally("acquired", "waited", "deadlocks", "timeouts")
        self._acquired, self._waited, self._deadlocks, self._timeouts = map(
            self.stats.counter, self.stats)
        self._metrics = metrics or MetricsRegistry(enabled=False)
        #: blocked-time histogram: observed only when a request actually
        #: waited (grant, timeout, or deadlock); a lock-wait objective of
        #: the SLO monitor reads its windowed p95
        self._wait_seconds = self._metrics.histogram("lock_wait_seconds")

    # ----------------------------------------------------------- acquire

    def acquire(self, txn: "Transaction", resource: LockResource, mode: str,
                timeout: Optional[float] = None) -> None:
        """Acquire ``mode`` on ``resource`` for ``txn``, blocking if needed.

        Follows the Moss rules: a conflicting holder that is ``txn`` itself
        (upgrade) or an ancestor of ``txn`` does not block.  Raises
        :class:`DeadlockError` if waiting would close a waits-for cycle, and
        :class:`LockTimeout` if the wait exceeds ``timeout``.
        """
        if txn.state in _FINISHED:
            raise TransactionStateError("transaction %s is %s; cannot lock"
                                        % (txn.txn_id, txn.state))
        held = txn.held_locks
        if (held.get(resource), mode) in _COVERS:
            # Only the requester's *own* holding short-cuts.  A lock an
            # ancestor holds must still be registered for the child: sibling
            # subtransactions conflict through exactly those entries.
            self._acquired()
            return
        table = self._table
        with self._mutex:
            holders = table.get(resource)
            if holders is None:
                # Uncontended: the resource's first holder, granted inline.
                table[resource] = {txn: mode}
                held[resource] = mode
                self._acquired()
                return
            blockers = self._conflicting_holders(txn, holders, mode)
            if blockers:
                holders = self._wait(txn, resource, mode, blockers, timeout)
            # The holding is re-read from the table by the grant: with
            # concurrent conditions, siblings lock for one host transaction
            # from several threads, so it may have moved during the wait.
            self._grant(txn, resource, holders, mode)

    def try_acquire(self, txn: "Transaction", resource: LockResource, mode: str) -> bool:
        """Non-blocking acquire; returns False instead of waiting."""
        if txn.state in _FINISHED:
            raise TransactionStateError("transaction %s is %s; cannot lock"
                                        % (txn.txn_id, txn.state))
        with self._mutex:
            holders = self._table.get(resource)
            if holders and self._conflicting_holders(txn, holders, mode):
                return False
            self._grant(txn, resource, holders, mode)
            return True

    def _grant(self, txn: "Transaction", resource: LockResource,
               holders: Optional[Dict["Transaction", str]], mode: str) -> None:
        """Enter the granted request in the table (mutex held)."""
        if holders is None:
            holders = self._table[resource] = {}
        current = holders.get(txn)
        if current is not None:
            mode = _SUPREMUM[(current, mode)]
        holders[txn] = mode
        txn.held_locks[resource] = mode
        self._acquired()

    @staticmethod
    def _conflicting_holders(txn: "Transaction",
                             holders: Dict["Transaction", str],
                             mode: str) -> Tuple["Transaction", ...]:
        """The holders ``txn``'s request must wait for — none, uncontended,
        and then nothing is allocated.  Moss: a conflicting lock held by an
        ancestor does not block."""
        blockers: Tuple["Transaction", ...] = ()
        for holder, held_mode in holders.items():
            if not (holder is txn or _COMPATIBLE[(mode, held_mode)]
                    or txn.is_descendant_of(holder)):
                blockers += (holder,)
        return blockers

    def _wait(self, txn: "Transaction", resource: LockResource, mode: str,
              blockers: Tuple["Transaction", ...], timeout: Optional[float]
              ) -> Optional[Dict["Transaction", str]]:
        """Block until no holder of ``resource`` conflicts (mutex held);
        returns the resource's holders as the table then has them."""
        started = _time.monotonic()
        deadline = started + (self.default_timeout if timeout is None
                              else timeout)
        me = threading.get_ident()
        slept = False
        try:
            while True:
                if txn.aborted_flag:
                    raise DeadlockError(
                        "transaction %s aborted while waiting for %s"
                        % (txn.txn_id, resource)
                    )
                # Would waiting close a cycle?
                self._waits_for[me] = (txn, blockers)
                if self._closes_cycle(txn, blockers):
                    self._deadlocks()
                    raise DeadlockError(
                        "deadlock: %s waiting for %s held by %s"
                        % (txn.txn_id, resource,
                           sorted(b.txn_id for b in blockers))
                    )
                slept = True
                self._waited()
                remaining = deadline - _time.monotonic()
                signalled = remaining > 0 and self._cond.wait(timeout=remaining)
                # The last holder's release_all may have dropped the table
                # entry while we slept: re-resolve, so the grant lands in
                # the live table.  And when the deadline passed, the
                # conflicting holder may still have released while we were
                # being scheduled: the re-check avoids a spurious timeout
                # on a now-free lock.
                holders = self._table.get(resource)
                blockers = (self._conflicting_holders(txn, holders, mode)
                            if holders else ())
                if not blockers:
                    return holders
                if not signalled:
                    self._timeouts()
                    raise LockTimeout(
                        "transaction %s timed out waiting for %s on %s"
                        % (txn.txn_id, mode, resource)
                    )
        finally:
            self._waits_for.pop(me, None)
            if slept:
                # Grant, timeout, or deadlock: record the blocked time.
                self._wait_seconds.observe(_time.monotonic() - started)

    def _closes_cycle(self, requester: "Transaction",
                      blockers: Iterable["Transaction"]) -> bool:
        """Return True if ``requester`` waiting on ``blockers`` deadlocks.

        A wait on transaction T is effectively a wait on T's entire sphere:
        T cannot proceed (and hence cannot release) until its active
        descendants complete.  So the requester deadlocks if, following
        waits-for edges, it can reach itself *or any of its ancestors*.
        """
        targets = set(requester.ancestors(include_self=True))
        seen: Set["Transaction"] = set()
        stack = list(blockers)
        while stack:
            node = stack.pop()
            if node in targets:
                return True
            if node in seen:
                continue
            seen.add(node)
            # The blocker's sphere includes its ancestors: if an ancestor of
            # the blocker is waiting, the blocker's completion is still
            # gated by whatever that ancestor eventually does; only the
            # blocker's own waits (and its active descendants' waits) keep
            # the resource pinned.  We follow waits of the node and of all
            # transactions in its sphere that are themselves blocked.
            for waiter, waitees in self._waits_for.values():
                if waiter.is_descendant_of(node):
                    stack.extend(waitees)
        return False

    # ----------------------------------------------------------- release

    def release_all(self, txn: "Transaction") -> None:
        """Release every lock held by ``txn`` (top-level commit, or abort)."""
        held = txn.held_locks
        if not held:
            return
        with self._mutex:
            table = self._table
            for resource in held:
                # One probe a resource: taken out, and put back only while
                # another transaction still holds it.
                holders = table.pop(resource, None)
                if holders is not None:
                    holders.pop(txn, None)
                    if holders:
                        table[resource] = holders
            held.clear()
            if self._waits_for:
                self._cond.notify_all()

    def inherit_to_parent(self, child: "Transaction") -> None:
        """Transfer all of ``child``'s locks to its parent (subtxn commit)."""
        parent = child.parent
        if parent is None:
            raise TransactionStateError(
                "transaction %s has no parent to inherit locks" % child.txn_id
            )
        with self._mutex:
            parent_held = parent.held_locks
            for resource, mode in child.held_locks.items():
                holders = self._table.get(resource)
                if holders is None:
                    continue
                holders.pop(child, None)
                existing = holders.get(parent)
                if existing is not None:
                    mode = _SUPREMUM[(existing, mode)]
                holders[parent] = mode
                parent_held[resource] = mode
            child.held_locks.clear()
            # A waiter below the parent stops conflicting with these locks.
            if self._waits_for:
                self._cond.notify_all()

    def wake_aborted(self, txn: "Transaction") -> None:
        """Wake a transaction that was flagged aborted while it may be
        waiting.  Under the mutex: a requester either has not yet checked
        the flag or is already registered as a waiter."""
        with self._mutex:
            if self._waits_for:
                self._cond.notify_all()

    # ------------------------------------------------------------- introspection

    def holders(self, resource: LockResource) -> Dict[str, str]:
        """Return ``txn_id -> mode`` for the current holders of ``resource``."""
        with self._mutex:
            return {holder.txn_id: mode for holder, mode
                    in self._table.get(resource, {}).items()}

    def mode_held(self, txn: "Transaction", resource: LockResource) -> Optional[str]:
        """Return the mode ``txn`` holds on ``resource`` (None if none)."""
        with self._mutex:
            return self._table.get(resource, {}).get(txn)

    def resource_count(self) -> int:
        """Number of resources with at least one holder (for leak tests)."""
        with self._mutex:
            return len(self._table)
