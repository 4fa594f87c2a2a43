"""The passive-DBMS baseline (paper §1, §4).

"Conventional database management systems are passive, in the sense that
they only manipulate data in response to explicit requests from
applications."  :class:`PassiveDBMS` is that conventional system: the same
object store, lock manager, and nested transactions as HiPAC, but **no**
event detection, no rules, no condition evaluator.  An application that
wants SAA-style monitoring on top of it must *poll* —
:class:`PollingClient` implements that pattern and is the baseline the
active-vs-passive experiment (Q4) compares against.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.objstore.predicates import Bindings
from repro.objstore.query import Query, QueryResult
from repro.objstore.store import ObjectStore
from repro.objstore.types import ClassDef
from repro.objstore.operations import DefineClass
from repro.txn.locks import LockManager
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


class PassiveDBMS:
    """A conventional (rule-less) DBMS sharing HiPAC's substrates.

    The Object Manager's event detector stays unprogrammed and unwired, and
    the Transaction Manager gets no event sink, so operations never signal
    anything — the fair baseline: identical storage and transaction costs,
    zero rule machinery.
    """

    def __init__(self, *, lock_timeout: float = 10.0,
                 use_indexes: bool = True) -> None:
        self.store = ObjectStore()
        self.locks = LockManager(default_timeout=lock_timeout)
        self.transaction_manager = TransactionManager(self.locks)
        self.object_manager = ObjectManager(self.store, self.transaction_manager)
        self.object_manager.executor.use_indexes = use_indexes

    # Data API mirroring the HiPAC facade.

    def define_class(self, class_def: ClassDef,
                     txn: Optional[Transaction] = None) -> ClassDef:
        """Define an object class."""
        if txn is not None:
            self.object_manager.execute_operation(DefineClass(class_def), txn)
            return class_def
        with self.transaction() as auto:
            self.object_manager.execute_operation(DefineClass(class_def), auto)
        return class_def

    def create(self, class_name: str, attrs: Optional[Dict[str, Any]] = None,
               txn: Optional[Transaction] = None) -> OID:
        """Create an object."""
        return self.object_manager.create(class_name, attrs, txn)

    def update(self, oid: OID, changes: Dict[str, Any],
               txn: Optional[Transaction] = None) -> None:
        """Update an object."""
        self.object_manager.update(oid, changes, txn)

    def delete(self, oid: OID, txn: Optional[Transaction] = None) -> None:
        """Delete an object."""
        self.object_manager.delete(oid, txn)

    def read(self, oid: OID, txn: Transaction) -> Dict[str, Any]:
        """Read an object's attributes."""
        return self.object_manager.read(oid, txn)

    def query(self, query: Query, txn: Transaction,
              bindings: Bindings = ()) -> QueryResult:
        """Run a query."""
        return self.object_manager.execute_query(query, txn, bindings)

    def begin(self, parent: Optional[Transaction] = None, **kwargs: Any) -> Transaction:
        """Create a transaction."""
        return self.transaction_manager.create_transaction(parent, **kwargs)

    def commit(self, txn: Transaction) -> None:
        """Commit a transaction."""
        self.transaction_manager.commit_transaction(txn)

    def abort(self, txn: Transaction) -> None:
        """Abort a transaction."""
        self.transaction_manager.abort_transaction(txn)

    @contextlib.contextmanager
    def transaction(self, parent: Optional[Transaction] = None,
                    **kwargs: Any) -> Iterator[Transaction]:
        """Context manager: commit on success, abort on exception."""
        txn = self.begin(parent, **kwargs)
        try:
            yield txn
        except BaseException:
            if not txn.is_finished():
                self.abort(txn)
            raise
        else:
            if not txn.is_finished():
                self.commit(txn)


@dataclass
class PollStats:
    """Work and outcome counters of one polling client."""

    polls: int = 0
    rows_examined: int = 0
    detections: int = 0
    empty_polls: int = 0
    #: detection latencies (poll time - change time), filled by the harness
    latencies: List[float] = field(default_factory=list)


class PollingClient:
    """An application polling a passive DBMS for condition changes.

    Each :meth:`poll` runs ``query`` in a fresh transaction and reports the
    OIDs that *newly* match (weren't in the previous poll's answer) to
    ``on_detect``.  This is what SAA-style monitoring costs without rules:
    the whole query re-runs every interval whether or not anything changed,
    and changes are noticed only at the next poll boundary.
    """

    def __init__(self, db: PassiveDBMS, query: Query,
                 on_detect: Optional[Callable[[OID, Dict[str, Any]], None]] = None,
                 *, interval: float = 1.0) -> None:
        self.db = db
        self.query = query
        self.on_detect = on_detect
        self.interval = interval
        self.next_due = 0.0
        self._previous: Set[OID] = set()
        self.stats = PollStats()

    def poll(self, now: float = 0.0) -> List[OID]:
        """Run one poll; returns the newly matching OIDs."""
        self.stats.polls += 1
        with self.db.transaction() as txn:
            # The passive client cannot know what changed: it examines the
            # full extent the query ranges over.
            self.stats.rows_examined += self.db.store.extent_size(
                self.query.class_name, self.query.include_subclasses)
            result = self.db.query(self.query, txn)
        current = set(result.oids())
        fresh = sorted(current - self._previous)
        self._previous = current
        if fresh:
            self.stats.detections += len(fresh)
            if self.on_detect is not None:
                rows = {row.oid: dict(row.attrs) for row in result}
                for oid in fresh:
                    self.on_detect(oid, rows.get(oid, {}))
        else:
            self.stats.empty_polls += 1
        self.next_due = now + self.interval
        return fresh

    def run_until(self, now: float) -> int:
        """Run every poll due up to virtual time ``now``; returns poll count."""
        ran = 0
        while self.next_due <= now:
            self.poll(self.next_due)
            ran += 1
        return ran
