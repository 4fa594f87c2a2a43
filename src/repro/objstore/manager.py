"""The Object Manager (paper §5.1).

"The Object Manager provides object-oriented data management. ... In the
course of executing database operations, the Object Manager calls on the
Transaction Manager to obtain locks, and acts as an event detector,
reporting database operations to the Rule Manager."

Execution of one operation:

1. verify the transaction is active;
2. acquire the locks the operation needs (multigranularity: intention lock
   on the class extent, S/X on the object);
3. apply the operation to the store, producing a :class:`Delta`;
4. log the delta, stamped with its cause, in the transaction's undo log —
   the one record of the sphere's surviving writes: an abort replays it
   backwards, a top-level commit writes it to the log and expands it into
   provenance (nothing is made durable or queryable here);
5. notify delta listeners (the Condition Evaluator maintains its
   materialized condition-graph memories from these);
6. report the operation to the database event detector, which signals the
   Rule Manager — the operation is *suspended* until immediate rule work
   completes (the call is synchronous, per §6.2).

Reads (``read``/``execute_query``) take shared locks and do not signal.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, List, Optional

from repro.clock import Clock, VirtualClock
from repro.core import tracing
from repro.errors import SchemaError
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.events.database import DatabaseEventDetector
from repro.events.signal import EventSignal
from repro.objstore.executor import Plan, QueryExecutor
from repro.objstore.objects import OID
from repro.objstore.operations import (
    CreateObject,
    DefineClass,
    DeleteObject,
    DropClass,
    Operation,
    UpdateObject,
)
from repro.objstore.joins import JoinQuery, JoinResult, hash_join
from repro.objstore.predicates import Bindings
from repro.objstore.query import Query, QueryResult
from repro.objstore.store import Delta, ObjectStore
from repro.txn.locks import LockMode, LockResource
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction
from repro.txn.undo import DeltaUndo

DeltaListener = Callable[[Transaction, Delta], None]
"""Hook invoked with every applied delta (condition-graph maintenance)."""


class ObjectManager:
    """Executes DDL/DML operations and queries under transactions."""

    def __init__(self, store: ObjectStore, txn_manager: TransactionManager,
                 tracer: Optional[tracing.Tracer] = None,
                 clock: Optional[Clock] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.store = store
        self.txns = txn_manager
        self._tracer = tracer or tracing.Tracer()
        self._clock = clock or VirtualClock()
        self._metrics = metrics or MetricsRegistry(enabled=False)
        #: operation latency includes everything the §6.2 suspension
        #: protocol charges to the operation: locks, store apply, event
        #: dispatch, and synchronous (immediate) rule work.  Sampled (1 in
        #: HOT_PATH_SAMPLE operations timed): the path runs in single-digit
        #: microseconds, where timing every call would cost more than the
        #: call.
        self._op_seconds = self._metrics.histogram(
            "om_operation_seconds", sample=HOT_PATH_SAMPLE)
        self.executor = QueryExecutor(store)
        #: the in-Object-Manager database event detector (paper §5.3); its
        #: sink is wired to the Rule Manager by the facade
        self.event_detector = DatabaseEventDetector(
            store.schema, tracer=self._tracer,
            component=tracing.OBJECT_MANAGER, metrics=self._metrics)
        self._delta_listeners: List[DeltaListener] = []
        #: flight recorder; None unless the facade enables it.  Top-level
        #: application operations are journalled as replayable stimuli;
        #: rule-cascade operations are suppressed (replay re-derives them).
        self.recorder: Optional[Any] = None
        #: causal provenance store; None unless the facade enables it.
        #: Every instance-level delta's undo record is stamped with its
        #: causal envelope (rule firing or application).
        self.provenance: Optional[Any] = None
        self.stats = {"operations": 0, "queries": 0, "reads": 0,
                      "signals_skipped": 0}

    def add_delta_listener(self, listener: DeltaListener) -> None:
        """Register a listener called with every applied delta."""
        self._delta_listeners.append(listener)

    # ----------------------------------------------------- execute operation

    def execute_operation(self, op: Operation, txn: Transaction, *,
                          user: str = "system",
                          source: str = tracing.APPLICATION) -> Any:
        """Execute a DDL/DML operation in ``txn`` (the paper's single entry).

        Returns the created :class:`OID` for :class:`CreateObject` and the
        applied :class:`Delta` for other operations.  The call returns only
        after any immediate-coupled rule work triggered by the operation has
        completed.
        """
        if not isinstance(op, Operation):
            raise SchemaError("unknown operation: %r" % (op,))
        self._tracer.record(source, tracing.OBJECT_MANAGER,
                            "execute_operation", op.describe)
        txn.require_active()
        self.stats["operations"] += 1
        if self.recorder is not None:
            self._journal_operation(op, txn, user)
        if not self._op_seconds.should_sample():
            return self._dispatch_operation(op, txn, user)
        start = _time.perf_counter()
        try:
            return self._dispatch_operation(op, txn, user)
        finally:
            self._op_seconds.observe(_time.perf_counter() - start)

    def _journal_operation(self, op: Operation, txn: Transaction,
                           user: str) -> None:
        """Journal ``op`` as a flight-recorder stimulus (intent: written
        before execution, so a torn journal tail is an operation that never
        ran).  Skipped for internal transactions (recovery, checkpointing)
        and for rule-object operations — rule administration is journalled
        at the Rule Manager, which re-creates the rule rows on replay."""
        if txn.internal or self.recorder.suppressed_here:
            return
        target = getattr(op, "class_name", None)
        if target is None:
            oid = getattr(op, "oid", None)
            target = oid.class_name if oid is not None else None
        if target == "HiPAC::Rule":  # rules.rule.RULE_CLASS
            return
        self.recorder.record_operation(op, txn, user)

    def _dispatch_operation(self, op: Operation, txn: Transaction,
                            user: str) -> Any:
        if isinstance(op, CreateObject):
            return self._create(op, txn, user)
        if isinstance(op, UpdateObject):
            return self._update(op, txn, user)
        if isinstance(op, DeleteObject):
            return self._delete(op, txn, user)
        if isinstance(op, DefineClass):
            return self._define_class(op, txn, user)
        if isinstance(op, DropClass):
            return self._drop_class(op, txn, user)
        raise SchemaError("unknown operation: %r" % (op,))

    # Convenience wrappers used throughout the library and examples.

    def create(self, class_name: str, attrs: Optional[Dict[str, Any]] = None,
               txn: Optional[Transaction] = None, *, user: str = "system",
               source: str = tracing.APPLICATION) -> OID:
        """Create an instance; returns its OID."""
        if txn is None:
            raise SchemaError("create requires a transaction")
        return self.execute_operation(
            CreateObject(class_name, dict(attrs or {})), txn, user=user,
            source=source)

    def update(self, oid: OID, changes: Dict[str, Any],
               txn: Optional[Transaction] = None, *, user: str = "system",
               source: str = tracing.APPLICATION) -> Delta:
        """Update an instance's attributes."""
        if txn is None:
            raise SchemaError("update requires a transaction")
        return self.execute_operation(UpdateObject(oid, dict(changes)), txn,
                                      user=user, source=source)

    def delete(self, oid: OID, txn: Optional[Transaction] = None, *,
               user: str = "system",
               source: str = tracing.APPLICATION) -> Delta:
        """Delete an instance."""
        if txn is None:
            raise SchemaError("delete requires a transaction")
        return self.execute_operation(DeleteObject(oid), txn, user=user,
                                      source=source)

    # -------------------------------------------------------------- reads

    def read(self, oid: OID, txn: Transaction, *, user: str = "system",
             source: str = tracing.APPLICATION) -> Dict[str, Any]:
        """Read one instance's attributes (shared-locked snapshot)."""
        txn.require_active()
        self.stats["reads"] += 1
        self.lock_for_read(oid, txn, source=source)
        snapshot = self.store.get(oid).snapshot()
        self._signal_retrieval("read", oid.class_name, txn, user,
                               oid=oid, attrs=snapshot, source=source)
        return snapshot

    def lock_for_read(self, oid: OID, txn: Transaction, *,
                      source: str = tracing.APPLICATION) -> None:
        """Take the locks of a read of ``oid`` — IS on its class, S on the
        object — without reading it.

        This is all the Rule Manager needs of a rule object when it fires
        the rule ("firing requires a read lock", §2.2); it asks on the
        transaction the firing nests under, which may be committing (§6.3),
        so only a finished transaction is refused (by the lock manager).
        """
        self._tracer.record(source, tracing.OBJECT_MANAGER, "read", "%s", oid)
        locks = self.txns.locks
        locks.acquire(txn, LockResource.for_class(oid.class_name), LockMode.IS)
        locks.acquire(txn, LockResource.for_object(oid), LockMode.S)

    def execute_query(self, query: Query, txn: Transaction,
                      bindings: Bindings = (), *, user: str = "system",
                      source: str = tracing.APPLICATION) -> QueryResult:
        """Evaluate a query with shared locks on the extents it ranges over."""
        self._tracer.record(source, tracing.OBJECT_MANAGER, "execute_query",
                            query.class_name)
        txn.require_active()
        self.stats["queries"] += 1
        locks = self.txns.locks
        if query.include_subclasses:
            class_names = self.store.schema.subclasses(query.class_name)
        else:
            self.store.schema.get(query.class_name)
            class_names = [query.class_name]
        for name in class_names:
            locks.acquire(txn, LockResource.for_class(name), LockMode.S)
        result = self.executor.execute(query, bindings)
        self._signal_retrieval("query", query.class_name, txn, user,
                               source=source)
        return result

    def execute_join(self, join: JoinQuery, txn: Transaction,
                     bindings: Bindings = (), *,
                     source: str = tracing.APPLICATION) -> JoinResult:
        """Evaluate a two-class equi-join under shared extent locks.

        Both sides run through :meth:`execute_query` (index selection and
        locking apply per side); the pairs are produced by a hash join.
        """
        self._tracer.record(source, tracing.OBJECT_MANAGER, "execute_join",
                            "%s x %s", join.left.class_name,
                            join.right.class_name)
        left = self.execute_query(join.left, txn, bindings, source=source)
        right = self.execute_query(join.right, txn, bindings, source=source)
        return hash_join(join, left.rows, right.rows)

    def lock_extent(self, class_name: str, txn: Transaction, *,
                    include_subclasses: bool = True) -> None:
        """Acquire shared locks on a class extent (and its subclasses).

        Used by the Condition Evaluator before answering from materialized
        condition-graph memories: holding S on the extent guarantees no
        other transaction has uncommitted changes in it, so the memory is
        exact for this reader.
        """
        txn.require_active()
        if include_subclasses:
            class_names = self.store.schema.subclasses(class_name)
        else:
            self.store.schema.get(class_name)
            class_names = [class_name]
        for name in class_names:
            self.txns.locks.acquire(txn, LockResource.for_class(name), LockMode.S)

    def query_plan(self, query: Query, bindings: Bindings = ()) -> Plan:
        """Explain which plan :meth:`execute_query` would use (no locks)."""
        return self.executor.plan(query, bindings)

    # ----------------------------------------------------------- internals

    def _create(self, op: CreateObject, txn: Transaction, user: str) -> OID:
        locks = self.txns.locks
        self.store.schema.get(op.class_name)
        locks.acquire(txn, LockResource.for_class(op.class_name), LockMode.IX)
        oid = self.store.new_oid(op.class_name)
        locks.acquire(txn, LockResource.for_object(oid), LockMode.X)
        delta = self.store.insert(op.class_name, op.attrs, oid=oid)
        self._record_and_signal(delta, txn, user)
        return oid

    def _update(self, op: UpdateObject, txn: Transaction, user: str) -> Delta:
        locks = self.txns.locks
        locks.acquire(txn, LockResource.for_class(op.oid.class_name), LockMode.IX)
        locks.acquire(txn, LockResource.for_object(op.oid), LockMode.X)
        delta = self.store.update(op.oid, op.changes)
        self._record_and_signal(delta, txn, user)
        return delta

    def _delete(self, op: DeleteObject, txn: Transaction, user: str) -> Delta:
        locks = self.txns.locks
        locks.acquire(txn, LockResource.for_class(op.oid.class_name), LockMode.IX)
        locks.acquire(txn, LockResource.for_object(op.oid), LockMode.X)
        delta = self.store.delete(op.oid)
        self._record_and_signal(delta, txn, user)
        return delta

    def _define_class(self, op: DefineClass, txn: Transaction, user: str) -> Delta:
        locks = self.txns.locks
        locks.acquire(txn, LockResource.for_class(op.class_def.name), LockMode.X)
        delta = self.store.define_class(op.class_def)
        self._record_and_signal(delta, txn, user)
        return delta

    def _drop_class(self, op: DropClass, txn: Transaction, user: str) -> Delta:
        locks = self.txns.locks
        locks.acquire(txn, LockResource.for_class(op.class_name), LockMode.X)
        delta = self.store.drop_class(op.class_name)
        self._record_and_signal(delta, txn, user)
        return delta

    def _record_and_signal(self, delta: Delta, txn: Transaction, user: str) -> None:
        # The stamp rides the undo record: only a write that survives to
        # the top-level commit is ever expanded into provenance entries.
        stamp = (self.provenance.note_delta(delta, txn, user)
                 if self.provenance is not None else None)
        txn.log_undo(DeltaUndo(self.store, delta, stamp))
        for listener in self._delta_listeners:
            listener(txn, delta)
        # Dispatch-index pre-check: when no programmed spec can match this
        # (op, class) the signal is never even constructed — an operation on
        # a class without rules pays a couple of dict probes, not a scan.
        if not self.event_detector.relevant(delta.kind, delta.class_name):
            self.stats["signals_skipped"] += 1
            return
        signal = EventSignal(
            kind="database",
            timestamp=self._clock.now(),
            txn=txn,
            op=delta.kind,
            class_name=delta.class_name,
            oid=delta.oid,
            old_attrs=delta.old_attrs,
            new_attrs=delta.new_attrs,
            user=user,
        )
        # The detector reports to the Rule Manager; immediate rule work runs
        # synchronously here, suspending this operation (paper §6.2).
        self.event_detector.observe(signal)

    _INTERNAL_SOURCES = frozenset({tracing.RULE_MANAGER,
                                   tracing.CONDITION_EVALUATOR})

    def _signal_retrieval(self, op: str, class_name: str, txn, user: str, *,
                          oid: Optional[OID] = None,
                          attrs: Optional[Dict[str, Any]] = None,
                          source: str) -> None:
        """Report a read/query event (extension).

        The system's own reads — rule-object locking by the Rule Manager
        and condition evaluation — never signal, so retrieval rules observe
        only application activity (and rule *actions*, which read on the
        application's behalf would also be internal here: they carry the
        RULE_MANAGER source).
        """
        if source in self._INTERNAL_SOURCES:
            return
        if not self.event_detector.relevant(op, class_name):
            self.stats["signals_skipped"] += 1
            return
        signal = EventSignal(
            kind="database",
            timestamp=self._clock.now(),
            txn=txn,
            op=op,
            class_name=class_name,
            oid=oid,
            new_attrs=attrs,
            user=user,
        )
        self.event_detector.observe(signal)
