"""Undo records for transaction abort.

Each operation a transaction performs appends one or more undo records to
the transaction's log.  On abort the log is replayed in reverse; on
subtransaction commit the child's log is appended to the parent's (the
child's effects become undoable by the parent, per the nested-transaction
model: "the effects of a subtransaction do not become permanent until it,
and all of its ancestors through a top transaction, commit").

Two record kinds cover everything in the system:

* :class:`DeltaUndo` — inverts a store :class:`~repro.objstore.store.Delta`
  (object create/update/delete, class define/drop).  Because the log of a
  committing top-level transaction is exactly the sphere's surviving
  writes, it is also what the commit point reads: the WAL writes its
  deltas, and provenance expands the ``stamp`` each instance-level record
  carries (cause, writing transaction, wall time) into queryable entries;
* :class:`CallbackUndo` — runs an arbitrary compensation, used by the
  condition evaluator (memory maintenance), by event detectors (event
  definitions made inside an aborted rule-creating transaction), and by
  the rule manager (event->rule map entries).
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.objstore.store import Delta, ObjectStore


class UndoRecord:
    """Base class for undo-log entries."""

    #: provenance stamp; only a :class:`DeltaUndo` ever carries one
    stamp: Any = None

    def undo(self) -> None:
        """Compensate the logged effect."""
        raise NotImplementedError


class DeltaUndo(UndoRecord):
    """Inverts one store delta."""

    __slots__ = ("store", "delta", "stamp")

    def __init__(self, store: ObjectStore, delta: Delta,
                 stamp: Any = None) -> None:
        self.store = store
        self.delta = delta
        self.stamp = stamp

    def undo(self) -> None:
        self.store.apply(self.delta.inverse())

    def __repr__(self) -> str:
        return "DeltaUndo(%s %s)" % (self.delta.kind, self.delta.oid or self.delta.class_name)


class CallbackUndo(UndoRecord):
    """Runs a compensation callable on abort."""

    __slots__ = ("callback", "label")

    def __init__(self, callback: Callable[[], None], label: str = "") -> None:
        self.callback = callback
        self.label = label

    def undo(self) -> None:
        self.callback()

    def __repr__(self) -> str:
        return "CallbackUndo(%s)" % (self.label or self.callback)


def replay_reverse(records: List[UndoRecord]) -> None:
    """Undo every record, newest first.  Exceptions propagate: an undo
    failure indicates a bug (undo must always succeed on consistent state)."""
    for record in reversed(records):
        record.undo()
