"""The transaction object of the nested transaction model (paper §3.1).

A :class:`Transaction` is either *top level* (no parent) or *nested*
(wholly contained in its parent).  Top-level transactions are atomic,
serializable, and permanent; nested transactions are atomic, and their
effects become permanent only when every ancestor through a top-level
transaction commits.  A parent is suspended while its subtransactions
execute (immediate/deferred firings run synchronously in the signalling
thread); sibling subtransactions may execute concurrently.

The object carries everything the rest of the system attaches to a
transaction:

* the undo log (:mod:`repro.txn.undo`);
* held locks (maintained by the lock manager);
* the sets of deferred rule firings (conditions and actions) that the rule
  manager processes at commit (paper §6.3);
* post-commit / post-abort hooks (causally-dependent separate firings,
  application notifications).

A tree is held from its root down: ``parent.children`` holds each child,
and a child reaches its parent through a weak reference.  So a tree holds
no reference cycle, and reference counting frees it the moment nothing
holds it.  An active transaction is always held (the Transaction Manager
keeps every unterminated one), so an active child's ``parent`` always
answers; a finished subtransaction reaches its parent only while something
holds the tree.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

from repro.errors import TransactionStateError
from repro.txn.undo import UndoRecord

if TYPE_CHECKING:  # pragma: no cover - repro.txn.locks imports this module
    from repro.txn.locks import LockResource

ACTIVE = "active"
COMMITTING = "committing"
COMMITTED = "committed"
ABORTED = "aborted"


def _ROOT() -> None:
    """The parent reference of a top-level transaction."""
    return None


def not_active(txn: "Transaction") -> TransactionStateError:
    """What a new operation raises when ``txn.state`` is not ACTIVE."""
    return TransactionStateError(
        "transaction %s is %s" % (txn.txn_id, txn.state))


class Transaction:
    """One (possibly nested) transaction.

    Application code never constructs these directly; use
    :meth:`repro.txn.manager.TransactionManager.create_transaction` or the
    :class:`~repro.core.hipac.HiPAC` facade.
    """

    __slots__ = ("txn_id", "_parent", "internal", "children", "live_children",
                 "state", "depth", "label", "undo_log", "held_locks",
                 "deferred_conditions", "deferred_actions", "on_commit",
                 "on_abort", "flight_tail", "flight_seq", "aborted_flag",
                 "__weakref__")

    def __init__(self, txn_id: str, parent: Optional["Transaction"] = None,
                 *, label: str = "", internal: bool = False) -> None:
        self.txn_id = txn_id
        self._parent = _ROOT if parent is None else weakref.ref(parent)
        #: True for transactions the Rule Manager creates to run rule
        #: firings; internal transactions do not generate user-visible
        #: transaction-control events (their commits would otherwise
        #: re-trigger rules defined on the commit event, recursively)
        self.internal = internal
        #: subtransactions, in creation order.  Appended to by whichever
        #: thread creates a child: ``list.append`` is atomic, and iterating
        #: a list tolerates a concurrent append, so no mutex guards it.
        self.children: List["Transaction"] = []
        #: children not yet finished: raised in a child's constructor,
        #: lowered by the Transaction Manager when that child finishes
        self.live_children = 0
        self.state = ACTIVE
        self.depth = 0 if parent is None else parent.depth + 1
        self.label = label

        #: undo log, oldest first; child logs are appended on child commit
        self.undo_log: List[UndoRecord] = []
        #: locks currently held: resource -> mode (maintained by LockManager)
        self.held_locks: Dict[LockResource, str] = {}
        #: deferred rule firings: list of (rule, signal) whose *condition*
        #: evaluation was deferred to this transaction's commit
        self.deferred_conditions: List[Any] = []
        #: deferred rule firings: list of (rule, signal, results) whose
        #: *action* execution was deferred to this transaction's commit
        self.deferred_actions: List[Any] = []
        #: callbacks to run after a successful (top-level-effective) commit
        self.on_commit: List[Callable[["Transaction"], None]] = []
        #: callbacks to run after abort
        self.on_abort: List[Callable[["Transaction"], None]] = []
        #: flight-recorder coalescing buffer of a journalled top-level
        #: sphere (set at begin, detached at its commit/abort intent); the
        #: sphere is thread-confined, so entries append without any lock
        self.flight_tail: Optional[Dict[str, Any]] = None
        #: journal seq of this sphere's coalesced flight record, set at
        #: commit: the replay address of its provenance entries
        self.flight_seq: Optional[int] = None
        #: set True when the system decides to abort this transaction from
        #: another thread (deadlock victim wake-up, dependency discard)
        self.aborted_flag = False

        if parent is not None:
            if parent.state in (COMMITTED, ABORTED):
                raise TransactionStateError(
                    "cannot nest under %s transaction %s"
                    % (parent.state, parent.txn_id)
                )
            parent.children.append(self)
            parent.live_children += 1

    # ----------------------------------------------------------- structure

    @property
    def parent(self) -> Optional["Transaction"]:
        """The enclosing transaction; None for a top-level one, and for a
        finished subtransaction whose tree nothing holds any more."""
        return self._parent()

    def is_top_level(self) -> bool:
        """True for transactions with no parent."""
        return self._parent is _ROOT

    def top_level(self) -> "Transaction":
        """Return the root of this transaction's tree."""
        node = self
        parent = node._parent()
        while parent is not None:
            node, parent = parent, parent._parent()
        return node

    def ancestors(self, include_self: bool = False) -> Iterator["Transaction"]:
        """Yield ancestors from (optionally) self up to the top level."""
        node = self if include_self else self._parent()
        while node is not None:
            yield node
            node = node._parent()

    def is_descendant_of(self, other: "Transaction") -> bool:
        """True if ``other`` is this transaction or one of its ancestors."""
        node: Optional["Transaction"] = self
        while node is not None:
            if node is other:
                return True
            node = node._parent()
        return False

    def active_children(self) -> List["Transaction"]:
        """Return children still in the ACTIVE or COMMITTING state."""
        return [child for child in self.children
                if child.state not in (COMMITTED, ABORTED)]

    def tree_size(self) -> int:
        """Number of transactions in this subtree (self included)."""
        return 1 + sum(child.tree_size() for child in self.children)

    def tree_depth(self) -> int:
        """Height of this transaction subtree (a leaf has depth 1)."""
        return 1 + max((child.tree_depth() for child in self.children),
                       default=0)

    # ----------------------------------------------------------- state

    def is_active(self) -> bool:
        """True while the transaction can still perform operations."""
        return self.state == ACTIVE

    def is_finished(self) -> bool:
        """True once committed or aborted."""
        return self.state in (COMMITTED, ABORTED)

    # ----------------------------------------------------------- logging

    def log_undo(self, record: UndoRecord) -> None:
        """Append an undo record for an effect just applied."""
        self.undo_log.append(record)

    def add_deferred_condition(self, firing: Any) -> None:
        """Queue a rule firing whose condition is deferred to commit."""
        self.deferred_conditions.append(firing)

    def add_deferred_action(self, firing: Any) -> None:
        """Queue a rule firing whose action is deferred to commit."""
        self.deferred_actions.append(firing)

    def has_deferred_work(self) -> bool:
        """True if any deferred firings are queued on this transaction."""
        return bool(self.deferred_conditions or self.deferred_actions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.label and (" " + self.label)
        return "<Txn %s%s %s depth=%d>" % (self.txn_id, tag, self.state, self.depth)
