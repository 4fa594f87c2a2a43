"""Inter-component call tracing.

The HiPAC paper's Section 6 specifies, step by step, which functional
component calls which during rule creation, event-signal processing, and
transaction commit.  Those protocols are this reproduction's primary
"results".  Experiments turn a HiPAC instance's :class:`Tracer` on, run an
operation, and diff the recorded edges against the protocol in the paper
(and against the edges of Figure 5.1).

The engine carries no tracing code: :meth:`Tracer.start` wraps the entry
points of one instance's components by name (:data:`ENTRIES`) and
:meth:`Tracer.stop` puts every one back, so tracing off costs nothing.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, FrozenSet, List, Optional, Tuple

# Canonical component names, matching Figure 5.1 of the paper.
APPLICATION = "Application"
OBJECT_MANAGER = "ObjectManager"
TRANSACTION_MANAGER = "TransactionManager"
EVENT_DETECTOR = "EventDetector"
RULE_MANAGER = "RuleManager"
CONDITION_EVALUATOR = "ConditionEvaluator"

COMPONENTS: FrozenSet[str] = frozenset(
    {
        APPLICATION,
        OBJECT_MANAGER,
        TRANSACTION_MANAGER,
        EVENT_DETECTOR,
        RULE_MANAGER,
        CONDITION_EVALUATOR,
    }
)


#: every detector, with the component it is embedded in (paper §5.3)
_DETECTORS = (("object_manager.event_detector", OBJECT_MANAGER),
              ("rule_manager.txn_detector", TRANSACTION_MANAGER),
              ("temporal_detector", EVENT_DETECTOR),
              ("external_detector", EVENT_DETECTOR),
              ("composite_detector", EVENT_DETECTOR))

#: Figure 5.1's entry points, and the Rule Manager's bound methods the facade
#: stored at wiring time: ``(holder path, attribute, source, target,
#: operation, details)``.  ``details(*args, **kwargs)`` returns the detail
#: of each record a call makes; a ``None`` source is the calling thread's.
ENTRIES = (
    ("object_manager", "execute_operation", None, OBJECT_MANAGER,
     "execute_operation", lambda op, *_, **__: [op.describe()]),
    ("object_manager", "lock_for_read", None, OBJECT_MANAGER, "read",
     lambda oid, *_, **__: [str(oid)]),
    ("object_manager", "execute_query", None, OBJECT_MANAGER, "execute_query",
     lambda query, *_, **__: [query.class_name]),
    ("object_manager", "execute_join", None, OBJECT_MANAGER, "execute_join",
     lambda join, *_, **__: [join.left.class_name + " x " + join.right.class_name]),
    ("transaction_manager", "create_transaction", None, TRANSACTION_MANAGER,
     "create_transaction", lambda parent=None, **_: [
         "top level" if parent is None else "nested under " + parent.txn_id]),
    ("transaction_manager", "commit_transaction", None, TRANSACTION_MANAGER,
     "commit_transaction", lambda txn: [txn.txn_id]),
    ("transaction_manager", "abort_transaction", None, TRANSACTION_MANAGER,
     "abort_transaction", lambda txn: [txn.txn_id]),
    ("condition_evaluator", "add_rule", None, CONDITION_EVALUATOR, "add_rule",
     lambda condition, *_, **__: [condition.name or "-"]),
    ("condition_evaluator", "delete_rule", None, CONDITION_EVALUATOR,
     "delete_rule", lambda condition, *_, **__: [condition.name or "-"]),
    ("condition_evaluator", "evaluate", None, CONDITION_EVALUATOR,
     "evaluate_condition", lambda condition, *_, coupling="immediate", **__: [
         "%s coupling=%s" % (condition.name or "-", coupling)]),
    ("external_detector", "signal", None, EVENT_DETECTOR, "signal_event",
     lambda name, *_, **__: [name]),
    ("applications", "request", None, APPLICATION, "application_request",
     lambda application, operation, *_, **__: [application + "." + operation]),
    # Rule Manager work that starts on its own: no record.
    ("rule_manager", "fire_rule", None, RULE_MANAGER, "", lambda *_, **__: ()),
) + tuple(
    (holder, method, None, EVENT_DETECTOR, method, lambda spec: [repr(spec)])
    for holder, _ in _DETECTORS for method in ("define_event", "delete_event")
) + tuple(
    # A detector signals from the component it is embedded in: one record
    # per signal of the batch.
    (holder, "sink", source, RULE_MANAGER, "signal_event",
     lambda signals: [signal.describe() for signal in signals])
    for holder, source in _DETECTORS
) + (
    ("transaction_manager", "event_sink", TRANSACTION_MANAGER, RULE_MANAGER,
     "signal_event", lambda kind, txn: ["transaction %s %s" % (kind, txn.txn_id)]),
)


@dataclass(frozen=True)
class TraceRecord:
    """One inter-component call: ``source`` invoked ``operation`` on ``target``."""

    seq: int
    source: str
    target: str
    operation: str
    detail: str = ""


@dataclass
class Trace:
    """An ordered list of :class:`TraceRecord` with protocol-checking helpers."""

    records: List[TraceRecord] = field(default_factory=list)

    def edges(self) -> List[Tuple[str, str, str]]:
        """Return ``(source, target, operation)`` triples in call order."""
        return [(r.source, r.target, r.operation) for r in self.records]

    def edge_set(self) -> FrozenSet[Tuple[str, str]]:
        """Return the set of distinct ``(source, target)`` component edges."""
        return frozenset((r.source, r.target) for r in self.records)

    def operations(self) -> List[str]:
        """Return the operation names in call order."""
        return [r.operation for r in self.records]

    def subsequence(self, expected: List[Tuple[str, str, str]]) -> bool:
        """Return True if ``expected`` edges occur in order (not necessarily
        contiguously) within this trace — the check used by the Section 6
        walkthrough experiments."""
        it = iter(self.edges())
        return all(step in it for step in (tuple(e) for e in expected))

    def count(self, source: Optional[str] = None, target: Optional[str] = None,
              operation: Optional[str] = None) -> int:
        """Count records matching the given (optional) fields."""
        total = 0
        for record in self.records:
            if source is not None and record.source != source:
                continue
            if target is not None and record.target != target:
                continue
            if operation is not None and record.operation != operation:
                continue
            total += 1
        return total

    def format(self) -> str:
        """Render the trace as an indented, human-readable protocol listing."""
        lines = []
        for record in self.records:
            suffix = " (%s)" % record.detail if record.detail else ""
            lines.append(
                "%4d  %s -> %s : %s%s"
                % (record.seq, record.source, record.target, record.operation, suffix)
            )
        return "\n".join(lines)


class Tracer:
    """Records inter-component calls when enabled.

    Thread safe: separate-coupling rule firings record from their own
    threads.  ``db.tracer`` is ``Tracer(db)``; a tracer with no database
    records only what is passed to :meth:`record`.

    Enable/disable contract:

    * ``enabled`` is toggled **only** by :meth:`start` / :meth:`stop`
      (both take the lock); callers must never write it directly.
    * :meth:`record` reads ``enabled`` unlocked as the disabled fast path
      (one attribute check per call), then re-checks it *under the lock*
      before touching state — so once :meth:`stop` returns, no concurrent
      call can append to the records it swapped out, and a call racing
      :meth:`start` either lands in the fresh trace or not at all (never
      in the previous one).
    * The unlocked read means a call overlapping :meth:`start` /
      :meth:`stop` may be dropped; it will never be misfiled or torn.

    Who called: every wrapper pushes its target on a per-thread stack while
    the call runs; a call's source is the innermost other component there,
    else the Application.
    """

    def __init__(self, db: Any = None) -> None:
        self.enabled = False
        self._records: List[TraceRecord] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._db = db
        #: per thread: the components it is running inside, innermost last
        self._calls = threading.local()
        #: ``(holder, attribute, what its instance dict held)`` per wrapper
        self._patched: List[Tuple[Any, str, Any]] = []

    def record(self, source: str, target: str, operation: str,
               detail: Any = "", *args: Any) -> None:
        """Record one call from ``source`` to ``target`` (no-op when disabled).

        ``detail`` is built only when tracing is on: a ``%``-format string
        is applied to ``args``; a callable is called."""
        if not self.enabled:
            return
        if args:
            detail = detail % args
        elif callable(detail):
            detail = detail()
        with self._lock:
            if not self.enabled:  # re-check: stop() may have won the race
                return
            self._seq += 1
            self._records.append(TraceRecord(self._seq, source, target, operation, detail))

    def start(self) -> None:
        """Enable tracing and clear any previous records."""
        with self._lock:
            self._records = []
            self._seq = 0
            self.enabled = True
            if self._db is not None and not self._patched:
                self._install(self._db)

    def stop(self) -> Trace:
        """Disable tracing and return everything recorded since :meth:`start`."""
        with self._lock:
            self.enabled = False
            trace = Trace(list(self._records))
            self._records = []
            for holder, attribute, saved in reversed(self._patched):
                if saved is None:
                    delattr(holder, attribute)  # the class method shows again
                else:
                    setattr(holder, attribute, saved)
            self._patched = []
        return trace

    def snapshot(self) -> Trace:
        """Return a copy of the records so far without stopping."""
        with self._lock:
            return Trace(list(self._records))

    # ------------------------------------------------------------ wrapping

    def _install(self, db: Any) -> None:
        for path, attribute, source, target, operation, details in ENTRIES:
            holder = attrgetter(path)(db)
            self._patch(holder, attribute, self._wrap(
                getattr(holder, attribute), source, target, operation,
                details))
        # A separate firing's body: Rule Manager work on a worker thread.
        spawn = db.rule_manager._spawn
        self._patch(db.rule_manager, "_spawn", lambda body, *args, **kwargs:
                    spawn(self._wrap(body, None, RULE_MANAGER, "", tuple),
                          *args, **kwargs))

    def _patch(self, holder: Any, attribute: str, wrapper: Any) -> None:
        self._patched.append((holder, attribute, vars(holder).get(attribute)))
        setattr(holder, attribute, wrapper)

    def _wrap(self, fn: Callable[..., Any], source: Optional[str], target: str,
              operation: str, details: Callable[..., Any]) -> Callable[..., Any]:
        """``fn``, recording one call per detail and running as work of
        ``target`` on the calling thread."""
        calls, record = self._calls, self.record

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = calls.__dict__.setdefault("stack", [])
            if self.enabled:
                caller = source or next((component for component in reversed(stack)
                                         if component != target), APPLICATION)
                for detail in details(*args, **kwargs):
                    record(caller, target, operation, detail)
            stack.append(target)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return traced


def figure_5_1_edges() -> FrozenSet[Tuple[str, str]]:
    """The inter-component edges depicted in Figure 5.1 of the paper.

    * Applications issue database operations to the Object Manager and
      transaction operations to the Transaction Manager, and signal events.
    * The Object Manager locks through the Transaction Manager and signals
      database events to the Rule Manager.
    * The Transaction Manager signals transaction events (commit) to the
      Rule Manager.
    * Event Detectors signal events to the Rule Manager.
    * The Rule Manager creates transactions (Transaction Manager), asks the
      Condition Evaluator to evaluate conditions, and programs Event
      Detectors.
    * The Condition Evaluator executes queries through the Object Manager.
    """
    return frozenset(
        {
            (APPLICATION, OBJECT_MANAGER),
            (APPLICATION, TRANSACTION_MANAGER),
            (APPLICATION, EVENT_DETECTOR),
            (OBJECT_MANAGER, TRANSACTION_MANAGER),
            (OBJECT_MANAGER, RULE_MANAGER),
            (TRANSACTION_MANAGER, RULE_MANAGER),
            (EVENT_DETECTOR, RULE_MANAGER),
            (RULE_MANAGER, TRANSACTION_MANAGER),
            (RULE_MANAGER, CONDITION_EVALUATOR),
            (RULE_MANAGER, EVENT_DETECTOR),
            (RULE_MANAGER, OBJECT_MANAGER),
            (RULE_MANAGER, APPLICATION),
            (CONDITION_EVALUATOR, OBJECT_MANAGER),
        }
    )
