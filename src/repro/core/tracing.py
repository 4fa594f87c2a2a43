"""Inter-component call tracing.

The HiPAC paper's Section 6 specifies, step by step, which functional
component calls which during rule creation, event-signal processing, and
transaction commit.  Those protocols are this reproduction's primary
"results", so every inter-component call in the system is routed through a
:class:`Tracer`.  Experiments turn the tracer on, run an operation, and diff
the recorded edges against the protocol in the paper (and against the edges
of Figure 5.1).

When disabled (the default) tracing costs one attribute check per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Optional, Tuple

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
    threads.  A tracer is shared by all components of one HiPAC instance.

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
    """

    def __init__(self) -> None:
        self.enabled = False
        self._records: List[TraceRecord] = []
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, source: str, target: str, operation: str,
               detail: Any = "", *args: Any) -> None:
        """Record one call from ``source`` to ``target`` (no-op when disabled).

        ``detail`` is built only when tracing is on: a ``%``-format string
        is applied to ``args``; a callable (``op.describe``) is called.
        Call sites therefore pass the parts, never a finished string, and a
        disabled tracer costs them one attribute check."""
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

    def stop(self) -> Trace:
        """Disable tracing and return everything recorded since :meth:`start`."""
        with self._lock:
            self.enabled = False
            trace = Trace(list(self._records))
            self._records = []
        return trace

    def snapshot(self) -> Trace:
        """Return a copy of the records so far without stopping."""
        with self._lock:
            return Trace(list(self._records))


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
