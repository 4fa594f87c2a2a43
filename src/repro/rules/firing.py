"""Rule-firing records.

The execution model's observable output is the *shape* of the transaction
trees rule firings build ("cascading rule firings produce a tree of nested
transactions", §3.2).  The Rule Manager records one :class:`RuleFiring` per
fired rule so tests and the Section 6 experiments can assert that shape:
which transaction evaluated the condition, which executed the action, how
they nest under the triggering transaction, and whether the condition was
satisfied.

The record is also the one account of the rule cascade.  ``cause`` names
the firing whose action was running when this firing was triggered — so
the log alone is the cascade tree, deferred firings at commit and separate
firings on worker threads included — and, under
``observability="trace"``, ``timing`` holds when and on which thread each
phase ran.  The profiler and the Chrome export read nothing else, and
only this module maps the record to a dict (:meth:`RuleFiring.as_dict`,
:meth:`RuleFiring.response`), to its :func:`identity` across runs, or to
its :func:`cascade`.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

#: one timed firing phase: ``(thread ident, perf_counter start, end)``
Phase = Tuple[int, float, float]

#: process-wide firing ids; monotonic so provenance envelopes can name a
#: specific firing even after the firing log's ring has evicted it
_FIRING_IDS = itertools.count(1)


@dataclass(slots=True)
class RuleFiring:
    """One rule firing and the transactions it used."""

    rule_name: str
    event: str
    ec_coupling: str
    ca_coupling: str
    triggering_txn: Optional[str] = None
    condition_txn: Optional[str] = None
    action_txn: Optional[str] = None
    satisfied: Optional[bool] = None
    executed: bool = False
    deferred: bool = False
    separate_thread: bool = False
    error: Optional[str] = None
    #: ``firing_id`` of the firing whose action was running on the
    #: triggering thread when this firing was partitioned; None for a
    #: firing triggered from outside any rule action (a stimulus).  Like
    #: the rest of the metadata below, excluded from equality.
    cause: Optional[int] = field(default=None, compare=False, repr=False)
    #: ``[condition phase, action phase]`` under ``observability="trace"``
    #: (each a :data:`Phase`, the action's None until it has run); None
    #: at the other levels
    timing: Optional[List[Optional[Phase]]] = field(
        default=None, compare=False, repr=False)
    #: wall-clock record time, the ``wall`` of :meth:`as_dict`, which
    #: ``explain`` stamps; neither the journal's response nor replay reads it
    wall_time: float = field(default_factory=time.time, compare=False,
                             repr=False)
    #: process-wide monotonic firing id (``cause`` and provenance envelopes
    #: reference firings by id)
    firing_id: int = field(default_factory=_FIRING_IDS.__next__,
                           compare=False, repr=False)

    def response(self) -> Dict[str, Any]:
        """The flight journal's response record, written once the
        condition is evaluated: the :func:`identity` fields, ``separate``
        (replay orders synchronous firings only), and ``id`` and
        ``cause``, which match it to its entry in the firing log."""
        return {"rule": self.rule_name, "event": self.event,
                "ec": self.ec_coupling, "ca": self.ca_coupling,
                "satisfied": self.satisfied, "separate": self.separate_thread,
                "id": self.firing_id, "cause": self.cause}

    def as_dict(self) -> Dict[str, Any]:
        """The serialised form: the response plus what the action's run
        settles and what replay does not compare."""
        return dict(self.response(), executed=self.executed,
                    deferred=self.deferred, error=self.error,
                    wall=self.wall_time)


def identity(record: Dict[str, Any]) -> Tuple[Any, ...]:
    """What makes two serialised firings (:meth:`RuleFiring.as_dict`, a
    journal response) "the same" across runs: the rule, its event, the
    couplings and the condition outcome — not ids or times, which differ
    between a recording and its replay by construction."""
    return (record["rule"], record["event"], record["ec"], record["ca"],
            record["satisfied"])


def cascade(records: List[RuleFiring]
            ) -> Tuple[List[RuleFiring], Dict[int, List[RuleFiring]]]:
    """The cascade tree of ``records`` (oldest first): the roots, whose
    ``cause`` is none of the records (a stimulus, or a cause the ring has
    evicted), and the firings each firing caused, by its ``firing_id``;
    both keep the records' order."""
    ids = {record.firing_id for record in records}
    roots: List[RuleFiring] = []
    caused: Dict[int, List[RuleFiring]] = {}
    for record in records:
        if record.cause in ids:
            caused.setdefault(record.cause, []).append(record)
        else:
            roots.append(record)
    return roots, caused


#: ring capacity of a firing log; the Rule Manager reads it, as
#: ``repro.rules.manager.FIRING_LOG_CAPACITY``, when it builds its own
FIRING_LOG_CAPACITY = 100_000


class FiringLog:
    """Thread-safe ring buffer of rule firings.

    Bounded: long-running workloads keep the newest ``capacity`` records
    at fixed memory; older records are evicted and counted in
    :attr:`dropped` (exported as a metric by the facade).
    """

    def __init__(self, capacity: int = FIRING_LOG_CAPACITY) -> None:
        self._mutex = threading.Lock()
        self._records: Deque[RuleFiring] = deque(maxlen=capacity)
        self.capacity = capacity
        #: records evicted by the ring since construction (or clear())
        self.dropped = 0

    def append(self, record: RuleFiring) -> RuleFiring:
        """Record one firing (evicts the oldest beyond capacity)."""
        with self._mutex:
            if len(self._records) == self.capacity:
                self.dropped += 1
            self._records.append(record)
        return record

    def all(self) -> List[RuleFiring]:
        """All recorded firings, oldest first."""
        with self._mutex:
            return list(self._records)

    def for_rule(self, rule_name: str) -> List[RuleFiring]:
        """Firings of one rule."""
        with self._mutex:
            return [r for r in self._records if r.rule_name == rule_name]

    def clear(self) -> None:
        """Drop all records (between experiment phases)."""
        with self._mutex:
            self._records.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._mutex:
            return len(self._records)
