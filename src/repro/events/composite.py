"""Composite event detection (paper §2.1).

"Primitive events can be combined using disjunction and sequence operators
to specify composite events."  This detector maintains one automaton per
programmed composite spec, feeds it every occurrence of a spec among some
composite's primitives (the rule catalog's subscriptions name it the
consumer of those specs), and reports a composite occurrence when the
automaton completes.

Semantics (documented choices where the paper is silent):

* **Disjunction** — every occurrence of any member is an occurrence of the
  composite.
* **Sequence** — members must occur in order; a member occurrence advances
  the automaton only when it is the next expected member, and constituent
  occurrences are *consumed* (after the composite fires the automaton
  resets).
* **Conjunction** (extension) — the latest occurrence of each member is
  retained; when all members have occurred the composite fires and resets.

Members may themselves be composite (automata nest).  A composite
occurrence carries its constituent signals; its timestamp and transaction
are those of the *completing* constituent.

Known limitation (the paper does not address it): constituent occurrences
are consumed at operation time, so a constituent contributed by a
transaction that later aborts still counts toward the composite.  Handling
event consumption under aborts is part of the composite-event semantics
literature that followed HiPAC (e.g. Snoop/SAMOS).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.errors import EventError
from repro.events.detectors import EventDetector, EventSink
from repro.events.matching import matches_primitive
from repro.events.signal import EventSignal
from repro.events.spec import (
    CompositeEventSpec,
    Conjunction,
    Disjunction,
    EventSpec,
    Sequence,
)
from repro.objstore.types import Schema


class _Automaton:
    """Recognizer for one (possibly nested) event spec."""

    def __init__(self, spec: EventSpec, schema: Optional[Schema]) -> None:
        self.spec = spec
        self._schema = schema
        if isinstance(spec, CompositeEventSpec):
            self.children = [_Automaton(member, schema) for member in spec.members]
        else:
            self.children = []
        # Sequence state: index of the next expected member; collected signals.
        self._next_index = 0
        self._collected: List[EventSignal] = []
        # Conjunction state: member index -> latest occurrence.
        self._latest: Dict[int, EventSignal] = {}

    def feed(self, signal: EventSignal) -> List[EventSignal]:
        """Consume one signal; return composite occurrences recognized."""
        if not isinstance(self.spec, CompositeEventSpec):
            if matches_primitive(self.spec, signal, self._schema):
                return [signal]
            return []
        if isinstance(self.spec, Disjunction):
            occurrences: List[EventSignal] = []
            for child in self.children:
                for inner in child.feed(signal):
                    occurrences.append(self._emit((inner,)))
            return occurrences
        if isinstance(self.spec, Sequence):
            child = self.children[self._next_index]
            inner = child.feed(signal)
            if not inner:
                return []
            self._collected.append(inner[0])
            self._next_index += 1
            if self._next_index < len(self.children):
                return []
            constituents = tuple(self._collected)
            self._next_index = 0
            self._collected = []
            return [self._emit(constituents)]
        if isinstance(self.spec, Conjunction):
            fired = None
            for index, child in enumerate(self.children):
                inner = child.feed(signal)
                if inner:
                    self._latest[index] = inner[0]
                    fired = inner[0]
            if fired is not None and len(self._latest) == len(self.children):
                constituents = tuple(self._latest[i] for i in range(len(self.children)))
                self._latest = {}
                # Constituents stay in member order, but the occurrence
                # happens *now*: timestamp/transaction come from the
                # completing signal (earlier constituents' transactions may
                # long since have finished).
                return [self._emit(constituents, completing=fired)]
            return []
        raise EventError("unknown composite spec: %r" % self.spec)  # pragma: no cover

    def _emit(self, constituents, completing=None) -> EventSignal:
        last = completing if completing is not None else constituents[-1]
        signal = EventSignal(
            kind="composite",
            timestamp=last.timestamp,
            txn=last.txn,
            constituents=tuple(constituents),
        )
        signal.spec = self.spec
        return signal

    def reset(self) -> None:
        """Clear all partial state (recursively)."""
        self._next_index = 0
        self._collected = []
        self._latest = {}
        for child in self.children:
            child.reset()


class CompositeEventDetector(EventDetector):
    """Detects composite events by feeding automata with primitive signals.

    The Rule Manager calls :meth:`observe` with every occurrence of a
    composite's primitive spec; recognized composite occurrences are
    reported to the sink like any other event.
    """

    accepts = CompositeEventSpec

    def __init__(self, sink: Optional[EventSink] = None,
                 schema: Optional[Schema] = None) -> None:
        super().__init__(sink)
        self._schema = schema
        self._automata: Dict[EventSpec, _Automaton] = {}
        self._mutex = threading.RLock()
        self.stats.update({"feeds": 0})

    def _installed(self, spec: CompositeEventSpec) -> None:  # type: ignore[override]
        with self._mutex:
            self._automata[spec] = _Automaton(spec, self._schema)

    def _removed(self, spec: CompositeEventSpec) -> None:  # type: ignore[override]
        with self._mutex:
            self._automata.pop(spec, None)

    def observe(self, signal: EventSignal) -> List[EventSignal]:
        """Feed one signal to every automaton; report recognized composites.

        Returns the composite occurrences (mainly for tests)."""
        if signal.kind == "composite":
            # Composite occurrences do not feed other composites (no
            # composite-of-composite at the detector boundary; nesting is
            # expressed inside a single spec).
            return []
        self.stats["feeds"] += 1
        with self._mutex:
            automata = list(self._automata.values())
        occurrences: List[EventSignal] = []
        for automaton in automata:
            with self._mutex:
                recognized = automaton.feed(signal)
            occurrences.extend(recognized)
        # One report per occurrence: a batch would merge their priority
        # sorts and change the firing order.
        for occurrence in occurrences:
            self.report_batch(
                [(occurrence.spec, occurrence)])  # type: ignore[list-item]
        return occurrences

    def reset(self) -> None:
        """Clear partial automaton state (between experiment runs)."""
        with self._mutex:
            for automaton in self._automata.values():
                automaton.reset()
