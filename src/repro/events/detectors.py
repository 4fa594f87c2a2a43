"""Event-detector base machinery (paper §5.3).

"Event Detectors are responsible for reporting the occurrence of primitive
events to the Rule Manager. ... When a rule is created, the appropriate
event detector(s) is (are) programmed to detect and report the primitive
events that can trigger the rule."

Every detector implements the paper's four-operation interface:

* ``define_event(spec)`` — program the detector to report occurrences;
* ``delete_event(spec)`` — cease detection (reference counted: several rules
  may share one event);
* ``disable_event(spec)`` / ``enable_event(spec)`` — suspend/resume
  reporting without forgetting the programming (used by rule disable).

Detectors report to a *sink* — ``sink(signal)`` — wired to
``RuleManager.signal_event`` by the facade.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import EventError
from repro.events.signal import EventSignal
from repro.events.spec import EventSpec
from repro.obs.metrics import MetricsRegistry

EventSink = Callable[[EventSignal], None]
"""Destination of detected events (the Rule Manager's signal operation)."""

BatchEventSink = Callable[[List[EventSignal]], None]
"""Batched destination: all reports of *one* observed operation at once."""


class SubscriptionIndex:
    """Discrimination index from hashable keys to programmed event specs.

    Detectors derive one or more keys from each spec at programming time
    (:meth:`EventDetector._installed`) and from each observed signal at
    detection time; the candidate specs for a signal are the union of the
    buckets its keys hit.  An operation with no programmed subscriber is a
    dict miss — detection cost scales with *relevant* specs, not total
    specs.  Buckets preserve programming order for deterministic reports.
    """

    __slots__ = ("_buckets",)

    def __init__(self) -> None:
        self._buckets: Dict[Hashable, List[EventSpec]] = {}

    def add(self, key: Hashable, spec: EventSpec) -> None:
        self._buckets.setdefault(key, []).append(spec)

    def discard(self, key: Hashable, spec: EventSpec) -> None:
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        try:
            bucket.remove(spec)
        except ValueError:
            return
        if not bucket:
            del self._buckets[key]

    def get(self, key: Hashable) -> Sequence[EventSpec]:
        return self._buckets.get(key, ())

    def __contains__(self, key: Hashable) -> bool:
        return key in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)


class _Registration:
    """Book-keeping for one programmed event spec."""

    __slots__ = ("spec", "refcount", "enabled")

    def __init__(self, spec: EventSpec) -> None:
        self.spec = spec
        self.refcount = 1
        self.enabled = True


class EventDetector:
    """Base class implementing the define/delete/enable/disable protocol.

    Subclasses add the actual detection (observing database operations,
    clock time, or application signals) and call :meth:`report` for each
    occurrence of a programmed, enabled spec.
    """

    #: subclasses set this to the EventSpec subclass they accept
    accepts: type = EventSpec

    def __init__(self, sink: Optional[EventSink] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.sink = sink
        #: batched sink: when wired, all reports of one observed operation
        #: are delivered in a single call (the Rule Manager processes the
        #: union of triggered rules with one priority sort, §6.2)
        self.sink_batch: Optional[BatchEventSink] = None
        self._metrics = metrics or MetricsRegistry(enabled=False)
        self._registrations: Dict[EventSpec, _Registration] = {}
        self.stats = {"defined": 0, "reported": 0, "suppressed": 0}

    # ------------------------------------------------- paper §5.3 interface

    def define_event(self, spec: EventSpec) -> None:
        """Program the detector to report occurrences of ``spec``."""
        if not isinstance(spec, self.accepts):
            raise EventError(
                "%s cannot detect %r" % (type(self).__name__, spec)
            )
        registration = self._registrations.get(spec)
        if registration is not None:
            registration.refcount += 1
            return
        self._registrations[spec] = _Registration(spec)
        self.stats["defined"] += 1
        self._installed(spec)

    def delete_event(self, spec: EventSpec) -> None:
        """Cease detecting ``spec`` (when its reference count reaches zero)."""
        registration = self._registrations.get(spec)
        if registration is None:
            raise EventError("event not defined on this detector: %r" % spec)
        registration.refcount -= 1
        if registration.refcount <= 0:
            del self._registrations[spec]
            self._removed(spec)

    def disable_event(self, spec: EventSpec) -> None:
        """Suspend detection and signalling of ``spec``."""
        self._registration(spec).enabled = False

    def enable_event(self, spec: EventSpec) -> None:
        """Resume detection and signalling of ``spec``."""
        self._registration(spec).enabled = True

    def is_defined(self, spec: EventSpec) -> bool:
        """True if ``spec`` is currently programmed."""
        return spec in self._registrations

    def registered_specs(self) -> List[EventSpec]:
        """All currently programmed specs (programming order).

        The flight-recorder replay engine resolves journalled temporal
        occurrences back to their programmed specs through this list."""
        return [reg.spec for reg in self._registrations.values()]

    def is_enabled(self, spec: EventSpec) -> bool:
        """True if ``spec`` is programmed and enabled."""
        registration = self._registrations.get(spec)
        return registration is not None and registration.enabled

    # -------------------------------------------------------------- helpers

    def _registration(self, spec: EventSpec) -> _Registration:
        registration = self._registrations.get(spec)
        if registration is None:
            raise EventError("event not defined on this detector: %r" % spec)
        return registration

    def _installed(self, spec: EventSpec) -> None:
        """Subclass hook: a new spec was programmed."""

    def _removed(self, spec: EventSpec) -> None:
        """Subclass hook: a spec's last reference was deleted."""

    def report(self, spec: EventSpec, signal: EventSignal) -> None:
        """Send ``signal`` (an occurrence of ``spec``) to the sink.

        Suppressed when the spec is disabled or when no sink is wired.
        """
        registration = self._registrations.get(spec)
        if registration is None or not registration.enabled:
            self.stats["suppressed"] += 1
            return
        if self.sink is None:
            self.stats["suppressed"] += 1
            return
        signal.spec = spec
        self.stats["reported"] += 1
        self.sink(signal)

    def report_batch(self, pairs: List[Tuple[EventSpec, EventSignal]]) -> None:
        """Send all reports of *one* observed operation to the sink.

        Each pair carries its own signal object (the detector tags
        ``signal.spec`` per report); deliverable reports go to
        :attr:`sink_batch` in a single call when wired, so the Rule Manager
        can fire the union of triggered rules with one priority sort and one
        coupling partition instead of once per spec-tagged copy.  Without a
        batched sink each report is delivered individually, preserving the
        single-signal protocol.
        """
        deliverable: List[EventSignal] = []
        for spec, signal in pairs:
            registration = self._registrations.get(spec)
            if registration is None or not registration.enabled:
                self.stats["suppressed"] += 1
                continue
            if self.sink is None and self.sink_batch is None:
                self.stats["suppressed"] += 1
                continue
            signal.spec = spec
            self.stats["reported"] += 1
            deliverable.append(signal)
        if not deliverable:
            return
        if self.sink_batch is not None:
            self.sink_batch(deliverable)
        else:
            assert self.sink is not None
            for signal in deliverable:
                self.sink(signal)
