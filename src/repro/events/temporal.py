"""The temporal event detector (paper §2.1, §5.3).

Supports the paper's three temporal event forms:

* **absolute** — fires once at the specified time (a spec whose time is
  already in the past never fires);
* **relative** — fires ``offset`` seconds after each occurrence of the
  baseline event;
* **periodic** — fires every ``period`` seconds; anchored at definition
  time, or re-anchored at each baseline occurrence when a baseline is given.

The detector is driven by an injected :class:`~repro.clock.Clock`.  With a
:class:`~repro.clock.VirtualClock`, a single ``advance`` fires every timer
that became due during the interval, in deadline order, synchronously —
which makes temporal experiments deterministic.

Baseline occurrences reach the detector through :meth:`observe_baseline`,
called by the Rule Manager for every signal it processes.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.core import tracing
from repro.events.composite import interest_keys, signal_interest_key
from repro.events.detectors import EventDetector, EventSink
from repro.events.matching import matches_primitive
from repro.events.signal import EventSignal
from repro.events.spec import EventSpec, TemporalEventSpec
from repro.objstore.types import Schema


class TemporalEventDetector(EventDetector):
    """Schedules and fires temporal events off the injected clock."""

    accepts = TemporalEventSpec

    def __init__(self, clock: Clock, sink: Optional[EventSink] = None,
                 tracer: Optional[tracing.Tracer] = None,
                 schema: Optional[Schema] = None) -> None:
        super().__init__(sink, tracer)
        self._clock = clock
        self._schema = schema
        #: flight recorder (wired by the facade); temporal occurrences are
        #: journalled so replay can re-fire them at the recorded instants
        self.recorder = None
        self._heap: List[Tuple[float, int, TemporalEventSpec]] = []
        self._seq = itertools.count()
        self._mutex = threading.RLock()
        #: specs with a baseline (the only ones observe_baseline must scan)
        self._baseline_specs: List[TemporalEventSpec] = []
        #: (kind, op/name) -> number of baselines wanting that signal
        self._baseline_interest: Dict[tuple, int] = {}
        self.stats.update({"baseline_feeds": 0, "baseline_feeds_skipped": 0})
        clock.subscribe(self._on_clock)

    def close(self) -> None:
        """Detach from the clock (for detectors with bounded lifetime)."""
        self._clock.unsubscribe(self._on_clock)

    # ----------------------------------------------------------- scheduling

    def _installed(self, spec: TemporalEventSpec) -> None:  # type: ignore[override]
        now = self._clock.now()
        with self._mutex:
            if spec.kind == "absolute":
                if spec.at is not None and spec.at > now:
                    self._push(spec.at, spec)
            elif spec.kind == "periodic" and spec.baseline is None:
                assert spec.period is not None
                self._push(now + spec.offset + spec.period, spec)
            # relative and baseline-periodic events wait for the baseline
            if spec.baseline is not None:
                self._baseline_specs.append(spec)
                for key in interest_keys(spec.baseline):
                    self._baseline_interest[key] = \
                        self._baseline_interest.get(key, 0) + 1

    def _removed(self, spec: TemporalEventSpec) -> None:  # type: ignore[override]
        with self._mutex:
            self._heap = [entry for entry in self._heap if entry[2] != spec]
            heapq.heapify(self._heap)
            if spec.baseline is not None:
                if spec in self._baseline_specs:
                    self._baseline_specs.remove(spec)
                for key in interest_keys(spec.baseline):
                    remaining = self._baseline_interest.get(key, 0) - 1
                    if remaining <= 0:
                        self._baseline_interest.pop(key, None)
                    else:
                        self._baseline_interest[key] = remaining

    def wants_baseline(self, signal: EventSignal) -> bool:
        """True when some programmed relative/periodic spec's baseline could
        match ``signal`` — the Rule Manager's subscription-driven feed; most
        signals skip :meth:`observe_baseline` entirely.

        Conservative (keyed on ``(kind, op/name)`` only)."""
        if signal_interest_key(signal) in self._baseline_interest:
            return True
        self.stats["baseline_feeds_skipped"] += 1
        return False

    def _push(self, due: float, spec: TemporalEventSpec) -> None:
        heapq.heappush(self._heap, (due, next(self._seq), spec))

    def observe_baseline(self, signal: EventSignal) -> None:
        """Schedule timers for relative/periodic specs whose baseline is
        ``signal``'s event.  Called by the Rule Manager for signals in the
        baseline interest set."""
        self.stats["baseline_feeds"] += 1
        with self._mutex:
            specs = list(self._baseline_specs)
        for spec in specs:
            if not self._baseline_matches(spec.baseline, signal):
                continue
            with self._mutex:
                if spec.kind == "relative":
                    self._push(signal.timestamp + spec.offset, spec)
                elif spec.kind == "periodic":
                    assert spec.period is not None
                    # Re-anchor: drop any previously scheduled occurrence.
                    self._heap = [entry for entry in self._heap if entry[2] != spec]
                    heapq.heapify(self._heap)
                    self._push(signal.timestamp + spec.offset + spec.period, spec)

    def _baseline_matches(self, baseline: EventSpec, signal: EventSignal) -> bool:
        if baseline.is_composite():
            return signal.spec == baseline
        return matches_primitive(baseline, signal, self._schema)

    # ----------------------------------------------------------- clock hook

    def _on_clock(self, now: float) -> None:
        """Fire every due timer, in deadline order."""
        while True:
            with self._mutex:
                if not self._heap or self._heap[0][0] > now:
                    return
                due, _seq, spec = heapq.heappop(self._heap)
                if spec not in self._registrations:
                    continue
                if spec.kind == "periodic":
                    assert spec.period is not None
                    self._push(due + spec.period, spec)
            signal = EventSignal(kind="temporal", timestamp=due, info=spec.info)
            if self.recorder is not None:
                # Journalled before delivery; the spec repr lets replay
                # resolve the registered spec to report against.
                seq = self.recorder.record_signal(signal, spec_repr=repr(spec))
                if seq is not None:
                    # Provenance addresses downstream writes by this seq.
                    signal._journal_seq = seq
            # Reporting happens outside the mutex: rule firings triggered by
            # a temporal event may define further temporal events.
            self.report(spec, signal)

    def pending_count(self) -> int:
        """Number of scheduled timers (diagnostics and benchmarks)."""
        with self._mutex:
            return len(self._heap)
