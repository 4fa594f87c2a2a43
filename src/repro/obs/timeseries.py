"""Windowed telemetry: a background ticker over the metrics registry.

Every histogram in :mod:`repro.obs.metrics` and every collected component
stat is cumulative-since-boot, which answers "how much, ever" but not the
operational questions — "what is commit p99 *right now*", "is the firing
rate climbing".  This module adds the time dimension without an external
TSDB: a daemon thread snapshots the registry every ``interval`` seconds,
subtracts the previous snapshot, and appends the resulting *window*
(collected-stat deltas, histogram bucket-count deltas) to a bounded
in-memory ring.  Windowed percentiles come from the bucket-count differences
(:class:`~repro.obs.metrics.HistogramState` /
:func:`~repro.obs.metrics.window_summary`), so a window's p99
describes that window alone — the rates and tails every scraper used to
re-derive client-side are now computed once, server-side.

Design constraints:

1. **Bounded memory.**  The ring is a ``deque(maxlen=capacity)``; each
   window stores only the *nonzero* deltas, so idle windows are a few
   dozen bytes and a day of 1-second windows at the default capacity
   (600 — ten minutes) can never accumulate.
2. **Negligible overhead.**  A tick is one pass over the instruments
   (shard merges, tuple copies — no percentile math; summaries are
   computed lazily when a reader asks) plus one collector pull.  When a
   window comes back *idle* (no stat or histogram activity) the
   ticker backs off, doubling its delay up to ``idle_backoff`` — so the
   hundreds of short-lived HiPAC instances a test suite creates cost a
   handful of wakeups, not one per second each.
3. **Callbacks ride the tick.**  The SLO monitor (:mod:`repro.obs.slo`),
   which also runs the windowed anomaly detectors, registers a callback
   that runs after every window — even idle ones, because burn rates
   must be able to *recover* while traffic is absent.  Callback
   exceptions are counted, never propagated into the ticker loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from functools import reduce
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple)

from repro.obs.metrics import (
    HistogramState,
    MetricsRegistry,
    format_name,
    window_summary,
)

#: collected-stats keys excluded from idleness detection (the ticker's own
#: bookkeeping — and the SLO evaluations it drives — must not keep the
#: ticker awake)
_SELF_PREFIXES = ("timeseries_", "slo_")

#: the keys of :attr:`TimeseriesRing.stats`, the ``stats()["timeseries"]``
#: section
STATS_KEYS = ("ticks", "idle_ticks", "tick_errors", "callback_errors",
              "windows", "capacity", "interval_ms")


class Window:
    """One tick's worth of deltas (only nonzero entries are stored)."""

    __slots__ = ("seq", "t", "dt", "collected", "histograms", "idle")

    def __init__(self, seq: int, t: float, dt: float,
                 collected: Dict[str, float],
                 histograms: Dict[str, HistogramState], idle: bool) -> None:
        self.seq = seq
        self.t = t          #: wall-clock end of the window
        self.dt = dt        #: seconds covered
        self.collected = collected    #: component-stat deltas
        self.histograms = histograms  #: bucket-count deltas
        self.idle = idle


class TimeseriesRing:
    """Bounded ring of metric windows, fed by a background ticker.

    ``tick()`` may also be called directly (tests drive it with a fake
    clock); ``start()`` spawns the daemon thread that calls it on the
    wall clock.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 interval: float = 1.0, capacity: int = 600,
                 idle_backoff: Optional[float] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.registry = registry
        self.interval = max(0.01, float(interval))
        self.capacity = max(2, int(capacity))
        self.idle_backoff = (idle_backoff if idle_backoff is not None
                             else self.interval * 10.0)
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: Deque[Window] = deque(maxlen=self.capacity)
        self._bounds: Dict[str, Tuple[float, ...]] = {}
        self._prev_collected: Dict[str, float] = {}
        self._prev_hists: Dict[str, HistogramState] = {}
        self._last_t: Optional[float] = None
        self._seq = 0
        self._ticks = 0
        self._idle_ticks = 0
        self._tick_errors = 0
        self._callback_errors = 0
        self._callbacks: List[Callable[[Window], None]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- ticking

    def add_callback(self, callback: Callable[[Window], None]) -> None:
        """Run ``callback(window)`` after every tick (idle ones included)."""
        with self._lock:
            self._callbacks.append(callback)

    def tick(self, now: Optional[float] = None) -> Window:
        """Snapshot the registry, append one window, run the callbacks."""
        if now is None:
            now = self._clock()
        hist_states: Dict[str, HistogramState] = {}
        for histogram in self.registry.instruments():
            rendered = format_name(histogram.name, histogram.labels)
            hist_states[rendered] = histogram.state()
            if rendered not in self._bounds:
                self._bounds[rendered] = histogram.bounds
        collected = self.registry.collected()
        with self._lock:
            dt = (now - self._last_t) if self._last_t is not None \
                else self.interval
            dt = max(dt, 1e-9)
            collected_deltas = {
                name: value - self._prev_collected.get(name, 0)
                for name, value in collected.items()
                if isinstance(value, (int, float))
                and value - self._prev_collected.get(name, 0)}
            hist_deltas = {}
            for name, state in hist_states.items():
                delta = state.delta(self._prev_hists.get(name))
                if delta.count:
                    hist_deltas[name] = delta
            idle = not hist_deltas and all(
                key.startswith(_SELF_PREFIXES)
                for key in collected_deltas)
            self._seq += 1
            window = Window(self._seq, now, dt, collected_deltas,
                            hist_deltas, idle)
            self._windows.append(window)
            self._prev_collected = {
                name: value for name, value in collected.items()
                if isinstance(value, (int, float))}
            self._prev_hists = hist_states
            self._last_t = now
            self._ticks += 1
            if idle:
                self._idle_ticks += 1
            callbacks = list(self._callbacks)
        for callback in callbacks:
            try:
                callback(window)
            except Exception:
                with self._lock:
                    self._callback_errors += 1
        return window

    # ------------------------------------------------------ background loop

    def start(self) -> None:
        """Spawn the ticker daemon (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="hipac-timeseries")
        self._thread.start()

    def stop(self) -> None:
        """Stop the ticker and join it (idempotent)."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        delay = self.interval
        while not self._stop.wait(delay):
            started = time.perf_counter()
            try:
                window = self.tick()
            except Exception:
                with self._lock:
                    self._tick_errors += 1
                delay = self.idle_backoff
                continue
            # Idle instances back off (a test suite holds hundreds of
            # engines open); any activity snaps back to the interval.
            if window.idle:
                delay = min(delay * 2.0, self.idle_backoff)
            else:
                delay = self.interval
            delay = max(0.01, delay - (time.perf_counter() - started))

    # --------------------------------------------------------------- views

    def windows(self, last: Optional[int] = None) -> List[Window]:
        """The newest ``last`` windows, oldest first (all if ``None``)."""
        with self._lock:
            items = list(self._windows)
        if last is not None and last >= 0:
            items = items[len(items) - min(last, len(items)):]
        return items

    def _select(self, seconds: float,
                now: Optional[float] = None) -> List[Window]:
        if now is None:
            with self._lock:
                now = self._last_t if self._last_t is not None \
                    else self._clock()
        cutoff = now - seconds
        return [window for window in self.windows() if window.t > cutoff]

    @staticmethod
    def _fold(windows: List[Window],
              pick: Callable[[Window], Tuple[Iterable[Any], Iterable[Any]]]
              ) -> Tuple[float, Dict[str, float], Dict[str, HistogramState]]:
        """The one windowed sum: ``(covered seconds, stat deltas, merged
        histogram states)`` of the entries ``pick(window)`` yields."""
        elapsed = 0.0
        collected: Dict[str, float] = {}
        merged: Dict[str, HistogramState] = {}
        for window in windows:
            elapsed += window.dt
            stats, histograms = pick(window)
            for name, delta in stats:
                collected[name] = collected.get(name, 0) + delta
            for name, state in histograms:
                merged[name] = state.plus(merged.get(name))
        return elapsed, collected, merged

    def aggregate(self, windows: List[Window]) -> Dict[str, Any]:
        """Merge ``windows`` (as :meth:`windows` returns them).

        Collected-stat deltas sum; histogram bucket counts sum and
        yield the merged percentiles; rates divide by the covered time
        (the sum of the windows' ``dt``).
        """
        elapsed, collected, merged = self._fold(
            windows, lambda window: (window.collected.items(),
                                     window.histograms.items()))
        safe_elapsed = max(elapsed, 1e-9)
        return {
            "elapsed": elapsed,
            "windows": len(windows),
            "collected": {name: {"delta": delta,
                                 "rate": delta / safe_elapsed}
                          for name, delta in sorted(collected.items())},
            "histograms": {
                name: window_summary(self._bounds.get(name, ()), state)
                for name, state in sorted(merged.items())},
        }

    def histogram_raw_window(self, name: str, seconds: float,
                             now: Optional[float] = None
                             ) -> Tuple[HistogramState, Tuple[float, ...]]:
        """Merged bucket-count deltas + bounds for the trailing window
        (the SLO monitor computes bad-event fractions from these).

        ``name`` may be a rendered instrument name or a bare family name
        — a bare name merges every labeled child (children of one family
        share their bucket bounds).
        """
        _, _, children = self._fold(
            self._select(seconds, now), lambda window: ((), (
                (key, state) for key, state in window.histograms.items()
                if key == name or key.split("{", 1)[0] == name)))
        if not children:
            return HistogramState((), 0.0, 0), self._bounds.get(name, ())
        return (reduce(HistogramState.plus, children.values()),
                self._bounds.get(name) or self._bounds[next(iter(children))])

    def counter_window(self, name: str, seconds: float,
                       now: Optional[float] = None) -> Tuple[float, float]:
        """``(delta, covered_seconds)`` for one collected stat."""
        covered, collected, _ = self._fold(
            self._select(seconds, now),
            lambda window: (((name, window.collected.get(name, 0)),), ()))
        return float(collected.get(name, 0.0)), covered

    def level(self, name: str) -> float:
        """One collected stat as of the newest tick: a level, such as a
        queue depth, whose window deltas say nothing."""
        with self._lock:
            return self._prev_collected.get(name, 0.0)

    # --------------------------------------------------------------- stats

    @property
    def stats(self) -> Dict[str, float]:
        with self._lock:
            return dict(zip(STATS_KEYS, (
                self._ticks, self._idle_ticks, self._tick_errors,
                self._callback_errors, len(self._windows), self.capacity,
                self.interval * 1e3)))

    def window_dict(self, window: Window) -> Dict[str, Any]:
        """JSON-safe rendering of one window (summaries computed here)."""
        return {
            "seq": window.seq,
            "t": window.t,
            "dt": window.dt,
            "idle": window.idle,
            "collected": dict(window.collected),
            "histograms": {
                name: window_summary(self._bounds.get(name, ()), state)
                for name, state in window.histograms.items()},
        }

    def as_dict(self, last: int = 60) -> Dict[str, Any]:
        """The snapshot's ``timeseries`` section: the newest ``last``
        windows and their :meth:`aggregate`."""
        windows = self.windows(last)
        return {
            "interval": self.interval,
            "stats": self.stats,
            "windows": [self.window_dict(window) for window in windows],
            "aggregate": self.aggregate(windows),
        }
