"""Anomaly watchdogs for the failure modes the execution model invites.

An active rule base has hazards a passive DBMS does not: a rule whose
action re-triggers itself cascades without bound (§3.2 — the classic
non-terminating rule set the declarative-semantics literature exists to
tame), deferred firings pile up on a transaction until its commit wedges
(§6.3), one mis-fired rule turns an event stream into a firing storm, and
lock waits stretch when separate-coupling firings contend with their
triggering transactions.  The watchdog turns each hazard into a named
detector with a threshold, a bounded alert log, and pluggable callbacks —
so the admin ``/health`` endpoint can answer "is this instance okay?"
without a human reading histograms.

Detectors run **in-process**, split across the two natural hook points
(DESIGN decision 13):

* **inline feeds** — the Rule Manager and Lock Manager call
  :meth:`Watchdog.note_firing`, :meth:`note_cascade_limit`,
  :meth:`note_deferred_depth`, and :meth:`note_lock_wait` at the moment the
  measured thing happens.  Feeds are cheap (a deque append and a compare)
  and fire alerts for the hazards that must be caught *before* they wedge
  anything: the cascade-depth breach aborts the runaway transaction, the
  deferred-depth check trips at the commit that would drain the queue.
* **pull-path checks** — :meth:`check` runs the detectors that need an
  aggregate view (lock-wait p95 over the recent window) and is invoked by
  whoever reads health (the admin server, ``HiPAC.health()``), so a quiet
  system pays nothing for them.

Alert storms are self-limiting: each detector re-alerts at most once per
``realert_interval`` seconds, and the alert log is a bounded ring
(evictions counted), so a misbehaving rule base cannot also exhaust the
observer's memory.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

#: alert severities, in increasing order of operator urgency
WARNING = "warning"
CRITICAL = "critical"

#: detector kinds
RULE_STORM = "rule_storm"
CASCADE_DEPTH = "cascade_depth"
DEFERRED_QUEUE = "deferred_queue"
LOCK_WAIT = "lock_wait"
SLO_BURN = "slo_burn"

KINDS = (RULE_STORM, CASCADE_DEPTH, DEFERRED_QUEUE, LOCK_WAIT, SLO_BURN)


@dataclass(frozen=True)
class Alert:
    """One detector trip."""

    kind: str          #: detector that fired (one of :data:`KINDS`)
    severity: str      #: :data:`WARNING` or :data:`CRITICAL`
    message: str       #: human-readable account
    value: float       #: measured value that crossed the threshold
    threshold: float   #: threshold in force when it crossed
    timestamp: float   #: wall-clock time (``time.time()``)

    def format(self) -> str:
        return "[%s] %-14s %s (%.4g over threshold %.4g)" % (
            self.severity, self.kind, self.message, self.value,
            self.threshold)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON form ``/health``, ``/alerts`` and forensics bundles use."""
        return asdict(self)


@dataclass
class WatchdogConfig:
    """Thresholds of the anomaly detectors (0 / None disables a detector).

    * ``rule_storm_rate`` — sustained rule firings per second above which
      the storm detector trips (measured over ``rule_storm_window``
      seconds of wall time).
    * ``deferred_queue_limit`` — deferred firings drained in one commit
      round (§6.3) above which the queue detector trips.
    * ``lock_wait_p95_limit`` — p95 of the last ``lock_wait_samples``
      observed lock waits (seconds) above which the wait-spike detector
      trips; checked on the pull path.
    * ``lock_wait_min_samples`` — waits required in the window before the
      p95 is trusted (a single slow wait is the slow log's job).
    """

    rule_storm_rate: float = 0.0
    rule_storm_window: float = 1.0
    deferred_queue_limit: int = 10000
    lock_wait_p95_limit: float = 0.0
    lock_wait_samples: int = 256
    lock_wait_min_samples: int = 20
    #: minimum seconds between two alerts of the same kind
    realert_interval: float = 1.0
    #: bounded alert-log capacity (evictions counted in ``dropped``)
    alert_capacity: int = 256


AlertCallback = Callable[[Alert], None]


class Watchdog:
    """Bounded-alert-log anomaly detectors with pluggable callbacks.

    Thread safe: feeds arrive from the signalling thread, separate-firing
    threads, and lock waiters; one lock guards the rings and the alert
    log (feeds are per-firing / per-wait events, never per-operation, so
    the lock is far off the microsecond hot paths the metrics registry
    protects with sharding).
    """

    def __init__(self, config: Optional[WatchdogConfig] = None,
                 enabled: bool = True,
                 metrics: Optional[Any] = None) -> None:
        self.config = config or WatchdogConfig()
        self.enabled = enabled
        #: optional metrics registry: every alert increments the labeled
        #: ``watchdog_alerts_total{kind="..."}`` counter so the per-kind
        #: breakdown reaches the Prometheus exposition (alerts are rare
        #: events, so the registry lookup per alert costs nothing that
        #: matters)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._alerts: Deque[Alert] = deque(maxlen=self.config.alert_capacity)
        self._callbacks: List[AlertCallback] = []
        self._last_alert: Dict[str, float] = {}
        #: monotonic timestamps of recent firings (storm window)
        self._firing_times: Deque[float] = deque()
        #: recent lock-wait durations, newest last (pull-path p95)
        self._lock_waits: Deque[float] = deque(
            maxlen=max(1, self.config.lock_wait_samples))
        self.dropped = 0
        self.stats: Dict[str, int] = {"alerts_total": 0}
        for kind in KINDS:
            self.stats["alerts_%s" % kind] = 0

    # ------------------------------------------------------------ callbacks

    def add_callback(self, callback: AlertCallback) -> None:
        """Invoke ``callback(alert)`` for every alert (from the thread
        that detected it; callbacks must be fast and must not raise)."""
        with self._lock:
            self._callbacks.append(callback)

    # ---------------------------------------------------------------- feeds

    def note_firing(self) -> Optional[Alert]:
        """Inline feed: one rule firing happened now (storm detector)."""
        rate_limit = self.config.rule_storm_rate
        if not self.enabled or rate_limit <= 0:
            return None
        now = time.monotonic()
        window = self.config.rule_storm_window
        with self._lock:
            times = self._firing_times
            times.append(now)
            horizon = now - window
            while times and times[0] < horizon:
                times.popleft()
            count = len(times)
        rate = count / window
        if rate <= rate_limit:
            return None
        return self._alert(
            RULE_STORM, WARNING,
            "%d rule firings in the last %.2gs (%.1f/s)"
            % (count, window, rate),
            value=rate, threshold=rate_limit)

    def note_cascade_limit(self, depth: int, description: str) -> Optional[Alert]:
        """Inline feed: a cascade hit the depth bound and is being cut."""
        if not self.enabled:
            return None
        return self._alert(
            CASCADE_DEPTH, CRITICAL,
            "rule cascade cut at depth %d (%s)" % (depth, description),
            value=float(depth), threshold=float(depth))

    def note_deferred_depth(self, depth: int) -> Optional[Alert]:
        """Inline feed: a commit is draining ``depth`` deferred firings."""
        limit = self.config.deferred_queue_limit
        if not self.enabled or limit <= 0 or depth <= limit:
            return None
        return self._alert(
            DEFERRED_QUEUE, WARNING,
            "commit draining %d deferred rule firings" % depth,
            value=float(depth), threshold=float(limit))

    def note_lock_wait(self, seconds: float) -> None:
        """Inline feed: one lock request waited ``seconds`` (the p95 check
        itself runs on the pull path, see :meth:`check`)."""
        if not self.enabled:
            return
        with self._lock:
            self._lock_waits.append(seconds)

    def note_slo(self, objective: str, state: str, burn: float,
                 threshold: float = 1.0) -> Optional[Alert]:
        """Feed from the SLO monitor: ``objective`` entered a burning or
        breached state with error-budget burn rate ``burn``.

        Always WARNING, never CRITICAL: a burning budget degrades health
        but must not flip it to failing — that level is reserved for
        broken durability and cut cascades.
        """
        if not self.enabled:
            return None
        return self._alert(
            SLO_BURN, WARNING,
            "SLO %s %s (burn rate %.2fx budget)" % (objective, state, burn),
            value=burn, threshold=threshold)

    # ------------------------------------------------------- pull-path check

    def check(self, deferred_depth: Optional[int] = None) -> List[Alert]:
        """Run the pull-path detectors; returns alerts raised by this call.

        Invoked by health readers (the admin server, ``HiPAC.health()``)
        and by the timeseries ticker on every window — so aggregate
        detectors fire without an external scraper attached, and still
        cost nothing per operation.

        ``deferred_depth`` is the *standing* deferred-queue depth across
        live transactions (the ticker passes it): the inline
        :meth:`note_deferred_depth` feed only sees a queue when its
        commit drains it, so a wedged transaction accumulating deferred
        work forever would otherwise never trip the detector.
        """
        if not self.enabled:
            return []
        raised: List[Alert] = []
        limit = self.config.lock_wait_p95_limit
        if limit > 0:
            with self._lock:
                waits = sorted(self._lock_waits)
            if len(waits) >= max(1, self.config.lock_wait_min_samples):
                p95 = waits[min(len(waits) - 1, int(0.95 * len(waits)))]
                if p95 > limit:
                    alert = self._alert(
                        LOCK_WAIT, WARNING,
                        "lock-wait p95 %.3fs over last %d waits"
                        % (p95, len(waits)),
                        value=p95, threshold=limit)
                    if alert is not None:
                        raised.append(alert)
        queue_limit = self.config.deferred_queue_limit
        if (deferred_depth is not None and queue_limit > 0
                and deferred_depth > queue_limit):
            alert = self._alert(
                DEFERRED_QUEUE, WARNING,
                "standing deferred backlog of %d firings across live "
                "transactions" % deferred_depth,
                value=float(deferred_depth), threshold=float(queue_limit))
            if alert is not None:
                raised.append(alert)
        return raised

    # ---------------------------------------------------------------- views

    def alerts(self, kind: Optional[str] = None) -> List[Alert]:
        """Recorded alerts, oldest first (optionally one detector's)."""
        with self._lock:
            alerts = list(self._alerts)
        if kind is not None:
            alerts = [alert for alert in alerts if alert.kind == kind]
        return alerts

    def health(self) -> Dict[str, Any]:
        """Run the pull-path checks and summarize detector state.

        ``status`` is ``"ok"`` (no alerts), ``"degraded"`` (warnings
        only), or ``"failing"`` (at least one critical alert — a cascade
        was cut).
        """
        self.check()
        with self._lock:
            alerts = list(self._alerts)
        status = "ok"
        if any(alert.severity == WARNING for alert in alerts):
            status = "degraded"
        if any(alert.severity == CRITICAL for alert in alerts):
            status = "failing"
        by_kind = {kind: 0 for kind in KINDS}
        for alert in alerts:
            by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
        return {
            "status": status,
            "enabled": self.enabled,
            "alerts": by_kind,
            "alerts_total": self.stats["alerts_total"],
            "alerts_dropped": self.dropped,
            "recent": [alert.as_dict() for alert in alerts[-5:]],
        }

    def format(self, last: int = 20) -> str:
        """Render the newest ``last`` alerts, one line each."""
        alerts = self.alerts()[-last:]
        if not alerts:
            return "watchdog: no alerts"
        return "\n".join(alert.format() for alert in alerts)

    def clear(self) -> None:
        """Drop alerts and detector windows (between experiment phases)."""
        with self._lock:
            self._alerts.clear()
            self._firing_times.clear()
            self._lock_waits.clear()
            self._last_alert.clear()
            self.dropped = 0
            for key in self.stats:
                self.stats[key] = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._alerts)

    # ------------------------------------------------------------- internals

    def _alert(self, kind: str, severity: str, message: str, *,
               value: float, threshold: float) -> Optional[Alert]:
        now = time.monotonic()
        with self._lock:
            last = self._last_alert.get(kind)
            if last is not None and now - last < self.config.realert_interval:
                return None
            self._last_alert[kind] = now
            alert = Alert(kind, severity, message, value, threshold,
                          timestamp=time.time())
            if len(self._alerts) == self._alerts.maxlen:
                self.dropped += 1
            self._alerts.append(alert)
            self.stats["alerts_total"] += 1
            self.stats["alerts_%s" % kind] += 1
            callbacks = list(self._callbacks)
        if self._metrics is not None:
            self._metrics.counter("watchdog_alerts_total", kind=kind).inc()
        for callback in callbacks:
            callback(alert)
        return alert


#: default disabled instance for components constructed standalone
def disabled_watchdog() -> Watchdog:
    """A watchdog that records and checks nothing (standalone components)."""
    return Watchdog(enabled=False)
