"""The alert log for the failure modes the execution model invites.

An active rule base has hazards a passive DBMS does not: a rule whose
action re-triggers itself cascades without bound (§3.2 — the classic
non-terminating rule set the declarative-semantics literature exists to
tame), deferred firings pile up on a transaction until its commit wedges
(§6.3), one mis-fired rule turns an event stream into a firing storm, and
lock waits stretch when separate-coupling firings contend with their
triggering transactions.  Each hazard is a named alert kind; the
:class:`Watchdog` keeps the bounded log those alerts land in and the
callbacks that react to them (forensics), so the admin ``/health``
endpoint can answer "is this instance okay?" without a human reading
histograms.

Two places raise alerts (DESIGN decisions 13 and 27):

* **the cascade cut, inline** — the Rule Manager calls
  :meth:`Watchdog.note_cascade_limit` as it aborts a runaway cascade.  A
  rule set with no termination guarantee has to be stopped where it
  recurses, so this is the one feed the engine calls, and it is CRITICAL.
* **everything windowed, at the tick** — lock-wait p95, deferred batch and
  backlog size, firing rate and the service-level objectives are
  objectives of the SLO monitor (:mod:`repro.obs.slo`) over numbers the
  metrics registry already owns.  An objective entering burning or
  breached raises its kind through :meth:`Watchdog.alert`.

Alert storms are self-limiting: each kind re-alerts at most once per
:data:`REALERT_INTERVAL` seconds, and the log is a ring of
:data:`ALERT_CAPACITY` alerts (evictions counted), so a misbehaving rule
base cannot also exhaust the observer's memory.
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

#: alert kinds
RULE_STORM = "rule_storm"
CASCADE_DEPTH = "cascade_depth"
DEFERRED_QUEUE = "deferred_queue"
LOCK_WAIT = "lock_wait"
SLO_BURN = "slo_burn"

KINDS = (RULE_STORM, CASCADE_DEPTH, DEFERRED_QUEUE, LOCK_WAIT, SLO_BURN)

#: minimum seconds between two alerts of the same kind
REALERT_INTERVAL = 1.0
#: alert-log capacity (evictions counted in :attr:`Watchdog.dropped`)
ALERT_CAPACITY = 256


@dataclass(frozen=True)
class Alert:
    """One recorded alert."""

    kind: str          #: what tripped (one of :data:`KINDS`)
    severity: str      #: :data:`WARNING` or :data:`CRITICAL`
    message: str       #: human-readable account
    value: float       #: measured value that crossed the threshold
    threshold: float   #: threshold in force when it crossed
    timestamp: float   #: wall-clock time (``time.time()``)

    def as_dict(self) -> Dict[str, Any]:
        """The JSON form ``/health`` and the snapshot's ``alerts`` use."""
        return asdict(self)


AlertCallback = Callable[[Alert], None]


class Watchdog:
    """Bounded alert log with pluggable callbacks.

    Thread safe: alerts arrive from the signalling thread (the cascade
    cut) and the timeseries ticker (objectives); one lock guards the log.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._alerts: Deque[Alert] = deque(maxlen=ALERT_CAPACITY)
        self._callbacks: List[AlertCallback] = []
        self._last_alert: Dict[str, float] = {}
        self.dropped = 0
        self.stats: Dict[str, int] = {"alerts_total": 0}
        for kind in KINDS:
            self.stats["alerts_%s" % kind] = 0

    def add_callback(self, callback: AlertCallback) -> None:
        """Invoke ``callback(alert)`` for every alert (from the thread
        that raised it; callbacks must be fast and must not raise)."""
        with self._lock:
            self._callbacks.append(callback)

    def note_cascade_limit(self, depth: int, description: str) -> Optional[Alert]:
        """Inline feed: a cascade hit the depth bound and is being cut."""
        return self.alert(
            CASCADE_DEPTH, CRITICAL,
            "rule cascade cut at depth %d (%s)" % (depth, description),
            float(depth), float(depth))

    def alert(self, kind: str, severity: str, message: str, value: float,
              threshold: float) -> Optional[Alert]:
        """Record one alert and run the callbacks on this thread; None
        when ``kind`` already alerted within :data:`REALERT_INTERVAL`."""
        now = time.monotonic()
        with self._lock:
            last = self._last_alert.get(kind)
            if last is not None and now - last < REALERT_INTERVAL:
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
        for callback in callbacks:
            callback(alert)
        return alert

    # ---------------------------------------------------------------- views

    def alerts(self, kind: Optional[str] = None) -> List[Alert]:
        """Recorded alerts, oldest first (optionally one kind's)."""
        with self._lock:
            alerts = list(self._alerts)
        if kind is not None:
            alerts = [alert for alert in alerts if alert.kind == kind]
        return alerts

    def health(self) -> Dict[str, Any]:
        """Summarize the log: ``status`` is ``"ok"`` (no alerts),
        ``"degraded"`` (warnings only), or ``"failing"`` (at least one
        critical alert — a cascade was cut)."""
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
            "alerts": by_kind,
            "alerts_total": self.stats["alerts_total"],
            "alerts_dropped": self.dropped,
            "recent": [alert.as_dict() for alert in alerts[-5:]],
        }

    def clear(self) -> None:
        """Drop the log and the re-alert stamps (between experiment
        phases)."""
        with self._lock:
            self._alerts.clear()
            self._last_alert.clear()
            self.dropped = 0
            for key in self.stats:
                self.stats[key] = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._alerts)
