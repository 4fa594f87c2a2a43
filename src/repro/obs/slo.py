"""Objectives with multi-window burn-rate evaluation: the one place that
decides whether an instance is okay.

The timeseries ring (:mod:`repro.obs.timeseries`) answers "what is p99
right now"; this module answers the next question an operator asks: "is
that *okay*?"  An :class:`Objective` declares what okay means — commit
p99 under a threshold, firing-error rate under a budget, no alerts,
lock-wait p95 under a limit, no runaway deferred set — and the
:class:`SLOMonitor` evaluates every objective on each ticker window with
the SRE-standard multi-window burn-rate method:

* the **burn rate** is the fraction of bad events divided by the error
  budget (``1.0`` means the budget is being consumed exactly as fast as
  it accrues; ``10`` means ten times too fast); a bounded quantity (a
  rate, a level) burns its measured value over its limit;
* a **fast window** (default 60 s) makes the monitor responsive — a
  sudden regression trips it within a minute;
* a **slow window** (default 30 min) makes it proportionate — a
  transient blip burns the fast window but not the slow one, so it
  surfaces as *burning*, not *breached*.

Objective state machine::

    ok ──fast burning──> burning ──slow also burning──> breached
    burning ──fast ok──> ok
    breached ──fast ok──> recovered ──slow ok──> ok
    recovered ──fast burning──> burning/breached (re-burn)

Each transition into ``burning``/``breached`` raises one WARNING alert
through the watchdog (a burning budget degrades health, it never flips it
to failing) and is counted in the monitor's ``stats``.  A service
objective raises ``slo_burn`` with its burn rate; a *detector* — an
objective whose ``alert`` names another kind, such as the two default
``deferred_queue`` objectives — raises that kind with the measured value
and its limit, which is how the windowed hazards of the Rule Manager are
watched (DESIGN decision 27).  The current state of every objective backs
the snapshot's ``slo`` section and the health report.

No traffic means no burn: every objective treats an empty window as
within budget, so budgets recover while the system is idle — which is
why the ticker runs its callbacks on idle windows too.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import window_quantile
from repro.obs.timeseries import TimeseriesRing
from repro.obs.watchdog import DEFERRED_QUEUE, SLO_BURN, WARNING, Watchdog

#: objective states, in escalation order
OK = "ok"
BURNING = "burning"
BREACHED = "breached"
RECOVERED = "recovered"
STATE_VALUES = {OK: 0, BURNING: 1, BREACHED: 2, RECOVERED: 3}

#: the keys of :meth:`SLOMonitor.summary`, the ``stats()["slo"]`` section
STATS_KEYS = ("objectives", "evaluations", "breaches", "alerts",
              *STATE_VALUES)

#: objective kinds
LATENCY = "latency"
RATIO = "ratio"
ALERT_FREE = "alert_free"
RATE = "rate"
LEVEL = "level"

#: deferred firings one commit round, or the live transactions together,
#: may hold before the default objectives alert (§6.3)
DEFERRED_LIMIT = 10000


@dataclass
class Objective:
    """One declared objective.

    * ``kind=LATENCY`` — at least ``target`` of the observations in
      ``histogram`` (seconds or sizes) must fall at or under
      ``threshold``.  The bad fraction comes from the windowed
      bucket-count deltas, with the straddling bucket split linearly; a
      window with fewer than ``min_count`` observations counts as good.
    * ``kind=RATIO`` — ``numerator``/``denominator`` (collected-stat
      names) must stay under ``budget``.
    * ``kind=ALERT_FREE`` — no alerts in the window (``slo_burn`` alerts
      excluded, or every burn would feed itself).  The burn rate is
      simply the number of alerts.
    * ``kind=RATE`` — the collected stat ``numerator`` per second must
      stay at or under ``threshold``.
    * ``kind=LEVEL`` — the collected stat ``numerator`` as of the newest
      tick (a level, such as a queue depth) must stay at or under
      ``threshold``.

    ``alert`` is the kind a transition into burning or breached raises.
    Any kind but ``slo_burn`` makes the objective a detector, which
    reports what it measured over the fast window — the ``target``
    quantile of a LATENCY histogram, a RATE per second, a LEVEL — against
    ``threshold``.
    """

    name: str
    kind: str = LATENCY
    #: latency objectives; the limit of RATE and LEVEL objectives
    histogram: str = "txn_commit_seconds"
    threshold: float = 0.050
    target: float = 0.99
    min_count: int = 0
    #: ratio objectives; RATE and LEVEL read the stat ``numerator``
    numerator: str = ""
    denominator: str = ""
    budget: float = 0.01
    #: burn-rate windows and trip level
    fast_window: float = 60.0
    slow_window: float = 1800.0
    burn_threshold: float = 1.0
    alert: str = SLO_BURN
    #: evaluation state (owned by the monitor)
    state: str = field(default=OK, repr=False)
    burn_fast: float = field(default=0.0, repr=False)
    burn_slow: float = field(default=0.0, repr=False)


def default_objectives() -> List[Objective]:
    """The stock objectives a serving HiPAC instance watches.

    Commit p99 under 50 ms over the fast minute, firing-error rate under
    1%, and an alert-free instance — the three axes (latency,
    correctness, anomaly) the paper's application interface (§4.1)
    implicitly promises its callers — plus the guard against a runaway
    deferred set (§6.3): no commit round draining, and no standing
    backlog across live transactions holding, more than
    :data:`DEFERRED_LIMIT` firings.  Those two look at the last second
    only, so each runaway separated by a quiet tick alerts again.
    """
    return [
        Objective("commit_latency", kind=LATENCY,
                  histogram="txn_commit_seconds", threshold=0.050,
                  target=0.99),
        Objective("firing_errors", kind=RATIO,
                  numerator="rules_firing_errors",
                  denominator="rules_triggered", budget=0.01),
        Objective("alert_free", kind=ALERT_FREE),
        Objective("deferred_batch", kind=LATENCY,
                  histogram="deferred_batch_size", threshold=DEFERRED_LIMIT,
                  target=1.0, fast_window=1.0, slow_window=1.0,
                  alert=DEFERRED_QUEUE),
        Objective("deferred_backlog", kind=LEVEL,
                  numerator="deferred_queue_depth", threshold=DEFERRED_LIMIT,
                  fast_window=1.0, slow_window=1.0, alert=DEFERRED_QUEUE),
    ]


class SLOMonitor:
    """Evaluates objectives against the timeseries ring on every tick."""

    def __init__(self, ring: TimeseriesRing,
                 objectives: Optional[List[Objective]] = None,
                 watchdog: Optional[Watchdog] = None) -> None:
        self.ring = ring
        self.objectives = (objectives if objectives is not None
                           else default_objectives())
        self._watchdog = watchdog
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {"evaluations": 0, "breaches": 0,
                                      "alerts": 0}

    # ---------------------------------------------------------- burn rates

    def _bad_fraction_latency(self, objective: Objective,
                              seconds: float,
                              now: Optional[float]) -> float:
        state, bounds = self.ring.histogram_raw_window(
            objective.histogram, seconds, now)
        if state.count == 0 or state.count < objective.min_count \
                or not bounds:
            return 0.0
        threshold = objective.threshold
        bad = 0.0
        for index, count in enumerate(state.counts):
            if count == 0:
                continue
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else float("inf")
            if upper <= threshold:
                continue
            if lower >= threshold:
                bad += count
            elif upper == float("inf"):
                bad += count
            else:
                # The threshold splits this bucket: apportion linearly.
                bad += count * (upper - threshold) / (upper - lower)
        return bad / state.count

    def _measured(self, objective: Objective, seconds: float,
                  now: Optional[float]) -> float:
        """What a bounded objective measures over the trailing window:
        the stat per second (RATE), its newest level (LEVEL), or the
        ``target`` quantile of the histogram (LATENCY)."""
        if objective.kind == RATE:
            delta, covered = self.ring.counter_window(
                objective.numerator, seconds, now)
            return delta / covered if covered > 0 else 0.0
        if objective.kind == LEVEL:
            return self.ring.level(objective.numerator)
        state, bounds = self.ring.histogram_raw_window(
            objective.histogram, seconds, now)
        return window_quantile(bounds, state, 100.0 * objective.target)

    def _burn(self, objective: Objective, seconds: float,
              now: Optional[float]) -> float:
        if objective.kind == LATENCY:
            budget = max(1e-9, 1.0 - objective.target)
            return self._bad_fraction_latency(objective, seconds,
                                              now) / budget
        if objective.kind == RATIO:
            numerator, _ = self.ring.counter_window(
                objective.numerator, seconds, now)
            denominator, _ = self.ring.counter_window(
                objective.denominator, seconds, now)
            if denominator <= 0:
                return 0.0
            return (numerator / denominator) / max(1e-9, objective.budget)
        if objective.kind == ALERT_FREE:
            total, _ = self.ring.counter_window(
                "watchdog_alerts_total", seconds, now)
            own, _ = self.ring.counter_window(
                "watchdog_alerts_%s" % SLO_BURN, seconds, now)
            return max(0.0, total - own)
        if objective.kind in (RATE, LEVEL):
            return (self._measured(objective, seconds, now)
                    / max(1e-9, objective.threshold))
        raise ValueError("unknown objective kind: %r" % objective.kind)

    # ---------------------------------------------------------- evaluation

    def _advance(self, objective: Objective, fast_bad: bool,
                 slow_bad: bool) -> Optional[str]:
        """One state-machine step; returns the new state on transition."""
        state = objective.state
        if state == OK:
            if fast_bad:
                return BREACHED if slow_bad else BURNING
        elif state == BURNING:
            if fast_bad and slow_bad:
                return BREACHED
            if not fast_bad:
                return OK
        elif state == BREACHED:
            if not fast_bad:
                return RECOVERED
        elif state == RECOVERED:
            if fast_bad:
                return BREACHED if slow_bad else BURNING
            if not slow_bad:
                return OK
        return None

    def _raise(self, objective: Objective, transition: str,
               now: Optional[float]) -> None:
        """The one alert of a transition into burning or breached."""
        if objective.alert == SLO_BURN:
            self._watchdog.alert(
                SLO_BURN, WARNING,
                "SLO %s %s (burn rate %.2fx budget)"
                % (objective.name, transition, objective.burn_fast),
                objective.burn_fast, objective.burn_threshold)
            return
        value = self._measured(objective, objective.fast_window, now)
        what = (objective.numerator if objective.kind != LATENCY else
                "p%g of %s" % (100.0 * objective.target, objective.histogram))
        self._watchdog.alert(
            objective.alert, WARNING,
            "%s %s: %s%s is %g, limit %g"
            % (objective.name, transition, what,
               " per second" if objective.kind == RATE else "", value,
               objective.threshold),
            value, objective.threshold)

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Evaluate every objective; returns their JSON-safe summaries.

        Called by the ticker on each window (``now`` is the window's
        end); safe to call directly in tests with a fake clock.
        """
        results: List[Dict[str, Any]] = []
        with self._lock:
            self.stats["evaluations"] += 1
            for objective in self.objectives:
                objective.burn_fast = self._burn(
                    objective, objective.fast_window, now)
                objective.burn_slow = self._burn(
                    objective, objective.slow_window, now)
                fast_bad = objective.burn_fast > objective.burn_threshold
                slow_bad = objective.burn_slow > objective.burn_threshold
                transition = self._advance(objective, fast_bad, slow_bad)
                if transition is not None:
                    objective.state = transition
                    if transition == BREACHED:
                        self.stats["breaches"] += 1
                    if transition in (BURNING, BREACHED) \
                            and self._watchdog is not None:
                        self.stats["alerts"] += 1
                        self._raise(objective, transition, now)
                results.append(self._objective_dict(objective))
        return results

    # --------------------------------------------------------------- views

    def _objective_dict(self, objective: Objective) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": objective.name,
            "kind": objective.kind,
            "alert": objective.alert,
            "state": objective.state,
            "burn_fast": objective.burn_fast,
            "burn_slow": objective.burn_slow,
            "fast_window": objective.fast_window,
            "slow_window": objective.slow_window,
            "burn_threshold": objective.burn_threshold,
        }
        if objective.kind == LATENCY:
            out["histogram"] = objective.histogram
            out["threshold"] = objective.threshold
            out["target"] = objective.target
            out["min_count"] = objective.min_count
        elif objective.kind == RATIO:
            out["numerator"] = objective.numerator
            out["denominator"] = objective.denominator
            out["budget"] = objective.budget
        elif objective.kind in (RATE, LEVEL):
            out["numerator"] = objective.numerator
            out["threshold"] = objective.threshold
        return out

    def as_dict(self) -> Dict[str, Any]:
        """The snapshot's ``slo`` section."""
        with self._lock:
            return {
                "objectives": [self._objective_dict(objective)
                               for objective in self.objectives],
                "stats": dict(self.stats),
                "worst_state": self.worst_state(),
            }

    def worst_state(self) -> str:
        """The most-escalated objective state (health uses this)."""
        worst = OK
        for objective in self.objectives:
            if STATE_VALUES[objective.state] > STATE_VALUES[worst]:
                worst = objective.state
        return worst

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary for ``stats()["slo"]`` (:data:`STATS_KEYS`)."""
        with self._lock:
            out: Dict[str, float] = dict.fromkeys(STATS_KEYS, 0)
            out.update(self.stats, objectives=len(self.objectives))
            for objective in self.objectives:
                out[objective.state] += 1
            return out
