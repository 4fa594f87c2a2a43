"""Tests for the windowed-telemetry layer: histogram delta states, the
timeseries ring, the SLO burn-rate monitor, and paced journal replay
(recorded traffic as load).

The ring and the monitor are driven with fake clocks throughout — every
windowing and state-machine assertion is deterministic.  The one
deliberately wall-clock test is the coordinated-omission demonstration:
a paced replay must report the latency a stalled engine inflicts on its
*schedule*, which a closed-loop driver structurally cannot see.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_update,
)
from repro.obs import flightrec
from repro.obs.metrics import (
    HistogramState,
    MetricsRegistry,
    percentile_from_counts,
    window_summary,
)
from repro.obs.slo import (
    ALERT_FREE,
    BREACHED,
    BURNING,
    LATENCY,
    LEVEL,
    OK,
    RATE,
    RATIO,
    RECOVERED,
    Objective,
    SLOMonitor,
)
from repro.obs.timeseries import TimeseriesRing
from repro.obs.watchdog import DEFERRED_QUEUE, RULE_STORM, SLO_BURN, Watchdog
from repro.tools.replay import build_units, replay


# ======================================================== histogram deltas


class TestHistogramDelta:
    def test_delta_isolates_new_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds")
        for _ in range(100):
            hist.observe(0.001)
        before = hist.state()
        for _ in range(10):
            hist.observe(0.2)
        delta = hist.delta(before)
        # Only the ten new observations are in the window...
        assert delta["count"] == 10
        assert delta["sum"] == pytest.approx(2.0)
        # ...so the windowed p50 reflects the regression the cumulative
        # p50 (dominated by the 100 old fast points) hides.
        assert delta["p50"] > 0.1
        assert hist.snapshot()["p50"] < 0.01

    def test_delta_from_none_is_everything(self):
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds")
        hist.observe(0.01)
        delta = hist.delta(None)
        assert delta["count"] == 1

    def test_recreated_instrument_resets_cleanly(self):
        # A "previous" state with more observations than the current one
        # means the instrument was recreated; the delta must not go
        # negative — it restarts from the current state.
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds")
        for _ in range(5):
            hist.observe(0.01)
        stale = HistogramState(tuple(9 for _ in hist.state().counts),
                               99.0, 9 * len(hist.state().counts))
        fresh = hist.state().delta(stale)
        assert fresh.count == 5

    def test_percentile_from_counts_overflow_and_empty(self):
        bounds = (0.1, 1.0)
        assert percentile_from_counts(bounds, (0, 0, 0), 99) == 0.0
        # All mass in the overflow bucket clamps to the highest finite
        # bound absent a tracked max...
        assert percentile_from_counts(bounds, (0, 0, 4), 99) == 1.0
        # ...and to the observed max when one is supplied.
        assert percentile_from_counts(bounds, (0, 0, 4), 99,
                                      vmax=2.5) == 2.5

    def test_one_windowed_quantile_values_the_overflow_bucket(self):
        """The summary a snapshot shows and the SLO's measurement share
        one estimator: a lone observation past the top bound is itself
        the window's p99 in both, not the top bound."""
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds", buckets=(0.1, 1.0))
        ring = TimeseriesRing(registry, interval=1.0, clock=lambda: 0.0)
        monitor = SLOMonitor(ring, [Objective(
            "op_p99", histogram="op_seconds", threshold=1.0, target=0.99)])
        hist.observe(7.5)
        ring.tick(now=1.0)
        (window,) = ring.windows()
        summary = window_summary(hist.bounds,
                                 window.histograms["op_seconds"])
        measured = monitor._measured(monitor.objectives[0], 60.0, 1.0)
        assert summary["p99"] == measured == 7.5
        assert ring.window_dict(window)["histograms"]["op_seconds"]["p99"] \
            == 7.5

    def test_snapshot_reports_p999(self):
        registry = MetricsRegistry()
        hist = registry.histogram("op_seconds")
        hist.observe(0.01)
        assert "p999" in hist.snapshot()


# ======================================================== timeseries ring


def _ring(registry, **kwargs):
    kwargs.setdefault("interval", 1.0)
    kwargs.setdefault("clock", lambda: 0.0)
    return TimeseriesRing(registry, **kwargs)


def _stats(registry, **initial):
    """A mutable component ``stats`` dict pulled in by a collector."""
    stats = dict(initial)
    registry.add_collector(lambda: dict(stats))
    return stats


class TestTimeseriesRing:
    def test_windows_hold_deltas_not_totals(self):
        registry = MetricsRegistry()
        stats = _stats(registry, reqs_total=0)
        hist = registry.histogram("op_seconds")
        ring = _ring(registry)
        stats["reqs_total"] += 5
        hist.observe(0.01)
        ring.tick(now=1.0)
        stats["reqs_total"] += 3
        ring.tick(now=2.0)
        first, second = ring.windows()
        assert first.collected["reqs_total"] == 5
        assert first.histograms["op_seconds"].count == 1
        assert second.collected["reqs_total"] == 3
        # No histogram activity in the second window: the delta is not
        # stored at all (bounded-memory rule: only nonzero entries).
        assert "op_seconds" not in second.histograms

    def test_ring_memory_is_bounded_under_soak(self):
        registry = MetricsRegistry()
        counts = _stats(registry, reqs_total=0)
        ring = _ring(registry, capacity=16)
        for tick in range(500):
            counts["reqs_total"] += 1
            ring.tick(now=float(tick + 1))
        assert len(ring.windows()) == 16
        stats = ring.stats
        assert stats["ticks"] == 500
        assert stats["windows"] == 16
        # The oldest surviving window is recent — eviction really ran.
        assert ring.windows()[0].t == 485.0

    def test_idle_detection_ignores_own_bookkeeping(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {"timeseries_ticks": ticks[0],
                                        "slo_evaluations": ticks[0],
                                        "rules_triggered": 0})
        ticks = [0]
        ring = _ring(registry)
        ticks[0] += 1
        window = ring.tick(now=1.0)
        ticks[0] += 1
        window = ring.tick(now=2.0)
        # Only the ticker's/monitor's own counters moved: idle.
        assert window.idle
        assert ring.stats["idle_ticks"] >= 1

    def test_aggregate_rates_divide_by_covered_time(self):
        registry = MetricsRegistry()
        stats = _stats(registry, reqs_total=0)
        ring = _ring(registry)
        for tick in range(4):
            stats["reqs_total"] += 10
            ring.tick(now=float(tick + 1))
        agg = ring.aggregate(ring.windows(3))  # the windows at t=2,3,4
        assert agg["windows"] == 3 and agg["elapsed"] == pytest.approx(3.0)
        entry = agg["collected"]["reqs_total"]
        assert entry["delta"] == 30
        assert entry["rate"] == pytest.approx(30 / agg["elapsed"])
        assert ring.as_dict(last=3)["aggregate"] == agg

    def test_labeled_families_merge_under_base_name(self):
        registry = MetricsRegistry()
        stats = _stats(registry, errs_total=0)
        fast = registry.histogram("txn_commit_seconds", scope="top")
        nested = registry.histogram("txn_commit_seconds", scope="nested")
        ring = _ring(registry)
        fast.observe(0.01)
        nested.observe(0.02)
        ring.tick(now=1.0)
        merged, bounds = ring.histogram_raw_window("txn_commit_seconds",
                                                   10.0, now=1.0)
        assert merged.count == 2
        assert bounds
        stats["errs_total"] += 2
        ring.tick(now=2.0)
        stats["errs_total"] += 3
        ring.tick(now=3.0)
        delta, covered = ring.counter_window("errs_total", 10.0, now=3.0)
        assert delta == 5
        assert covered > 0

    def test_callback_errors_are_counted_not_raised(self):
        registry = MetricsRegistry()
        ring = _ring(registry)
        seen = []
        ring.add_callback(lambda window: seen.append(window.seq))

        def boom(window):
            raise RuntimeError("callback bug")

        ring.add_callback(boom)
        ring.tick(now=1.0)
        ring.tick(now=2.0)
        assert seen == [1, 2]
        assert ring.stats["callback_errors"] == 2

    def test_background_ticker_starts_and_stops(self):
        registry = MetricsRegistry()
        ring = TimeseriesRing(registry, interval=0.02)
        ring.start()
        try:
            deadline = time.time() + 5.0
            while ring.stats["ticks"] == 0 and time.time() < deadline:
                time.sleep(0.01)
            assert ring.stats["ticks"] > 0
        finally:
            ring.stop()
        assert not ring.running


# ===================================================== SLO burn-rate monitor


def _latency_setup():
    """A ring + monitor with one latency objective and tight windows.

    fast window = 2 s (two ticks), slow window = 50 s, 50 ms threshold,
    90% target (10% error budget).
    """
    registry = MetricsRegistry()
    hist = registry.histogram("op_seconds")
    ring = _ring(registry)
    objective = Objective("lat", kind=LATENCY, histogram="op_seconds",
                          threshold=0.050, target=0.90,
                          fast_window=2.0, slow_window=50.0)
    watchdog = Watchdog()
    monitor = SLOMonitor(ring, [objective], watchdog=watchdog)
    return registry, hist, ring, objective, watchdog, monitor


def _drive(hist, ring, monitor, now, good=0, bad=0):
    for _ in range(good):
        hist.observe(0.001)
    for _ in range(bad):
        hist.observe(0.200)
    ring.tick(now=now)
    monitor.evaluate(now=now)


class TestSLOMonitor:
    def test_full_lifecycle_ok_burning_breached_recovered_ok(self):
        _, hist, ring, objective, watchdog, monitor = _latency_setup()
        now = 0.0
        # Twenty healthy ticks: plenty of good traffic in the slow window.
        for _ in range(20):
            now += 1.0
            _drive(hist, ring, monitor, now, good=100)
        assert objective.state == OK

        # A regression: the fast window goes bad while the slow window is
        # still diluted by the healthy history -> burning, not breached.
        now += 1.0
        _drive(hist, ring, monitor, now, bad=100)
        assert objective.state == BURNING
        assert objective.burn_fast > 1.0
        assert objective.burn_slow <= 1.0

        # The regression persists until the slow budget burns too.
        while objective.state == BURNING:
            now += 1.0
            _drive(hist, ring, monitor, now, bad=100)
        assert objective.state == BREACHED
        assert monitor.stats["breaches"] == 1

        # Traffic turns healthy: the fast window clears first.
        now += 1.0
        _drive(hist, ring, monitor, now, good=200)
        now += 1.0
        _drive(hist, ring, monitor, now, good=200)
        assert objective.state == RECOVERED

        # Once the bad windows age out of the slow window: back to ok.
        monitor.evaluate(now=now + 100.0)
        assert objective.state == OK

        # Both escalations (burning, breached) fed the watchdog; the
        # realert interval may dedup them into one visible alert.
        assert monitor.stats["alerts"] == 2
        kinds = [alert.kind for alert in watchdog.alerts()]
        assert SLO_BURN in kinds

    def test_recovered_can_reburn(self):
        _, hist, ring, objective, _, monitor = _latency_setup()
        now = 0.0
        for _ in range(10):
            now += 1.0
            _drive(hist, ring, monitor, now, good=100)
        for _ in range(10):
            now += 1.0
            _drive(hist, ring, monitor, now, bad=100)
        assert objective.state == BREACHED
        now += 2.0
        _drive(hist, ring, monitor, now, good=500)
        assert objective.state == RECOVERED
        now += 1.0
        _drive(hist, ring, monitor, now, bad=100)
        assert objective.state in (BURNING, BREACHED)

    def test_no_traffic_means_no_burn(self):
        _, hist, ring, objective, _, monitor = _latency_setup()
        for tick in range(5):
            ring.tick(now=float(tick + 1))
            monitor.evaluate(now=float(tick + 1))
        assert objective.state == OK
        assert objective.burn_fast == 0.0

    def test_ratio_objective_uses_counter_deltas(self):
        registry = MetricsRegistry()
        stats = _stats(registry, errs_total=0, reqs_total=0)
        ring = _ring(registry)
        objective = Objective("errors", kind=RATIO,
                              numerator="errs_total",
                              denominator="reqs_total", budget=0.10,
                              fast_window=2.0, slow_window=50.0)
        monitor = SLOMonitor(ring, [objective])
        stats["reqs_total"] += 100
        ring.tick(now=1.0)
        monitor.evaluate(now=1.0)
        assert objective.state == OK
        stats["errs_total"] += 50
        stats["reqs_total"] += 100
        ring.tick(now=2.0)
        monitor.evaluate(now=2.0)
        # 50/200 errors in both windows against a 10% budget.
        assert objective.state == BREACHED

    def test_state_gauges_exported(self):
        _, hist, ring, objective, _, monitor = _latency_setup()
        hist.observe(0.001)
        ring.tick(now=1.0)
        monitor.evaluate(now=1.0)
        (state,) = monitor.as_dict()["objectives"]
        assert state["name"] == "lat" and state["state"] == OK
        assert state["burn_fast"] == 0.0 and state["burn_slow"] == 0.0
        summary = monitor.summary()
        assert summary[OK] == 1 and summary[BURNING] == 0

    def test_summary_counts_states(self):
        _, hist, ring, objective, _, monitor = _latency_setup()
        summary = monitor.summary()
        assert summary["objectives"] == 1
        assert summary["ok"] == 1


# ============================================ reference oracle for evaluate()

#: the oracle histogram's bucket bounds, and observations off and on them
ORACLE_BOUNDS = (0.01, 0.05, 0.1, 0.5)
OFF_BOUNDS = (0.004, 0.02, 0.03, 0.07, 0.2, 0.7)
ON_BOUNDS = OFF_BOUNDS + ORACLE_BOUNDS


class _Raised:
    """Stands in for the watchdog: what the monitor raises, in order."""

    def __init__(self):
        self.alerts = []

    def alert(self, kind, severity, message, value, threshold):
        self.alerts.append((kind, value, threshold))


def _ref_measure(spec, ticks, seconds):
    """(burn, value) of one objective over the ticks ending inside the
    trailing ``seconds``, recomputed from the raw per-tick inputs."""
    now = ticks[-1]["t"]
    chosen = [tick for tick in ticks if tick["t"] > now - seconds]

    def total(name):
        return sum(tick["deltas"].get(name, 0) for tick in chosen)

    kind = spec["kind"]
    if kind == LATENCY:
        values = [value for tick in chosen for value in tick["values"]]
        if not values or len(values) < spec.get("min_count", 0):
            return 0.0, None
        threshold, bad = spec["threshold"], 0.0
        for value in values:
            # Bounds are inclusive upper bounds; past the last, overflow.
            upper = min((b for b in ORACLE_BOUNDS if value <= b),
                        default=float("inf"))
            lower = max((b for b in ORACLE_BOUNDS if b < value), default=0.0)
            if upper <= threshold:
                continue
            if lower >= threshold or upper == float("inf"):
                bad += 1.0
            else:
                bad += (upper - threshold) / (upper - lower)
        return bad / len(values) / max(1e-9, 1.0 - spec["target"]), None
    if kind == RATIO:
        denominator = total(spec["denominator"])
        if denominator <= 0:
            return 0.0, None
        return total(spec["numerator"]) / denominator / spec["budget"], None
    if kind == ALERT_FREE:
        return max(0.0, total("watchdog_alerts_total")
                   - total("watchdog_alerts_slo_burn")), None
    if kind == RATE:
        covered = sum(tick["dt"] for tick in chosen)
        value = total(spec["numerator"]) / covered if covered else 0.0
    else:  # LEVEL: every delta so far, whatever the window
        value = sum(tick["deltas"].get(spec["numerator"], 0)
                    for tick in ticks)
    return value / spec["threshold"], value


def _ref_step(state, fast, slow):
    """The objective state machine, written out from the module doc."""
    if state in (OK, RECOVERED) and fast:
        return BREACHED if slow else BURNING
    if state == BURNING and not fast:
        return OK
    if state == BURNING and slow:
        return BREACHED
    if state == BREACHED and not fast:
        return RECOVERED
    if state == RECOVERED and not slow:
        return OK
    return state


def _oracle_ticks(values):
    return st.lists(st.fixed_dictionaries({
        "gap": st.integers(1, 6), "values": st.lists(
            st.sampled_from(values), max_size=6),
        "bad": st.integers(0, 3), "good": st.integers(0, 4),
        "alerts": st.integers(0, 2), "own": st.integers(0, 2),
        "events": st.integers(0, 40), "depth": st.integers(-6, 6),
    }), min_size=1, max_size=16)


_WINDOWS = dict(fast_window=st.sampled_from((1.0, 2.0, 3.0, 5.0)),
                slow_window=st.sampled_from((2.0, 4.0, 10.0, 30.0)),
                burn_threshold=st.sampled_from((1.0, 2.0)))
_LATENCY = dict(kind=st.just(LATENCY), histogram=st.just("op_seconds"),
                threshold=st.sampled_from((0.01, 0.03, 0.05, 0.075, 0.2,
                                           1.0)),
                target=st.sampled_from((0.5, 0.75, 0.9)), **_WINDOWS)
_SERVICE = st.tuples(
    st.fixed_dictionaries(_LATENCY),
    st.fixed_dictionaries(dict(
        kind=st.just(RATIO), numerator=st.just("errs_total"),
        denominator=st.just("reqs_total"),
        budget=st.sampled_from((0.1, 0.25, 0.5)), **_WINDOWS)),
    st.fixed_dictionaries(dict(kind=st.just(ALERT_FREE), **_WINDOWS)))
_DETECTORS = st.tuples(
    st.fixed_dictionaries(dict(min_count=st.integers(0, 6), **_LATENCY)),
    st.fixed_dictionaries(dict(
        kind=st.just(RATE), numerator=st.just("events_total"),
        threshold=st.sampled_from((1.0, 5.0, 20.0)),
        alert=st.sampled_from((RULE_STORM, SLO_BURN)), **_WINDOWS)),
    st.fixed_dictionaries(dict(
        kind=st.just(LEVEL), numerator=st.just("depth"),
        threshold=st.sampled_from((1.0, 3.0, 10.0)),
        alert=st.sampled_from((DEFERRED_QUEUE, SLO_BURN)), **_WINDOWS)))


def _quiet_tick(gap=1, **fields):
    """One tick's inputs: nothing happened but ``fields``."""
    tick = dict(gap=gap, values=[], bad=0, good=0, alerts=0, own=0,
                events=0, depth=0)
    tick.update(fields)
    return tick


def _check_against_reference(specs, inputs):
    """Drive a monitor over ``inputs`` and compare every tick's states
    and raised alerts with the reference recomputation."""
    registry = MetricsRegistry()
    hist = registry.histogram("op_seconds", buckets=ORACLE_BOUNDS)
    stats = _stats(registry, errs_total=0, reqs_total=0, events_total=0,
                   depth=0, watchdog_alerts_total=0,
                   watchdog_alerts_slo_burn=0)
    ring = _ring(registry)
    raised = _Raised()
    objectives = [Objective("o%d" % index, **spec)
                  for index, spec in enumerate(specs)]
    monitor = SLOMonitor(ring, objectives, watchdog=raised)
    states, expected, ticks, now = [OK] * len(specs), [], [], 0.0
    for tick in inputs:
        now += tick["gap"] if ticks else 1.0  # the first window: one interval
        deltas = {"errs_total": tick["bad"],
                  "reqs_total": tick["bad"] + tick["good"],
                  "events_total": tick["events"],
                  "depth": max(tick["depth"], -stats["depth"]),
                  "watchdog_alerts_total": tick["alerts"] + tick["own"],
                  "watchdog_alerts_slo_burn": tick["own"]}
        for name, delta in deltas.items():
            stats[name] += delta
        for value in tick["values"]:
            hist.observe(value)
        ticks.append({"t": now, "dt": tick["gap"] if ticks else 1.0,
                      "values": tick["values"], "deltas": deltas})
        _drive(hist, ring, monitor, now)
        for index, spec in enumerate(specs):
            threshold = spec["burn_threshold"]
            fast, value = _ref_measure(spec, ticks, spec["fast_window"])
            slow, _ = _ref_measure(spec, ticks, spec["slow_window"])
            if spec["kind"] == LATENCY and any(
                    abs(burn - threshold) < 1e-9 for burn in (fast, slow)):
                return  # at the limit the two split sums may round apart
            state = _ref_step(states[index], fast > threshold,
                              slow > threshold)
            if state != states[index] and state in (BURNING, BREACHED):
                kind = spec.get("alert", SLO_BURN)
                expected.append((SLO_BURN, fast, threshold)
                                if kind == SLO_BURN else
                                (kind, value, spec["threshold"]))
            states[index] = state
        assert [objective.state for objective in objectives] == states
        assert [kind for kind, _, _ in raised.alerts] \
            == [kind for kind, _, _ in expected]
        assert raised.alerts == [(kind, pytest.approx(value), limit)
                                 for kind, value, limit in expected]


class TestSLOReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(specs=_SERVICE, inputs=_oracle_ticks(OFF_BOUNDS))
    # burning, then the fast window clears as the slow one fills with the
    # bad tick alone: back to ok, not breached
    @example(specs=(
        dict(kind=LATENCY, histogram="op_seconds", threshold=0.05,
             target=0.9, fast_window=1.0, slow_window=4.0,
             burn_threshold=1.0),
        dict(kind=RATIO, numerator="errs_total", denominator="reqs_total",
             budget=0.25, fast_window=1.0, slow_window=4.0,
             burn_threshold=1.0),
        dict(kind=ALERT_FREE, fast_window=1.0, slow_window=4.0,
             burn_threshold=1.0)),
        inputs=[_quiet_tick(good=10), _quiet_tick(bad=1), _quiet_tick(3)])
    def test_latency_ratio_alert_free_match_the_reference(self, specs,
                                                          inputs):
        _check_against_reference(specs, inputs)

    @settings(max_examples=300, deadline=None)
    @given(specs=_DETECTORS, inputs=_oracle_ticks(ON_BOUNDS))
    def test_detectors_match_the_reference(self, specs, inputs):
        """Observations on the bucket bounds, a minimum count, and the
        RATE and LEVEL kinds with their own alert kinds."""
        _check_against_reference(specs, inputs)


# ============================================== facade + endpoint integration


class TestHiPACTimeseriesIntegration:
    def test_stats_health_and_endpoints(self):
        db = HiPAC(timeseries_interval=0.05)
        try:
            db.define_class(ClassDef("A", attributes(("v", "int"))))
            with db.transaction() as txn:
                oid = db.create("A", {"v": 0}, txn)
            deadline = time.time() + 10.0
            while db.timeseries.stats["ticks"] == 0 \
                    and time.time() < deadline:
                time.sleep(0.02)

            stats = db.stats()
            assert stats["timeseries"]["ticks"] >= 1
            assert stats["slo"]["objectives"] == 5
            health = db.health()
            assert health["slo"]["state"] == "ok"
            assert set(health["slo"]["objectives"]) == {
                "commit_latency", "firing_errors", "alert_free",
                "deferred_batch", "deferred_backlog"}

            server = db.serve_admin()
            import json as _json
            import urllib.request as _request
            with _request.urlopen(
                    server.url + "/snapshot?sections=timeseries,slo&last=5",
                    timeout=5.0) as resp:
                payload = _json.loads(resp.read())
            series = payload["timeseries"]
            assert 0 < len(series["windows"]) <= 5
            assert series["aggregate"]["windows"] == len(series["windows"])
            slo = payload["slo"]
            assert slo["worst_state"] == "ok"
            assert len(slo["objectives"]) == 5
        finally:
            db.close()
        # close() stops the ticker thread.
        assert not db.timeseries.running

    def test_sections_none_when_ticker_off(self):
        import json as _json
        import urllib.request as _request
        db = HiPAC(observability=False)
        try:
            assert db.timeseries is None
            assert db.slo is None
            server = db.serve_admin()
            with _request.urlopen(
                    server.url + "/snapshot?sections=timeseries,slo",
                    timeout=5.0) as resp:
                payload = _json.loads(resp.read())
            assert payload == {"timeseries": None, "slo": None}
        finally:
            db.close()


# ============================================================= paced replay


def _record(record_type, seq, txn=None, wall=0.0, **data):
    return {"seq": seq, "type": record_type, "txn": txn, "wall": wall,
            "data": data}


class TestBuildUnits:
    def test_txn_groups_and_classification(self):
        records = [
            # Explicit update-only transaction: one traffic unit.
            _record(flightrec.TXN_BEGIN, 1, txn="t1"),
            _record(flightrec.OPERATION, 2, txn="t1",
                    op={"kind": "update"}),
            _record(flightrec.TXN_COMMIT, 3, txn="t1"),
            # Transaction containing a create: a barrier.
            _record(flightrec.TXN_BEGIN, 4, txn="t2"),
            _record(flightrec.OPERATION, 5, txn="t2",
                    op={"kind": "create"}),
            _record(flightrec.TXN_COMMIT, 6, txn="t2"),
            # Coalesced auto-txn, update-only: traffic.
            _record(flightrec.TXN_AUTO, 7, txn="t3",
                    ops=[{"op": {"kind": "update"}}]),
            # Signals are traffic; rule admin is a barrier.
            _record(flightrec.EXTERNAL, 8),
            _record(flightrec.RULE_CREATE, 9),
        ]
        units = build_units(records)
        assert [unit.seq for unit in units] == [1, 4, 7, 8, 9]
        assert [unit.traffic for unit in units] == [
            True, False, True, True, False]
        assert len(units[0].records) == 3

    def test_nested_txn_folds_into_enclosing_group(self):
        records = [
            _record(flightrec.TXN_BEGIN, 1, txn="t1"),
            _record(flightrec.TXN_BEGIN, 2, txn="t1.1", parent="t1"),
            _record(flightrec.OPERATION, 3, txn="t1.1",
                    op={"kind": "update"}),
            _record(flightrec.TXN_COMMIT, 4, txn="t1.1"),
            _record(flightrec.TXN_COMMIT, 5, txn="t1"),
        ]
        units = build_units(records)
        assert len(units) == 1
        assert len(units[0].records) == 5
        assert units[0].traffic

    def test_torn_open_group_becomes_barrier(self):
        records = [
            _record(flightrec.TXN_BEGIN, 1, txn="t1"),
            _record(flightrec.OPERATION, 2, txn="t1",
                    op={"kind": "update"}),
            # no commit: the journal tore here
        ]
        units = build_units(records)
        assert len(units) == 1
        assert not units[0].traffic


def _record_update_journal(data_dir, updates, spacing, action_sleep):
    """Record a journal: one object, then ``updates`` updates with a rule
    whose action sleeps ``action_sleep`` seconds per update."""
    db = HiPAC(flight_recorder=True, data_dir=data_dir)
    try:
        _install_update_rule(db, action_sleep)
        with db.transaction() as txn:
            oid = db.create("Q", {"v": 0}, txn)
        for index in range(updates):
            with db.transaction() as txn:
                db.update(oid, {"v": index + 1}, txn)
            time.sleep(spacing)
    finally:
        db.close()


def _install_update_rule(db, action_sleep, condition=Condition.true()):
    db.define_class(ClassDef("Q", attributes(("v", "int"))))
    rule = Rule(name="slowpoke", event=on_update("Q", attrs=["v"]),
                condition=condition,
                action=Action.call(lambda ctx: time.sleep(action_sleep)))
    db.create_rule(rule)
    return {"slowpoke": rule}


class TestPacedReplay:
    def test_roundtrip_reproduces_firings(self):
        data_dir = Path(tempfile.mkdtemp(prefix="paced-test-"))
        try:
            _record_update_journal(data_dir, updates=15, spacing=0.001,
                                   action_sleep=0.0)
            result = replay(
                data_dir,
                rules=lambda db: _install_update_rule(db, 0.0),
                speed=50.0)
            divergence = result.divergence
            assert not divergence.diverged
            assert divergence.expected_firings == 15
            assert divergence.replayed_firings == 15
            # the class, the rule, one create, fifteen updates: a unit each
            assert result.latency["count"] == 18
            assert result.stimuli_per_second > 0
            assert any("paced replay" in note for note in divergence.notes)
            # The fresh instance's SLO monitor can judge the run.
            result.db.timeseries.tick()
            assert result.db.slo.evaluate(), "SLO verdict missing"
            result.db.close()
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def test_paced_latency_sees_the_stall(self):
        """The coordinated-omission demonstration.

        The replayed rule's action sleeps ~4 ms per update while the
        journal offers an update every ~0.3 ms (about 6 ms recorded,
        20x), and every update writes one object — the engine cannot
        keep up.  Latency measured from the *schedule* must absorb the
        growing backlog: the last of ~30 queued updates is ~100 ms late,
        where a driver that waited for each reply would report one
        service time.  A host stall can only raise these latencies.
        """
        data_dir = Path(tempfile.mkdtemp(prefix="paced-co-"))
        try:
            _record_update_journal(data_dir, updates=30, spacing=0.002,
                                   action_sleep=0.004)
            result = replay(data_dir,
                            rules=lambda db: _install_update_rule(db, 0.004),
                            speed=20.0)
            result.db.close()
            assert not result.divergence.diverged
            assert result.latency["p95"] > 10 * 0.004
            assert result.latency["max"] > 0.040
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def test_a_changed_condition_outcome_diverges(self):
        """Paced replay judges firings by identity, not per-rule counts:
        the same rule firing as often with its condition now false is a
        divergence."""
        data_dir = Path(tempfile.mkdtemp(prefix="paced-cond-"))
        try:
            _record_update_journal(data_dir, updates=10, spacing=0.001,
                                   action_sleep=0.0)
            never = Condition(guard=lambda bindings, results: False)
            result = replay(
                data_dir,
                rules=lambda db: _install_update_rule(db, 0.0, never),
                speed=50.0)
            result.db.close()
            divergence = result.divergence
            assert divergence.replayed_firings == 10
            assert divergence.diverged
            assert len(divergence.missing_firings) == 10
            assert len(divergence.extra_firings) == 10
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
