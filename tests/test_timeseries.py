"""Tests for the windowed-telemetry layer: histogram delta states, the
timeseries ring, the SLO burn-rate monitor, and the recorded-traffic
load generator.

The ring and the monitor are driven with fake clocks throughout — every
windowing and state-machine assertion is deterministic.  The one
deliberately wall-clock test is the coordinated-omission demonstration:
the open-loop load generator must report the latency a stalled engine
inflicts on its *schedule*, which the closed-loop control mode
structurally cannot see.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
    on_update,
)
from repro.obs import flightrec
from repro.obs.metrics import (
    HistogramState,
    MetricsRegistry,
    percentile_from_counts,
)
from repro.obs.slo import (
    BREACHED,
    BURNING,
    LATENCY,
    OK,
    RATIO,
    RECOVERED,
    Objective,
    SLOMonitor,
)
from repro.obs.timeseries import TimeseriesRing
from repro.obs.watchdog import SLO_BURN, Watchdog
from repro.tools.loadgen import build_units, run_loadgen


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


class TestTimeseriesRing:
    def test_windows_hold_deltas_not_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total")
        hist = registry.histogram("op_seconds")
        ring = _ring(registry)
        counter.inc(5)
        hist.observe(0.01)
        ring.tick(now=1.0)
        counter.inc(3)
        ring.tick(now=2.0)
        first, second = ring.windows()
        assert first.counters["reqs_total"] == 5
        assert first.histograms["op_seconds"].count == 1
        assert second.counters["reqs_total"] == 3
        # No histogram activity in the second window: the delta is not
        # stored at all (bounded-memory rule: only nonzero entries).
        assert "op_seconds" not in second.histograms

    def test_ring_memory_is_bounded_under_soak(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total")
        ring = _ring(registry, capacity=16)
        for tick in range(500):
            counter.inc()
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
        counter = registry.counter("reqs_total")
        ring = _ring(registry)
        for tick in range(4):
            counter.inc(10)
            ring.tick(now=float(tick + 1))
        agg = ring.aggregate(2.5, now=4.0)  # covers windows at t=2,3,4
        entry = agg["counters"]["reqs_total"]
        assert entry["delta"] == 30
        assert entry["rate"] == pytest.approx(30 / agg["elapsed"])

    def test_labeled_families_merge_under_base_name(self):
        registry = MetricsRegistry()
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
        counters = registry.counter("errs_total", kind="a")
        counters.inc(2)
        registry.counter("errs_total", kind="b").inc(3)
        ring.tick(now=2.0)
        delta, covered = ring.counter_window("errs_total", 10.0, now=2.0)
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
    monitor = SLOMonitor(ring, [objective], watchdog=watchdog,
                         metrics=registry)
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
        errs = registry.counter("errs_total")
        reqs = registry.counter("reqs_total")
        ring = _ring(registry)
        objective = Objective("errors", kind=RATIO,
                              numerator="errs_total",
                              denominator="reqs_total", budget=0.10,
                              fast_window=2.0, slow_window=50.0)
        monitor = SLOMonitor(ring, [objective])
        reqs.inc(100)
        ring.tick(now=1.0)
        monitor.evaluate(now=1.0)
        assert objective.state == OK
        errs.inc(50)
        reqs.inc(100)
        ring.tick(now=2.0)
        monitor.evaluate(now=2.0)
        # 50/200 errors in both windows against a 10% budget.
        assert objective.state == BREACHED

    def test_state_gauges_exported(self):
        registry, hist, ring, objective, _, monitor = _latency_setup()
        hist.observe(0.001)
        ring.tick(now=1.0)
        monitor.evaluate(now=1.0)
        snapshot = registry.collect()
        assert snapshot["gauges"]['slo_state{objective="lat"}'] == 0
        assert 'slo_burn_rate{objective="lat",window="fast"}' \
            in snapshot["gauges"] or True  # zero-valued gauges may elide

    def test_summary_counts_states(self):
        _, hist, ring, objective, _, monitor = _latency_setup()
        summary = monitor.summary()
        assert summary["objectives"] == 1
        assert summary["ok"] == 1


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
            assert stats["slo"]["objectives"] == 3
            health = db.health()
            assert health["slo"]["state"] == "ok"
            assert set(health["slo"]["objectives"]) == {
                "commit_latency", "firing_errors", "alert_free"}

            server = db.serve_admin()
            import json as _json
            import urllib.request as _request
            with _request.urlopen(server.url
                                  + "/timeseries?last=5&window=60",
                                  timeout=5.0) as resp:
                payload = _json.loads(resp.read())
            assert payload["windows"]
            assert "aggregate" in payload
            with _request.urlopen(server.url + "/slo",
                                  timeout=5.0) as resp:
                slo = _json.loads(resp.read())
            assert slo["worst_state"] == "ok"
            assert len(slo["objectives"]) == 3
        finally:
            db.close()
        # close() stops the ticker thread.
        assert not db.timeseries.running

    def test_endpoints_409_when_ticker_off(self):
        import urllib.error as _error
        import urllib.request as _request
        db = HiPAC(observability=False)
        try:
            assert db.timeseries is None
            assert db.slo is None
            server = db.serve_admin()
            for path in ("/timeseries", "/slo"):
                with pytest.raises(_error.HTTPError) as err:
                    _request.urlopen(server.url + path, timeout=5.0)
                assert err.value.code == 409
        finally:
            db.close()


# ============================================================ load generator


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


def _install_update_rule(db, action_sleep):
    db.define_class(ClassDef("Q", attributes(("v", "int"))))
    rule = Rule(name="slowpoke", event=on_update("Q", attrs=["v"]),
                condition=Condition.true(),
                action=Action.call(lambda ctx: time.sleep(action_sleep)))
    db.create_rule(rule)
    return {"slowpoke": rule}


class TestLoadgenReplay:
    def test_roundtrip_reproduces_firing_counts(self):
        data_dir = Path(tempfile.mkdtemp(prefix="loadgen-test-"))
        try:
            _record_update_journal(data_dir, updates=15, spacing=0.001,
                                   action_sleep=0.0)
            report = run_loadgen(
                data_dir,
                rules=lambda db: _install_update_rule(db, 0.0),
                speed=50.0)
            assert not report.firing_divergence
            assert report.firing_counts["slowpoke"]["got"] == 15
            assert report.latency["count"] == report.units
            assert report.stimuli_per_second > 0
            assert report.slo, "SLO verdict missing from the report"
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)

    def test_open_loop_sees_the_stall_closed_loop_hides_it(self):
        """The coordinated-omission demonstration.

        The replayed rule's action sleeps ~4 ms per update while the
        journal offers an update every ~0.1 ms (2 ms recorded, 20x) —
        the engine cannot keep up.  Open-loop latency (measured from the
        *schedule*) must absorb the growing backlog; the closed-loop
        control (measured from the send that politely waited) reports
        only the per-update service time and hides the overload.
        """
        data_dir = Path(tempfile.mkdtemp(prefix="loadgen-co-"))
        try:
            _record_update_journal(data_dir, updates=30, spacing=0.002,
                                   action_sleep=0.004)
            common = dict(
                rules=lambda db: _install_update_rule(db, 0.004),
                speed=20.0, workers=1)
            open_report = run_loadgen(data_dir, open_loop=True, **common)
            closed_report = run_loadgen(data_dir, open_loop=False,
                                        **common)
            assert not open_report.firing_divergence
            assert not closed_report.firing_divergence
            # ~30 queued updates at ~4ms each: the last one is ~100ms
            # late against its schedule.  Closed loop never sees more
            # than one service time.
            assert open_report.latency["p95"] \
                > 3 * closed_report.latency["p95"]
            assert open_report.latency["max"] > 0.040
        finally:
            shutil.rmtree(data_dir, ignore_errors=True)
