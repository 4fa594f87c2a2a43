"""Tests for the serving-and-diagnosis layer: the embedded admin HTTP
endpoint, the rule-cascade profiler, the anomaly watchdogs, and the
``repro.tools.top`` dashboard.

The headline scenario is the acceptance criterion: a cyclic rule set
(A triggers B triggers A) must trip the cascade-depth watchdog, abort the
runaway cascade with a typed :class:`CascadeLimitExceeded`, and leave the
alert visible in both the watchdog's alert log and the ``/health``
endpoint — while ``/metrics`` stays valid Prometheus text under
concurrent scrapes.
"""

from __future__ import annotations

import json
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import (
    Action,
    CascadeLimitExceeded,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    external,
    on_create,
    on_update,
)
from repro.core.hipac import SNAPSHOT_SECTIONS
from repro.obs import watchdog as watchdog_module
from repro.obs.export import prometheus_text
from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.obs.profiler import RuleProfiler, percentile_of
from repro.obs.server import ROUTES
from repro.obs.slo import (
    DEFERRED_LIMIT,
    LATENCY,
    RATE,
    Objective,
    SLOMonitor,
    default_objectives,
)
from repro.obs.timeseries import TimeseriesRing
from repro.obs.watchdog import (
    CASCADE_DEPTH,
    CRITICAL,
    DEFERRED_QUEUE,
    KINDS,
    LOCK_WAIT,
    RULE_STORM,
    SLO_BURN,
    WARNING,
    Watchdog,
)
from repro.rules.coupling import DEFERRED, IMMEDIATE
from repro.rules.firing import FiringLog, RuleFiring
from repro.rules import manager as rule_manager
from repro.storage.framing import scan_frames
from repro.tools import doctor
from repro.tools import top as top_tool


def _db(**kwargs) -> HiPAC:
    kwargs.setdefault("lock_timeout", 2.0)
    db = HiPAC(**kwargs)
    db.define_class(ClassDef("A", attributes(("v", "int"))))
    db.define_class(ClassDef("B", attributes(("v", "int"))))
    return db


def _storm(rate: float, window: float) -> Objective:
    """The rule-storm detector: firings per second over ``window``."""
    return Objective("rule_storm", kind=RATE,
                     numerator="rules_conditions_evaluated", threshold=rate,
                     fast_window=window, alert=RULE_STORM)


def _detector(objective: Objective, stats=None):
    """A fake-clock ring over a fresh registry (plus a collector of
    ``stats``, when given) and a monitor running ``objective``."""
    registry = MetricsRegistry()
    if stats is not None:
        registry.add_collector(lambda: dict(stats))
    ring = TimeseriesRing(registry, interval=1.0, clock=lambda: 0.0)
    wd = Watchdog()
    return registry, ring, wd, SLOMonitor(ring, [objective], watchdog=wd)


def _tick(ring, monitor, now: float) -> None:
    ring.tick(now=now)
    monitor.evaluate(now=now)


def _get(url: str):
    """GET ``url``; returns (status, headers, body-bytes) without raising
    on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


# =============================================================== admin server


class TestAdminServer:
    def test_metrics_endpoint_serves_prometheus_text(self):
        db = _db()
        try:
            server = db.serve_admin()
            status, headers, body = _get(server.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            text = body.decode("utf-8")
            assert "# TYPE" in text and "# HELP" in text
            assert "hipac_" in text
            # Every non-comment line is `name{labels} value`.
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                assert re.match(r'^[A-Za-z_:][\w:]*(\{.*\})? \S+$', line), line
        finally:
            db.close()

    def test_health_and_stats_json(self):
        db = _db()
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/health")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert set(health["alerts"]) == set(
                (RULE_STORM, CASCADE_DEPTH, DEFERRED_QUEUE, LOCK_WAIT,
                 SLO_BURN))
            status, _, body = _get(
                server.url + "/snapshot?sections=time,uptime,stats,derived")
            assert status == 200
            payload = json.loads(body)
            assert payload["time"] > 0 and payload["uptime"] >= 0
            assert "rules" in payload["stats"]
            assert "watchdog" in payload["stats"]
            assert payload["derived"]["live_transactions"] == 0
        finally:
            db.close()

    def test_profile_endpoint_json_and_text(self):
        db = _db()
        try:
            db.create_rule(Rule(
                name="R", event=on_create("A"), condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
            server = db.serve_admin()
            status, _, body = _get(server.url + "/profile?top=5")
            assert status == 200
            profile = json.loads(body)
            assert profile["rules"]["R"]["firings"] == 1
            status, _, body = _get(server.url + "/profile?format=text")
            assert status == 200
            assert b"rule profile" in body
        finally:
            db.close()

    def test_trace_endpoint_409_without_trace_mode(self):
        db = _db(observability=True)
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/trace")
            assert status == 409
            assert b"trace" in body
        finally:
            db.close()

    def test_trace_endpoint_downloads_chrome_trace(self):
        db = _db(observability="trace")
        try:
            db.create_rule(Rule(
                name="R", event=on_create("A"), condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
            server = db.serve_admin()
            status, headers, body = _get(server.url + "/trace")
            assert status == 200
            assert "attachment" in headers.get("Content-Disposition", "")
            document = json.loads(body)
            assert document["traceEvents"]
        finally:
            db.close()

    def test_one_admin_surface(self):
        """The admin surface is ``snapshot()`` plus only the answers it
        cannot give.  A route added here is a second owner of a fact
        unless the snapshot cannot serve it; edit this list on purpose."""
        assert [path for path, _, _ in ROUTES] == [
            "/", "/snapshot", "/metrics", "/health", "/why", "/profile",
            "/forensics", "/trace", "/flight"]
        db = _db()
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/")
            assert status == 200
            listed = [line.split()[0] for line in
                      body.decode("utf-8").splitlines()
                      if line.startswith("  /")]
            assert listed == [path for path, _, _ in ROUTES]
            for path in listed:
                # 400: /why without an oid; 409: a subsystem that is off
                status, _, _ = _get(server.url + path)
                assert status in (200, 400, 409), path
            for gone in ("/stats", "/slo", "/alerts", "/timeseries"):
                status, _, _ = _get(server.url + gone)
                assert status == 404, gone
        finally:
            db.close()

    def test_unknown_path_404_with_index(self):
        db = _db()
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/nope")
            assert status == 404
            assert b"/metrics" in body  # the index helps the lost human
            status, _, body = _get(server.url + "/")
            assert status == 200 and b"/health" in body
        finally:
            db.close()

    def test_non_integer_param_is_a_client_error(self):
        db = _db()
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/profile?top=ten")
            assert status == 400
            assert b"top" in body and b"integer" in body
            # Negative counts clamp to zero rather than erroring.
            status, _, body = _get(server.url + "/profile?top=-5")
            assert status == 200
            assert json.loads(body)["rules"] == {}
        finally:
            db.close()

    def test_flight_endpoint_409_without_recorder(self):
        db = _db()
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/flight")
            assert status == 409
            assert b"flight_recorder=True" in body
        finally:
            db.close()

    def test_flight_endpoint_serves_stats_and_segment(self, tmp_path):
        db = _db(durability="wal", data_dir=tmp_path, flight_recorder=True)
        try:
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            server = db.serve_admin()
            # The journal's counters and position are the snapshot's;
            # /flight serves only the segment's bytes.
            status, _, body = _get(
                server.url + "/snapshot?sections=stats,journal")
            assert status == 200
            payload = json.loads(body)
            storage, journal = payload["stats"]["storage"], payload["journal"]
            assert storage["journal_records"] > 0
            assert journal["last_seq"] == storage["journal_last_seq"]
            status, headers, body = _get(server.url + "/flight")
            assert status == 200
            assert "attachment" in headers["Content-Disposition"]
            assert headers["Content-Type"] == "application/octet-stream"
            assert journal["segment"].endswith(
                headers["Content-Disposition"].split('"')[1])
            # The live segment is binary frames, flushed before serving:
            # it holds every record, the newest at the journal's last seq.
            records, discarded = scan_frames(body, "seq", 0)
            assert discarded == 0
            assert len(records) == storage["journal_records"]
            assert records[-1]["seq"] == journal["last_seq"]
        finally:
            db.close()

    def test_serve_admin_is_idempotent_and_close_stops_it(self):
        db = _db()
        server = db.serve_admin()
        assert db.serve_admin() is server
        assert server.running
        url = server.url
        assert server.request_count == 0
        _get(url + "/health")
        assert server.request_count == 1
        db.close()
        assert not server.running
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url + "/health", timeout=0.5)
        # close is idempotent
        server.close()

    def test_endpoints_valid_under_concurrent_load(self):
        """Acceptance: /metrics and /health stay valid while worker threads
        mutate the database and scraper threads hammer the endpoint."""
        db = _db()
        db.create_rule(Rule(
            name="busy", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        server = db.serve_admin()
        errors = []
        stop = threading.Event()

        def workload():
            while not stop.is_set():
                try:
                    with db.transaction() as txn:
                        db.create("A", {"v": 1}, txn)
                except Exception as exc:  # pragma: no cover
                    errors.append(("workload", exc))

        def scraper(path, validate):
            for _ in range(15):
                try:
                    status, _, body = _get(server.url + path)
                    assert status == 200
                    validate(body)
                except Exception as exc:
                    errors.append((path, exc))

        def valid_metrics(body):
            samples = _parse_prometheus(body.decode("utf-8"))
            assert ("hipac_txn_commit_seconds_count",
                    (("scope", "top"),)) in samples
            assert ("hipac_rules_conditions_evaluated", ()) in samples

        def valid_health(body):
            assert json.loads(body)["status"] in ("ok", "degraded")

        threads = [threading.Thread(target=workload) for _ in range(2)]
        threads += [threading.Thread(target=scraper,
                                     args=("/metrics", valid_metrics))
                    for _ in range(3)]
        threads += [threading.Thread(target=scraper,
                                     args=("/health", valid_health))
                    for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads[2:]:
            thread.join()
        stop.set()
        for thread in threads[:2]:
            thread.join()
        db.close()
        assert not errors, errors
        assert server.error_count == 0
        assert server.request_count >= 90

    def test_stats_and_metrics_scrapes_under_wal_commit_load(self, tmp_path):
        """The storage stats section stays scrapable while 8+ threads
        commit under ``durability="wal"``: /snapshot parses with live WAL
        counters and /metrics stays valid Prometheus text throughout."""
        db = _db(durability="wal", data_dir=tmp_path)
        server = db.serve_admin()
        errors = []
        stop = threading.Event()

        def committer(worker):
            while not stop.is_set():
                try:
                    with db.transaction() as txn:
                        db.create("A", {"v": worker}, txn)
                except Exception as exc:  # pragma: no cover
                    errors.append(("committer", exc))

        def scraper(path, validate):
            for _ in range(15):
                try:
                    status, _, body = _get(server.url + path)
                    assert status == 200
                    validate(body)
                except Exception as exc:
                    errors.append((path, exc))

        def valid_stats(body):
            payload = json.loads(body)
            storage = payload["stats"]["storage"]
            assert storage["wal_records"] >= 0
            assert storage["wal_fsyncs"] >= 0
            assert "provenance" in payload["stats"]

        def valid_metrics(body):
            samples = _parse_prometheus(body.decode("utf-8"))
            assert any(name.startswith("hipac_") and "wal" in name
                       for name, _ in samples)

        committers = [threading.Thread(target=committer, args=(i,))
                      for i in range(8)]
        scrapers = [threading.Thread(target=scraper,
                                     args=("/snapshot?sections=stats",
                                           valid_stats))
                    for _ in range(2)]
        scrapers += [threading.Thread(target=scraper,
                                      args=("/metrics", valid_metrics))
                     for _ in range(2)]
        for thread in committers + scrapers:
            thread.start()
        for thread in scrapers:
            thread.join()
        stop.set()
        for thread in committers:
            thread.join()
        committed = db.stats()["transactions"]["top_level_committed"]
        db.close()
        assert not errors, errors
        assert committed > 0
        assert server.error_count == 0


# ================================================== cascade watchdog (accept)


class TestCyclicCascadeWatchdog:
    def test_cyclic_rules_trip_detector_and_abort(self, monkeypatch):
        """A triggers B triggers A: the cascade must be cut at the
        depth bound with a typed error, a critical alert in the log,
        and /health reporting the instance as failing."""
        monkeypatch.setattr(rule_manager, "MAX_CASCADE_DEPTH", 8)
        db = _db()
        db.create_rule(Rule(
            name="a2b", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 0}))))
        db.create_rule(Rule(
            name="b2a", event=on_create("B"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("A", {"v": 0}))))
        server = db.serve_admin()
        try:
            with pytest.raises(CascadeLimitExceeded) as excinfo:
                with db.transaction() as txn:
                    db.create("A", {"v": 0}, txn)
            assert excinfo.value.depth == 8
            assert "max depth 8" in str(excinfo.value)

            # Alert log: one critical cascade_depth alert.
            alerts = db.watchdog.alerts(CASCADE_DEPTH)
            assert len(alerts) == 1
            assert alerts[0].severity == CRITICAL
            assert "depth 8" in alerts[0].message

            # Stats record the cut and the high-water depth.
            stats = db.stats()
            assert stats["rules"]["cascades_cut"] == 1
            assert stats["rules"]["max_cascade_depth_seen"] == 8
            assert stats["watchdog"]["alerts_cascade_depth"] == 1

            # /health: failing, with the alert in the recent list, HTTP 503.
            status, _, body = _get(server.url + "/health")
            assert status == 503
            health = json.loads(body)
            assert health["status"] == "failing"
            assert health["alerts"][CASCADE_DEPTH] == 1
            assert any(a["kind"] == CASCADE_DEPTH for a in health["recent"])
        finally:
            db.close()

    def test_caught_cascade_keeps_database_usable(self, monkeypatch):
        """The typed error is catchable; the rest of the database still
        works after the runaway transaction aborts."""
        monkeypatch.setattr(rule_manager, "MAX_CASCADE_DEPTH", 4)
        db = _db()
        db.create_rule(Rule(
            name="loop", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("A", {"v": 0}))))
        with pytest.raises(CascadeLimitExceeded):
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
        db.disable_rule("loop")
        with db.transaction() as txn:
            db.create("A", {"v": 7}, txn)
        db.close()


# ============================================================= watchdog unit


class TestWatchdogDetectors:
    def test_rule_storm_trips_over_threshold(self):
        stats = {"rules_conditions_evaluated": 0}
        _, ring, wd, monitor = _detector(_storm(5.0, window=10.0), stats)
        for now in range(1, 7):
            stats["rules_conditions_evaluated"] += 10
            _tick(ring, monitor, float(now))
        (alert,) = wd.alerts(RULE_STORM)
        assert alert.severity == WARNING
        assert alert.value == pytest.approx(10.0)
        assert alert.threshold == 5.0

    def test_rule_storm_quiet_below_threshold(self):
        stats = {"rules_conditions_evaluated": 0}
        _, ring, wd, monitor = _detector(_storm(1000.0, window=1.0), stats)
        for now in range(1, 11):
            stats["rules_conditions_evaluated"] += 10
            _tick(ring, monitor, float(now))
        assert wd.alerts() == []

    def test_storm_detector_disabled_by_default_config(self):
        """A storm limit depends on the rule base, so no default objective
        watches the firing rate: the detector is an appended objective."""
        assert [objective for objective in default_objectives()
                if objective.kind == RATE or objective.alert == RULE_STORM] \
            == []

    def test_realert_interval_suppresses_duplicates(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 60.0)
        wd = Watchdog()
        assert wd.note_cascade_limit(5, "sig") is not None
        assert wd.note_cascade_limit(5, "sig") is None
        assert len(wd.alerts(CASCADE_DEPTH)) == 1

    def test_deferred_queue_detector(self):
        objective = Objective(
            "deferred_batch", kind=LATENCY, histogram="deferred_batch_size",
            threshold=10, target=1.0, fast_window=1.0, slow_window=1.0,
            alert=DEFERRED_QUEUE)
        registry, ring, wd, monitor = _detector(objective)
        batches = registry.histogram("deferred_batch_size",
                                     buckets=DEFAULT_SIZE_BUCKETS)
        batches.observe(10)
        _tick(ring, monitor, 1.0)
        assert wd.alerts() == []
        batches.observe(11)
        _tick(ring, monitor, 2.0)
        (alert,) = wd.alerts(DEFERRED_QUEUE)
        assert alert.threshold == 10 and alert.value > 10

    def test_lock_wait_p95_checked_at_the_tick(self):
        objective = Objective("lock_wait", histogram="lock_wait_seconds",
                              threshold=0.010, target=0.95, min_count=5,
                              alert=LOCK_WAIT)
        registry, ring, wd, monitor = _detector(objective)
        waits = registry.histogram("lock_wait_seconds")
        for _ in range(10):
            waits.observe(0.050)
        assert wd.alerts() == []  # observations alone never alert
        _tick(ring, monitor, 1.0)
        (alert,) = wd.alerts(LOCK_WAIT)
        # The p95 estimated from the buckets: inside the 50 ms bucket.
        assert 0.025 < alert.value <= 0.050
        assert alert.threshold == 0.010

    def test_lock_wait_respects_min_samples(self):
        objective = Objective("lock_wait", histogram="lock_wait_seconds",
                              threshold=0.001, target=0.95, min_count=20,
                              alert=LOCK_WAIT)
        registry, ring, wd, monitor = _detector(objective)
        for _ in range(5):
            registry.histogram("lock_wait_seconds").observe(1.0)
        _tick(ring, monitor, 1.0)
        assert wd.alerts() == []

    def test_alert_ring_bounded_and_callbacks_fire(self, monkeypatch):
        monkeypatch.setattr(watchdog_module, "ALERT_CAPACITY", 3)
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 0.0)
        wd = Watchdog()
        received = []
        wd.add_callback(received.append)
        for index in range(5):
            wd.note_cascade_limit(index, "sig")
        assert len(wd) == 3
        assert wd.dropped == 2
        assert wd.stats["alerts_total"] == 5
        assert len(received) == 5
        assert wd.health()["alerts_dropped"] == 2
        assert [alert.value for alert in wd.alerts()] == [2.0, 3.0, 4.0]
        wd.clear()
        assert len(wd) == 0 and wd.dropped == 0
        assert wd.alerts() == []


class TestWatchdogWiring:
    def test_storm_detector_wired_through_facade(self):
        db = _db()
        db.timeseries.stop()  # ticks driven by hand
        db.slo.objectives.append(_storm(2.0, window=60.0))
        db.create_rule(Rule(
            name="chatty", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        for _ in range(150):
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
        db.timeseries.tick()
        assert db.watchdog.alerts(RULE_STORM)
        assert db.health()["status"] == "degraded"
        db.close()

    def test_deferred_queue_detector_wired_through_facade(self):
        db = _db()
        db.timeseries.stop()  # ticks driven by hand
        (batch,) = [objective for objective in db.slo.objectives
                    if objective.name == "deferred_batch"]
        batch.threshold = 3
        db.create_rule(Rule(
            name="later", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
            ec_coupling=DEFERRED))
        with db.transaction() as txn:
            for index in range(6):
                db.create("A", {"v": index}, txn)
        db.timeseries.tick()
        alerts = db.watchdog.alerts(DEFERRED_QUEUE)
        assert alerts and alerts[0].value >= 6
        db.close()

    def test_default_objectives_catch_a_runaway_deferred_set(self,
                                                             monkeypatch):
        """``HiPAC()`` alerts by the next tick on more than 10,000
        deferred firings: standing on a live transaction, then drained
        by its commit in one round."""
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 0.0)
        db = _db()
        try:
            db.timeseries.stop()  # ticks driven by hand
            db.define_event("ping")
            db.create_rule(Rule(
                name="later", event=external("ping"),
                condition=Condition.true(),
                action=Action.call(lambda ctx: None), ec_coupling=DEFERRED))
            txn = db.begin()
            for _ in range(DEFERRED_LIMIT + 1):
                db.signal_event("ping", txn=txn)
            db.timeseries.tick()
            (backlog,) = db.watchdog.alerts(DEFERRED_QUEUE)
            assert backlog.message.startswith("deferred_backlog")
            assert backlog.value == DEFERRED_LIMIT + 1
            assert backlog.threshold == DEFERRED_LIMIT
            db.commit(txn)
            db.timeseries.tick()
            _, drained = db.watchdog.alerts(DEFERRED_QUEUE)
            assert drained.message.startswith("deferred_batch")
            assert drained.value == DEFERRED_LIMIT + 1
            assert drained.threshold == DEFERRED_LIMIT
        finally:
            db.close()

    def test_lock_waits_feed_the_watchdog(self):
        from repro.txn.locks import LockManager, LockMode, LockResource
        from repro.txn.transaction import Transaction

        objective = Objective("lock_wait", histogram="lock_wait_seconds",
                              threshold=1e-6, target=0.95, min_count=1,
                              alert=LOCK_WAIT)
        registry, ring, wd, monitor = _detector(objective)
        locks = LockManager(default_timeout=2.0, metrics=registry)
        resource = LockResource.for_class("C")
        holder, waiter = Transaction("t1"), Transaction("t2")
        locks.acquire(holder, resource, LockMode.X)

        def release_soon():
            time.sleep(0.05)
            locks.release_all(holder)

        thread = threading.Thread(target=release_soon)
        thread.start()
        locks.acquire(waiter, resource, LockMode.X)
        thread.join()
        _tick(ring, monitor, 1.0)
        (alert,) = wd.alerts(LOCK_WAIT)
        assert alert.value >= 0.01

    def test_health_degrades_on_background_rule_errors(self):
        from repro.rules.coupling import SEPARATE

        db = _db()
        db.create_rule(Rule(
            name="doomed", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: 1 / 0),
            ec_coupling=SEPARATE))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert db.drain(5.0)
        health = db.health()
        assert health["background_rule_errors"] >= 1
        assert health["status"] == "degraded"
        db.close()


# ================================================================== profiler


class TestRuleProfiler:
    def test_counts_and_selectivity_from_firing_log(self):
        db = _db()
        db.create_rule(Rule(
            name="half", event=on_create("A"),
            condition=Condition(guard=lambda b, r: b.get("new_v", 0) > 0),
            action=Action.call(lambda ctx: None)))
        for value in (1, 0, 1, 0):
            with db.transaction() as txn:
                db.create("A", {"v": value}, txn)
        profiles = db.rule_profiler().profiles()
        profile = profiles["half"]
        assert profile.firings == 4
        assert profile.evaluated == 4
        assert profile.satisfied == 2
        assert profile.executed == 2
        assert profile.selectivity == pytest.approx(0.5)
        report = db.rule_profile()
        assert "half" in report and "50%" in report
        assert 'observability="trace"' in report
        db.close()

    def test_cascade_edges_and_self_vs_inclusive_time(self):
        db = _db(observability="trace")
        db.create_rule(Rule(
            name="outer", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: (time.sleep(0.01),
                                            ctx.create("B", {"v": 1})))))
        db.create_rule(Rule(
            name="inner", event=on_create("B"), condition=Condition.true(),
            action=Action.call(lambda ctx: time.sleep(0.01))))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        profiles = db.rule_profiler().profiles()
        outer, inner = profiles["outer"], profiles["inner"]
        assert outer.triggers == {"inner": 1}
        assert inner.triggered_by == {"outer": 1}
        assert list(outer.triggered_by) == [
            key for key in outer.triggered_by if key.startswith("event:")]
        # inner ran nested inside outer (immediate coupling): outer's self
        # time excludes it, outer's inclusive time covers both sleeps.
        assert outer.total_self >= 0.008
        assert inner.total_self >= 0.008
        assert outer.total_inclusive >= outer.total_self + 0.008
        assert outer.total_self <= outer.total_inclusive - 0.008
        timing = outer.timing()
        assert timing["inclusive_p95"] >= timing["self_p95"]
        db.close()

    def test_deferred_child_adds_detached_inclusive_time(self):
        db = _db(observability="trace")
        db.create_rule(Rule(
            name="queuer", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1}))))
        db.create_rule(Rule(
            name="at_commit", event=on_create("B"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: time.sleep(0.01)),
            ec_coupling=DEFERRED))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        profiles = db.rule_profiler().profiles()
        # The deferred firing ran after the queuing spans closed; its cost
        # still lands in the cascade-inclusive total of the chain.
        assert profiles["queuer"].total_inclusive >= 0.008
        assert profiles["queuer"].total_self < 0.008
        db.close()

    def test_hottest_ordering_and_report_table(self):
        log = FiringLog()
        for _ in range(5):
            log.append(RuleFiring("cold", "e", IMMEDIATE, IMMEDIATE,
                                  satisfied=True, executed=True))
        for _ in range(20):
            log.append(RuleFiring("hot", "e", IMMEDIATE, IMMEDIATE,
                                  satisfied=True, executed=True))
        profiler = RuleProfiler(log)
        assert [p.name for p in profiler.hottest(2)] == ["hot", "cold"]
        report = profiler.report(top=1)
        assert "hot" in report and "cold" not in report.split("\n")[2]
        payload = profiler.as_dict(top=1)
        assert list(payload["rules"]) == ["hot"]
        assert payload["rules"]["hot"]["firings"] == 20

    def test_report_notes_dropped_firings(self):
        log = FiringLog(capacity=2)
        for index in range(5):
            log.append(RuleFiring("r", "e", IMMEDIATE, IMMEDIATE))
        report = RuleProfiler(log).report()
        assert "3 earlier firings dropped" in report

    def test_empty_profiler(self):
        profiler = RuleProfiler(FiringLog())
        assert profiler.profiles() == {}
        assert "no firings" in profiler.report()

    def test_percentile_of_exact(self):
        values = sorted(float(v) for v in range(1, 101))
        assert percentile_of(values, 50) == pytest.approx(50.5)
        assert percentile_of(values, 95) == pytest.approx(95.05)
        assert percentile_of([3.0], 99) == 3.0
        assert percentile_of([], 50) == 0.0


# ============================================== satellites: histogram/export


class TestHistogramExactness:
    def test_single_value_percentile_is_exact(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat")
        histogram.observe(0.0073)
        assert histogram.percentile(50) == pytest.approx(0.0073)
        assert histogram.percentile(99) == pytest.approx(0.0073)

    def test_same_bucket_values_clamped_by_min_max(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat")
        for value in (0.0031, 0.0032, 0.0033):
            histogram.observe(value)
        # All three fall in one bucket; the estimate must stay inside the
        # observed [min, max], not wander across the whole bucket width.
        for q in (10, 50, 90):
            estimate = histogram.percentile(q)
            assert 0.0031 <= estimate <= 0.0033


class TestPrometheusRoundTrip:
    def test_help_and_type_once_per_family(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("rule_action_seconds", rule="x").observe(0.001)
        registry.histogram("rule_action_seconds", rule="y").observe(0.002)
        registry.histogram("lock_wait_seconds", mode="S").observe(0.01)
        registry.histogram("lock_wait_seconds", mode="X").observe(0.02)
        text = prometheus_text(registry)
        for family in ("rule_action_seconds", "lock_wait_seconds"):
            assert text.count("# TYPE hipac_%s " % family) == 1
            assert text.count("# HELP hipac_%s " % family) == 1
        # HELP text comes from the curated table, not the fallback.
        assert "Time lock requests spent blocked" in text
        _parse_prometheus(text)

    def test_label_values_escaped_and_parse_back(self):
        registry = MetricsRegistry(enabled=True)
        hostile = 'with"quote\\slash\nnewline'
        registry.histogram("odd_seconds", tag=hostile).observe(0.5)
        text = prometheus_text(registry)
        samples = _parse_prometheus(text)
        assert samples[("hipac_odd_seconds_count", (("tag", hostile),))] \
            == 1.0

    def test_full_facade_exposition_parses(self, tmp_path):
        """A fully-on instance after a firing, an alert and an SLO
        evaluation exports every sample once and every family in one
        contiguous run, with histogram and untyped families only."""
        db = _db(durability="wal", data_dir=tmp_path, forensics=True,
                 flight_recorder=True)
        try:
            db.create_rule(Rule(
                name="R", event=on_create("A"), condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
            db.watchdog.note_cascade_limit(5, "loop")
            db.slo.evaluate()
            text = db.prometheus_metrics()
        finally:
            db.close()
        samples = _parse_prometheus(text)
        assert samples[("hipac_rules_conditions_evaluated", ())] >= 1
        assert samples[("hipac_watchdog_alerts_cascade_depth", ())] == 1
        assert set(re.findall(r"^# TYPE \S+ (\S+)$", text, re.M)) \
            == {"histogram", "untyped"}
        # histogram invariants: count equals the +Inf bucket
        for (name, labels), value in samples.items():
            if name.endswith("_count"):
                inf_key = (name[:-len("_count")] + "_bucket",
                           labels + (("le", "+Inf"),))
                assert samples[inf_key] == value


def _parse_prometheus(text: str):
    """Strict exposition-format parser (the inverse of the exporter's
    escaping); returns {(name, ((label, value), ...)): float}.  Every
    (name, labels) sample appears once and each family's samples are
    contiguous, or a scrape would reject the page."""
    samples = {}
    typed, family = set(), None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert family not in typed, \
                "family %s is not contiguous" % family
            typed.add(family)
            continue
        if not line or line.startswith("#"):
            continue
        match = re.match(r'^([A-Za-z_:][\w:]*)(?:\{(.*)\})? (\S+)$', line)
        assert match, "unparseable exposition line: %r" % line
        name, label_text, value_text = match.groups()
        labels = []
        if label_text:
            for part in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', label_text):
                key, raw = part
                unescaped = (raw.replace("\\n", "\n").replace('\\"', '"')
                             .replace("\\\\", "\\"))
                labels.append((key, unescaped))
        value = float("inf") if value_text == "+Inf" else float(value_text)
        key = (name, tuple(labels))
        assert key not in samples, "duplicate sample: %r" % (key,)
        samples[key] = value
        assert family in (name, re.sub(r"_(bucket|sum|count)$", "", name)), \
            "sample %s outside its family %s" % (name, family)
    return samples


# ========================================================== explain satellite


class TestExplainDroppedNote:
    def test_explain_notes_dropped_records(self):
        from repro.tools.explain import explain

        log = FiringLog(capacity=2)
        for index in range(5):
            log.append(RuleFiring("r%d" % index, "e", IMMEDIATE, IMMEDIATE,
                                  satisfied=True, executed=True))
        rendered = explain(log)
        assert rendered.startswith("(3 earlier firing(s) dropped")
        assert "r4" in rendered

    def test_explain_unchanged_without_drops(self):
        from repro.tools.explain import explain

        log = FiringLog(capacity=10)
        log.append(RuleFiring("r", "e", IMMEDIATE, IMMEDIATE,
                              satisfied=True, executed=True))
        assert "dropped" not in explain(log)
        assert explain(FiringLog()) == "no firings recorded"


# ================================================================= tools.top


class TestTopDashboard:
    def _snapshot(self, timeseries):
        """A ``/snapshot`` payload holding the sections top asks for."""
        return {
            "time": 50.0, "uptime": 50.0,
            "health": {"status": "ok", "alerts_total": 1,
                       "recent": [{"severity": "warning",
                                   "kind": "rule_storm",
                                   "message": "busy", "timestamp": 45.0}]},
            "stats": {"provenance": {"live_entries": 3, "evicted": 0,
                                     "approx_bytes": 2048}},
            "derived": {"live_transactions": 1, "deferred_queue_depth": 2},
            "forensics": None,
            "timeseries": timeseries,
        }

    def _timeseries(self):
        """Two one-second windows: 10 then 30 commits, 8 firings, and
        the aggregate the server merges them into."""
        windows = [
            {"seq": 1, "t": 48.0, "dt": 1.0, "idle": False,
             "collected": {"transactions_committed": 10}, "histograms": {}},
            {"seq": 2, "t": 49.0, "dt": 1.0, "idle": False,
             "collected": {"transactions_committed": 30,
                           "rules_triggered": 8}, "histograms": {}},
        ]
        return {
            "interval": 1.0, "stats": {}, "windows": windows,
            "aggregate": {
                "elapsed": 2.0, "windows": 2,
                "collected": {
                    "rules_triggered": {"delta": 8, "rate": 4.0},
                    "transactions_committed": {"delta": 40, "rate": 20.0}},
                "histograms": {'txn_commit_seconds{scope="top"}': {
                    "count": 40, "sum": 0.04, "mean": 0.001,
                    "p50": 0.001, "p95": 0.002, "p99": 0.003,
                    "p999": 0.004}}},
        }

    def test_rates_and_sparklines_from_the_timeseries_section(self):
        series = self._timeseries()
        rows = {label: (rate, spark) for label, rate, spark
                in top_tool.timeseries_rows(series)}
        assert rows["txn commits/s"] == (20.0, "▃█")
        assert rows["rule firings/s"] == (4.0, "▁█")
        assert rows["txn aborts/s"] == (0.0, "▁▁")
        latency = top_tool.commit_latency(series)
        assert latency["count"] == 40 and latency["p99"] == 0.003

    def test_render_frame(self):
        frame = top_tool.render(self._snapshot(self._timeseries()))
        assert "status ok" in frame
        assert "deferred queue 2" in frame
        assert "rule_storm" in frame and "last alert" in frame
        assert "20.0  ▃█" in frame
        assert "p99 3.00ms" in frame and "(40 commits)" in frame
        # The ticker off: the section is None, and the frame says so
        # instead of showing rates.
        frame = top_tool.render(self._snapshot(None))
        assert "status ok" in frame and "rule_storm" in frame
        assert "ticker off" in frame
        assert "txn commits/s" not in frame and "commit latency" not in frame
        # A ticker that has not closed a window yet.
        empty = dict(self._timeseries(), windows=[])
        frame = top_tool.render(self._snapshot(empty))
        assert "waiting for the first ticker window" in frame

    def test_main_against_live_server(self, capsys):
        db = _db()
        server = db.serve_admin()
        try:
            code = top_tool.main(["--url", server.url, "--interval", "0.05",
                                  "--iterations", "2", "--plain"])
        finally:
            db.close()
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("hipac top") == 2
        # observability=False starts no ticker: one request still serves
        # the frame, which shows no rates.
        db = _db(observability=False)
        server = db.serve_admin()
        try:
            code = top_tool.main(["--url", server.url, "--iterations", "1",
                                  "--plain"])
        finally:
            db.close()
        assert code == 0 and server.request_count == 1
        assert "ticker off" in capsys.readouterr().out

    def test_main_unreachable_url_errors(self, capsys):
        code = top_tool.main(["--url", "http://127.0.0.1:1",
                              "--iterations", "1", "--plain"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_format_duration(self):
        assert top_tool.format_duration(5) == "5s"
        assert top_tool.format_duration(125) == "2m05s"
        assert top_tool.format_duration(7322) == "2h02m"


# ================================================================== snapshot


class TestSnapshotEndpoint:
    def test_sections_bounds_and_agreement_with_the_endpoints(self):
        db = _db()
        try:
            db.timeseries.stop()  # quiescent: no tick between the GETs
            server = db.serve_admin()
            status, _, body = _get(
                server.url + "/snapshot?sections=health,stats")
            assert status == 200
            assert set(json.loads(body)) == {"health", "stats"}
            status, _, body = _get(server.url + "/snapshot?sections=nope")
            assert status == 400 and b"nope" in body
            status, _, body = _get(server.url + "/snapshot?last=x")
            assert status == 400 and b"last" in body
            status, _, body = _get(server.url + "/snapshot")
            assert status == 200
            snapshot = json.loads(body)
            assert set(snapshot) == set(SNAPSHOT_SECTIONS)
            status, _, body = _get(server.url + "/health")
            assert status == 200
            assert json.loads(body) == snapshot["health"]
            # the timeseries aggregate merges exactly the windows listed
            series = snapshot["timeseries"]
            assert series["aggregate"]["windows"] == len(series["windows"])
            status, _, body = _get(server.url + "/")
            assert status == 200 and b"/snapshot" in body
        finally:
            db.close()

    def test_last_zero_returns_no_items(self, tmp_path):
        db = _db(data_dir=tmp_path, flight_recorder=True)
        try:
            db.timeseries.stop()
            db.create_rule(Rule(
                name="R", event=on_create("A"), condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            db.timeseries.tick()
            for kind in (RULE_STORM, LOCK_WAIT, DEFERRED_QUEUE):
                db.watchdog.alert(kind, WARNING, "synthetic", 2.0, 1.0)
            db.slow_log.note("commit", "synthetic", 1.0)
            server = db.serve_admin()

            def get(path):
                status, _, body = _get(server.url + path)
                assert status == 200, path
                return json.loads(body)

            # every ring holds something, and ?last=0 takes none of it
            full = get("/snapshot")
            empty = get("/snapshot?last=0")
            assert len(full["alerts"]) == 3
            assert get("/snapshot?sections=alerts&last=-1")["alerts"] == []
            for ring in ("alerts", "firings", "slowlog"):
                assert full[ring] and empty[ring] == [], ring
            assert full["timeseries"]["windows"]
            assert full["timeseries"]["aggregate"]["windows"] == 1
            assert empty["timeseries"]["windows"] == []
            assert empty["timeseries"]["aggregate"]["windows"] == 0
            assert empty["timeseries"]["aggregate"]["collected"] == {}
            assert full["profile"]["rules"] and empty["profile"]["rules"] == {}
            assert get("/profile")["rules"]
            assert get("/profile?top=0")["rules"] == {}
        finally:
            db.close()


# ============================================================== admin smoke


def test_admin_smoke():
    """Every admin endpoint answers one instance that has done a little
    of everything: committed and aborted writes, a rule whose action
    writes, a cascade; then the same under ``observability="trace"``."""
    def get(server, path):
        try:
            with urllib.request.urlopen(server.url + path, timeout=10) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as err:
            return err.code, err.read()

    def cascade(db):  # outer's action creates the Inner that fires inner
        for name in ("Outer", "Inner"):
            db.define_class(ClassDef(name, attributes(("v", "int"))))
        db.create_rule(Rule(name="outer", event=on_create("Outer"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: ctx.create("Inner", {"v": 1}))))
        db.create_rule(Rule(name="inner", event=on_create("Inner"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("Outer", {"v": 0}, txn)

    db = HiPAC()
    for name in ("Smoke", "Feed", "Echo"):
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    db.create_rule(Rule(name="watch", event=on_update("Smoke"),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: None)))
    with db.transaction() as txn:
        oid = db.create("Smoke", {"v": 1}, txn)
        feed = db.create("Feed", {"v": 0}, txn)
        echo = db.create("Echo", {"v": 0}, txn)
    # a rule whose action writes: /why on Echo.v walks back to Feed
    db.create_rule(Rule(name="echo", event=on_update("Feed"),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: ctx.update(
                            echo, {"v": ctx.bindings["new_v"]}))))
    with db.transaction() as txn:
        db.update(oid, {"v": 2}, txn)
        db.update(feed, {"v": 5}, txn)
    txn = db.begin()
    db.update(oid, {"v": 3}, txn)
    db.abort(txn)  # aborted work never reaches the provenance store
    server = db.serve_admin()  # ephemeral port
    with urllib.request.urlopen(server.url + "/metrics", timeout=10) as resp:
        text = resp.read().decode("utf-8")
        assert resp.status == 200, resp.status
    assert "# TYPE hipac_txn_commit_seconds histogram" in text, text[:400]
    # one sample per (name, labels), each family in one contiguous run
    samples, typed, family = {}, set(), None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            family = line.split()[2]
            assert family not in typed, "split family " + family
            typed.add(family)
        elif line and not line.startswith("#"):
            key, value = line.rsplit(" ", 1)
            assert key not in samples, "duplicate sample " + key
            samples[key] = float(value)
            name = key.split("{", 1)[0]
            assert family in (name, re.sub(r"_(bucket|sum|count)$", "", name)), key
    assert samples["hipac_rules_conditions_evaluated"] >= 1, samples
    with urllib.request.urlopen(server.url + "/health", timeout=10) as resp:
        health = json.loads(resp.read())
        assert resp.status == 200 and health["status"] == "ok", health
    why_url = (server.url + "/why?attr=v&oid="
               + urllib.parse.quote(str(oid)))
    with urllib.request.urlopen(why_url, timeout=10) as resp:
        chain = json.loads(resp.read())
        assert resp.status == 200, resp.status
        assert chain["complete"] and chain["hops"], chain
        assert chain["hops"][0]["cause"]["kind"] == "application", chain
        assert chain["hops"][0]["new"] == 2, chain
    why_url = (server.url + "/why?attr=v&oid="
               + urllib.parse.quote(str(echo)))
    with urllib.request.urlopen(why_url, timeout=10) as resp:
        chain = json.loads(resp.read())
        assert resp.status == 200 and chain["complete"], chain
        rule_hop, app_hop = chain["hops"]
        assert rule_hop["new"] == 5, chain
        cause = rule_hop["cause"]
        assert (cause["kind"], cause["rule"]) == ("rule", "echo"), chain
        assert cause["trigger_op"] == "update", chain
        assert cause["trigger_attrs"] == ["v"], chain
        assert (app_hop["oid"], app_hop["new"]) == (str(feed), 5), chain
        assert app_hop["cause"]["kind"] == "application", chain
    status, body = get(server, "/snapshot?sections=stats,alerts,slo")
    assert status == 200, status
    document = json.loads(body)
    stats = document["stats"]
    assert stats["provenance"]["pruned"] == 1, stats["provenance"]
    watchdog = stats["watchdog"]
    assert watchdog["alerts_total"] == 0 and watchdog["alerts_dropped"] == 0, watchdog
    assert set(watchdog) == {"alerts_total", "alerts_dropped"} | {
        "alerts_" + kind for kind in KINDS}, watchdog
    assert not any(watchdog.values()) and document["alerts"] == [], document
    states = {o["name"]: o["state"] for o in document["slo"]["objectives"]}
    assert states == dict.fromkeys(
        ("commit_latency", "firing_errors", "alert_free",
         "deferred_batch", "deferred_backlog"), "ok"), states
    # cascade edges come from the firing log at every level; timing only under trace
    cascade(db)
    status, body = get(server, "/profile")
    assert status == 200, status
    assert json.loads(body)["rules"]["outer"]["triggers"] == {"inner": 1}, body
    status, _ = get(server, "/trace")
    assert status == 409, status
    # the diagnosis document, served whole, and doctor diagnosing it live
    status, body = get(server, "/snapshot")
    assert status == 200, status
    snapshot = json.loads(body)
    assert snapshot["stats"]["provenance"]["pruned"] == 1, snapshot["stats"]
    assert snapshot["profile"]["rules"]["outer"]["triggers"] == {"inner": 1}, body
    assert doctor.main(["--url", server.url]) == 0
    db.close()
    assert not server.running
    traced = HiPAC(observability="trace")
    cascade(traced)
    traced_server = traced.serve_admin()
    status, body = get(traced_server, "/trace")
    assert status == 200, status
    events = json.loads(body)["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"fire:outer", "act:outer", "fire:inner", "act:inner"} <= names, names
    starts = sorted(e["id"] for e in events if e["ph"] == "s")
    assert starts and starts == sorted(e["id"] for e in events if e["ph"] == "f"), events
    status, body = get(traced_server, "/profile")
    assert json.loads(body)["rules"]["outer"]["triggers"] == {"inner": 1}, body
    traced.close()
    print("admin smoke ok:", server.request_count + traced_server.request_count,
          "requests served")
