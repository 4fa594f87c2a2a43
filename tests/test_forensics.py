"""Tests for the incident-forensics layer: the black-box snapshot
recorder (:mod:`repro.obs.forensics`), the ``doctor`` diagnosis engine
(:mod:`repro.tools.doctor`), the admin server's ``/forensics`` endpoint,
and the snapshot's ``alerts`` section.

The headline scenario is the acceptance criterion: an induced rule storm
must produce a snapshot bundle whose doctor report names the storming
rule as the top finding and emits a ``replay --until SEQ`` command with
SEQ inside the incident's journal range.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
import urllib.error
import urllib.request

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
from repro.obs import watchdog as watchdog_module
from repro.obs.flightrec import read_journal
from repro.obs import forensics as forensics_module
from repro.obs.forensics import ForensicsRecorder
from repro.obs.slo import RATE, Objective
from repro.obs.watchdog import RULE_STORM, SLO_BURN, WARNING
from repro.tools import doctor
from repro.tools import top as top_tool


def _db(tmp_path, **kwargs) -> HiPAC:
    kwargs.setdefault("lock_timeout", 2.0)
    kwargs.setdefault("data_dir", tmp_path)
    kwargs.setdefault("forensics", True)
    db = HiPAC(**kwargs)
    db.define_class(ClassDef("A", attributes(("v", "int"))))
    return db


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestForensicsRecorder:
    def test_concurrent_same_kind_triggers_yield_one_bundle(self, tmp_path,
                                                            monkeypatch):
        """Two (here: eight) breaches of the same kind inside the
        debounce window must yield exactly one bundle — the per-kind
        check-and-set is atomic under the recorder lock."""
        monkeypatch.setattr(forensics_module, "DEBOUNCE_SECONDS", 3600.0)
        db = _db(tmp_path)
        try:
            recorder = db.forensics
            accepted = []
            barrier = threading.Barrier(8)

            def breach():
                barrier.wait()
                if recorder.trigger(RULE_STORM, reason="synthetic breach"):
                    accepted.append(1)

            threads = [threading.Thread(target=breach) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(accepted) == 1
            assert _wait_for(
                lambda: recorder.stats_snapshot()["captures"] == 1)
            snapshot = recorder.stats_snapshot()
            assert snapshot["debounced"] == 7
            bundles = recorder.list_bundles()
            assert len(bundles) == 1
            assert bundles[0]["kind"] == RULE_STORM
        finally:
            db.close()

    def test_manual_capture_bypasses_debounce(self, tmp_path, monkeypatch):
        monkeypatch.setattr(forensics_module, "DEBOUNCE_SECONDS", 3600.0)
        db = _db(tmp_path)
        try:
            first = db.forensics.capture(reason="one")
            second = db.forensics.capture(reason="two")
            assert first and second and first != second
            assert db.forensics.stats_snapshot()["captures"] == 2
        finally:
            db.close()

    def test_capture_error_counts_and_never_propagates(self, tmp_path):
        """A capture-thread exception increments the error counter and
        never reaches the signalling thread."""
        db = _db(tmp_path)
        try:
            recorder = db.forensics

            def explode(kind, reason, alert):
                raise RuntimeError("synthetic capture failure")

            recorder._build_bundle = explode
            # The signalling side: trigger() must return normally.
            assert recorder.trigger(RULE_STORM, reason="will fail")
            assert _wait_for(
                lambda: recorder.stats_snapshot()["capture_errors"] == 1)
            snapshot = recorder.stats_snapshot()
            assert snapshot["captures"] == 0
            assert db.stats()["forensics"]["capture_errors"] == 1
            # The worker survives the error: a healthy capture after the
            # failure still lands.
            del recorder.__dict__["_build_bundle"]
            assert recorder.capture(reason="recovered")
            assert recorder.stats_snapshot()["captures"] == 1
        finally:
            db.close()

    def test_eviction_soak_keeps_disk_under_budget(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setattr(forensics_module, "DEBOUNCE_SECONDS", 0.0)
        monkeypatch.setattr(forensics_module, "MAX_BUNDLES", 500)
        # trim the per-bundle rings so the soak stays fast
        monkeypatch.setattr(forensics_module, "SNAPSHOT_LAST", 10)
        db = _db(tmp_path)
        try:
            # Bundle size depends on how many threads are alive in this
            # process (stack dumps), so size the budget from a probe
            # capture: room for ~4 bundles, far fewer than the 50 the
            # soak writes.
            probe = ForensicsRecorder(db, tmp_path / "probe")
            probe.capture(reason="probe")
            budget = 4 * probe.stats_snapshot()["bytes"]
            probe.close()
            monkeypatch.setattr(forensics_module, "DISK_BUDGET_BYTES", budget)
            recorder = ForensicsRecorder(db, tmp_path)
            for index in range(50):
                assert recorder.capture(reason="soak %d" % index)
            snapshot = recorder.stats_snapshot()
            assert snapshot["captures"] == 50
            assert snapshot["evicted"] > 0
            assert snapshot["bundles"] < 50
            on_disk = sum(
                path.stat().st_size
                for path in recorder.directory.glob("forensic-*.json"))
            assert on_disk <= budget
            assert snapshot["bytes"] == on_disk
            # Newest-first listing survives eviction, newest is intact.
            bundles = recorder.list_bundles()
            assert bundles[0]["seq"] == 50
            assert recorder.load_bundle(bundles[0]["id"])["reason"] \
                == "soak 49"
            recorder.close()
        finally:
            db.close()

    def test_bundle_covers_the_diagnosis_surface(self, tmp_path):
        db = _db(tmp_path, flight_recorder=True)
        try:
            db.create_rule(Rule(
                name="R", event=on_create("A"), condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            bundle_id = db.forensics.capture(reason="surface check")
            bundle = db.forensics.load_bundle(bundle_id)
            assert bundle["format"] == "hipac-forensics/1"
            assert bundle["kind"] == "manual"
            assert bundle["stats"]["rules"]["triggered"] >= 1
            assert bundle["health"]["status"] in ("ok", "degraded")
            assert bundle["profile"]["rules"]["R"]["firings"] == 1
            assert any(f["rule"] == "R" for f in bundle["firings"])
            assert bundle["envelope"]["uptime"] >= 0
            assert bundle["envelope"]["config"]["flight_recorder"] is True
            assert bundle["journal"]["last_seq"] >= 1
            assert "--until" in bundle["journal"]["replay_command"]
            # every live thread is dumped, including this one
            names = [dump["name"] for dump in bundle["threads"]]
            assert any("MainThread" in name for name in names)
            assert all(dump["stack"] for dump in bundle["threads"])
            # the numeric stats section survives the Prometheus floater
            text = db.prometheus_metrics()
            assert "forensics_captures" in text
        finally:
            db.close()

    def test_wal_append_failure_triggers_capture(self, tmp_path):
        db = _db(tmp_path, durability="wal")
        try:
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            txn = db.begin()
            db.create("A", {"v": 2}, txn)
            db.wal._writer.append = _raise_io  # break the log device
            # The commit is where the log is written: the failed append
            # is counted, fires the forensics hook and surfaces there.
            with pytest.raises(OSError):
                db.commit(txn)
            recorder = db.forensics
            assert _wait_for(
                lambda: recorder.stats_snapshot()["captures"] >= 1)
            bundles = recorder.list_bundles()
            assert any(bundle["kind"] == "wal_failure"
                       for bundle in bundles)
            loaded = recorder.load_bundle(bundles[0]["id"])
            findings = doctor.diagnose(loaded)
            assert findings[0].kind == "wal_failure"
            assert findings[0].severity == "critical"
        finally:
            db.close()

    def test_close_is_idempotent_and_stops_triggers(self, tmp_path):
        db = _db(tmp_path)
        recorder = db.forensics
        db.close()
        db.close()
        assert recorder.trigger(RULE_STORM, reason="after close") is False
        assert recorder.capture(reason="after close") is None

    def test_thread_dump_survives_a_collection_while_threads_come_and_go(self):
        """``sys._current_frames()`` on CPython < 3.12.4 holds the runtime's
        thread-list lock while it allocates (gh-106883): a collection that
        starts there and lets a starting or exiting thread in stops the
        process for good, so the dump must not collect there.  Driven in a
        child, because the failure is a frozen interpreter: garbage whose
        finalizer yields the GIL and a collection due at the next
        allocation on every call, threads starting and exiting throughout."""
        child = textwrap.dedent("""
            import gc, os, sys, threading, time
            from repro.obs import forensics

            class Cycle:
                def __init__(self):
                    self.me = self
                def __del__(self):
                    time.sleep(0)               # lets another thread in

            current_frames = sys._current_frames

            def frames_with_a_collection_due():
                garbage = [Cycle() for _ in range(5)]
                del garbage
                gc.set_threshold(1)
                try:
                    return current_frames()
                finally:
                    gc.set_threshold(100000)

            def dump():
                while True:
                    forensics._thread_dumps()

            def churn():
                while True:
                    threads = [threading.Thread(target=int) for _ in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()

            gc.set_threshold(100000)
            sys._current_frames = frames_with_a_collection_due
            for target in (dump, churn):
                threading.Thread(target=target, daemon=True).start()
            time.sleep(1.5)
            os._exit(0)
        """)
        done = subprocess.run(
            [sys.executable, "-c", child], timeout=30,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
        assert done.returncode == 0


def _raise_io(*args, **kwargs):
    raise IOError("synthetic device failure")


class TestDoctor:
    def test_rule_storm_end_to_end(self, tmp_path):
        """Acceptance: induced storm -> bundle -> doctor names the
        storming rule on top, with a bisection seq inside the incident's
        journal range."""
        db = _db(tmp_path, flight_recorder=True)
        db.slo.objectives.append(Objective(
            "rule_storm", kind=RATE, numerator="rules_conditions_evaluated",
            threshold=50.0, fast_window=0.5, alert=RULE_STORM))
        try:
            db.define_class(ClassDef("Stock", attributes(("price", "float"))))
            db.create_rule(Rule(
                name="stormer", event=on_update("Stock", attrs=["price"]),
                condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            db.create_rule(Rule(
                name="bystander", event=on_create("A"),
                condition=Condition.true(),
                action=Action.call(lambda ctx: None)))
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
                oid = db.create("Stock", {"price": 1.0}, txn)
            for index in range(300):
                with db.transaction() as txn:
                    db.update(oid, {"price": float(index)}, txn)
            db.drain()
            recorder = db.forensics
            assert _wait_for(
                lambda: recorder.stats_snapshot()["captures"] >= 1)
            bundles = recorder.list_bundles()
            assert bundles[0]["kind"] == RULE_STORM
            bundle = recorder.load_bundle(bundles[0]["id"])
        finally:
            db.close()
        findings = doctor.diagnose(bundle)
        top_finding = findings[0]
        assert top_finding.kind == RULE_STORM
        assert top_finding.rule == "stormer"
        assert top_finding.command and "--until" in top_finding.command
        seq = int(top_finding.command.rsplit(None, 1)[-1])
        records, _ = read_journal(tmp_path)
        seqs = [record["seq"] for record in records if "seq" in record]
        assert min(seqs) <= seq <= max(seqs)
        # the report renders and names the rule
        text = doctor.report(bundle, findings)
        assert "stormer" in text and "--until" in text

    def test_slo_burn_names_the_window_after_the_escalation(self, tmp_path):
        """The SLO-burn finding points at the window right after the
        evaluate() that raised the burn, and lists what moved in it."""
        db = _db(tmp_path)
        try:
            ring = db.timeseries
            ring.stop()  # ticks driven by hand from here on
            now = time.time()
            for step in (1.0, 2.0):  # healthy windows, evaluated each
                ring.tick(now=now + step)
            assert not db.watchdog.alerts("slo_burn")
            db.slo.objectives[:] = [Objective(
                "tight", histogram="txn_commit_seconds", threshold=1e-9,
                fast_window=3600.0, slow_window=3600.0)]
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            escalation = ring.tick(now=now + 3.0)  # runs evaluate()
            assert db.slo.objectives[0].state == "breached"
            assert db.watchdog.alerts("slo_burn")
            after = ring.tick(now=now + 4.0)
            assert after.seq == escalation.seq + 1
            bundle = db.forensics.load_bundle(
                db.forensics.capture(reason="slo check"))
        finally:
            db.close()
        (finding,) = [finding for finding in doctor.diagnose(bundle)
                      if finding.kind == "slo_burn"]
        assert "tight" in finding.title
        assert any("burn started by window seq %d " % after.seq in detail
                   for detail in finding.details), finding.details
        moved = [detail for detail in finding.details
                 if "that moved in that window: " in detail]
        assert moved and "watchdog_alerts_total" in moved[0], \
            finding.details

    def test_synthetic_bundle_heuristics(self):
        bundle = {
            "kind": "lock_wait",
            "wall": 1000.0,
            "health": {"status": "degraded"},
            "alerts": [
                {"kind": "lock_wait", "severity": "warning",
                 "message": "lock-wait p95 0.800s over last 40 waits",
                 "value": 0.8, "threshold": 0.2, "timestamp": 999.0},
                {"kind": "deferred_queue", "severity": "warning",
                 "message": "commit draining 600 deferred rule firings",
                 "value": 600.0, "threshold": 100.0, "timestamp": 999.5},
            ],
            "stats": {
                "locks": {"waited": 41, "timeouts": 2, "deadlocks": 0},
                "rules": {"deferred_queued": 600, "firing_errors": 0},
            },
            "profile": {"rules": {
                "hot_separate": {"separate": 30, "deferred": 0,
                                 "firings": 30},
                "hot_deferred": {"separate": 0, "deferred": 600,
                                 "firings": 600},
            }},
            "journal": {"last_seq": 77, "replay_command":
                        "python -m repro.tools.replay /d --diff --until 77"},
        }
        findings = doctor.diagnose(bundle)
        kinds = [finding.kind for finding in findings]
        assert "lock_wait" in kinds and "deferred_queue" in kinds
        by_kind = {finding.kind: finding for finding in findings}
        assert by_kind["lock_wait"].rule == "hot_separate"
        assert by_kind["deferred_queue"].rule == "hot_deferred"
        assert all(finding.journal_seq == 77 for finding in findings)
        # deferred breach (6x budget) outranks lock breach (4x)
        assert kinds.index("deferred_queue") < kinds.index("lock_wait")

    def test_wal_failure_is_critical_and_outranks_warnings(self):
        bundle = {
            "kind": "wal_failure", "wall": 1.0, "reason": "disk full",
            "health": {"status": "failing"},
            "alerts": [{"kind": "rule_storm", "severity": "warning",
                        "message": "storm", "value": 100.0,
                        "threshold": 50.0, "timestamp": 0.5}],
            "stats": {"storage": {"wal_append_failures": 3},
                      "rules": {}},
            "profile": {"rules": {"r": {"firings": 10}}},
        }
        findings = doctor.diagnose(bundle)
        assert findings[0].kind == "wal_failure"
        assert findings[0].severity == "critical"

    def test_healthy_bundle_reports_no_signatures(self):
        findings = doctor.diagnose({
            "kind": "manual", "wall": 1.0,
            "health": {"status": "ok"}, "alerts": [],
            "stats": {"rules": {}, "storage": {}}, "profile": {"rules": {}}})
        assert len(findings) == 1
        assert findings[0].kind == "healthy"

    def test_load_bundle_arg_resolves_directories(self, tmp_path):
        db = _db(tmp_path)
        try:
            db.forensics.capture(reason="first")
            newest = db.forensics.capture(reason="second")
        finally:
            db.close()
        for target in (tmp_path, tmp_path / "forensics"):
            bundle = doctor.load_bundle_arg(str(target))
            assert bundle["reason"] == "second"
        explicit = doctor.load_bundle_arg(
            str(tmp_path / "forensics" / (newest + ".json")))
        assert explicit["reason"] == "second"

    def test_bundle_and_live_snapshot_diagnose_alike(self, tmp_path,
                                                     monkeypatch):
        """A bundle freezes the document ``/snapshot`` serves, so the
        doctor reads both alike — 60 storm alerts included, the count
        a second assembly of the document once cut to 50."""
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 0.0)
        db = _db(tmp_path, flight_recorder=True)
        try:
            db.timeseries.stop()  # quiescent between capture and GET
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
            for index in range(60):
                db.watchdog.alert(RULE_STORM, WARNING, "storm %d" % index,
                                  100.0, 50.0)
            server = db.serve_admin()
            bundle = db.forensics.load_bundle(
                db.forensics.capture(reason="drift check"))
            status, _, body = _get(server.url + "/snapshot")
            assert status == 200
            live = json.loads(body)
        finally:
            db.close()
        assert len(live["alerts"]) == len(bundle["alerts"]) == 60
        assert doctor.diagnose(bundle) == doctor.diagnose(live)
        assert "60 storm alert(s)" in doctor.diagnose(live)[0].details[0]
        capture_only = {"format", "kind", "reason", "trigger", "wall",
                        "envelope", "threads"}
        assert set(bundle) - capture_only == set(live)
        assert set(bundle["journal"]) == set(live["journal"])


class TestAdminEndpoints:
    def test_forensics_409_when_off(self, tmp_path):
        db = HiPAC(lock_timeout=2.0)
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/forensics")
            assert status == 409
            assert b"forensics" in body
        finally:
            db.close()

    def test_alerts_section_counts_and_bounds(self, tmp_path):
        """The alert ring is the snapshot's ``alerts`` section and its
        counts are ``stats()["watchdog"]``."""
        db = _db(tmp_path)
        try:
            db.watchdog.note_cascade_limit(5, "loop via r1")
            db.watchdog.alert(SLO_BURN, WARNING,
                              "SLO commit_latency burning", 2.0, 1.0)
            server = db.serve_admin()
            status, _, body = _get(server.url
                                   + "/snapshot?sections=alerts,stats")
            assert status == 200
            payload = json.loads(body)
            watchdog = payload["stats"]["watchdog"]
            assert watchdog["alerts_total"] == 2
            assert watchdog["alerts_cascade_depth"] == 1
            assert watchdog["alerts_slo_burn"] == 1
            assert watchdog["alerts_dropped"] == 0
            assert [a["kind"] for a in payload["alerts"]] \
                == ["cascade_depth", "slo_burn"]
            status, _, body = _get(server.url
                                   + "/snapshot?sections=alerts&last=1")
            payload = json.loads(body)
            assert [a["kind"] for a in payload["alerts"]] == ["slo_burn"]
            status, _, _ = _get(server.url
                                + "/snapshot?sections=alerts&last=nope")
            assert status == 400
        finally:
            db.close()

    def test_forensics_capture_list_and_download(self, tmp_path):
        db = _db(tmp_path)
        try:
            server = db.serve_admin()
            status, _, body = _get(server.url + "/forensics?capture=1")
            assert status == 200
            captured = json.loads(body)["captured"]
            status, _, body = _get(server.url + "/forensics")
            assert status == 200
            payload = json.loads(body)
            assert payload["stats"]["captures"] == 1
            assert payload["bundles"][0]["id"] == captured
            assert payload["stats"]["last_kind"] == "manual"
            status, headers, body = _get(
                server.url + "/forensics?id=%s&download=1" % captured)
            assert status == 200
            assert "attachment" in headers.get("Content-Disposition", "")
            bundle = json.loads(body)
            assert bundle["kind"] == "manual"
            status, _, _ = _get(server.url + "/forensics?id=nope")
            assert status == 404
            status, _, _ = _get(server.url
                                + "/forensics?id=..%2F..%2Fetc%2Fpasswd")
            assert status == 404
            # the index advertises the bundles beside the live document
            _, _, body = _get(server.url + "/")
            assert b"/forensics" in body and b"/snapshot" in body
        finally:
            db.close()

    def test_watchdog_alert_counter_reaches_prometheus(self, tmp_path):
        db = _db(tmp_path)
        try:
            db.watchdog.note_cascade_limit(7, "loop")
            text = db.prometheus_metrics()
            assert "\nhipac_watchdog_alerts_cascade_depth 1\n" in text
        finally:
            db.close()


class TestTopIncidentLine:
    def test_alert_and_capture_ages(self):
        snapshot = {
            "time": 1000.0,
            "health": {"recent": [{"kind": "rule_storm",
                                   "severity": "warning",
                                   "timestamp": 880.0}]},
            "forensics": {"bundles": 2, "bytes": 4096,
                          "last_kind": "rule_storm", "last_wall": 940.0},
        }
        line = top_tool.incident_line(snapshot)
        assert "last alert [warning] rule_storm 2m00s ago" in line
        assert "last capture rule_storm 1m00s ago" in line
        assert "2 bundle(s)" in line

    def test_armed_but_idle(self):
        line = top_tool.incident_line(
            {"time": 10.0, "health": {},
             "forensics": {"bundles": 0, "bytes": 0, "last_kind": None}})
        assert line == "forensics armed, no captures"

    def test_absent_when_nothing_to_say(self):
        assert top_tool.incident_line({"time": 10.0, "health": {}}) == ""

    def test_render_includes_incident_line(self):
        frame = top_tool.render(
            {"time": 100.0, "uptime": 5.0, "health": {"status": "ok"},
             "forensics": {"bundles": 1, "bytes": 10,
                           "last_kind": "manual", "last_wall": 90.0},
             "timeseries": None})
        assert "last capture manual 10s ago" in frame
