"""Tests for the observability subsystem (metrics, firing causality and
timing, exports, slow log).

The headline scenario mirrors the paper's execution model: a cascaded
firing — database event, immediate rule whose action causes a second
event, deferred rule fired at commit (§6.3) — must come out of the firing
log as a *single* causal tree (each firing's ``cause``) whose shape matches
the nested-transaction tree of §3.2, timed under
``observability="trace"``, and survive a round trip through the Chrome
``trace_event`` exporter.
"""

from __future__ import annotations

import json
import re
import threading
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
)
from repro.core.tracing import Tracer
from repro.obs.export import HELP_TEXTS, prometheus_text, render_cascade
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.obs.slowlog import SlowLog
from repro.rules.coupling import DEFERRED, IMMEDIATE, SEPARATE
from repro.rules.firing import FiringLog, RuleFiring
from repro.rules import manager as rule_manager


def _tracing_db() -> HiPAC:
    db = HiPAC(lock_timeout=2.0, observability="trace")
    for name in ("A", "B", "C"):
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    return db


def _fully_on_exposition(data_dir):
    """The ``/metrics`` page of an instance with every subsystem on, after
    one firing, one why(), one alert, one SLO evaluation and one capture;
    plus the names of the histogram families its registry holds."""
    db = HiPAC(lock_timeout=2.0, durability="wal", data_dir=data_dir,
               forensics=True, flight_recorder=True)
    try:
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            oid = db.create("A", {"v": 0}, txn)
        db.why(oid, "v")
        db.watchdog.note_cascade_limit(5, "loop")
        db.slo.evaluate()
        assert db.forensics.capture(reason="census")
        return (db.prometheus_metrics(),
                {histogram.name for histogram in db.metrics.instruments()})
    finally:
        db.close()


class TestSpanTrees:
    """The cascade tree is the firing log: each firing's ``cause``, and
    its ``timing`` under ``"trace"``."""

    def test_cascaded_immediate_then_deferred_is_one_tree(self):
        """Event -> immediate R1 -> cascaded event -> deferred R2 at commit:
        one tree, rooted at the stimulus firing, whose edges mirror the
        nested-transaction tree."""
        db = _tracing_db()
        db.create_rule(Rule(
            name="R1", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1})),
        ))
        db.create_rule(Rule(
            name="R2", event=on_create("B"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("C", {"v": 2})),
            ec_coupling=DEFERRED, ca_coupling=DEFERRED,
        ))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)

        r1, r2 = db.firing_log().all()
        # R1 fired immediately on the stimulus, nested in its transaction.
        assert (r1.rule_name, r1.ec_coupling, r1.cause) == \
            ("R1", IMMEDIATE, None)
        assert "A" in r1.event and r1.satisfied is True
        assert r1.triggering_txn == txn.txn_id
        # R2 is deferred: it *ran* at commit time, but its cause is R1,
        # whose action made the write that queued it (§6.3 causality).
        assert (r2.rule_name, r2.ec_coupling, r2.cause) == \
            ("R2", DEFERRED, r1.firing_id)
        assert "B" in r2.event and r2.executed
        # Both phases of both firings are timed, and R2 started only after
        # R1's action ended (the commit drained it).
        (_, r1_cond, _), (_, r1_act, r1_end) = r1.timing
        (_, r2_start, r2_cond_end), (_, r2_act, _) = r2.timing
        assert r1_cond <= r1_act <= r1_end <= r2_start
        assert r2_start <= r2_cond_end <= r2_act

    def test_separate_firing_attaches_to_launching_event(self):
        """A separate-coupled firing runs on its own thread; it is a
        stimulus firing of the launching event, and what its action
        triggers there names it as the cause."""
        db = _tracing_db()
        db.create_rule(Rule(
            name="SEP", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1})),
            ec_coupling=SEPARATE, ca_coupling=IMMEDIATE,
        ))
        db.create_rule(Rule(
            name="ON_B", event=on_create("B"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert db.drain(5.0)

        sep, on_b = db.firing_log().all()
        assert sep.rule_name == "SEP" and sep.cause is None
        assert "A" in sep.event and sep.separate_thread is True
        assert sep.timing[0][0] != threading.get_ident()
        assert on_b.cause == sep.firing_id
        assert on_b.timing[0][0] == sep.timing[1][0]

    def test_deferred_batch_span_wraps_commit_time_work(self):
        """The commit-time facts the deferred-batch span carried sit on
        the deferred firing itself."""
        db = _tracing_db()
        db.create_rule(Rule(
            name="DEF", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                ctx.signal.oid, {"v": 99})),
            ec_coupling=DEFERRED, ca_coupling=IMMEDIATE,
        ))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        (firing,) = db.firing_log().all()
        assert firing.deferred and firing.executed
        assert firing.triggering_txn == txn.txn_id
        assert firing.condition_txn is not None
        assert firing.condition_txn != firing.action_txn is not None
        assert all(phase is not None for phase in firing.timing)

    def test_default_observability_records_no_spans(self):
        db = HiPAC(lock_timeout=2.0)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("A", {"v": 1})
                               if ctx.bindings["new_v"] == 0 else None),
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        outer, inner = db.firing_log().all()
        assert outer.timing is None and inner.timing is None
        assert not db.rule_manager.trace
        # ...but causes are recorded at every level...
        assert (outer.cause, inner.cause) == (None, outer.firing_id)
        # ...and metrics did record (production default).
        assert db.metrics.enabled
        assert db.metrics.histogram("om_operation_seconds").count >= 0


class TestChromeExport:
    def test_round_trip_through_json(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="R1", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1})),
        ))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)

        document = json.loads(json.dumps(db.export_trace()))
        events = document["traceEvents"]
        assert events and document["displayTimeUnit"] == "ms"
        complete = [e for e in events if e["ph"] == "X"]
        for event in complete:
            assert isinstance(event["ts"], (int, float))
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # Parentage survives in args; every non-root parent_id resolves.
        ids = {e["args"]["span_id"] for e in complete}
        for event in complete:
            parent = event["args"]["parent_id"]
            assert parent is None or parent in ids
        names = {e["name"] for e in complete}
        assert any(n.startswith("fire:R1") for n in names)
        assert any(n.startswith("act:R1") for n in names)

    def test_flow_arrows_pair_up_for_deferred_causality(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="D", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
            ec_coupling=DEFERRED,
        ))
        db.firing_log().clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        events = db.export_trace()["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        # The deferred firing detaches in time from its parent event: at
        # least one flow arrow, and every start has a matching finish.
        assert starts
        assert sorted(e["id"] for e in starts) == \
            sorted(e["id"] for e in finishes)

    def test_write_to_file(self, tmp_path):
        db = _tracing_db()
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        path = tmp_path / "trace.json"
        from repro.obs.export import write_chrome_trace
        document = write_chrome_trace(db.firing_log(), path)
        assert json.loads(path.read_text())["traceEvents"] == \
            json.loads(json.dumps(document["traceEvents"]))


class TestRegistryThreadSafety:
    def test_counters_and_histograms_exact_across_threads(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat")
        per_thread, threads = 5000, 8

        def worker():
            for index in range(per_thread):
                histogram.observe(index * 1e-6)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert histogram.count == per_thread * threads
        snap = histogram.snapshot()
        assert snap["count"] == per_thread * threads
        assert snap["max"] == pytest.approx((per_thread - 1) * 1e-6)

    def test_same_name_same_labels_same_instrument(self):
        registry = MetricsRegistry(enabled=True)
        a = registry.histogram("x", mode="hit")
        b = registry.histogram("x", mode="hit")
        c = registry.histogram("x", mode="miss")
        assert a is b and a is not c

    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        histogram = registry.histogram("lat")
        histogram.observe(1.0)
        assert histogram.count == 0
        assert not histogram.should_sample()


class TestSampledHistograms:
    def test_stride_admits_one_in_n(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("hot", sample=HOT_PATH_SAMPLE)
        admitted = sum(1 for _ in range(100) if histogram.should_sample())
        assert admitted == 100 // HOT_PATH_SAMPLE
        assert histogram.snapshot()["sample"] == HOT_PATH_SAMPLE

    def test_unsampled_histogram_always_admits(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("exact")
        assert all(histogram.should_sample() for _ in range(10))
        assert histogram.snapshot()["sample"] == 1

    def test_percentiles_from_bucket_interpolation(self):
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("lat")
        for _ in range(100):
            histogram.observe(0.002)
        for _ in range(5):
            histogram.observe(0.5)
        assert histogram.percentile(50) <= 0.005
        assert histogram.percentile(99) >= 0.25

    def test_a_value_on_a_bound_counts_under_that_le(self):
        """Bounds are inclusive upper bounds, as the exported ``le`` label
        says: a deferred round of exactly 10 is not over a limit of 10."""
        registry = MetricsRegistry(enabled=True)
        histogram = registry.histogram("sizes", buckets=(1, 10, 100))
        for value in (1, 10, 11):
            histogram.observe(value)
        assert histogram.buckets() == [(1, 1), (10, 2), (100, 3),
                                       (float("inf"), 3)]


class TestFiringLogRing:
    def test_bounded_with_dropped_count(self):
        log = FiringLog(capacity=4)
        for index in range(7):
            log.append(RuleFiring("r%d" % index, "e", IMMEDIATE, IMMEDIATE))
        assert len(log) == 4
        assert log.dropped == 3
        assert [f.rule_name for f in log.all()] == ["r3", "r4", "r5", "r6"]
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_facade_exports_dropped_as_component_stat(self, monkeypatch):
        monkeypatch.setattr(rule_manager, "FIRING_LOG_CAPACITY", 2)
        db = HiPAC(lock_timeout=2.0)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        for _ in range(5):
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
        assert db.firing_log().dropped > 0
        collected = db.metrics.collected()
        assert collected["obs_firing_log_dropped"] == \
            db.firing_log().dropped


class TestSlowLog:
    def test_threshold_and_ring(self):
        log = SlowLog(threshold=0.010, capacity=2)
        assert log.note("condition", "fast", 0.001) is None
        entry = log.note("condition", "slow", 0.020, coupling=IMMEDIATE)
        assert entry is not None and entry.tags["coupling"] == IMMEDIATE
        log.note("action", "slow2", 0.030)
        log.note("action", "slow3", 0.040)
        assert len(log) == 2 and log.dropped == 1
        assert "slow3" in log.format()

    def test_disabled_slow_log_never_records(self):
        log = SlowLog(threshold=0.0, enabled=False)
        assert log.note("condition", "x", 1.0) is None
        assert len(log) == 0

    def test_slow_rule_surfaces_through_facade(self):
        import time as _time
        db = HiPAC(lock_timeout=2.0)
        db.slow_log.threshold = 0.001
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.create_rule(Rule(
            name="sluggish", event=on_create("A"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: _time.sleep(0.005)),
        ))
        # Action timing is sampled 1-in-N: fire enough times to be seen.
        for _ in range(2 * HOT_PATH_SAMPLE):
            with db.transaction() as txn:
                db.create("A", {"v": 0}, txn)
        entries = db.slow_log.entries("rule-action")
        assert any(e.name == "sluggish" for e in entries)


class TestTracerContract:
    def test_enabled_only_via_start_stop(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.record("Application", "ObjectManager", "op")
        tracer.start()
        tracer.record("Application", "ObjectManager", "op")
        trace = tracer.stop()
        assert not tracer.enabled
        assert len(trace.records) == 1
        # stop() drained everything; a fresh start sees a clean slate.
        tracer.start()
        assert tracer.stop().records == []


class TestExportsAndFacade:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry(enabled=True)
        registry.histogram("rule_action_seconds",
                           coupling="immediate").observe(0.003)
        registry.histogram("commit_seconds").observe(0.004)
        registry.add_collector(lambda: {"live_transactions": 2})
        text = prometheus_text(registry)
        assert '# TYPE hipac_rule_action_seconds histogram' in text
        assert ('hipac_rule_action_seconds_count{coupling="immediate"} 1'
                in text)
        assert '# TYPE hipac_commit_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert "hipac_commit_seconds_count 1" in text
        assert "hipac_live_transactions 2" in text

    def test_metrics_report_and_render_tree(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        report = db.metrics_report()
        assert "om_operation_seconds" in report or "== metrics ==" in report
        assert "rules_conditions_evaluated" in report
        text = db.prometheus_metrics()
        assert "# TYPE hipac_txn_commit_seconds histogram" in text
        assert "\nhipac_rules_conditions_evaluated 1\n" in text
        rendered = render_cascade(db.firing_log())
        assert "fire:R" in rendered and rendered.startswith("event:")
        assert "act=" in rendered

    def test_observability_off_switch(self):
        db = HiPAC(lock_timeout=2.0, observability=False)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert not db.metrics.enabled
        assert not db.slow_log.enabled
        assert not db.rule_manager.trace
        snapshot = db.metrics.collect()
        assert all(h["count"] == 0
                   for h in snapshot["histograms"].values())

    def test_observability_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            HiPAC(observability="bogus")

    def test_stats_obs_section(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        obs = db.stats()["obs"]
        assert set(obs) == {"slow_entries", "slow_dropped",
                            "firing_log_dropped"}


def test_help_texts_name_real_families(tmp_path):
    """Every curated ``# HELP`` entry names a histogram family the registry
    really creates."""
    _, histograms = _fully_on_exposition(tmp_path)
    stray = set(HELP_TEXTS) - histograms
    assert not stray, sorted(stray)


def test_metrics_doc_matches_exposition(tmp_path):
    """docs/METRICS.md lists exactly the families a fully-on instance
    exports."""
    text, _ = _fully_on_exposition(tmp_path)
    exported = set(re.findall(r"^# TYPE (\S+) ", text, re.M))
    doc = (Path(__file__).resolve().parent.parent / "docs"
           / "METRICS.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`(hipac_\w+)`", doc))
    assert sorted(documented - exported) == []
    assert sorted(exported - documented) == []
