"""Tests for the observability subsystem (metrics, spans, exports, slow log).

The headline scenario mirrors the paper's execution model: a cascaded
firing — database event, immediate rule whose action causes a second
event, deferred rule fired at commit (§6.3) — must come out of
``observability="trace"`` as a *single* causal span tree whose shape
matches the nested-transaction tree of §3.2, and survive a round trip
through the Chrome ``trace_event`` exporter.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    RuleManagerConfig,
    attributes,
    on_create,
)
from repro.core.tracing import Tracer
from repro.obs.export import prometheus_text, render_span_tree
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.obs.slowlog import SlowLog
from repro.obs.spans import SpanRecorder
from repro.rules.coupling import DEFERRED, IMMEDIATE, SEPARATE
from repro.rules.firing import FiringLog, RuleFiring


def _tracing_db() -> HiPAC:
    db = HiPAC(lock_timeout=2.0, observability="trace")
    for name in ("A", "B", "C"):
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    return db


class TestSpanTrees:
    def test_cascaded_immediate_then_deferred_is_one_tree(self):
        """Event -> immediate R1 -> cascaded event -> deferred R2 at commit:
        one root span whose children mirror the nested-transaction tree."""
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
        db.spans.clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)

        roots = db.spans.roots()
        event_roots = [r for r in roots if r.kind == "event"]
        assert len(event_roots) == 1, \
            "cascade must form one tree, got %r" % roots
        root = event_roots[0]
        assert "A" in root.tags["event"]

        # R1 fired immediately under the triggering event.
        (r1,) = [s for s in root.find(rule="R1", coupling=IMMEDIATE)
                 if s.kind == "firing"]
        assert r1.kind == "firing" and r1.tags["satisfied"] is True
        # Its action span hangs off the firing; the cascaded event on B
        # nests inside the action (the §6.2 suspension protocol).
        (r1_act,) = [s for s in r1.children if s.kind == "action"]
        cascaded = [s for s in r1_act.walk() if s.kind == "event"]
        assert len(cascaded) == 1 and "B" in cascaded[0].tags["event"]

        # R2 is deferred: it *ran* at commit time, but its firing span is
        # parented to the cascaded event that queued it (§6.3 causality),
        # keeping the whole cascade in one tree.
        (r2,) = [s for s in root.find(rule="R2", coupling=DEFERRED)
                 if s.kind == "firing"]
        assert r2.parent_id == cascaded[0].span_id
        assert r2.start >= cascaded[0].end  # fired after the event closed
        assert [s.kind for s in r2.children].count("condition") == 1
        assert any(s.kind == "action" for s in r2.children)

    def test_separate_firing_attaches_to_launching_event(self):
        """A separate-coupled firing runs on its own thread but its span
        hangs off the event span captured at launch time."""
        db = _tracing_db()
        db.create_rule(Rule(
            name="SEP", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1})),
            ec_coupling=SEPARATE, ca_coupling=IMMEDIATE,
        ))
        db.spans.clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert db.drain(5.0)

        # The separate firing's own event (create B) roots a separate tree
        # on the worker thread; the firing span itself belongs to the
        # launching event's tree.
        launch_roots = [r for r in db.spans.roots()
                        if r.kind == "event" and "A" in r.tags["event"]]
        assert len(launch_roots) == 1
        (fire,) = [s for s in launch_roots[0].find(rule="SEP")
                   if s.kind == "firing"]
        assert fire.tags["separate_thread"] is True
        assert fire.tid != launch_roots[0].tid

    def test_deferred_batch_span_wraps_commit_time_work(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="DEF", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                ctx.signal.oid, {"v": 99})),
            ec_coupling=DEFERRED, ca_coupling=IMMEDIATE,
        ))
        db.spans.clear()
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        batches = [r for root in db.spans.roots() for r in root.walk()
                   if r.kind == "deferred_batch"]
        assert len(batches) == 1
        assert batches[0].tags["txn"] == txn.txn_id

    def test_default_observability_records_no_spans(self):
        db = HiPAC(lock_timeout=2.0)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.create_rule(Rule(
            name="R", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert db.spans.roots() == []
        assert not db.spans.enabled
        # ...but metrics did record (production default).
        assert db.metrics.enabled
        assert db.metrics.histogram("om_operation_seconds").count >= 0

    def test_root_ring_bounded_and_drops_counted(self):
        recorder = SpanRecorder(capacity=3)
        for index in range(5):
            recorder.finish_span(recorder.start_span("s%d" % index))
        assert len(recorder.roots()) == 3
        assert recorder.dropped == 2
        assert [r.name for r in recorder.roots()] == ["s2", "s3", "s4"]


class TestChromeExport:
    def test_round_trip_through_json(self):
        db = _tracing_db()
        db.create_rule(Rule(
            name="R1", event=on_create("A"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create("B", {"v": 1})),
        ))
        db.spans.clear()
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
        db.spans.clear()
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
        recorder = SpanRecorder()
        recorder.finish_span(recorder.start_span("root", kind="event"))
        path = tmp_path / "trace.json"
        from repro.obs.export import write_chrome_trace
        document = write_chrome_trace(recorder, path)
        assert json.loads(path.read_text())["traceEvents"] == \
            json.loads(json.dumps(document["traceEvents"]))


class TestRegistryThreadSafety:
    def test_counters_and_histograms_exact_across_threads(self):
        registry = MetricsRegistry(enabled=True)
        counter = registry.counter("ops")
        histogram = registry.histogram("lat")
        per_thread, threads = 5000, 8

        def worker():
            for index in range(per_thread):
                counter.inc()
                histogram.observe(index * 1e-6)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.value == per_thread * threads
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
        counter = registry.counter("ops")
        histogram = registry.histogram("lat")
        counter.inc()
        counter.inc(10)
        histogram.observe(1.0)
        assert counter.value == 0
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

    def test_facade_exports_dropped_as_component_stat(self):
        db = HiPAC(lock_timeout=2.0,
                   config=RuleManagerConfig(firing_log_capacity=2))
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
        registry.counter("rule_firings_total", ec="immediate").inc(3)
        registry.histogram("commit_seconds").observe(0.004)
        registry.add_collector(lambda: {"live_transactions": 2})
        text = prometheus_text(registry)
        assert '# TYPE hipac_rule_firings_total counter' in text
        assert 'hipac_rule_firings_total{ec="immediate"} 3' in text
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
        assert "rule_firings_total" in db.prometheus_metrics()
        root = db.spans.last_root()
        rendered = render_span_tree(root)
        assert "fire:R" in rendered and rendered.startswith("event:")

    def test_observability_off_switch(self):
        db = HiPAC(lock_timeout=2.0, observability=False)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        with db.transaction() as txn:
            db.create("A", {"v": 0}, txn)
        assert not db.metrics.enabled
        assert not db.slow_log.enabled
        assert db.spans.roots() == []
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
        assert obs["spans_retained"] >= 1
        assert "firing_log_dropped" in obs
