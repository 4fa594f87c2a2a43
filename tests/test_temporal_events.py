"""Tests for the temporal event detector on a virtual clock."""


from repro import Action, ClassDef, Condition, HiPAC, Rule, attributes
from repro.clock import VirtualClock
from repro.events.signal import EventSignal
from repro.events.spec import after, at_time, every, external, on_create
from repro.events.temporal import TemporalEventDetector


def make_detector(start=0.0):
    clock = VirtualClock(start)
    detector = TemporalEventDetector(clock)
    seen = []
    detector.sink = seen.extend
    return clock, detector, seen


class TestAbsolute:
    def test_fires_once_at_time(self):
        clock, detector, seen = make_detector()
        detector.define_event(at_time(10.0))
        clock.advance(9.0)
        assert seen == []
        clock.advance(2.0)
        assert len(seen) == 1
        assert seen[0].timestamp == 10.0
        clock.advance(100.0)
        assert len(seen) == 1

    def test_past_time_never_fires(self):
        clock, detector, seen = make_detector(start=20.0)
        detector.define_event(at_time(10.0))
        clock.advance(100.0)
        assert seen == []

    def test_info_included(self):
        clock, detector, seen = make_detector()
        detector.define_event(at_time(5.0, info="deadline"))
        clock.advance(5.0)
        assert seen[0].info == "deadline"


class TestPeriodic:
    def test_fires_every_period(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(10.0))
        clock.advance(35.0)
        assert [s.timestamp for s in seen] == [10.0, 20.0, 30.0]

    def test_offset_shifts_anchor(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(10.0, offset=5.0))
        clock.advance(30.0)
        assert [s.timestamp for s in seen] == [15.0, 25.0]

    def test_big_jump_fires_each_occurrence_in_order(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(1.0))
        clock.advance(5.5)
        assert [s.timestamp for s in seen] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_delete_stops_firing(self):
        clock, detector, seen = make_detector()
        spec = every(10.0)
        detector.define_event(spec)
        clock.advance(10.0)
        detector.delete_event(spec)
        clock.advance(50.0)
        assert len(seen) == 1

    def test_disable_suppresses_but_keeps_schedule(self):
        clock, detector, seen = make_detector()
        spec = every(10.0)
        detector.define_event(spec)
        detector.disable_event(spec)
        clock.advance(30.0)
        assert seen == []
        detector.enable_event(spec)
        clock.advance(10.0)
        assert [s.timestamp for s in seen] == [40.0]


class TestRelative:
    def baseline_signal(self, t=0.0):
        return EventSignal(kind="external", name="base", args={}, timestamp=t)

    def test_fires_offset_after_baseline(self):
        clock, detector, seen = make_detector()
        detector.define_event(after(external("base"), 5.0))
        detector.observe_baseline(self.baseline_signal(t=2.0))
        clock.advance(6.0)
        assert seen == []
        clock.advance(1.0)
        assert [s.timestamp for s in seen] == [7.0]

    def test_each_baseline_occurrence_schedules(self):
        clock, detector, seen = make_detector()
        detector.define_event(after(external("base"), 5.0))
        detector.observe_baseline(self.baseline_signal(t=0.0))
        detector.observe_baseline(self.baseline_signal(t=1.0))
        clock.advance(10.0)
        assert [s.timestamp for s in seen] == [5.0, 6.0]

    def test_non_matching_baseline_ignored(self):
        clock, detector, seen = make_detector()
        detector.define_event(after(external("base"), 5.0))
        other = EventSignal(kind="external", name="other", args={}, timestamp=0.0)
        detector.observe_baseline(other)
        clock.advance(10.0)
        assert seen == []

    def test_database_baseline(self):
        clock, detector, seen = make_detector()
        detector.define_event(after(on_create("Stock"), 3.0))
        db_signal = EventSignal(kind="database", op="create",
                                class_name="Stock", timestamp=1.0)
        detector.observe_baseline(db_signal)
        clock.advance(4.0)
        assert [s.timestamp for s in seen] == [4.0]


class TestPeriodicWithBaseline:
    def test_baseline_anchors_period(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(10.0, baseline=external("base")))
        base = EventSignal(kind="external", name="base", args={}, timestamp=5.0)
        detector.observe_baseline(base)
        clock.advance(26.0)
        assert [s.timestamp for s in seen] == [15.0, 25.0]

    def test_new_baseline_re_anchors(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(10.0, baseline=external("base")))
        detector.observe_baseline(
            EventSignal(kind="external", name="base", args={}, timestamp=0.0))
        clock.advance(12.0)
        assert [s.timestamp for s in seen] == [10.0]
        detector.observe_baseline(
            EventSignal(kind="external", name="base", args={}, timestamp=12.0))
        clock.advance(11.0)
        assert [s.timestamp for s in seen] == [10.0, 22.0]


class TestHousekeeping:
    def test_pending_count(self):
        clock, detector, seen = make_detector()
        detector.define_event(at_time(10.0))
        detector.define_event(every(5.0))
        assert detector.pending_count() == 2

    def test_close_detaches(self):
        clock, detector, seen = make_detector()
        detector.define_event(every(5.0))
        detector.close()
        clock.advance(20.0)
        assert seen == []


class TestBaselinesThroughRules:
    """A timer's baseline is detected for the timer's sake, whatever the
    enabled state of the rules on the baseline event itself."""

    def make_db(self):
        db = HiPAC(lock_timeout=2.0)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.define_event("base")
        return db

    def rule(self, name, event):
        return Rule(name=name, event=event, condition=Condition.true(),
                    action=Action.call(lambda ctx: None))

    def test_a_disabled_rule_on_the_baseline_keeps_the_timer(self):
        db = self.make_db()
        for kind, base in (("database", on_create("A")),
                           ("external", external("base"))):
            db.create_rule(self.rule("plain-" + kind, base))
            db.create_rule(self.rule("rel-" + kind, after(base, 1.0)))
            db.disable_rule("plain-" + kind)
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        db.signal_event("base")
        db.advance_time(2.0)
        assert sorted(f.rule_name for f in db.firing_log().all()) == [
            "rel-database", "rel-external"]
        db.close()

    def test_a_timer_created_beside_a_disabled_rule_is_scheduled(self):
        db = self.make_db()
        db.create_rule(self.rule("off", external("base")))
        db.disable_rule("off")
        db.create_rule(self.rule("rel", after(external("base"), 1.0)))
        db.signal_event("base")
        db.advance_time(2.0)
        assert [f.rule_name for f in db.firing_log().all()] == ["rel"]
        db.close()
