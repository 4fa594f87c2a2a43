"""Advanced composite-event rule scenarios: couplings, enable/disable of
composite rules, shared members, analysis over temporal baselines."""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    Conjunction,
    Disjunction,
    HiPAC,
    Rule,
    Sequence,
    VirtualClock,
    after,
    attributes,
    external,
    on_create,
    on_delete,
)


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("A", attributes(("v", "int"))))
    database.define_class(ClassDef("B", attributes(("v", "int"))))
    yield database
    database.close()


class TestCompositeCouplings:
    def test_sequence_rule_deferred_coupling(self, db):
        db.define_event("go")
        ran = []
        db.create_rule(Rule(
            name="seq-def",
            event=Sequence(on_create("A"), external("go")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append("ran")),
            ec_coupling="deferred",
        ))
        txn = db.begin()
        db.create("A", {"v": 1}, txn)
        db.signal_event("go", {}, txn)     # completes the sequence
        assert ran == []                   # deferred until commit
        db.commit(txn)
        assert ran == ["ran"]

    def test_sequence_rule_separate_coupling(self, db):
        db.define_event("go")
        ran = []
        db.create_rule(Rule(
            name="seq-sep",
            event=Sequence(on_create("A"), external("go")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append("ran")),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
            db.signal_event("go", {}, txn)
        db.drain()
        assert ran == ["ran"]

    def test_conjunction_rule_across_transactions(self, db):
        ran = []
        db.create_rule(Rule(
            name="conj",
            event=Conjunction(on_create("A"), on_create("B")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
        ))
        with db.transaction() as txn:
            db.create("B", {"v": 1}, txn)
        assert ran == []
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert ran == [1]


class TestCompositeRuleManagement:
    def test_disable_composite_rule_stops_recognition_effects(self, db):
        ran = []
        db.create_rule(Rule(
            name="dis",
            event=Disjunction(on_create("A"), on_create("B")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
        ))
        db.disable_rule("dis")
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert ran == []
        db.enable_rule("dis")
        with db.transaction() as txn:
            db.create("B", {"v": 1}, txn)
        assert ran == [1]

    def test_delete_composite_rule_unprograms_members(self, db):
        db.create_rule(Rule(
            name="tmp",
            event=Disjunction(on_create("A"), on_delete("A")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None),
        ))
        assert db.object_manager.event_detector.is_defined(on_create("A"))
        db.delete_rule("tmp")
        assert not db.object_manager.event_detector.is_defined(on_create("A"))
        assert not db.composite_detector.is_defined(
            Disjunction(on_create("A"), on_delete("A")))

    def test_two_rules_share_composite_members(self, db):
        ran = []
        for name in ("r1", "r2"):
            db.create_rule(Rule(
                name=name,
                event=Disjunction(on_create("A"), on_create("B")),
                condition=Condition.true(),
                action=Action.call(lambda ctx, n=name: ran.append(n)),
            ))
        db.delete_rule("r1")
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert ran == ["r2"]


def _noop():
    return Action.call(lambda ctx: None)


def _stimulus(db, kind):
    """An event of ``kind`` ("database" or "external"), and a function that
    makes it occur once."""
    if kind == "database":
        def occur():
            with db.transaction() as txn:
                db.create("A", {"v": 1}, txn)
        return on_create("A"), occur
    db.define_event("base")
    return external("base"), lambda: db.signal_event("base")


class TestSharedEventSubscriptions:
    """Rules, composites and timers built on one event each keep acting on
    it, whatever the others' enabled state (§5.3: several rules may share
    one event)."""

    @pytest.mark.parametrize("kind", ["database", "external"])
    def test_disabling_the_direct_rule_keeps_sequences_and_timers(
            self, db, kind):
        event, occur = _stimulus(db, kind)
        db.create_rule(Rule(name="plain", event=event,
                            condition=Condition.true(), action=_noop()))
        db.create_rule(Rule(name="seq", event=Sequence(event, event),
                            condition=Condition.true(), action=_noop()))
        db.create_rule(Rule(name="rel", event=after(event, 1.0),
                            condition=Condition.true(), action=_noop()))
        db.disable_rule("plain")
        db.firing_log().clear()
        occur()
        occur()
        db.advance_time(2.0)
        assert sorted(f.rule_name for f in db.firing_log().all()) == [
            "rel", "rel", "seq"]

    @pytest.mark.parametrize("kind", ["database", "external"])
    def test_a_rule_created_beside_a_disabled_one_fires(self, db, kind):
        event, occur = _stimulus(db, kind)
        db.create_rule(Rule(name="off", event=event,
                            condition=Condition.true(), action=_noop()))
        db.disable_rule("off")
        db.create_rule(Rule(name="on", event=event,
                            condition=Condition.true(), action=_noop()))
        occur()
        assert [f.rule_name for f in db.firing_log().all()] == ["on"]

    def test_a_composite_keeps_its_feed_when_its_sibling_goes(self, db):
        """Two composites share a member; deleting the last rule of one
        leaves the other fed."""
        db.define_event("go")
        for name in ("first", "second"):
            db.create_rule(Rule(
                name=name, condition=Condition.true(), action=_noop(),
                event=Sequence(on_create("A"), external("go"),
                               *(() if name == "first" else
                                 (external("go"),)))))
        db.delete_rule("first")
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        db.signal_event("go")
        db.signal_event("go")
        assert [f.rule_name for f in db.firing_log().all()] == ["second"]


class TestTemporalBaselineRules:
    def test_relative_rule_with_composite_baseline(self):
        clock = VirtualClock()
        db = HiPAC(clock=clock, lock_timeout=2.0)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        db.define_event("manual")
        ran = []
        baseline = Disjunction(on_create("A"), external("manual"))
        db.create_rule(Rule(
            name="after-either",
            event=after(baseline, 10.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(ctx.signal.timestamp)),
        ))
        clock.advance(5.0)
        db.signal_event("manual")          # baseline occurrence at t=5
        clock.advance(9.0)
        assert ran == []
        clock.advance(1.0)
        assert ran == [15.0]
        with db.transaction() as txn:      # second baseline via create
            db.create("A", {"v": 1}, txn)
        clock.advance(10.0)
        assert ran == [15.0, 25.0]

    def test_analysis_sees_temporal_baseline_edges(self):
        from repro.objstore.operations import CreateObject
        from repro.rules.actions import DatabaseStep
        from repro.tools import RuleBaseAnalyzer
        creator = Rule(
            name="creator", event=external("tick"),
            condition=Condition.true(),
            action=Action.of(DatabaseStep(CreateObject("A", {"v": 1}))))
        watcher = Rule(
            name="late-watcher", event=after(on_create("A"), 30.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None))
        analyzer = RuleBaseAnalyzer([creator, watcher])
        assert ("creator", "late-watcher") in analyzer.triggering_edges()
