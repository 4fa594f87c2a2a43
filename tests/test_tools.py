"""Tests for the rule-base development tools (§7 future work)."""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    CreateObject,
    HiPAC,
    Rule,
    Sequence,
    attributes,
    external,
    on_create,
    on_update,
)
from repro.rules.actions import CallStep, DatabaseStep, SignalStep
from repro.tools import (
    Effect,
    RuleBaseAnalyzer,
    analyze_rule_base,
    declared_effects,
    explain,
    render_transaction_tree,
    why_not,
)


def db_rule(name, event, effect_class=None, signal_name=None):
    steps = []
    if effect_class:
        steps.append(DatabaseStep(CreateObject(effect_class, {})))
    if signal_name:
        steps.append(SignalStep(signal_name))
    return Rule(name=name, event=event, condition=Condition.true(),
                action=Action(tuple(steps)))


class TestDeclaredEffects:
    def test_static_database_step(self):
        rule = db_rule("r", on_create("A"), effect_class="B")
        effects = declared_effects(rule)
        assert effects == [Effect.create("B")]

    def test_signal_step(self):
        rule = db_rule("r", on_create("A"), signal_name="ping")
        assert declared_effects(rule) == [Effect.signal("ping")]

    def test_opaque_call_step_yields_nothing(self):
        rule = Rule(name="r", event=on_create("A"),
                    condition=Condition.true(),
                    action=Action((CallStep(lambda ctx: None),)))
        assert declared_effects(rule) == []


class TestTriggeringGraph:
    def test_chain_edges(self):
        rules = [
            db_rule("a2b", on_create("A"), effect_class="B"),
            db_rule("b2c", on_create("B"), effect_class="C"),
        ]
        analyzer = RuleBaseAnalyzer(rules)
        assert analyzer.triggering_edges() == [("a2b", "b2c")]

    def test_signal_edges(self):
        rules = [
            db_rule("emitter", on_create("A"), signal_name="ping"),
            db_rule("listener", external("ping"), effect_class="B"),
        ]
        analyzer = RuleBaseAnalyzer(rules)
        assert ("emitter", "listener") in analyzer.triggering_edges()

    def test_update_attr_scoping(self):
        from repro.objstore.operations import UpdateObject
        from repro.objstore.objects import OID
        writes_price = Rule(
            name="w", event=on_create("A"), condition=Condition.true(),
            action=Action((DatabaseStep(
                UpdateObject(OID("Stock", 1), {"price": 1.0})),)))
        on_price = db_rule("p", on_update("Stock", ["price"]))
        on_volume = db_rule("v", on_update("Stock", ["volume"]))
        analyzer = RuleBaseAnalyzer([writes_price, on_price, on_volume])
        edges = analyzer.triggering_edges()
        assert ("w", "p") in edges
        assert ("w", "v") not in edges

    def test_self_loop_cycle(self):
        rules = [db_rule("loop", on_create("A"), effect_class="A")]
        report = RuleBaseAnalyzer(rules).analyze()
        assert report.cycles == [["loop"]]
        assert report.has_potential_infinite_cascade()

    def test_two_rule_cycle(self):
        rules = [
            db_rule("a2b", on_create("A"), effect_class="B"),
            db_rule("b2a", on_create("B"), effect_class="A"),
        ]
        report = RuleBaseAnalyzer(rules).analyze()
        assert len(report.cycles) == 1
        assert set(report.cycles[0]) == {"a2b", "b2a"}

    def test_acyclic_strata(self):
        rules = [
            db_rule("a2b", on_create("A"), effect_class="B"),
            db_rule("b2c", on_create("B"), effect_class="C"),
            db_rule("standalone", on_create("Z")),
        ]
        report = RuleBaseAnalyzer(rules).analyze()
        assert report.cycles == []
        assert report.strata[0] == ["a2b", "standalone"]
        assert report.strata[1] == ["b2c"]
        assert report.max_cascade_depth() == 2

    def test_write_conflicts_same_event(self):
        rules = [
            db_rule("r1", on_create("A"), effect_class="Shared"),
            db_rule("r2", on_create("A"), effect_class="Shared"),
            db_rule("r3", on_create("A"), effect_class="Other"),
        ]
        report = RuleBaseAnalyzer(rules).analyze()
        assert ("r1", "r2", "Shared") in report.write_conflicts
        assert all(c[2] != "Other" for c in report.write_conflicts)

    def test_opaque_rules_flagged(self):
        rule = Rule(name="opaque", event=on_create("A"),
                    condition=Condition.true(),
                    action=Action((CallStep(lambda ctx: None),)))
        analyzer = RuleBaseAnalyzer([rule])
        assert analyzer.opaque == ["opaque"]

    def test_extra_effects_unflag_and_connect(self):
        opaque = Rule(name="opaque", event=on_create("A"),
                      condition=Condition.true(),
                      action=Action((CallStep(lambda ctx: None),)))
        listener = db_rule("listener", on_create("B"))
        analyzer = RuleBaseAnalyzer(
            [opaque, listener],
            extra_effects={"opaque": [Effect.create("B")]})
        assert analyzer.opaque == []
        assert ("opaque", "listener") in analyzer.triggering_edges()

    def test_report_format(self):
        rules = [db_rule("loop", on_create("A"), effect_class="A")]
        text = RuleBaseAnalyzer(rules).analyze().format()
        assert "INFINITE" in text
        assert "loop" in text

    def test_analyze_live_database(self):
        db = HiPAC()
        db.define_class(ClassDef("A", attributes("v")))
        db.define_class(ClassDef("B", attributes("v")))
        db.create_rule(Rule(
            name="a2b", event=on_create("A"), condition=Condition.true(),
            action=Action((DatabaseStep(CreateObject("B", {"v": 1})),))))
        db.create_rule(Rule(
            name="b-watch", event=on_create("B"), condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        report = analyze_rule_base(db)
        assert ("a2b", "b-watch") in report.edges
        assert report.opaque_rules == ["b-watch"]


class TestExplain:
    @pytest.fixture
    def db(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("A", attributes(("v", "int"))))
        yield database
        database.close()

    def test_explain_satisfied_firing(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        text = explain(db.firing_log())
        assert "rule 'r'" in text
        assert "condition satisfied" in text
        assert "action executed" in text

    def test_explain_unsatisfied_firing(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition(guard=lambda b, r: False),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert "NOT satisfied" in explain(db.firing_log())

    def test_explain_empty_log(self, db):
        assert explain(db.firing_log()) == "no firings recorded"

    def test_render_transaction_tree(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
            top = txn
        tree = render_transaction_tree(top)
        assert "cond:r" in tree
        assert "act:r" in tree
        assert tree.count("\n") == 2

    def test_why_not_unknown_rule(self, db):
        assert "does not exist" in why_not(db, "ghost")

    def test_why_not_disabled(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        db.disable_rule("r")
        assert "DISABLED" in why_not(db, "r")

    def test_why_not_names_the_missing_subscriber(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        db.create_rule(Rule(name="seq", event=Sequence(on_create("A"),
                                                       on_create("A")),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        db.disable_rule("r")
        # A composite still wants the event: it is reported, r just is
        # not on it.
        assert "not reported" not in why_not(db, "r")
        db.delete_rule("seq")
        assert ("its event is not reported: no enabled rule, composite or"
                " timer uses it") in why_not(db, "r")

    def test_why_not_never_triggered(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        assert "never been triggered" in why_not(db, "r")

    def test_why_not_condition_failed(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition(guard=lambda b, r: False),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert "condition was not satisfied" in why_not(db, "r")

    def test_why_not_healthy_rule(self, db):
        db.create_rule(Rule(name="r", event=on_create("A"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert "fired normally" in why_not(db, "r")
