"""Tests for the action model: step varieties, builders, context helpers."""

import pytest

from repro import (
    Action,
    AbortStep,
    ClassDef,
    Condition,
    CreateObject,
    DatabaseStep,
    HiPAC,
    IntegrityViolation,
    Query,
    Rule,
    RuleError,
    SignalStep,
    attributes,
    external,
    on_create,
    on_update,
)
from repro.rules.actions import CallStep


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Doc", attributes(
        "title", ("words", "int"))))
    database.define_class(ClassDef("Summary", attributes(
        "doc_title", ("count", "int"))))
    yield database
    database.close()


class TestActionConstruction:
    def test_steps_must_be_action_steps(self):
        with pytest.raises(RuleError):
            Action(("not a step",))

    def test_action_of(self):
        action = Action.of(CallStep(lambda ctx: 1), CallStep(lambda ctx: 2))
        assert len(action.steps) == 2

    def test_empty_action(self):
        assert Action().is_empty()
        assert not Action.call(lambda ctx: None).is_empty()

    def test_run_returns_step_results(self, db):
        db.create_rule(Rule(
            name="r", event=on_create("Doc"), condition=Condition.true(),
            action=Action.of(CallStep(lambda ctx: "a"),
                             CallStep(lambda ctx: "b"))))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        # results are internal, but steps must both have run:
        firing = db.firing_log().all()[0]
        assert firing.executed


class TestDatabaseStep:
    def test_static_operation(self, db):
        db.create_rule(Rule(
            name="summarize",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(DatabaseStep(
                CreateObject("Summary", {"doc_title": "fixed", "count": 1}))),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        with db.transaction() as r:
            assert len(db.query(Query("Summary"), r)) == 1

    def test_builder_operation(self, db):
        db.create_rule(Rule(
            name="summarize",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(DatabaseStep(
                lambda ctx: CreateObject(
                    "Summary", {"doc_title": ctx.bindings["new_title"],
                                "count": 0}))),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "report"}, txn)
        with db.transaction() as r:
            assert db.query(Query("Summary"), r).values("doc_title") == ["report"]

    def test_builder_returning_list(self, db):
        db.create_rule(Rule(
            name="two-summaries",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(DatabaseStep(
                lambda ctx: [CreateObject("Summary", {"doc_title": "1"}),
                             CreateObject("Summary", {"doc_title": "2"})])),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        with db.transaction() as r:
            assert len(db.query(Query("Summary"), r)) == 2

    def test_describe(self):
        assert "create Summary" in DatabaseStep(
            CreateObject("Summary", {})).describe()
        assert "builder" in DatabaseStep(lambda ctx: None).describe()


class TestSignalStep:
    def test_signal_with_static_args(self, db):
        db.define_event("ping", "n")
        got = []
        db.create_rule(Rule(
            name="emit",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(SignalStep("ping", {"n": 7})),
        ))
        db.create_rule(Rule(
            name="listen",
            event=external("ping", "n"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: got.append(ctx.bindings["n"])),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        assert got == [7]

    def test_signal_with_args_builder(self, db):
        db.define_event("ping", "title")
        got = []
        db.create_rule(Rule(
            name="emit",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(SignalStep(
                "ping", lambda ctx: {"title": ctx.bindings["new_title"]})),
        ))
        db.create_rule(Rule(
            name="listen",
            event=external("ping", "title"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: got.append(ctx.bindings["title"])),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "memo"}, txn)
        assert got == ["memo"]

    def test_describe(self):
        assert SignalStep("ping").describe() == "signal:ping"


class TestAbortStep:
    def test_default_raises_integrity_violation(self, db):
        db.create_rule(Rule(
            name="forbid",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(AbortStep("no docs allowed")),
        ))
        txn = db.begin()
        with pytest.raises(IntegrityViolation) as info:
            db.create("Doc", {"title": "t"}, txn)
        assert info.value.constraint == "forbid"
        db.abort(txn)

    def test_custom_error(self, db):
        db.create_rule(Rule(
            name="forbid",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(AbortStep(error=ValueError("custom"))),
        ))
        txn = db.begin()
        with pytest.raises(ValueError):
            db.create("Doc", {"title": "t"}, txn)
        db.abort(txn)


class TestContextHelpers:
    def test_read_and_query_in_action(self, db):
        seen = {}

        def act(ctx):
            seen["read"] = ctx.read(ctx.bindings["oid"])["title"]
            seen["count"] = len(ctx.query(Query("Doc")))

        db.create_rule(Rule(
            name="inspect", event=on_create("Doc"),
            condition=Condition.true(), action=Action.call(act)))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        assert seen == {"read": "t", "count": 1}

    def test_request_without_registry_raises(self):
        from repro.rules.actions import ActionContext
        from repro.events.signal import EventSignal
        ctx = ActionContext(object_manager=None, txn=None,
                            signal=EventSignal(kind="external"),
                            bindings={}, results=[])
        with pytest.raises(RuleError):
            ctx.request("app", "op")

    def test_signal_without_detector_raises(self):
        from repro.rules.actions import ActionContext
        from repro.events.signal import EventSignal
        ctx = ActionContext(object_manager=None, txn=None,
                            signal=EventSignal(kind="external"),
                            bindings={}, results=[])
        with pytest.raises(RuleError):
            SignalStep("ping").execute(ctx)

    def test_delete_in_action(self, db):
        db.create_rule(Rule(
            name="self-destruct",
            event=on_update("Doc", attrs=["words"]),
            condition=Condition(guard=lambda b, r: b["new_words"] == 0),
            action=Action.call(lambda ctx: ctx.delete(ctx.bindings["oid"])),
        ))
        with db.transaction() as txn:
            oid = db.create("Doc", {"title": "t", "words": 10}, txn)
        with db.transaction() as txn:
            db.update(oid, {"words": 0}, txn)
        assert not db.store.exists(oid)
