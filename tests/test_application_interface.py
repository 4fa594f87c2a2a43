"""Tests for the application paradigm: channels, registry, and the
four-module interface of Figure 4.1."""

import pytest

from repro import (
    Action,
    ApplicationError,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    external,
    on_create,
)
from repro.apps.channel import Channel, Request
from repro.apps.registry import ApplicationRegistry
from repro.rules.actions import RequestStep


class TestChannel:
    def test_synchronous_dispatch_returns_reply(self):
        channel = Channel("app")
        channel.register("add", lambda a, b: a + b)
        request = Request("app", "add", {"a": 2, "b": 3})
        assert channel.dispatch(request) == 5
        assert request.completed and request.reply == 5

    def test_unknown_operation_raises(self):
        channel = Channel("app")
        with pytest.raises(ApplicationError):
            channel.dispatch(Request("app", "nope"))

    def test_handler_error_wrapped(self):
        channel = Channel("app")
        channel.register("boom", lambda: 1 / 0)
        request = Request("app", "boom")
        with pytest.raises(ApplicationError):
            channel.dispatch(request)
        assert request.error

    def test_history_recorded(self):
        channel = Channel("app")
        channel.register("op", lambda: None)
        channel.dispatch(Request("app", "op"))
        assert len(channel.history) == 1

    def test_mailbox_queues_until_served(self):
        channel = Channel("app", mailbox=True)
        got = []
        channel.register("op", lambda x: got.append(x))
        channel.dispatch(Request("app", "op", {"x": 1}))
        channel.dispatch(Request("app", "op", {"x": 2}))
        assert got == []
        assert channel.pending() == 2
        assert channel.serve() == 2
        assert got == [1, 2]

    def test_serve_max_requests(self):
        channel = Channel("app", mailbox=True)
        channel.register("op", lambda: None)
        for _ in range(3):
            channel.dispatch(Request("app", "op"))
        assert channel.serve(max_requests=2) == 2
        assert channel.pending() == 1

    def test_operations_listed(self):
        channel = Channel("app")
        channel.register("b", lambda: None)
        channel.register("a", lambda: None)
        assert channel.operations() == ["a", "b"]


class TestRegistry:
    def test_register_and_request(self):
        registry = ApplicationRegistry()
        channel = registry.register("calc")
        channel.register("double", lambda x: 2 * x)
        assert registry.request("calc", "double", {"x": 4}) == 8
        assert registry.stats["requests"] == 1

    def test_unknown_application_raises(self):
        registry = ApplicationRegistry()
        with pytest.raises(ApplicationError):
            registry.request("nope", "op")

    def test_register_idempotent(self):
        registry = ApplicationRegistry()
        assert registry.register("a") is registry.register("a")

    def test_unregister(self):
        registry = ApplicationRegistry()
        registry.register("a")
        registry.unregister("a")
        with pytest.raises(ApplicationError):
            registry.channel("a")

    def test_total_requests(self):
        registry = ApplicationRegistry()
        registry.register("a").register("op", lambda: None)
        registry.register("b").register("op", lambda: None)
        registry.request("a", "op")
        registry.request("a", "op")
        registry.request("b", "op")
        assert registry.total_requests() == 3
        assert registry.total_requests("a") == 2


class TestFourModuleInterface:
    @pytest.fixture
    def db(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("Doc", attributes("title")))
        yield database
        database.close()

    def test_data_module(self, db):
        app = db.application("editor")
        with app.transactions.run() as txn:
            oid = app.data.create("Doc", {"title": "t"}, txn)
            app.data.update(oid, {"title": "t2"}, txn)
            assert app.data.read(oid, txn)["title"] == "t2"
        with app.transactions.run() as txn:
            from repro import Query
            assert len(app.data.query(Query("Doc"), txn)) == 1

    def test_transaction_module_abort_on_exception(self, db):
        app = db.application("editor")
        with pytest.raises(ValueError):
            with app.transactions.run() as txn:
                app.data.create("Doc", {"title": "t"}, txn)
                raise ValueError("boom")
        with app.transactions.run() as txn:
            from repro import Query
            assert len(app.data.query(Query("Doc"), txn)) == 0

    def test_transaction_module_nesting(self, db):
        app = db.application("editor")
        with app.transactions.run() as top:
            with app.transactions.run(parent=top) as child:
                assert child.parent is top

    def test_event_module_define_and_signal_fires_rule(self, db):
        app = db.application("editor")
        app.events.define("saved", "title")
        seen = []
        db.create_rule(Rule(
            name="on-save",
            event=external("saved", "title"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(ctx.bindings["title"])),
        ))
        app.events.signal("saved", {"title": "report"})
        assert seen == ["report"]

    def test_operations_module_serves_rule_requests(self, db):
        app = db.application("printer")
        printed = []
        app.operations.register("print_doc", lambda title: printed.append(title))
        db.create_rule(Rule(
            name="auto-print",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(RequestStep(
                "printer", "print_doc",
                lambda ctx: {"title": ctx.bindings["new_title"]})),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "memo"}, txn)
        assert printed == ["memo"]
        assert len(app.operations.history()) == 1

    def test_mailbox_application(self, db):
        app = db.application("slowpoke", mailbox=True)
        handled = []
        app.operations.register("notify", lambda: handled.append(1))
        db.create_rule(Rule(
            name="notify-rule",
            event=on_create("Doc"),
            condition=Condition.true(),
            action=Action.of(RequestStep("slowpoke", "notify")),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "x"}, txn)
        assert handled == []
        assert app.operations.pending() == 1
        app.operations.serve()
        assert handled == [1]
