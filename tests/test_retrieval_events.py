"""Tests for retrieval events (read/query) — the access-control extension."""

import pytest

from repro import (
    AccessDenied,
    Action,
    Attr,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    external,
    on_query,
    on_read,
)
from repro.declarative import AccessConstraint, install_access_constraint


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Secret", attributes("name", "payload")))
    yield database
    database.close()


class TestReadEvents:
    def test_read_rule_fires_with_snapshot(self, db):
        seen = []
        db.create_rule(Rule(
            name="read-watch",
            event=on_read("Secret"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(
                (ctx.bindings["user"], ctx.bindings["new_name"]))),
        ))
        with db.transaction() as txn:
            oid = db.create("Secret", {"name": "s1", "payload": "x"}, txn)
        with db.transaction() as txn:
            db.object_manager.read(oid, txn, user="alice")
        assert seen == [("alice", "s1")]

    def test_query_rule_fires(self, db):
        seen = []
        db.create_rule(Rule(
            name="query-watch",
            event=on_query("Secret"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(
                ctx.bindings["class_name"])),
        ))
        with db.transaction() as txn:
            db.query(Query("Secret"), txn)
        assert seen == ["Secret"]

    def test_internal_reads_do_not_signal(self, db):
        """Rule-object reads (firing locks) and condition-evaluation queries
        never trigger retrieval rules — no self-feedback."""
        seen = []
        db.create_rule(Rule(
            name="read-anything",
            event=on_read(None),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(1)),
        ))
        # This rule itself fires on Secret reads; its firing read-locks the
        # rule object via an internal read that must not re-trigger it.
        db.create_rule(Rule(
            name="other",
            event=on_read("Secret"),
            condition=Condition.of(Query("Secret")),  # internal query
            action=Action.call(lambda ctx: None),
        ))
        with db.transaction() as txn:
            oid = db.create("Secret", {"name": "s", "payload": "x"}, txn)
        with db.transaction() as txn:
            db.read(oid, txn)
        assert seen == [1]  # exactly the application's read


class TestReadAccessControl:
    def test_read_denied_for_unauthorized_user(self, db):
        install_access_constraint(db, AccessConstraint(
            "secret-reads", "Secret", operations=("read",),
            allowed_users=frozenset({"alice"})))
        with db.transaction() as txn:
            oid = db.create("Secret", {"name": "s", "payload": "x"}, txn)
        txn = db.begin()
        with pytest.raises(AccessDenied):
            db.object_manager.read(oid, txn, user="mallory")
        db.abort(txn)
        with db.transaction() as txn:
            assert db.object_manager.read(oid, txn, user="alice")["name"] == "s"

    def test_query_denied_for_unauthorized_user(self, db):
        install_access_constraint(db, AccessConstraint(
            "secret-queries", "Secret", operations=("query",),
            allowed_users=frozenset({"alice"})))
        txn = db.begin()
        with pytest.raises(AccessDenied):
            db.object_manager.execute_query(Query("Secret"), txn,
                                            user="mallory")
        db.abort(txn)


class TestSystemReadsDoNotSignal:
    """Which reads are retrieval events: the application's, and a rule
    action's when it goes through the facade; not the system's own."""

    def test_rule_creation_priming_query_does_not_signal(self, db):
        seen = []
        db.create_rule(Rule(
            name="query-watch",
            event=on_query("Secret"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(ctx.txn.txn_id)),
        ))
        # A static condition on Secret: creating the rule runs its query
        # once, in the creating transaction, to prime the condition graph.
        db.create_rule(Rule(
            name="static-secret",
            event=on_read("Secret"),
            condition=Condition.of(Query("Secret", Attr("name") == "s")),
            action=Action.call(lambda ctx: None),
        ))
        assert seen == []

    def test_action_context_reads_do_not_signal_but_facade_reads_do(self, db):
        with db.transaction() as txn:
            oid = db.create("Secret", {"name": "s", "payload": "x"}, txn)
        seen = []
        for name, event in (("query-watch", on_query("Secret")),
                            ("read-watch", on_read("Secret"))):
            db.create_rule(Rule(
                name=name, event=event, condition=Condition.true(),
                action=Action.call(lambda ctx, name=name: seen.append(name)),
            ))

        def reader(ctx):
            ctx.query(Query("Secret"))
            ctx.read(oid)
            assert seen == []
            db.query(Query("Secret"), ctx.txn)

        db.define_event("look")
        db.create_rule(Rule(name="reader", event=external("look"),
                            condition=Condition.true(),
                            action=Action.call(reader)))
        with db.transaction() as txn:
            db.signal_event("look", txn=txn)
        assert seen == ["query-watch"]
