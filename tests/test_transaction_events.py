"""Tests for rules triggered by transaction-control events (begin, commit,
abort) — the paper's third class of database operations (§2.1)."""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    on_abort,
    on_commit,
)
from repro.events.spec import DatabaseEventSpec


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Doc", attributes("title")))
    database.define_class(ClassDef("AuditLog", attributes("note")))
    yield database
    database.close()


class TestCommitEventRules:
    def test_commit_rule_fires_inside_committing_transaction(self, db):
        """An immediate rule on the commit event runs as a subtransaction of
        the committing transaction; its effects commit with it."""
        db.create_rule(Rule(
            name="audit-commit",
            event=on_commit(),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create(
                "AuditLog", {"note": "committed %s"
                             % ctx.txn.top_level().txn_id})),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
            top_id = txn.txn_id
        with db.transaction() as r:
            notes = db.query(Query("AuditLog"), r).values("note")
        assert any(top_id in note for note in notes)

    def test_commit_rule_separate_coupling(self, db):
        ran = []
        db.create_rule(Rule(
            name="post-commit",
            event=on_commit(),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        db.drain()
        assert ran

    def test_commit_rules_do_not_recurse_forever(self, db):
        """The firing subtransactions commit too; their commits must not
        re-trigger commit rules endlessly (guarded by cascade depth — here
        we just check the system terminates and fires a bounded number of
        times)."""
        count = []
        db.create_rule(Rule(
            name="on-commit",
            event=on_commit(),
            condition=Condition(guard=lambda b, r: len(count) < 3),
            action=Action.call(lambda ctx: count.append(1)),
        ))
        with db.transaction() as txn:
            db.create("Doc", {"title": "t"}, txn)
        assert len(count) >= 1  # fired, and terminated


class TestAbortEventRules:
    def test_abort_rule_runs_detached(self, db):
        """Rules on abort events cannot run inside the aborted transaction;
        they fire in a fresh top-level transaction whose effects survive."""
        db.create_rule(Rule(
            name="audit-abort",
            event=on_abort(),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create(
                "AuditLog", {"note": "aborted"})),
        ))
        txn = db.begin()
        db.create("Doc", {"title": "doomed"}, txn)
        db.abort(txn)
        with db.transaction() as r:
            docs = db.query(Query("Doc"), r)
            logs = db.query(Query("AuditLog"), r)
        assert len(docs) == 0
        assert len(logs) >= 1

    def test_begin_event_rule(self, db):
        seen = []
        db.create_rule(Rule(
            name="on-begin",
            event=DatabaseEventSpec("begin"),
            condition=Condition.true(),
            action=Action.call(
                lambda ctx: seen.append(ctx.bindings.get("txn_id"))),
            ec_coupling="deferred",
        ))
        with db.transaction() as txn:
            started = txn.txn_id
        assert started in seen
