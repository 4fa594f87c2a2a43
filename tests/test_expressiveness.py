"""The §4 expressiveness contrast, made executable.

"Even in those DBMS's that provide some form of active database facilities,
both the events that trigger actions and the actions that they trigger are
limited to database operations.  Consider triggers in System R and Sybase.
The event for a trigger is an insert, update, or delete on a table; the
action is expressed in SQL.  In contrast, HiPAC allows rule events to be
defined by the application, and allows rule actions to contain requests to
applications."

Each test demonstrates a paper scenario ECA rules express that the simple
trigger baseline structurally cannot (its API admits only DML events and
database-only actions with implicit immediate coupling).
"""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    every,
    external,
    on_commit,
    on_update,
)
from repro.baseline import PassiveDBMS, Trigger, TriggerSystem
from repro.errors import RuleError
from repro.rules.actions import RequestStep


class TestTriggerBaselineLimits:
    """What the baseline's API structurally rejects."""

    def test_no_temporal_events(self):
        # Simple triggers accept only insert/update/delete.
        with pytest.raises(RuleError):
            Trigger("tick", "Stock", "every-10s", lambda inv: None)

    def test_no_transaction_events(self):
        with pytest.raises(RuleError):
            Trigger("on-commit", "Stock", "commit", lambda inv: None)

    def test_no_external_events(self):
        with pytest.raises(RuleError):
            Trigger("app-event", "Stock", "signal", lambda inv: None)

    def test_implicit_immediate_coupling_only(self):
        """Trigger bodies run in the triggering transaction — abort of the
        trigger discards their effects; there is no separate/deferred
        choice in the API (TriggerInvocation exposes only the triggering
        txn)."""
        db = PassiveDBMS(lock_timeout=2.0)
        db.define_class(ClassDef("Stock", attributes("symbol")))
        system = TriggerSystem(db)
        invocations = []
        system.create_trigger(Trigger(
            "t", "Stock", "insert", lambda inv: invocations.append(inv)))
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A"}, txn)
        assert invocations[0].txn is txn  # no other transaction context exists


class TestHiPACExpressesThePaperScenarios:
    """The same scenarios, expressible as ECA rules."""

    @pytest.fixture
    def db(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("Stock", attributes(
            "symbol", ("price", "number"))))
        yield database
        database.close()

    def test_application_defined_event_triggers_rule(self, db):
        db.define_event("analyst-note", "text")
        notes = []
        db.create_rule(Rule(
            name="record-note",
            event=external("analyst-note", "text"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: notes.append(ctx.bindings["text"])),
        ))
        db.signal_event("analyst-note", {"text": "watch XRX"})
        assert notes == ["watch XRX"]

    def test_action_requests_application_operation(self, db):
        app = db.application("display")
        shown = []
        app.operations.register("show", lambda msg: shown.append(msg))
        db.create_rule(Rule(
            name="display-quote",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.of(RequestStep(
                "display", "show",
                lambda ctx: {"msg": ctx.bindings["new_price"]})),
        ))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
        assert shown == [2.0]

    def test_temporal_event_rule(self, db):
        ticks = []
        db.create_rule(Rule(
            name="tick",
            event=every(10.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ticks.append(ctx.signal.timestamp)),
        ))
        db.advance_time(30.0)
        assert len(ticks) == 3

    def test_commit_event_rule(self, db):
        commits = []
        db.create_rule(Rule(
            name="on-commit",
            event=on_commit(),
            condition=Condition.true(),
            action=Action.call(lambda ctx: commits.append(1)),
        ))
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A"}, txn)
        assert commits

    def test_decoupled_action_survives_trigger_abort(self, db):
        """Separate coupling has no trigger-baseline equivalent: the
        notification runs even though the triggering transaction aborted
        (an audit/alerting pattern immediate-only triggers cannot give)."""
        alerts = []
        db.create_rule(Rule(
            name="audit",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: alerts.append(
                ctx.bindings["new_price"])),
            ec_coupling="separate",
        ))
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        db.update(oid, {"price": 99.0}, txn)
        db.abort(txn)
        db.drain()
        assert alerts == [99.0]
