"""End-to-end integration tests crossing all subsystems."""

import pytest

from repro import (
    Action,
    Attr,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    Disjunction,
    HiPAC,
    Query,
    Rule,
    Sequence,
    VirtualClock,
    after,
    attributes,
    every,
    external,
    on_create,
    on_delete,
    on_update,
)


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Order", (
        AttributeDef("item", AttrType.STRING, required=True),
        AttributeDef("qty", AttrType.INT, default=1),
        AttributeDef("status", AttrType.STRING, default="new"),
    )))
    yield database
    database.close()


class TestCompositeEventRules:
    def test_disjunction_rule_fires_on_either(self, db):
        fired = []
        db.create_rule(Rule(
            name="any-change",
            event=Disjunction(on_create("Order"), on_delete("Order")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: fired.append(
                ctx.signal.constituents[0].op)),
        ))
        with db.transaction() as txn:
            oid = db.create("Order", {"item": "x"}, txn)
            db.delete(oid, txn)
        assert fired == ["create", "delete"]

    def test_sequence_rule_with_bindings(self, db):
        db.define_event("approved", "who")
        fired = []
        db.create_rule(Rule(
            name="create-then-approve",
            event=Sequence(on_create("Order"), external("approved", "who")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: fired.append(
                (ctx.bindings.get("who"), ctx.bindings.get("oid")))),
        ))
        with db.transaction() as txn:
            oid = db.create("Order", {"item": "x"}, txn)
            db.signal_event("approved", {"who": "alice"}, txn)
        assert fired == [("alice", oid)]

    def test_sequence_rule_wrong_order_does_not_fire(self, db):
        db.define_event("approved", "who")
        fired = []
        db.create_rule(Rule(
            name="create-then-approve",
            event=Sequence(on_create("Order"), external("approved", "who")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: fired.append(1)),
        ))
        with db.transaction() as txn:
            db.signal_event("approved", {"who": "alice"}, txn)
        assert fired == []

    def test_composite_rule_coupling_uses_completing_txn(self, db):
        db.define_event("go")
        seen = []
        db.create_rule(Rule(
            name="seq",
            event=Sequence(on_create("Order"), external("go")),
            condition=Condition.true(),
            action=Action.call(
                lambda ctx: seen.append(ctx.txn.top_level().txn_id)),
            ec_coupling="immediate",
        ))
        with db.transaction() as t1:
            db.create("Order", {"item": "x"}, t1)
        with db.transaction() as t2:
            db.signal_event("go", {}, t2)
            completing = t2.txn_id
        assert seen == [completing]


class TestTemporalRules:
    def test_relative_event_rule_end_to_end(self):
        clock = VirtualClock()
        db = HiPAC(clock=clock, lock_timeout=2.0)
        db.define_class(ClassDef("Order", attributes("item")))
        escalations = []
        db.create_rule(Rule(
            name="escalate-stale-order",
            event=after(on_create("Order"), 60.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: escalations.append(
                ctx.signal.timestamp)),
        ))
        clock.advance(10.0)
        with db.transaction() as txn:
            db.create("Order", {"item": "x"}, txn)
        clock.advance(59.0)
        assert escalations == []
        clock.advance(1.0)
        assert escalations == [70.0]

    def test_periodic_rule_querying_database(self):
        clock = VirtualClock()
        db = HiPAC(clock=clock, lock_timeout=2.0)
        db.define_class(ClassDef("Order", attributes(
            "item", ("status", "string"))))
        reports = []
        db.create_rule(Rule(
            name="hourly-new-order-report",
            event=every(3600.0),
            condition=Condition.of(
                Query("Order", Attr("status") == "new")),
            action=Action.call(lambda ctx: reports.append(
                len(ctx.results[0]))),
        ))
        clock.advance(3600.0)
        assert reports == []  # no new orders: condition unsatisfied
        with db.transaction() as txn:
            db.create("Order", {"item": "a", "status": "new"}, txn)
            db.create("Order", {"item": "b", "status": "new"}, txn)
        clock.advance(3600.0)
        assert reports == [2]


class TestWorkflowScenario:
    """A small order-processing workflow where the control logic lives
    entirely in rules (the §4 paradigm)."""

    def build(self, db):
        db.define_class(ClassDef("Shipment", (
            AttributeDef("order", AttrType.OID),
            AttributeDef("state", AttrType.STRING, default="pending"),
        )))
        log = []
        # Order created -> create a shipment (immediate).
        db.create_rule(Rule(
            name="order-to-shipment",
            event=on_create("Order"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.create(
                "Shipment", {"order": ctx.bindings["oid"]})),
        ))
        # Shipment shipped -> mark the order done (immediate).
        def complete(ctx):
            order = ctx.bindings["new_order"]
            ctx.update(order, {"status": "done"})
            log.append("completed")
        db.create_rule(Rule(
            name="shipment-complete",
            event=on_update("Shipment", attrs=["state"]),
            condition=Condition(guard=lambda b, r: b["new_state"] == "shipped"),
            action=Action.call(complete),
        ))
        return log

    def test_workflow_happy_path(self, db):
        log = self.build(db)
        with db.transaction() as txn:
            order = db.create("Order", {"item": "widget"}, txn)
        with db.transaction() as txn:
            shipment = db.query(Query("Shipment"), txn).first().oid
            db.update(shipment, {"state": "shipped"}, txn)
        with db.transaction() as txn:
            assert db.read(order, txn)["status"] == "done"
        assert log == ["completed"]

    def test_workflow_abort_unwinds_everything(self, db):
        self.build(db)
        txn = db.begin()
        db.create("Order", {"item": "widget"}, txn)
        db.abort(txn)
        with db.transaction() as r:
            assert len(db.query(Query("Order"), r)) == 0
            assert len(db.query(Query("Shipment"), r)) == 0


class TestConstraintPlusRuleInterplay:
    def test_rule_action_subject_to_constraints(self, db):
        """A rule action violating a deferred constraint aborts the whole
        triggering transaction."""
        from repro.declarative import DomainConstraint, install_domain_constraint
        install_domain_constraint(db, DomainConstraint(
            "qty-cap", "Order", Attr("qty") <= 10))
        db.create_rule(Rule(
            name="double-qty",
            event=on_update("Order", attrs=["status"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                ctx.bindings["oid"], {"qty": ctx.bindings["new_qty"] * 2})),
        ))
        with db.transaction() as txn:
            oid = db.create("Order", {"item": "x", "qty": 8}, txn)
        from repro import IntegrityViolation
        txn = db.begin()
        db.update(oid, {"status": "rush"}, txn)  # rule doubles qty to 16
        with pytest.raises(IntegrityViolation):
            db.commit(txn)
        with db.transaction() as r:
            assert db.read(oid, r)["qty"] == 8

    def test_constraint_rules_coexist_with_alerters(self, db):
        from repro.conditions.condition import Condition as Cond
        from repro.declarative import (
            Alerter,
            DomainConstraint,
            install_alerter,
            install_domain_constraint,
        )
        install_domain_constraint(db, DomainConstraint(
            "qty-positive", "Order", Attr("qty") >= 0))
        alerts = []
        install_alerter(db, Alerter(
            "big-order",
            event=on_create("Order"),
            condition=Cond(guard=lambda b, r: b.get("new_qty", 0) >= 100),
            notify=lambda ctx: alerts.append(ctx.bindings["new_item"]),
            coupling="immediate"))
        with db.transaction() as txn:
            db.create("Order", {"item": "bulk", "qty": 500}, txn)
        assert alerts == ["bulk"]


class TestEverythingTogether:
    def test_full_stack_session(self):
        """Schema + rules + constraints + temporal + external + app ops +
        analysis in one session."""
        clock = VirtualClock()
        db = HiPAC(clock=clock, lock_timeout=5.0)
        db.define_class(ClassDef("Sensor", (
            AttributeDef("name", AttrType.STRING, required=True, indexed=True),
            AttributeDef("reading", AttrType.NUMBER, default=0.0),
        )))
        app = db.application("console")
        shown = []
        app.operations.register("show", lambda msg: shown.append(msg))
        db.define_event("maintenance", "window")

        from repro.rules.actions import RequestStep
        db.create_rule(Rule(
            name="high-reading",
            event=on_update("Sensor", attrs=["reading"]),
            condition=Condition.of(Query("Sensor", Attr("reading") > 90.0)),
            action=Action.of(RequestStep(
                "console", "show",
                lambda ctx: {"msg": "high: %s" % sorted(
                    ctx.results[0].values("name"))})),
        ))
        db.create_rule(Rule(
            name="daily",
            event=every(86400.0),
            condition=Condition.true(),
            action=Action.of(RequestStep("console", "show",
                                         {"msg": "daily checkpoint"})),
        ))
        with db.transaction() as txn:
            s1 = db.create("Sensor", {"name": "s1", "reading": 10.0}, txn)
        with db.transaction() as txn:
            db.update(s1, {"reading": 95.0}, txn)
        clock.advance(86400.0)
        db.signal_event("maintenance", {"window": "tonight"})
        db.drain()

        assert shown == ["high: ['s1']", "daily checkpoint"]

        from repro.tools import analyze_rule_base, explain
        report = analyze_rule_base(db)
        assert not report.has_potential_infinite_cascade()
        text = explain(db.firing_log())
        assert "high-reading" in text and "daily" in text
