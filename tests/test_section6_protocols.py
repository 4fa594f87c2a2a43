"""Trace-validated reproductions of the paper's Section 6 walkthroughs and
Figures 4.1/5.1.

The system records every inter-component call; these tests check the
recorded protocol against the paper's prose:

* §6.1 rule creation,
* §6.2 event signal processing,
* §6.3 transaction commit processing,
* Figure 4.1 (the four-module application interface),
* Figure 5.1 (the component graph: no call crosses an edge the figure
  doesn't draw).
"""

import pytest

from repro import (
    Action,
    Attr,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    external,
    on_update,
)
from repro.core.tracing import (
    APPLICATION,
    CONDITION_EVALUATOR,
    EVENT_DETECTOR,
    OBJECT_MANAGER,
    RULE_MANAGER,
    TRANSACTION_MANAGER,
    figure_5_1_edges,
)
from repro.rules.actions import RequestStep


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    yield database
    database.close()


def probe_rule(name="probe", **kwargs):
    return Rule(
        name=name,
        event=kwargs.pop("event", on_update("Stock")),
        condition=kwargs.pop(
            "condition", Condition.of(Query("Stock", Attr("price") > 0))),
        action=kwargs.pop("action", Action.call(lambda ctx: None)),
        **kwargs,
    )


class TestSection61RuleCreation:
    """§6.1: "The request is handled by the Object Manager.  The Object
    Manager creates the rule object ... and signals the create rule event to
    the Rule Manager. ... First, the Rule Manager issues an add rule request
    to the Condition [Evaluator].  Then it issues define event requests to
    the appropriate Event Detectors." """

    def test_creation_protocol_order(self, db):
        db.tracer.start()
        db.create_rule(probe_rule())
        trace = db.tracer.stop()
        assert trace.subsequence([
            (APPLICATION, OBJECT_MANAGER, "execute_operation"),
            (OBJECT_MANAGER, RULE_MANAGER, "signal_event"),
            (RULE_MANAGER, CONDITION_EVALUATOR, "add_rule"),
            (RULE_MANAGER, EVENT_DETECTOR, "define_event"),
        ]), "\n" + trace.format()

    def test_object_manager_signals_create_rule_event(self, db):
        db.tracer.start()
        db.create_rule(probe_rule())
        trace = db.tracer.stop()
        signals = [r for r in trace.records
                   if r.source == OBJECT_MANAGER and r.target == RULE_MANAGER]
        assert any("HiPAC::Rule" in r.detail for r in signals)


class TestSection62EventSignal:
    """§6.2: the Rule Manager divides triggered rules into three groups by
    condition coupling; separate firings get new top-level transactions in
    their own threads; deferred firings are saved; immediate conditions are
    evaluated in subtransactions, then actions execute, then the suspended
    operation resumes."""

    def test_immediate_signal_protocol(self, db):
        db.create_rule(probe_rule())
        db.tracer.start()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
        trace = db.tracer.stop()
        assert trace.subsequence([
            (APPLICATION, OBJECT_MANAGER, "execute_operation"),
            (OBJECT_MANAGER, RULE_MANAGER, "signal_event"),
            (RULE_MANAGER, TRANSACTION_MANAGER, "create_transaction"),
            (RULE_MANAGER, CONDITION_EVALUATOR, "evaluate_condition"),
        ]), "\n" + trace.format()

    def test_rule_manager_creates_condition_and_action_transactions(self, db):
        db.create_rule(probe_rule())
        db.tracer.start()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
        trace = db.tracer.stop()
        created = trace.count(source=RULE_MANAGER, target=TRANSACTION_MANAGER,
                              operation="create_transaction")
        assert created == 2  # one condition + one action subtransaction

    def test_groups_partitioned_by_coupling(self, db):
        for i, ec in enumerate(("immediate", "deferred", "separate")):
            db.create_rule(probe_rule(name="r-%s" % ec, ec_coupling=ec))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
        db.drain()
        firings = db.firing_log()
        assert any(f.separate_thread for f in firings.for_rule("r-separate"))
        assert any(f.deferred for f in firings.for_rule("r-deferred"))
        assert any(f.condition_txn for f in firings.for_rule("r-immediate"))


class TestSection63CommitProcessing:
    """§6.3: at commit, the Transaction Manager signals the Rule Manager;
    deferred-condition firings are evaluated (Condition Evaluator), deferred
    actions simply executed; only then does commit processing resume."""

    def test_commit_protocol(self, db):
        db.create_rule(probe_rule(ec_coupling="deferred"))
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
            db.tracer.start()
        trace = db.tracer.stop()
        assert trace.subsequence([
            (APPLICATION, TRANSACTION_MANAGER, "commit_transaction"),
            (TRANSACTION_MANAGER, RULE_MANAGER, "signal_event"),
            (RULE_MANAGER, TRANSACTION_MANAGER, "create_transaction"),
            (RULE_MANAGER, CONDITION_EVALUATOR, "evaluate_condition"),
        ]), "\n" + trace.format()

    def test_deferred_work_completes_before_commit_returns(self, db):
        ran = []
        db.create_rule(probe_rule(
            ec_coupling="deferred",
            action=Action.call(lambda ctx: ran.append(True))))
        txn = db.begin()
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        assert ran == []
        db.commit(txn)
        assert ran == [True]
        assert txn.state == "committed"


class TestFigure41Interface:
    """Figure 4.1: an application reaches HiPAC through exactly four
    modules — data operations, transaction operations, event operations,
    application operations (HiPAC -> application)."""

    def test_all_four_modules_cross_the_interface(self, db):
        app = db.application("demo")
        app.events.define("nudge")
        received = []
        app.operations.register("notify", lambda: received.append(1))
        db.create_rule(Rule(
            name="nudge-rule",
            event=external("nudge"),
            condition=Condition.true(),
            action=Action.of(RequestStep("demo", "notify")),
        ))
        db.tracer.start()
        with app.transactions.run() as txn:                 # module 2
            app.data.create("Stock", {"symbol": "A"}, txn)  # module 1
            app.events.signal("nudge", {}, txn)             # module 3
        trace = db.tracer.stop()                            # module 4 below
        assert received == [1]
        assert trace.count(source=APPLICATION, target=OBJECT_MANAGER) >= 1
        assert trace.count(source=APPLICATION, target=TRANSACTION_MANAGER) >= 1
        assert trace.count(source=APPLICATION, target=EVENT_DETECTOR) >= 1
        assert trace.count(source=RULE_MANAGER, target=APPLICATION) == 1


class TestFigure51ComponentGraph:
    """Figure 5.1: every inter-component call in a full workout stays within
    the edges the figure draws."""

    def test_no_call_outside_figure_edges(self, db):
        app = db.application("demo")
        app.events.define("ping")
        app.operations.register("notify", lambda: None)
        db.create_rule(probe_rule(name="imm"))
        db.create_rule(probe_rule(name="def", ec_coupling="deferred"))
        db.create_rule(Rule(
            name="app-rule",
            event=external("ping"),
            condition=Condition.true(),
            action=Action.of(RequestStep("demo", "notify")),
        ))
        db.tracer.start()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
            app.events.signal("ping", {}, txn)
        trace = db.tracer.stop()
        extra = trace.edge_set() - figure_5_1_edges()
        assert not extra, "calls outside Figure 5.1: %s\n%s" % (
            sorted(extra), trace.format())

    def test_workout_covers_most_figure_edges(self, db):
        app = db.application("demo")
        app.events.define("ping")
        app.operations.register("notify", lambda: None)
        db.create_rule(probe_rule(name="imm"))
        db.create_rule(Rule(
            name="app-rule",
            event=external("ping"),
            condition=Condition.true(),
            action=Action.of(RequestStep("demo", "notify")),
        ))
        db.tracer.start()
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
            db.update(oid, {"price": 2.0}, txn)
            app.events.signal("ping", {}, txn)
        trace = db.tracer.stop()
        covered = trace.edge_set() & figure_5_1_edges()
        assert len(covered) >= 9


class TestTracer:
    def test_disabled_tracer_records_nothing(self, db):
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A"}, txn)
        assert db.tracer.snapshot().records == []

    def test_trace_format_readable(self, db):
        db.tracer.start()
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A"}, txn)
        trace = db.tracer.stop()
        text = trace.format()
        assert "Application -> ObjectManager" in text

    def test_snapshot_keeps_recording(self, db):
        db.tracer.start()
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A"}, txn)
        first = len(db.tracer.snapshot().records)
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "B"}, txn)
        assert len(db.tracer.stop().records) > first
