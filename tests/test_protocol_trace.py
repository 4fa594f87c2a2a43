"""The §6 protocol, record for record.

``tests/test_section6_protocols.py`` checks the paper's walkthroughs as
subsequences; this file pins every record of five fixed scenarios —
(source, target, operation, detail), in call order — so a change to how
the tracer names a caller or builds a detail shows here.  The expected
lists were recorded by running the scenarios on the engine before the
tracer moved out of it.

The workout's separate-coupling firing runs on a worker thread while the
stimulus thread goes on, so that scenario is compared as a multiset, with
transaction ids replaced by ``t#``.
"""

import re
from collections import Counter
from operator import attrgetter

import pytest

from benchmarks.e2e import trace as bench_trace
from repro import (
    Action,
    Attr,
    ClassDef,
    Condition,
    HiPAC,
    JoinQuery,
    Query,
    Rule,
    attributes,
    external,
    on_update,
)
from repro.core import tracing
from repro.rules.actions import RequestStep, SignalStep

A, OM, TM, ED, RM, CE = ("Application", "ObjectManager", "TransactionManager",
                         "EventDetector", "RuleManager", "ConditionEvaluator")


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"), "desk")))
    database.define_class(ClassDef("Desk", attributes("name")))
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


def records(trace):
    return [(r.source, r.target, r.operation, r.detail) for r in trace.records]


def normalised(trace):
    return Counter((r.source, r.target, r.operation,
                    re.sub(r"\bt\d+\b", "t#", r.detail))
                   for r in trace.records)


# ------------------------------------------------------------ scenarios

def create_rule(db):
    db.tracer.start()
    db.create_rule(probe_rule())
    return db.tracer.stop()


def immediate_update(db):
    db.create_rule(probe_rule())
    with db.transaction() as txn:
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
    db.tracer.start()
    with db.transaction() as txn:
        db.update(oid, {"price": 2.0}, txn)
    return db.tracer.stop()


def deferred_commit(db):
    db.create_rule(probe_rule(ec_coupling="deferred"))
    with db.transaction() as txn:
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        db.tracer.start()
    return db.tracer.stop()


def workout(db):
    app = db.application("desk")
    app.events.define("ping")
    app.operations.register("notify", lambda: None)
    db.create_rule(probe_rule(name="imm"))
    db.create_rule(probe_rule(name="def", ec_coupling="deferred"))
    db.create_rule(probe_rule(name="sep", ec_coupling="separate"))
    db.create_rule(Rule(
        name="app-rule", event=external("ping"), condition=Condition.true(),
        action=Action.of(RequestStep("desk", "notify"))))
    db.tracer.start()
    with db.transaction() as txn:
        oid = db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
        db.update(oid, {"price": 2.0}, txn)
        app.events.signal("ping", {}, txn)
        db.read(oid, txn)
        db.query(Query("Stock", Attr("price") > 0), txn)
        db.fire_rule("imm", txn)
    assert db.drain(5.0)
    db.delete_rule("sep")
    trace = db.tracer.stop()
    assert db.rule_manager.background_errors == []
    return trace


def join_and_abort(db):
    def write_then_fail(ctx):
        ctx.update(ctx.results[0].rows[0].right.oid, {"name": "touched"})
        raise RuntimeError("action fails")

    join = JoinQuery(Query("Stock", Attr("price") > 0), Query("Desk"), "desk")
    with db.transaction() as txn:
        desk = db.create("Desk", {"name": "d1"}, txn)
        oid = db.create("Stock", {"symbol": "X", "price": 1.0, "desk": desk},
                        txn)
    db.create_rule(probe_rule(name="joined", condition=Condition.of(join),
                              action=Action.call(write_then_fail)))
    db.tracer.start()
    with db.transaction() as txn:
        assert len(db.object_manager.execute_join(join, txn).rows) == 1
    with pytest.raises(RuntimeError):
        with db.transaction() as txn:
            db.update(oid, {"price": 2.0}, txn)
    return db.tracer.stop()


# ------------------------------------------------------- the records

CREATE_RULE = [
    (A, TM, 'create_transaction', 'top level'),
    (TM, RM, 'signal_event', 'transaction begin t4'),
    (A, OM, 'execute_operation', 'create HiPAC::Rule'),
    (OM, RM, 'signal_event', 'db:create HiPAC::Rule#1'),
    (RM, CE, 'add_rule', '-'),
    (CE, OM, 'execute_query', 'Stock'),
    (RM, ED, 'define_event', 'DatabaseEventSpec(update Stock)'),
    (A, TM, 'commit_transaction', 't4'),
    (TM, RM, 'signal_event', 'transaction commit t4'),
]

IMMEDIATE_UPDATE = [
    (A, TM, 'create_transaction', 'top level'),
    (TM, RM, 'signal_event', 'transaction begin t6'),
    (A, OM, 'execute_operation', 'update Stock#2'),
    (OM, RM, 'signal_event', 'db:update Stock#2'),
    (RM, TM, 'create_transaction', 'nested under t6'),
    (RM, OM, 'read', 'HiPAC::Rule#1'),
    (RM, CE, 'evaluate_condition', '- coupling=immediate'),
    (RM, TM, 'commit_transaction', 't7'),
    (RM, TM, 'create_transaction', 'nested under t6'),
    (RM, TM, 'commit_transaction', 't8'),
    (A, TM, 'commit_transaction', 't6'),
    (TM, RM, 'signal_event', 'transaction commit t6'),
]

DEFERRED_COMMIT = [
    (A, TM, 'commit_transaction', 't5'),
    (TM, RM, 'signal_event', 'transaction commit t5'),
    (RM, TM, 'create_transaction', 'nested under t5'),
    (RM, OM, 'read', 'HiPAC::Rule#1'),
    (RM, CE, 'evaluate_condition', '- coupling=deferred'),
    (RM, TM, 'commit_transaction', 't6'),
    (RM, TM, 'create_transaction', 'nested under t5'),
    (RM, TM, 'commit_transaction', 't7'),
]

WORKOUT = [
    (A, ED, 'signal_event', 'ping'),
    (A, OM, 'execute_operation', 'create Stock'),
    (A, OM, 'execute_operation', 'delete HiPAC::Rule#3'),
    (A, OM, 'execute_operation', 'update Stock#5'),
    (A, OM, 'execute_query', 'Stock'),
    (A, OM, 'read', 'Stock#5'),
    (A, TM, 'commit_transaction', 't#'),
    (A, TM, 'commit_transaction', 't#'),
    (A, TM, 'create_transaction', 'top level'),
    (A, TM, 'create_transaction', 'top level'),
    (ED, RM, 'signal_event', 'external:ping {}'),
    (OM, RM, 'signal_event', 'db:delete HiPAC::Rule#3'),
    (OM, RM, 'signal_event', 'db:update Stock#5'),
    (RM, A, 'application_request', 'desk.notify'),
    (RM, CE, 'delete_rule', '-'),
    (RM, CE, 'evaluate_condition', '- coupling=deferred'),
    (RM, CE, 'evaluate_condition', '- coupling=immediate'),
    (RM, CE, 'evaluate_condition', '- coupling=immediate'),
    (RM, CE, 'evaluate_condition', '- coupling=immediate'),
    (RM, CE, 'evaluate_condition', '- coupling=separate'),
    (RM, ED, 'delete_event', 'DatabaseEventSpec(update Stock)'),
    (RM, OM, 'read', 'HiPAC::Rule#1'),
    (RM, OM, 'read', 'HiPAC::Rule#1'),
    (RM, OM, 'read', 'HiPAC::Rule#2'),
    (RM, OM, 'read', 'HiPAC::Rule#3'),
    (RM, OM, 'read', 'HiPAC::Rule#4'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'commit_transaction', 't#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'nested under t#'),
    (RM, TM, 'create_transaction', 'top level'),
    (TM, RM, 'signal_event', 'transaction begin t#'),
    (TM, RM, 'signal_event', 'transaction begin t#'),
    (TM, RM, 'signal_event', 'transaction commit t#'),
    (TM, RM, 'signal_event', 'transaction commit t#'),
]

JOIN_AND_ABORT = [
    (A, TM, 'create_transaction', 'top level'),
    (TM, RM, 'signal_event', 'transaction begin t6'),
    (A, OM, 'execute_join', 'Stock x Desk'),
    (A, OM, 'execute_query', 'Stock'),
    (A, OM, 'execute_query', 'Desk'),
    (A, TM, 'commit_transaction', 't6'),
    (TM, RM, 'signal_event', 'transaction commit t6'),
    (A, TM, 'create_transaction', 'top level'),
    (TM, RM, 'signal_event', 'transaction begin t7'),
    (A, OM, 'execute_operation', 'update Stock#2'),
    (OM, RM, 'signal_event', 'db:update Stock#2'),
    (RM, TM, 'create_transaction', 'nested under t7'),
    (RM, OM, 'read', 'HiPAC::Rule#3'),
    (RM, CE, 'evaluate_condition', '- coupling=immediate'),
    (CE, OM, 'execute_join', 'Stock x Desk'),
    (CE, OM, 'execute_query', 'Stock'),
    (CE, OM, 'execute_query', 'Desk'),
    (RM, TM, 'commit_transaction', 't8'),
    (RM, TM, 'create_transaction', 'nested under t7'),
    (RM, OM, 'execute_operation', 'update Desk#1'),
    (RM, TM, 'abort_transaction', 't9'),
    (A, TM, 'abort_transaction', 't7'),
    (TM, RM, 'signal_event', 'transaction abort t7'),
]


@pytest.mark.parametrize("scenario, expected", [
    pytest.param(create_rule, CREATE_RULE, id="create_rule"),
    pytest.param(immediate_update, IMMEDIATE_UPDATE, id="immediate_update"),
    pytest.param(deferred_commit, DEFERRED_COMMIT, id="deferred_commit"),
    pytest.param(join_and_abort, JOIN_AND_ABORT, id="join_and_abort"),
])
def test_records_in_call_order(db, scenario, expected):
    trace = scenario(db)
    assert records(trace) == expected, "\n" + trace.format()


def test_workout_records_as_a_multiset(db):
    trace = workout(db)
    assert normalised(trace) == Counter(WORKOUT), "\n" + trace.format()


def test_stop_leaves_the_engine_as_constructed(db):
    assert bench_trace.is_untraced(db) == []
    db.tracer.start()
    assert bench_trace.is_untraced(db)
    with db.transaction() as txn:
        db.create("Stock", {"symbol": "X", "price": 1.0}, txn)
    db.tracer.stop()
    assert bench_trace.is_untraced(db) == []
    for path, attribute, *_ in tracing.ENTRIES:
        method = getattr(attrgetter(path)(db), attribute)
        assert method is None or hasattr(method, "__self__"), (path, attribute)


def test_one_entry_point_per_event_definition(db):
    """Defining an external event records one ``define_event`` with the
    spec as its detail, whoever defines it; the facade's define and signal
    cross the same entry points as an application's."""
    app = db.application("desk")
    db.tracer.start()
    app.events.define("ping", "level")
    db.define_event("pong")
    db.create_rule(Rule(name="on-pong", event=external("pong"),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: None)))
    db.signal_event("pong")
    trace = db.tracer.stop()
    assert [r for r in records(trace) if r[1] == ED] == [
        (A, ED, "define_event", "ExternalEventSpec(ping['level'])"),
        (A, ED, "define_event", "ExternalEventSpec(pong[])"),
        (RM, ED, "define_event", "ExternalEventSpec(pong[])"),
        (A, ED, "signal_event", "pong"),
    ]


def test_an_action_signal_is_a_rule_manager_edge(db):
    db.define_event("ping")
    db.define_event("pong")
    db.create_rule(Rule(
        name="relay", event=external("ping"), condition=Condition.true(),
        action=Action.of(SignalStep("pong"))))
    db.tracer.start()
    db.signal_event("ping")
    trace = db.tracer.stop()
    assert (RM, ED, "signal_event", "pong") in records(trace)
    assert trace.count(source=ED, target=RM, operation="signal_event") == 2
