"""repro — a reproduction of the HiPAC active DBMS architecture.

McCarthy & Dayal, "The Architecture of an Active Data Base Management
System", SIGMOD 1989.

Quickstart::

    from repro import (HiPAC, Rule, Action, Condition, Query, Attr,
                       ClassDef, attributes, on_update, SEPARATE)

    db = HiPAC()
    db.define_class(ClassDef("Stock", attributes("symbol", "price")))

    rule = Rule(
        name="alert-high-price",
        event=on_update("Stock", attrs=["price"]),
        condition=Condition.of(Query("Stock", Attr("price") > 100.0)),
        action=Action.call(lambda ctx: print("high:", ctx.results[0].oids())),
        ec_coupling=SEPARATE, ca_coupling="immediate",
    )
    db.create_rule(rule)

    with db.transaction() as txn:
        oid = db.create("Stock", {"symbol": "XRX", "price": 50.0}, txn)
        db.update(oid, {"price": 120.0}, txn)
    db.drain()
"""

from repro.clock import Clock, SystemClock, VirtualClock
from repro.core.hipac import HiPAC
from repro.conditions import Condition, ConditionOutcome
from repro.errors import (
    AccessDenied,
    ApplicationError,
    CascadeLimitExceeded,
    ConditionError,
    DeadlockError,
    EventError,
    HiPACError,
    IntegrityViolation,
    LockTimeout,
    QueryError,
    RuleError,
    SchemaError,
    TransactionAborted,
    TransactionError,
    UnknownObjectError,
    UnreadableLogError,
)
from repro.events import (
    Conjunction,
    DatabaseEventSpec,
    Disjunction,
    EventSignal,
    EventSpec,
    ExternalEventSpec,
    Sequence,
    TemporalEventSpec,
    after,
    at_time,
    every,
    external,
    on_abort,
    on_commit,
    on_create,
    on_delete,
    on_query,
    on_read,
    on_update,
)
from repro.objstore import (
    OID,
    OID_ATTR,
    JoinQuery,
    JoinResult,
    JoinRow,
    TRUE,
    And,
    Attr,
    AttrType,
    AttributeDef,
    ClassDef,
    Compare,
    Const,
    CreateObject,
    DefineClass,
    DeleteObject,
    DropClass,
    EventArg,
    Not,
    Or,
    Query,
    QueryResult,
    UpdateObject,
    attributes,
)
from repro.rules import (
    DEFERRED,
    IMMEDIATE,
    SEPARATE,
    AbortStep,
    Action,
    ActionContext,
    CallStep,
    DatabaseStep,
    RequestStep,
    Rule,
    SignalStep,
)

__version__ = "1.0.0"

__all__ = [
    "HiPAC",
    "VirtualClock",
    "SystemClock",
    "Clock",
    "ClassDef",
    "AttributeDef",
    "AttrType",
    "attributes",
    "OID",
    "Query",
    "QueryResult",
    "JoinQuery",
    "JoinResult",
    "JoinRow",
    "OID_ATTR",
    "Attr",
    "EventArg",
    "Const",
    "Compare",
    "And",
    "Or",
    "Not",
    "TRUE",
    "DefineClass",
    "DropClass",
    "CreateObject",
    "UpdateObject",
    "DeleteObject",
    "EventSpec",
    "EventSignal",
    "DatabaseEventSpec",
    "TemporalEventSpec",
    "ExternalEventSpec",
    "Disjunction",
    "Sequence",
    "Conjunction",
    "on_create",
    "on_update",
    "on_delete",
    "on_commit",
    "on_abort",
    "on_read",
    "on_query",
    "at_time",
    "after",
    "every",
    "external",
    "Rule",
    "Condition",
    "ConditionOutcome",
    "Action",
    "ActionContext",
    "DatabaseStep",
    "RequestStep",
    "SignalStep",
    "CallStep",
    "AbortStep",
    "IMMEDIATE",
    "DEFERRED",
    "SEPARATE",
    "HiPACError",
    "SchemaError",
    "UnknownObjectError",
    "UnreadableLogError",
    "QueryError",
    "TransactionError",
    "TransactionAborted",
    "DeadlockError",
    "LockTimeout",
    "EventError",
    "RuleError",
    "CascadeLimitExceeded",
    "ConditionError",
    "ApplicationError",
    "IntegrityViolation",
    "AccessDenied",
]
