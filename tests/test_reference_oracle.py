"""The engine against the reference interpreter (``tests/reference.py``).

Random rule sets over three classes ``L0`` -> ``L1`` -> ``L2``: a rule
watches ``v`` on one class, and its action updates an object of the next
class (so cascades reach depth 3) or raises.  Conditions are parameterised
or static queries, with or without a guard, or none; both couplings are
immediate or deferred.  After every top-level transaction the engine and
the interpreter must agree on the committed store and on the ordered list
of ``(rule, satisfied, rows handed to the action)``.

The engine's list is read from its firing log: condition transactions are
numbered in creation order, so sorting the evaluated firings by them gives
the order the conditions ran in; the rows are what each action recorded
under its own transaction id.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro import (Action, Attr, AttrType, AttributeDef, ClassDef, Compare,
                   Condition, EventArg, HiPAC, Query, Rule, on_update)
from tests.reference import Reference

CLASSES = ("L0", "L1", "L2")
OBJECTS = 3
VALUES = st.integers(0, 6)


def condition(kind, target, bound, guarded):
    """A parameterised query, a static one, or none; maybe guarded."""
    queries = {
        "param": (Query(target, Attr("v") > EventArg("new_v")),),
        "param_eq": (Query(target, Compare(Attr("v"), "==", EventArg("new_v"))),),
        "static": (Query(target, Attr("v") < bound),),
        "true": (),
    }[kind]
    guard = (lambda bindings, results: (bindings["new_v"] + len(results)) % 2 == 0
             ) if guarded else None
    return Condition(queries, guard=guard)


def body(level, mode, step, oids):
    """Update an object of the next class as a function of the bindings, or
    raise on some values; the last class's rules write nothing."""
    def run(ctx):
        new_v = ctx.bindings["new_v"]
        if mode == "raise" and new_v % 3 == 0:
            raise ValueError("action refuses %d" % new_v)
        if level + 1 < len(CLASSES):
            rows = sum(len(result) for result in ctx.results)
            ctx.update(oids[level + 1][(new_v + rows) % OBJECTS],
                       {"v": (new_v * step + rows) % 7})
    return run


RULES = st.lists(st.fixed_dictionaries({
    "level": st.integers(0, 2), "target": st.sampled_from(CLASSES),
    "kind": st.sampled_from(["param", "param_eq", "static", "true"]),
    "bound": VALUES, "guarded": st.booleans(),
    "ec": st.sampled_from(["immediate", "deferred"]),
    "ca": st.sampled_from(["immediate", "deferred"]),
    "priority": st.integers(0, 1), "mode": st.sampled_from(["update", "raise"]),
    "step": st.integers(1, 4)}), min_size=2, max_size=6)
TRANSACTIONS = st.lists(st.lists(st.tuples(
    st.integers(0, 1), st.integers(0, OBJECTS - 1), VALUES),
    min_size=1, max_size=3), min_size=1, max_size=5)


def build(specs):
    """An engine with the classes, their objects and ``specs``' rules; the
    same rules without the engine's recording, for the interpreter; and the
    rows each engine action was handed, by action transaction id."""
    db = HiPAC(lock_timeout=2.0)
    for name in CLASSES:
        db.define_class(ClassDef(name, (AttributeDef("v", AttrType.INT, default=0),)))
    with db.transaction() as txn:
        oids = [[db.create(name, {"v": k}, txn) for k in range(OBJECTS)]
                for name in CLASSES]
    handed = {}
    rules = []
    for index, spec in enumerate(specs):
        run = body(spec["level"], spec["mode"], spec["step"], oids)

        def recorded(ctx, run=run):
            handed[ctx.txn.txn_id] = [[(row.oid, row.attrs["v"]) for row in result]
                                      for result in ctx.results]
            run(ctx)
        rule = Rule(
            "r%d" % index, event=on_update(CLASSES[spec["level"]], attrs=["v"]),
            condition=condition(spec["kind"], spec["target"], spec["bound"],
                                spec["guarded"]),
            action=Action.call(run), ec_coupling=spec["ec"],
            ca_coupling=spec["ca"], priority=spec["priority"])
        rules.append(rule)
        db.create_rule(replace(rule, action=Action.call(recorded)))
    return db, oids, rules, handed


def engine_log(db, handed):
    """``[rule, satisfied, rows]`` per evaluated condition, in the order
    the conditions ran."""
    evaluated = [firing for firing in db.firing_log().all()
                 if firing.condition_txn is not None]
    evaluated.sort(key=lambda firing: int(firing.condition_txn[1:]))
    return [[firing.rule_name, firing.satisfied, handed.get(firing.action_txn)]
            for firing in evaluated]


def store_of(db):
    return {record.oid: dict(record.attrs)
            for name in CLASSES for record in db.store.extent(name)}


@settings(max_examples=150, deadline=None)
@given(specs=RULES, transactions=TRANSACTIONS)
def test_the_engine_fires_what_the_reference_fires(specs, transactions):
    db, oids, rules, handed = build(specs)
    try:
        reference = Reference(store_of(db), rules)
        for updates in transactions:
            writes = [(oids[level][k], {"v": value}) for level, k, value in updates]
            committed = reference.run(writes)
            try:
                with db.transaction() as txn:
                    for oid, changes in writes:
                        db.update(oid, changes, txn)
            except Exception:
                assert not committed
            else:
                assert committed
            assert store_of(db) == reference.store
            assert engine_log(db, handed) == reference.log
    finally:
        db.close()
