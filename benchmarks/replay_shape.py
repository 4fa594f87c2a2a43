"""A recorded stimulus stream for differential replay across two source trees.

The stream exercises every way event detection decides who is watching:
a superclass and its subclasses (one defined partway through), update
rules with and without ``include_subclasses``, attribute-scoped and
unscoped update rules, create and delete rules, a deferred rule run at
commit, a ``Sequence`` composite, and aborted transactions.  Partway
through, one rule is disabled and enabled again, one is deleted, and a new
subclass is defined (after a first, aborted definition of the same class
outside the hierarchy).  Every firing writes an ``Audit`` row, so a firing
that one engine makes and another does not also shows in the store.

Only the public ``repro`` API is used, so this file records and replays
under any source tree that has it::

    PYTHONPATH=src:. python -c "from benchmarks.replay_shape import record; record('/tmp/shape', 11)"
    PYTHONPATH=src:. python -m repro.tools.replay /tmp/shape --diff \\
        --rules benchmarks.replay_shape:setup

``benchmarks/pairs.py --replay`` records under one tree's ``src/`` and
replays under the other's, in both directions.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro import (DEFERRED, Action, AttributeDef, AttrType, ClassDef,
                   Condition, HiPAC, Rule, Sequence, on_create, on_delete,
                   on_update)

#: transactions in one recording
TRANSACTIONS = 160


def _audit(name: str) -> Action:
    """The action of rule ``name``: one Audit row naming the rule and the
    object its event was about."""
    def write(ctx: Any) -> None:
        signal = ctx.signal
        oid = signal.oid if signal.oid is not None else (
            signal.constituents[-1].oid if signal.constituents else None)
        ctx.create("Audit", {"rule": name,
                             "subject": oid.number if oid else -1,
                             "value": (signal.new_attrs or {}).get("price")})
    return Action.call(write, "audit")


def setup(db: Any) -> Dict[str, Rule]:
    """The rule library: the recording creates these by name, and replay
    (``--rules benchmarks.replay_shape:setup``) binds them again."""
    rules = [
        Rule(name="sec-update", event=on_update("Sec"),
             action=_audit("sec-update")),
        Rule(name="sec-own-update",
             event=on_update("Sec", include_subclasses=False),
             action=_audit("sec-own-update")),
        Rule(name="stock-price", event=on_update("Stock", attrs=["price"]),
             action=_audit("stock-price"), priority=2),
        Rule(name="sec-volume", event=on_update("Sec", attrs=["volume"]),
             action=_audit("sec-volume")),
        Rule(name="sec-create", event=on_create("Sec"),
             action=_audit("sec-create")),
        Rule(name="stock-delete",
             event=on_delete("Stock", include_subclasses=False),
             action=_audit("stock-delete")),
        Rule(name="price-at-commit", event=on_update("Sec", attrs=["price"]),
             condition=Condition(
                 guard=lambda bindings, results: bindings["new_price"] > 100),
             action=_audit("price-at-commit"), ec_coupling=DEFERRED),
        Rule(name="created-then-deleted",
             event=Sequence(on_create("Stock"), on_delete("Stock")),
             action=_audit("created-then-deleted")),
    ]
    return {rule.name: rule for rule in rules}


def _sec_class(name: str, superclass: Any, *attrs: str) -> ClassDef:
    if superclass is None:
        defs = (AttributeDef("symbol", AttrType.STRING, default=""),
                AttributeDef("price", AttrType.NUMBER, default=0.0),
                AttributeDef("volume", AttrType.NUMBER, default=0.0))
    else:
        defs = tuple(AttributeDef(attr, AttrType.NUMBER, default=0.0)
                     for attr in attrs)
    return ClassDef(name, defs, superclass=superclass)


def record(data_dir: Any, seed: int) -> int:
    """Run the stream at ``seed`` with the WAL and the flight recorder on,
    into ``data_dir``; return the number of firings."""
    rng = random.Random(seed)
    db = HiPAC(durability="wal", data_dir=data_dir, wal_fsync=False,
               flight_recorder=True, lock_timeout=10.0)
    try:
        db.define_class(_sec_class("Sec", None))
        db.define_class(_sec_class("Stock", "Sec", "sector"))
        db.define_class(ClassDef("Audit", (
            AttributeDef("rule", AttrType.STRING, default=""),
            AttributeDef("subject", AttrType.INT, default=-1),
            AttributeDef("value", AttrType.ANY))))
        for rule in setup(db).values():
            db.create_rule(rule)
        classes = ["Sec", "Stock"]
        live: List[Any] = []
        for step in range(TRANSACTIONS):
            if step == TRANSACTIONS // 4:
                db.disable_rule("sec-volume")
            elif step == TRANSACTIONS // 3:
                db.enable_rule("sec-volume")
            elif step == TRANSACTIONS // 2:
                db.delete_rule("sec-own-update")
                _define_bond(db)
                classes.append("Bond")
            _transaction(db, rng, classes, live)
        return len(db.firing_log().all())
    finally:
        db.close()


def _define_bond(db: Any) -> None:
    """Define Bond under Sec, after a first definition outside the
    hierarchy was used and aborted: what was worked out for Bond then
    must not outlive the schema it was worked out for."""
    txn = db.begin()
    db.define_class(ClassDef("Bond", (
        AttributeDef("price", AttrType.NUMBER, default=0.0),)), txn)
    oid = db.create("Bond", {"price": 99.0}, txn)
    db.update(oid, {"price": 101.0}, txn)
    db.abort(txn)
    db.define_class(_sec_class("Bond", "Sec", "coupon"))


def _transaction(db: Any, rng: random.Random, classes: List[str],
                 live: List[Any]) -> None:
    """One to four operations; one transaction in eight aborts."""
    txn = db.begin()
    created: List[Any] = []
    deleted: List[Any] = []
    for _ in range(rng.randint(1, 4)):
        candidates = [oid for oid in live + created if oid not in deleted]
        roll = rng.random()
        if roll < 0.3 or not candidates:
            created.append(db.create(rng.choice(classes), {
                "symbol": "S%d" % rng.randrange(100),
                "price": round(rng.uniform(80.0, 120.0), 2)}, txn))
        elif roll < 0.85:
            changes = {attr: round(rng.uniform(80.0, 120.0), 2)
                       for attr in rng.sample(["price", "volume", "symbol"],
                                              rng.randint(1, 2))}
            if "symbol" in changes:
                changes["symbol"] = "S%d" % rng.randrange(100)
            db.update(rng.choice(candidates), changes, txn)
        else:
            victim = rng.choice(candidates)
            db.delete(victim, txn)
            deleted.append(victim)
    if rng.random() < 0.125:
        db.abort(txn)
        return
    db.commit(txn)
    live[:] = [oid for oid in live + created if oid not in deleted]
