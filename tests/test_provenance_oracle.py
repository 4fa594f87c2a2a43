"""An oracle for provenance envelopes, independent of how they are captured.

Every ``why()`` hop names the rule firing (or the application) behind a
write.  These tests recompute each cause field from records the capture
path never reads:

* the firing log, joined on the hop's writing transaction — a rule
  action writes in its own action transaction — for ``rule`` and
  ``firing_id``;
* the writes and signals the test itself performed, for ``event``,
  ``event_kind`` and the ``trigger_*`` fields;
* the flight journal read back from disk, for ``journal_seq``.

They pin the cases where building an envelope late could go wrong: a
seq inherited through a scope that never wrote, a firing on a worker
thread, and a scope left by an exception.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_update,
)
from repro.events.spec import ExternalEventSpec
from repro.obs.flightrec import read_journal
from repro.rules.coupling import IMMEDIATE, SEPARATE

FIELDS = ("rule", "firing_id", "event", "event_kind", "trigger_oid",
          "trigger_attrs", "trigger_op", "journal_seq")

APPLICATION = {"kind": "application", "user": "system", "journal_seq": None}


def _db(classes, **kwargs):
    kwargs.setdefault("lock_timeout", 2.0)
    db = HiPAC(**kwargs)
    for name in classes:
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    with db.transaction() as txn:
        oids = [db.create(name, {"v": 0}, txn) for name in classes]
    return db, oids


def _expected(db, hop, *, event, trigger=None, seq=None):
    """The cause fields of ``hop``, recomputed without its envelope.

    ``trigger`` is the database write that triggered the firing, as the
    test performed it — ``(oid, op, changed attrs)`` — or None for an
    external event; ``seq`` is the journal seq of the stimulus at the
    root of the cascade."""
    firings = [f for f in db.firing_log().all() if f.action_txn == hop.txn_id]
    assert len(firings) == 1, firings
    firing = firings[0]
    assert firing.event == event
    oid, op, attrs = trigger if trigger is not None else (None, None, ())
    return {"rule": firing.rule_name, "firing_id": firing.firing_id,
            "event": event,
            "event_kind": "database" if trigger is not None else "external",
            "trigger_oid": oid, "trigger_attrs": frozenset(attrs),
            "trigger_op": op, "journal_seq": seq}


def _cause(hop):
    return {name: getattr(hop.cause, name) for name in FIELDS}


def _writes(chain):
    return [(hop.oid, hop.attr, hop.new_value) for hop in chain.hops]


def test_seq_is_inherited_through_a_scope_that_never_wrote(tmp_path):
    """alarm (journalled) -> r1 writes D -> r2 on D writes nothing and
    signals relay (a cascade signal, not journalled) -> r3 on relay
    writes E.  r3's seq is the alarm's, reached through r2's scope."""
    db, (d, e) = _db(("D", "E"), durability="wal", data_dir=tmp_path,
                     flight_recorder=True)
    db.define_event("alarm", "level")
    db.define_event("relay", "n")
    db.create_rule(Rule(
        "r1", event=ExternalEventSpec("alarm", ("level",)),
        condition=Condition.true(),
        action=Action.call(lambda ctx: ctx.update(
            d, {"v": ctx.bindings["level"]}))))
    db.create_rule(Rule(
        "r2", event=on_update("D"), condition=Condition.true(),
        action=Action.call(lambda ctx: ctx.signal_external(
            "relay", {"n": ctx.bindings["new_v"]}, ctx.txn))))
    db.create_rule(Rule(
        "r3", event=ExternalEventSpec("relay", ("n",)),
        condition=Condition.true(),
        action=Action.call(lambda ctx: ctx.update(
            e, {"v": 10 * ctx.bindings["n"]}))))
    db.signal_event("alarm", {"level": 3})  # outside any transaction
    chain_d, chain_e = db.why(d, "v"), db.why(e, "v")
    fired = {f.rule_name: f for f in db.firing_log().all()}
    db.close()

    assert all(fired[name].executed for name in ("r1", "r2", "r3"))
    records = read_journal(tmp_path)[0]
    stimuli = {r["data"]["name"]: r["seq"] for r in records
               if r["type"] == "external"}
    assert set(stimuli) == {"alarm"}  # the relay is cascade work
    alarm = stimuli["alarm"]

    assert _writes(chain_d) == [(d, "v", 3)] and chain_d.complete
    assert _cause(chain_d.hops[0]) == _expected(
        db, chain_d.hops[0], event="external:alarm {'level': 3}", seq=alarm)
    assert _writes(chain_e) == [(e, "v", 30)] and chain_e.complete
    assert _cause(chain_e.hops[0]) == _expected(
        db, chain_e.hops[0], event="external:relay {'n': 3}", seq=alarm)
    assert chain_e.hops[0].cause.rule == "r3"


def test_separate_firing_on_a_worker_thread():
    db, (a, b) = _db(("A", "B"))
    threads = []

    def copy(ctx):
        threads.append(threading.current_thread())
        ctx.update(b, {"v": ctx.bindings["new_v"] + 1})

    db.create_rule(Rule("sep", event=on_update("A"),
                        condition=Condition.true(), action=Action.call(copy),
                        ec_coupling=SEPARATE, ca_coupling=IMMEDIATE))
    with db.transaction() as txn:
        db.update(a, {"v": 5}, txn)
    assert db.drain(10.0)
    chain = db.why(b, "v")
    db.close()

    assert threads and threads[0] is not threading.current_thread()
    assert _writes(chain) == [(b, "v", 6), (a, "v", 5)] and chain.complete
    hop, cause = chain.hops[0], chain.hops[1].cause
    assert _cause(hop) == _expected(
        db, hop, event="db:update %s" % a, trigger=(a, "update", {"v"}))
    assert cause.as_dict() == APPLICATION


def test_a_raising_action_leaves_its_scope():
    """An action raises after a write in its action transaction; the
    next write on the same thread is the application's own."""
    db, (a, b, c) = _db(("A", "B", "C"))

    def write_then_raise(ctx):
        ctx.update(b, {"v": 99})
        raise ValueError("boom")

    db.create_rule(Rule("boom", event=on_update("A"),
                        condition=Condition.true(),
                        action=Action.call(write_then_raise)))
    txn = db.begin()
    with pytest.raises(ValueError, match="boom"):
        db.update(a, {"v": 1}, txn)
    if not txn.is_finished():
        db.abort(txn)
    with db.transaction() as txn:
        db.update(c, {"v": 7}, txn)
    chain_b, chain_c = db.why(b, "v"), db.why(c, "v")
    db.close()

    assert _writes(chain_c) == [(c, "v", 7)] and chain_c.complete
    assert chain_c.hops[0].cause.as_dict() == APPLICATION
    # The aborted write never became provenance.
    assert _writes(chain_b) == [(b, "v", 0)]
    assert chain_b.hops[0].op == "create"
    assert chain_b.hops[0].cause.as_dict() == APPLICATION


@pytest.mark.parametrize("coupling", [SEPARATE, IMMEDIATE])
def test_newest_entry_is_the_stored_value_under_concurrent_writers(coupling):
    """Four threads update four source objects; a copy rule writes each
    source's value to its target, in the triggering transaction
    (immediate) or in a transaction of its own on a worker thread
    (separate).  Provenance entries are published in commit order, so
    after the writers and the copies finish, the newest entry of every
    object carries the value the store holds."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside commits too
    try:
        for seed in range(12):
            db, oids = _db(["S%d" % i for i in range(4)]
                           + ["T%d" % i for i in range(4)])
            sources, targets = oids[:4], oids[4:]
            target_of = dict(zip(sources, targets))
            errors = []

            def writer(index, rng):
                try:
                    for step in range(150):
                        with db.transaction() as txn:
                            db.update(rng.choice(sources),
                                      {"v": index * 1000 + step + 1}, txn)
                except Exception as exc:  # reported by the main thread
                    errors.append(exc)

            try:
                for name in ("S%d" % i for i in range(4)):
                    db.create_rule(Rule(
                        "copy_" + name, event=on_update(name),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: ctx.update(
                            target_of[ctx.bindings["oid"]],
                            {"v": ctx.bindings["new_v"]})),
                        ec_coupling=coupling, ca_coupling=IMMEDIATE))
                threads = [threading.Thread(
                    target=writer,
                    args=(index, random.Random(seed * 4 + index)))
                    for index in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert db.drain(30.0)
                assert all(db.store.get(oid).attrs["v"] for oid in targets)
                for oid in oids:
                    stored = db.store.get(oid).attrs["v"]
                    assert db.provenance.latest(oid, "v").new_value \
                        == stored, (seed, oid)
            finally:
                db.close()
    finally:
        sys.setswitchinterval(previous)
