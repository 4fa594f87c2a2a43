"""Concurrency tests: serializability of concurrent application
transactions and separate-coupling rule firings under strict 2PL."""

import sys
import threading

import pytest

from repro import (
    Action,
    Attr,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    TransactionAborted,
    on_update,
)
from repro.txn.locks import LockMode, LockResource


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=10.0)
    database.define_class(ClassDef("Counter", (
        AttributeDef("name", AttrType.STRING, required=True),
        AttributeDef("value", AttrType.INT, default=0),
    )))
    return database


class TestSerializableCounters:
    def test_concurrent_increments_serialize(self, db):
        with db.transaction() as txn:
            oid = db.create("Counter", {"name": "c", "value": 0}, txn)

        def bump(times):
            for _ in range(times):
                while True:
                    txn = db.begin()
                    try:
                        value = db.read(oid, txn)["value"]
                        db.update(oid, {"value": value + 1}, txn)
                        db.commit(txn)
                        break
                    except TransactionAborted:
                        if not txn.is_finished():
                            db.abort(txn)

        threads = [threading.Thread(target=bump, args=(25,), daemon=True)
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        with db.transaction() as txn:
            assert db.read(oid, txn)["value"] == 100

    def test_concurrent_writers_distinct_objects_no_interference(self, db):
        oids = []
        with db.transaction() as txn:
            for i in range(4):
                oids.append(db.create("Counter", {"name": "c%d" % i}, txn))

        def work(i):
            for n in range(20):
                with db.transaction() as txn:
                    db.update(oids[i], {"value": n + 1}, txn)

        threads = [threading.Thread(target=work, args=(i,), daemon=True)
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        with db.transaction() as txn:
            for oid in oids:
                assert db.read(oid, txn)["value"] == 20


class TestSeparateFiringConcurrency:
    def test_separate_firing_serializes_with_trigger(self, db):
        """A separate-coupling rule reading the class extent blocks until
        the triggering transaction releases its write locks; it must then
        observe the committed value (no dirty read)."""
        observed = []
        db.create_rule(Rule(
            name="watch",
            event=on_update("Counter", attrs=["value"]),
            condition=Condition.of(Query("Counter", Attr("value") >= 0)),
            action=Action.call(
                lambda ctx: observed.append(ctx.results[0].values("value"))),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            oid = db.create("Counter", {"name": "c", "value": 0}, txn)
        txn = db.begin()
        db.update(oid, {"value": 1}, txn)
        db.update(oid, {"value": 2}, txn)
        db.commit(txn)
        assert db.drain(timeout=30.0)
        # Two firings; each read state after the trigger finished.
        assert observed == [[2], [2]]
        assert db.rule_manager.background_errors == []

    def test_separate_firing_after_abort_sees_old_state(self, db):
        observed = []
        db.create_rule(Rule(
            name="watch",
            event=on_update("Counter", attrs=["value"]),
            condition=Condition.of(Query("Counter", Attr("value") >= 0)),
            action=Action.call(
                lambda ctx: observed.append(ctx.results[0].values("value"))),
            ec_coupling="separate",
        ))
        with db.transaction() as txn:
            oid = db.create("Counter", {"name": "c", "value": 7}, txn)
        txn = db.begin()
        db.update(oid, {"value": 99}, txn)
        db.abort(txn)
        assert db.drain(timeout=30.0)
        # The firing was launched (causally independent) but the query ran
        # against post-abort state: value is back to 7.
        assert observed == [[7]]

    def test_many_concurrent_separate_firings_complete(self, db):
        total = []
        lock = threading.Lock()
        db.create_rule(Rule(
            name="tally",
            event=on_update("Counter", attrs=["value"]),
            condition=Condition.true(),
            action=Action.call(
                lambda ctx: (lock.acquire(), total.append(1), lock.release())),
            ec_coupling="separate",
            ca_coupling="immediate",
        ))
        with db.transaction() as txn:
            oid = db.create("Counter", {"name": "c"}, txn)
        for i in range(30):
            with db.transaction() as txn:
                db.update(oid, {"value": i + 1}, txn)
        assert db.drain(timeout=60.0)
        assert len(total) == 30
        assert db.rule_manager.background_errors == []


class TestBookkeepingUnderThreads:
    def test_counts_and_live_set_stay_exact_without_a_manager_mutex(self, db):
        """The Transaction Manager keeps its live set and counters, and the
        Lock Manager its grant count (own-covered re-grants bypass the table
        mutex), exact under threads: 8 threads x 500 top-level transactions
        with nested children, one in ten aborted."""
        tm, locks = db.transaction_manager, db.locks
        before = {"txn": dict(tm.stats), "acquired": locks.stats["acquired"]}
        shared = LockResource.for_class("Counter")
        granted = [0] * 8
        failures = []

        def work(worker):
            try:
                for n in range(500):
                    top = tm.create_transaction()
                    child = tm.create_transaction(parent=top)
                    grandchild = tm.create_transaction(parent=child)
                    mine = LockResource("object", "Counter", worker + 1)
                    for txn, resource, mode in (
                            (top, shared, LockMode.IS),
                            (child, shared, LockMode.IX),
                            (child, mine, LockMode.X),
                            (child, mine, LockMode.S),       # own re-grant
                            (grandchild, mine, LockMode.S),  # under ancestor
                            (grandchild, shared, LockMode.IS),
                            (grandchild, shared, LockMode.IS)):
                        locks.acquire(txn, resource, mode)
                        granted[worker] += 1
                    tm.commit_transaction(grandchild)
                    if n % 10 == 0:
                        tm.abort_transaction(top)   # takes the child along
                    else:
                        tm.commit_transaction(child)
                        tm.commit_transaction(top)
            except BaseException as exc:    # surfaced by the assert below
                failures.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True)
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and failures == []
        moved = {key: tm.stats[key] - before["txn"][key] for key in tm.stats}
        assert moved["created"] == 8 * 500 * 3
        assert moved["created"] == moved["committed"] + moved["aborted"]
        assert moved["aborted"] == 8 * 50 * 2
        assert moved["top_level_committed"] == 8 * 450
        assert tm.live_transactions() == []
        assert locks.resource_count() == 0
        assert locks.stats["acquired"] - before["acquired"] == sum(granted)
