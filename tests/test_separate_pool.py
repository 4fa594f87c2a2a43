"""Separate-coupling firings on the Rule Manager's reusable workers (§6.2).

One dispatch path: every piece of separate work is queued on the
manager's :class:`~repro.scheduler.DeadlineExecutor`, whose workers start
on demand up to a bound, are reused, take the most urgent firing first
and leave when idle.  These tests pin what that changes: thread identity
and lifetime, ``drain()``, what a bounded pool may block on, thread-local
state on a reused worker, deadlines without configuration, and
``HiPAC.close()``.
"""

import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Query,
    Rule,
    attributes,
    on_update,
)
from repro.rules import manager as rule_manager
from repro.scheduler import timecon

WAIT = 10.0     # bound on every wait in this file; none is expected to hit it


def build(monkeypatch, workers=None, **options):
    """A HiPAC with one ``Counter`` object; ``workers`` patches the bound."""
    if workers is not None:
        monkeypatch.setattr(rule_manager, "SEPARATE_WORKERS", workers)
    db = HiPAC(lock_timeout=5.0, **options)
    db.define_class(ClassDef("Counter", attributes("name", ("value", "number"))))
    with db.transaction() as txn:
        oid = db.create("Counter", {"name": "c", "value": 0}, txn)
    return db, oid


def separate_rule(db, name, action, **kwargs):
    db.create_rule(Rule(
        name=name, event=on_update("Counter", attrs=["value"]),
        condition=Condition.true(), action=Action.call(action),
        ec_coupling="separate", **kwargs))


def bump(db, oid, value=1):
    with db.transaction() as txn:
        db.update(oid, {"value": value}, txn)


def pool_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("hipac-sep")]


def assert_no_pool_thread_left():
    for thread in pool_threads():
        thread.join(WAIT)
    assert pool_threads() == []


class TestWorkers:
    def test_firings_share_a_bounded_set_of_named_threads(self, monkeypatch):
        monkeypatch.setattr(timecon, "IDLE_SECONDS", 0.05)
        db, oid = build(monkeypatch)
        seen = []       # (thread, its name) as the firing saw them
        separate_rule(db, "r", lambda ctx: seen.append(
            (threading.current_thread(), threading.current_thread().name)))
        for i in range(200):
            bump(db, oid, i + 1)
        assert db.drain(WAIT)
        assert len(seen) == 200
        assert {name for _, name in seen} == {"hipac-sep-r"}
        # Thread objects, not idents: the OS reuses idents of dead threads.
        assert len({thread for thread, _ in seen}) <= rule_manager.SEPARATE_WORKERS
        assert db.rule_manager.background_errors == []
        # Idle workers leave by themselves.
        assert_no_pool_thread_left()
        bump(db, oid, 0)        # and come back when there is work again
        assert db.drain(WAIT)
        assert len(seen) == 201

    def test_more_blocked_firings_than_workers(self, monkeypatch):
        """A bounded pool may wait for database locks held *outside* it:
        five firings read the object their still-open triggering
        transaction holds X on, with two workers."""
        db, oid = build(monkeypatch, workers=2)
        read = []
        separate_rule(db, "reader",
                      lambda ctx: read.append(ctx.read(oid)["value"]))
        txn = db.begin()
        for value in range(1, 6):
            db.update(oid, {"value": value}, txn)
        assert not db.drain(0.2)
        assert read == []
        db.commit(txn)
        assert db.drain(WAIT)
        assert read == [5] * 5
        assert db.stats()["locks"]["timeouts"] == 0
        assert db.rule_manager.background_errors == []
        db.close()

    @pytest.mark.filterwarnings(     # the worker it ends is meant to end
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_base_exception_costs_no_worker(self, monkeypatch):
        db, oid = build(monkeypatch, workers=1)
        ran, threads = [], []

        def action(ctx):
            ran.append(ctx.bindings["new_value"])
            threads.append(threading.current_thread())
            if ctx.bindings["new_value"] == 1:
                raise SystemExit(3)

        separate_rule(db, "r", action)
        bump(db, oid, 1)
        assert db.drain(WAIT)           # the outstanding count came back
        firing = db.firing_log().for_rule("r")[-1]
        assert firing.error == "3" and not firing.executed
        threads[0].join(WAIT)           # the exception ended that thread
        assert not threads[0].is_alive()
        bump(db, oid, 2)                # and its slot went to a new one
        assert db.drain(WAIT)
        assert ran == [1, 2] and threads[1] is not threads[0]
        db.close()


class TestDrain:
    def test_false_while_blocked_or_queued_then_true(self, monkeypatch):
        db, oid = build(monkeypatch, workers=1)
        gate, running, ran = threading.Event(), threading.Event(), []

        def action(ctx):
            running.set()
            assert gate.wait(WAIT)
            ran.append(ctx.bindings["new_value"])

        separate_rule(db, "r", action)
        for value in (1, 2, 3):
            bump(db, oid, value)
        assert running.wait(WAIT)
        # One firing is blocked on the gate, two are queued behind it.
        assert not db.drain(0.1)
        assert ran == []
        gate.set()
        assert db.drain(WAIT)
        assert ran == [1, 2, 3]
        assert db.rule_manager.stats["separate_spawned"] == 3
        assert db.rule_manager.background_errors == []
        db.close()


class TestReusedWorker:
    def test_thread_local_state_is_clean_after_failed_firings(self, monkeypatch,
                                                              tmp_path):
        """One worker runs a firing whose action raises, one cut by the
        cascade limit, then a probe: nothing of the first two is left on
        the thread."""
        monkeypatch.setattr(rule_manager, "MAX_CASCADE_DEPTH", 4)
        db, oid = build(monkeypatch, workers=1, observability="trace",
                        flight_recorder=True, provenance=True,
                        data_dir=tmp_path)
        db.define_class(ClassDef("Loop", attributes(("n", "number"))))
        with db.transaction() as txn:
            loop = db.create("Loop", {"n": 0}, txn)
        # An immediate rule that re-triggers itself without end.
        db.create_rule(Rule(
            name="again", event=on_update("Loop"), condition=Condition.true(),
            action=Action.call(lambda ctx: ctx.update(
                loop, {"n": ctx.bindings["new_n"] + 1}))))
        threads = []

        def action(ctx):
            threads.append(threading.current_thread())
            if ctx.bindings["new_value"] == 1:
                raise ValueError("boom")
            ctx.update(loop, {"n": 1})

        separate_rule(db, "r", action)
        bump(db, oid, 1)
        bump(db, oid, 2)
        assert db.drain(WAIT)
        errors = dict(db.rule_manager.background_errors)
        assert set(errors) == {"r"} and len(db.rule_manager.background_errors) == 2
        assert db.rule_manager.stats["cascades_cut"] == 1

        probe = {}

        def look():
            manager = db.rule_manager
            probe.update(
                thread=threading.current_thread(),
                name=threading.current_thread().name,
                depth=getattr(manager._depth, "value", 0),
                running=list(manager.running.stack),
                suppressed=db.flight_recorder.suppressed_here,
                cause=db.provenance.current_cause())

        db.rule_manager.executor.submit(0.0, look)
        assert db.drain(WAIT)
        assert probe["thread"] is threads[0] is threads[1]
        assert probe["name"] == "hipac-sep"
        assert probe["depth"] == 0
        assert probe["running"] == []
        assert probe["suppressed"] is False
        assert probe["cause"] is None
        db.close()


class TestDeadlinesByDefault:
    def test_urgent_first_without_a_configured_executor(self, monkeypatch):
        db, oid = build(monkeypatch, workers=1)
        gate, order = threading.Event(), []
        # Occupy the one worker so that the three firings queue.
        db.rule_manager.executor.submit(0.0, lambda: gate.wait(WAIT))
        # Alphabetical firing order would run them a, b, c.
        separate_rule(db, "a-relaxed", lambda ctx: order.append("relaxed"),
                      deadline=100.0)
        separate_rule(db, "b-none", lambda ctx: order.append("none"))
        separate_rule(db, "c-urgent", lambda ctx: order.append("urgent"),
                      deadline=1.0)
        bump(db, oid)
        assert not db.drain(0.1)
        gate.set()
        assert db.drain(WAIT)
        assert order == ["urgent", "relaxed", "none"]
        db.close()


class TestClose:
    def test_close_waits_for_a_firing_in_flight(self, monkeypatch, tmp_path):
        """``close()`` returns only after separate work has committed: the
        write of a firing that was blocked when ``close()`` began is in the
        WAL a new instance recovers from."""
        db, oid = build(monkeypatch, durability="wal", data_dir=tmp_path)
        gate, running = threading.Event(), threading.Event()

        def action(ctx):
            running.set()
            assert gate.wait(WAIT)
            ctx.create("Counter", {"name": "written-by-firing", "value": 7})

        separate_rule(db, "r", action)
        bump(db, oid)
        assert running.wait(WAIT)
        closer = threading.Thread(target=db.close)
        closer.start()
        closer.join(0.2)
        assert closer.is_alive()        # close() is waiting for the firing
        gate.set()
        closer.join(WAIT)
        assert not closer.is_alive()
        assert db.rule_manager.background_errors == []
        assert db.firing_log().for_rule("r")[-1].executed
        assert_no_pool_thread_left()
        with pytest.raises(RuntimeError):
            db.rule_manager.executor.submit(0.0, lambda: None)

        reopened = HiPAC(lock_timeout=5.0, durability="wal", data_dir=tmp_path)
        try:
            with reopened.transaction() as txn:
                names = reopened.query(Query("Counter"), txn).values("name")
            assert "written-by-firing" in names
        finally:
            reopened.close()
