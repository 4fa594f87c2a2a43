"""Unit tests for smaller pieces: tracer internals, firing log, index set,
manual fire couplings, SAA program units, workload helpers."""

import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
)
from repro.core.tracing import Trace, TraceRecord, Tracer
from repro.rules.firing import FiringLog, RuleFiring


class TestTracer:
    def test_records_only_when_enabled(self):
        tracer = Tracer()
        tracer.record("A", "B", "op")
        assert tracer.snapshot().records == []
        tracer.start()
        tracer.record("A", "B", "op")
        assert len(tracer.stop().records) == 1

    def test_stop_clears(self):
        tracer = Tracer()
        tracer.start()
        tracer.record("A", "B", "op")
        tracer.stop()
        tracer.start()
        assert tracer.snapshot().records == []
        tracer.stop()

    def test_sequence_numbers_monotone(self):
        tracer = Tracer()
        tracer.start()
        for i in range(5):
            tracer.record("A", "B", "op%d" % i)
        trace = tracer.stop()
        assert [r.seq for r in trace.records] == [1, 2, 3, 4, 5]

    def test_thread_safety(self):
        tracer = Tracer()
        tracer.start()

        def worker():
            for _ in range(200):
                tracer.record("A", "B", "op")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        trace = tracer.stop()
        assert len(trace.records) == 800
        assert len({r.seq for r in trace.records}) == 800

    def test_detail_is_built_only_when_enabled(self):
        class Loud:
            def __str__(self):
                raise AssertionError("formatted while tracing is off")

        def describe():
            raise AssertionError("called while tracing is off")

        tracer = Tracer()
        tracer.record("A", "B", "op", "nested under %s", Loud())
        tracer.record("A", "B", "op", describe)
        tracer.start()
        tracer.record("A", "B", "op", "%s coupling=%s", "r1", "immediate")
        tracer.record("A", "B", "op", lambda: "described")
        tracer.record("A", "B", "op", "plain")
        assert [r.detail for r in tracer.stop().records] == [
            "r1 coupling=immediate", "described", "plain"]

    def test_disabled_tracer_costs_an_saa_quote_no_detail_strings(
            self, monkeypatch):
        """With the tracer off the managers build no trace detail: one SAA
        quote (an update, its firings and their subtransactions) never describes
        its operation and never renders an OID for a trace record."""
        import sys

        from repro.objstore import operations
        from repro.objstore.objects import OID
        from repro.saa import SecuritiesAssistant

        db = HiPAC()
        saa = SecuritiesAssistant(db, coupling="immediate")
        ticker = saa.add_ticker("NYSE")
        saa.add_display("analyst")
        saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="c", symbol="XRX", shares=10, limit=50.0,
                             service="TRDSVC", one_shot=False)
        ticker.push_quote("XRX", 60.0)      # creates the stock

        calls = []
        for cls in (operations.CreateObject, operations.UpdateObject,
                    operations.DeleteObject):
            monkeypatch.setattr(
                cls, "describe", lambda self: calls.append("describe") or "")
        render = OID.__str__

        def counted(self):
            caller = sys._getframe(1).f_code.co_filename
            if caller.endswith(("manager.py", "tracing.py")):
                calls.append("str(oid) in " + caller)
            return render(self)

        monkeypatch.setattr(OID, "__str__", counted)
        fired = len(db.firing_log())
        ticker.push_quote("XRX", 61.0)
        assert len(db.firing_log()) >= fired + 2
        assert calls == []
        db.tracer.start()
        ticker.push_quote("XRX", 62.0)
        db.tracer.stop()
        assert "describe" in calls
        assert any(call.startswith("str(oid)") for call in calls)

    def test_trace_helpers(self):
        trace = Trace([
            TraceRecord(1, "A", "B", "x"),
            TraceRecord(2, "B", "C", "y"),
            TraceRecord(3, "A", "B", "x"),
        ])
        assert trace.count(source="A") == 2
        assert trace.count(operation="y") == 1
        assert trace.edge_set() == {("A", "B"), ("B", "C")}
        assert trace.operations() == ["x", "y", "x"]
        assert trace.subsequence([("A", "B", "x"), ("B", "C", "y")])
        assert not trace.subsequence([("B", "C", "y"), ("B", "C", "y")])


class TestFiringLog:
    def test_capacity_bounded(self):
        log = FiringLog(capacity=3)
        for i in range(5):
            log.append(RuleFiring("r%d" % i, "e", "immediate", "immediate"))
        assert len(log) == 3
        assert log.all()[0].rule_name == "r2"

    def test_counters(self):
        log = FiringLog()
        log.append(RuleFiring("a", "e", "immediate", "immediate",
                              satisfied=True, executed=True))
        log.append(RuleFiring("b", "e", "immediate", "immediate",
                              satisfied=False))
        assert log.satisfied_count() == 1
        assert log.executed_count() == 1

    def test_clear(self):
        log = FiringLog()
        log.append(RuleFiring("a", "e", "immediate", "immediate"))
        log.clear()
        assert len(log) == 0


class TestManualFireCouplings:
    @pytest.fixture
    def db(self):
        database = HiPAC(lock_timeout=2.0)
        database.define_class(ClassDef("Doc", attributes("title")))
        return database

    def test_fire_deferred_rule_defers_to_commit(self, db):
        ran = []
        db.create_rule(Rule(
            name="r", event=on_create("Doc"), condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
            ec_coupling="deferred"))
        txn = db.begin()
        db.fire_rule("r", txn)
        assert ran == []
        db.commit(txn)
        assert ran == [1]

    def test_fire_separate_rule_runs_async(self, db):
        ran = []
        db.create_rule(Rule(
            name="r", event=on_create("Doc"), condition=Condition.true(),
            action=Action.call(lambda ctx: ran.append(1)),
            ec_coupling="separate"))
        with db.transaction() as txn:
            db.fire_rule("r", txn)
        db.drain()
        assert ran == [1]


class TestIndexSet:
    def test_len_and_keys(self):
        from repro.objstore.index import HashIndex
        from repro.objstore.objects import OID
        index = HashIndex("C", "a")
        index.insert("x", OID("C", 1))
        index.insert("x", OID("C", 2))
        index.insert("y", OID("C", 3))
        assert len(index) == 3
        assert set(index.keys()) == {"x", "y"}
        index.remove("x", OID("C", 1))
        assert index.lookup("x") == {OID("C", 2)}
        index.remove("zzz", OID("C", 9))  # absent bucket: no-op

    def test_unhashable_values_frozen(self):
        from repro.objstore.index import HashIndex
        from repro.objstore.objects import OID
        index = HashIndex("C", "tags")
        index.insert(["a", "b"], OID("C", 1))
        assert index.lookup(["a", "b"]) == {OID("C", 1)}


class TestSAAUnits:
    def test_trader_slippage(self):
        from repro.saa import SecuritiesAssistant
        from repro.saa.programs import Trader
        db = HiPAC(lock_timeout=2.0)
        saa = SecuritiesAssistant(db, coupling="immediate")
        app = db.application("trader:SLIP")
        trader = Trader(app, "SLIP", fill_price_slippage=0.05)
        saa.traders["SLIP"] = trader
        reply = trader.execute_trade(symbol="X", shares=10, client="c",
                                     limit_price=50.0)
        assert reply["price"] == 50.05

    def test_display_thread_safety(self):
        from repro.saa import SecuritiesAssistant
        db = HiPAC(lock_timeout=2.0)
        saa = SecuritiesAssistant(db, coupling="immediate")
        display = saa.add_display("a")

        def worker():
            for i in range(100):
                display.display_price_quote("X", float(i))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(display.ticker_window) == 400


class TestWorkloadSymbolRules:
    def test_make_symbol_rules_fire_per_symbol(self):
        from repro.workloads import make_symbol_rules
        from benchmarks.conftest import make_db
        db = make_db()
        hits = []
        rules = make_symbol_rules(["AAA", "BBB"], limit=10.0,
                                  sink=lambda ctx: hits.append(1))
        for rule in rules:
            db.create_rule(rule)
        with db.transaction() as txn:
            a = db.create("Stock", {"symbol": "AAA", "price": 5.0}, txn)
        with db.transaction() as txn:
            db.update(a, {"price": 20.0}, txn)
        assert hits == [1]  # only the AAA watcher's condition held
