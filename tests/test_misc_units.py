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


class TestProvenanceCapturesOnlyWhatItRecords:
    """With provenance on (the default), a rule action's causal envelope
    is built at its first write: an action that writes nothing costs no
    envelope, no rule repr and no changed-attribute diff."""

    @pytest.fixture
    def saa(self, monkeypatch):
        import sys

        from repro.events.signal import EventSignal
        from repro.obs.provenance import CausalEnvelope
        from repro.saa import SecuritiesAssistant

        db = HiPAC()
        assert db.provenance is not None
        saa = SecuritiesAssistant(db, coupling="immediate")
        ticker = saa.add_ticker("NYSE")
        display = saa.add_display("analyst")
        trader = saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="c", symbol="XRX", shares=10, limit=50.0,
                             service="TRDSVC", one_shot=False)
        ticker.push_quote("XRX", 40.0)      # creates the stock
        ticker.push_quote("XRX", 41.0)      # below the limit: display only

        calls = []
        build, diff = CausalEnvelope.__init__, EventSignal.changed_attrs

        def built(self, **fields):
            calls.append("envelope:" + fields["kind"])
            build(self, **fields)

        def diffed(self):
            if sys._getframe(1).f_code.co_filename.endswith("provenance.py"):
                calls.append("changed_attrs")
            return diff(self)

        monkeypatch.setattr(CausalEnvelope, "__init__", built)
        monkeypatch.setattr(EventSignal, "changed_attrs", diffed)
        monkeypatch.setattr(Rule, "__repr__",
                            lambda self: calls.append("repr") or "")
        yield ticker, display, trader, calls
        db.close()

    def test_a_quote_below_the_limit_builds_no_envelope(self, saa):
        ticker, display, _, calls = saa
        shown = len(display.ticker_window)
        ticker.push_quote("XRX", 42.0)
        assert len(display.ticker_window) == shown + 1  # the action ran
        assert calls == []

    def test_a_quote_that_trades_builds_one_rule_envelope(self, saa):
        ticker, display, trader, calls = saa
        ticker.push_quote("XRX", 60.0)
        assert trader.stats["trades"] == 1 and display.trade_log
        # The trading action writes the trade and the position; the two
        # display actions write nothing; the ticker's application
        # envelope is the one its previous quote built.
        assert calls == ["changed_attrs", "envelope:rule"]

    def test_application_envelopes_are_reused_per_user_and_bounded(self):
        from repro.obs.provenance import ProvenanceStore
        from repro.objstore.objects import OID
        from repro.txn.undo import DeltaUndo

        class Write:
            kind = "update"

            def __init__(self, n):
                self.oid = OID("A", n)
                self.old_attrs, self.new_attrs = {"v": 0}, {"v": n}

        class Txn:
            txn_id, flight_seq, undo_log = "t1", None, []

        store = ProvenanceStore()
        users = ["u1", "u1", "u2", "u1", "u3", "u3"]
        for n, user in enumerate(users, 1):
            write = Write(n)
            Txn.undo_log.append(
                DeltaUndo(None, write, store.note_delta(write, Txn, user)))
        store.publish(Txn)
        causes = [store.latest(OID("A", n), "v").cause
                  for n in range(1, len(users) + 1)]
        assert [cause.user for cause in causes] == users
        assert {cause.kind for cause in causes} == {"application"}
        # A run of one user's writes shares one envelope; a new user
        # replaces it, so the cache holds one however many users write.
        assert causes[0] is causes[1] and causes[4] is causes[5]
        assert len({id(cause) for cause in causes}) == 4

    def test_concurrent_writers_each_get_their_own_user(self):
        """The one-slot cache is shared by every writing thread: under
        forced thread switches, a stamp must still name its writer."""
        import sys

        from repro.obs.provenance import ProvenanceStore
        from repro.objstore.objects import OID

        class Write:
            kind, oid = "update", OID("A", 1)

        class Txn:
            txn_id = "t1"

        store, wrong = ProvenanceStore(), []

        def writer(user):
            for _ in range(2000):
                cause = store.note_delta(Write, Txn, user)[0]
                if cause.user != user:
                    wrong.append((user, cause.user))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=("u%d" % i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


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
        assert sum(1 for r in log.all() if r.satisfied) == 1
        assert sum(1 for r in log.all() if r.executed) == 1

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
        yield database
        database.close()

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
        from repro.objstore.objects import OID, ObjectRecord
        index = HashIndex("C", "a")
        records = [ObjectRecord(OID("C", n), {}) for n in (1, 2, 3)]
        index.insert("x", records[0])
        index.insert("x", records[1])
        index.insert("y", records[2])
        assert len(index) == 3
        assert set(index.keys()) == {"x", "y"}
        index.remove("x", records[0])
        assert index.lookup("x") == {OID("C", 2)}
        assert index.records("x") == [records[1]]
        index.remove("zzz", records[2])  # absent bucket: no-op

    def test_unhashable_values_frozen(self):
        from repro.objstore.index import HashIndex
        from repro.objstore.objects import OID, ObjectRecord
        index = HashIndex("C", "tags")
        index.insert(["a", "b"], ObjectRecord(OID("C", 1), {}))
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
