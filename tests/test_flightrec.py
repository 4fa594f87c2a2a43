"""Flight recorder + deterministic replay tests.

The acceptance scenario: record a full SAA session (separate *and*
deferred couplings, a torn journal tail), replay it into a fresh
instance, and get back the identical firing sequence and committed store
with zero divergences — while a store mutated behind the journal's back,
or a rule edited since the recording, is reported as a divergence with
the correct first-diverging sequence number.
"""

from __future__ import annotations

import threading

import pytest

from repro import Action, ClassDef, Condition, HiPAC, Rule, attributes
from repro.events.spec import ExternalEventSpec
from repro.obs import flightrec
from repro.obs import watchdog as watchdog_module
from repro.obs.watchdog import RULE_STORM, WARNING, Watchdog
from repro.recovery import wal as wal_mod
from repro.objstore.store import UPDATE, Delta
from repro.rules.actions import CallStep
from repro.rules.coupling import DEFERRED, IMMEDIATE, SEPARATE
from repro.saa.assistant import SecuritiesAssistant
from repro.storage import FRAME_HEADER_SIZE, encode_frame
from repro.saa.programs import STOCK_CLASS, TRADE_EXECUTED_EVENT
from repro.tools.replay import ReplayError, replay
from repro.txn.transaction import Transaction

QUOTES = [("XRX", 48.0), ("IBM", 101.0), ("XRX", 49.5),
          ("XRX", 50.25), ("IBM", 102.0), ("XRX", 51.0)]


def _audit_rule(db: HiPAC) -> Rule:
    """A deferred-coupling rule that writes an audit row per trade.

    Built by a factory because its action closes over the owning
    instance — at replay time it must be rebuilt against the fresh one,
    exactly like crash recovery's rule library.  Deliberately defined on
    ``trade-executed`` (signalled inside the trade transaction on the
    separate-firing worker thread): its deferred allocation then
    serializes with the trade's own creates on that thread, keeping OID
    assignment deterministic — a deferred allocator on the *price* event
    would race the worker at main-thread commit time.
    """

    def record_audit(ctx) -> None:
        db.create("AuditEntry",
                  {"symbol": ctx.bindings.get("symbol"),
                   "price": ctx.bindings.get("price")},
                  ctx.txn)

    return Rule(
        name="test:audit",
        event=ExternalEventSpec(TRADE_EXECUTED_EVENT,
                                ("symbol", "shares", "price", "client")),
        condition=Condition.true(),
        action=Action.of(CallStep(record_audit, label="audit")),
        ec_coupling=DEFERRED,
        ca_coupling=IMMEDIATE,
        group="audit",
    )


def _build_saa(db: HiPAC, *, coupling: str, install: bool,
               audit: bool = False) -> SecuritiesAssistant:
    """One SAA topology, used identically for recording and replay."""
    saa = SecuritiesAssistant(db, coupling=coupling, install=install)
    saa.add_ticker("NYSE")
    saa.add_display("jones")
    saa.add_trader("fidelity")
    saa.add_trading_rule(client="smith", symbol="XRX", shares=500,
                         limit=50.0, service="fidelity")
    if audit:
        if install:
            db.define_class(ClassDef("AuditEntry", attributes(
                ("symbol", "string"), ("price", "number"))))
            db.create_rule(_audit_rule(db))
        saa.rule_library["test:audit"] = _audit_rule(db)
    return saa


def _record_session(data_dir, *, coupling: str, audit: bool = False,
                    quotes=QUOTES) -> None:
    db = HiPAC(durability="wal", data_dir=data_dir, flight_recorder=True)
    saa = _build_saa(db, coupling=coupling, install=True, audit=audit)
    ticker = saa.tickers["NYSE"]
    for symbol, price in quotes:
        ticker.push_quote(symbol, price)
        saa.drain()
    db.close()


def _library_for(data_dir_db: HiPAC, *, coupling: str, audit: bool = False):
    saa = _build_saa(data_dir_db, coupling=coupling, install=False,
                     audit=audit)
    return saa.rule_library


# ============================================================ clean replays


class TestCleanReplay:
    def test_saa_session_replays_with_zero_divergences(self, tmp_path):
        """Separate + deferred couplings, torn tail: full reproduction."""
        _record_session(tmp_path, coupling=SEPARATE, audit=True)
        # Tear the tail: a half-written record is a stimulus that never
        # executed; replay must ignore it and still match the WAL state.
        segment = flightrec.journal_segments(tmp_path)[-1]
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 424242, "type": "external", "da')

        result = replay(
            tmp_path,
            rules=lambda db: _library_for(db, coupling=SEPARATE, audit=True))
        report = result.divergence
        assert not report.diverged, report.as_dict()
        assert report.first_divergence_seq is None
        assert report.replayed_stimuli > 0
        assert report.expected_firings == report.replayed_firings > 0
        assert any("torn" in note for note in report.notes)
        # The recording exercised both couplings under test.
        firings = result.db.firing_log().all()
        assert any(f.separate_thread for f in firings)
        assert any(f.deferred for f in firings)
        # The trading rule executed during replay too (trade row exists),
        # and the deferred audit rule wrote one row per trade at the same
        # OIDs.
        trades = result.db.store.snapshot_state().get("SAA::Trade", {})
        assert len(trades) >= 1
        audit_rows = result.db.store.snapshot_state().get("AuditEntry", {})
        assert len(audit_rows) == len(trades)

    def test_replay_resumes_from_mid_session_checkpoint(self, tmp_path):
        db = HiPAC(durability="wal", data_dir=tmp_path, flight_recorder=True)
        saa = _build_saa(db, coupling=IMMEDIATE, install=True)
        ticker = saa.tickers["NYSE"]
        for symbol, price in QUOTES[:3]:
            ticker.push_quote(symbol, price)
        assert db.checkpoint()
        for symbol, price in QUOTES[3:]:
            ticker.push_quote(symbol, price)
        db.close()

        total_stimuli = sum(
            1 for r in flightrec.read_journal(tmp_path)[0]
            if r["type"] in flightrec.STIMULUS_TYPES)
        result = replay(
            tmp_path,
            rules=lambda fresh: _library_for(fresh, coupling=IMMEDIATE))
        report = result.divergence
        assert not report.diverged, report.as_dict()
        # Only the post-checkpoint suffix was re-signalled.
        assert 0 < report.replayed_stimuli < total_stimuli
        assert result.recovery.rules_rebound > 0

    def test_until_bisects_a_prefix(self, tmp_path):
        _record_session(tmp_path, coupling=IMMEDIATE)
        records, _ = flightrec.read_journal(tmp_path)
        commits = [r["seq"] for r in records
                   if r["type"] == flightrec.TXN_COMMIT]
        cut = commits[len(commits) // 2]
        result = replay(
            tmp_path,
            rules=lambda db: _library_for(db, coupling=IMMEDIATE),
            until=cut)
        report = result.divergence
        assert not report.diverged, report.as_dict()
        assert any("store diff skipped" in note for note in report.notes)

    def test_missing_checkpoint_marker_is_an_error(self, tmp_path):
        _record_session(tmp_path, coupling=IMMEDIATE)
        db = HiPAC(durability="wal", data_dir=tmp_path, rule_library=None)
        assert db.checkpoint()
        db.close()
        # That instance ran without the recorder: its checkpoint has no
        # journal marker, so the journal cannot bridge to it.
        with pytest.raises(ReplayError):
            replay(tmp_path,
                   rules=lambda fresh: _library_for(fresh,
                                                    coupling=IMMEDIATE))


# ========================================================= divergence diffs


class TestDivergences:
    def test_out_of_band_store_mutation_is_a_store_delta(self, tmp_path):
        _record_session(tmp_path, coupling=IMMEDIATE)
        # Forge a committed sphere straight into the WAL — a write the
        # journal never saw (think: another process, or hand-editing).
        db = HiPAC()
        oid = None
        original = replay(
            tmp_path,
            rules=lambda fresh: _library_for(fresh, coupling=IMMEDIATE))
        for row_oid in original.db.store.snapshot_state()[STOCK_CLASS]:
            oid = row_oid
            break
        assert oid is not None
        wal = wal_mod.WriteAheadLog(tmp_path, fsync=False)
        txn = Transaction("t-forged")
        wal.log_delta(Delta(UPDATE, STOCK_CLASS, oid,
                            {"price": 0.0}, {"price": 123456.0}), txn)
        wal.log_commit(txn)
        wal.close()
        del db

        result = replay(
            tmp_path,
            rules=lambda fresh: _library_for(fresh, coupling=IMMEDIATE))
        report = result.divergence
        assert report.diverged
        # Firings still match — the divergence is purely in the store.
        assert not report.sync_mismatches and not report.missing_firings
        assert report.store_deltas
        delta = report.store_deltas[0]
        assert delta["class"] == STOCK_CLASS and delta["kind"] == "changed"
        assert delta["expected"]["price"] == 123456.0

    def test_edited_rule_reports_first_diverging_seq(self, tmp_path):
        _record_session(tmp_path, coupling=IMMEDIATE)
        records, _ = flightrec.read_journal(tmp_path)
        trade_rule = "saa:trade:smith:XRX:1"
        expected_seq = next(
            r["seq"] for r in records
            if r["type"] == flightrec.FIRING
            and r["data"]["rule"] == trade_rule
            and r["data"]["satisfied"])

        def edited_library(db: HiPAC):
            library = _library_for(db, coupling=IMMEDIATE)
            rule = library[trade_rule]
            library[trade_rule] = Rule(
                name=rule.name, event=rule.event,
                condition=Condition(guard=lambda bindings, results: False,
                                    name="edited"),
                action=rule.action,
                ec_coupling=rule.ec_coupling, ca_coupling=rule.ca_coupling,
                group=rule.group)
            return library

        result = replay(tmp_path, rules=edited_library)
        report = result.divergence
        assert report.diverged
        assert report.first_divergence_seq == expected_seq
        assert any(m["seq"] == expected_seq
                   and m["expected"]["satisfied"] is True
                   and m["actual"]["satisfied"] is False
                   for m in report.sync_mismatches)
        # The un-fired trade is visible downstream as well: the store
        # lacks the trade row the recording committed.
        assert any(d["kind"] == "missing" for d in report.store_deltas)

    def test_unknown_rule_is_reported_unbound(self, tmp_path):
        _record_session(tmp_path, coupling=IMMEDIATE)

        def partial_library(db: HiPAC):
            library = _library_for(db, coupling=IMMEDIATE)
            del library["saa:trade:smith:XRX:1"]
            return library

        result = replay(tmp_path, rules=partial_library)
        assert "saa:trade:smith:XRX:1" in result.divergence.unbound_rules
        assert result.divergence.diverged  # its firings are missing


# ======================================================= journal primitives


class TestJournal:
    def test_seq_is_monotonic_across_sessions(self, tmp_path):
        rec = flightrec.FlightRecorder(tmp_path)
        first = [rec.record("external", {"n": i}) for i in range(3)]
        rec.close()
        rec = flightrec.FlightRecorder(tmp_path)
        later = rec.record("external", {"n": 99})
        rec.close()
        assert first == [1, 2, 3] and later == 4
        # Each session opened its own segment.
        assert len(flightrec.journal_segments(tmp_path)) == 2
        records, discarded = flightrec.read_journal(tmp_path)
        assert [r["seq"] for r in records] == [1, 2, 3, 4]
        assert discarded == 0

    def test_corrupt_record_poisons_the_rest(self, tmp_path):
        rec = flightrec.FlightRecorder(tmp_path)
        for i in range(5):
            rec.record("external", {"n": i})
        rec.close()
        segment = flightrec.journal_segments(tmp_path)[-1]
        records, _ = flightrec.read_segment(segment)
        frames = b""
        for record in records:
            frame = bytearray(encode_frame(record))
            if record["seq"] == 3:
                # Flip a payload byte: the frame CRC no longer matches.
                middle = (FRAME_HEADER_SIZE
                          + (len(frame) - FRAME_HEADER_SIZE) // 2)
                frame[middle] ^= 0xFF
            frames += bytes(frame)
        segment.write_bytes(frames)
        records, discarded = flightrec.read_journal(tmp_path)
        assert [r["seq"] for r in records] == [1, 2]
        assert discarded > 0

    def test_rotation_and_retention(self, tmp_path):
        # The journal drains whole batch frames, so it rotates with the
        # granularity of one drained batch: the size bound here is below
        # any batch of two, and a flush every ten records makes five
        # (per-record rotation precision is tests/test_storage.py's).
        rec = flightrec.FlightRecorder(tmp_path, max_segment_bytes=200,
                                       max_segments=3)
        for i in range(50):
            rec.record("external", {"n": i, "pad": "x" * 40})
            if i % 10 == 9:
                rec.flush()
        rec.close()
        assert rec.stats["rotations"] > 0
        assert rec.stats["dropped_segments"] > 0
        assert len(flightrec.journal_segments(tmp_path)) <= 3
        records, discarded = flightrec.read_journal(tmp_path)
        assert discarded == 0
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(seqs[0], 51))

    def test_suppression_is_thread_local(self, tmp_path):
        rec = flightrec.FlightRecorder(tmp_path)
        seen = {}

        def other_thread():
            seen["seq"] = rec.record("external", {"who": "other"})

        with rec.suppressed():
            assert rec.record("external", {"who": "muted"}) is None
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        rec.close()
        assert seen["seq"] == 1
        assert rec.stats["suppressed"] == 1

    def test_facade_gauges_flow_through_stats(self, tmp_path):
        db = HiPAC(durability="wal", data_dir=tmp_path, flight_recorder=True)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        section = db.stats()["storage"]
        assert section["journal_records"] > 0
        assert section["journal_last_seq"] == section["journal_records"]
        assert section["wal_records"] > 0
        text = db.prometheus_metrics()
        db.close()
        assert "storage_journal_records" in text
        assert "storage_wal_records" in text

    def test_saa_session_journal_is_whole_and_cascade_suppressed(
            self, tmp_path):
        """Through the facade: the trade cascade a quote sets off is counted
        as suppressed rather than journalled, and what is journalled reads
        back untorn, in seq order, up to the recorder's last seq."""
        db = HiPAC(durability="wal", data_dir=tmp_path, flight_recorder=True)
        saa = _build_saa(db, coupling=IMMEDIATE, install=True)
        for symbol, price in QUOTES:
            saa.tickers["NYSE"].push_quote(symbol, price)
        db.flight_recorder.flush()
        stats = dict(db.flight_recorder.stats)
        db.close()
        assert stats["records"] >= len(QUOTES)
        assert stats["suppressed"] > 0
        records, discarded = flightrec.read_journal(tmp_path)
        assert discarded == 0
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(set(seqs)) and seqs[-1] == stats["last_seq"]

    def test_nothing_is_journalled_with_the_recorder_off(self, tmp_path):
        db = HiPAC(durability="wal", data_dir=tmp_path)
        db.define_class(ClassDef("A", attributes(("v", "int"))))
        with db.transaction() as txn:
            db.create("A", {"v": 1}, txn)
        assert db.flight_recorder is None
        assert db.stats()["storage"]["journal_records"] == 0
        db.close()
        assert not flightrec.journal_segments(tmp_path)

    def test_recorder_requires_data_dir(self):
        with pytest.raises(ValueError):
            HiPAC(flight_recorder=True)


# ==================================================== watchdog concurrency


class TestWatchdogConcurrentRateLimit:
    def _hammer(self, watchdog: Watchdog, threads: int, each: int) -> None:
        def feed():
            for _ in range(each):
                watchdog.alert(RULE_STORM, WARNING, "storm", 1.0, 0.0)

        workers = [threading.Thread(target=feed) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def test_realert_interval_holds_under_concurrent_feeds(self, monkeypatch):
        """N threads raising the same kind must produce exactly one alert
        inside one re-alert interval — the rate limit is checked and
        stamped under the same lock, so no interleaving can double-fire."""
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 3600.0)
        watchdog = Watchdog()
        self._hammer(watchdog, threads=8, each=50)
        assert watchdog.stats["alerts_total"] == 1
        assert watchdog.stats["alerts_%s" % RULE_STORM] == 1
        assert len(watchdog.alerts(RULE_STORM)) == 1

    def test_alert_ring_stays_bounded_without_rate_limit(self, monkeypatch):
        """With re-alerting unthrottled every call records an alert; the
        ring must stay at capacity with exact eviction accounting."""
        monkeypatch.setattr(watchdog_module, "REALERT_INTERVAL", 0.0)
        monkeypatch.setattr(watchdog_module, "ALERT_CAPACITY", 16)
        watchdog = Watchdog()
        threads, each = 8, 50
        self._hammer(watchdog, threads=threads, each=each)
        total = watchdog.stats["alerts_total"]
        assert total == threads * each
        assert len(watchdog) == 16
        assert watchdog.dropped == total - 16
        assert all(alert.kind == RULE_STORM
                   for alert in watchdog.alerts())
