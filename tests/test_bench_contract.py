"""The engine names ``benchmarks/e2e/trace.py`` reaches into.

The end-to-end benchmark records its per-layer spans from outside the
engine: ``trace.install`` wraps methods of one HiPAC's components *by name*
(``signal_event_batch``, ``transaction_event``, ``_spawn``, ``txn_detector``,
``has_deferred_work``, ``note_delta`` / ``publish`` / ``on_abort``,
``record*``, ``_delta_listeners``, ``sink`` / ``event_sink``, ...).  The
benchmark's own smoke test is not part of the tier-1 run, so a rename there
would pass every test and then fail the benchmark gate; this test drives the
seam on the full durable stack so the rename fails here instead.
"""

from repro import HiPAC
from repro.saa import SecuritiesAssistant

from benchmarks.e2e import trace


def test_trace_seam_on_the_durable_stack(tmp_path):
    db = HiPAC(lock_timeout=5.0, durability="wal", data_dir=tmp_path,
               flight_recorder=True, provenance=True)
    try:
        saa = SecuritiesAssistant(db, coupling="immediate")
        ticker = saa.add_ticker("NYSE")
        saa.add_display("analyst")
        saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="client-A", symbol="XRX", shares=500,
                             limit=50.0, service="TRDSVC", one_shot=False)
        ticker.push_quote("XRX", 45.0)      # creates the stock; untraced
        assert trace.is_untraced(db) == []

        recorder = trace.SpanRecorder()
        done = trace.install(db, recorder)
        assert trace.is_untraced(db)
        ticker.push_quote("XRX", 55.0)      # the one traced quote: both rules fire
        trace.uninstall(done)

        assert trace.is_untraced(db) == []
        recorded = recorder.totals()
        for span in ("rules.signal", "rules.txn_event", "conditions.evaluate",
                     "txn.create", "obs.provenance", "obs.flightrec",
                     "recovery.log_delta", "recovery.log_commit",
                     "recovery.append", "recovery.force",
                     "storage.append", "storage.sync"):
            assert recorded.get(span, [0])[0] > 0, span
        # capture (note_delta, once per delta) and publish (once per
        # top-level commit): a change that stopped calling either would
        # quietly change what obs.provenance_self_us measures
        assert recorded["obs.provenance"][0] >= 2
        assert db.rule_manager.background_errors == []
    finally:
        db.close()
