"""Experiment S1 — serving capacity under recorded-traffic replay.

The other benchmarks drive the engine closed-loop (send, wait, send) and
report *service time*.  This one measures what the ROADMAP's serving
north star actually asks: with the recorded SAA quote stream arriving on
its own schedule — sped up ``SPEED``x — what throughput does the stack
sustain, and what do the latency tails look like *from the moment each
stimulus was due*, not from the moment a stalled driver got around to
sending it (coordinated-omission-free; see ``repro.tools.replay``).

Method: record a journal of ``QUOTES`` quotes pushed at
``QUOTE_SPACING_S`` intervals through the full SAA stack (flight
recorder on, immediate coupling, a durable trading rule so every
matching quote fires), then replay it paced at ``SPEED``x
(``replay(..., speed=SPEED)``) against a fresh in-process HiPAC.  The
run is valid only if every recorded firing is reproduced — the same
multiset of firing identities, outcomes included — a load number from a
replay that changed what fired measures a different workload.
On a busy host the open-loop schedule itself absorbs scheduler noise, so
the bench retries the whole record/replay round up to ``ATTEMPTS`` times
and keeps the highest-throughput clean attempt.

Results go to BENCH_serving.json.  ``SERVING_BENCH_CHECK=1`` runs in
check mode (CI): the gate asserts zero firing divergence and a
conservative sustained-throughput floor, but the baseline file is left
untouched so checkout stays clean.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import HiPAC
from repro.saa import SecuritiesAssistant
from repro.tools.replay import replay
from repro.workloads import MarketDataGenerator, make_symbols

BASELINE_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_serving.json"

QUOTES = 600
QUOTE_SPACING_S = 0.002     # recorded inter-arrival gap
SPEED = 5.0                 # replay multiplier
ATTEMPTS = 3
#: CI floor: recorded rate is 1/spacing = 500 quotes/s, replayed at 5x
#: the offered load is 2500/s; a healthy stack absorbs the schedule, so
#: the floor sits at half the offered rate — far above a stalled run,
#: far below a quiet-host ceiling.
MIN_STIMULI_PER_SEC = (1.0 / QUOTE_SPACING_S) * SPEED * 0.5


def _build(db: HiPAC, install: bool) -> SecuritiesAssistant:
    saa = SecuritiesAssistant(db, coupling="immediate", install=install)
    saa.add_ticker("NYSE")
    saa.add_display("analyst-0")
    saa.add_trader("TRDSVC")
    # Durable rule (one_shot=False) below the feed's seeded ceiling so
    # firings recur across the whole stream — the replayed firing counts
    # must land exactly on the recorded ones for the run to count.
    saa.add_trading_rule(client="client-A", symbol="AAA", shares=500,
                         limit=102.0, service="TRDSVC", one_shot=False)
    return saa


def _record(data_dir: Path) -> None:
    db = HiPAC(flight_recorder=True, data_dir=data_dir)
    try:
        saa = _build(db, True)
        ticker = saa.tickers["NYSE"]
        feed = MarketDataGenerator(make_symbols(8), seed=11,
                                   initial_price=100.0, step=3.0)
        for quote in feed.stream(QUOTES):
            ticker.push_quote(quote.symbol, quote.price)
            time.sleep(QUOTE_SPACING_S)
        saa.drain()
    finally:
        db.close()


def _measure() -> dict:
    data_dir = Path(tempfile.mkdtemp(prefix="bench-serving-"))
    try:
        _record(data_dir)
        result = replay(
            data_dir,
            rules=lambda db: _build(db, False).rule_library,
            speed=SPEED)
        result.db.close()
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    out = result.divergence.as_dict()
    out["firing_divergence"] = result.divergence.diverged
    out["speed"] = SPEED
    out["stimuli_per_second"] = result.stimuli_per_second
    out["latency"] = result.latency
    out["experiment"] = "serving_replay"
    out["workload"] = "saa_quotes_recorded"
    out["quote_spacing_s"] = QUOTE_SPACING_S
    out["min_stimuli_per_sec"] = MIN_STIMULI_PER_SEC
    # Exact latency lists do not belong in a baseline file; the percentile
    # summary in result.latency is the durable artifact.
    return out


def test_serving_replay():
    results = None
    for _ in range(ATTEMPTS):
        measured = _measure()
        if results is None or (
                not measured["firing_divergence"]
                and measured["stimuli_per_second"]
                > results["stimuli_per_second"]):
            results = measured
        if not results["firing_divergence"] \
                and results["stimuli_per_second"] >= MIN_STIMULI_PER_SEC:
            break

    if not os.environ.get("SERVING_BENCH_CHECK"):
        BASELINE_PATH.write_text(json.dumps(results, indent=2,
                                            sort_keys=True) + "\n")
    assert not results["firing_divergence"], \
        "replayed firings diverged from the recording: missing %s, " \
        "extra %s" % (results["missing_firings"], results["extra_firings"])
    assert results["stimuli_per_second"] >= MIN_STIMULI_PER_SEC, \
        "sustained %.0f stimuli/s under the %.0f/s floor (offered %.0f/s)" \
        % (results["stimuli_per_second"], MIN_STIMULI_PER_SEC,
           (1.0 / QUOTE_SPACING_S) * SPEED)
