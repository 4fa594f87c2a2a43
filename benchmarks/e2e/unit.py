"""One run of one workload: set up, measure for ``seconds``, check, report.

This is the program the benchmark driver calls
(``--workload W --seed N --seconds S --trace 0|1``) and the unit the suite
(:mod:`.suite`) schedules.  The last line it prints is the result object.

Estimator
---------
The reference host is shared: its speed changes by a quarter to a half in
phases that last from tens of milliseconds to several seconds, so the mean
of a run says more about the host than about the engine.  A run is
therefore cut into equal, count-based blocks of about a tenth of a
second (``Workload.block`` stimuli; ``gc.collect()`` between blocks,
outside the timed region; automatic GC left on inside it), every timing
metric is computed per block, and the run reports the **median block**.  A
latency percentile is taken only over windows of whole blocks with at least
ten samples beyond it (1000 samples for p99), else over the pooled run.  On
a five-minute trace of ``saa_mem`` cut into 10 s runs the median block
repeated within 2–6 % and the fastest block ("quiet block") within 7–23 %
(README.md has the table); the quiet block is still reported beside the
ledger as ``<metric>_quiet``, ungated: it is the better estimate of what
the engine costs on an undisturbed host, when the run met one.

A run is ``SEGMENTS`` such measurements, each on a freshly set-up instance
with inputs of its own: how fast one instance runs depends on where its
objects landed in memory and on what its seed drew, the heap of a
long-lived instance grows (the SAA programs keep every quote they
displayed), and ``setup_s`` needs several set-ups for its median anyway.
The median block is taken over all of them.

The median block removes the phases shorter than a run, not the drifts
longer than one (ten back-to-back runs moved by a third and back within two
minutes).  So a fixed engine-like loop (:class:`HostProbe`) is timed before
every block, and the run divides its times by how much slower than
``REFERENCE_PROBE_S`` the median probe ran: times are reported as the
reference box clocks them in a calm phase.  In a noisy hour that took the
distance between the quartiles of ten runs from 16–36 % to 4–15 %.

With ``--trace 1`` blocks alternate between the untraced engine and the
engine with :mod:`.trace` installed, so traced and untraced time are paired
under the same host phase; end-to-end numbers never come from a traced
block.  Counts come from ``db.stats()`` deltas over the first
``COUNT_BLOCKS`` blocks of the first instance — a fixed number of stimuli,
so they repeat exactly whatever the host speed.  ``rss_mb`` is read at the
same point for the same reason: the SAA programs keep what they displayed,
so memory after the *last* block would measure how many blocks the host
let the run finish.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import trace as tracing
from .workloads import OPEN_LIMIT_US, WORKLOADS, Workload

SEGMENTS = 4            # set up / measure / verify cycles per run
REFERENCE_PROBE_S = 2.4e-3  # HostProbe.spin() on the reference box, calm
COUNT_BLOCKS = 12       # blocks before the exact counts and rss_mb are read
P99_SAMPLES = 1000      # ten samples beyond the 99th percentile
WORK_ROOT = ".bench_e2e"

_clock = time.perf_counter


# ------------------------------------------------------------ the metrics

#: timing metrics, computed per block: name -> (unit, better)
TIMING = {
    "stimuli_per_s": ("1/s", "higher"),
    "svc_p50_us": ("us", "lower"),
    "svc_p99_us": ("us", "lower"),
    "cpu_us_per_stimulus": ("us", "lower"),
    "sched_p50_us": ("us", "lower"),
    "sched_p99_us": ("us", "lower"),
}
#: end-to-end metrics (``--trace 0``): name -> (unit, better).  The other
#: timing metrics are reported with the ledger, ungated: a 99th percentile
#: repeated within 9 to 21 % on this host whatever the estimator, and at
#: half of capacity the open loop's queue turns a host 10 % slower into a
#: wait 50 % longer (README.md, "What is not gated").
END_TO_END = {
    "setup_s": ("s", "lower"),
    **{name: TIMING[name] for name in (
        "stimuli_per_s", "svc_p50_us", "cpu_us_per_stimulus")},
    "rss_mb": ("MB", "lower"),
}

#: ``<layer>.<x>_us`` metric -> span names whose self time it sums
SELF_TIME = {
    "core.self_us": ("core.stimulus",),
    "objstore.self_us": ("objstore.op", "objstore.query", "objstore.read",
                         "objstore.lock_extent"),
    "objstore.query_self_us": ("objstore.query",),
    "txn.self_us": ("txn.create", "txn.commit", "txn.abort"),
    "txn.commit_self_us": ("txn.commit",),
    "txn.locks.self_us": ("txn.locks.acquire", "txn.locks.release",
                          "txn.locks.inherit"),
    "txn.locks.wait_us": ("txn.locks.wait",),
    "events.self_us": ("events.observe", "events.relevant", "events.signal"),
    "rules.self_us": ("rules.signal", "rules.txn_event", "rules.deferred"),
    "rules.deferred_self_us": ("rules.deferred",),
    "conditions.self_us": ("conditions.evaluate", "conditions.delta"),
    "conditions.delta_self_us": ("conditions.delta",),
    "apps.self_us": ("apps.request", "apps.action"),
    "recovery.self_us": ("recovery.log_delta", "recovery.log_commit",
                         "recovery.append", "recovery.force"),
    "storage.self_us": ("storage.append", "storage.flush", "storage.sync",
                        "storage.background"),
    "storage.fsync_us": ("storage.fsync",),
    "obs.flightrec_self_us": ("obs.flightrec",),
    "obs.provenance_self_us": ("obs.provenance",),
}
#: the metrics above that partition a stimulus (no span counted twice)
LAYERS = ("core.self_us", "objstore.self_us", "txn.self_us",
          "txn.locks.self_us", "txn.locks.wait_us", "events.self_us",
          "rules.self_us", "conditions.self_us", "apps.self_us",
          "recovery.self_us", "storage.self_us", "storage.fsync_us",
          "obs.flightrec_self_us", "obs.provenance_self_us")


#: count and ratio metrics read from a ``db.stats()`` delta: name -> unit
COUNTS = {
    "objstore.ops": "count", "objstore.queries": "count",
    "txn.created": "count", "txn.nested": "count", "txn.aborted": "count",
    "txn.locks.acquired": "count", "txn.locks.waited": "count",
    "events.signals": "count", "events.index_hit_ratio": "ratio",
    "events.skipped": "count",
    "rules.triggered": "count", "rules.deferred_queued": "count",
    "rules.separate_spawned": "count", "rules.fire_ratio": "ratio",
    "conditions.evaluations": "count", "conditions.memo_hit_ratio": "ratio",
    "conditions.graph_answer_ratio": "ratio",
    "conditions.memory_updates": "count",
    "apps.requests": "count",
    "recovery.wal_records": "count", "recovery.wal_bytes": "B",
    "recovery.commits_forced": "count",
    "storage.fsyncs": "count", "storage.group_batch": "count",
    "obs.journal_bytes": "B", "obs.provenance_published": "count",
}
#: how far to trust a ledger row, and what the contract keeps ungated
DIAGNOSTICS = {
    "trace.overhead_ratio": "ratio", "ledger.sum_ratio": "ratio",
    "sched.gen_late_p99_us": "us", "host.spin_us": "us",
    "over_limit_ratio": "ratio", "durable_bytes_per_stimulus": "B",
    "failed_ratio": "ratio",
}
#: every per-layer metric, in reporting order: name -> unit
PER_LAYER: Dict[str, str] = {
    **{name: "us" for name in SELF_TIME}, **COUNTS, **DIAGNOSTICS,
    **{name: unit for name, (unit, _) in TIMING.items()
       if name not in END_TO_END},
    **{name + "_quiet": unit for name, (unit, _) in TIMING.items()},
}


def _counts(delta: Dict[str, Dict[str, float]], stimuli: int
            ) -> Dict[str, float]:
    """The :data:`COUNTS` metrics, per stimulus, from a stats delta."""
    def per(section: str, key: str) -> float:
        return delta[section][key] / stimuli

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    events, rules = delta["events"], delta["rules"]
    conditions, storage = delta["conditions"], delta["storage"]
    txns = delta["transactions"]
    hits = events["database_index_hits"] + events["transaction_index_hits"]
    misses = (events["database_index_misses"]
              + events["transaction_index_misses"])
    fast = events["database_fast_path"] + events["transaction_fast_path"]
    answers = conditions["graph_answers"] + conditions["executor_answers"]
    return {
        "objstore.ops": per("objects", "operations"),
        "objstore.queries": per("objects", "queries"),
        "txn.created": per("transactions", "created"),
        "txn.nested": (txns["committed"] - txns["top_level_committed"])
        / stimuli,
        "txn.aborted": per("transactions", "aborted"),
        "txn.locks.acquired": per("locks", "acquired"),
        "txn.locks.waited": per("locks", "waited"),
        "events.signals": (hits + misses + fast
                           + events["external_reported"]) / stimuli,
        "events.index_hit_ratio": ratio(hits, hits + misses),
        "events.skipped": per("objects", "signals_skipped"),
        "rules.triggered": per("rules", "triggered"),
        "rules.deferred_queued": per("rules", "deferred_queued"),
        "rules.separate_spawned": per("rules", "separate_spawned"),
        "rules.fire_ratio": ratio(rules["actions_executed"],
                                  rules["conditions_evaluated"]),
        "conditions.evaluations": per("conditions", "evaluations"),
        "conditions.memo_hit_ratio": ratio(
            conditions["memo_hits"], conditions["memo_hits"] + answers),
        "conditions.graph_answer_ratio": ratio(
            conditions["graph_answers"], answers),
        "conditions.memory_updates": per("condition_graph",
                                         "memory_updates"),
        "apps.requests": per("applications", "requests"),
        "recovery.wal_records": per("storage", "wal_records"),
        "recovery.wal_bytes": per("storage", "wal_bytes"),
        "recovery.commits_forced": per("storage", "wal_commits_forced"),
        # WAL only: the journal's fsyncs are cut by a 100 ms timer.
        "storage.fsyncs": per("storage", "wal_fsyncs"),
        "storage.group_batch": ratio(storage["wal_batched_records"],
                                     storage["wal_group_leads"]),
        "obs.journal_bytes": per("storage", "journal_bytes"),
        "obs.provenance_published": per("provenance", "published"),
    }


# -------------------------------------------------------------- blocks

def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _Account:
    """What the host-speed probe works on."""

    def __init__(self, key: int) -> None:
        self.key = key
        self.balance = 0.0
        self.history: List[Tuple[int, float]] = []
        self.lock = threading.RLock()

    def post(self, amount: float) -> float:
        with self.lock:
            self.balance += amount
            self.history.append((self.key, amount))
            if len(self.history) > 8:
                del self.history[:4]
            return self.balance


class HostProbe:
    """A fixed pure-Python loop timed beside each block: how fast the host
    runs right now.  It does what the engine's code does — attribute and
    dictionary access on objects spread over the heap, a re-entrant lock,
    small allocations, an exception now and then — because a loop of
    arithmetic slows by a fifth on this host when the engine slows by a
    half."""

    ACCOUNTS = 8192     # objects, a few megabytes: more than the caches hold

    def __init__(self) -> None:
        self._rng = random.Random(3)
        self._accounts = [_Account(key) for key in range(self.ACCOUNTS)]

    def spin(self) -> float:
        accounts, pick = self._accounts, self._rng.randrange
        count = self.ACCOUNTS
        start = _clock()
        for _ in range(1500):
            account = accounts[pick(count)]
            try:
                if account.post(1.0) % 64 == 0:
                    raise ValueError(account.key)
            except ValueError:
                account.balance = 1.0
        return _clock() - start


class Block:
    """What one block of stimuli measured."""

    __slots__ = ("stimuli", "wall", "cpu", "service", "sched", "late",
                 "failed", "traced", "spin")

    def __init__(self, traced: bool) -> None:
        self.stimuli = 0
        self.wall = self.cpu = self.spin = 0.0
        self.service: List[float] = []
        self.sched: List[float] = []    # open loop only: completion - due
        self.late: List[float] = []     # open loop only: send - due, idle
        self.failed = 0
        self.traced = traced


def run_block(wl: Workload, items: list, due: Optional[List[float]],
              recorder: Optional[tracing.SpanRecorder], first_id: int,
              probe: HostProbe) -> Block:
    """Run one block; ``due`` makes it open loop, ``recorder`` traced."""
    block = Block(recorder is not None)
    block.stimuli = len(items)
    service, issue = block.service, wl.issue
    gc.collect()
    block.spin = probe.spin()
    waited = 0.0
    cpu0 = time.process_time()
    start = _clock()
    for index, item in enumerate(items):
        if due is not None:
            target = start + due[index]
            now = _clock()
            if now < target:
                if target - now > 0.001:
                    time.sleep(target - now - 0.0005)
                spin_from = _clock()
                while _clock() < target:
                    pass
                now = _clock()
                waited += now - spin_from
                block.late.append(now - target)
        sent = _clock()
        frame = (recorder.enter("core.stimulus", first_id + index)
                 if recorder is not None else None)
        try:
            issue(item)
        except Exception:
            block.failed += 1
        finally:
            if frame is not None:
                recorder.exit(frame)
        done = _clock()
        service.append(done - sent)
        if due is not None:
            block.sched.append(done - target)
    wl.end_block()
    block.wall = _clock() - start
    # The generator's own busy-wait is not the engine's CPU time.
    block.cpu = time.process_time() - cpu0 - waited
    return block


def _quiet(values: List[float], better: str) -> float:
    return max(values) if better == "higher" else min(values)


def _windows(blocks: List[Block], attr: str, samples: int
             ) -> List[List[float]]:
    """Sorted sample windows of whole blocks, each >= ``samples`` long;
    one pooled window when the run is too short for two."""
    windows: List[List[float]] = []
    current: List[float] = []
    for block in blocks:
        current.extend(getattr(block, attr))
        if len(current) >= samples:
            windows.append(sorted(current))
            current = []
    if len(windows) < 2:
        return [sorted(value for block in blocks
                       for value in getattr(block, attr))]
    return windows


def timing_metrics(blocks: List[Block], open_loop: bool
                   ) -> Dict[str, List[float]]:
    """Per-block (per-window for p99) values of every timing metric."""
    def p50(attr: str) -> List[float]:
        return [statistics.median(getattr(b, attr)) * 1e6 for b in blocks]

    def p99(attr: str) -> List[float]:
        return [percentile(window, 0.99) * 1e6
                for window in _windows(blocks, attr, P99_SAMPLES)]

    service = {"p50": p50("service"), "p99": p99("service")}
    # In a closed loop a stimulus is sent when it is due.
    sched = ({"p50": p50("sched"), "p99": p99("sched")} if open_loop
             else service)
    return {
        "stimuli_per_s": [b.stimuli / b.wall for b in blocks],
        "svc_p50_us": service["p50"],
        "svc_p99_us": service["p99"],
        "cpu_us_per_stimulus": [b.cpu / b.stimuli * 1e6 for b in blocks],
        "sched_p50_us": sched["p50"],
        "sched_p99_us": sched["p99"],
    }


def rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


# ----------------------------------------------------------------- a run

def _stats_delta(before: dict, after: dict) -> Dict[str, Dict[str, float]]:
    return {section: {key: value - before[section].get(key, 0)
                      for key, value in values.items()
                      if isinstance(value, (int, float))}
            for section, values in after.items()}


def _workdir(name: str) -> Path:
    path = Path.cwd() / WORK_ROOT / ("%s-%d" % (name, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    return path


class Run:
    """What the segments of one run accumulate."""

    def __init__(self, trace: bool) -> None:
        self.recorder = tracing.SpanRecorder() if trace else None
        self.probe = HostProbe()
        self.blocks: List[Block] = []
        self.setups: List[float] = []
        self.issued = 0
        self.failed = 0
        #: (stats delta, stimuli, durable bytes, rss_mb) of the count window
        self.counted: Optional[Tuple[dict, int, int, float]] = None
        self.report: List[str] = []


def run(name: str, seed: int, seconds: float, trace: bool, *,
        quick: bool = False, spans_out: Optional[str] = None,
        profile: bool = False) -> Dict[str, Any]:
    """Run workload ``name`` once; returns the result object (and prints
    nothing).  ``result["report"]`` holds extra human-readable lines.

    The run is ``SEGMENTS`` times set up / measure / verify, each on a
    fresh instance with inputs of its own drawn from ``seed``."""
    cls = WORKLOADS[name]
    root = _workdir(name)
    state = Run(trace)
    segments = 1 if quick else SEGMENTS
    # The probe's objects (and the imported modules) out of the collector's
    # sight: walking them would add milliseconds to every full collection,
    # the engine's own included.
    gc.collect()
    gc.freeze()
    try:
        for segment in range(segments):
            gc.collect()
            begun = _clock()
            wl = cls(seed + 7919 * segment, root / ("segment-%d" % segment),
                     quick)
            try:
                wl.setup()
                state.setups.append(_clock() - begun)
                _measure(wl, seconds / segments, state)
                if profile and segment == segments - 1:
                    from .crosscheck import cross_check
                    state.report.extend(cross_check(wl, state.recorder))
                mismatches = wl.verify()
            finally:
                wl.close()
            state.report.extend("oracle: " + line for line in mismatches)
            state.failed += len(mismatches)
        return _result(state, wl.open_rate is not None, spans_out)
    finally:
        gc.unfreeze()
        shutil.rmtree(root, ignore_errors=True)
        try:
            root.parent.rmdir()     # only when no other run is using it
        except OSError:
            pass


def _measure(wl: Workload, seconds: float, state: Run) -> None:
    """Run blocks on ``wl`` for ``seconds``; with tracing, every second
    block runs on the traced engine."""
    recorder = state.recorder
    counting = state.counted is None
    if counting:
        stats0 = wl.db.stats()
        bytes0 = wl.durable_bytes()
        issued0 = state.issued
    ran = 0
    deadline = _clock() + seconds
    while _clock() < deadline or ran < (COUNT_BLOCKS if counting else 2):
        items = wl.generate(wl.block)
        due = (wl.schedule.block(len(items))
               if wl.open_rate is not None else None)
        if recorder is not None and ran % 2 == 1:
            # Raw spans of the first traced block only (see trace.py).
            recorder.retain = not any(b.traced for b in state.blocks)
            done = tracing.install(wl.db, recorder, wl)
            try:
                block = run_block(wl, items, due, recorder, state.issued,
                                  state.probe)
            finally:
                tracing.uninstall(done)
        else:
            block = run_block(wl, items, due, None, state.issued,
                              state.probe)
        state.blocks.append(block)
        state.issued += len(items)
        state.failed += block.failed
        ran += 1
        if counting and ran == COUNT_BLOCKS:
            state.counted = (_stats_delta(stats0, wl.db.stats()),
                             state.issued - issued0,
                             wl.durable_bytes() - bytes0, rss_mb())


def _result(state: Run, open_loop: bool, spans_out: Optional[str]
            ) -> Dict[str, Any]:
    plain = [b for b in state.blocks if not b.traced]
    assert state.counted is not None
    delta, stimuli, stored, rss = state.counted
    # Times are reported as the reference box would have clocked them in a
    # calm phase: divided by how much slower the probe ran during this run.
    probe = statistics.median(b.spin for b in state.blocks)
    slowdown = probe / REFERENCE_PROBE_S
    state.report.append(
        "host: probe %.0f us against %.0f us on the reference box; times "
        "are divided by %.3f" % (probe * 1e6, REFERENCE_PROBE_S * 1e6,
                                 slowdown))
    timing: Dict[str, float] = {}
    quiet: Dict[str, float] = {}
    for metric, values in timing_metrics(plain, open_loop).items():
        unit, better = TIMING[metric]
        quiet[metric + "_quiet"] = _quiet(values, better)
        value = statistics.median(values)
        if unit != "1/s":
            value /= slowdown
        elif not open_loop:     # in an open loop it is the rate of arrival
            value *= slowdown
        timing[metric] = value
    if state.recorder is None:
        metrics = {"setup_s": statistics.median(state.setups) / slowdown,
                   **timing, "rss_mb": rss}
        units = {metric: unit for metric, (unit, _) in END_TO_END.items()}
    else:
        late = sorted(v for b in plain for v in b.late)
        over = sum(1 for b in plain for v in b.sched
                   if v * 1e6 > OPEN_LIMIT_US) + sum(b.failed for b in plain)
        metrics = {
            **{metric: value / slowdown for metric, value
               in _ledger(state.recorder, state.blocks).items()},
            **_trust(state.recorder, state.blocks),
            **_counts(delta, stimuli),
            "sched.gen_late_p99_us":
                percentile(late, 0.99) * 1e6 if late else 0.0,
            "host.spin_us": probe * 1e6,
            "over_limit_ratio": over / sum(b.stimuli for b in plain),
            "durable_bytes_per_stimulus": stored / stimuli,
            "failed_ratio": state.failed / state.issued,
            **timing, **quiet,
        }
        units = PER_LAYER
        if spans_out:
            state.report.append("wrote %d spans to %s" % (
                state.recorder.dump(spans_out), spans_out))
    return {
        "correct": state.failed == 0,
        "attempted": state.issued,
        "failed": state.failed,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in units.items()},
        "report": state.report,
    }


def _ledger(recorder: tracing.SpanRecorder, blocks: List[Block]
            ) -> Dict[str, float]:
    """Self time per stimulus of every layer, in microseconds."""
    stimuli = sum(b.stimuli for b in blocks if b.traced)
    totals = recorder.totals()
    return {metric: sum(totals[span][2] for span in spans if span in totals)
            / 1e3 / stimuli
            for metric, spans in SELF_TIME.items()}


def _trust(recorder: tracing.SpanRecorder, blocks: List[Block]
           ) -> Dict[str, float]:
    """How far the ledger can be trusted."""
    traced = [b for b in blocks if b.traced]
    plain = [b for b in blocks if not b.traced]
    # Every span on the caller's thread lies inside a stimulus, so their
    # self times must add up to the service time the harness clocked.
    on_caller = sum(own for _, _, own in
                    recorder.totals(main_only=True).values())
    return {
        "ledger.sum_ratio": on_caller / (
            sum(sum(b.service) for b in traced) * 1e9),
        "trace.overhead_ratio":
            statistics.median(sum(b.service) / b.stimuli for b in traced)
            / statistics.median(sum(b.service) / b.stimuli for b in plain),
    }


def render(result: Dict[str, Any]) -> List[str]:
    """The result as lines: every metric by name with its unit, the
    report lines, and last the result object itself."""
    lines = ["%-32s %14.4f %s" % (name, entry["value"], entry["unit"])
             for name, entry in result["metrics"].items()]
    lines.extend(result["report"])
    lines.append(json.dumps({key: result[key] for key in
                             ("correct", "attempted", "failed", "metrics")}))
    return lines
