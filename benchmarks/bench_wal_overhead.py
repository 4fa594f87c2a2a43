"""Experiment R1 — durability overhead: commit throughput by WAL mode.

Records commit throughput for in-memory vs WAL (flush-to-OS) vs
WAL+fsync (force-to-stable-storage at every top-level commit, the §6.3
durability point) into BENCH_wal.json.  Every mode runs for at least
``MIN_SECONDS`` of wall clock, so the numbers are not one cold-cache
burst.

The refactored segment store group-commits concurrent forces — one
leader fsyncs the whole pending batch — so this experiment also runs a
multi-threaded committer mode (``wal+fsync xN``, disjoint object sets)
where the §6.3 force amortizes across the cohort.  Shape asserted:

* in-memory is at least as fast as single-threaded WAL+fsync;
* the WAL modes actually logged / forced what they claim;
* the threaded fsync mode actually shared fsyncs (followers > 0).

Set ``WAL_BENCH_CHECK=1`` to additionally enforce the CI throughput
gate: threaded WAL+fsync must beat ``GATE_MULTIPLIER`` x the
pre-refactor single-file baseline (2.25k commits/s measured before the
shared segment store landed).  Check mode leaves BENCH_wal.json
untouched, so a CI run keeps the checkout clean.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from pathlib import Path

from benchmarks.conftest import make_db, print_table

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_wal.json"

#: wall-clock floor per mode — a mode never reports a sub-second sample
MIN_SECONDS = 1.0
#: one update per transaction isolates the commit/durability cost (the
#: pre-refactor fsync mode was fsync-bound: its commits/s barely moved
#: with transaction size, so the gate comparison stays meaningful)
UPDATES_PER_TXN = 1
THREADS = 24

#: single-threaded wal+fsync commits/s measured before the segment-store
#: refactor (BENCH_wal.json at the PR-5 tip); the CI gate is relative
#: to it
PRE_REFACTOR_FSYNC_BASELINE = 2250.0
GATE_MULTIPLIER = 3.0


def _run_commits(db, oids, min_seconds: float):
    """Commit small update transactions until ``min_seconds`` elapsed;
    returns ``(txns, seconds)``."""
    count = 0
    start = time.perf_counter()
    deadline = start + min_seconds
    while True:
        for _ in range(50):
            with db.transaction() as txn:
                for j in range(UPDATES_PER_TXN):
                    db.update(oids[(count + j) % len(oids)],
                              {"price": float(count + j)}, txn)
            count += 1
        now = time.perf_counter()
        if now >= deadline:
            return count, now - start


def _run_threaded(db, oid_sets, min_seconds: float):
    """``len(oid_sets)`` committer threads over disjoint objects; returns
    ``(total_txns, seconds)``.  Concurrent forces group-commit."""
    counts = [0] * len(oid_sets)
    barrier = threading.Barrier(len(oid_sets) + 1)
    stop = threading.Event()

    def worker(index: int, oids) -> None:
        barrier.wait()
        count = 0
        while not stop.is_set():
            with db.transaction() as txn:
                for j in range(UPDATES_PER_TXN):
                    db.update(oids[j % len(oids)],
                              {"price": float(count + j)}, txn)
            count += 1
        counts[index] = count

    workers = [threading.Thread(target=worker, args=(i, oids))
               for i, oids in enumerate(oid_sets)]
    for thread in workers:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    time.sleep(min_seconds)
    stop.set()
    for thread in workers:
        thread.join()
    return sum(counts), time.perf_counter() - start


def _bench_mode(mode: str, tmp: Path) -> dict:
    threads = THREADS if mode.endswith("x%d" % THREADS) else 1
    if mode == "in-memory":
        db = make_db()
    else:
        db = make_db(durability="wal", data_dir=tmp / mode.replace("+", "_"),
                     wal_fsync=mode.startswith("wal+fsync"))
    oids = []
    with db.transaction() as txn:
        for i in range(UPDATES_PER_TXN * threads):
            oids.append(db.create(
                "Stock", {"symbol": "S%04d" % i, "price": 0.0}, txn))
    if threads > 1:
        oid_sets = [oids[n * UPDATES_PER_TXN:(n + 1) * UPDATES_PER_TXN]
                    for n in range(threads)]
        txns, elapsed = _run_threaded(db, oid_sets, MIN_SECONDS)
    else:
        txns, elapsed = _run_commits(db, oids, MIN_SECONDS)
    storage = db.stats()["storage"]
    result = {
        "threads": threads,
        "txns": txns,
        "seconds": round(elapsed, 6),
        "commits_per_sec": round(txns / elapsed, 1),
        "wal_records": storage["wal_records"],
        "wal_fsyncs": storage["wal_fsyncs"],
        "group_leads": storage["wal_group_leads"],
        "group_follows": storage["wal_group_follows"],
        "batched_records": storage["wal_batched_records"],
    }
    if db.wal is not None:
        db.close()
    return result


def test_wal_overhead_shape():
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("in-memory", "wal", "wal+fsync",
                     "wal+fsync x%d" % THREADS):
            results[mode] = _bench_mode(mode, Path(tmp))

    print_table(
        "Commit throughput by durability mode (>= %.0fs per mode, "
        "%d updates per txn)" % (MIN_SECONDS, UPDATES_PER_TXN),
        ("mode", "threads", "commits/s", "fsyncs", "follows"),
        [(mode, r["threads"], r["commits_per_sec"], r["wal_fsyncs"],
          r["group_follows"]) for mode, r in results.items()])

    if not os.environ.get("WAL_BENCH_CHECK"):
        BASELINE_PATH.write_text(json.dumps({
            "experiment": "wal_overhead",
            "min_seconds": MIN_SECONDS,
            "updates_per_txn": UPDATES_PER_TXN,
            "pre_refactor_fsync_commits_per_sec": PRE_REFACTOR_FSYNC_BASELINE,
            "modes": results,
        }, indent=2, sort_keys=True) + "\n")

    # The durable modes really logged; only the fsync modes forced.
    assert results["in-memory"]["wal_records"] == 0
    assert results["wal"]["wal_records"] > results["wal"]["txns"]
    assert results["wal"]["wal_fsyncs"] == 0
    assert results["wal+fsync"]["wal_fsyncs"] > 0
    # Durability is not free: forcing the log cannot beat skipping it.
    assert (results["in-memory"]["commits_per_sec"]
            >= results["wal+fsync"]["commits_per_sec"])
    # Group commit actually shared fsyncs under the concurrent load.
    threaded = results["wal+fsync x%d" % THREADS]
    assert threaded["group_follows"] > 0
    assert threaded["wal_fsyncs"] < threaded["txns"]

    if os.environ.get("WAL_BENCH_CHECK"):
        floor = GATE_MULTIPLIER * PRE_REFACTOR_FSYNC_BASELINE
        assert threaded["commits_per_sec"] >= floor, (
            "threaded wal+fsync throughput %.1f commits/s is below the "
            "%.0fx pre-refactor gate (%.1f)"
            % (threaded["commits_per_sec"], GATE_MULTIPLIER, floor))
