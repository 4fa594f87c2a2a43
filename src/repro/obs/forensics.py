"""Incident forensics: black-box snapshot bundles captured at the moment
something goes wrong.

PRs 3-8 built rich live telemetry — metrics, spans, the watchdog, the
flight journal, provenance, windowed SLOs — but all of it is pull-only
and ring-bounded: when a rule storm or SLO breach happens at 3am, the
evidence has rotated out of the rings long before anyone scrapes an
endpoint.  The paper itself flags rule tracing and debugging as the
unsolved operational problem of active databases (§7); this module is
the operational half of the answer (``repro.tools.doctor`` is the
analytic half).

A :class:`ForensicsRecorder` hangs off the watchdog's alert callbacks
(and the WAL's append-failure hook).  When an alert fires it captures a
**snapshot bundle** — one JSON file under ``data_dir/forensics/``
freezing everything a diagnosis needs:

* the timeseries window ring (rates and windowed percentiles around the
  incident),
* SLO objective states and burn rates,
* the watchdog alert ring,
* slow-log entries,
* the profiler's hottest-rules report (firings, selectivity,
  who-triggers-whom edges),
* a firing-log tail (per-firing event descriptions — the trigger chain
  when span tracing is off),
* provenance stats,
* the flight-journal tail seq range, with a ready-to-paste
  ``replay --until SEQ`` bisection command,
* per-thread stack dumps via ``sys._current_frames()`` (what every
  thread was doing at capture time),
* a config/uptime envelope (how the instance was built).

Operational discipline, because a recorder that worsens the incident it
records is worse than none:

* **debounced per alert kind** — a storm that re-alerts every second
  yields one bundle per ``debounce_seconds``, not hundreds;
* **off the hot path** — alert callbacks run on whichever thread
  detected the anomaly (the signalling thread, a lock waiter, the
  ticker); the callback only enqueues, and a lazy-started daemon worker
  does the actual capture, so an armed-but-idle recorder costs nothing
  but the callback registration;
* **bounded on disk** — a budget in bytes plus a bundle-count cap,
  enforced by oldest-first eviction after every write (the newest
  bundle always survives, even when it alone exceeds the budget);
* **failure-isolated** — a capture error increments
  ``forensics_capture_errors_total`` and the ``capture_errors`` stat
  and never propagates into the thread that signalled the alert.

Writes are atomic (temp file + ``os.replace``) so a reader listing the
directory never sees a torn bundle.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import queue
import re
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

#: capture kinds beyond the watchdog's own alert kinds
MANUAL = "manual"
WAL_FAILURE = "wal_failure"

_BUNDLE_RE = re.compile(r"^forensic-(\d{6})-([A-Za-z0-9_.-]+)\.json$")
_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


@dataclass
class ForensicsConfig:
    """Operational bounds of the black-box recorder.

    * ``debounce_seconds`` — minimum seconds between two captures of the
      same kind (a re-alerting storm yields one bundle per interval).
    * ``disk_budget_bytes`` / ``max_bundles`` — oldest-first eviction
      keeps ``data_dir/forensics/`` under both bounds.
    * ``timeseries_last`` / ``profile_top`` / ``alerts_last`` /
      ``slowlog_last`` / ``firings_last`` — how much of each bounded
      ring a bundle freezes.
    """

    debounce_seconds: float = 30.0
    disk_budget_bytes: int = 32 * 1024 * 1024
    max_bundles: int = 64
    timeseries_last: int = 120
    profile_top: int = 20
    alerts_last: int = 200
    slowlog_last: int = 100
    firings_last: int = 200


class ForensicsRecorder:
    """Captures snapshot bundles to ``data_dir/forensics/`` on incident.

    Wired by :class:`~repro.core.hipac.HiPAC` when constructed with
    ``forensics=True`` (or a :class:`ForensicsConfig`): the watchdog's
    alert callback feeds :meth:`on_alert`, the WAL's append-failure hook
    feeds :meth:`on_wal_failure`, and the admin server's ``/forensics``
    endpoint lists, downloads, and manually triggers bundles.
    """

    def __init__(self, db: Any, data_dir: Any,
                 config: Optional[ForensicsConfig] = None,
                 metrics: Optional[Any] = None,
                 env: Optional[Dict[str, Any]] = None) -> None:
        self.db = db
        self.config = config or ForensicsConfig()
        self.directory = Path(data_dir) / "forensics"
        self.directory.mkdir(parents=True, exist_ok=True)
        self._metrics = metrics
        self._env = dict(env or {})
        self._lock = threading.Lock()
        #: per-kind monotonic time of the last accepted capture request
        self._last_capture: Dict[str, float] = {}
        #: serializes file writes + eviction between the worker thread
        #: and inline (manual) captures
        self._fs_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        self.stats: Dict[str, int] = {
            "captures": 0, "capture_errors": 0, "debounced": 0,
            "evicted": 0, "bundles": 0, "bytes": 0,
        }
        self._seq = 0
        for path in self.directory.glob("forensic-*.json"):
            match = _BUNDLE_RE.match(path.name)
            if match:
                self._seq = max(self._seq, int(match.group(1)))
        self._refresh_disk_stats()

    # ------------------------------------------------------------- triggers

    def on_alert(self, alert: Any) -> None:
        """Watchdog alert callback (runs on the detecting thread: enqueue
        only, never capture inline, never raise)."""
        try:
            self.trigger(alert.kind, reason=alert.message,
                         alert=alert.as_dict())
        except Exception:
            self._note_error()

    def on_wal_failure(self, exc: BaseException) -> None:
        """WAL append-failure hook: durability just broke — capture the
        evidence before anyone restarts the process."""
        try:
            self.trigger(WAL_FAILURE, reason="WAL append failed: %s" % exc)
        except Exception:
            self._note_error()

    def trigger(self, kind: str, reason: str = "",
                alert: Optional[Dict[str, Any]] = None) -> bool:
        """Request a background capture of ``kind``; returns True when the
        request was accepted (False when debounced or closed).

        The per-kind debounce check-and-set is atomic under the recorder
        lock, so two breaches of the same kind racing from different
        threads yield exactly one bundle.
        """
        now = time.monotonic()
        with self._lock:
            if self._closed:
                return False
            last = self._last_capture.get(kind)
            if last is not None \
                    and now - last < self.config.debounce_seconds:
                self.stats["debounced"] += 1
                if self._metrics is not None:
                    self._metrics.counter("forensics_debounced_total").inc()
                return False
            self._last_capture[kind] = now
            self._ensure_worker()
        self._queue.put({"kind": kind, "reason": reason, "alert": alert})
        return True

    def capture(self, kind: str = MANUAL, reason: str = "") -> Optional[str]:
        """Capture a bundle *now* on the calling thread (manual trigger —
        the admin endpoint and tests; bypasses the debounce because an
        explicit request always means "I want a bundle").

        Returns the bundle id, or None when the capture failed (counted
        in ``capture_errors``).
        """
        with self._lock:
            if self._closed:
                return None
            self._last_capture[kind] = time.monotonic()
        return self._capture_safe(kind, reason, alert=None)

    # --------------------------------------------------------------- views

    def list_bundles(self) -> List[Dict[str, Any]]:
        """Bundles on disk, newest first: id, kind, wall time, size."""
        out: List[Dict[str, Any]] = []
        for path in self.directory.glob("forensic-*.json"):
            match = _BUNDLE_RE.match(path.name)
            if not match:
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append({"id": path.stem, "seq": int(match.group(1)),
                        "kind": match.group(2), "wall": stat.st_mtime,
                        "bytes": stat.st_size})
        out.sort(key=lambda entry: entry["seq"], reverse=True)
        return out

    def bundle_path(self, bundle_id: str) -> Path:
        """Resolve a bundle id to its file (id validated against path
        traversal); raises KeyError when it does not exist."""
        if not _ID_RE.match(bundle_id):
            raise KeyError(bundle_id)
        path = self.directory / (bundle_id + ".json")
        if not path.is_file():
            raise KeyError(bundle_id)
        return path

    def read_bundle(self, bundle_id: str) -> bytes:
        """The raw JSON bytes of one bundle (the download endpoint)."""
        return self.bundle_path(bundle_id).read_bytes()

    def load_bundle(self, bundle_id: str) -> Dict[str, Any]:
        """One bundle parsed back into a dict."""
        return json.loads(self.read_bundle(bundle_id).decode("utf-8"))

    def status(self) -> Dict[str, Any]:
        """Mixed-type summary for the ``/stats`` payload and ``top``
        (keep strings out of :meth:`HiPAC.stats` — the Prometheus
        exporter floats every collected stat)."""
        with self._lock:
            out: Dict[str, Any] = dict(self.stats)
        last = self.list_bundles()
        newest = last[0] if last else None
        out["last_id"] = newest["id"] if newest else None
        out["last_kind"] = newest["kind"] if newest else None
        out["last_wall"] = newest["wall"] if newest else None
        return out

    def stats_snapshot(self) -> Dict[str, int]:
        """Numeric-only stats for the facade's ``stats()`` tree."""
        with self._lock:
            return dict(self.stats)

    def close(self, timeout: float = 10.0) -> None:
        """Drain queued captures and stop the worker (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        if worker is not None:
            self._queue.put(None)
            worker.join(timeout=timeout)

    # ------------------------------------------------------------ internals

    def _ensure_worker(self) -> None:
        """Start the capture worker on first use (caller holds the lock).
        Lazy start keeps an armed-but-idle recorder thread-free."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._run, name="hipac-forensics", daemon=True)
            self._worker.start()

    def _run(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            self._capture_safe(request["kind"], request["reason"],
                               request["alert"])

    def _capture_safe(self, kind: str, reason: str,
                      alert: Optional[Dict[str, Any]]) -> Optional[str]:
        try:
            return self._capture(kind, reason, alert)
        except Exception:
            self._note_error()
            return None

    def _note_error(self) -> None:
        with self._lock:
            self.stats["capture_errors"] += 1
        if self._metrics is not None:
            try:
                self._metrics.counter("forensics_capture_errors_total").inc()
            except Exception:
                pass

    def _capture(self, kind: str, reason: str,
                 alert: Optional[Dict[str, Any]]) -> str:
        start = time.perf_counter()
        bundle = self._build_bundle(kind, reason, alert)
        body = json.dumps(bundle, default=str, sort_keys=True).encode("utf-8")
        with self._fs_lock:
            with self._lock:
                self._seq += 1
                seq = self._seq
            bundle_id = "forensic-%06d-%s" % (seq, _safe_kind(kind))
            path = self.directory / (bundle_id + ".json")
            tmp = self.directory / (bundle_id + ".json.tmp")
            tmp.write_bytes(body)
            os.replace(tmp, path)
            self._evict()
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats["captures"] += 1
        if self._metrics is not None:
            self._metrics.counter("forensics_captures_total",
                                  kind=_safe_kind(kind)).inc()
            self._metrics.histogram("forensics_capture_seconds").observe(
                elapsed)
        return bundle_id

    def _evict(self) -> None:
        """Delete oldest bundles until both bounds hold (``_fs_lock``
        held).  The newest bundle is never evicted, so a single
        over-budget bundle still lands."""
        bundles = self.list_bundles()  # newest first
        total = sum(entry["bytes"] for entry in bundles)
        evicted = 0
        while len(bundles) > 1 and (
                total > self.config.disk_budget_bytes
                or len(bundles) > self.config.max_bundles):
            victim = bundles.pop()  # oldest
            try:
                (self.directory / (victim["id"] + ".json")).unlink()
            except OSError:
                pass
            total -= victim["bytes"]
            evicted += 1
        with self._lock:
            self.stats["evicted"] += evicted
            self.stats["bundles"] = len(bundles)
            self.stats["bytes"] = total
        if evicted and self._metrics is not None:
            self._metrics.counter("forensics_evicted_total").inc(evicted)
        self._set_gauges(len(bundles), total)

    def _refresh_disk_stats(self) -> None:
        bundles = self.list_bundles()
        total = sum(entry["bytes"] for entry in bundles)
        with self._lock:
            self.stats["bundles"] = len(bundles)
            self.stats["bytes"] = total
        self._set_gauges(len(bundles), total)

    def _set_gauges(self, bundles: int, total: int) -> None:
        if self._metrics is not None:
            self._metrics.gauge("forensics_bundles").set(bundles)
            self._metrics.gauge("forensics_bytes").set(total)

    # ----------------------------------------------------------- the bundle

    def _build_bundle(self, kind: str, reason: str,
                      alert: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        db = self.db
        config = self.config
        now = time.time()
        bundle: Dict[str, Any] = {
            "format": "hipac-forensics/1",
            "kind": kind,
            "reason": reason,
            "trigger": alert,
            "wall": now,
            "envelope": {
                "pid": os.getpid(),
                "python": sys.version.split()[0],
                "uptime": now - getattr(db, "_started_at", now),
                "started_at": getattr(db, "_started_at", None),
                "config": self._env,
                "forensics": dataclasses.asdict(config),
            },
        }
        bundle["health"] = db.health()
        bundle["stats"] = db.stats()
        bundle["derived"] = db.admin_stats().get("derived", {})
        bundle["alerts"] = [
            alert.as_dict()
            for alert in db.watchdog.alerts()[-config.alerts_last:]]
        bundle["slo"] = db.slo.as_dict() if db.slo is not None else None
        bundle["timeseries"] = (
            db.timeseries.as_dict(last=config.timeseries_last)
            if db.timeseries is not None else None)
        bundle["slowlog"] = [
            {"kind": entry.kind, "name": entry.name,
             "seconds": entry.seconds, "threshold": entry.threshold,
             "tags": dict(entry.tags)}
            for entry in db.slow_log.entries()[-config.slowlog_last:]]
        bundle["profile"] = db.rule_profiler().as_dict(top=config.profile_top)
        bundle["firings"] = [
            {"rule": firing.rule_name, "event": firing.event,
             "ec": firing.ec_coupling, "ca": firing.ca_coupling,
             "satisfied": firing.satisfied, "executed": firing.executed,
             "deferred": firing.deferred,
             "separate": firing.separate_thread, "error": firing.error,
             "wall": firing.wall_time}
            for firing in db.firing_log().all()[-config.firings_last:]]
        bundle["provenance"] = (db.provenance.stats_snapshot()
                                if db.provenance is not None else None)
        bundle["journal"] = self._journal_section()
        bundle["threads"] = _thread_dumps()
        return bundle

    def _journal_section(self) -> Optional[Dict[str, Any]]:
        recorder = getattr(self.db, "flight_recorder", None)
        if recorder is None:
            return None
        # Flush first so the on-disk journal really contains last_seq and
        # the bisection command below is runnable as printed.
        recorder.flush()
        recent = recorder.recent(last=1 << 30)
        seqs = [record.get("seq") for record in recent
                if record.get("seq") is not None]
        last_seq = recorder.stats.get("last_seq", 0)
        data_dir = Path(recorder.segment_path).parent.parent
        section: Dict[str, Any] = {
            "dir": str(Path(recorder.segment_path).parent),
            "segment": str(recorder.segment_path),
            "last_seq": last_seq,
            "tail_first_seq": min(seqs) if seqs else None,
            "tail_last_seq": max(seqs) if seqs else None,
            "records": recorder.stats.get("records", 0),
        }
        if last_seq:
            section["replay_command"] = (
                "python -m repro.tools.replay %s --diff --until %d"
                % (data_dir, last_seq))
        return section


def _safe_kind(kind: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", kind) or "unknown"


def _thread_dumps() -> List[Dict[str, Any]]:
    """Per-thread stack dumps: what every thread was doing at capture."""
    names = {thread.ident: thread.name for thread in threading.enumerate()}
    # CPython before 3.12.4 (gh-106883) builds this dict under the runtime's
    # thread-list lock; a collection started by one of its allocations can
    # release the GIL (a finalizer, a file closed by dealloc) to a thread
    # that is starting or exiting, which then waits for that lock holding
    # the GIL — the whole process stops.  No collection in there.
    collecting = gc.isenabled()
    gc.disable()
    try:
        frames = sys._current_frames()
    finally:
        if collecting:
            gc.enable()
    dumps = []
    for ident, frame in sorted(frames.items()):
        dumps.append({
            "thread_id": ident,
            "name": names.get(ident, "?"),
            "stack": [line.rstrip("\n")
                      for line in traceback.format_stack(frame)],
        })
    return dumps
