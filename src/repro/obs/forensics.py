"""Incident forensics: black-box snapshot bundles captured at the moment
something goes wrong.

The system keeps rich live telemetry — metrics, the firing log, the
watchdog, the flight journal, provenance, windowed SLOs — but all of it is pull-only
and ring-bounded: when a rule storm or SLO breach happens at 3am, the
evidence has rotated out of the rings long before anyone scrapes an
endpoint.  The paper itself flags rule tracing and debugging as the
unsolved operational problem of active databases (§7); this module is
the operational half of the answer (``repro.tools.doctor`` is the
analytic half).

A :class:`ForensicsRecorder` hangs off the watchdog's alert callbacks
(and the WAL's append-failure hook).  When an alert fires it captures a
**snapshot bundle** — one JSON file under ``data_dir/forensics/``
freezing everything a diagnosis needs.  A bundle is the diagnosis
document :meth:`HiPAC.snapshot() <repro.core.hipac.HiPAC.snapshot>`
builds — health, stats, alerts, SLO states, timeseries windows, slow
log, rule profile, firing-log tail, provenance stats, and the
flight journal's newest seq with a ready-to-paste ``replay --until SEQ``
bisection command — with every ring bounded by :data:`SNAPSHOT_LAST`
(also the default ``last`` of ``HiPAC.snapshot()`` and ``/snapshot``),
plus:

* the capture's ``format``, ``kind``, ``reason``, ``trigger`` alert and
  ``wall`` time,
* a config/uptime envelope (how the instance was built),
* per-thread stack dumps via ``sys._current_frames()`` (what every
  thread was doing at capture time).

``GET /snapshot`` serves the same document live, so
``python -m repro.tools.doctor`` diagnoses a bundle and a running
instance alike.

Operational discipline, because a recorder that worsens the incident it
records is worse than none:

* **debounced per alert kind** — a storm that re-alerts every second
  yields one bundle per ``DEBOUNCE_SECONDS``, not hundreds;
* **off the hot path** — alert callbacks run on whichever thread
  detected the anomaly (the signalling thread, a lock waiter, the
  ticker); the callback only enqueues, and a lazy-started daemon worker
  does the actual capture, so an armed-but-idle recorder costs nothing
  but the callback registration;
* **bounded on disk** — a budget in bytes plus a bundle-count cap
  (``DISK_BUDGET_BYTES``, ``MAX_BUNDLES``), enforced by oldest-first
  eviction after every write (the newest bundle always survives, even
  when it alone exceeds the budget);
* **failure-isolated** — a capture error increments the
  ``capture_errors`` stat and never propagates into the thread that
  signalled the alert.

Writes are atomic (temp file + ``os.replace``) so a reader listing the
directory never sees a torn bundle.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import re
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

#: capture kinds beyond the watchdog's own alert kinds
MANUAL = "manual"
WAL_FAILURE = "wal_failure"

_BUNDLE_RE = re.compile(r"^forensic-(\d{6})-([A-Za-z0-9_.-]+)\.json$")
_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: minimum seconds between two captures of the same kind (a re-alerting
#: storm yields one bundle per interval)
DEBOUNCE_SECONDS = 30.0
#: oldest-first eviction keeps ``data_dir/forensics/`` under both bounds
DISK_BUDGET_BYTES = 32 * 1024 * 1024
MAX_BUNDLES = 64
#: how many entries of each bounded ring a bundle keeps; windows
#: dominate a bundle's size.  ``HiPAC.snapshot()`` takes it as its default
#: ``last`` (this module does not import the facade, which imports it)
SNAPSHOT_LAST = 120

#: the keys of :meth:`ForensicsRecorder.stats_snapshot`, the
#: ``stats()["forensics"]`` section
STATS_KEYS = ("captures", "capture_errors", "debounced", "evicted",
              "bundles", "bytes")


class ForensicsRecorder:
    """Captures snapshot bundles to ``data_dir/forensics/`` on incident.

    Wired by :class:`~repro.core.hipac.HiPAC` when constructed with
    ``forensics=True``: the watchdog's alert callback feeds
    :meth:`on_alert`, the WAL's append-failure hook feeds
    :meth:`on_wal_failure`, and the admin server's ``/forensics`` endpoint
    lists, downloads, and manually triggers bundles.
    """

    def __init__(self, db: Any, data_dir: Any,
                 metrics: Optional[Any] = None,
                 env: Optional[Dict[str, Any]] = None) -> None:
        self.db = db
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
        bundles = self.list_bundles()
        self._seq = bundles[0]["seq"] if bundles else 0
        self.stats: Dict[str, int] = dict.fromkeys(STATS_KEYS, 0)
        self.stats["bundles"] = len(bundles)
        self.stats["bytes"] = sum(entry["bytes"] for entry in bundles)

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
            if last is not None and now - last < DEBOUNCE_SECONDS:
                self.stats["debounced"] += 1
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
        return list_bundles(self.directory)

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
        """Mixed-type summary for the snapshot's ``forensics`` section,
        which ``top`` shows (keep strings out of :meth:`HiPAC.stats` —
        the Prometheus exporter floats every collected stat)."""
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
                total > DISK_BUDGET_BYTES or len(bundles) > MAX_BUNDLES):
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

    # ----------------------------------------------------------- the bundle

    def _build_bundle(self, kind: str, reason: str,
                      alert: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        db = self.db
        bundle = db.snapshot(last=SNAPSHOT_LAST)
        bundle.update({
            "format": "hipac-forensics/1",
            "kind": kind,
            "reason": reason,
            "trigger": alert,
            "wall": bundle["time"],
            "envelope": {
                "pid": os.getpid(),
                "python": sys.version.split()[0],
                "uptime": bundle["uptime"],
                "started_at": db._started_at,
                "config": self._env,
                "forensics": {"debounce_seconds": DEBOUNCE_SECONDS,
                              "disk_budget_bytes": DISK_BUDGET_BYTES,
                              "max_bundles": MAX_BUNDLES,
                              "last": SNAPSHOT_LAST},
            },
            "threads": _thread_dumps(),
        })
        return bundle


def list_bundles(directory: Any) -> List[Dict[str, Any]]:
    """The bundles in a forensics directory, newest (highest seq) first:
    id, seq, kind, wall time, size."""
    out: List[Dict[str, Any]] = []
    for path in Path(directory).glob("forensic-*.json"):
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
