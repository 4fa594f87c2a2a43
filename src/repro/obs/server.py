"""Embedded admin HTTP endpoint: serve the telemetry to scrapers and humans.

PR 3 built the instruments; this module puts them on the wire.  A
:class:`AdminServer` wraps one HiPAC instance in a stdlib
``ThreadingHTTPServer`` on a daemon thread (``HiPAC.serve_admin(port=...)``)
and exposes:

* ``GET /metrics``  — Prometheus text exposition (scrape target);
* ``GET /health``   — JSON liveness: ``ok`` / ``degraded`` / ``failing``
  derived from the watchdog alert state and WAL append failures; the HTTP
  status mirrors it (200 while serving traffic is safe, 503 when failing)
  so load balancers can act on it without parsing the body;
* ``GET /stats``    — the full ``HiPAC.stats()`` tree as JSON, plus the
  live derived gauges (live transactions, deferred-queue depth) and
  server time, which the ``repro.tools.top`` dashboard polls for rates;
* ``GET /profile``  — per-rule cost attribution (JSON; ``?top=N`` bounds
  it, ``?format=text`` renders the hottest-rules table);
* ``GET /flight``   — flight-recorder journal stats plus the newest
  records (``?last=N``); ``?download=1`` streams the live journal segment
  (409 unless the instance was built with ``flight_recorder=True``);
* ``GET /timeseries`` — the windowed-telemetry ring (per-window counter
  deltas and histogram-delta percentiles; ``?last=N`` windows,
  ``?window=SECONDS`` adds a trailing aggregate) — rates and tails are
  computed server-side once, instead of by every scraper;
* ``GET /slo``      — declared objectives with burn rates and states
  (ok / burning / breached / recovered);
* ``GET /alerts``   — the watchdog's bounded alert ring as JSON
  (``?last=N``, ``?kind=<detector>``);
* ``GET /forensics`` — incident snapshot bundles (``?id=…`` fetches one,
  ``&download=1`` as attachment, ``?capture=1`` snapshots now; 409
  unless built with ``forensics=True``);
* ``GET /trace``    — the Chrome ``trace_event`` document of the retained
  span trees (only meaningful under ``observability="trace"``; otherwise
  409, because an empty trace would read as "nothing happened");
* ``GET /``         — a plain-text index of the above.

Handlers only *read*: every endpoint is pull-path aggregation (merging
histogram shards, folding the firing log), so scrapes cost the serving
thread, not the workload's hot path.  The server is concurrent
(thread-per-request, all daemons) and shuts down cleanly via
:meth:`AdminServer.close`, which ``HiPAC.close()`` calls too.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadParam(Exception):
    """A query parameter failed validation (rendered as HTTP 400)."""


def _int_param(query: Dict[str, Any], name: str, default: int) -> int:
    """Parse an integer query parameter.

    Absent parameters fall back to ``default``; a *present but
    non-integer* value is a client error (400), not a silent fallback —
    ``?top=ten`` answering as if ``?top=10`` had been asked misleads the
    caller.  Negative values clamp to zero (every current use is a
    count).
    """
    raw = query.get(name)
    if not raw:
        return default
    try:
        value = int(raw[0])
    except (TypeError, ValueError):
        raise _BadParam("query parameter %r expects an integer, got %r"
                        % (name, raw[0]))
    return max(0, value)


class _AdminHandler(BaseHTTPRequestHandler):
    """Routes one request against the owning server's HiPAC instance."""

    server_version = "hipac-admin/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (the request counter on the
        server is the observable)."""

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        db = self.server.db  # type: ignore[attr-defined]
        self.server.request_count += 1  # type: ignore[attr-defined]
        try:
            route = {
                "/": self._index,
                "/metrics": self._metrics,
                "/health": self._health,
                "/stats": self._stats,
                "/profile": self._profile,
                "/flight": self._flight,
                "/timeseries": self._timeseries,
                "/slo": self._slo,
                "/why": self._why,
                "/alerts": self._alerts,
                "/forensics": self._forensics,
                "/trace": self._trace,
            }.get(parsed.path)
            if route is None:
                self._send(404, "text/plain; charset=utf-8",
                           "unknown path %r\n%s" % (parsed.path,
                                                    _INDEX_TEXT))
                return
            route(db, query)
        except _BadParam as exc:
            self._send(400, "text/plain; charset=utf-8", str(exc))
        except Exception as exc:  # pragma: no cover - defensive 500 path
            self.server.error_count += 1  # type: ignore[attr-defined]
            try:
                self._send(500, "text/plain; charset=utf-8",
                           "internal error: %s" % exc)
            except Exception:
                pass

    # ------------------------------------------------------------ endpoints

    def _index(self, db: Any, query: Dict[str, Any]) -> None:
        self._send(200, "text/plain; charset=utf-8", _INDEX_TEXT)

    def _metrics(self, db: Any, query: Dict[str, Any]) -> None:
        self._send(200, PROMETHEUS_CONTENT_TYPE, db.prometheus_metrics())

    def _health(self, db: Any, query: Dict[str, Any]) -> None:
        health = db.health()
        status = 503 if health["status"] == "failing" else 200
        self._send_json(status, health)

    def _stats(self, db: Any, query: Dict[str, Any]) -> None:
        self._send_json(200, db.admin_stats())

    def _profile(self, db: Any, query: Dict[str, Any]) -> None:
        top = _int_param(query, "top", 10)
        if query.get("format", [""])[0] == "text":
            self._send(200, "text/plain; charset=utf-8",
                       db.rule_profile(top=top))
            return
        self._send_json(200, db.rule_profiler().as_dict(top=top))

    def _flight(self, db: Any, query: Dict[str, Any]) -> None:
        recorder = getattr(db, "flight_recorder", None)
        if recorder is None:
            self._send(409, "text/plain; charset=utf-8",
                       "flight recorder is off; construct the instance with"
                       " flight_recorder=True to journal stimuli")
            return
        if query.get("download", [""])[0]:
            # Binary segment frames — streamed as-is; read it back with
            # repro.storage.scan_segment.  Flush first: under the
            # bounded-window default the newest records are still queued
            # in recorder memory.
            recorder.flush()
            data = recorder.segment_path.read_bytes()
            self._send_bytes(200, "application/octet-stream", data,
                             extra_headers=(
                                 ("Content-Disposition",
                                  'attachment; filename="%s"'
                                  % recorder.segment_path.name),))
            return
        last = _int_param(query, "last", 50)
        self._send_json(200, {
            "stats": dict(recorder.stats),
            "segment": str(recorder.segment_path),
            "recent": recorder.recent(last),
        })

    def _timeseries(self, db: Any, query: Dict[str, Any]) -> None:
        ring = getattr(db, "timeseries", None)
        if ring is None:
            self._send(409, "text/plain; charset=utf-8",
                       "timeseries ticker is off; construct the instance"
                       " with observability on")
            return
        last = _int_param(query, "last", 60)
        window = _int_param(query, "window", 0)
        payload = ring.as_dict(
            last=last, aggregate_seconds=float(window) if window else None)
        self._send_json(200, payload)

    def _slo(self, db: Any, query: Dict[str, Any]) -> None:
        monitor = getattr(db, "slo", None)
        if monitor is None:
            self._send(409, "text/plain; charset=utf-8",
                       "SLO monitor is off; it requires the timeseries"
                       " ticker (observability on)")
            return
        self._send_json(200, monitor.as_dict())

    def _why(self, db: Any, query: Dict[str, Any]) -> None:
        if getattr(db, "provenance", None) is None:
            self._send(409, "text/plain; charset=utf-8",
                       "provenance is off; construct the instance with"
                       " provenance=True (or leave observability on)")
            return
        raw = query.get("oid", [""])[0]
        if not raw:
            raise _BadParam(
                "query parameter 'oid' is required (Class#N; URL-encode"
                " '#' as %23, or use the Class:N form)")
        from repro.obs.provenance import parse_oid
        try:
            oid = parse_oid(raw)
        except ValueError as exc:
            raise _BadParam(str(exc))
        attr = query.get("attr", [""])[0] or None
        depth = _int_param(query, "depth", 10)
        chain = db.why(oid, attr, depth=max(1, depth))
        self._send_json(200, chain.as_dict())

    def _alerts(self, db: Any, query: Dict[str, Any]) -> None:
        """The watchdog's bounded alert ring as JSON (``?last=N``,
        ``?kind=<detector>``) — always available: the watchdog stays on
        even with observability off."""
        last = _int_param(query, "last", 50)
        kind = query.get("kind", [""])[0] or None
        alerts = db.watchdog.alerts(kind)
        self._send_json(200, {
            "total": db.watchdog.stats.get("alerts_total", 0),
            "dropped": db.watchdog.dropped,
            "by_kind": {key[len("alerts_"):]: value
                        for key, value in db.watchdog.stats.items()
                        if key.startswith("alerts_")
                        and key != "alerts_total"},
            "alerts": [alert.as_dict() for alert in alerts[-last:]],
        })

    def _forensics(self, db: Any, query: Dict[str, Any]) -> None:
        recorder = getattr(db, "forensics", None)
        if recorder is None:
            self._send(409, "text/plain; charset=utf-8",
                       "forensics is off; construct the instance with"
                       " forensics=True to capture snapshot bundles")
            return
        if query.get("capture", [""])[0]:
            bundle_id = recorder.capture(kind="manual",
                                         reason="admin ?capture=1")
            if bundle_id is None:
                self._send(500, "text/plain; charset=utf-8",
                           "capture failed (see the capture_errors stat)")
                return
            self._send_json(200, {"captured": bundle_id,
                                  "stats": recorder.stats_snapshot()})
            return
        bundle_id = query.get("id", [""])[0]
        if bundle_id:
            try:
                data = recorder.read_bundle(bundle_id)
            except KeyError:
                self._send(404, "text/plain; charset=utf-8",
                           "no such bundle: %r" % bundle_id)
                return
            extra_headers: Tuple[Tuple[str, str], ...] = ()
            if query.get("download", [""])[0]:
                extra_headers = (("Content-Disposition",
                                  'attachment; filename="%s.json"'
                                  % bundle_id),)
            self._send_bytes(200, "application/json", data,
                             extra_headers=extra_headers)
            return
        last = _int_param(query, "last", 20)
        self._send_json(200, {"stats": recorder.status(),
                              "bundles": recorder.list_bundles()[:last]})

    def _trace(self, db: Any, query: Dict[str, Any]) -> None:
        if not db.spans.enabled:
            self._send(409, "text/plain; charset=utf-8",
                       "span recording is off; construct the instance with"
                       " observability=\"trace\" to download causal traces")
            return
        document = db.export_trace()
        body = json.dumps(document)
        self._send(200, "application/json",
                   body, extra_headers=(
                       ("Content-Disposition",
                        'attachment; filename="hipac-trace.json"'),))

    # ------------------------------------------------------------- plumbing

    def _send_json(self, status: int, payload: Any) -> None:
        self._send(status, "application/json",
                   json.dumps(payload, default=str, sort_keys=True))

    def _send(self, status: int, content_type: str, body: str,
              extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._send_bytes(status, content_type, body.encode("utf-8"),
                         extra_headers=extra_headers)

    def _send_bytes(self, status: int, content_type: str, data: bytes,
                    extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in extra_headers:
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(data)


_INDEX_TEXT = """hipac admin endpoint
  /metrics   Prometheus text exposition
  /health    liveness JSON (ok | degraded | failing; 503 when failing)
  /stats     full component stats JSON (polled by `python -m repro.tools.top`)
  /profile   per-rule cost attribution (?top=N, ?format=text)
  /flight    flight-recorder journal stats + recent records (?last=N,
             ?download=1 for the live segment; requires flight_recorder=True)
  /timeseries  windowed rates + delta percentiles JSON (?last=N windows,
             ?window=SECONDS for a trailing aggregate; requires the ticker)
  /slo       objective states + burn rates JSON (requires the ticker)
  /why       causal provenance chain JSON (?oid=Class%23N or Class:N,
             ?attr=, ?depth=N; requires provenance on)
  /alerts    watchdog alert ring JSON (?last=N, ?kind=<detector>)
  /forensics snapshot-bundle index JSON (?id=BUNDLE to fetch one,
             &download=1 as attachment, ?capture=1 to snapshot now;
             requires forensics=True; `python -m repro.tools.doctor`
             diagnoses a bundle)
  /trace     Chrome trace_event JSON (requires observability="trace")
"""


class AdminServer:
    """One HiPAC instance's admin endpoint, served from a daemon thread."""

    def __init__(self, db: Any, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.db = db
        self._httpd = ThreadingHTTPServer((host, port), _AdminHandler)
        self._httpd.daemon_threads = True
        self._httpd.db = db  # type: ignore[attr-defined]
        self._httpd.request_count = 0  # type: ignore[attr-defined]
        self._httpd.error_count = 0  # type: ignore[attr-defined]
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.1},
            name="hipac-admin-%d" % self.port, daemon=True)
        self._closed = False
        self._thread.start()

    @property
    def url(self) -> str:
        """Base URL of the endpoint (e.g. ``http://127.0.0.1:43215``)."""
        return "http://%s:%d" % (self.host, self.port)

    @property
    def running(self) -> bool:
        return not self._closed and self._thread.is_alive()

    @property
    def request_count(self) -> int:
        return self._httpd.request_count  # type: ignore[attr-defined]

    @property
    def error_count(self) -> int:
        return self._httpd.error_count  # type: ignore[attr-defined]

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop serving and join the server thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "AdminServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<AdminServer %s%s>" % (self.url,
                                       "" if self.running else " (closed)")
