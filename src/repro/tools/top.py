"""``python -m repro.tools.top`` — a live terminal dashboard for a served
HiPAC instance.

Each frame is one ``GET /snapshot`` (:data:`SNAPSHOT_QUERY`): the watchdog
verdict and SLO states from its ``health`` section, the live gauges and
the last forensics capture from ``derived`` and ``forensics``, and rates
from the ``timeseries`` section the server's ticker fills — the
aggregate of its windows for the rate, one sparkline glyph per window,
and the aggregate commit-latency percentiles — all from the *server's*
clock, however slowly this poller runs.  With the ticker off
(``observability=False``) the section is ``None`` and the frame says so
instead of showing rates.

Stdlib only (urllib + ANSI escapes); ``--plain`` disables cursor control
for dumb terminals and log capture.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

#: the one request a frame makes
SNAPSHOT_QUERY = ("/snapshot?sections=time,uptime,health,stats,derived,"
                  "forensics,timeseries&last=60")

#: counters whose windowed deltas become the rate rows, as (label, name):
#: the timeseries windows flatten ``stats()[section][key]`` to
#: ``<section>_<key>`` in their ``collected`` deltas.
RATE_ROWS: Tuple[Tuple[str, str], ...] = (
    ("rule firings/s", "rules_triggered"),
    ("conditions/s", "rules_conditions_evaluated"),
    ("actions/s", "rules_actions_executed"),
    ("deferred queued/s", "rules_deferred_queued"),
    ("txn commits/s", "transactions_committed"),
    ("txn aborts/s", "transactions_aborted"),
    ("db events/s", "events_database_reported"),
    ("lock waits/s", "locks_waited"),
    ("prov published/s", "provenance_published"),
    ("why queries/s", "provenance_why_queries"),
)

SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 20) -> str:
    """Render a rate series as unicode block glyphs, newest right.

    Scaled to the series' own max (an all-zero series is a flat
    baseline); longer series keep the newest ``width`` points."""
    if not values:
        return ""
    values = values[-width:]
    peak = max(values)
    if peak <= 0:
        return SPARK_GLYPHS[0] * len(values)
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((value / peak) * top + 0.5))]
        for value in values)


def fetch(url: str, timeout: float = 5.0) -> Dict[str, Any]:
    """GET ``url`` and decode the JSON body."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def timeseries_rows(series: Dict[str, Any]
                    ) -> List[Tuple[str, float, str]]:
    """(label, rate, sparkline) rows from the snapshot's ``timeseries``
    section.

    The rate is the aggregate of the section's windows; the sparkline is
    the per-window rate series, one glyph per ticker window, newest on
    the right."""
    windows = series.get("windows", [])
    collected = series.get("aggregate", {}).get("collected", {})
    rows = []
    for label, name in RATE_ROWS:
        spark = [window.get("collected", {}).get(name, 0.0)
                 / max(float(window.get("dt", 0.0)), 1e-9)
                 for window in windows]
        rows.append((label, float(collected.get(name, {}).get("rate", 0.0)),
                     sparkline(spark)))
    return rows


def commit_latency(series: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The aggregate ``txn_commit_seconds`` summary, if any commits landed
    in the section's windows (labeled families match by base name)."""
    histograms = series.get("aggregate", {}).get("histograms", {})
    for name, summary in histograms.items():
        if name.split("{", 1)[0] == "txn_commit_seconds" \
                and summary.get("count"):
            return summary
    return None


def render(snapshot: Dict[str, Any]) -> str:
    """One dashboard frame, as plain text, from a ``/snapshot`` payload
    holding the sections of :data:`SNAPSHOT_QUERY`."""
    lines = []
    health = snapshot.get("health") or {}
    uptime = float(snapshot.get("uptime", 0.0))
    lines.append("hipac top — status %s — uptime %s"
                 % (health.get("status", "?"), format_duration(uptime)))
    derived = snapshot.get("derived", {})
    lines.append("live txns %-6d deferred queue %-6d"
                 % (derived.get("live_transactions", 0),
                    derived.get("deferred_queue_depth", 0)))
    incident = incident_line(snapshot)
    if incident:
        lines.append(incident)
    provenance = snapshot.get("stats", {}).get("provenance")
    if provenance:
        lines.append("prov entries %-6d evicted %-8d ~%s"
                     % (provenance.get("live_entries", 0),
                        provenance.get("evicted", 0),
                        format_bytes(provenance.get("approx_bytes", 0))))
    series = snapshot.get("timeseries")
    if series is None:
        lines.append("  (timeseries ticker off: no rates;"
                     " the instance runs with observability=False)")
    elif not series.get("windows"):
        lines.append("  (waiting for the first ticker window...)")
    else:
        rows = timeseries_rows(series)
        width = max(len(label) for label, _, _ in rows)
        for label, rate, spark in rows:
            lines.append("  %-*s %10.1f  %s" % (width, label, rate, spark))
        latency = commit_latency(series)
        if latency:
            lines.append("commit latency (windowed): p50 %.2fms  p95 %.2fms"
                         "  p99 %.2fms  p99.9 %.2fms  (%d commits)"
                         % (latency.get("p50", 0.0) * 1e3,
                            latency.get("p95", 0.0) * 1e3,
                            latency.get("p99", 0.0) * 1e3,
                            latency.get("p999", 0.0) * 1e3,
                            latency.get("count", 0)))
    slo = health.get("slo")
    if slo:
        burning = [(name, state)
                   for name, state in sorted(
                       slo.get("objectives", {}).items())
                   if state != "ok"]
        line = "slo: %s" % slo.get("state", "?")
        if burning:
            line += "  (%s)" % ", ".join("%s=%s" % pair
                                         for pair in burning)
        lines.append(line)
    total = health.get("alerts_total", 0)
    if total:
        lines.append("alerts: %d total" % total)
        for alert in health.get("recent", [])[-3:]:
            lines.append("  [%s] %s: %s" % (
                alert.get("severity", "?"), alert.get("kind", "?"),
                alert.get("message", "")))
    return "\n".join(lines)


def incident_line(snapshot: Dict[str, Any]) -> str:
    """The incident status line: most recent watchdog alert plus the
    last forensics capture (kind + age), when either subsystem has
    something to say.  Ages come from the server's own clock."""
    now = float(snapshot.get("time", 0.0))
    bits = []
    recent = (snapshot.get("health") or {}).get("recent") or []
    if recent:
        alert = recent[-1]
        age = max(0.0, now - float(alert.get("timestamp") or now))
        bits.append("last alert [%s] %s %s ago"
                    % (alert.get("severity", "?"), alert.get("kind", "?"),
                       format_duration(age)))
    forensics = snapshot.get("forensics")
    if forensics:
        if forensics.get("last_kind"):
            age = max(0.0, now - float(forensics.get("last_wall") or now))
            bits.append("last capture %s %s ago (%d bundle(s), %s)"
                        % (forensics.get("last_kind"), format_duration(age),
                           forensics.get("bundles", 0),
                           format_bytes(forensics.get("bytes", 0))))
        else:
            bits.append("forensics armed, no captures")
    return " — ".join(bits)


def format_bytes(count: float) -> str:
    count = max(0.0, float(count))
    for unit in ("B", "KiB", "MiB"):
        if count < 1024:
            return "%.0f%s" % (count, unit)
        count /= 1024
    return "%.1fGiB" % count


def format_duration(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds < 60:
        return "%.0fs" % seconds
    if seconds < 3600:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.top",
        description="live dashboard over a HiPAC admin endpoint")
    parser.add_argument("--url", default="http://127.0.0.1:8787",
                        help="admin endpoint base URL (from serve_admin)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll interval in seconds")
    parser.add_argument("--iterations", type=int, default=0,
                        help="stop after N frames (0 = run until ^C)")
    parser.add_argument("--plain", action="store_true",
                        help="no ANSI cursor control (append frames)")
    args = parser.parse_args(argv)

    frames = 0
    try:
        while True:
            try:
                snapshot = fetch(args.url + SNAPSHOT_QUERY)
            except (urllib.error.URLError, OSError) as exc:
                print("cannot reach %s: %s" % (args.url, exc),
                      file=sys.stderr)
                return 1
            frame = render(snapshot)
            if args.plain:
                print(frame)
                print("---")
            else:
                # clear screen + home, then the frame
                sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
                sys.stdout.flush()
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
