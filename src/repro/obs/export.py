"""Render rule firings and metrics for external tools and for humans.

Three consumers, three formats:

* **Chrome ``trace_event`` JSON** (:func:`chrome_trace`) — load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see rule cascades on a
  timeline.  Each timed firing (``observability="trace"``) becomes a
  ``fire:<rule>`` complete ("ph": "X") event for its condition phase and
  an ``act:<rule>`` one for its action; causal parentage (a firing hangs
  off the action of its ``cause``, which for deferred/separate firings
  crosses both time and threads) travels in ``args.parent_id``, and a flow
  arrow ("s"/"f" pair) is emitted for every child that starts after its
  parent finished or on another thread, so Perfetto draws the action →
  deferred-firing causality explicitly.
* **Prometheus text format** (:func:`prometheus_text`) — histograms
  (cumulative ``le`` buckets, ``_sum``/``_count``), plus every
  collector-pulled component stat as an untyped sample.
* **Humans** (:func:`render_cascade`, :func:`metrics_report`) — an indented
  cascade of firings and a latency/throughput summary for a REPL or an
  incident.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, format_name

if TYPE_CHECKING:  # import cycle: rules.firing -> conditions -> ... -> obs
    from repro.rules.firing import FiringLog, Phase, RuleFiring

_US = 1e6  # seconds -> trace_event microseconds


def chrome_trace(firings: FiringLog) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from the timed firings of
    ``firings`` (firings without ``timing`` are skipped)."""
    timed = [record for record in firings.all() if record.timing is not None]
    acted = {record.firing_id: record.timing[1] for record in timed
             if record.timing[1] is not None}
    origin = min((record.timing[0][1] for record in timed), default=0.0)
    pid = os.getpid()
    events: List[Dict[str, Any]] = []

    def complete(name: str, cat: str, phase: Phase,
                 args: Dict[str, Any]) -> None:
        tid, start, end = phase
        events.append({"name": name, "cat": cat, "ph": "X",
                       "ts": (start - origin) * _US,
                       "dur": max(end - start, 0.0) * _US,
                       "pid": pid, "tid": tid, "args": args})

    def flow(parent: Phase, child: Phase) -> None:
        # Deferred/separate children detach in time or thread; a flow
        # arrow keeps the causal edge visible on the timeline.
        if child[0] == parent[0] and child[1] < parent[2]:
            return
        flow_id = len(events)  # unique: events only grows
        events.append({"name": "causes", "cat": "causal", "ph": "s",
                       "id": flow_id, "ts": (parent[1] - origin) * _US,
                       "pid": pid, "tid": parent[0]})
        events.append({"name": "causes", "cat": "causal", "ph": "f",
                       "bp": "e", "id": flow_id,
                       "ts": (child[1] - origin) * _US,
                       "pid": pid, "tid": child[0]})

    for record in timed:
        fid, (condition, action) = record.firing_id, record.timing
        cause = acted.get(record.cause)
        complete("fire:%s" % record.rule_name, "firing", condition, {
            "span_id": "fire:%d" % fid,
            "parent_id": None if cause is None else "act:%d" % record.cause,
            "firing_id": fid, "cause": record.cause,
            "rule": record.rule_name, "event": record.event,
            "ec": record.ec_coupling, "ca": record.ca_coupling,
            "deferred": record.deferred,
            "separate_thread": record.separate_thread,
            "satisfied": record.satisfied, "error": record.error,
            "txn": record.condition_txn})
        if cause is not None:
            flow(cause, condition)
        if action is not None:
            complete("act:%s" % record.rule_name, "action", action, {
                "span_id": "act:%d" % fid, "parent_id": "fire:%d" % fid,
                "firing_id": fid, "rule": record.rule_name,
                "txn": record.action_txn})
            flow(condition, action)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": {"tool": "repro.obs", "firings": len(timed)}}


def write_chrome_trace(firings: FiringLog, path: Any) -> Dict[str, Any]:
    """Write :func:`chrome_trace` output to ``path``; returns the document."""
    document = chrome_trace(firings)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    return document


# --------------------------------------------------------------- prometheus

#: help strings for the histogram families the system creates (exposed as
#: ``# HELP`` lines; families not listed get a generated fallback)
HELP_TEXTS: Dict[str, str] = {
    "rule_action_seconds": "Rule action execution latency (sampled)",
    "deferred_batch_size": "Deferred rule firings drained per commit round",
    "txn_commit_seconds":
        "Top-level commit latency including deferred rule processing",
    "txn_abort_seconds": "Transaction abort latency",
    "lock_wait_seconds": "Time lock requests spent blocked",
    "om_operation_seconds": "Object Manager operation latency (sampled)",
    "condition_eval_seconds": "Condition evaluation latency (sampled)",
    "wal_append_seconds": "WAL record append latency (sampled)",
    "wal_fsync_seconds": "WAL force (fsync) latency",
    "wal_group_batch_size":
        "Records made durable per group-commit leader fsync",
    "journal_append_seconds":
        "Flight-journal record append latency (sampled)",
    "journal_fsync_seconds": "Flight-journal background fsync latency",
    "provenance_why_seconds": "why() causal chain walk latency",
    "forensics_capture_seconds": "Snapshot bundle capture latency",
}


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_key(name: str) -> str:
    out = []
    for char in name:
        out.append(char if (char.isalnum() or char == "_") else "_")
    key = "".join(out)
    return key if not key[:1].isdigit() else "_" + key


def _escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote, and newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_sample_name(name: str, labels: Any) -> str:
    """Render ``name{k="v",...}`` with exposition-format label escaping
    (``labels`` is a ``((key, value), ...)`` tuple)."""
    if not labels:
        return name
    inner = ",".join('%s="%s"' % (_prom_key(key), _escape_label_value(value))
                     for key, value in labels)
    return "%s{%s}" % (name, inner)


def _family_header(lines: List[str], seen: set, name: str, raw_name: str,
                   kind: str) -> None:
    """Emit the ``# HELP`` / ``# TYPE`` pair once per metric family."""
    if name in seen:
        return
    seen.add(name)
    help_text = HELP_TEXTS.get(raw_name, "hipac metric %s" % raw_name)
    lines.append("# HELP %s %s" % (name, _escape_help(help_text)))
    lines.append("# TYPE %s %s" % (name, kind))


def prometheus_text(registry: MetricsRegistry,
                    prefix: str = "hipac_") -> str:
    """Render the registry in the Prometheus text exposition format.

    ``# HELP``/``# TYPE`` lines are emitted once per metric *family*
    (labeled children of one name share them), and label values are
    escaped per the format (``\\``, ``"``, newline) so rule names and
    event descriptions cannot corrupt the exposition.
    """
    lines: List[str] = []
    seen: set = set()
    for histogram in registry.instruments():
        name = prefix + _prom_key(histogram.name)
        labels = histogram.labels
        _family_header(lines, seen, name, histogram.name, "histogram")
        for bound, cumulative in histogram.buckets():
            bucket_labels = labels + (("le", _prom_value(bound)),)
            lines.append("%s %d" % (_prom_sample_name(name + "_bucket",
                                                      bucket_labels),
                                    cumulative))
        lines.append("%s %s" % (_prom_sample_name(name + "_sum", labels),
                                _prom_value(histogram.sum)))
        lines.append("%s %d" % (_prom_sample_name(name + "_count", labels),
                                histogram.count))
    for key, value in sorted(registry.collected().items()):
        name = prefix + _prom_key(key)
        _family_header(lines, seen, name, key, "untyped")
        lines.append("%s %s" % (name, _prom_value(float(value))))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------- humans

def render_cascade(firings: FiringLog,
                   root: Optional[RuleFiring] = None) -> str:
    """Render one rule cascade: the event behind ``root`` (default: the
    newest firing that no logged firing caused), then ``root`` and the
    firings it caused, one line each, children indented."""
    records = firings.all()
    ids = {record.firing_id for record in records}
    caused: Dict[int, List[RuleFiring]] = {}
    for record in records:
        if record.cause in ids:
            caused.setdefault(record.cause, []).append(record)
    if root is None:
        roots = [record for record in records if record.cause not in ids]
        if not roots:
            return ""
        root = roots[-1]
    lines = ["event:%s" % root.event]

    def walk(record: RuleFiring, indent: str) -> None:
        line = "%sfire:%s [%s/%s] satisfied=%s" % (
            indent, record.rule_name, record.ec_coupling,
            record.ca_coupling, record.satisfied)
        for label, phase in zip(("cond", "act"), record.timing or ()):
            if phase is not None:
                line += " %s=%.3fms" % (label, (phase[2] - phase[1]) * 1e3)
        if record.error:
            line += " error=%s" % record.error
        lines.append(line)
        for child in caused.get(record.firing_id, ()):
            walk(child, indent + "  ")

    walk(root, "  ")
    return "\n".join(lines)


def metrics_report(registry: MetricsRegistry,
                   slow_log: Optional[Any] = None) -> str:
    """Human-readable summary: latency percentiles, counts, slow log."""
    lines: List[str] = ["== metrics =="]
    histograms = registry.instruments()
    if histograms:
        lines.append("%-44s %9s %9s %9s %9s %9s %9s" % (
            "latency", "count", "mean", "p50", "p95", "p99", "p99.9"))
        for histogram in histograms:
            snap = histogram.snapshot()
            if snap["count"] == 0:
                continue
            lines.append("%-44s %9d %8.3fm %8.3fm %8.3fm %8.3fm %8.3fm" % (
                format_name(histogram.name, histogram.labels), snap["count"],
                snap["mean"] * 1e3, snap["p50"] * 1e3,
                snap["p95"] * 1e3, snap["p99"] * 1e3, snap["p999"] * 1e3))
    collected = registry.collected()
    if collected:
        lines.append("-- component stats --")
        for key, value in sorted(collected.items()):
            if value:
                lines.append("%-44s %12s" % (key, value))
    if slow_log is not None and len(slow_log):
        lines.append("-- slow log (newest) --")
        lines.append(slow_log.format())
    return "\n".join(lines)
