"""Render spans and metrics for external tools and for humans.

Three consumers, three formats:

* **Chrome ``trace_event`` JSON** (:func:`chrome_trace`) — load the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see rule cascades on a
  timeline.  Every span becomes one complete ("ph": "X") event; causal
  parentage (which for deferred/separate firings crosses both time and
  threads) travels in ``args.parent_id``, and a flow arrow ("s"/"f" pair)
  is emitted for every child that starts after its parent finished, so
  Perfetto draws the event → deferred-firing causality explicitly.
* **Prometheus text format** (:func:`prometheus_text`) — histograms
  (cumulative ``le`` buckets, ``_sum``/``_count``), plus every
  collector-pulled component stat as an untyped sample.
* **Humans** (:func:`render_span_tree`, :func:`metrics_report`) — indented
  causal trees and a latency/throughput summary for a REPL or an incident.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry, format_name
from repro.obs.spans import Span, SpanRecorder

_US = 1e6  # seconds -> trace_event microseconds


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def chrome_trace(source: Any) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from spans.

    ``source`` may be a :class:`SpanRecorder` (all retained roots), a
    single root :class:`Span`, or a list of root spans.
    """
    if isinstance(source, SpanRecorder):
        roots = source.roots()
    elif isinstance(source, Span):
        roots = [source]
    else:
        roots = list(source)
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    flow_id = 0
    for root in roots:
        for span in root.walk():
            end = span.end if span.end is not None else span.start
            args: Dict[str, Any] = {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
            }
            for key, value in span.tags.items():
                args[key] = _json_safe(value)
            events.append({
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(end - span.start, 0.0) * _US,
                "pid": pid,
                "tid": span.tid,
                "args": args,
            })
            for child in span.children:
                # Deferred/separate children detach in time or thread; a
                # flow arrow keeps the causal edge visible on the timeline.
                detached = (child.tid != span.tid
                            or (span.end is not None
                                and child.start >= span.end))
                if not detached:
                    continue
                flow_id += 1
                events.append({
                    "name": "causes", "cat": "causal", "ph": "s",
                    "id": flow_id, "ts": span.start * _US,
                    "pid": pid, "tid": span.tid,
                })
                events.append({
                    "name": "causes", "cat": "causal", "ph": "f",
                    "bp": "e", "id": flow_id, "ts": child.start * _US,
                    "pid": pid, "tid": child.tid,
                })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "metadata": {"tool": "repro.obs", "spans": len(events)}}


def write_chrome_trace(source: Any, path: Any) -> Dict[str, Any]:
    """Write :func:`chrome_trace` output to ``path``; returns the document."""
    document = chrome_trace(source)
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
    "serving_latency_seconds":
        "Loadgen per-stimulus latency from scheduled send time",
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

def render_span_tree(span: Span, indent: str = "") -> str:
    """Render one causal tree, one line per span, children indented."""
    tag_text = "".join(
        " %s=%s" % (key, value) for key, value in sorted(span.tags.items())
        if value is not None)
    lines = ["%s%s [%s] %.3fms%s" % (indent, span.name, span.kind,
                                     span.duration * 1e3, tag_text)]
    for child in span.children:
        lines.append(render_span_tree(child, indent + "  "))
    return "\n".join(lines)


def metrics_report(registry: MetricsRegistry,
                   slow_log: Optional[Any] = None,
                   span_recorder: Optional[SpanRecorder] = None) -> str:
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
    if span_recorder is not None:
        lines.append("-- spans --")
        lines.append("retained roots: %d (dropped %d)" % (
            len(span_recorder.roots()), span_recorder.dropped))
    if slow_log is not None and len(slow_log):
        lines.append("-- slow log (newest) --")
        lines.append(slow_log.format())
    return "\n".join(lines)
