"""Observability: metrics registry, exporters, slow log, rule-cascade
profiler, alert log, admin HTTP endpoint.

One surface for "where does the time go" across the Figure 5.1
components — see :mod:`repro.obs.metrics` (histograms with percentiles,
plus the component ``stats`` pulled in by collectors),
:mod:`repro.obs.export` (Chrome ``trace_event`` JSON and rendered rule
cascades from the firing log, Prometheus text, human-readable reports),
:mod:`repro.obs.slowlog` (threshold-based slow-rule log),
:mod:`repro.obs.profiler` (per-rule cost attribution),
:mod:`repro.obs.watchdog` (the alert log that the cascade cut and the
:mod:`repro.obs.slo` objectives raise into), and :mod:`repro.obs.server`
(the admin endpoint behind ``HiPAC.serve_admin()``: ``/snapshot`` plus
the answers that document cannot give).  The causal
record of a rule cascade is the firing log itself
(:class:`~repro.rules.firing.RuleFiring` ``cause`` and ``timing``).
"""

from repro.obs.export import (
    chrome_trace,
    metrics_report,
    prometheus_text,
    render_cascade,
    write_chrome_trace,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profiler import RuleProfile, RuleProfiler, percentile_of
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, AdminServer
from repro.obs.slowlog import SlowEntry, SlowLog
from repro.obs.watchdog import Alert, Watchdog

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "AdminServer",
    "Alert",
    "Histogram",
    "MetricsRegistry",
    "RuleProfile",
    "RuleProfiler",
    "SlowEntry",
    "SlowLog",
    "Watchdog",
    "chrome_trace",
    "metrics_report",
    "percentile_of",
    "prometheus_text",
    "render_cascade",
    "write_chrome_trace",
]
