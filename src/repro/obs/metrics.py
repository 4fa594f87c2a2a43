"""Always-on metrics registry: fixed-bucket histograms plus collectors.

The Section 6 protocols say *which* component calls which; they say nothing
about where the time goes.  This registry is the system's single numeric
observability surface: every component records its hot-path timings here,
and every count or level has one owner — its component's ``stats`` dict —
folded in through pull-time *collectors* (so ``HiPAC.stats()``, the
Prometheus exposition and the timeseries windows read the same number, and
counting costs a dict increment, never an instrument call).

Design constraints, in order:

1. **Near-zero overhead.**  Instruments are looked up once (at component
   construction) and held; an ``observe`` on a disabled registry is a
   single attribute check; an enabled histogram observation is a bisect
   over ~16 bucket bounds plus plain stores into this thread's own shard —
   no lock is ever taken on the hot path.  Nothing is exported,
   serialized, or aggregated until someone asks (no sink attached = no
   work beyond the raw observations).
2. **Thread safety, by sharding.**  Separate-coupling firings record from
   worker threads; each recording thread owns a private shard (keyed by
   thread id) that no other thread writes, so unlocked read-modify-write
   is safe under the GIL.  Creating a shard and merging shards for a
   snapshot take the instrument's lock; snapshots taken *while* another
   thread records may trail by that thread's in-flight observation, and
   are exact once recording threads are quiesced (joined).
3. **Fixed memory.**  Histograms are fixed-bucket (no reservoir); the
   registry holds one instrument per (name, labels) pair, and one shard
   per recording thread.

Percentiles (p50/p95/p99) are estimated from the cumulative bucket counts
with linear interpolation inside the target bucket — the standard
Prometheus ``histogram_quantile`` estimate, computed locally.
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left
from threading import get_ident
from typing import Any, Callable, Dict, List, Optional, Tuple

#: default latency buckets (seconds): 10us .. 10s, roughly log-spaced
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: default size buckets (counts: batch sizes, queue depths)
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000, 10000,
)

#: the WAL's and the flight recorder's ``STATS_KEYS`` (their ``stats``):
#: here, beside the registry both import, so the facade zero-fills a
#: stream that is off without loading its module
WAL_STATS_KEYS = ("records", "bytes", "segments", "fsyncs", "syncs",
                  "group_leads", "group_follows", "batched_records",
                  "commits_forced", "append_failures")
JOURNAL_STATS_KEYS = ("records", "bytes", "segments", "rotations",
                      "dropped_segments", "fsyncs", "last_seq", "suppressed",
                      "checkpoint_markers")

#: stride for sampled latency histograms on microsecond-scale hot paths
#: (prime, so it can't lock onto small periodic workload patterns)
HOT_PATH_SAMPLE = 5

LabelItems = Tuple[Tuple[str, str], ...]


def format_name(name: str, labels: LabelItems) -> str:
    """Render ``name{k="v",...}`` (Prometheus style; bare name if no labels)."""
    if not labels:
        return name
    inner = ",".join('%s="%s"' % (key, value) for key, value in labels)
    return "%s{%s}" % (name, inner)


class _HistogramShard:
    """One thread's private slice of a histogram (unlocked writes)."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, buckets: int) -> None:
        self.counts = [0] * buckets
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class HistogramState:
    """A cheap immutable snapshot of a histogram's cumulative totals.

    Captured by :meth:`Histogram.state` (one shard merge, a tuple copy —
    no percentile math), subtracted by :meth:`Histogram.delta` to obtain
    *windowed* distributions: the bucket counts between two snapshots are
    exactly the observations recorded in that interval, so percentiles
    computed from the difference describe the window alone, not
    everything since boot.  This is what the timeseries ticker stores
    per tick (:mod:`repro.obs.timeseries`).
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self, counts: Tuple[int, ...], total: float,
                 count: int) -> None:
        self.counts = counts
        self.sum = total
        self.count = count

    def delta(self, previous: Optional["HistogramState"]) -> "HistogramState":
        """The observations recorded between ``previous`` and this state.

        ``previous=None`` means "since the beginning" (returns self).
        A negative difference (instrument recreated) degrades to this
        state's own totals rather than producing nonsense counts.
        """
        if previous is None:
            return self
        if previous.count > self.count:
            return self
        counts = tuple(now - then for now, then
                       in zip(self.counts, previous.counts))
        return HistogramState(counts, self.sum - previous.sum,
                              self.count - previous.count)

    def plus(self, other: Optional["HistogramState"]) -> "HistogramState":
        """The observations of this state and ``other`` together (two
        windows merged); ``other=None`` returns self."""
        if other is None:
            return self
        return HistogramState(
            tuple(a + b for a, b in zip(self.counts, other.counts)),
            self.sum + other.sum, self.count + other.count)


def percentile_from_counts(bounds: Tuple[float, ...],
                           counts: Tuple[int, ...], q: float,
                           vmin: Optional[float] = None,
                           vmax: Optional[float] = None) -> float:
    """Estimate the ``q``-th percentile (0..100) from bucket counts.

    Linear interpolation inside the bucket containing the target rank
    (the Prometheus ``histogram_quantile`` estimate).  ``vmin``/``vmax``
    tighten the winning bucket's range when the observed extremes fall
    inside it; without them (windowed deltas don't track extremes) the
    overflow bucket reports the highest finite bound.  Returns 0.0 when
    the counts are empty.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = (q / 100.0) * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        previous = cumulative
        cumulative += bucket_count
        if cumulative < target:
            continue
        if index >= len(bounds):
            return vmax if vmax is not None else bounds[-1]
        lower = bounds[index - 1] if index > 0 else 0.0
        upper = bounds[index]
        if vmin is not None and vmin > lower:
            lower = min(vmin, upper)
        if vmax is not None and vmax < upper:
            upper = max(vmax, lower)
        fraction = (target - previous) / bucket_count
        return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return vmax if vmax is not None else bounds[-1]


def window_quantile(bounds: Tuple[float, ...], window: HistogramState,
                    q: float) -> float:
    """The ``q``-th percentile (0..100) of the observations ``window``
    counts.

    Windowed deltas keep no extremes, so the overflow bucket is valued
    at the mean its observations must at least have: the window's sum
    less the most the finite buckets can hold, and never under the top
    bound.  A lone oversized observation is reported exactly.
    """
    counts = window.counts
    overflow = counts[-1] if window.count and bounds else 0
    vmax = None
    if overflow:
        held = sum(count * bound for count, bound in zip(counts, bounds))
        vmax = max(bounds[-1], (window.sum - held) / overflow)
    return percentile_from_counts(bounds, counts, q, vmax=vmax)


def window_summary(bounds: Tuple[float, ...],
                   window: HistogramState) -> Dict[str, float]:
    """Count, sum, mean and the p50/p95/p99/p99.9 estimates of the
    observations ``window`` counts (:func:`window_quantile` each)."""
    count = window.count
    return {
        "count": count,
        "sum": window.sum,
        "mean": (window.sum / count) if count else 0.0,
        "p50": window_quantile(bounds, window, 50),
        "p95": window_quantile(bounds, window, 95),
        "p99": window_quantile(bounds, window, 99),
        "p999": window_quantile(bounds, window, 99.9),
    }


class Histogram:
    """Fixed-bucket histogram with p50/p95/p99 estimation.

    ``bounds`` are the inclusive upper bounds of the finite buckets; one
    implicit overflow bucket catches everything larger.  ``observe`` is the
    only hot-path operation: it writes this thread's own shard without
    taking a lock (the lock guards shard creation and merging only).

    ``sample`` (default 1 = record everything) declares the instrument a
    *sampled* latency histogram: call sites ask :meth:`should_sample`
    before reaching for the clock, and only every ``sample``-th operation
    pays for the two ``perf_counter`` calls and the bucket update.  The
    stride is deterministic, so percentile estimates stay unbiased for any
    workload whose operation mix doesn't cycle with the stride (pick a
    prime).  This is how the instrument survives on microsecond-scale hot
    paths: timing *every* in-memory operation would cost more than the
    operation itself.
    """

    __slots__ = ("name", "labels", "sample", "_registry", "_lock", "_bounds",
                 "_shards", "_ticks")

    def __init__(self, registry: "MetricsRegistry", name: str,
                 labels: LabelItems,
                 bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
                 sample: int = 1) -> None:
        self.name = name
        self.labels = labels
        self.sample = max(1, int(sample))
        self._registry = registry
        self._lock = threading.Lock()
        self._bounds = tuple(bounds)
        self._shards: Dict[int, _HistogramShard] = {}
        self._ticks = itertools.count()

    def should_sample(self) -> bool:
        """Whether the call site should time this operation.

        False while the registry is disabled; otherwise true for one in
        every ``sample`` calls (the counter is GIL-atomic, so concurrent
        callers share the stride fairly).
        """
        if not self._registry.enabled:
            return False
        if self.sample == 1:
            return True
        return next(self._ticks) % self.sample == 0

    def observe(self, value: float) -> None:
        """Record one observation (no-op while the registry is disabled)."""
        if not self._registry.enabled:
            return
        shard = self._shards.get(get_ident())
        if shard is None:
            # New-key insertion resizes the dict: serialize it so a merge
            # iterating the shard table never sees a size change.
            with self._lock:
                shard = self._shards.setdefault(
                    get_ident(), _HistogramShard(len(self._bounds) + 1))
        shard.counts[bisect_left(self._bounds, value)] += 1
        shard.sum += value
        shard.count += 1
        if value < shard.min:
            shard.min = value
        if value > shard.max:
            shard.max = value

    def _merged(self) -> _HistogramShard:
        """Fold every thread's shard into one (taken under the lock)."""
        merged = _HistogramShard(len(self._bounds) + 1)
        with self._lock:
            for shard in self._shards.values():
                for index, bucket_count in enumerate(shard.counts):
                    merged.counts[index] += bucket_count
                merged.sum += shard.sum
                merged.count += shard.count
                if shard.min < merged.min:
                    merged.min = shard.min
                if shard.max > merged.max:
                    merged.max = shard.max
        return merged

    @property
    def count(self) -> int:
        return self._merged().count

    @property
    def sum(self) -> float:
        return self._merged().sum

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The finite bucket upper bounds (shared by delta consumers)."""
        return self._bounds

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0..100) from the buckets.

        Arbitrary ``q`` — p99.9 is ``percentile(99.9)``.  Linear
        interpolation inside the bucket containing the target rank; the
        overflow bucket reports the observed maximum.  Returns 0.0 for an
        empty histogram.
        """
        return self._percentile_of(self._merged(), q)

    def _percentile_of(self, merged: _HistogramShard, q: float) -> float:
        if merged.count == 0:
            return 0.0
        # The observed global min/max tighten the winning bucket's range
        # when the distribution's extremes fall inside it — in particular
        # a single-valued histogram reports that value exactly.
        return percentile_from_counts(self._bounds, tuple(merged.counts), q,
                                      vmin=merged.min, vmax=merged.max)

    def state(self) -> HistogramState:
        """A cheap cumulative snapshot for windowed-delta consumers.

        One shard merge and a tuple copy; no percentile math.  Pair two
        states with :meth:`HistogramState.delta` and feed the result to
        :func:`percentile_from_counts` for windowed tails.
        """
        merged = self._merged()
        return HistogramState(tuple(merged.counts), merged.sum, merged.count)

    def delta(self, previous: Optional[HistogramState],
              current: Optional[HistogramState] = None) -> Dict[str, float]:
        """Windowed summary between ``previous`` and ``current`` states.

        ``current=None`` snapshots now; the summary is
        :func:`window_summary`'s.
        """
        state = current if current is not None else self.state()
        return window_summary(self._bounds, state.delta(previous))

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus ``le`` style
        (the final pair's bound is ``inf``)."""
        merged = self._merged()
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self._bounds, merged.counts):
            cumulative += bucket_count
            out.append((bound, cumulative))
        cumulative += merged.counts[-1]
        out.append((float("inf"), cumulative))
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Count, sum, min/max, and the p50/p95/p99 estimates.

        ``count`` is the number of *recorded* observations — for a sampled
        histogram roughly one ``sample``-th of the operations (``sample``
        is included so readers can scale)."""
        merged = self._merged()
        count, total = merged.count, merged.sum
        return {
            "count": count,
            "sum": total,
            "sample": self.sample,
            "min": merged.min if count else 0.0,
            "max": merged.max if count else 0.0,
            "mean": (total / count) if count else 0.0,
            "p50": self._percentile_of(merged, 50),
            "p95": self._percentile_of(merged, 95),
            "p99": self._percentile_of(merged, 99),
            "p999": self._percentile_of(merged, 99.9),
        }


StatsCollector = Callable[[], Dict[str, float]]
"""Pull-time hook returning a flat ``name -> value`` mapping (component
stats dicts folded into the registry without hot-path cost)."""


class MetricsRegistry:
    """One observability surface for a HiPAC instance.

    ``enabled=False`` turns every instrument into an attribute-check no-op
    (the overhead-ablation mode of ``bench_obs_overhead.py``); components
    constructed standalone default to a disabled registry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelItems], Histogram] = {}
        self._collectors: List[StatsCollector] = []

    # ------------------------------------------------------- instruments

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  sample: int = 1,
                  **labels: str) -> Histogram:
        """Get or create a histogram (default: latency buckets in seconds).

        ``sample=N`` makes it a sampled latency histogram (see
        :class:`Histogram`); the stride is fixed by whichever call creates
        the instrument first."""
        items: LabelItems = tuple(sorted(
            (key, str(value)) for key, value in labels.items()))
        key = (name, items)
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(
                    self, name, items,
                    bounds=buckets or DEFAULT_LATENCY_BUCKETS, sample=sample)
                self._instruments[key] = instrument
            return instrument

    def instruments(self) -> List[Histogram]:
        """All registered histograms, sorted by rendered name."""
        with self._lock:
            return sorted(self._instruments.values(),
                          key=lambda m: format_name(m.name, m.labels))

    # -------------------------------------------------------- collectors

    def add_collector(self, collector: StatsCollector) -> None:
        """Register a pull-time stats source (flat ``name -> value``)."""
        with self._lock:
            self._collectors.append(collector)

    def collected(self) -> Dict[str, float]:
        """Pull every collector once and merge the results."""
        with self._lock:
            collectors = list(self._collectors)
        merged: Dict[str, float] = {}
        for collector in collectors:
            merged.update(collector())
        return merged

    # ------------------------------------------------------------- views

    def collect(self) -> Dict[str, Any]:
        """One structured snapshot of everything the registry knows."""
        return {
            "histograms": {format_name(h.name, h.labels): h.snapshot()
                           for h in self.instruments()},
            "collected": self.collected(),
        }
