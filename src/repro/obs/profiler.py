"""Per-rule cost attribution: fold the firing log into rule profiles.

The metrics registry answers "where does the time go *by operation
kind*"; a production rule base needs the orthogonal cut: "which **rule**
is costing me".  The profiler folds the firing log into per-rule
aggregates:

* at every observability level: fire counts, condition selectivity
  (satisfied / evaluated — a rule whose condition almost never holds is
  pure dispatch overhead), action executions, errors, coupling mix, and
  the triggered-by / triggers edges of the actual runtime cascade (each
  firing's ``cause``) — the observed counterpart of the static triggering
  graph in :mod:`repro.tools.analysis`;
* under ``observability="trace"`` (each firing's ``timing``), wall-clock
  cost: for every firing, its *cascade-inclusive* time (the firing plus
  everything it transitively caused, detached deferred/separate work
  included) and its *self* time (inclusive minus the nested firings it
  triggered).

Times follow causality (§3.2): an immediate nested firing ran *inside*
its parent's action (the suspension protocol), so its time is subtracted
from the parent's self time; a deferred or separate firing ran detached
(after the parent's action ended, or on another thread), so its inclusive
time is *added* to the parent's cascade-inclusive total instead.  A
firing whose cause the log no longer holds counts as triggered by its own
event.

Without timing the counts and edges are exact and the timing columns are
empty — the report says so rather than printing zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # import cycle: rules.firing -> conditions -> ... -> obs
    from repro.rules.firing import FiringLog, RuleFiring


def percentile_of(sorted_values: List[float], q: float) -> float:
    """Exact percentile (nearest-rank with interpolation) of a sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = rank - low
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * fraction


@dataclass
class RuleProfile:
    """Aggregated cost and behavior of one rule."""

    name: str
    #: counts from the firing log
    firings: int = 0
    evaluated: int = 0      #: firings whose condition was actually evaluated
    satisfied: int = 0
    executed: int = 0
    errors: int = 0
    deferred: int = 0
    separate: int = 0
    #: wall-clock time of the oldest/newest firing in the log (0.0 if
    #: none) — lets dashboards and replay diffs place a rule's activity
    #: window on a cross-process clock
    first_wall: float = 0.0
    last_wall: float = 0.0
    #: wall-clock seconds per timed firing (empty without "trace")
    self_seconds: List[float] = field(default_factory=list, repr=False)
    inclusive_seconds: List[float] = field(default_factory=list, repr=False)
    #: observed cascade edges: rule/event -> number of firings it caused
    triggered_by: Dict[str, int] = field(default_factory=dict)
    triggers: Dict[str, int] = field(default_factory=dict)

    @property
    def selectivity(self) -> Optional[float]:
        """Fraction of evaluated conditions that held (None if never
        evaluated — e.g. every firing errored before evaluation)."""
        if self.evaluated == 0:
            return None
        return self.satisfied / self.evaluated

    @property
    def total_inclusive(self) -> float:
        return sum(self.inclusive_seconds)

    @property
    def total_self(self) -> float:
        return sum(self.self_seconds)

    def timing(self) -> Dict[str, float]:
        """p50/p95/p99/p99.9 of self and cascade-inclusive seconds (0.0 if
        untimed) — the far tail is where a misbehaving cascade shows first."""
        self_sorted = sorted(self.self_seconds)
        incl_sorted = sorted(self.inclusive_seconds)
        return {
            "self_p50": percentile_of(self_sorted, 50),
            "self_p95": percentile_of(self_sorted, 95),
            "self_p99": percentile_of(self_sorted, 99),
            "self_p999": percentile_of(self_sorted, 99.9),
            "inclusive_p50": percentile_of(incl_sorted, 50),
            "inclusive_p95": percentile_of(incl_sorted, 95),
            "inclusive_p99": percentile_of(incl_sorted, 99),
            "inclusive_p999": percentile_of(incl_sorted, 99.9),
            "self_total": sum(self_sorted),
            "inclusive_total": sum(incl_sorted),
        }


class RuleProfiler:
    """Folds a firing log into rule profiles."""

    def __init__(self, firings: FiringLog) -> None:
        self._firings = firings

    # ------------------------------------------------------------- folding

    def profiles(self) -> Dict[str, RuleProfile]:
        """One :class:`RuleProfile` per rule seen in the firing log."""
        profiles: Dict[str, RuleProfile] = {}
        records = self._firings.all()
        by_id = {record.firing_id: record for record in records}
        caused: Dict[int, List[RuleFiring]] = {}
        roots: List[RuleFiring] = []
        for record in records:
            profile = profiles.get(record.rule_name)
            if profile is None:
                profile = profiles[record.rule_name] = RuleProfile(
                    record.rule_name)
            profile.firings += 1
            if profile.first_wall == 0.0 \
                    or record.wall_time < profile.first_wall:
                profile.first_wall = record.wall_time
            if record.wall_time > profile.last_wall:
                profile.last_wall = record.wall_time
            if record.satisfied is not None:
                profile.evaluated += 1
                if record.satisfied:
                    profile.satisfied += 1
            if record.executed:
                profile.executed += 1
            if record.error:
                profile.errors += 1
            if record.deferred:
                profile.deferred += 1
            if record.separate_thread:
                profile.separate += 1
            cause = by_id.get(record.cause)
            if cause is None:
                # A stimulus, or a cause the ring has already evicted.
                source = "event:%s" % record.event
                roots.append(record)
            else:
                # The cause was logged first, so its profile exists.
                source = cause.rule_name
                caused.setdefault(cause.firing_id, []).append(record)
                triggers = profiles[source].triggers
                triggers[record.rule_name] = \
                    triggers.get(record.rule_name, 0) + 1
            profile.triggered_by[source] = \
                profile.triggered_by.get(source, 0) + 1
        for record in roots:
            if record.timing is not None:
                self._fold(record, caused, profiles)
        return profiles

    def _fold(self, record: RuleFiring, caused: Dict[int, List[RuleFiring]],
              profiles: Dict[str, RuleProfile]) -> Tuple[float, float]:
        """Time one firing and the timed firings it caused; returns
        ``(inclusive, detached_tail)``.

        A firing's *synchronous extent* is its condition phase plus its
        action phase — they never overlap and both are this rule's
        wall-clock cost.  ``inclusive`` adds everything the firing
        transitively caused; ``detached_tail`` is the part of
        ``inclusive`` that ran outside the extent (deferred firings at
        commit, separate threads) — the caller needs it because a nested
        child's detached tail is *not* covered by the parent's extent
        either.
        """
        phases = [phase for phase in record.timing if phase is not None]
        sync = sum(end - start for _, start, end in phases)
        extent_end = max(end for _, _, end in phases)
        inclusive = sync
        overlapped = 0.0
        tail = 0.0
        for child in caused.get(record.firing_id, ()):
            if child.timing is None:
                continue
            child_inclusive, child_tail = self._fold(child, caused, profiles)
            if child.timing[0][1] < extent_end:
                # Nested immediate work: its synchronous part ran inside
                # this firing's extent (§6.2 suspension), so it is not
                # extra wall-clock — but its own detached tail is.
                overlapped += child_inclusive - child_tail
                inclusive += child_tail
                tail += child_tail
            else:
                # Detached (deferred at commit / separate thread): entirely
                # outside this firing's extent.
                inclusive += child_inclusive
                tail += child_inclusive
        profile = profiles[record.rule_name]
        profile.self_seconds.append(max(0.0, sync - overlapped))
        profile.inclusive_seconds.append(inclusive)
        return inclusive, tail

    # -------------------------------------------------------------- reports

    def hottest(self, top: int = 10) -> List[RuleProfile]:
        """Profiles ordered hottest first.

        With firing timing, heat is total cascade-inclusive seconds; without
        it, fire count (the best available proxy)."""
        profiles = list(self.profiles().values())
        profiles.sort(key=lambda p: (p.total_inclusive, p.firings, p.name),
                      reverse=True)
        return profiles[:top]

    def report(self, top: int = 10) -> str:
        """The top-N "hottest rules" table, plus cascade edges."""
        profiles = self.hottest(top)
        lines: List[str] = ["== rule profile (top %d) ==" % top]
        if self._firings.dropped:
            lines.append("(%d earlier firings dropped from the log;"
                         " counts are lower bounds)" % self._firings.dropped)
        if not profiles:
            lines.append("no firings recorded")
            return "\n".join(lines)
        timed = any(p.inclusive_seconds for p in profiles)
        header = "%-24s %8s %6s %6s %5s" % ("rule", "firings", "sat%",
                                            "exec", "err")
        if timed:
            header += " %9s %9s %9s %9s %9s %9s" % (
                "self p50", "self p95", "incl p50", "incl p95", "incl p99",
                "incl tot")
        lines.append(header)
        for profile in profiles:
            selectivity = profile.selectivity
            row = "%-24s %8d %6s %6d %5d" % (
                profile.name, profile.firings,
                ("-" if selectivity is None else "%d%%" % round(
                    selectivity * 100)),
                profile.executed, profile.errors)
            if timed:
                timing = profile.timing()
                row += " %8.3fm %8.3fm %8.3fm %8.3fm %8.3fm %8.1fm" % (
                    timing["self_p50"] * 1e3, timing["self_p95"] * 1e3,
                    timing["inclusive_p50"] * 1e3,
                    timing["inclusive_p95"] * 1e3,
                    timing["inclusive_p99"] * 1e3,
                    timing["inclusive_total"] * 1e3)
            lines.append(row)
        edges = [(profile.name, target, count)
                 for profile in profiles
                 for target, count in sorted(profile.triggers.items())]
        if edges:
            lines.append("-- cascade edges (observed) --")
            for source, target, count in edges:
                lines.append("%-24s -> %-24s %6d" % (source, target, count))
        if not timed:
            lines.append("(timing columns require observability=\"trace\")")
        return "\n".join(lines)

    def as_dict(self, top: Optional[int] = None) -> Dict[str, Any]:
        """JSON-safe profile summary (the admin ``/profile`` payload)."""
        profiles = self.hottest(top if top is not None else 1 << 30)
        out: Dict[str, Any] = {"dropped_firings": self._firings.dropped,
                               "rules": {}}
        for profile in profiles:
            out["rules"][profile.name] = {
                "firings": profile.firings,
                "evaluated": profile.evaluated,
                "satisfied": profile.satisfied,
                "executed": profile.executed,
                "errors": profile.errors,
                "deferred": profile.deferred,
                "separate": profile.separate,
                "selectivity": profile.selectivity,
                "triggers": dict(profile.triggers),
                "triggered_by": dict(profile.triggered_by),
                "timing": profile.timing(),
                "timed_firings": len(profile.inclusive_seconds),
                "first_wall": profile.first_wall,
                "last_wall": profile.last_wall,
            }
        return out
