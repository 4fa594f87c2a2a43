"""``python -m repro.tools.doctor`` — rule-based diagnosis over a
forensics bundle (or a live admin endpoint's ``/snapshot``).

The forensics recorder (:mod:`repro.obs.forensics`) freezes the
evidence; this tool turns it into a ranked findings report.  Each
heuristic keys off one incident signature the execution model invites:

* **rule storm** — names the hottest rule by firings and walks its
  trigger chain backwards along the profiler's ``triggered_by`` edges;
* **lock-wait p95 breach** — correlates the breached p95 with
  separate-coupling firing counts (separate firings contend with their
  triggering transactions for the same locks) and the lock manager's
  wait/timeout/deadlock counters;
* **deferred-depth alert** — names the transaction shape: which rules
  queued the deferred work that one commit then has to drain;
* **SLO burn** — locates the timeseries window where the objective
  left ``ok`` and lists the stats that moved with it;
* **cascade cut / WAL failure / firing errors** — critical or latent
  faults surfaced even when no alert carried them.

Every finding that can be tied to a flight-journal seq ends with the
ready-to-paste ``replay --until SEQ`` bisection command.

Usage::

    python -m repro.tools.doctor data_dir/forensics/forensic-000001-rule_storm.json
    python -m repro.tools.doctor data_dir            # newest bundle
    python -m repro.tools.doctor --url http://127.0.0.1:8787   # /snapshot
    python -m repro.tools.doctor --smoke             # self-check (CI)

Stdlib only; ``--json`` emits the findings machine-readably.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.forensics import list_bundles
from repro.tools.top import fetch

SEVERITY_RANK = {"critical": 2, "warning": 1, "info": 0}


@dataclass
class Finding:
    """One ranked diagnosis."""

    kind: str                 #: incident signature (e.g. "rule_storm")
    severity: str             #: "critical" | "warning" | "info"
    score: float              #: within-severity rank (higher = first)
    title: str                #: one-line verdict
    details: List[str] = field(default_factory=list)
    rule: Optional[str] = None        #: guilty rule, when one is named
    journal_seq: Optional[int] = None
    command: Optional[str] = None     #: replay bisection command

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "severity": self.severity,
                "score": self.score, "title": self.title,
                "details": list(self.details), "rule": self.rule,
                "journal_seq": self.journal_seq, "command": self.command}

    def format(self, index: int) -> str:
        lines = ["%2d. [%s] %s — %s" % (index, self.severity, self.kind,
                                        self.title)]
        lines.extend("      %s" % line for line in self.details)
        if self.command:
            lines.append("      bisect: %s" % self.command)
        return "\n".join(lines)


# --------------------------------------------------------------- heuristics


def diagnose(bundle: Dict[str, Any]) -> List[Finding]:
    """Run every heuristic over ``bundle``; findings ranked most-urgent
    first (severity, then score)."""
    findings: List[Finding] = []
    for heuristic in (_storm, _cascade, _lock_wait, _deferred, _slo_burn,
                      _wal_failure, _firing_errors):
        findings.extend(heuristic(bundle))
    findings.sort(key=lambda f: (SEVERITY_RANK.get(f.severity, 0), f.score),
                  reverse=True)
    if not findings:
        findings.append(Finding(
            kind="healthy", severity="info", score=0.0,
            title="no incident signatures found in this bundle",
            details=["watchdog alerts: %d" % len(bundle.get("alerts") or []),
                     "health status: %s"
                     % (bundle.get("health") or {}).get("status", "?")]))
    return findings


def _alerts_by_kind(bundle: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for alert in bundle.get("alerts") or []:
        grouped.setdefault(alert.get("kind", "?"), []).append(alert)
    return grouped


def _profile_rules(bundle: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return (bundle.get("profile") or {}).get("rules", {})


def _attach_bisection(finding: Finding, bundle: Dict[str, Any]) -> Finding:
    journal = bundle.get("journal") or {}
    seq = journal.get("last_seq")
    if seq:
        finding.journal_seq = seq
        finding.command = journal.get("replay_command")
    return finding


def _trigger_chain(rule: str, rules: Dict[str, Dict[str, Any]]) -> List[str]:
    """Walk a rule's dominant ``triggered_by`` edge backwards to the
    stimulus (every profile carries the edges, whatever the
    observability level)."""
    chain = [rule]
    seen = {rule}
    current = rule
    for _ in range(8):
        edges = (rules.get(current) or {}).get("triggered_by") or {}
        if not edges:
            break
        source = max(sorted(edges), key=lambda name: edges[name])
        chain.append(source)
        if source.startswith("event:") or source in seen:
            break
        seen.add(source)
        current = source
    return chain


def _storm(bundle: Dict[str, Any]) -> List[Finding]:
    alerts = _alerts_by_kind(bundle).get("rule_storm")
    if not alerts:
        return []
    alert = alerts[-1]
    rules = _profile_rules(bundle)
    details = ["%d storm alert(s); last: %s"
               % (len(alerts), alert.get("message", ""))]
    guilty = None
    if rules:
        guilty = max(sorted(rules),
                     key=lambda name: (rules[name].get("firings", 0),
                                       rules[name].get("executed", 0)))
        profile = rules[guilty]
        details.append(
            "hottest rule: %r — %d firings, %d actions executed, "
            "selectivity %.2f"
            % (guilty, profile.get("firings", 0),
               profile.get("executed", 0),
               profile.get("selectivity") or 0.0))
        chain = _trigger_chain(guilty, rules)
        if len(chain) > 1:
            details.append("trigger chain: %s" % " <- ".join(chain))
    value = float(alert.get("value") or 0.0)
    threshold = float(alert.get("threshold") or 1.0) or 1.0
    finding = Finding(
        kind="rule_storm", severity="warning",
        score=max(1.0, value / threshold) + 100.0,
        title=("rule %r is storming (%.1f firings/s, threshold %.1f/s)"
               % (guilty, value, threshold) if guilty else
               "rule firing storm (%.1f/s, threshold %.1f/s)"
               % (value, threshold)),
        details=details, rule=guilty)
    return [_attach_bisection(finding, bundle)]


def _cascade(bundle: Dict[str, Any]) -> List[Finding]:
    alerts = _alerts_by_kind(bundle).get("cascade_depth")
    if not alerts:
        return []
    alert = alerts[-1]
    stats = (bundle.get("stats") or {}).get("rules", {})
    finding = Finding(
        kind="cascade_depth", severity="critical",
        score=float(alert.get("value") or 0.0),
        title="a rule cascade hit the depth bound and was cut",
        details=[alert.get("message", ""),
                 "cascades cut so far: %d (max depth seen %d)"
                 % (stats.get("cascades_cut", 0),
                    stats.get("max_cascade_depth_seen", 0)),
                 "a cut cascade means a rule set without a termination "
                 "guarantee — inspect the trigger edges in the profile"])
    return [_attach_bisection(finding, bundle)]


def _lock_wait(bundle: Dict[str, Any]) -> List[Finding]:
    alerts = _alerts_by_kind(bundle).get("lock_wait")
    if not alerts:
        return []
    alert = alerts[-1]
    rules = _profile_rules(bundle)
    locks = (bundle.get("stats") or {}).get("locks", {})
    separate_total = sum(p.get("separate", 0) for p in rules.values())
    details = [alert.get("message", ""),
               "lock manager: %d waits, %d timeouts, %d deadlocks"
               % (locks.get("waited", 0), locks.get("timeouts", 0),
                  locks.get("deadlocks", 0)),
               "%d separate-coupling firings ran concurrently with their "
               "triggering transactions" % separate_total]
    guilty = None
    if separate_total:
        guilty = max(sorted(rules),
                     key=lambda name: rules[name].get("separate", 0))
        details.append(
            "hottest separate-coupling rule: %r (%d separate firings) — "
            "its action transactions contend for the triggering "
            "transaction's locks"
            % (guilty, rules[guilty].get("separate", 0)))
    value = float(alert.get("value") or 0.0)
    threshold = float(alert.get("threshold") or 1.0) or 1.0
    finding = Finding(
        kind="lock_wait", severity="warning",
        score=value / threshold,
        title="lock-wait p95 %.3fs breached the %.3fs limit"
              % (value, threshold),
        details=details, rule=guilty)
    return [_attach_bisection(finding, bundle)]


def _deferred(bundle: Dict[str, Any]) -> List[Finding]:
    alerts = _alerts_by_kind(bundle).get("deferred_queue")
    if not alerts:
        return []
    alert = alerts[-1]
    rules = _profile_rules(bundle)
    stats = (bundle.get("stats") or {}).get("rules", {})
    details = [alert.get("message", ""),
               "%d deferred firings queued in total"
               % stats.get("deferred_queued", 0)]
    guilty = None
    deferred_rules = {name: p.get("deferred", 0)
                      for name, p in rules.items() if p.get("deferred", 0)}
    if deferred_rules:
        guilty = max(sorted(deferred_rules),
                     key=lambda name: deferred_rules[name])
        details.append(
            "transaction shape: rule %r queued %d deferred firings — "
            "its triggering transaction accumulates work its own commit "
            "must drain" % (guilty, deferred_rules[guilty]))
    value = float(alert.get("value") or 0.0)
    threshold = float(alert.get("threshold") or 1.0) or 1.0
    finding = Finding(
        kind="deferred_queue", severity="warning",
        score=value / threshold,
        title="deferred-firing backlog of %d breached the limit of %d"
              % (int(value), int(threshold)),
        details=details, rule=guilty)
    return [_attach_bisection(finding, bundle)]


def _slo_burn(bundle: Dict[str, Any]) -> List[Finding]:
    slo = bundle.get("slo") or {}
    # Detector objectives raise their own alert kinds, which the
    # heuristics above diagnose.
    objectives = [objective for objective in slo.get("objectives", [])
                  if objective.get("state") not in (None, "ok")
                  and objective.get("alert", "slo_burn") == "slo_burn"]
    if not objectives and not _alerts_by_kind(bundle).get("slo_burn"):
        return []
    findings = []
    windows = (bundle.get("timeseries") or {}).get("windows", [])
    for objective in objectives:
        name = objective.get("name", "?")
        details = ["state %s; burn fast %.2fx / slow %.2fx (threshold %.1fx)"
                   % (objective.get("state"),
                      objective.get("burn_fast", 0.0),
                      objective.get("burn_slow", 0.0),
                      objective.get("burn_threshold", 0.0))]
        # The monitor's own count of escalations ticks in the evaluate()
        # that raised the burn, so it lands in the next window's deltas.
        burn_window = next(
            (window for window in windows
             if (window.get("collected") or {}).get("slo_alerts")), None)
        if burn_window is not None:
            details.append(
                "burn started by window seq %s (t=%.0f)"
                % (burn_window.get("seq"), burn_window.get("t", 0.0)))
            moved = sorted(
                ((key, value) for key, value in
                 (burn_window.get("collected") or {}).items()
                 if value and not key.startswith(("timeseries_", "slo_"))),
                key=lambda pair: abs(pair[1]), reverse=True)[:5]
            if moved:
                details.append("stats that moved in that window: %s"
                               % ", ".join("%s %+g" % pair
                                           for pair in moved))
        finding = Finding(
            kind="slo_burn", severity="warning",
            score=float(objective.get("burn_fast", 0.0)),
            title="SLO %r is %s" % (name, objective.get("state")),
            details=details)
        findings.append(_attach_bisection(finding, bundle))
    if not findings:
        alert = _alerts_by_kind(bundle)["slo_burn"][-1]
        findings.append(_attach_bisection(Finding(
            kind="slo_burn", severity="warning",
            score=float(alert.get("value") or 0.0),
            title=alert.get("message", "SLO burn alert"),
            details=["objective state not captured in this bundle"]),
            bundle))
    return findings


def _wal_failure(bundle: Dict[str, Any]) -> List[Finding]:
    storage = (bundle.get("stats") or {}).get("storage", {})
    failures = storage.get("wal_append_failures", 0)
    if not failures and bundle.get("kind") != "wal_failure":
        return []
    details = ["%d WAL append failure(s) — durability is broken; committed "
               "work since the last good append may not be recoverable"
               % failures]
    if bundle.get("kind") == "wal_failure":
        details.append("capture trigger: %s" % bundle.get("reason", ""))
    finding = Finding(
        kind="wal_failure", severity="critical",
        score=1000.0 + failures,
        title="WAL appends are failing",
        details=details)
    return [_attach_bisection(finding, bundle)]


def _firing_errors(bundle: Dict[str, Any]) -> List[Finding]:
    stats = (bundle.get("stats") or {}).get("rules", {})
    errors = stats.get("firing_errors", 0)
    if not errors:
        return []
    rules = _profile_rules(bundle)
    erroring = sorted(((name, p.get("errors", 0))
                       for name, p in rules.items() if p.get("errors", 0)),
                      key=lambda pair: pair[1], reverse=True)
    details = ["%d rule firing(s) errored" % errors]
    guilty = None
    if erroring:
        guilty = erroring[0][0]
        details.append("erroring rules: %s"
                       % ", ".join("%s (%d)" % pair
                                   for pair in erroring[:5]))
    finding = Finding(
        kind="firing_errors", severity="warning", score=float(errors),
        title="rule firings are erroring", details=details, rule=guilty)
    return [_attach_bisection(finding, bundle)]


# ------------------------------------------------------------------ report


def report(bundle: Dict[str, Any], findings: List[Finding],
           top: Optional[int] = None) -> str:
    lines = ["== hipac doctor =="]
    # A live /snapshot document carries no capture fields of its own.
    wall = bundle.get("wall", bundle.get("time"))
    stamp = (time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(wall))
             if wall else "?")
    lines.append("bundle: kind=%s captured %s (%s)"
                 % (bundle.get("kind", "live"), stamp,
                    bundle.get("reason") or "no reason recorded"))
    health = bundle.get("health") or {}
    lines.append("health at capture: %s (%d alert(s) recorded)"
                 % (health.get("status", "?"),
                    len(bundle.get("alerts") or [])))
    lines.append("")
    shown = findings[:top] if top else findings
    for index, finding in enumerate(shown, start=1):
        lines.append(finding.format(index))
    if top and len(findings) > top:
        lines.append("(%d more finding(s); raise --top)"
                     % (len(findings) - top))
    return "\n".join(lines)


# ----------------------------------------------------------- bundle loading


def load_bundle_arg(target: str) -> Dict[str, Any]:
    """A bundle from a file path, a ``data_dir``, or a forensics dir
    (directories resolve to their newest bundle)."""
    path = Path(target)
    if path.is_dir():
        directory = path / "forensics" if (path / "forensics").is_dir() \
            else path
        bundles = list_bundles(directory)
        if not bundles:
            raise SystemExit("no forensic-*.json bundles under %s"
                             % directory)
        path = directory / (bundles[0]["id"] + ".json")
    if not path.is_file():
        raise SystemExit("no such bundle: %s" % target)
    return json.loads(path.read_text(encoding="utf-8"))


# ------------------------------------------------------------------- smoke


def smoke() -> int:
    """Self-contained end-to-end check (CI): induce a rule storm, wait
    for the recorder's bundle, and assert the doctor blames the storming
    rule with a valid ``replay --until SEQ`` command."""
    import shutil
    import tempfile

    from repro import (Action, ClassDef, Condition, HiPAC, Rule, attributes,
                       on_update)
    from repro.obs.flightrec import read_journal
    from repro.obs.slo import RATE, Objective

    data_dir = Path(tempfile.mkdtemp(prefix="hipac-doctor-smoke-"))
    db = HiPAC(data_dir=data_dir, flight_recorder=True, forensics=True,
               timeseries_interval=0.2)
    db.slo.objectives.append(Objective(
        "rule_storm", kind=RATE, numerator="rules_conditions_evaluated",
        threshold=50.0, fast_window=0.5, alert="rule_storm"))
    try:
        db.define_class(ClassDef("Stock", attributes(("price", "float"))))
        db.create_rule(Rule(
            name="storming_rule",
            event=on_update("Stock", attrs=["price"]),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            oid = db.create("Stock", {"price": 1.0}, txn)
        for index in range(300):
            with db.transaction() as txn:
                db.update(oid, {"price": float(index)}, txn)
        db.drain()
        deadline = time.time() + 15.0
        while time.time() < deadline \
                and db.forensics.stats_snapshot()["captures"] == 0:
            time.sleep(0.05)
        snapshot = db.forensics.stats_snapshot()
        assert snapshot["captures"] >= 1, \
            "no forensics bundle landed (stats: %r)" % (snapshot,)
        # The storm alert also burns the alert_free objective a tick
        # later, so a slo_burn bundle may follow the storm's.
        bundles = [entry for entry in db.forensics.list_bundles()
                   if entry["kind"] == "rule_storm"]
        assert bundles, db.forensics.list_bundles()
        bundle = db.forensics.load_bundle(bundles[0]["id"])
        # The same instance served live: one document, one diagnosis.
        live = fetch(db.serve_admin().url + "/snapshot")
    finally:
        db.close()
    findings = diagnose(bundle)
    print(report(bundle, findings, top=5))
    top_finding = findings[0]
    assert top_finding.kind == "rule_storm", top_finding
    assert top_finding.rule == "storming_rule", top_finding
    live_top = diagnose(live)[0]
    assert (live_top.kind, live_top.rule) \
        == (top_finding.kind, top_finding.rule), live_top
    assert top_finding.command and "--until" in top_finding.command, \
        top_finding
    seq = int(top_finding.command.rsplit(None, 1)[-1])
    records, _discarded = read_journal(data_dir)
    seqs = [record.get("seq") for record in records
            if record.get("seq") is not None]
    assert seqs and min(seqs) <= seq <= max(seqs), \
        "seq %d outside journal range [%s, %s]" % (seq, min(seqs or [0]),
                                                   max(seqs or [0]))
    shutil.rmtree(data_dir, ignore_errors=True)
    print("doctor smoke ok: %d findings, bundle %s, bisect seq %d "
          "within journal range [%d, %d]"
          % (len(findings), bundles[0]["id"], seq, min(seqs), max(seqs)))
    return 0


# --------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.doctor",
        description="diagnose a forensics bundle (or a live endpoint)")
    parser.add_argument("target", nargs="?",
                        help="bundle file, data_dir, or forensics dir "
                             "(directories use the newest bundle)")
    parser.add_argument("--url", help="diagnose a live admin endpoint "
                                      "instead of a bundle")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--top", type=int, default=0,
                        help="show only the top N findings")
    parser.add_argument("--smoke", action="store_true",
                        help="self-contained end-to-end check (CI)")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.url:
        # the live document a bundle freezes
        bundle = fetch(args.url.rstrip("/") + "/snapshot")
    elif args.target:
        bundle = load_bundle_arg(args.target)
    else:
        parser.error("give a bundle path / data_dir, or --url, or --smoke")
        return 2
    findings = diagnose(bundle)
    if args.json:
        print(json.dumps({"kind": bundle.get("kind", "live"),
                          "wall": bundle.get("wall", bundle.get("time")),
                          "findings": [finding.as_dict()
                                       for finding in findings]},
                         indent=2, sort_keys=True))
    else:
        print(report(bundle, findings, top=args.top or None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
