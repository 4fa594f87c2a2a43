"""Firing explanations — the debugger side of the §7 tooling.

Turns a transaction's firing history into a readable account: which events
occurred, which rules they triggered, under which coupling, in which
(nested) transactions, whether conditions held and actions ran.  Useful
when a rule base misbehaves and "why did/didn't rule X fire?" needs an
answer.
"""

from __future__ import annotations

import time as _time
from typing import List, Optional

from repro.rules.firing import FiringLog, RuleFiring
from repro.txn.transaction import Transaction


def render_transaction_tree(txn: Transaction, indent: str = "") -> str:
    """Render a (possibly nested) transaction tree, one line per node."""
    label = " %s" % txn.label if txn.label else ""
    lines = ["%s%s [%s]%s" % (indent, txn.txn_id, txn.state, label)]
    for child in txn.children:
        lines.append(render_transaction_tree(child, indent + "  "))
    return "\n".join(lines)


def _wall_stamp(wall_time: float) -> str:
    # UTC with a date component: dumps from different hosts/timezones (live
    # system vs. replay) must align on one clock, and same-looking times a
    # day apart must not.
    return _time.strftime("%Y-%m-%dT%H:%M:%S", _time.gmtime(wall_time)) \
        + ".%03dZ" % (int(wall_time * 1000) % 1000)


def explain_firing(firing: RuleFiring) -> str:
    """One firing, one sentence (prefixed with its wall-clock time, so
    dumps from different processes — live system vs. replay — align)."""
    parts = ["[%s]" % _wall_stamp(firing.wall_time),
             "rule %r triggered by %s" % (firing.rule_name, firing.event)]
    parts.append("(E-C %s, C-A %s)" % (firing.ec_coupling, firing.ca_coupling))
    if firing.deferred and firing.condition_txn is None:
        parts.append("queued for commit of %s" % firing.triggering_txn)
        return " ".join(parts)
    if firing.separate_thread:
        parts.append("in a separate top-level transaction")
    if firing.condition_txn:
        parts.append("condition in %s" % firing.condition_txn)
    if firing.satisfied is None:
        parts.append("— condition not evaluated")
    elif not firing.satisfied:
        parts.append("— condition NOT satisfied, action skipped")
    else:
        parts.append("— condition satisfied")
        if firing.executed:
            parts.append("action executed in %s" % firing.action_txn)
        elif firing.error:
            parts.append("action FAILED: %s" % firing.error)
        else:
            parts.append("action pending (deferred/separate)")
    if firing.error and firing.executed is False and firing.satisfied:
        pass  # already reported above
    elif firing.error and firing.satisfied is None:
        parts.append("ERROR: %s" % firing.error)
    return " ".join(parts)


def explain(log: FiringLog, rule_name: Optional[str] = None,
            last: Optional[int] = None) -> str:
    """Render the firing log (optionally one rule's firings, or the last N).

    The firing log is a bounded ring: when older records have been evicted
    the account is incomplete, and this report says so up front rather than
    presenting the tail as the whole history."""
    firings = log.for_rule(rule_name) if rule_name else log.all()
    if last is not None:
        firings = firings[-last:]
    lines: List[str] = []
    if log.dropped:
        lines.append("(%d earlier firing(s) dropped from the log;"
                     " this account is incomplete)" % log.dropped)
    if not firings:
        lines.append("no firings recorded")
        return "\n".join(lines)
    lines.extend(explain_firing(firing) for firing in firings)
    return "\n".join(lines)


def _explain_hop(hop: dict) -> str:
    where = hop["oid"] + ("." + hop["attr"] if hop["attr"] else "")
    if hop["op"] == "create":
        change = "create %s = %r" % (where, hop["new"])
    elif hop["op"] == "delete":
        change = "delete %s" % where
    else:
        change = "update %s %r -> %r" % (where, hop["old"], hop["new"])
    cause = hop["cause"]
    if cause["kind"] == "application":
        why = "by application (user %r)" % cause["user"]
    else:
        why = ("by rule %r firing %s, triggered by %s"
               % (cause["rule"], cause["firing_id"], cause["event"]))
    line = "[%s] #%d %s in %s (top %s) %s" % (
        _wall_stamp(hop["wall_time"]), hop["seq"], change,
        hop["txn"], hop["top_txn"], why)
    if hop["journal_seq"] is not None:
        line += " [journal seq %d]" % hop["journal_seq"]
    return line


def explain_state(db, oid, attr: Optional[str] = None,
                  depth: int = 10) -> str:
    """Render the causal chain behind the current value of ``oid.attr``.

    One line per hop, newest first: the write that produced the value,
    then the write that triggered the firing behind it, and so on back to
    the external stimulus.  When the flight recorder is on each hop names
    the journal seq to feed ``python -m repro.tools.replay --until`` — the
    seq itself re-executes the world up to (and including) that cause,
    seq - 1 stops just before it.
    """
    chain = db.why(oid, attr, depth=depth).as_dict()
    target = chain["oid"] + ("." + chain["attr"] if chain["attr"] else "")
    lines = ["why %s:" % target]
    if not chain["hops"]:
        lines.append("  no provenance recorded (never written while"
                     " provenance was on, or already evicted)")
        return "\n".join(lines)
    lines.extend("  " + _explain_hop(hop) for hop in chain["hops"])
    if chain["truncated"]:
        lines.append("  ... chain cut by the depth limit or the bounded"
                     " store; earlier causes are unavailable")
    if chain["stimulus"]:
        lines.append("  stimulus: %s" % chain["stimulus"])
        seq = chain["hops"][-1]["journal_seq"]
        if seq is not None:
            lines.append("  replay: python -m repro.tools.replay --until %d"
                         " re-executes up to this cause (--until %d stops"
                         " just before it)" % (seq, seq - 1))
    return "\n".join(lines)


def why_not(db, rule_name: str) -> str:
    """Diagnose why a rule has not been executing.

    Checks, in order: does the rule exist, is it enabled, is its event
    programmed and enabled at the detector, has it ever been triggered, and
    what happened on its most recent firings."""
    from repro.errors import RuleError

    try:
        rule = db.rule_catalog.get_rule(rule_name)
    except RuleError:
        return "rule %r does not exist" % rule_name
    reasons: List[str] = []
    if not rule.enabled:
        reasons.append("the rule is DISABLED")
    detector = db.rule_catalog.detector_for(rule.event)
    if detector is None or not detector.is_defined(rule.event):
        reasons.append("its event is not programmed on any detector")
    elif not detector.is_enabled(rule.event):
        reasons.append("its event is disabled at the detector")
    firings = db.firing_log().for_rule(rule_name)
    if not firings:
        reasons.append("it has never been triggered (has its event occurred?)")
    else:
        recent = firings[-3:]
        unsatisfied = [f for f in recent if f.satisfied is False]
        failed = [f for f in recent if f.error]
        if unsatisfied:
            reasons.append("its condition was not satisfied on %d of the last"
                           " %d firings" % (len(unsatisfied), len(recent)))
        if failed:
            reasons.append("recent firings errored: %s"
                           % "; ".join(f.error for f in failed if f.error))
        if not unsatisfied and not failed:
            reasons.append("it fired normally %d time(s); the action ran in %s"
                           % (len(firings),
                              ", ".join(f.action_txn or "-" for f in recent)))
    return "rule %r: %s" % (rule_name, "; ".join(reasons))
