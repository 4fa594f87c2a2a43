"""Deterministic incident replay over a flight-recorder journal.

Active-rule behaviour is a pure function of the external event sequence
(declarative semantics: same stimuli, same firings, same final state), so
the journal written by :mod:`repro.obs.flightrec` is sufficient evidence
to reproduce an incident.  This module turns that evidence back into a
running system:

1. **Restore** — load the checkpoint snapshot into a fresh in-memory
   HiPAC instance and rebind the caller's rule library, exactly as crash
   recovery does (the shared helpers in :mod:`repro.recovery.recover`).
2. **Re-signal** — walk the journal suffix after the checkpoint marker
   and re-issue every stimulus: transaction boundaries, data operations,
   external and temporal signals, rule administration.  Rule cascades are
   *not* in the journal; they happen again because the rules fire again.
3. **Diff** — compare the replayed firing sequence against the journal's
   recorded ``firing`` response records, and the replayed store against
   the state crash recovery derives from the WAL, producing a structured
   :class:`DivergenceReport` (first diverging sequence number,
   missing/extra firings, store deltas).

A clean replay (zero divergences) certifies the journal as a faithful
reproduction recipe; a divergence localises *where* determinism broke —
a rule edited since the recording, a store mutated out-of-band, or
genuine nondeterminism in a rule body.

CLI (``python -m repro.tools.replay``)::

    replay DATA_DIR              journal summary + recent records
    replay DATA_DIR --diff --rules pkg.mod:attr
                                 full replay + divergence report
    replay DATA_DIR --diff --until SEQ
                                 replay a prefix (bisecting an incident)
    replay --smoke               self-contained SAA record/replay check

``--rules pkg.mod:attr`` names either a rule library (dict / iterable of
rules) or a *setup callable* ``setup(db) -> library`` that may register
applications on the fresh instance before returning the library.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs import flightrec
from repro.recovery.checkpoint import load_checkpoint
from repro.recovery.recover import (
    RecoveryReport,
    apply_checkpoint_state,
    rebind_stored_rules,
    recover,
)
from repro.recovery.serialize import (
    decode_operation,
    decode_value,
    encode_attrs,
)
from repro.rules.rule import Rule

RuleSource = Union[None, Dict[str, Rule], Iterable[Rule],
                   Callable[[Any], Any]]


class ReplayError(Exception):
    """The journal cannot be replayed (not a divergence)."""


# --------------------------------------------------------------------------
# divergence report


def firing_identity(rule: str, event: str, ec: str, ca: str,
                    satisfied: Optional[bool]) -> Tuple[Any, ...]:
    """What makes two firings "the same" across runs.

    Transaction identifiers and timestamps differ between the recording
    and the replay by construction; the identity is the rule, the event
    expression it fired on, the couplings, and the condition outcome.
    """
    return (rule, event, ec, ca, satisfied)


@dataclass
class DivergenceReport:
    """Structured outcome of diffing a replay against its recording."""

    replayed_stimuli: int = 0
    expected_firings: int = 0
    replayed_firings: int = 0
    #: in-order mismatches of synchronous firings: {seq, expected, actual}
    sync_mismatches: List[Dict[str, Any]] = field(default_factory=list)
    #: recorded firings the replay never produced: {seq, firing}
    missing_firings: List[Dict[str, Any]] = field(default_factory=list)
    #: replayed firings the recording never saw: {firing}
    extra_firings: List[Dict[str, Any]] = field(default_factory=list)
    #: committed-state deltas: {class, oid, kind, expected, actual}
    store_deltas: List[Dict[str, Any]] = field(default_factory=list)
    #: journal seq of the first firing-level divergence (None if none, or
    #: if the only divergence is in the store)
    first_divergence_seq: Optional[int] = None
    #: rule-create records with no library entry (replayed as no-ops)
    unbound_rules: List[str] = field(default_factory=list)
    #: non-fatal replay caveats (skipped store diff, dropped records, ...)
    notes: List[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return bool(self.sync_mismatches or self.missing_firings
                    or self.extra_firings or self.store_deltas)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "diverged": self.diverged,
            "replayed_stimuli": self.replayed_stimuli,
            "expected_firings": self.expected_firings,
            "replayed_firings": self.replayed_firings,
            "first_divergence_seq": self.first_divergence_seq,
            "sync_mismatches": self.sync_mismatches,
            "missing_firings": self.missing_firings,
            "extra_firings": self.extra_firings,
            "store_deltas": self.store_deltas,
            "unbound_rules": self.unbound_rules,
            "notes": self.notes,
        }

    def summary(self) -> str:
        if not self.diverged:
            return ("replay clean: %d stimuli, %d firings reproduced, "
                    "store identical"
                    % (self.replayed_stimuli, self.expected_firings))
        parts = ["REPLAY DIVERGED"]
        if self.first_divergence_seq is not None:
            parts.append("first divergence at seq %d"
                         % self.first_divergence_seq)
        parts.append("%d sync mismatches, %d missing, %d extra firings, "
                     "%d store deltas"
                     % (len(self.sync_mismatches), len(self.missing_firings),
                        len(self.extra_firings), len(self.store_deltas)))
        return "; ".join(parts)


@dataclass
class ReplayResult:
    """A finished replay: the fresh instance plus the divergence diff."""

    db: Any
    divergence: DivergenceReport
    recovery: RecoveryReport


# --------------------------------------------------------------------------
# replay engine


def _resolve_rules(db: Any, rules: RuleSource) -> Dict[str, Rule]:
    if callable(rules) and not isinstance(rules, dict):
        rules = rules(db)
    if rules is None:
        return {}
    if isinstance(rules, dict):
        return dict(rules)
    return {rule.name: rule for rule in rules}


def _journal_cut(records: List[Dict[str, Any]],
                 checkpoint: Optional[Dict[str, Any]]) -> int:
    """Index of the first record to replay.

    The suffix starts after the newest ``checkpoint`` marker whose LSN
    matches the durable checkpoint file — everything before it is inside
    the snapshot.  No checkpoint file means replay from the beginning.
    """
    if checkpoint is None:
        return 0
    lsn = checkpoint["lsn"]
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if (record["type"] == flightrec.CHECKPOINT
                and record["data"].get("lsn") == lsn):
            return index + 1
    raise ReplayError(
        "checkpoint (lsn %d) has no journal marker: the covering journal "
        "segments were dropped by retention; replay cannot bridge the gap"
        % lsn)


def _replay_stimulus(db: Any, record: Dict[str, Any],
                     txn_map: Dict[str, Any],
                     library: Dict[str, Rule],
                     report: DivergenceReport) -> None:
    rtype = record["type"]
    data = record["data"]
    txn = txn_map.get(record["txn"]) if record["txn"] else None

    if rtype == flightrec.TXN_BEGIN:
        parent = txn_map.get(data.get("parent"))
        txn_map[record["txn"]] = db.begin(parent,
                                          label=data.get("label", ""))
    elif rtype == flightrec.TXN_COMMIT:
        if txn is not None and not txn.is_finished():
            try:
                db.commit(txn)
            except Exception as exc:
                # The recording contains the matching abort record (the
                # original commit failed the same way); replay continues.
                report.notes.append(
                    "seq %d: commit of %s failed during replay: %s"
                    % (record["seq"], record["txn"], exc))
    elif rtype == flightrec.TXN_ABORT:
        if txn is not None and not txn.is_finished():
            db.abort(txn)
    elif rtype == flightrec.TXN_AUTO:
        # A coalesced top-level transaction: expand back to
        # begin -> ops -> commit.  Rule processing interleaves exactly as
        # it did live, because each operation dispatches its events as it
        # executes.
        txn = db.begin(label=data.get("label", ""))
        txn_map[record["txn"]] = txn
        try:
            for entry in data.get("ops", []):
                op = decode_operation(entry["op"])
                db.execute_operation(op, txn,
                                     user=entry.get("user", "application"))
            db.commit(txn)
        except Exception as exc:
            if not txn.is_finished():
                db.abort(txn)
            report.notes.append(
                "seq %d: coalesced transaction %s failed during replay: %s"
                % (record["seq"], record["txn"], exc))
    elif rtype == flightrec.OPERATION:
        if txn is None:
            report.notes.append(
                "seq %d: operation without a live transaction (skipped)"
                % record["seq"])
            return
        op = decode_operation(data["op"])
        db.execute_operation(op, txn, user=data.get("user", "application"))
    elif rtype == flightrec.EXTERNAL:
        args = {key: decode_value(val)
                for key, val in (data.get("args") or {}).items()}
        db.external_detector.signal(data["name"], args, txn=txn,
                                    timestamp=data.get("timestamp", 0.0))
    elif rtype == flightrec.TEMPORAL:
        _replay_temporal(db, record, report)
    elif rtype == flightrec.DEFINE_EVENT:
        db.define_event(data["name"], *data.get("parameters", []))
    elif rtype == flightrec.RULE_CREATE:
        rule = library.get(data["name"])
        if rule is None:
            report.unbound_rules.append(data["name"])
            return
        db.create_rule(rule, txn)
    elif rtype == flightrec.RULE_DELETE:
        db.delete_rule(data["name"], txn)
    elif rtype == flightrec.RULE_ENABLE:
        db.enable_rule(data["name"], txn)
    elif rtype == flightrec.RULE_DISABLE:
        db.disable_rule(data["name"], txn)
    elif rtype == flightrec.FIRE:
        args = {key: decode_value(val)
                for key, val in (data.get("args") or {}).items()}
        db.fire_rule(data["name"], txn, args=args or None)
    else:  # pragma: no cover - STIMULUS_TYPES is exhaustive
        raise ReplayError("unknown stimulus type %r" % rtype)


#: public alias — the load generator (:mod:`repro.tools.loadgen`)
#: re-issues journalled stimuli through the same single-record engine.
def replay_stimulus(db: Any, record: Dict[str, Any],
                    txn_map: Dict[str, Any], library: Dict[str, Rule],
                    report: DivergenceReport) -> None:
    """Re-issue one journal record against ``db`` (see module docs)."""
    _replay_stimulus(db, record, txn_map, library, report)


def _replay_temporal(db: Any, record: Dict[str, Any],
                     report: DivergenceReport) -> None:
    """Re-report a recorded temporal occurrence against its spec.

    The clock is not replayed (wall time is not reproducible); instead
    the journalled occurrence is delivered directly to whichever
    registered spec matches the recorded repr.
    """
    from repro.events.signal import EventSignal

    data = record["data"]
    wanted = data.get("spec")
    spec = next((s for s in db.temporal_detector.registered_specs()
                 if repr(s) == wanted), None)
    if spec is None:
        report.notes.append(
            "seq %d: temporal spec %r not registered at this point "
            "(skipped)" % (record["seq"], wanted))
        return
    signal = EventSignal(kind="temporal",
                         timestamp=data.get("timestamp", 0.0),
                         info=data.get("info"))
    db.temporal_detector.report(spec, signal)


def journal_firings(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Expand a journal suffix into its recorded firing responses, in
    order.

    Standalone ``firing`` records appear as themselves; firings folded
    into a coalesced ``txn`` record are expanded at that record's seq —
    nothing else can have been journalled between them and their commit
    intent, so the global firing order is preserved exactly.
    """
    out: List[Dict[str, Any]] = []
    for record in records:
        if record["type"] == flightrec.FIRING:
            out.append({"seq": record["seq"], "data": record["data"]})
        elif record["type"] == flightrec.TXN_AUTO:
            for data in record["data"].get("firings", []):
                out.append({"seq": record["seq"], "data": data})
    return out


def _diff_firings(expected: List[Dict[str, Any]],
                  replayed: List[Any],
                  report: DivergenceReport) -> None:
    """Diff recorded firing responses against the replayed firing log.

    Synchronous firings (immediate/deferred couplings) are fully ordered
    by the journal, so they are compared in sequence: the order their
    conditions were evaluated in.  The firing log holds them in the order
    they were triggered, which differs for a deferred firing (triggered at
    its event, evaluated at commit), so the replayed ones are put in the
    order of their condition transactions, whose ids are issued in
    evaluation order.  Separate-coupling firings run on worker threads
    whose interleaving is scheduler-chosen even within one run, so they
    are compared as a multiset.
    """
    report.expected_firings = len(expected)
    report.replayed_firings = len(replayed)

    exp_sync = [r for r in expected if not r["data"].get("separate")]
    exp_sep = [r for r in expected if r["data"].get("separate")]
    got_sync = sorted((f for f in replayed if not f.separate_thread),
                      key=lambda firing: int(firing.condition_txn[1:]))
    got_sep = [f for f in replayed if f.separate_thread]

    first_seq: Optional[int] = None

    def _expected_identity(record: Dict[str, Any]) -> Tuple[Any, ...]:
        data = record["data"]
        return firing_identity(data["rule"], data["event"], data["ec"],
                               data["ca"], data["satisfied"])

    def _replayed_identity(firing: Any) -> Tuple[Any, ...]:
        return firing_identity(firing.rule_name, firing.event,
                               firing.ec_coupling, firing.ca_coupling,
                               firing.satisfied)

    for index, record in enumerate(exp_sync):
        if index >= len(got_sync):
            report.missing_firings.append(
                {"seq": record["seq"], "firing": record["data"]})
            if first_seq is None:
                first_seq = record["seq"]
            continue
        want = _expected_identity(record)
        got = _replayed_identity(got_sync[index])
        if want != got:
            report.sync_mismatches.append({
                "seq": record["seq"],
                "expected": record["data"],
                "actual": _firing_dict(got_sync[index]),
            })
            if first_seq is None:
                first_seq = record["seq"]
    for firing in got_sync[len(exp_sync):]:
        report.extra_firings.append({"firing": _firing_dict(firing)})

    # Separate firings: order-free matching by identity multiset.
    unmatched = [(_replayed_identity(f), f) for f in got_sep]
    for record in exp_sep:
        want = _expected_identity(record)
        hit = next((i for i, (ident, _) in enumerate(unmatched)
                    if ident == want), None)
        if hit is None:
            report.missing_firings.append(
                {"seq": record["seq"], "firing": record["data"]})
            if first_seq is None or record["seq"] < first_seq:
                first_seq = record["seq"]
        else:
            unmatched.pop(hit)
    for _, firing in unmatched:
        report.extra_firings.append({"firing": _firing_dict(firing)})

    report.first_divergence_seq = first_seq


def _firing_dict(firing: Any) -> Dict[str, Any]:
    return {"rule": firing.rule_name, "event": firing.event,
            "ec": firing.ec_coupling, "ca": firing.ca_coupling,
            "satisfied": firing.satisfied,
            "separate": firing.separate_thread}


def _canonical_state(db: Any) -> Dict[str, Dict[Tuple[str, int], Any]]:
    state: Dict[str, Dict[Tuple[str, int], Any]] = {}
    for class_name, extent in db.store.snapshot_state().items():
        rows = {}
        for oid, attrs in extent.items():
            rows[(oid.class_name, oid.number)] = encode_attrs(attrs)
        state[class_name] = rows
    return state


def _diff_store(original: Any, replayed: Any,
                report: DivergenceReport) -> None:
    """Diff the replayed committed state against crash recovery's view."""
    want = _canonical_state(original)
    got = _canonical_state(replayed)
    for class_name in sorted(set(want) | set(got)):
        want_rows = want.get(class_name, {})
        got_rows = got.get(class_name, {})
        for key in sorted(set(want_rows) | set(got_rows), key=str):
            expected = want_rows.get(key)
            actual = got_rows.get(key)
            if expected == actual:
                continue
            kind = ("missing" if key not in got_rows
                    else "extra" if key not in want_rows else "changed")
            report.store_deltas.append({
                "class": class_name, "oid": list(key), "kind": kind,
                "expected": expected, "actual": actual,
            })


def replay(data_dir: Any, rules: RuleSource = None, *,
           until: Optional[int] = None,
           store_diff: bool = True) -> ReplayResult:
    """Replay the journal under ``data_dir`` and diff against the record.

    ``rules`` supplies the rule library (callables in rules cannot be
    journalled, exactly as in crash recovery): a dict / iterable of
    :class:`Rule`, or a setup callable ``setup(db) -> library`` invoked
    on the fresh instance first — the place to register the application
    programs rule actions call into.

    ``until`` truncates the journal at a sequence number (inclusive) for
    bisection; partial replays skip the store diff (the journal prefix
    does not correspond to the final committed state).
    """
    from repro.core.hipac import HiPAC

    records, dropped = flightrec.read_journal(data_dir)
    report = DivergenceReport()
    if dropped:
        report.notes.append(
            "journal: %d torn/unreadable trailing units ignored" % dropped)
    if until is not None:
        records = [r for r in records if r["seq"] <= until]
        if store_diff:
            store_diff = False
            report.notes.append(
                "store diff skipped: partial replay (--until %d)" % until)

    checkpoint = load_checkpoint(data_dir)
    cut = _journal_cut(records, checkpoint)
    suffix = records[cut:]

    db = HiPAC()
    library = _resolve_rules(db, rules)
    recovery = RecoveryReport()
    if checkpoint is not None:
        recovery.checkpoint_lsn = checkpoint["lsn"]
        apply_checkpoint_state(db.store, checkpoint)
        rebind_stored_rules(db, library, recovery)

    txn_map: Dict[str, Any] = {}
    for record in suffix:
        if record["type"] not in flightrec.STIMULUS_TYPES:
            continue
        try:
            _replay_stimulus(db, record, txn_map, library, report)
        except ReplayError:
            raise
        except Exception as exc:
            # A stimulus that replays cleanly on a faithful system can
            # fail under a divergent one (e.g. an unbound rule shifted
            # OID allocation under a journalled operation).  Record the
            # failure and keep going — the firing/store diffs downstream
            # localise the damage.
            report.notes.append("seq %d: %s stimulus failed during "
                                "replay: %s"
                                % (record["seq"], record["type"], exc))
        report.replayed_stimuli += 1
        # Separate-coupling work triggered by this stimulus runs on worker
        # threads; draining between stimuli keeps the replayed interleaving
        # aligned with the recorded one.
        db.drain()

    # A torn tail may leave transactions open (their commit never ran);
    # retire them so the final state is purely committed effects.
    for txn in list(txn_map.values()):
        if not txn.is_finished() and txn.parent is None:
            db.abort(txn)
    db.drain()

    expected = journal_firings(suffix)
    replayed = [f for f in db.firing_log().all() if f.satisfied is not None]
    _diff_firings(expected, replayed, report)

    if store_diff:
        from repro.recovery.recover import has_durable_state
        if has_durable_state(data_dir):
            original = recover(data_dir, rules=None, durability=None)
            _diff_store(original, db, report)
        else:
            report.notes.append("store diff skipped: no WAL/checkpoint "
                                "under %s" % data_dir)

    return ReplayResult(db=db, divergence=report, recovery=recovery)


# --------------------------------------------------------------------------
# CLI


def _load_rules_ref(ref: str) -> RuleSource:
    import importlib

    module_name, _, attr = ref.partition(":")
    if not attr:
        raise SystemExit("--rules expects pkg.module:attribute, got %r"
                         % ref)
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise SystemExit("module %r has no attribute %r"
                         % (module_name, attr))


def _summarize(data_dir: str, last: int) -> Dict[str, Any]:
    records, dropped = flightrec.read_journal(data_dir)
    by_type: Dict[str, int] = {}
    for record in records:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
    return {
        "data_dir": str(data_dir),
        "segments": [str(p) for p in flightrec.journal_segments(data_dir)],
        "records": len(records),
        "discarded_lines": dropped,
        "last_seq": records[-1]["seq"] if records else 0,
        "by_type": by_type,
        "tail": records[-last:] if last > 0 else [],
    }


def _smoke() -> int:
    """Self-contained record/replay round trip on the SAA (CI gate).

    Runs the paper's securities workload with the recorder on, abandons
    the process state (no checkpoint — the WAL and journal are all that
    survives, plus a deliberately torn journal tail), replays, and fails
    on any divergence.
    """
    import shutil
    import tempfile

    from repro.core.hipac import HiPAC
    from repro.rules.coupling import SEPARATE
    from repro.saa.assistant import SecuritiesAssistant

    def build_saa(db: Any, install: bool) -> Any:
        saa = SecuritiesAssistant(db, coupling=SEPARATE, install=install)
        saa.add_ticker("NYSE")
        saa.add_display("jones")
        saa.add_trader("fidelity")
        saa.add_trading_rule(client="smith", symbol="XRX", shares=500,
                             limit=50.0, service="fidelity")
        return saa

    data_dir = tempfile.mkdtemp(prefix="flightrec-smoke-")
    try:
        db = HiPAC(durability="wal", data_dir=data_dir, flight_recorder=True)
        saa = build_saa(db, True)
        ticker = saa.tickers["NYSE"]
        for symbol, price in [("XRX", 48.0), ("IBM", 101.0), ("XRX", 49.5),
                              ("XRX", 50.25), ("IBM", 102.0)]:
            ticker.push_quote(symbol, price)
            saa.drain()
        db.close()
        # Tear the journal tail: a half-written record must be ignored.
        segments = flightrec.journal_segments(data_dir)
        with open(segments[-1], "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99999, "type": "external", "wal')

        result = replay(data_dir,
                        rules=lambda fresh: build_saa(fresh, False)
                        .rule_library)
        print(result.divergence.summary())
        for note in result.divergence.notes:
            print("note:", note)
        return 1 if result.divergence.diverged else 0
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.replay",
        description="Inspect, replay, and diff a flight-recorder journal.")
    parser.add_argument("data_dir", nargs="?",
                        help="HiPAC data directory (holds flight/)")
    parser.add_argument("--diff", action="store_true",
                        help="replay and diff against the recording")
    parser.add_argument("--rules", metavar="MOD:ATTR",
                        help="rule library or setup callable for --diff")
    parser.add_argument("--until", type=int, metavar="SEQ",
                        help="replay only records with seq <= SEQ")
    parser.add_argument("--last", type=int, default=10, metavar="N",
                        help="records of journal tail to show (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-contained SAA record/replay "
                             "round trip")
    options = parser.parse_args(argv)

    if options.smoke:
        return _smoke()
    if not options.data_dir:
        parser.error("data_dir is required unless --smoke is given")

    if not options.diff:
        summary = _summarize(options.data_dir, options.last)
        if options.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print("journal under %s" % summary["data_dir"])
            print("  segments: %d, records: %d, last seq: %d, "
                  "discarded lines: %d"
                  % (len(summary["segments"]), summary["records"],
                     summary["last_seq"], summary["discarded_lines"]))
            for rtype in sorted(summary["by_type"]):
                print("  %-14s %d" % (rtype, summary["by_type"][rtype]))
            for record in summary["tail"]:
                print("  #%d %s txn=%s %s"
                      % (record["seq"], record["type"], record["txn"],
                         json.dumps(record["data"], sort_keys=True)[:100]))
        return 0

    rules = _load_rules_ref(options.rules) if options.rules else None
    try:
        result = replay(options.data_dir, rules, until=options.until)
    except ReplayError as exc:
        print("replay failed: %s" % exc, file=sys.stderr)
        return 2
    divergence = result.divergence
    if options.json:
        print(json.dumps(divergence.as_dict(), indent=2, sort_keys=True))
    else:
        print(divergence.summary())
        for entry in divergence.sync_mismatches:
            print("  seq %d: expected %s, got %s"
                  % (entry["seq"], entry["expected"], entry["actual"]))
        for entry in divergence.missing_firings:
            print("  seq %d: missing %s" % (entry["seq"], entry["firing"]))
        for entry in divergence.extra_firings:
            print("  extra: %s" % entry["firing"])
        for entry in divergence.store_deltas:
            print("  store %s %s: expected %s, got %s"
                  % (entry["kind"], entry["oid"], entry["expected"],
                     entry["actual"]))
        for note in divergence.notes:
            print("  note: %s" % note)
    return 1 if divergence.diverged else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
