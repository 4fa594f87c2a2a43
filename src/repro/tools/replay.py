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

**Paced replay** (``speed``) is the same engine as load: each unit is
due at its recorded wall-clock offset divided by ``speed`` and its
latency runs from that schedule, so an engine stall is charged to every
unit due during it, not hidden by a driver that waits (no coordinated
omission).  Traffic (update-only transactions, signals, manual fires)
runs on :data:`WORKERS` threads; a barrier (anything that perturbs OID
allocation or the rule base) waits for them to drain and runs inline.
Concurrency may reorder firings but must not change what fired: every
firing is compared as an identity multiset, and the store diff skipped.

CLI (``python -m repro.tools.replay``)::

    replay DATA_DIR              journal summary + recent records
    replay DATA_DIR --diff --rules pkg.mod:attr
                                 full replay + divergence report
    replay DATA_DIR --diff --until SEQ
                                 replay a prefix (bisecting an incident)
    replay DATA_DIR --diff --speed N
                                 paced replay at N times the recorded pace:
                                 throughput, latency from the schedule
    replay --smoke               self-contained SAA record/replay checks,
                                 sequential and paced

``--rules pkg.mod:attr`` names either a rule library (dict / iterable of
rules) or a *setup callable* ``setup(db) -> library`` that may register
applications on the fresh instance before returning the library.
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.obs import flightrec
from repro.obs.profiler import percentile_of
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
from repro.rules.firing import identity
from repro.rules.rule import Rule

RuleSource = Union[None, Dict[str, Rule], Iterable[Rule],
                   Callable[[Any], Any]]


class ReplayError(Exception):
    """The journal cannot be replayed (not a divergence)."""


# --------------------------------------------------------------------------
# divergence report


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
    #: was the replayed store diffed against crash recovery's?
    store_compared: bool = False

    @property
    def diverged(self) -> bool:
        return bool(self.sync_mismatches or self.missing_firings
                    or self.extra_firings or self.store_deltas)

    def as_dict(self) -> Dict[str, Any]:
        return dict(asdict(self), diverged=self.diverged)

    def summary(self) -> str:
        if not self.diverged:
            return ("replay clean: %d stimuli, %d firings reproduced, "
                    "store %s" % (self.replayed_stimuli, self.expected_firings,
                                  "identical" if self.store_compared
                                  else "not compared"))
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
    #: paced replay only: units driven per second of wall time, and the
    #: latency from each unit's schedule (seconds: count, p50, p95, p99,
    #: p999, max, mean)
    stimuli_per_second: float = 0.0
    latency: Dict[str, float] = field(default_factory=dict)


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
    db.temporal_detector.report_batch([(spec, signal)])


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
                  report: DivergenceReport, *, ordered: bool) -> None:
    """Diff recorded firing responses against the replayed firing log.

    Synchronous firings (immediate/deferred couplings) are fully ordered
    by the journal, so an ``ordered`` diff compares them in sequence: the
    order their conditions were evaluated in.  The firing log holds them
    in the order they were triggered, which differs for a deferred firing
    (triggered at its event, evaluated at commit), so the replayed ones
    are put in the order of their condition transactions, whose ids are
    issued in evaluation order.  Separate-coupling firings run on worker
    threads whose interleaving is scheduler-chosen even within one run,
    so they are compared as a multiset — and so is every firing of a
    paced replay (not ``ordered``), whose traffic runs concurrently.
    """
    report.expected_firings = len(expected)
    report.replayed_firings = len(replayed)

    def in_sequence(separate: bool) -> bool:
        return ordered and not separate

    exp_sync = [r for r in expected if in_sequence(r["data"].get("separate"))]
    exp_free = [r for r in expected
                if not in_sequence(r["data"].get("separate"))]
    got_sync = sorted((f for f in replayed if in_sequence(f.separate_thread)),
                      key=lambda firing: int(firing.condition_txn[1:]))
    got_free = [f for f in replayed if not in_sequence(f.separate_thread)]

    first_seq: Optional[int] = None
    for index, record in enumerate(exp_sync):
        if index >= len(got_sync):
            report.missing_firings.append(
                {"seq": record["seq"], "firing": record["data"]})
            if first_seq is None:
                first_seq = record["seq"]
            continue
        got = got_sync[index].as_dict()
        if identity(record["data"]) != identity(got):
            report.sync_mismatches.append({"seq": record["seq"],
                                           "expected": record["data"],
                                           "actual": got})
            if first_seq is None:
                first_seq = record["seq"]
    for firing in got_sync[len(exp_sync):]:
        report.extra_firings.append({"firing": firing.as_dict()})

    # Order-free matching by identity multiset.
    unmatched: Dict[Tuple[Any, ...], List[Dict[str, Any]]] = {}
    for firing in got_free:
        got = firing.as_dict()
        unmatched.setdefault(identity(got), []).append(got)
    for record in exp_free:
        candidates = unmatched.get(identity(record["data"]))
        if candidates:
            candidates.pop()
            continue
        report.missing_firings.append(
            {"seq": record["seq"], "firing": record["data"]})
        if first_seq is None or record["seq"] < first_seq:
            first_seq = record["seq"]
    for candidates in unmatched.values():
        report.extra_firings.extend({"firing": firing}
                                    for firing in candidates)

    report.first_divergence_seq = first_seq


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


# --------------------------------------------------------------------------
# paced replay

#: traffic worker threads of a paced replay
WORKERS = 4

#: record types that are traffic when standalone
_TRAFFIC_SIGNALS = frozenset((flightrec.EXTERNAL, flightrec.TEMPORAL,
                              flightrec.FIRE))


@dataclass
class _Unit:
    """One schedulable unit: a stimulus record or a whole txn group."""

    records: List[Dict[str, Any]]
    traffic: bool = True    #: safe on the worker pool vs. barrier

    @property
    def seq(self) -> int:
        return self.records[0]["seq"]

    @property
    def wall(self) -> float:
        """Recorded wall-clock of the first record."""
        return self.records[0].get("wall", 0.0)


def _updates_only(record: Dict[str, Any]) -> bool:
    """Safe to run concurrently: a create, delete or DDL operation
    perturbs OID allocation order and must barrier."""
    data = record["data"]
    entries = (data.get("ops", []) if record["type"] == flightrec.TXN_AUTO
               else [data])
    return all(entry["op"]["kind"] == "update" for entry in entries)


def build_units(suffix: List[Dict[str, Any]]) -> List[_Unit]:
    """Partition a journal suffix into schedulable units, in seq order.

    Explicit transactions group into one unit spanning begin..commit
    (nested begins alias into the enclosing group); everything else is a
    unit of one record.  A unit is *traffic* when every record in it is
    an update-only operation or a signal — anything touching the schema,
    the rule base, or OID allocation is a barrier.
    """
    units: List[_Unit] = []
    #: txn id -> its open group (a nested txn aliases the enclosing one)
    open_groups: Dict[str, _Unit] = {}
    for record in suffix:
        rtype = record["type"]
        if rtype not in flightrec.STIMULUS_TYPES:
            continue
        if rtype == flightrec.TXN_BEGIN:
            group = open_groups.get(record["data"].get("parent"))
            if group is None:
                group = _Unit([])
                units.append(group)
            group.records.append(record)
            open_groups[record["txn"]] = group
            continue
        group = open_groups.get(record["txn"])
        if group is None:
            units.append(_Unit([record], _updates_only(record)
                               if rtype == flightrec.TXN_AUTO
                               else rtype in _TRAFFIC_SIGNALS))
            continue
        group.records.append(record)
        if rtype == flightrec.OPERATION:
            group.traffic = group.traffic and _updates_only(record)
        elif rtype not in (flightrec.TXN_COMMIT, flightrec.TXN_ABORT,
                           flightrec.EXTERNAL, flightrec.FIRE):
            # rule admin / event definition inside the transaction
            group.traffic = False
        if rtype in (flightrec.TXN_COMMIT, flightrec.TXN_ABORT) \
                and record["txn"] == group.records[0]["txn"]:
            for alias in [key for key, value in open_groups.items()
                          if value is group]:
                del open_groups[alias]
    # A torn tail can leave groups open; replay what was captured, as a
    # barrier (the commit never made it, determinism is off anyway).
    for group in open_groups.values():
        group.traffic = False
    return units


def _pace(db: Any, suffix: List[Dict[str, Any]], speed: float,
          library: Dict[str, Rule], result: ReplayResult) -> None:
    """Drive the suffix's units on the open-loop schedule at ``speed``x
    and fill the result's throughput and latency."""
    report = result.divergence
    units = build_units(suffix)
    report.replayed_stimuli = sum(len(unit.records) for unit in units)
    latencies: List[float] = []
    work: "queue.Queue[Optional[Tuple[_Unit, float]]]" = queue.Queue()

    def execute(unit: _Unit, scheduled_at: float) -> None:
        txn_map: Dict[str, Any] = {}
        try:
            for record in unit.records:
                _replay_stimulus(db, record, txn_map, library, report)
        except Exception as exc:
            report.notes.append("seq %d: unit failed during replay: %s"
                                % (unit.seq, exc))
        finally:
            for txn in list(txn_map.values()):
                if not txn.is_finished() and txn.parent is None:
                    db.abort(txn)
        latencies.append(time.perf_counter() - scheduled_at)

    def worker() -> None:
        while True:
            item = work.get()
            try:
                if item is None:
                    return
                execute(*item)
            finally:
                work.task_done()

    pool = [threading.Thread(target=worker, daemon=True,
                             name="replay-%d" % index)
            for index in range(WORKERS)]
    for thread in pool:
        thread.start()
    base_wall = units[0].wall if units else 0.0
    start = time.perf_counter()
    for unit in units:
        # Wait for the schedule, never for the system: a unit's latency
        # runs from when it was due.
        scheduled_at = start + max(0.0, unit.wall - base_wall) / speed
        delay = scheduled_at - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if unit.traffic:
            work.put((unit, scheduled_at))
        else:
            work.join()
            execute(unit, scheduled_at)
    for _ in pool:
        work.put(None)
    for thread in pool:
        thread.join()
    db.drain()
    result.stimuli_per_second = len(units) / max(
        1e-9, time.perf_counter() - start)

    ordered = sorted(latencies) or [0.0]
    result.latency = {name: percentile_of(ordered, q) for name, q in (
        ("p50", 50), ("p95", 95), ("p99", 99), ("p999", 99.9))}
    result.latency.update(count=len(latencies), max=ordered[-1],
                          mean=sum(ordered) / len(ordered))


# --------------------------------------------------------------------------
# the replayer


def replay(data_dir: Any, rules: RuleSource = None, *,
           until: Optional[int] = None,
           store_diff: bool = True,
           speed: Optional[float] = None) -> ReplayResult:
    """Replay the journal under ``data_dir`` and diff against the record.

    ``rules`` supplies the rule library (callables in rules cannot be
    journalled, exactly as in crash recovery): a dict / iterable of
    :class:`Rule`, or a setup callable ``setup(db) -> library`` invoked
    on the fresh instance first — the place to register the application
    programs rule actions call into.

    ``until`` truncates the journal at a sequence number (inclusive) for
    bisection; partial replays skip the store diff (the journal prefix
    does not correspond to the final committed state).

    ``speed`` paces the replay as load (see the module docs) and fills
    the result's ``stimuli_per_second`` and ``latency``; firings are then
    compared as a multiset and the store diff is skipped.
    """
    from repro.core.hipac import HiPAC

    if speed is not None and speed <= 0:
        raise ValueError("speed must be positive, got %r" % speed)
    records, dropped = flightrec.read_journal(data_dir)
    report = DivergenceReport()
    if dropped:
        report.notes.append(
            "journal: %d torn/unreadable trailing bytes ignored" % dropped)
    if until is not None:
        records = [r for r in records if r["seq"] <= until]
        if store_diff:
            store_diff = False
            report.notes.append(
                "store diff skipped: partial replay (--until %d)" % until)
    if speed is not None and store_diff:
        store_diff = False
        report.notes.append("store diff skipped: paced replay (--speed %g) "
                            "runs traffic concurrently" % speed)

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
    result = ReplayResult(db=db, divergence=report, recovery=recovery)

    if speed is not None:
        _pace(db, suffix, speed, library, result)
    else:
        _replay_in_order(db, suffix, library, report)

    expected = journal_firings(suffix)
    replayed = [f for f in db.firing_log().all() if f.satisfied is not None]
    _diff_firings(expected, replayed, report, ordered=speed is None)

    if store_diff:
        from repro.recovery.recover import has_durable_state
        if has_durable_state(data_dir):
            original = recover(data_dir, rules=None, durability=None)
            _diff_store(original, db, report)
            report.store_compared = True
        else:
            report.notes.append("store diff skipped: no WAL/checkpoint "
                                "under %s" % data_dir)

    return result


def _replay_in_order(db: Any, suffix: List[Dict[str, Any]],
                     library: Dict[str, Rule],
                     report: DivergenceReport) -> None:
    """Re-issue the suffix's stimuli one at a time, in journal order."""
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
        "discarded_bytes": dropped,
        "last_seq": records[-1]["seq"] if records else 0,
        "by_type": by_type,
        "tail": records[-last:] if last > 0 else [],
    }


def _smoke(speed: float) -> int:
    """Self-contained record/replay round trips on the SAA (CI gate).

    Sequential: the paper's securities workload with the recorder on,
    abandoned without a checkpoint (the WAL and journal are all that
    survives, plus a deliberately torn journal tail), replayed and
    diffed.  Paced: a quote stream under an immediate, durable trading
    rule, replayed at ``speed``x on the worker pool.  Fails on any
    divergence of either.
    """
    import shutil
    import tempfile

    from repro.core.hipac import HiPAC
    from repro.rules.coupling import IMMEDIATE, SEPARATE
    from repro.saa.assistant import SecuritiesAssistant

    def build_saa(db: Any, install: bool, coupling: str) -> Any:
        saa = SecuritiesAssistant(db, coupling=coupling, install=install)
        saa.add_ticker("NYSE")
        saa.add_display("jones")
        saa.add_trader("fidelity")
        # The sequential check keeps the paper's one-shot rule; a paced
        # one reorders traffic, so a durable rule keeps what fires fixed.
        saa.add_trading_rule(client="smith", symbol="XRX", shares=500,
                             limit=50.0, service="fidelity",
                             one_shot=coupling == SEPARATE)
        return saa

    def check(data_dir: str, coupling: str,
              speed: Optional[float] = None) -> int:
        result = replay(data_dir,
                        rules=lambda fresh: build_saa(fresh, False, coupling)
                        .rule_library, speed=speed)
        result.db.close()
        return _render(result, speed, as_json=False)

    sequential = tempfile.mkdtemp(prefix="flightrec-smoke-")
    paced = tempfile.mkdtemp(prefix="flightrec-paced-")
    try:
        db = HiPAC(durability="wal", data_dir=sequential,
                   flight_recorder=True)
        saa = build_saa(db, True, SEPARATE)
        ticker = saa.tickers["NYSE"]
        for symbol, price in [("XRX", 48.0), ("IBM", 101.0), ("XRX", 49.5),
                              ("XRX", 50.25), ("IBM", 102.0)]:
            ticker.push_quote(symbol, price)
            saa.drain()
        db.close()
        # Tear the journal tail: a half-written record must be ignored.
        segments = flightrec.journal_segments(sequential)
        with open(segments[-1], "a", encoding="utf-8") as handle:
            handle.write('{"seq": 99999, "type": "external", "wal')

        db = HiPAC(flight_recorder=True, data_dir=paced)
        ticker = build_saa(db, True, IMMEDIATE).tickers["NYSE"]
        for index in range(80):
            ticker.push_quote(("XRX", "IBM")[index % 2], 45.0 + (index % 12))
            time.sleep(0.002)
        db.close()

        return max(check(sequential, SEPARATE),
                   check(paced, IMMEDIATE, speed))
    finally:
        shutil.rmtree(sequential, ignore_errors=True)
        shutil.rmtree(paced, ignore_errors=True)


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
    parser.add_argument("--speed", type=float, metavar="N",
                        help="with --diff: pace the replay at N times the "
                             "recorded speed, as load on a worker pool "
                             "(--smoke: the paced check's N, default 5)")
    parser.add_argument("--last", type=int, default=10, metavar="N",
                        help="records of journal tail to show (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="run the self-contained SAA record/replay "
                             "round trips, sequential and paced")
    options = parser.parse_args(argv)

    if options.smoke:
        return _smoke(options.speed or 5.0)
    if not options.data_dir:
        parser.error("data_dir is required unless --smoke is given")
    if options.speed is not None and not options.diff:
        parser.error("--speed paces a replay: give --diff too")

    if not options.diff:
        summary = _summarize(options.data_dir, options.last)
        if options.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print("journal under %s" % summary["data_dir"])
            print("  segments: %d, records: %d, last seq: %d, "
                  "discarded bytes: %d"
                  % (len(summary["segments"]), summary["records"],
                     summary["last_seq"], summary["discarded_bytes"]))
            for rtype in sorted(summary["by_type"]):
                print("  %-14s %d" % (rtype, summary["by_type"][rtype]))
            for record in summary["tail"]:
                print("  #%d %s txn=%s %s"
                      % (record["seq"], record["type"], record["txn"],
                         json.dumps(record["data"], sort_keys=True)[:100]))
        return 0

    rules = _load_rules_ref(options.rules) if options.rules else None
    try:
        result = replay(options.data_dir, rules, until=options.until,
                        speed=options.speed)
    except ReplayError as exc:
        print("replay failed: %s" % exc, file=sys.stderr)
        return 2
    return _render(result, options.speed, options.json)


def _render(result: ReplayResult, speed: Optional[float],
            as_json: bool) -> int:
    """Print a replay's verdict (and a paced one's load figures); the
    exit status is 1 when it diverged."""
    divergence = result.divergence
    paced = ({"speed": speed, "stimuli_per_second": result.stimuli_per_second,
              "latency": result.latency} if speed is not None else {})
    if as_json:
        print(json.dumps(dict(divergence.as_dict(), **paced), indent=2,
                         sort_keys=True))
        return 1 if divergence.diverged else 0
    print(divergence.summary())
    if paced:
        latency = result.latency
        print("  paced at %gx: %.0f stimuli/s; latency from schedule "
              "p50 %.3fms p95 %.3fms p99 %.3fms max %.3fms"
              % (speed, result.stimuli_per_second, latency["p50"] * 1e3,
                 latency["p95"] * 1e3, latency["p99"] * 1e3,
                 latency["max"] * 1e3))
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
