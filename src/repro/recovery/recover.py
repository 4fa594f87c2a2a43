"""Crash recovery: rebuild state from checkpoint + WAL replay.

Replay is redo-only and sphere-atomic.  Records are grouped by their
top-level transaction ("sphere"); a sphere's deltas are applied — in log
order — only when its top-level commit record made it into the durable
prefix.  Spheres whose top-level record is an abort, or missing entirely
(the crash interrupted them), are discarded wholesale, which realizes the
model's guarantees directly:

* no committed effect is lost (the commit record is forced *after* all the
  sphere's deltas, §6.3 — including deferred-rule deltas, which ran inside
  the committing transaction and therefore precede the commit record);
* no uncommitted or aborted effect resurfaces (its sphere never replays);
* nested commits are durable exactly through their committed top-level
  ancestor (their deltas carry its sphere id; an aborted subtransaction's
  never reach the log — a directory written when they did holds each with
  its compensation, so front-to-back replay lands on the same state).

Rules are *rebound* rather than replayed: conditions and actions are
Python callables the log cannot capture, so the recovered ``HiPAC::Rule``
rows are matched by name against a caller-supplied rule library and
re-registered; rows with no library entry are reported unbound (their
detectors stay unprogrammed until the application re-creates them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.objstore.objects import OID
from repro.objstore.store import (
    CREATE,
    DEFINE_CLASS,
    DELETE,
    DROP_CLASS,
    UPDATE,
    Delta,
    ObjectStore,
)
from repro.recovery import wal as wal_mod
from repro.recovery.checkpoint import CHECKPOINT_FILENAME, load_checkpoint
from repro.recovery.serialize import decode_attrs, decode_class_def, decode_delta
from repro.rules.rule import RULE_CLASS, Rule

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hipac import HiPAC


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    checkpoint_lsn: int = 0
    last_lsn: int = 0
    replayed_records: int = 0
    replayed_spheres: int = 0
    discarded_spheres: int = 0
    discarded_bytes: int = 0
    rules_rebound: int = 0
    rules_unbound: List[str] = field(default_factory=list)


def has_durable_state(data_dir: Any) -> bool:
    """True if ``data_dir`` holds a checkpoint or a non-empty WAL."""
    base = Path(data_dir)
    if (base / CHECKPOINT_FILENAME).exists():
        return True
    return any(path.stat().st_size > 0 for path in wal_mod.wal_files(base))


def _rule_library(rules: Union[None, Dict[str, Rule], Iterable[Rule]]
                  ) -> Dict[str, Rule]:
    if rules is None:
        return {}
    if isinstance(rules, dict):
        return dict(rules)
    return {rule.name: rule for rule in rules}


def _apply_delta(store: ObjectStore, delta: Delta) -> None:
    """Redo one logged delta at the store level.

    DDL goes through ``define_class``/``drop_class`` (not ``store.apply``,
    whose DEFINE_CLASS branch expects an already-resolved class definition
    from the undo path; decoded definitions need inheritance resolution).
    """
    if delta.kind == CREATE:
        store.insert(delta.class_name, dict(delta.new_attrs or {}),
                     oid=delta.oid)
    elif delta.kind == UPDATE:
        store.update(delta.oid, dict(delta.new_attrs or {}))
    elif delta.kind == DELETE:
        store.delete(delta.oid)
    elif delta.kind == DEFINE_CLASS:
        store.define_class(delta.class_def)
    elif delta.kind == DROP_CLASS:
        store.drop_class(delta.class_name)
    else:  # pragma: no cover - defensive
        raise ValueError("cannot replay delta kind %r" % delta.kind)


def apply_checkpoint_state(store: ObjectStore,
                           checkpoint: Dict[str, Any]) -> None:
    """Load a checkpoint snapshot into a (bootstrapped) store: schema
    classes not already present, every extent row at its recorded OID, and
    the OID allocator floor.  Shared by WAL recovery and the flight-recorder
    replay engine."""
    for class_data in checkpoint["schema"]:
        if not store.schema.has(class_data["name"]):
            store.define_class(decode_class_def(class_data))
    for class_name, number, attrs in checkpoint["extents"]:
        store.insert(class_name, decode_attrs(attrs) or {},
                     oid=OID(class_name, number))
    # ``next_oid`` is the number the *next* allocation would have used
    # (``peek()``), so the floor — "never allocate <= this again" — is one
    # below it.  Flooring at ``next_oid`` itself would skip one number and
    # desynchronize deterministic replay from the recorded timeline.
    store.ensure_oid_floor(checkpoint["next_oid"] - 1)


def rebind_stored_rules(db: Any,
                        rules: Union[None, Dict[str, Rule], Iterable[Rule]],
                        report: "RecoveryReport") -> None:
    """Rebind recovered ``HiPAC::Rule`` rows to the caller's rule library.

    Conditions and actions are Python callables the durable formats cannot
    capture, so each stored row is matched by name and re-registered
    against the supplied :class:`Rule` object; unmatched rows are counted
    on ``report.rules_unbound``."""
    library = _rule_library(rules)
    rows = sorted(db.store.snapshot_state().get(RULE_CLASS, {}).items(),
                  key=lambda item: item[0].number)
    for oid, attrs in rows:
        name = attrs["name"]
        rule = library.get(name)
        if rule is None:
            report.rules_unbound.append(name)
            continue
        txn = db.transaction_manager.create_transaction(
            label="recover:%s" % name, internal=True)
        try:
            db.rule_catalog.reattach_rule(rule, oid, bool(attrs["enabled"]),
                                          txn)
            db.transaction_manager.commit_transaction(txn)
        except BaseException:
            if not txn.is_finished():
                db.transaction_manager.abort_transaction(txn)
            raise
        report.rules_rebound += 1


def replay_into(db: Any, data_dir: Any,
                rules: Union[None, Dict[str, Rule], Iterable[Rule]] = None
                ) -> RecoveryReport:
    """Rebuild durable state into a freshly-bootstrapped ``db`` (the HiPAC
    facade, duck-typed) from the checkpoint + WAL under ``data_dir``.

    Must run before a WAL is attached to ``db`` — recovery's own store
    operations are not themselves re-logged (the post-recovery checkpoint
    absorbs them).
    """
    report = RecoveryReport()
    store: ObjectStore = db.store

    checkpoint = load_checkpoint(data_dir)
    if checkpoint is not None:
        report.checkpoint_lsn = checkpoint["lsn"]
        apply_checkpoint_state(store, checkpoint)

    records, discarded = wal_mod.read_wal_records(data_dir)
    report.discarded_bytes = discarded
    report.last_lsn = max(report.checkpoint_lsn,
                          records[-1]["lsn"] if records else 0)

    live = [record for record in records
            if record["lsn"] > report.checkpoint_lsn]

    # A sphere's fate is its *last* top-level outcome record: a commit
    # record followed by an abort record means the commit force failed
    # after the record landed and the system rolled the sphere back.
    fate: Dict[str, str] = {}
    for record in live:
        if record["data"].get("top") and record["type"] in (
                wal_mod.TXN_COMMIT, wal_mod.TXN_ABORT):
            fate[record["sphere"]] = record["type"]

    # Group the surviving records by sphere; apply committed spheres in
    # commit order (log order of their top-level commit records).
    pending: Dict[str, List[Delta]] = {}
    for record in live:
        rtype = record["type"]
        sphere = record["sphere"]
        if rtype == wal_mod.DELTA:
            pending.setdefault(sphere, []).append(
                decode_delta(record["data"]))
        elif rtype == wal_mod.TXN_COMMIT and record["data"].get("top"):
            deltas = pending.pop(sphere, [])
            if fate.get(sphere) != wal_mod.TXN_COMMIT:
                report.discarded_spheres += 1
                continue
            for delta in deltas:
                _apply_delta(store, delta)
                report.replayed_records += 1
            report.replayed_spheres += 1
        elif rtype == wal_mod.TXN_ABORT and record["data"].get("top"):
            if pending.pop(sphere, None) is not None:
                report.discarded_spheres += 1
    # Spheres with no top-level outcome record: the crash caught them
    # mid-flight; their effects were never durable.
    report.discarded_spheres += len(pending)
    pending.clear()

    # The OID allocator must never re-issue a recovered identifier.
    highest = max(
        (oid.number for extent in store.snapshot_state().values()
         for oid in extent),
        default=0)
    store.ensure_oid_floor(highest)

    # Rebind recovered rule rows to the caller's rule library.
    rebind_stored_rules(db, rules, report)
    return report


def recover(data_dir: Any, *,
            rules: Union[None, Dict[str, Rule], Iterable[Rule]] = None,
            durability: Optional[str] = "wal", **kwargs: Any) -> "HiPAC":
    """Build a HiPAC instance from the durable state under ``data_dir``.

    With ``durability="wal"`` (default) the instance continues logging to
    the same directory — the normal restart path, equivalent to
    ``HiPAC(durability="wal", data_dir=..., rule_library=rules)``.  With
    ``durability=None`` the recovered instance is a plain in-memory system
    (what the crash-sweep tests use to inspect a prefix without mutating
    the fault directory).
    """
    from repro.core.hipac import HiPAC

    if durability is not None:
        return HiPAC(durability=durability, data_dir=data_dir,
                     rule_library=rules, **kwargs)
    db = HiPAC(**kwargs)
    db._recovery_report = replay_into(db, data_dir, rules=rules)
    return db
