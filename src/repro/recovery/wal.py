"""Write-ahead log: a domain layer over the shared segment store.

The paper's execution model makes top-level transactions "atomic,
serializable, and permanent" (§3.1); this log supplies *permanent*.  Every
state change — object create/update/delete, class define/drop, rule
create/drop, transaction begin/commit/abort — is appended as one framed
record before (or, for compensations, exactly as) it is applied, and the
log is **forced before ``commit_transaction`` returns** for top-level
transactions (§6.3 ordering: deferred rule work runs first, inside the
committing transaction, so its deltas precede the commit record; the
commit record is then the last thing made durable before commit
processing resumes).

Framing, torn-tail scanning, segment rotation, and the durability wait
itself all live in :mod:`repro.storage`: the WAL appends records shaped
as ::

    {"lsn": 17, "type": "delta", "txn": "t5", "sphere": "t3", "data": {...}}

and calls :meth:`~repro.storage.segments.SegmentWriter.sync` at each
top-level commit.  Under concurrency that sync is a **group commit**:
one leader fsyncs the whole pending batch for every parked committer,
so N simultaneous commits cost one fsync.

``sphere`` is the id of the record's *top-level* transaction: recovery
groups deltas by sphere and applies a sphere's records only when its
top-level commit record is present in the durable prefix.

Nested-transaction handling: a nested commit is *not* a durability point
(its effects become permanent only through its committed top-level
ancestor), so its commit record is informational.  A nested **abort**
inside a live sphere appends *compensation* delta records — the inverses
the in-memory undo replay applies — so replaying a committed sphere's
records front-to-back reproduces exactly the state the sphere committed,
aborted subtransactions included (the ARIES CLR idea, flattened to redo).

On disk the log is a stream of ``wal-<index:08d>.seg`` binary segments
in ``data_dir``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.recovery.serialize import encode_delta
from repro.storage import SegmentWriter, read_stream, scan_segment, segment_files
from repro.txn.undo import DeltaUndo

if TYPE_CHECKING:  # pragma: no cover
    from repro.objstore.store import Delta
    from repro.txn.transaction import Transaction

WAL_PREFIX = "wal"

# Record types.
TXN_BEGIN = "begin"
TXN_COMMIT = "commit"
TXN_ABORT = "abort"
DELTA = "delta"
RULE_CREATE = "rule-create"
RULE_DROP = "rule-drop"


def read_wal_records(source: Any) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of a WAL from a data directory (or from one
    segment file).

    Returns ``(records, discarded)`` where ``discarded`` counts the
    trailing bytes dropped after the first malformed /
    checksum-failing / out-of-order record (a torn tail: everything past
    the first bad record is untrusted).
    """
    source = Path(source)
    if source.is_file() or source.suffix:
        return scan_segment(source, seq_field="lsn")
    return read_stream(source, WAL_PREFIX, seq_field="lsn")


def wal_files(data_dir: Any) -> List[Path]:
    """Existing WAL segments under ``data_dir``, oldest first."""
    return segment_files(data_dir, WAL_PREFIX)


class WriteAheadLog:
    """Append-only durable log for one HiPAC instance.

    ``fsync=True`` forces the OS buffers to stable storage at every
    top-level commit (the §6.3 durability point); ``fsync=False`` still
    pushes every committed prefix to the OS (surviving a process crash,
    not a power failure) — the mode the overhead benchmark calls plain
    "WAL".
    """

    def __init__(self, data_dir: Any, *, fsync: bool = True,
                 start_lsn: int = 0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.failed = False
        #: optional hook invoked (with the exception) when an append
        #: fails — the forensics recorder captures a bundle before anyone
        #: restarts the process; must never raise back into the log path
        self.on_append_failure: Optional[Any] = None
        self._writer = SegmentWriter(
            self.data_dir, WAL_PREFIX, seq_field="lsn", fsync=fsync,
            start_seq=start_lsn, metrics=metrics, metric_prefix="wal")
        self._stats = {"commits_forced": 0, "append_failures": 0}

    @property
    def path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._writer.segment_path

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (or pre-existing) record."""
        return self._writer.last_seq

    @property
    def stats(self) -> Dict[str, int]:
        """WAL counters merged with the underlying writer's."""
        merged = dict(self._writer.stats)
        merged.update(self._stats)
        return merged

    # ------------------------------------------------------------- append

    def append(self, rtype: str, data: Optional[Dict[str, Any]] = None, *,
               txn_id: Optional[str] = None, sphere: Optional[str] = None,
               force: bool = False) -> int:
        """Append one record; returns its LSN.  ``force`` additionally
        waits for durability (group-committed when the log fsyncs)."""
        lsn = self._writer.append({"type": rtype, "txn": txn_id,
                                   "sphere": sphere, "data": data or {}})
        if force:
            self._writer.sync(lsn)
        return lsn

    def append_safe(self, rtype: str, data: Optional[Dict[str, Any]] = None, *,
                    txn_id: Optional[str] = None,
                    sphere: Optional[str] = None) -> bool:
        """Best-effort append for abort-path records.

        A failing log device must not break in-memory abort processing: a
        sphere whose compensation cannot be logged can never durably commit
        either (its commit force would fail on the same device), so a
        missing compensation record is unrecoverable-state-safe.
        """
        try:
            self.append(rtype, data, txn_id=txn_id, sphere=sphere)
            return True
        except Exception as exc:
            self.failed = True
            self._stats["append_failures"] += 1
            if self.on_append_failure is not None:
                try:
                    self.on_append_failure(exc)
                except Exception:
                    pass
            return False

    def force(self) -> None:
        """Force buffered records to stable storage (fsync when enabled)."""
        self._writer.sync()

    # ---------------------------------------------------- domain appenders

    def log_begin(self, txn: "Transaction") -> None:
        """Record transaction creation."""
        self.append(TXN_BEGIN,
                    {"parent": txn.parent.txn_id if txn.parent else None,
                     "label": txn.label},
                    txn_id=txn.txn_id, sphere=txn.top_level().txn_id)

    def log_commit(self, txn: "Transaction") -> None:
        """Record a commit; for a top-level transaction this is the §6.3
        durability point — the record is durable before the call returns
        (one group-commit fsync covers every concurrently parked
        committer)."""
        top = txn.parent is None
        self.append(TXN_COMMIT, {"top": top},
                    txn_id=txn.txn_id, sphere=txn.top_level().txn_id,
                    force=top)
        if top:
            self._stats["commits_forced"] += 1

    def log_abort(self, txn: "Transaction") -> None:
        """Record an abort, preceded — for nested transactions inside a
        live sphere — by compensation records mirroring the inverse deltas
        the in-memory undo replay is about to apply.  Best-effort (see
        :meth:`append_safe`)."""
        sphere = txn.top_level().txn_id
        if txn.parent is not None:
            for record in reversed(txn.undo_log):
                if isinstance(record, DeltaUndo):
                    self.append_safe(
                        DELTA, encode_delta(record.delta.inverse()),
                        txn_id=txn.txn_id, sphere=sphere)
        self.append_safe(TXN_ABORT, {"top": txn.parent is None},
                         txn_id=txn.txn_id, sphere=sphere)

    def log_delta(self, delta: "Delta", txn: "Transaction") -> None:
        """Record one applied store delta (object DML or class DDL)."""
        self.append(DELTA, encode_delta(delta), txn_id=txn.txn_id,
                    sphere=txn.top_level().txn_id)

    def log_rule_create(self, name: str, attrs: Dict[str, Any],
                        txn: "Transaction") -> None:
        """Record rule registration (informational: the rule's
        ``HiPAC::Rule`` row travels as an ordinary object delta)."""
        self.append(RULE_CREATE, {"name": name, "attrs": attrs},
                    txn_id=txn.txn_id, sphere=txn.top_level().txn_id)

    def log_rule_drop(self, name: str, txn: "Transaction") -> None:
        """Record rule deletion (informational, like rule creation)."""
        self.append(RULE_DROP, {"name": name},
                    txn_id=txn.txn_id, sphere=txn.top_level().txn_id)

    # ---------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Truncate the log (after a checkpoint absorbed its records).

        LSNs keep increasing across resets; the checkpoint stores the LSN
        it covers, so replay can skip any record a checkpoint already
        reflects even if a crash lands between checkpoint write and
        truncation.
        """
        self._writer.reset()

    def close(self) -> None:
        """Flush and close the log."""
        self._writer.close()
