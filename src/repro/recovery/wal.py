"""Write-ahead log: a domain layer over the shared segment store.

The paper's execution model makes top-level transactions "atomic,
serializable, and permanent" (§3.1); this log supplies *permanent*, and
it holds what redo-only recovery reads and nothing else: every store
delta — object create/update/delete, class define/drop, a rule's
``HiPAC::Rule`` row — appended as one framed record before (or, for
compensations, exactly as) it is applied, and the *top-level* outcome of
its sphere.  The log is **forced before ``commit_transaction`` returns**
for top-level transactions (§6.3 ordering: deferred rule work runs
first, inside the committing transaction, so its deltas precede the
commit record; the commit record is then the last thing made durable
before commit processing resumes).  What happened transaction by
transaction — begins, nested outcomes, rule administration — is the
flight journal's fact (:mod:`repro.obs.flightrec`), not this log's.

Framing, torn-tail scanning, segment rotation, and the durability wait
itself all live in :mod:`repro.storage`: the WAL appends records shaped
as ::

    {"lsn": 17, "type": "delta", "sphere": "t3", "data": {...}}

and calls :meth:`~repro.storage.segments.SegmentWriter.sync` at each
top-level commit.  Under concurrency that sync is a **group commit**:
one leader fsyncs the whole pending batch for every parked committer,
so N simultaneous commits cost one fsync.

``sphere`` is the id of the record's *top-level* transaction: recovery
groups deltas by sphere and applies a sphere's records only when its
top-level commit record is present in the durable prefix.  ``commit``
and ``abort`` records carry ``{"top": true}``, which recovery tests
before it believes one: a directory written when nested outcomes were
still logged holds ``{"top": false}`` markers, and those decide nothing.

Nested-transaction handling: a nested commit is *not* a durability point
(its effects become permanent only through its committed top-level
ancestor), so it writes nothing.  A nested **abort** inside a live
sphere appends *compensation* delta records — the inverses the in-memory
undo replay applies — so replaying a committed sphere's records
front-to-back reproduces exactly the state the sphere committed, aborted
subtransactions included (the ARIES CLR idea, flattened to redo).

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
TXN_COMMIT = "commit"
TXN_ABORT = "abort"
DELTA = "delta"


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
        #: optional hook invoked (with the exception) when a log write —
        #: an append or a force — fails: the forensics recorder captures
        #: a bundle before anyone restarts the process; must never raise
        #: back into the log path
        self.on_append_failure: Optional[Any] = None
        self._writer = SegmentWriter(
            self.data_dir, WAL_PREFIX, seq_field="lsn", fsync=fsync,
            start_seq=start_lsn, metrics=metrics, metric_prefix="wal")
        #: ``append_failures`` counts log writes that failed, forces included
        self._stats = {"commits_forced": 0, "append_failures": 0}

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

    def append(self, rtype: str, data: Dict[str, Any], *, sphere: str) -> int:
        """Append one record; returns its LSN."""
        try:
            return self._writer.append({"type": rtype, "sphere": sphere,
                                        "data": data})
        except Exception as exc:
            self._write_failed(exc)
            raise

    def _write_failed(self, exc: Exception) -> None:
        """Every failed log write passes here once, whether its caller
        raises it (a delta, the commit force) or swallows it (the abort
        path): durability is broken either way, ``/health`` reads the
        count and forensics captures on the hook."""
        self._stats["append_failures"] += 1
        if self.on_append_failure is not None:
            try:
                self.on_append_failure(exc)
            except Exception:
                pass

    def append_safe(self, rtype: str, data: Dict[str, Any], *,
                    sphere: str) -> None:
        """Best-effort append for abort-path records.

        A failing log device must not break in-memory abort processing: a
        sphere whose compensation cannot be logged can never durably commit
        either (its commit force would fail on the same device), so a
        missing compensation record is unrecoverable-state-safe.
        """
        try:
            self.append(rtype, data, sphere=sphere)
        except Exception:
            pass  # counted and reported by append()

    def force(self, lsn: Optional[int] = None) -> None:
        """Wait until the records up to ``lsn`` (default: every appended
        one) are on stable storage — group-committed when the log fsyncs,
        pushed to the OS when it does not."""
        try:
            self._writer.sync(lsn)
        except Exception as exc:
            self._write_failed(exc)
            raise

    # ---------------------------------------------------- domain appenders

    def log_commit(self, txn: "Transaction") -> None:
        """Record the commit of a top-level transaction, the §6.3
        durability point — the record is durable before the call returns
        (one group-commit fsync covers every concurrently parked
        committer)."""
        self.force(self.append(TXN_COMMIT, {"top": True}, sphere=txn.txn_id))
        self._stats["commits_forced"] += 1

    def log_abort(self, txn: "Transaction") -> None:
        """Record an abort.  Best-effort (see :meth:`append_safe`).

        A nested transaction inside a live sphere leaves compensation
        records mirroring the inverse deltas the in-memory undo replay is
        about to apply, and no marker; a top-level one leaves the outcome
        record that discards its sphere at replay."""
        if txn.parent is None:
            self.append_safe(TXN_ABORT, {"top": True}, sphere=txn.txn_id)
            return
        sphere = txn.top_level().txn_id
        for record in reversed(txn.undo_log):
            if isinstance(record, DeltaUndo):
                self.append_safe(DELTA, encode_delta(record.delta.inverse()),
                                 sphere=sphere)

    def log_delta(self, delta: "Delta", txn: "Transaction") -> None:
        """Record one applied store delta (object DML or class DDL)."""
        self.append(DELTA, encode_delta(delta),
                    sphere=txn.top_level().txn_id)

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
