"""Write-ahead log: a domain layer over the shared segment store.

The paper's execution model makes top-level transactions "atomic,
serializable, and permanent" (§3.1); this log supplies *permanent*, and
it is written at one point: the top-level commit (§6.3).  Deferred rule
work has run by then, inside the committing transaction, and the
sphere's surviving writes — object create/update/delete, class
define/drop, a rule's ``HiPAC::Rule`` row — stand once, in order, in the
transaction's undo log (a nested commit handed its records up, a nested
abort consumed them).  :meth:`WriteAheadLog.log_commit` appends each as
one framed ``delta`` record, then the ``commit`` record, and **forces
the log before ``commit_transaction`` returns**.  Nothing reaches the
log earlier: no other transaction and no checkpoint can see a write
before that force (strict locking; checkpoints refuse live
transactions), so redo information is needed at commit and not before —
and work that aborts, nested or top-level, costs the log nothing.  What
happened transaction by transaction — begins, nested outcomes, rule
administration — is the flight journal's fact
(:mod:`repro.obs.flightrec`), not this log's.

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

The only partial sphere a log can hold is a commit that failed or
crashed part-way.  A crash leaves deltas without an outcome, which
recovery discards; a write that *raises* is followed by a best-effort
``abort`` record, because the commit record may already have landed when
its force failed and recovery takes a sphere's last outcome.

On disk the log is a stream of ``wal-<index:08d>.seg`` binary segments
in ``data_dir``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.metrics import WAL_STATS_KEYS as STATS_KEYS
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
        """The :data:`STATS_KEYS` counters: the writer's plus the WAL's."""
        merged = dict(self._writer.stats, **self._stats)
        return {key: merged[key] for key in STATS_KEYS}

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
        """Every failed log write passes here once: durability is
        broken, ``/health`` reads the count and forensics captures on
        the hook."""
        self._stats["append_failures"] += 1
        if self.on_append_failure is not None:
            try:
                self.on_append_failure(exc)
            except Exception:
                pass

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
        """The whole durable write of a top-level transaction, at the
        §6.3 durability point: its surviving deltas in undo-log order,
        then the commit record — durable before the call returns (one
        group-commit fsync covers every concurrently parked committer).

        A write that raises may leave the commit record behind (the force
        is what failed): the best-effort abort record settles the sphere
        for recovery."""
        try:
            for record in txn.undo_log:
                if isinstance(record, DeltaUndo):
                    self.log_delta(record.delta, txn)
            self.force(self.append(TXN_COMMIT, {"top": True},
                                   sphere=txn.txn_id))
        except BaseException:
            try:
                self.append(TXN_ABORT, {"top": True}, sphere=txn.txn_id)
            except Exception:
                pass  # counted and reported by append()
            raise
        self._stats["commits_forced"] += 1

    def log_delta(self, delta: "Delta", txn: "Transaction") -> None:
        """Record one store delta (object DML or class DDL) of the
        committing top-level transaction ``txn``."""
        self.append(DELTA, encode_delta(delta), sphere=txn.txn_id)

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
