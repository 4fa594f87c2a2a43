"""Flight recorder: a durable journal of externally-signalled events.

All of the in-memory telemetry (metrics, firing log, watchdog alerts)
dies with the process; after a crash or a rule-storm abort there is no way to reconstruct *which* stimuli produced the incident.  The
flight recorder closes that gap: every event that enters rule processing
from **outside** — application transaction boundaries, top-level data
operations, external signals, temporal occurrences, rule administration —
is appended to a size-bounded, checksummed segment stream living next to
the WAL and checkpoint in ``data_dir/flight/``.

Because active-rule behaviour is a deterministic function of the event
sequence (Flesca & Greco, "Declarative Semantics for Active Rules"), the
journalled stimuli are *sufficient* to reproduce an incident: the replay
engine (:mod:`repro.tools.replay`) restores the nearest checkpoint and
re-signals the suffix into a fresh instance, and everything the rules did
— cascades, deferred work, separate transactions — happens again.  Rule
cascade work is therefore deliberately **not** journalled: it is output,
not input.  The recorder keeps a thread-local suppression counter which
the Rule Manager raises around all rule processing (including the
separate-transaction worker threads, whose actions may open their own
non-internal transactions); anything recorded while suppressed would be
re-derived by replay and is skipped.

Two kinds of record do bypass suppression:

* ``firing`` **response** records — the recorded outcome of each condition
  evaluation.  These are the expected *outputs* replay diffs against, so
  every evaluation is journalled no matter how deep in a cascade it ran.
* ``checkpoint`` markers — written by the checkpointer so replay knows
  where the durable state snapshot sits in the event sequence.

Stimulus records are written **before** the stimulus executes (the WAL's
intent discipline).  A torn final record therefore denotes a stimulus that
never ran: readers drop it and the journal still matches the committed
state exactly.

**Durability window.**  The journal runs in the segment store's
bounded-window mode (``FSYNC_INTERVAL_MS``): appended records queue in
recorder memory and a background thread frames, writes, and fsyncs them
every N milliseconds — so the JSON framing cost leaves the stimulus hot
path entirely (on a loaded system it overlaps the WAL's commit fsyncs),
at the price of up to N ms of journal being lost to a hard crash.  An
incident recorder tolerates that trade: a lost tail is bounded, reported
by replay as a divergence note, and never corrupts the surviving prefix
(the torn-tail scan rule).  The journal is one sequential stream, so the
surviving prefix is always a prefix of the stimulus sequence.

**Journal compaction.**  The dominant journal traffic is the
begin/op/commit plumbing of single-operation application transactions
(every SAA quote is one).  A journalled top-level sphere therefore
buffers its begin/op/firing records *on the transaction object itself*
(``txn.flight_tail``) — the sphere is thread-confined, so those appends
take no lock at all — and at the commit intent the recorder emits one
``"txn"`` record carrying the label, the ordered operation list, and the
firing responses the transaction's cascades produced.  Replay expands it
back to begin → ops → commit (re-deriving the firings live).  A sphere's
journal position is thus its *commit intent* — the same serialization
point the WAL gives it — while independent stimuli (signals, rule admin,
separate-thread firings) keep their arrival order among themselves; an
abort spills the buffer in the faithful record-by-record form instead,
since aborted work is incident material.  Buffering on the sphere is
crash-equivalent to the libc buffer: a lost tail is an uncommitted
sphere the WAL discards too.

Record shape (framed by :mod:`repro.storage.framing`)::

    {"seq": 41, "type": "external", "wall": 1754450000.123,
     "txn": "t7", "data": {...}}

``seq`` increases monotonically across segments and process restarts;
``wall`` is wall-clock epoch time (journals are read across processes, so
no monotonic clocks).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import JOURNAL_STATS_KEYS as STATS_KEYS
from repro.obs.metrics import MetricsRegistry
from repro.recovery.serialize import encode_operation, encode_value
from repro.storage import SegmentWriter, read_stream, scan_segment, segment_files

if TYPE_CHECKING:  # pragma: no cover
    from repro.events.signal import EventSignal
    from repro.objstore.operations import Operation
    from repro.rules.firing import RuleFiring
    from repro.txn.transaction import Transaction

FLIGHT_DIRNAME = "flight"
FLIGHT_PREFIX = "flight"

#: the journal's durability window (ms) — appended records queue in
#: memory and the segment writer's background thread frames, writes, and
#: fsyncs them this often
FSYNC_INTERVAL_MS = 100

# Stimulus record types (replayed by the replay engine, in order).
TXN_BEGIN = "txn-begin"
TXN_COMMIT = "txn-commit"
TXN_ABORT = "txn-abort"
#: a whole top-level transaction coalesced into one record — see
#: "Journal compaction" in the module docstring
TXN_AUTO = "txn"
OPERATION = "op"
EXTERNAL = "external"
TEMPORAL = "temporal"
DEFINE_EVENT = "define-event"
RULE_CREATE = "rule-create"
RULE_DELETE = "rule-delete"
RULE_ENABLE = "rule-enable"
RULE_DISABLE = "rule-disable"
FIRE = "fire"

# Response / bookkeeping record types (not replayed; diffed or consulted).
FIRING = "firing"
CHECKPOINT = "checkpoint"

STIMULUS_TYPES = frozenset({
    TXN_BEGIN, TXN_COMMIT, TXN_ABORT, TXN_AUTO, OPERATION, EXTERNAL,
    TEMPORAL, DEFINE_EVENT, RULE_CREATE, RULE_DELETE, RULE_ENABLE,
    RULE_DISABLE, FIRE,
})


def journal_dir(data_dir: Any) -> Path:
    """The journal directory under a HiPAC data directory."""
    return Path(data_dir) / FLIGHT_DIRNAME


def journal_segments(data_dir: Any) -> List[Path]:
    """Existing journal segments, oldest first."""
    return segment_files(journal_dir(data_dir), FLIGHT_PREFIX)


def read_segment(path: Path, last_seq: int = 0) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of one segment (the WAL's torn-tail rule).

    Returns ``(records, discarded)``; reading stops at the first
    malformed / checksum-failing / non-increasing-seq record, and
    everything after it counts as discarded.
    """
    return scan_segment(path, seq_field="seq", last_seq=last_seq)


def read_journal(data_dir: Any) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of the whole journal, across segments.

    A bad record poisons everything after it (later segments included):
    the trusted prefix is exactly what a sequential writer durably
    completed before the first tear.
    """
    return read_stream(journal_dir(data_dir), FLIGHT_PREFIX, seq_field="seq")


class FlightRecorder:
    """Append-only segmented journal of external stimuli and firings.

    Thread-safe: a single lock serializes appends (journal order *is* the
    replay order, so concurrent producers must interleave through one
    point); the suppression counter is thread-local, so one thread doing
    rule-cascade work does not mute application threads.  Framing,
    rotation, retention, and the background-fsync window are the shared
    segment writer's job (:mod:`repro.storage.segments`).
    """

    def __init__(self, data_dir: Any, *,
                 max_segment_bytes: int = 4 * 1024 * 1024,
                 max_segments: int = 8,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.directory = journal_dir(data_dir)
        self._mutex = threading.Lock()
        self._local = threading.local()
        self._closed = False
        self._stats: Dict[str, int] = {
            "suppressed": 0,
            "checkpoint_markers": 0,
        }
        # A new session always opens a fresh segment (the writer's rule):
        # the previous session's tail may be torn, and appending past a
        # tear would hide good records behind a bad one.
        self._writer = SegmentWriter(
            self.directory, FLIGHT_PREFIX, seq_field="seq",
            fsync_interval_ms=FSYNC_INTERVAL_MS,
            max_segment_bytes=max_segment_bytes,
            max_segments=max_segments,
            metrics=metrics, metric_prefix="journal")

    @property
    def stats(self) -> Dict[str, int]:
        """The :data:`STATS_KEYS` counters: the writer's plus the
        recorder's."""
        merged = dict(self._writer.stats, **self._stats)
        return {key: merged[key] for key in STATS_KEYS}

    # -- suppression ------------------------------------------------------

    @property
    def suppressed_here(self) -> bool:
        """Is the calling thread inside rule-cascade work?"""
        return getattr(self._local, "depth", 0) > 0

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Mute stimulus recording on this thread (rule-cascade scope)."""
        self._local.depth = getattr(self._local, "depth", 0) + 1
        try:
            yield
        finally:
            self._local.depth -= 1

    # -- recording --------------------------------------------------------

    @property
    def active(self) -> bool:
        return not self._closed

    def _admit(self, respect_suppression: bool = True) -> bool:
        if self._closed:
            return False
        if respect_suppression and self.suppressed_here:
            self._stats["suppressed"] += 1
            return False
        return True

    def record(self, rtype: str, data: Optional[Dict[str, Any]] = None, *,
               txn: Optional[str] = None,
               respect_suppression: bool = True) -> Optional[int]:
        """Append one record; returns its seq, or None when skipped."""
        if not self._admit(respect_suppression):
            return None
        with self._mutex:
            if self._closed:
                return None
            self._spill_current_sphere_locked()
            return self._append_locked(rtype, data, txn)

    def _append_locked(self, rtype: str, data: Optional[Dict[str, Any]],
                       txn: Optional[str]) -> int:
        # The writer fills in "seq".
        fields = {"seq": 0, "type": rtype, "wall": time.time(),
                  "txn": txn, "data": data or {}}
        return self._writer.append(fields)

    def _spill_sphere_locked(self, txn: "Transaction",
                             tail: Dict[str, Any]) -> None:
        """Write a buffered sphere out faithfully (begin + entries), in
        their arrival order — the expanded form coalescing would have
        compacted.  Used where fidelity beats compaction (aborts) and
        whenever an interleaving record must keep the journal a true
        serialization of the stimulus sequence."""
        begin = {"parent": None, "label": txn.label}
        self._append_locked(TXN_BEGIN, begin, txn.txn_id)
        for rtype, data, rtxn in tail["entries"]:
            self._append_locked(rtype, data, rtxn)

    def _spill_current_sphere_locked(self) -> None:
        """Spill the calling thread's open buffered sphere, if any.

        Called before any standalone append: a record that is not part
        of the thread's open sphere cannot journal ahead of the records
        that preceded it, so the sphere gives up coalescing and lands in
        its faithful form first (its commit then journals a plain commit
        record).  Spheres open on *other* threads are unaffected — their
        records serialize at their own commit intents.
        """
        sphere = getattr(self._local, "sphere", None)
        if sphere is None:
            return
        self._local.sphere = None
        tail = sphere.flight_tail
        sphere.flight_tail = None
        if tail is not None:
            self._spill_sphere_locked(sphere, tail)

    # -- domain helpers (stimuli; all honour suppression) -----------------

    def record_txn_begin(self, txn: "Transaction") -> Optional[int]:
        if not self._admit():
            return None
        if txn.parent is None:
            # Top-level: buffer on the (thread-confined) transaction —
            # no lock — hoping to coalesce the whole sphere into one
            # record at its commit intent.
            txn.flight_tail = {"entries": [], "ops": 0}
            self._local.sphere = txn
            return None
        begin = {"parent": txn.parent.txn_id, "label": txn.label}
        with self._mutex:
            if self._closed:
                return None
            self._spill_current_sphere_locked()
            return self._append_locked(TXN_BEGIN, begin, txn.txn_id)

    def record_txn_commit(self, txn: "Transaction") -> Optional[int]:
        if not self._admit():
            return None
        tail = txn.flight_tail
        txn.flight_tail = None
        if getattr(self._local, "sphere", None) is txn:
            self._local.sphere = None
        if tail is None:
            with self._mutex:
                if self._closed:
                    return None
                self._spill_current_sphere_locked()
                return self._append_locked(TXN_COMMIT, None, txn.txn_id)
        if not tail["entries"]:
            return None  # empty transaction: no effects, no journal
        if not tail["ops"]:
            # Firing responses but no ops (nothing to coalesce
            # around): spill faithfully.
            with self._mutex:
                if self._closed:
                    return None
                self._spill_sphere_locked(txn, tail)
                return self._append_locked(TXN_COMMIT, None, txn.txn_id)
        auto: Dict[str, Any] = {
            "label": txn.label,
            "ops": [data for rtype, data, _ in tail["entries"]
                    if rtype == OPERATION],
        }
        firings = [data for rtype, data, _ in tail["entries"]
                   if rtype == FIRING]
        if firings:
            auto["firings"] = firings
        with self._mutex:
            if self._closed:
                return None
            return self._append_locked(TXN_AUTO, auto, txn.txn_id)

    def record_txn_abort(self, txn: "Transaction") -> Optional[int]:
        if not self._admit():
            return None
        tail = txn.flight_tail
        txn.flight_tail = None
        if getattr(self._local, "sphere", None) is txn:
            self._local.sphere = None
        with self._mutex:
            if self._closed:
                return None
            # Aborts are incident material: spill the buffered sphere
            # (and any enclosing one on this thread) and keep the
            # faithful record-by-record form.
            self._spill_current_sphere_locked()
            if tail is not None:
                self._spill_sphere_locked(txn, tail)
            return self._append_locked(TXN_ABORT, None, txn.txn_id)

    def record_operation(self, op: "Operation", txn: "Transaction",
                         user: str) -> Optional[int]:
        if not self._admit():
            return None
        data = {"op": encode_operation(op), "user": user}
        tail = txn.flight_tail
        if tail is not None:
            tail["entries"].append((OPERATION, data, txn.txn_id))
            tail["ops"] += 1
            return None
        with self._mutex:
            if self._closed:
                return None
            self._spill_current_sphere_locked()
            return self._append_locked(OPERATION, data, txn.txn_id)

    def record_signal(self, signal: "EventSignal", *,
                      spec_repr: Optional[str] = None) -> Optional[int]:
        """Journal an external or temporal stimulus from its signal."""
        data = signal.journal_payload()
        if spec_repr is not None:
            data["spec"] = spec_repr
        txn = signal.txn.txn_id if signal.txn is not None else None
        rtype = EXTERNAL if signal.kind == "external" else TEMPORAL
        return self.record(rtype, data, txn=txn)

    def record_define_event(self, name: str,
                            parameters: Tuple[str, ...]) -> Optional[int]:
        return self.record(DEFINE_EVENT,
                           {"name": name, "parameters": list(parameters)})

    def record_rule_op(self, rtype: str, name: str,
                       txn: Optional["Transaction"]) -> Optional[int]:
        return self.record(rtype, {"name": name},
                           txn=txn.txn_id if txn is not None else None)

    def record_fire(self, name: str, args: Optional[Dict[str, Any]],
                    txn: Optional["Transaction"]) -> Optional[int]:
        encoded = ({key: encode_value(val) for key, val in args.items()}
                   if args else {})
        return self.record(FIRE, {"name": name, "args": encoded},
                           txn=txn.txn_id if txn is not None else None)

    # -- responses / markers (bypass suppression) -------------------------

    def record_firing(self, firing: "RuleFiring",
                      sphere: Optional["Transaction"] = None) -> Optional[int]:
        """Journal one evaluation-complete firing outcome (a response).

        Synchronous firings buffer on their enclosing sphere when the
        caller passes it (``sphere``, the top-level transaction whose
        commit intent will journal them); separate-thread firings are
        appended at once — their sphere commits outside any journalled
        transaction, so nothing downstream would carry them.
        """
        if self._closed:
            return None
        data = {
            "rule": firing.rule_name,
            "event": firing.event,
            "ec": firing.ec_coupling,
            "ca": firing.ca_coupling,
            "satisfied": firing.satisfied,
            "separate": firing.separate_thread,
            "wall_time": firing.wall_time,
        }
        txn = firing.triggering_txn
        if sphere is not None and not firing.separate_thread:
            # Buffer on the enclosing sphere (cascade firings included:
            # they arrive strictly between the sphere's begin and its
            # commit intent, so folding them into its record preserves
            # the global firing order replay re-derives).
            tail = sphere.flight_tail
            if tail is not None:
                tail["entries"].append((FIRING, data, txn))
                return None
        with self._mutex:
            if self._closed:
                return None
            self._spill_current_sphere_locked()
            return self._append_locked(FIRING, data, txn)

    def note_checkpoint(self, lsn: int) -> Optional[int]:
        """Mark that the durable checkpoint now covers everything before
        this point in the journal."""
        seq = self.record(CHECKPOINT, {"lsn": lsn},
                          respect_suppression=False)
        if seq is not None:
            self._stats["checkpoint_markers"] += 1
        return seq

    # -- introspection ----------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """The diagnosis snapshot's ``journal`` section: where the journal
        lives, its newest seq, and the ``replay --until`` command that
        re-executes up to it (``replay DIR --last N`` prints the tail)."""
        # Flush first so the on-disk journal really contains last_seq and
        # the bisection command is runnable as printed.
        self.flush()
        stats = self.stats
        section: Dict[str, Any] = {
            "dir": str(self.directory),
            "segment": str(self.segment_path),
            "last_seq": stats.get("last_seq", 0),
            "records": stats.get("records", 0),
        }
        if section["last_seq"]:
            section["replay_command"] = (
                "python -m repro.tools.replay %s --diff --until %d"
                % (self.directory.parent, section["last_seq"]))
        return section

    @property
    def segment_path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._writer.segment_path

    def flush(self) -> None:
        """Push every appended record to the OS.

        Readers of the on-disk journal mid-session (the admin ``/flight``
        download) call this first: in the bounded-window default, recent
        records may still be queued in writer memory.  A sphere still
        open at this point is *not* journalled yet — its buffered records
        land at its commit intent, the same place the WAL serializes it.
        """
        with self._mutex:
            if self._closed:
                return
            self._writer.flush()

    def close(self) -> None:
        with self._mutex:
            if self._closed:
                return
            # A transaction still open at orderly shutdown keeps its
            # buffer: no commit record exists, so replay never runs it —
            # exactly what the crash semantics of an unfinished sphere
            # require (the WAL discards its work too).
            self._closed = True
            self._writer.close()
