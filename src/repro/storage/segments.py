"""Append-only segment store with a group-commit core.

One :class:`SegmentWriter` owns everything both durable logs used to
implement separately: sequence-number assignment, binary framing
(:mod:`repro.storage.framing`), size-bounded segment rotation with
retention, torn-tail-tolerant startup scan, and the durability policy.

Durability policies
-------------------

``fsync=True``
    The §6.3 mode: :meth:`SegmentWriter.sync` returns only once the
    target record is on stable storage.  Concurrent committers are
    group-committed — each syncing thread parks on a condition variable
    while one *leader* flushes and fsyncs the whole pending batch, then
    wakes the cohort.  N concurrent commits cost one fsync, not N.

``fsync=False``
    :meth:`sync` flushes to the OS (survives a process crash, not a
    power failure) — the benchmark's plain "wal" mode.

``fsync_interval_ms=N``
    Bounded durability window: appends are *deferred* — the record dict
    is queued under the mutex and the encode + write + fsync run on the
    background thread every N milliseconds (or at the next explicit
    :meth:`sync`/:meth:`flush`, which drain first).  At most the last
    N ms of records are exposed to a crash, and the framing cost leaves
    the caller's hot path entirely — on a busy system it overlaps the
    WAL's fsync waits.  Queued record dicts are owned by the writer once
    appended: callers must not mutate them afterwards.

A stream keeps one policy for life: the WAL frames each record as it is
appended and group-commits, the flight journal runs the bounded window.

A new session always opens a fresh segment: the previous session's tail
may be torn, and appending past a tear would hide good records behind a
bad one.  Segment files are named ``<prefix>-<index:08d>.seg``.
"""

from __future__ import annotations

import os
import threading
import time as _time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import UnreadableLogError
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.storage.framing import encode_frame, scan_segment

SEGMENT_SUFFIX = ".seg"

#: group-commit batch sizes are small record counts, not latencies
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def segment_files(directory: Any, prefix: str) -> List[Path]:
    """Existing segment files for one stream, oldest first.

    Raises :class:`~repro.errors.UnreadableLogError` if the stream still
    has a ``.jsonl`` file (``wal.jsonl``, ``<prefix>-<index>.jsonl``): no
    reader for that format remains, and skipping it would pass a
    directory with history off as an empty one.
    """
    directory = Path(directory)
    if not directory.exists():
        return []
    stale = sorted(directory.glob(prefix + "*.jsonl"))
    if stale:
        raise UnreadableLogError(stale[0])
    indexed: List[Tuple[int, Path]] = []
    for path in directory.glob(prefix + "-*" + SEGMENT_SUFFIX):
        try:
            index = int(path.stem.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            continue
        indexed.append((index, path))
    indexed.sort()
    return [path for _, path in indexed]


def read_stream(directory: Any, prefix: str, *, seq_field: str
                ) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of a whole stream, across segments.

    A bad record poisons everything after it (later segments included):
    the trusted prefix is exactly what a sequential writer durably
    completed before the first tear.  ``discarded`` counts the dropped
    trailing bytes: the unreadable tail of the torn segment plus the
    whole of every later segment.
    """
    records: List[Dict[str, Any]] = []
    discarded = 0
    files = segment_files(directory, prefix)
    last_seq = 0
    for index, path in enumerate(files):
        seg_records, seg_discarded = scan_segment(
            path, seq_field=seq_field, last_seq=last_seq)
        records.extend(seg_records)
        if seg_records:
            last_seq = seg_records[-1][seq_field]
        if seg_discarded:
            discarded += seg_discarded
            discarded += sum(later.stat().st_size
                             for later in files[index + 1:])
            break
    return records, discarded


class SegmentWriter:
    """Thread-safe appender for one segment stream.

    Appends are serialized by an internal mutex (log order *is* replay
    order); durability waits park on a separate condition variable so a
    leader's fsync never blocks concurrent appends.
    """

    def __init__(self, directory: Any, prefix: str, *, seq_field: str,
                 fsync: bool = False,
                 fsync_interval_ms: Optional[int] = None,
                 max_segment_bytes: Optional[int] = None,
                 max_segments: Optional[int] = None,
                 start_seq: int = 0,
                 metrics: Optional[MetricsRegistry] = None,
                 metric_prefix: Optional[str] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.seq_field = seq_field
        self.fsync_enabled = bool(fsync) and fsync_interval_ms is None
        self.fsync_interval_ms = fsync_interval_ms
        #: interval mode defers framing to the drain points; the pending
        #: queue holds appended-but-unwritten record dicts
        self._defer = fsync_interval_ms is not None
        self._pending: List[Dict[str, Any]] = []
        self.max_segment_bytes = max_segment_bytes
        self.max_segments = max_segments
        self._metrics = metrics or MetricsRegistry(enabled=False)
        name = metric_prefix or prefix
        self._append_seconds = self._metrics.histogram(
            "%s_append_seconds" % name, sample=HOT_PATH_SAMPLE)
        self._fsync_seconds = self._metrics.histogram(
            "%s_fsync_seconds" % name)
        #: how many records each leader fsync made durable — the direct
        #: measure of how well group commit amortizes the §6.3 force;
        #: only a full-fsync writer runs group commit, so only it has one
        if self.fsync_enabled:
            self._batch_size = self._metrics.histogram(
                "%s_group_batch_size" % name, buckets=BATCH_SIZE_BUCKETS)
        self._mutex = threading.Lock()
        self._cond = threading.Condition(threading.Lock())
        self._sync_active = False
        self._closed = False
        self.stats: Dict[str, int] = {
            "records": 0, "bytes": 0, "segments": 0, "rotations": 0,
            "dropped_segments": 0, "fsyncs": 0, "syncs": 0,
            "group_leads": 0, "group_follows": 0, "batched_records": 0,
            "last_seq": 0,
        }
        existing = segment_files(self.directory, prefix)
        records, _ = read_stream(self.directory, prefix, seq_field=seq_field)
        self._seq = max(start_seq,
                        records[-1][seq_field] if records else 0)
        self._durable_seq = self._seq
        self._open_segment_locked(self._next_index(existing))
        self.stats["segments"] = len(existing) + 1
        self.stats["last_seq"] = self._seq
        self._stop = threading.Event()
        self._interval_thread: Optional[threading.Thread] = None
        if fsync_interval_ms is not None:
            self._interval_thread = threading.Thread(
                target=self._interval_loop,
                name="%s-fsync" % name, daemon=True)
            self._interval_thread.start()

    # ------------------------------------------------------------ segments

    @staticmethod
    def _next_index(existing: List[Path]) -> int:
        best = 0
        for path in existing:
            try:
                best = max(best, int(path.stem.rsplit("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return best + 1

    def _open_segment_locked(self, index: int) -> None:
        self._segment_index = index
        self._segment_path = self.directory / (
            "%s-%08d%s" % (self.prefix, index, SEGMENT_SUFFIX))
        self._file = open(self._segment_path, "ab")
        self._segment_bytes = self._segment_path.stat().st_size

    def _rotate_locked(self) -> None:
        self._file.flush()
        if self.fsync_enabled or self.fsync_interval_ms is not None:
            # The outgoing segment must be stable before it leaves the
            # leader's reach: a group-commit fsync that races the close
            # of a rotated-away file relies on this (see sync()).
            os.fsync(self._file.fileno())
            self.stats["fsyncs"] += 1
        rotated_to = self._seq
        self._file.close()
        self._open_segment_locked(self._segment_index + 1)
        self.stats["rotations"] += 1
        segments = segment_files(self.directory, self.prefix)
        if self.max_segments is not None:
            while len(segments) > self.max_segments:
                victim = segments.pop(0)
                try:
                    os.unlink(victim)
                except OSError:
                    break
                self.stats["dropped_segments"] += 1
        self.stats["segments"] = len(segments)
        if self.fsync_enabled:
            with self._cond:
                if rotated_to > self._durable_seq:
                    self._durable_seq = rotated_to
                    self._cond.notify_all()

    # -------------------------------------------------------------- append

    @property
    def last_seq(self) -> int:
        with self._mutex:
            return self._seq

    @property
    def durable_seq(self) -> int:
        with self._cond:
            return self._durable_seq

    @property
    def segment_path(self) -> Path:
        """Path of the segment currently being appended to."""
        return self._segment_path

    def append(self, fields: Dict[str, Any]) -> int:
        """Frame and append one record; returns its sequence number.

        The writer owns numbering: ``fields[seq_field]`` is assigned here
        (the argument dict is updated in place).  The frame lands in the
        process buffer; pushing it to the OS is :meth:`flush`'s job and
        durability :meth:`sync`'s.
        """
        with self._mutex:
            if self._closed:
                raise ValueError("segment writer is closed")
            if self._defer:
                # Bounded-window mode: queue the dict; the background
                # thread (or the next drain point) frames and writes it:
                # nothing but the queue append is on this path.
                self._seq += 1
                fields[self.seq_field] = self._seq
                self._pending.append(fields)
                self.stats["records"] += 1
                self.stats["last_seq"] = self._seq
                return self._seq
            timed = self._append_seconds.should_sample()
            start = _time.perf_counter() if timed else 0.0
            self._seq += 1
            fields[self.seq_field] = self._seq
            frame = encode_frame(fields)
            self._file.write(frame)
            self._segment_bytes += len(frame)
            self.stats["records"] += 1
            self.stats["bytes"] += len(frame)
            self.stats["last_seq"] = self._seq
            if (self.max_segment_bytes is not None
                    and self._segment_bytes >= self.max_segment_bytes):
                self._rotate_locked()
            if timed:
                self._append_seconds.observe(_time.perf_counter() - start)
            return self._seq

    #: records per batch frame at drain — bounds a single frame's
    #: payload (a stalled queue never produces an unscannable monster)
    DRAIN_BATCH_RECORDS = 512

    def _drain_locked(self) -> None:
        """Write the pending queue as batch frames (interval mode only;
        caller holds ``_mutex``).  One frame per batch amortizes the
        JSON encoder and the checksum across the whole tick."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for start in range(0, len(pending), self.DRAIN_BATCH_RECORDS):
            chunk = pending[start:start + self.DRAIN_BATCH_RECORDS]
            frame = encode_frame(chunk if len(chunk) > 1 else chunk[0])
            self._file.write(frame)
            self._segment_bytes += len(frame)
            self.stats["bytes"] += len(frame)
            if (self.max_segment_bytes is not None
                    and self._segment_bytes >= self.max_segment_bytes):
                self._rotate_locked()

    def flush(self) -> None:
        """Push buffered records to the OS (no fsync)."""
        with self._mutex:
            if not self._closed:
                self._drain_locked()
                self._file.flush()

    # ---------------------------------------------------------- durability

    def sync(self, seq: Optional[int] = None) -> None:
        """Make records up to ``seq`` durable per the configured policy.

        Full-fsync mode runs the group-commit protocol: if the target is
        already durable the call piggybacks on a previous leader; if a
        leader is in flight the caller parks until woken and re-checks;
        otherwise the caller becomes leader, flushes + fsyncs the whole
        pending batch once, and wakes the cohort.
        """
        if seq is None:
            with self._mutex:
                seq = self._seq
        self.stats["syncs"] += 1
        if not self.fsync_enabled:
            # Flush-only and interval modes: the OS (plus the background
            # fsync thread, when configured) owns the rest.
            self.flush()
            return
        with self._cond:
            while True:
                if self._durable_seq >= seq:
                    self.stats["group_follows"] += 1
                    return
                if not self._sync_active:
                    self._sync_active = True
                    break
                self._cond.wait()
        try:
            with self._mutex:
                target = self._seq
                file = None if self._closed else self._file
                if file is not None:
                    file.flush()
            if file is not None:
                timed = self._metrics.enabled
                start = _time.perf_counter() if timed else 0.0
                try:
                    os.fsync(file.fileno())
                except ValueError:
                    # The segment rotated away between the snapshot and
                    # the fsync; rotation fsynced it before closing.
                    pass
                self.stats["fsyncs"] += 1
                if timed:
                    self._fsync_seconds.observe(_time.perf_counter() - start)
        except BaseException:
            # Leadership must not be stranded: wake the cohort so a
            # waiter can retry (and surface its own failure).
            with self._cond:
                self._sync_active = False
                self._cond.notify_all()
            raise
        with self._cond:
            batch = target - self._durable_seq
            if batch > 0:
                self.stats["group_leads"] += 1
                self.stats["batched_records"] += batch
                self._batch_size.observe(batch)
                self._durable_seq = target
            self._sync_active = False
            self._cond.notify_all()

    def _interval_loop(self) -> None:
        interval = (self.fsync_interval_ms or 0) / 1000.0
        while not self._stop.wait(interval):
            self._background_sync()

    def _background_sync(self) -> None:
        with self._mutex:
            if self._closed:
                return
            target = self._seq
            if target <= self._durable_seq:
                return
            self._drain_locked()
            file = self._file
            file.flush()
        try:
            os.fsync(file.fileno())
        except (OSError, ValueError):
            return
        self.stats["fsyncs"] += 1
        with self._cond:
            if target > self._durable_seq:
                self._durable_seq = target

    # ---------------------------------------------------------- lifecycle

    def reset(self) -> None:
        """Delete every segment and start a fresh one — the
        post-checkpoint truncation.  Sequence numbers keep
        increasing across resets."""
        with self._mutex:
            self._pending = []  # truncated along with the log they belong to
            self._file.close()
            for path in segment_files(self.directory, self.prefix):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._open_segment_locked(self._segment_index + 1)
            self.stats["segments"] = 1
            target = self._seq
        with self._cond:
            # Truncated records need no durability wait.
            if target > self._durable_seq:
                self._durable_seq = target
                self._cond.notify_all()

    def close(self) -> None:
        """Flush (and in durable modes fsync) then close the stream."""
        self._stop.set()
        if self._interval_thread is not None:
            self._interval_thread.join(timeout=1.0)
        with self._mutex:
            if self._closed:
                return
            self._drain_locked()
            self._closed = True
            self._file.flush()
            if self.fsync_enabled or self.fsync_interval_ms is not None:
                try:
                    os.fsync(self._file.fileno())
                except (OSError, ValueError):
                    pass
            self._file.close()
            target = self._seq
        with self._cond:
            if target > self._durable_seq:
                self._durable_seq = target
            self._cond.notify_all()
