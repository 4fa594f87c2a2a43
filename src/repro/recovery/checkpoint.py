"""Checkpointing: bound WAL replay by snapshotting the full state.

A checkpoint is a single atomically-replaced JSON file holding the schema
(superclass-first so it can be re-defined in order), every extent row and
the OID allocator's floor — everything replay needs (rules are rebound from
their ``HiPAC::Rule`` rows, which are extent rows), produced via the same
canonical serialization the WAL uses.  The file records the WAL LSN it
covers; after a successful write the WAL is truncated.  LSNs stay
monotonic across truncations, so a crash *between* checkpoint write and WAL
truncation is harmless: replay skips every record with
``lsn <= checkpoint.lsn``.

Checkpoints are taken only at quiescent points — no live transactions — so
the snapshot never contains uncommitted state.  The
:class:`Checkpointer` is invoked by the Transaction Manager after each
top-level commit and triggers when the WAL has grown by
``interval_records`` records since the last checkpoint.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.recovery.serialize import encode_attrs, encode_class_def

CHECKPOINT_FILENAME = "checkpoint.json"
CHECKPOINT_FORMAT = 1


def load_checkpoint(data_dir: Any) -> Optional[Dict[str, Any]]:
    """Load and validate the checkpoint file, or None if absent/unusable.

    An unreadable checkpoint with no WAL to fall back on would silently
    recover an empty store, so corruption raises instead of returning None
    only when the file exists but cannot be parsed — a half-written
    checkpoint is impossible by construction (atomic replace), making a
    parse failure here a real storage fault worth surfacing.
    """
    path = Path(data_dir) / CHECKPOINT_FILENAME
    if not path.exists():
        return None
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("format") != CHECKPOINT_FORMAT:
        raise ValueError("unsupported checkpoint format: %r"
                         % data.get("format"))
    return data


def _schema_superclass_first(schema: Any) -> List[Dict[str, Any]]:
    names = schema.class_names()
    names.sort(key=lambda name: (len(schema.lineage(name)), name))
    return [encode_class_def(schema.get(name)) for name in names]


class Checkpointer:
    """Writes checkpoints for one HiPAC instance.

    ``db`` is duck-typed: it needs ``store`` and ``transaction_manager``
    attributes (the facade).
    """

    def __init__(self, db: Any, wal: Any) -> None:
        self.db = db
        self.wal = wal
        self.path = Path(wal.data_dir) / CHECKPOINT_FILENAME
        #: checkpoint automatically once the WAL holds this many records
        #: past the last checkpoint (None disables automatic checkpoints)
        self.interval_records: Optional[int] = None
        self._last_lsn = wal.last_lsn
        self.stats = {"checkpoints": 0, "skipped": 0}

    def maybe_checkpoint(self) -> bool:
        """Checkpoint if the interval has been reached and the system is
        quiescent (called by the Transaction Manager after each top-level
        commit)."""
        if self.interval_records is None:
            return False
        if self.wal.last_lsn - self._last_lsn < self.interval_records:
            return False
        return self.checkpoint()

    def checkpoint(self) -> bool:
        """Snapshot the state and truncate the WAL.

        Refuses (returns False) while transactions are live: their
        uncommitted effects sit in the extents (in-place mutation model)
        and must not become durable.
        """
        if self.db.transaction_manager.live_transactions():
            self.stats["skipped"] += 1
            return False
        store = self.db.store
        state = {
            "format": CHECKPOINT_FORMAT,
            "lsn": self.wal.last_lsn,
            "next_oid": store.next_oid_number(),
            "schema": _schema_superclass_first(store.schema),
            "extents": [
                [oid.class_name, oid.number, encode_attrs(attrs)]
                for class_name, extent in sorted(
                    store.snapshot_state().items())
                for oid, attrs in sorted(extent.items(),
                                         key=lambda item: item[0].number)
            ],
        }
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        recorder = getattr(self.db, "flight_recorder", None)
        if recorder is not None and recorder.active:
            # Journal marker: replay starts from the newest marker whose
            # LSN matches the checkpoint file — everything before it is
            # covered by the snapshot, everything after is the suffix to
            # re-signal.
            recorder.note_checkpoint(state["lsn"])
        self.wal.reset()
        self._last_lsn = self.wal.last_lsn
        self.stats["checkpoints"] += 1
        return True
