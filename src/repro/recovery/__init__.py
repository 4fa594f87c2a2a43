"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

The paper's execution model (§3.1) makes top-level transactions permanent;
this package supplies that guarantee for the otherwise in-memory
reproduction.  See :mod:`repro.recovery.wal` for the log format and §6.3
ordering, :mod:`repro.recovery.checkpoint` for snapshots, and
:mod:`repro.recovery.recover` for sphere-atomic replay.

Enable it through the facade::

    db = HiPAC(durability="wal", data_dir="...", rule_library=[...])
"""

from repro.recovery.checkpoint import CHECKPOINT_FILENAME, Checkpointer, load_checkpoint
from repro.recovery.faults import FaultingWAL, InjectedCrash, corrupt_record, truncated_copy
from repro.recovery.recover import (
    RecoveryReport,
    has_durable_state,
    recover,
    replay_into,
)
from repro.recovery.wal import (
    WriteAheadLog,
    read_wal_records,
    wal_files,
)

__all__ = [
    "CHECKPOINT_FILENAME",
    "Checkpointer",
    "FaultingWAL",
    "InjectedCrash",
    "RecoveryReport",
    "WriteAheadLog",
    "corrupt_record",
    "has_durable_state",
    "load_checkpoint",
    "read_wal_records",
    "recover",
    "replay_into",
    "truncated_copy",
    "wal_files",
]
