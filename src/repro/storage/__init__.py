"""Shared append-only segment store (WAL + flight journal substrate).

One framing codec, one segment writer, one group-commit core — see
:mod:`repro.storage.framing` for the on-disk format and
:mod:`repro.storage.segments` for the writer and durability policies.
"""

from repro.storage.framing import (
    FRAME_HEADER,
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    encode_frame,
    scan_segment,
)
from repro.storage.segments import (
    SEGMENT_SUFFIX,
    SegmentWriter,
    read_stream,
    segment_files,
)

__all__ = [
    "FRAME_HEADER",
    "FRAME_HEADER_SIZE",
    "FRAME_MAGIC",
    "SEGMENT_SUFFIX",
    "SegmentWriter",
    "encode_frame",
    "read_stream",
    "scan_segment",
    "segment_files",
]
