"""Record framing for the segment store: checksummed binary frames.

This module is the **only** place in the tree that computes a frame
checksum; both durable logs (the WAL and the flight-recorder journal)
write and read records exclusively through it.

Frame format::

    +-------+-----------------+-----------------+------------------+
    | magic |  payload length |  CRC-32(payload)|  payload (JSON)  |
    | 1 B   |  4 B LE         |  4 B LE         |  length bytes    |
    +-------+-----------------+-----------------+------------------+

The payload is the compact JSON encoding of either one record (an
object) or a **batch** of records (an array) — the bounded-window drain
writes each tick's queue as a single batch frame, which amortizes the
encoder and checksum across the batch.  A batch is atomic on read:
its records must all parse and carry strictly increasing sequence
numbers, or the whole frame is rejected.  Because the checksum covers
the raw payload *bytes*, writers do not need a canonical key order —
``json.dumps`` without ``sort_keys`` is enough, which is a measurable
win on the journal hot path over the previous
canonical-JSON-with-embedded-checksum line format.

Torn-tail rule: reading stops at the first frame that is malformed,
fails its checksum, or does not carry a strictly increasing sequence
number.  Everything after the stop point is untrusted — a torn tail
write — and is reported as a count of discarded trailing bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: first byte of every frame
FRAME_MAGIC = 0xA6

FRAME_HEADER = struct.Struct("<BII")  # magic, payload length, CRC-32
FRAME_HEADER_SIZE = FRAME_HEADER.size

#: upper bound on a single payload — anything larger in a header is
#: garbage read from a torn or corrupt region, not a real record
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


#: one shared compact encoder — ``json.dumps`` with non-default
#: separators constructs a fresh ``JSONEncoder`` per call, a measurable
#: cost at WAL append rates; records are trees built by us, so the
#: circular-reference check is skipped too
_encode_payload = json.JSONEncoder(
    separators=(",", ":"), check_circular=False).encode


def encode_frame(record: Any) -> bytes:
    """Encode one record (dict) or batch (list of dicts) as a frame."""
    payload = _encode_payload(record).encode("utf-8")
    return FRAME_HEADER.pack(FRAME_MAGIC, len(payload),
                             zlib.crc32(payload)) + payload


def scan_frames(data: bytes, seq_field: str,
                last_seq: int = 0) -> Tuple[List[Dict[str, Any]], int]:
    """Scan binary frames; returns ``(records, discarded_bytes)``."""
    records: List[Dict[str, Any]] = []
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < FRAME_HEADER_SIZE:
            break
        magic, length, crc = FRAME_HEADER.unpack_from(data, offset)
        if magic != FRAME_MAGIC or length > MAX_PAYLOAD_BYTES:
            break
        end = offset + FRAME_HEADER_SIZE + length
        if end > size:
            break
        payload = data[offset + FRAME_HEADER_SIZE:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            decoded = json.loads(payload)
        except ValueError:
            break
        batch = decoded if isinstance(decoded, list) else [decoded]
        if not batch:
            break
        # A batch frame is atomic: validate every record before
        # accepting any, so a bad member never half-applies the frame.
        batch_last = last_seq
        ok = True
        for record in batch:
            try:
                seq = record[seq_field]
            except (KeyError, TypeError):
                ok = False
                break
            if not isinstance(seq, int) or seq <= batch_last:
                ok = False
                break
            batch_last = seq
        if not ok:
            break
        last_seq = batch_last
        records.extend(batch)
        offset = end
    return records, size - offset


def scan_segment(path: Any, *, seq_field: str,
                 last_seq: int = 0) -> Tuple[List[Dict[str, Any]], int]:
    """Read the valid prefix of one segment file.

    Returns ``(records, discarded)`` where ``discarded`` counts the
    trailing unreadable bytes after the first bad frame.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    return scan_frames(path.read_bytes(), seq_field, last_seq)
