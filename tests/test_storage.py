"""Shared segment store tests: framing, multi-segment reads, rotation,
group commit, and the refusal of pre-segment-store JSONL logs.

The WAL- and journal-level behaviours (recovery sweeps, replay) live in
``test_wal_recovery.py`` / ``test_flightrec.py``; this file exercises the
storage layer directly, plus one end-to-end claim: a data directory that
still holds a ``.jsonl`` log fails recovery by name instead of opening
as empty.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import HiPAC
from repro.errors import UnreadableLogError
from repro.recovery.recover import recover
from repro.storage import (
    FRAME_HEADER_SIZE,
    SegmentWriter,
    encode_frame,
    read_stream,
    scan_segment,
    segment_files,
)
from repro.storage.framing import scan_frames


class TestFraming:
    def test_binary_frame_round_trip(self):
        records = [{"seq": i, "type": "external",
                    "data": {"n": i, "text": "päyload-%d" % i}}
                   for i in range(1, 6)]
        blob = b"".join(encode_frame(r) for r in records)
        decoded, discarded = scan_frames(blob, "seq", 0)
        assert decoded == records
        assert discarded == 0

    def test_crc_corruption_mid_segment_stops_the_scan(self):
        records = [{"seq": i, "data": {"n": i}} for i in range(1, 6)]
        frames = [bytearray(encode_frame(r)) for r in records]
        frames[2][FRAME_HEADER_SIZE + 2] ^= 0xFF  # payload byte of seq 3
        blob = b"".join(bytes(f) for f in frames)
        decoded, discarded = scan_frames(blob, "seq", 0)
        assert [r["seq"] for r in decoded] == [1, 2]
        assert discarded == sum(len(f) for f in frames[2:])

    def test_torn_header_and_torn_payload_are_discarded(self):
        good = encode_frame({"seq": 1, "data": {}})
        tail = encode_frame({"seq": 2, "data": {"pad": "x" * 64}})
        for cut in (1, FRAME_HEADER_SIZE, len(tail) - 1):
            decoded, discarded = scan_frames(good + tail[:cut], "seq", 0)
            assert [r["seq"] for r in decoded] == [1]
            assert discarded == cut

    def test_non_increasing_seq_is_distrusted(self):
        blob = (encode_frame({"seq": 1}) + encode_frame({"seq": 3})
                + encode_frame({"seq": 3}) + encode_frame({"seq": 4}))
        decoded, discarded = scan_frames(blob, "seq", 0)
        assert [r["seq"] for r in decoded] == [1, 3]
        assert discarded > 0

    def test_batch_frame_round_trip(self):
        batch = [{"seq": i, "data": {"n": i}} for i in range(1, 4)]
        blob = (encode_frame(batch) + encode_frame({"seq": 4, "data": {}})
                + encode_frame([{"seq": i, "data": {}} for i in (5, 6)]))
        decoded, discarded = scan_frames(blob, "seq", 0)
        assert [r["seq"] for r in decoded] == [1, 2, 3, 4, 5, 6]
        assert discarded == 0

    def test_batch_frame_is_atomic(self):
        # A non-increasing seq inside a batch rejects the whole frame —
        # never a half-applied prefix of it.
        bad = encode_frame([{"seq": 2, "data": {}}, {"seq": 2, "data": {}}])
        blob = encode_frame({"seq": 1, "data": {}}) + bad
        decoded, discarded = scan_frames(blob, "seq", 0)
        assert [r["seq"] for r in decoded] == [1]
        assert discarded == len(bad)

    def test_a_file_that_is_not_frames_is_discarded_whole(self, tmp_path):
        text = tmp_path / "a-00000001.seg"
        text.write_text('{"seq": 1, "data": {}}\n', encoding="utf-8")
        records, discarded = scan_segment(text, seq_field="seq")
        assert records == []
        assert discarded == text.stat().st_size


class TestStream:
    def test_segments_read_as_one_stream(self, tmp_path):
        (tmp_path / "wal-00000001.seg").write_bytes(
            encode_frame({"lsn": 1, "type": "t"}))
        (tmp_path / "wal-00000002.seg").write_bytes(
            encode_frame({"lsn": 2, "type": "t"})
            + encode_frame({"lsn": 3, "type": "t"}))
        records, discarded = read_stream(tmp_path, "wal", seq_field="lsn")
        assert [r["lsn"] for r in records] == [1, 2, 3]
        assert discarded == 0

    def test_bad_record_poisons_later_segments(self, tmp_path):
        (tmp_path / "wal-00000001.seg").write_bytes(
            encode_frame({"lsn": 1}) + b"\xa6garbage")
        (tmp_path / "wal-00000002.seg").write_bytes(
            encode_frame({"lsn": 2}) + encode_frame({"lsn": 3}))
        records, discarded = read_stream(tmp_path, "wal", seq_field="lsn")
        assert [r["lsn"] for r in records] == [1]
        assert discarded > 0

    @pytest.mark.parametrize("name", ["wal.jsonl", "wal-00000001.jsonl"])
    def test_jsonl_wal_directory_fails_recovery_by_name(self, tmp_path, name):
        # No reader for the pre-segment-store format remains; a directory
        # that still holds such a log must not open as if it were empty.
        (tmp_path / name).write_text('{"lsn": 1, "type": "begin"}\n',
                                     encoding="utf-8")
        for reopen in (lambda: recover(tmp_path, durability=None),
                       lambda: HiPAC(durability="wal", data_dir=tmp_path)):
            with pytest.raises(UnreadableLogError) as raised:
                reopen()
            assert raised.value.path == tmp_path / name
            assert name in str(raised.value)

    def test_jsonl_flight_journal_is_refused_too(self, tmp_path):
        journal = tmp_path / "flight"
        journal.mkdir()
        (journal / "flight-00000001.jsonl").write_text("{}\n",
                                                       encoding="utf-8")
        with pytest.raises(UnreadableLogError):
            HiPAC(data_dir=tmp_path, flight_recorder=True)


class TestSegmentWriter:
    def test_rotation_retention_and_fresh_segment_per_session(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq",
                               max_segment_bytes=128, max_segments=3)
        for i in range(40):
            writer.append({"data": {"n": i, "pad": "x" * 16}})
        writer.close()
        assert writer.stats["rotations"] > 0
        assert writer.stats["dropped_segments"] > 0
        assert len(segment_files(tmp_path, "s")) <= 3
        last = writer.last_seq
        # A new session opens a fresh segment and continues the numbering.
        writer2 = SegmentWriter(tmp_path, "s", seq_field="seq")
        seq = writer2.append({"data": {}})
        writer2.close()
        assert seq == last + 1
        records, discarded = read_stream(tmp_path, "s", seq_field="seq")
        assert discarded == 0
        assert records[-1]["seq"] == seq

    def test_reset_truncates_but_seq_keeps_increasing(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq")
        for _ in range(3):
            writer.append({"data": {}})
        writer.reset()
        seq = writer.append({"data": {}})
        writer.close()
        assert seq == 4
        records, _ = read_stream(tmp_path, "s", seq_field="seq")
        assert [r["seq"] for r in records] == [4]

    def test_group_commit_batches_concurrent_syncs(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq", fsync=True)
        barrier = threading.Barrier(8)

        def commit(n: int) -> None:
            barrier.wait()
            for _ in range(5):
                seq = writer.append({"data": {"t": n}})
                writer.sync(seq)

        workers = [threading.Thread(target=commit, args=(n,))
                   for n in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        writer.close()
        stats = writer.stats
        assert stats["records"] == 40
        assert stats["syncs"] == 40
        assert stats["group_leads"] + stats["group_follows"] == 40
        assert stats["batched_records"] == 40
        # Group commit earns its keep only if some fsyncs were shared.
        assert stats["group_follows"] > 0
        assert writer.durable_seq == 40
        records, discarded = read_stream(tmp_path, "s", seq_field="seq")
        assert discarded == 0
        assert [r["seq"] for r in records] == list(range(1, 41))

    def test_interval_mode_fsyncs_in_background(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq",
                               fsync_interval_ms=10)
        assert not writer.fsync_enabled
        seq = writer.append({"data": {}})
        writer.sync(seq)  # flush only; no durability wait
        deadline = time.monotonic() + 5.0
        while writer.durable_seq < seq and time.monotonic() < deadline:
            time.sleep(0.01)
        assert writer.durable_seq >= seq
        assert writer.stats["fsyncs"] >= 1
        writer.close()

    def test_interval_mode_drains_batch_frames(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq",
                               fsync_interval_ms=60_000)
        for i in range(5):
            writer.append({"data": {"n": i}})
        assert writer.stats["bytes"] == 0  # still queued in memory
        writer.flush()
        records, discarded = read_stream(tmp_path, "s", seq_field="seq")
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert discarded == 0
        # The whole queue drained as one batch frame: one header + one
        # JSON array, cheaper than five framed records.
        singles = sum(len(encode_frame({"seq": r["seq"],
                                        "data": r["data"]}))
                      for r in records)
        assert 0 < writer.stats["bytes"] < singles
        writer.close()

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = SegmentWriter(tmp_path, "s", seq_field="seq")
        writer.close()
        with pytest.raises(ValueError):
            writer.append({"data": {}})
