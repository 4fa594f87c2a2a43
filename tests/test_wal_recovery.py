"""Crash-recovery tests: WAL format, crash-point sweep, fault injection,
checkpointing, and restart continuity.

The central property (ISSUE 2 acceptance): killing the system after *any*
WAL record and recovering must yield exactly the state produced by the
committed top-level transactions in the surviving prefix — no lost
committed effects, no resurrected aborted/uncommitted effects, and
deferred-rule effects (which per §6.3 ran inside the committing
transaction) replayed atomically with their commit.
"""

import random
import threading

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_update,
)
from repro.recovery import (
    FaultingWAL,
    InjectedCrash,
    WriteAheadLog,
    corrupt_record,
    has_durable_state,
    load_checkpoint,
    read_wal_records,
    recover,
    truncated_copy,
)
from repro.recovery.serialize import encode_delta
from repro.recovery.wal import wal_files
from repro.rules.coupling import DEFERRED, IMMEDIATE
from repro.storage import encode_frame
from repro.rules.rule import RULE_CLASS


def stock_class():
    return ClassDef("Stock", attributes("symbol", ("price", "number")))


def audit_class():
    return ClassDef("Audit", attributes("note"))


def build_rules():
    """A fresh rule library (Rule objects are mutated on registration, so
    every recovery needs its own instances)."""
    return [Rule(
        name="audit-price",
        event=on_update("Stock"),
        condition=Condition.true(),
        action=Action.call(
            lambda ctx: ctx.create("Audit", {"note": "price-change"})),
        ec_coupling=DEFERRED,
        ca_coupling=IMMEDIATE,
    )]


def make_durable_db(data_dir, **kwargs):
    kwargs.setdefault("wal_fsync", False)  # sweeps don't need real fsyncs
    return HiPAC(lock_timeout=2.0, durability="wal", data_dir=data_dir,
                 **kwargs)


def run_workload(db):
    """A mixed workload: DDL, creates, deferred rule firings, an explicit
    abort, nested commit + nested abort, rule create/drop.  Returns
    ``[(lsn, snapshot)]`` captured at every point where the durable state
    legally changes (each top-level outcome)."""
    captures = [(db.wal.last_lsn, db.store.snapshot_state())]

    def cap():
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))

    db.define_class(stock_class())
    cap()
    db.define_class(audit_class())
    cap()
    db.create_rule(build_rules()[0])
    cap()

    with db.transaction() as t:
        ibm = db.create("Stock", {"symbol": "IBM", "price": 10.0}, t)
        dec = db.create("Stock", {"symbol": "DEC", "price": 20.0}, t)
    cap()

    # Deferred rule firing: the Audit row is created inside the committing
    # transaction (§6.3), so its delta precedes the commit record.
    with db.transaction() as t:
        db.update(ibm, {"price": 11.0}, t)
    cap()

    # Explicit top-level abort: none of this may survive recovery.
    t = db.begin()
    db.create("Stock", {"symbol": "BAD", "price": 0.0}, t)
    db.update(dec, {"price": 999.0}, t)
    db.abort(t)
    cap()

    # Nested: committed child + aborted child under a committing top level.
    t = db.begin()
    child = db.begin(t)
    db.update(dec, {"price": 21.0}, child)
    db.commit(child)
    doomed = db.begin(t)
    db.create("Stock", {"symbol": "TMP", "price": 1.0}, doomed)
    db.update(dec, {"price": 1000.0}, doomed)
    db.abort(doomed)
    db.update(dec, {"price": 22.0}, t)
    db.commit(t)
    cap()

    db.delete_rule("audit-price")
    cap()

    db.define_class(ClassDef("Temp", attributes("x")))
    cap()
    db.drop_class("Temp")
    cap()

    with db.transaction() as t:
        db.update(ibm, {"price": 12.5}, t)
    cap()
    return captures


def oracle(captures, lsn):
    """The committed state as of ``lsn``: the last capture at or below it."""
    state = captures[0][1]
    for captured_lsn, snapshot in captures:
        if captured_lsn <= lsn:
            state = snapshot
    return state


def sweep(src, captures, tmp_path, torn_tail=False):
    """Recover every WAL prefix of ``src`` and compare to the oracle.

    ``torn_tail=True`` additionally leaves half of the next record's
    frame at every truncation point — a mid-frame tear the scanner must
    drop without disturbing the preceding prefix.
    """
    records, _ = read_wal_records(src)
    checkpoint = load_checkpoint(src)
    base_lsn = checkpoint["lsn"] if checkpoint is not None else 0
    assert records, "workload produced no WAL records"
    for n in range(len(records) + 1):
        lsn = records[n - 1]["lsn"] if n else base_lsn
        prefix_dir = truncated_copy(src, tmp_path / ("prefix%d" % n), n,
                                    torn_tail=torn_tail)
        recovered = recover(prefix_dir, rules=build_rules(), durability=None)
        assert recovered.store.snapshot_state() == oracle(captures, lsn), (
            "prefix of %d records (lsn %d) diverged from committed state"
            % (n, lsn))


def in_parent_vocabulary(records):
    """The log of ``records`` as the engine wrote it while it also logged
    what recovery never read: a ``begin`` per transaction, a ``commit`` or
    ``abort`` marker with ``top: False`` per subtransaction (here every
    delta is made some subtransaction's, alternately committed and
    aborted), ``rule-create`` / ``rule-drop`` beside a rule row's delta,
    and a ``txn`` field on every record."""
    out = []
    for record in records:
        sphere = record["sphere"]
        if not any(old["sphere"] == sphere for old in out):
            out.append({"type": "begin", "txn": sphere, "sphere": sphere,
                        "data": {"parent": None, "label": ""}})
        if record["type"] != "delta":
            out.append(dict(record, txn=sphere))
            continue
        child = "%s.%d" % (sphere, len(out))
        out.append({"type": "begin", "txn": child, "sphere": sphere,
                    "data": {"parent": sphere, "label": "act:r"}})
        out.append(dict(record, txn=child))
        delta = record["data"]
        if delta["class_name"] == RULE_CLASS and delta["kind"] != "update":
            out.append({"type": ("rule-create" if delta["kind"] == "create"
                                 else "rule-drop"),
                        "txn": child, "sphere": sphere,
                        "data": {"name": "audit-price"}})
        out.append({"type": "abort" if len(out) % 2 else "commit",
                    "txn": child, "sphere": sphere, "data": {"top": False}})
    for lsn, record in enumerate(out, 1):
        record["lsn"] = lsn
    return out


class TestWalFormat:
    def test_every_record_has_a_reader(self, tmp_path):
        # DESIGN decision 23: the log and the checkpoint hold what
        # replay_into / apply_checkpoint_state / tools/replay.py read,
        # and nothing else.
        db = make_durable_db(tmp_path / "d")
        run_workload(db)
        records, _ = read_wal_records(tmp_path / "d")
        assert {r["type"] for r in records} == {"delta", "commit"}
        # An abort record has one writer — a commit whose log write raised
        # — and one reader: recovery's "last outcome wins", for a commit
        # record that landed when its force did not.
        failing = HiPAC(lock_timeout=2.0)
        failing.define_class(stock_class())
        attach_wal(failing, FaultingWAL(tmp_path / "f", fail_fsync_after=0,
                                        fsync=True))
        txn = failing.begin()
        failing.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        with pytest.raises(InjectedCrash):
            failing.commit(txn)
        failing.wal.close()
        refused, _ = read_wal_records(tmp_path / "f")
        assert [r["type"] for r in refused] == ["delta", "commit", "abort"]
        records += refused
        assert all(r["data"]["top"] is True
                   for r in records if r["type"] != "delta")
        assert all(set(r) == {"lsn", "type", "sphere", "data"}
                   for r in records)
        assert db.checkpoint()
        db.close()
        assert set(load_checkpoint(tmp_path / "d")) == {
            "format", "lsn", "next_oid", "schema", "extents"}

    def test_parent_vocabulary_still_recovers(self, tmp_path):
        # No compatibility reader was needed to stop writing those
        # records, because recovery never looked at them: a directory
        # written before they left recovers to the same store.
        db = make_durable_db(tmp_path / "new")
        run_workload(db)
        final = db.store.snapshot_state()
        db.close()
        records, _ = read_wal_records(tmp_path / "new")
        old = in_parent_vocabulary(records)
        assert {(r["type"], r["data"].get("top")) for r in old} >= {
            ("begin", None), ("commit", False), ("abort", False),
            ("rule-create", None), ("rule-drop", None)}
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "wal-00000001.seg").write_bytes(
            b"".join(encode_frame(record) for record in old))
        recovered = [
            recover(tmp_path / name, rules=build_rules(),
                    durability=None).store.snapshot_state()
            for name in ("old", "new")]
        assert recovered[0] == recovered[1] == final

    def test_reader_returns_only_valid_prefix(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        db.close()
        records, discarded = read_wal_records(tmp_path / "d")
        assert discarded == 0
        assert [r["type"] for r in records[:2]] == ["delta", "commit"]
        assert all(r1["lsn"] < r2["lsn"]
                   for r1, r2 in zip(records, records[1:]))

    def test_reader_stops_at_corrupt_record(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        db.close()
        records, _ = read_wal_records(tmp_path / "d")
        corrupt_record(tmp_path / "d", 3)
        surviving, discarded = read_wal_records(tmp_path / "d")
        assert [r["lsn"] for r in surviving] == [r["lsn"] for r in records[:3]]
        assert discarded > 0

    def test_torn_tail_is_dropped(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.close()
        records, _ = read_wal_records(tmp_path / "d")
        assert records
        # Append half of a plausible next frame: a mid-write kill.
        frame = encode_frame({"lsn": records[-1]["lsn"] + 1,
                              "type": "begin", "txn": "t99",
                              "sphere": "t99", "data": {}})
        with open(wal_files(tmp_path / "d")[-1], "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        surviving, discarded = read_wal_records(tmp_path / "d")
        assert len(surviving) == len(records)
        assert discarded > 0


class TestCrashSweep:
    def test_recovery_equals_committed_prefix_at_every_record(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        sweep(tmp_path / "src", captures, tmp_path)

    def test_recovery_tolerates_torn_tail_at_every_record(self, tmp_path):
        # Same sweep, but every truncation point ends in a mid-frame
        # tear (half of record N+1): the scanner must drop the tear and
        # recover exactly the clean-prefix state.
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        sweep(tmp_path / "src", captures, tmp_path, torn_tail=True)

    def test_sweep_with_mid_workload_checkpoint(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        with db.transaction() as t:
            ibm = db.create("Stock", {"symbol": "IBM", "price": 10.0}, t)
        assert db.checkpoint()
        # Everything before the checkpoint is now in the snapshot, not the
        # (truncated) WAL; the sweep's base state is the checkpoint.
        captures = [(db.wal.last_lsn, db.store.snapshot_state())]
        with db.transaction() as t:
            db.update(ibm, {"price": 11.0}, t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        t = db.begin()
        db.create("Stock", {"symbol": "BAD", "price": 0.0}, t)
        db.abort(t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        with db.transaction() as t:
            db.update(ibm, {"price": 12.0}, t)
        captures.append((db.wal.last_lsn, db.store.snapshot_state()))
        db.close()
        sweep(tmp_path / "src", captures, tmp_path)

    def test_corrupt_record_truncates_recovery_to_its_prefix(self, tmp_path):
        db = make_durable_db(tmp_path / "src")
        captures = run_workload(db)
        db.close()
        src = tmp_path / "src"
        records, _ = read_wal_records(src)
        index = len(records) // 2
        corrupt_record(src, index)
        recovered = recover(src, rules=build_rules(), durability=None)
        assert recovered.store.snapshot_state() == oracle(
            captures, records[index - 1]["lsn"])


def attach_wal(db, wal):
    db.wal = wal
    db.transaction_manager.wal = wal


def refuse_nth(wal, method, n):
    """Make the ``n``-th call (from 1) of the segment writer's ``method``
    raise ``OSError`` once — a transient ``ENOSPC`` — and every other call
    go through.  Returns the call counter (``[calls so far]``)."""
    working = getattr(wal._writer, method)
    calls = [0]

    def faulty(*args):
        calls[0] += 1
        if calls[0] == n:
            raise OSError("no space left on device")
        return working(*args)

    setattr(wal._writer, method, faulty)
    return calls


class TestFaultInjection:
    def test_commit_crash_aborts_and_releases_locks(self, tmp_path):
        # Satellite fix: a failure in the commit *resume* phase (the WAL
        # force) must not strand the transaction in COMMITTING with its
        # locks held — it aborts, rolls back, and re-raises.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        before = db.store.snapshot_state()
        # fail_after=1: the create delta succeeds, the commit append dies.
        attach_wal(db, FaultingWAL(tmp_path / "d", fail_after=1))
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        assert txn.state == "aborted"
        assert db.store.snapshot_state() == before
        assert db.locks.resource_count() == 0
        assert db.wal.stats["append_failures"] >= 1
        # The in-memory system stays usable once the dead log is detached.
        attach_wal(db, None)
        with db.transaction() as t:
            db.create("Stock", {"symbol": "DEC", "price": 2.0}, t)
        assert len(db.store.snapshot_state()["Stock"]) == 1

    def test_commit_crash_recovers_to_committed_prefix(self, tmp_path):
        db = HiPAC(lock_timeout=2.0)
        wal = FaultingWAL(tmp_path / "d", fail_after=100)
        attach_wal(db, wal)
        db.define_class(stock_class())  # logged: recovery needs the class
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        committed = db.store.snapshot_state()
        wal.fail_after = wal.stats["records"] + 1  # dies at the next commit
        txn = db.begin()
        db.create("Stock", {"symbol": "DEC", "price": 2.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        recovered = recover(tmp_path / "d", durability=None)
        snapshot = recovered.store.snapshot_state()
        assert snapshot["Stock"] == committed["Stock"]

    def test_fsync_crash_loses_the_unforced_sphere(self, tmp_path):
        # Satellite 2: crash *between* the batch write and the fsync.
        # The commit record reaches the OS but durability is never
        # confirmed, so the transaction aborts and recovery discards
        # the sphere (the best-effort abort record wins the fate scan).
        db = HiPAC(lock_timeout=2.0)
        wal = FaultingWAL(tmp_path / "d", fail_fsync_after=2, fsync=True)
        attach_wal(db, wal)
        db.define_class(stock_class())  # sync #1
        with db.transaction() as t:     # sync #2
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        committed = db.store.snapshot_state()
        txn = db.begin()
        db.create("Stock", {"symbol": "DEC", "price": 2.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)  # sync #3 dies after the flush
        assert txn.state == "aborted"
        # Flush the best-effort abort record (a clean shutdown would);
        # the fate scan then sees commit-then-abort and discards it.
        wal.close()
        recovered = recover(tmp_path / "d", durability=None)
        assert (recovered.store.snapshot_state()["Stock"]
                == committed["Stock"])

    def test_failed_force_is_a_durability_failure(self, tmp_path):
        # A commit whose force fails raises and rolls back — and is
        # counted, handed to the forensics hook and shown by /health like
        # any other failed log write.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        wal = FaultingWAL(tmp_path / "d", fail_fsync_after=0, fsync=True)
        seen = []
        wal.on_append_failure = seen.append
        attach_wal(db, wal)
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        with pytest.raises(InjectedCrash):
            db.commit(txn)
        assert txn.state == "aborted"
        assert db.locks.resource_count() == 0
        assert wal.stats["append_failures"] == 1
        assert len(seen) == 1 and isinstance(seen[0], InjectedCrash)
        assert db.health()["status"] == "failing"

    def test_transient_append_failure_is_counted(self, tmp_path):
        # The device refuses one delta and then works again: the refusal
        # surfaces from the commit (the one place the log is written), the
        # abort record that follows succeeds, and the failure still counts.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        wal = WriteAheadLog(tmp_path / "d", fsync=False)
        seen = []
        wal.on_append_failure = seen.append
        attach_wal(db, wal)
        refuse_nth(wal, "append", 1)
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        with pytest.raises(OSError):
            db.commit(txn)
        assert db.locks.resource_count() == 0
        assert wal.stats["append_failures"] == 1
        assert wal.stats["records"] == 1  # the abort record
        assert len(seen) == 1 and isinstance(seen[0], OSError)
        assert db.health()["status"] == "failing"

    def test_nested_commit_crash_aborts_child_only(self, tmp_path):
        # A dead device under a child is not noticed: nothing is written
        # before the top-level commit, which is where the failure lands.
        db = HiPAC(lock_timeout=2.0)
        db.define_class(stock_class())
        wal = FaultingWAL(tmp_path / "d", fail_after=100)
        attach_wal(db, wal)
        parent = db.begin()
        ibm = db.create("Stock", {"symbol": "IBM", "price": 1.0}, parent)
        records = wal.stats["records"]
        wal.fail_after = records  # next append dies
        child = db.begin(parent)
        db.update(ibm, {"price": 2.0}, child)
        db.commit(child)
        doomed = db.begin(parent)
        db.update(ibm, {"price": 3.0}, doomed)
        db.abort(doomed)
        assert child.state == "committed" and doomed.state == "aborted"
        assert wal.stats["records"] == records
        assert parent.state == "active"
        assert db.store.get(ibm).snapshot()["price"] == 2.0
        with pytest.raises(InjectedCrash):
            db.commit(parent)
        assert parent.state == "aborted"
        assert db.locks.resource_count() == 0

    def test_contained_child_failure_leaves_a_recoverable_directory(
            self, tmp_path):
        # §3.1 under one transient ENOSPC: a subtransaction fails, the
        # application contains the failure, aborts it and commits the
        # parent.  When deltas were logged as they happened the child's
        # create was the refused write and its compensation delete was not
        # — a directory that would not start.
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        seen = []
        db.wal.on_append_failure = seen.append
        parent = db.begin()
        db.create("Stock", {"symbol": "A", "price": 1.0}, parent)
        refuse_nth(db.wal, "append", 1)
        child = db.begin(parent)
        try:
            db.create("Stock", {"symbol": "B", "price": 2.0}, child)
        except OSError:
            pass
        db.abort(child)
        # Nothing is appended before a commit, so this is where it lands.
        with pytest.raises(OSError):
            db.commit(parent)
        assert parent.state == "aborted"
        assert db.locks.resource_count() == 0
        assert db.wal.stats["append_failures"] == 1
        assert len(seen) == 1 and isinstance(seen[0], OSError)
        live = db.store.snapshot_state()
        db.close()
        recovered = recover(tmp_path / "d", durability=None)
        assert recovered.store.snapshot_state() == live

    def test_aborted_subtransaction_never_reaches_the_log(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            dec = db.create("Stock", {"symbol": "DEC", "price": 20.0}, t)
        before = db.wal.stats["records"]
        t = db.begin()
        child = db.begin(t)
        db.update(dec, {"price": 21.0}, child)
        db.commit(child)
        doomed = db.begin(t)
        tmp = db.create("Stock", {"symbol": "TMP", "price": 1.0}, doomed)
        db.update(dec, {"price": 1000.0}, doomed)
        db.abort(doomed)
        db.update(dec, {"price": 22.0}, t)
        assert db.wal.stats["records"] == before
        surviving = [encode_delta(undo.delta) for undo in t.undo_log]
        assert [delta["new_attrs"]["price"] for delta in surviving] == [
            21.0, 22.0]
        db.commit(t)
        records, _ = read_wal_records(tmp_path / "d")
        sphere = [r for r in records if r["sphere"] == t.txn_id]
        assert [r["type"] for r in sphere] == ["delta", "delta", "commit"]
        assert [r["data"] for r in sphere[:2]] == surviving
        assert not any(r["data"].get("oid") == [tmp.class_name, tmp.number]
                       for r in records)
        after = db.wal.stats["records"]
        assert after == before + 3
        t = db.begin()
        db.create("Stock", {"symbol": "BAD", "price": 0.0}, t)
        db.abort(t)
        assert db.wal.stats["records"] == after
        db.close()


def run_contained(db):
    """Four transactions in ``run_workload``'s shapes, written the way an
    application that outlives a failing call writes them: each commits
    or, on any error, aborts; the doomed child's failure is contained in
    the child, which the application then aborts."""
    state = {}

    def unit(body):
        try:
            with db.transaction() as txn:
                body(txn)
        except Exception:
            pass

    def create_two(txn):
        state["ibm"] = db.create("Stock", {"symbol": "IBM", "price": 10.0},
                                 txn)
        state["dec"] = db.create("Stock", {"symbol": "DEC", "price": 20.0},
                                 txn)

    def nested(txn):
        with db.transaction(txn) as child:
            db.update(state["dec"], {"price": 21.0}, child)
        doomed = db.begin(txn)
        try:
            db.create("Stock", {"symbol": "TMP", "price": 1.0}, doomed)
            db.update(state["dec"], {"price": 1000.0}, doomed)
        except Exception:
            pass
        db.abort(doomed)
        db.update(state["dec"], {"price": 22.0}, txn)

    unit(create_two)
    unit(lambda txn: db.update(state["ibm"], {"price": 11.0}, txn))
    unit(nested)
    unit(lambda txn: db.delete(state["ibm"], txn))


class TestLiveFaultSweep:
    """One log write is refused once, at every position of a session in
    turn; whatever the live system made of it, the directory it leaves
    must start and must hold the live store (§3.1: no committed effect
    lost, no aborted one recovered)."""

    def refuse_each(self, tmp_path, method, fsync):
        def session(name, nth):
            db = make_durable_db(tmp_path / name, wal_fsync=fsync)
            db.define_class(stock_class())
            calls = refuse_nth(db.wal, method, nth)
            run_contained(db)
            live = db.store.snapshot_state()
            failures = db.wal.stats["append_failures"]
            db.close()
            return calls[0], failures, live

        count, failures, live = session("clean", 0)
        assert count >= 4 and failures == 0
        assert len(live["Stock"]) == 1
        for k in range(1, count + 1):
            name = "%s%d" % (method, k)
            _, failures, live = session(name, k)
            assert failures == 1
            recovered = recover(tmp_path / name, durability=None)
            assert recovered.store.snapshot_state() == live, (
                "refusing %s #%d left a directory that differs from the "
                "live store" % (method, k))

    def test_one_refused_append_at_every_position(self, tmp_path):
        self.refuse_each(tmp_path, "append", False)

    @pytest.mark.parametrize("fsync", [False, True])
    def test_one_refused_force_at_every_position(self, tmp_path, fsync):
        self.refuse_each(tmp_path, "sync", fsync)


class TestCheckpointer:
    def test_interval_checkpoint_truncates_wal(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.checkpointer.interval_records = 5
        db.define_class(stock_class())
        for i in range(5):
            with db.transaction() as t:
                db.create("Stock", {"symbol": "S%d" % i, "price": 1.0}, t)
        db.close()
        assert db.stats()["recovery"]["checkpoints"] >= 1
        checkpoint = load_checkpoint(tmp_path / "d")
        assert checkpoint is not None
        records, _ = read_wal_records(tmp_path / "d")
        assert all(r["lsn"] > checkpoint["lsn"] for r in records)

    def test_checkpoint_refused_while_transactions_live(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        txn = db.begin()
        db.create("Stock", {"symbol": "IBM", "price": 1.0}, txn)
        assert db.checkpoint() is False
        assert db.stats()["recovery"]["checkpoints_skipped"] == 1
        db.commit(txn)
        assert db.checkpoint() is True
        db.close()

    def test_checkpoint_restart_restores_state_and_oid_floor(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        assert db.checkpoint()
        with db.transaction() as t:
            db.create("Stock", {"symbol": "DEC", "price": 2.0}, t)
        state = db.store.snapshot_state()
        db.close()
        db2 = make_durable_db(tmp_path / "d")
        assert db2.store.snapshot_state()["Stock"] == state["Stock"]
        with db2.transaction() as t:
            oid = db2.create("Stock", {"symbol": "NEW", "price": 3.0}, t)
        existing = set(state["Stock"])
        assert oid not in existing
        db2.close()


class TestRestart:
    def test_restart_survives_and_rebinds_rules(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        run_workload(db)
        final = db.store.snapshot_state()
        db.close()

        db2 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db2.store.snapshot_state() == final
        report = db2.recovery_report()
        assert report is not None
        assert report.replayed_spheres > 0
        # Recovery checkpointed immediately: the old log is absorbed, so a
        # second restart replays nothing from the WAL.
        assert load_checkpoint(tmp_path / "d") is not None
        db2.close()

    def test_rebound_rule_fires_after_restart(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        with db.transaction() as t:
            ibm = db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        db.close()

        db2 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db2.rule_names() == ["audit-price"]
        audits_before = len(db2.store.snapshot_state().get("Audit", {}))
        with db2.transaction() as t:
            db2.update(ibm, {"price": 2.0}, t)
        audits_after = len(db2.store.snapshot_state().get("Audit", {}))
        assert audits_after == audits_before + 1
        db2.close()

    def test_unbound_rules_are_reported_not_registered(self, tmp_path):
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.define_class(audit_class())
        db.create_rule(build_rules()[0])
        db.close()

        db2 = make_durable_db(tmp_path / "d")  # no rule_library
        assert db2.rule_names() == []
        assert db2.recovery_report().rules_unbound == ["audit-price"]
        # The rule's row survived; re-supplying the library next restart
        # rebinds it.
        assert len(db2.store.snapshot_state()[RULE_CLASS]) == 1
        db2.close()
        db3 = make_durable_db(tmp_path / "d", rule_library=build_rules())
        assert db3.rule_names() == ["audit-price"]
        db3.close()

    def test_fresh_directory_has_no_durable_state(self, tmp_path):
        assert not has_durable_state(tmp_path / "nothing")
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        db.close()
        assert has_durable_state(tmp_path / "d")


class TestConcurrentCommitters:
    def test_concurrent_committers_with_nested_aborts_recover_exactly(
            self, tmp_path):
        # The log is written by whichever threads are committing, each its
        # whole sphere at once, interleaved record by record; work that
        # aborted — a child half the time, the parent one time in five —
        # must leave no trace in what recovers.
        db = make_durable_db(tmp_path / "d")
        db.define_class(stock_class())
        forced = db.wal.stats["commits_forced"]
        committed = []
        errors = []

        def committer(seed):
            rng = random.Random(seed)
            try:
                for i in range(60):
                    t = db.begin()
                    oid = db.create(
                        "Stock", {"symbol": "S%d-%d" % (seed, i),
                                  "price": 1.0}, t)
                    child = db.begin(t)
                    db.create("Stock", {"symbol": "C%d-%d" % (seed, i),
                                        "price": 2.0}, child)
                    db.update(oid, {"price": 3.0}, child)
                    if rng.random() < 0.5:
                        db.abort(child)
                    else:
                        db.commit(child)
                    if rng.random() < 0.2:
                        db.abort(t)
                    else:
                        db.commit(t)
                        committed.append(t.txn_id)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=committer, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert db.wal.stats["commits_forced"] - forced == len(committed)
        assert 0 < len(committed) < 8 * 60
        live = db.store.snapshot_state()
        db.close()
        recovered = recover(tmp_path / "d", durability=None)
        assert recovered.store.snapshot_state() == live


class TestStatsAndDefaults:
    def test_storage_stats_present_in_memory_mode(self):
        db = HiPAC(lock_timeout=2.0)
        storage = db.stats()["storage"]
        assert storage["wal_records"] == 0
        assert db.stats()["recovery"]["replays"] == 0
        assert db.wal is None and db.checkpointer is None

    def test_storage_stats_count_wal_activity(self, tmp_path):
        db = HiPAC(lock_timeout=2.0, durability="wal",
                   data_dir=tmp_path / "d")
        db.define_class(stock_class())
        with db.transaction() as t:
            db.create("Stock", {"symbol": "IBM", "price": 1.0}, t)
        storage = db.stats()["storage"]
        assert storage["wal_records"] > 0
        assert storage["wal_commits_forced"] == 2
        assert storage["wal_fsyncs"] == 2
        db.close()

    def test_unknown_durability_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            HiPAC(durability="paper-tape", data_dir=tmp_path / "d")
        with pytest.raises(ValueError):
            HiPAC(durability="wal")
