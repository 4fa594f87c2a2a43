"""Tests for causal provenance: the bounded provenance store, the
``HiPAC.why()`` chain walker, its join to the flight recorder's journal
sequence numbers (replay bisection), the ``/why`` admin endpoint, and the
``explain_state`` rendering.

The headline scenario is the acceptance criterion: on a 3-deep rule
cascade, ``why()`` returns the full chain ending at the external
stimulus, and each hop carries a flight-journal seq that — fed to
``replay --until`` — reproduces the state up to (or, with ``seq - 1``,
just before) that exact cause.
"""

from __future__ import annotations

import json
import threading
import urllib.parse

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
    on_update,
)
from repro.events.spec import ExternalEventSpec
from repro.obs.provenance import ProvenanceStore, parse_oid
from repro.objstore.objects import OID
from repro.tools.explain import _wall_stamp, explain_state
from repro.recovery import recover
from repro.tools.replay import replay
from repro.txn.transaction import COMMITTED
from repro.txn.undo import DeltaUndo


def _db(**kwargs) -> HiPAC:
    kwargs.setdefault("lock_timeout", 2.0)
    db = HiPAC(**kwargs)
    for name in ("A", "B", "C", "D"):
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    return db


def _chain_rules():
    """on_update(A) -> update B.v -> on_update(B) -> update C.v.

    OIDs are fixed (first instance of each class), so the same library
    works in the live system and in replay."""
    b, c = OID("B", 2), OID("C", 3)
    return [
        Rule("a2b", event=on_update("A"), condition=Condition.true(),
             action=Action.call(
                 lambda ctx: ctx.update(b, {"v": ctx.bindings["new_v"]}))),
        Rule("b2c", event=on_update("B"), condition=Condition.true(),
             action=Action.call(
                 lambda ctx: ctx.update(c, {"v": ctx.bindings["new_v"]}))),
    ]


def _seed_abc(db):
    with db.transaction() as txn:
        a = db.create("A", {"v": 0}, txn)
        b = db.create("B", {"v": 0}, txn)
        c = db.create("C", {"v": 0}, txn)
    return a, b, c


# ================================================================ chain walk


class TestWhyChain:
    def test_application_write_has_application_cause(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        with db.transaction() as txn:
            db.update(a, {"v": 5}, txn)
        chain = db.why(a, "v")
        assert chain.complete and not chain.truncated
        assert [h.op for h in chain.hops] == ["update"]
        hop = chain.hops[0]
        assert (hop.old_value, hop.new_value) == (0, 5)
        assert hop.cause.kind == "application"
        assert "application write" in chain.stimulus
        db.close()

    def test_cascade_chain_reaches_the_stimulus(self):
        db = _db()
        a, b, c = _seed_abc(db)
        for rule in _chain_rules():
            db.create_rule(rule)
        with db.transaction() as txn:
            db.update(a, {"v": 7}, txn)
        chain = db.why(c, "v")
        assert chain.complete
        assert [h.oid for h in chain.hops] == [c, b, a]
        assert [h.cause.kind for h in chain.hops] == \
            ["rule", "rule", "application"]
        assert chain.hops[0].cause.rule == "b2c"
        assert chain.hops[1].cause.rule == "a2b"
        assert chain.hops[0].cause.trigger_oid == b
        # Firing ids are real and distinct
        ids = [h.cause.firing_id for h in chain.hops[:2]]
        assert all(isinstance(i, int) for i in ids) and ids[0] != ids[1]
        db.close()

    def test_why_accepts_string_oid_and_any_attr(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        chain = db.why("A#%d" % a.number)
        assert chain.hops and chain.hops[0].op == "create"
        db.close()

    def test_depth_limit_truncates(self):
        db = _db()
        a, _, c = _seed_abc(db)
        for rule in _chain_rules():
            db.create_rule(rule)
        with db.transaction() as txn:
            db.update(a, {"v": 9}, txn)
        chain = db.why(c, "v", depth=2)
        assert len(chain.hops) == 2
        assert chain.truncated and not chain.complete
        db.close()

    def test_external_event_is_the_boundary(self):
        db = _db()
        _seed_abc(db)
        created = {}
        db.define_event("alarm", "level")
        db.create_rule(Rule(
            "on_alarm", event=ExternalEventSpec("alarm", ("level",)),
            condition=Condition.true(),
            action=Action.call(lambda ctx: created.setdefault(
                "oid", ctx.create("D", {"v": ctx.bindings["level"]})))))
        with db.transaction() as txn:
            db.signal_event("alarm", {"level": 3}, txn)
        chain = db.why(created["oid"], "v")
        assert chain.complete and len(chain.hops) == 1
        cause = chain.hops[0].cause
        assert cause.kind == "rule" and cause.event_kind == "external"
        assert cause.trigger_oid is None
        assert "external event" in chain.stimulus
        db.close()

    def test_why_raises_when_provenance_off(self):
        db = _db(provenance=False)
        assert db.provenance is None
        with pytest.raises(ValueError, match="provenance is off"):
            db.why(OID("A", 1), "v")
        db.close()

    def test_observability_off_disables_provenance_by_default(self):
        db = _db(observability=False)
        assert db.provenance is None
        db.close()
        forced = _db(observability=False, provenance=True)
        assert forced.provenance is not None
        forced.close()


# ======================================================== replay bisection


class TestReplayJoin:
    def test_three_deep_chain_carries_replayable_seqs(self, tmp_path):
        """Acceptance: every hop's journal seq, fed to ``replay --until``,
        reproduces the state up to that cause; seq - 1 stops before it."""
        db = _db(durability="wal", data_dir=tmp_path, flight_recorder=True)
        a, b, c = _seed_abc(db)
        for rule in _chain_rules():
            db.create_rule(rule)
        with db.transaction() as txn:
            db.update(a, {"v": 7}, txn)
        chain = db.why(c, "v")
        assert chain.complete and len(chain.hops) == 3
        seqs = [h.journal_seq for h in chain.hops]
        assert all(isinstance(s, int) for s in seqs)
        # The whole cascade is one journalled sphere: every hop addresses
        # the stimulus record of the committing top-level transaction.
        assert len(set(seqs)) == 1
        db.close()

        until = seqs[-1]
        after = replay(tmp_path, lambda rdb: _chain_rules(), until=until)
        txn = after.db.begin()
        assert after.db.read(c, txn)["v"] == 7
        after.db.commit(txn)
        after.db.close()

        before = replay(tmp_path, lambda rdb: _chain_rules(),
                        until=until - 1)
        txn = before.db.begin()
        assert before.db.read(c, txn)["v"] == 0
        before.db.commit(txn)
        before.db.close()

    def test_external_stimulus_seq_addresses_the_signal_record(
            self, tmp_path):
        db = _db(durability="wal", data_dir=tmp_path, flight_recorder=True)
        _seed_abc(db)
        created = {}
        db.define_event("alarm", "level")

        def library():
            return [Rule(
                "on_alarm", event=ExternalEventSpec("alarm", ("level",)),
                condition=Condition.true(),
                action=Action.call(lambda ctx: created.setdefault(
                    "oid", ctx.create("D", {"v": ctx.bindings["level"]}))))]

        for rule in library():
            db.create_rule(rule)
        # Outside any transaction: the stimulus record alone is enough
        # for replay to re-derive the cascade (an in-transaction signal
        # would additionally need the sphere's commit record).
        db.signal_event("alarm", {"level": 3})
        d = created["oid"]
        chain = db.why(d, "v")
        seq = chain.hops[0].journal_seq
        assert isinstance(seq, int)
        db.close()
        # Up to the stimulus: the alarm fired, D exists.
        after = replay(tmp_path, lambda rdb: library(), until=seq)
        txn = after.db.begin()
        assert after.db.read(d, txn)["v"] == 3
        after.db.commit(txn)
        after.db.close()


# ============================================================ txn lifecycle


class TestLifecycle:
    def test_top_level_abort_prunes_everything(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        txn = db.begin()
        db.update(a, {"v": 99}, txn)
        db.abort(txn)
        chain = db.why(a, "v")
        # Only the seeding create is visible; the aborted update is not.
        assert chain.hops[0].op == "create"
        assert db.provenance.stats_snapshot()["pruned"] == 1
        db.close()

    def test_nested_abort_prunes_only_the_subtree(self):
        db = _db()
        a, b, _ = _seed_abc(db)
        txn = db.begin()
        db.update(a, {"v": 1}, txn)
        sub = db.begin(parent=txn)
        db.update(b, {"v": 2}, sub)
        db.abort(sub)
        db.commit(txn)
        assert db.why(a, "v").hops[0].new_value == 1
        assert db.why(b, "v").hops[0].op == "create"
        db.close()

    def test_uncommitted_writes_are_not_queryable(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        txn = db.begin()
        db.update(a, {"v": 42}, txn)
        assert db.why(a, "v").hops[0].op == "create"
        db.commit(txn)
        assert db.why(a, "v").hops[0].new_value == 42
        db.close()

    def test_publish_order_is_commit_order(self):
        """A writer that gets the lock the moment "first" lets go must
        also come second in the ring: publish happens under the sphere's
        locks, not after their release."""
        db = _db()
        a, _, _ = _seed_abc(db)
        real = db.locks.release_all

        def release_then_interleave(txn):
            real(txn)
            if txn.label == "first":
                db.locks.release_all = real
                with db.transaction() as second:
                    db.update(a, {"v": 2}, second)

        db.locks.release_all = release_then_interleave
        first = db.begin(label="first")
        db.update(a, {"v": 1}, first)
        db.commit(first)
        check = db.begin()
        assert db.read(a, check)["v"] == 2
        db.commit(check)
        assert db.why(a, "v").hops[0].new_value == 2
        ring = list(db.provenance._rings[(a, "v")])
        assert [e.new_value for e in ring] == [0, 1, 2]
        for earlier, later in zip(ring, ring[1:]):
            assert later.old_value == earlier.new_value
        db.close()

    def test_publish_failure_does_not_undo_a_commit(self, tmp_path):
        """The commit record is forced before publish runs: a failure
        there propagates, but the commit stands and no lock is left."""
        db = _db(durability="wal", data_dir=tmp_path)
        a, _, _ = _seed_abc(db)

        def refuse(txn):
            raise RuntimeError("provenance store is broken")

        db.provenance.publish = refuse
        txn = db.begin()
        db.update(a, {"v": 5}, txn)
        with pytest.raises(RuntimeError, match="provenance store is broken"):
            db.commit(txn)
        assert txn.state == COMMITTED
        assert db.locks.resource_count() == 0
        assert db.transaction_manager.live_transactions() == []
        db.close()
        reopened = recover(tmp_path, durability=None)
        assert reopened.store.get(a).attrs["v"] == 5
        reopened.close()

    def test_delete_records_an_object_level_entry(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        with db.transaction() as txn:
            db.delete(a, txn)
        chain = db.why(a)
        assert chain.hops[0].op == "delete"
        assert chain.hops[0].attr is None
        db.close()


# ================================================================= bounding


class _Txn:
    """The slice of a top-level transaction the store touches."""
    txn_id = "t1"
    flight_seq = None

    def __init__(self):
        self.undo_log = []

    def write(self, store, delta):
        """What the Object Manager does with a delta: stamp, then log."""
        self.undo_log.append(
            DeltaUndo(None, delta, store.note_delta(delta, self, "u")))


class _Delta:
    kind = "update"

    def __init__(self, oid, n):
        self.oid = oid
        self.old_attrs = {"v": n - 1}
        self.new_attrs = {"v": n}


class TestBounds:
    """The facade builds its store with the default bounds (8 per key,
    50 000 overall); these drive stores built with test-sized ones."""

    def test_per_key_ring_keeps_last_k(self):
        store = ProvenanceStore(per_key=3)
        a = OID("A", 1)
        for i in range(10):
            txn = _Txn()
            txn.write(store, _Delta(a, i + 1))
            store.publish(txn)
        ring = store._rings[(a, "v")]
        assert [e.new_value for e in ring] == [8, 9, 10]
        assert store.stats_snapshot()["evicted"] > 0

    def test_memory_bounded_under_100k_write_soak(self):
        """Acceptance: 100k writes stay under the global cap, evictions
        are observed, and the order deque does not accumulate garbage."""
        store = ProvenanceStore(per_key=4, capacity=500)
        oids = [OID("A", i + 1) for i in range(100)]
        writes = 0
        for round_no in range(10):
            for oid in oids:
                txn = _Txn()
                for _ in range(100):
                    writes += 1
                    txn.write(store, _Delta(oid, writes))
                store.publish(txn)
        assert writes == 100_000
        snap = store.stats_snapshot()
        assert snap["live_entries"] <= 500
        assert snap["evicted"] > 0
        assert snap["published"] >= 100_000
        assert snap["evicted"] + snap["live_entries"] == snap["published"]
        # internal bookkeeping stays proportional to live entries
        assert len(store._order) <= 2 * snap["live_entries"] + 1
        assert snap["approx_bytes"] > 0

    def test_facade_rings_evict_under_churn(self):
        """The same through the facade's default bounds: one attribute
        rewritten past its ring evicts, every write is published, and
        the live set stays under the capacity."""
        db = _db()
        a, _, _ = _seed_abc(db)
        for i in range(20):
            with db.transaction() as txn:
                db.update(a, {"v": i + 1}, txn)
        section = db.stats()["provenance"]
        db.close()
        assert section["published"] >= 20
        assert section["evicted"] >= 20 - section["per_key"]
        assert section["live_entries"] <= section["capacity"]

    def test_capacity_eviction_across_keys(self):
        store = ProvenanceStore(per_key=8, capacity=4)
        txn = _Txn()
        for i in range(10):
            txn.write(store, _Delta(OID("X", i), i + 1))
        store.publish(txn)
        snap = store.stats_snapshot()
        assert snap["live_entries"] == 4
        assert snap["evicted"] == 6
        # the survivors are the newest four
        assert store.latest(OID("X", 9), "v") is not None
        assert store.latest(OID("X", 0), "v") is None


# ============================================================ admin endpoint


class TestWhyEndpoint:
    def test_why_endpoint_returns_chain_json(self):
        db = _db()
        a, _, c = _seed_abc(db)
        for rule in _chain_rules():
            db.create_rule(rule)
        with db.transaction() as txn:
            db.update(a, {"v": 7}, txn)
        server = db.serve_admin()
        from tests.test_admin_server import _get
        url = server.url + "/why?oid=" + urllib.parse.quote("C#3") + "&attr=v"
        status, headers, body = _get(url)
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        chain = json.loads(body)
        assert chain["complete"] is True
        assert [h["oid"] for h in chain["hops"]] == ["C#3", "B#2", "A#1"]
        # the Class:N alias spares shells the %23 encoding
        status, _, body = _get(server.url + "/why?oid=C:3&attr=v")
        assert status == 200 and json.loads(body)["complete"] is True
        db.close()

    def test_why_endpoint_parameter_errors(self):
        db = _db()
        server = db.serve_admin()
        from tests.test_admin_server import _get
        status, _, body = _get(server.url + "/why")
        assert status == 400 and b"oid" in body
        status, _, body = _get(server.url + "/why?oid=nonsense")
        assert status == 400 and b"malformed oid" in body
        status, _, body = _get(server.url + "/why?oid=A:1&depth=x")
        assert status == 400
        db.close()

    def test_why_endpoint_409_when_off(self):
        db = _db(provenance=False)
        server = db.serve_admin()
        from tests.test_admin_server import _get
        status, _, body = _get(server.url + "/why?oid=A:1")
        assert status == 409 and b"provenance is off" in body
        db.close()


# ================================================================== metrics


class TestMetricsFamily:
    def test_stats_section_and_prometheus_gauges(self):
        db = _db()
        a, _, _ = _seed_abc(db)
        with db.transaction() as txn:
            db.update(a, {"v": 1}, txn)
        db.why(a, "v")
        section = db.stats()["provenance"]
        assert section["published"] >= 4
        assert section["live_entries"] == section["published"]
        assert section["why_queries"] == 1
        assert section["approx_bytes"] > 0
        text = db.prometheus_metrics()
        assert "# TYPE hipac_provenance_entries gauge" in text
        assert "# TYPE hipac_provenance_bytes gauge" in text
        assert "# TYPE hipac_provenance_evictions_total counter" in text
        assert "hipac_provenance_why_seconds_count 1" in text
        db.close()

    def test_stats_section_zeroed_when_off(self):
        db = _db(provenance=False)
        section = db.stats()["provenance"]
        assert section["published"] == 0 and section["live_entries"] == 0
        db.close()


# ================================================================ rendering


class TestRendering:
    def test_wall_stamp_is_utc_with_date(self):
        assert _wall_stamp(0.0) == "1970-01-01T00:00:00.000Z"
        assert _wall_stamp(1000000000.5) == "2001-09-09T01:46:40.500Z"

    def test_explain_state_renders_the_chain(self):
        db = _db()
        a, _, c = _seed_abc(db)
        for rule in _chain_rules():
            db.create_rule(rule)
        with db.transaction() as txn:
            db.update(a, {"v": 7}, txn)
        text = explain_state(db, c, "v")
        assert text.startswith("why C#3.v:")
        assert "by rule 'b2c'" in text
        assert "by application" in text
        assert "stimulus:" in text
        db.close()

    def test_explain_state_on_unknown_object(self):
        db = _db()
        text = explain_state(db, OID("A", 999), "v")
        assert "no provenance recorded" in text
        db.close()

    def test_explain_state_names_the_replay_command(self, tmp_path):
        db = _db(durability="wal", data_dir=tmp_path, flight_recorder=True)
        a, _, _ = _seed_abc(db)
        with db.transaction() as txn:
            db.update(a, {"v": 1}, txn)
        text = explain_state(db, a, "v")
        assert "repro.tools.replay --until" in text
        db.close()


# ==================================================================== misc


class TestParseOid:
    def test_both_spellings(self):
        assert parse_oid("Stock#7") == OID("Stock", 7)
        assert parse_oid("Stock:7") == OID("Stock", 7)

    def test_rejects_garbage(self):
        for bad in ("", "Stock", "#7", "Stock#", "Stock#x"):
            with pytest.raises(ValueError):
                parse_oid(bad)
