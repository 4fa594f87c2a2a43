"""The provenance fold against a one-entry-at-a-time reference model.

``ProvenanceStore.publish`` queues a sphere's undo log; a fold later turns
the queue into entries newest first and never builds a write that
``per_key`` newer writes of its key would evict (DESIGN.md decision 37).
The model below is what the store did before the fold: expand every
sphere's stamped records into entries in log order, give each the next
seq, insert it into its key's ring, evict the ring's oldest past
``per_key`` and the globally oldest past ``capacity``.  Hypothesis drives
both with the same random creates, updates and deletes (including
unchanged values, NaN and updates whose snapshots differ in keys),
published in spheres, with ``why()``, ``latest()`` and
``stats_snapshot()`` reads at random points and fold bounds from one
record up, and compares rings, seqs, the per-object attribute sets,
stats and every ``why()`` hop.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.obs import provenance
from repro.obs.provenance import CausalEnvelope, ProvenanceStore
from repro.objstore.objects import OID
from repro.txn.undo import CallbackUndo, DeltaUndo

OIDS = [OID("A", 1), OID("A", 2), OID("B", 1)]
ATTRS = ["a", "b", "c"]
NAN = float("nan")


class _Delta:
    def __init__(self, kind: str, oid: OID, old: Optional[Dict[str, Any]],
                 new: Optional[Dict[str, Any]]) -> None:
        self.kind, self.oid = kind, oid
        self.old_attrs, self.new_attrs = old, new


class _Txn:
    def __init__(self, txn_id: str, flight_seq: Optional[int],
                 undo_log: List[Any]) -> None:
        self.txn_id, self.flight_seq, self.undo_log = txn_id, flight_seq, undo_log


# ------------------------------------------------------------------ model

class Model:
    """The store's answers, one entry inserted at a time."""

    def __init__(self, per_key: int, capacity: int) -> None:
        self.per_key, self.capacity = per_key, capacity
        self.seq = 0
        self.live: List[Dict[str, Any]] = []  # seq order
        self.rings: Dict[Tuple[OID, Optional[str]], List[Dict[str, Any]]] = {}
        self.published = self.evicted = self.bytes = 0

    def publish(self, txn: _Txn) -> None:
        for record in txn.undo_log:
            if record.stamp is None:
                continue
            cause, txn_id, wall = record.stamp
            seq = cause.journal_seq
            if seq is None:
                seq = txn.flight_seq
            delta = record.delta
            if delta.kind == "update":
                old, new = delta.old_attrs, delta.new_attrs
                keys = new if old.keys() == new.keys() else set(old) | set(new)
                writes = [(a, old.get(a), new.get(a)) for a in keys
                          if old.get(a) != new.get(a)]
            elif delta.kind == "create":
                writes = [(a, None, v) for a, v in delta.new_attrs.items()]
            else:
                writes = [(None, delta.old_attrs, None)]
            for attr, before, after in writes:
                self.seq += 1
                self.insert({
                    "seq": self.seq, "op": delta.kind, "oid": delta.oid,
                    "attr": attr, "old": before, "new": after,
                    "txn": txn_id, "top": txn.txn_id, "journal": seq,
                    "wall": wall, "cause": cause,
                    "nbytes": (provenance._ENTRY_BASE_BYTES
                               + sys.getsizeof(before) + sys.getsizeof(after))})

    def insert(self, entry: Dict[str, Any]) -> None:
        self.published += 1
        ring = self.rings.setdefault((entry["oid"], entry["attr"]), [])
        ring.append(entry)
        self.live.append(entry)
        self.bytes += entry["nbytes"]
        if len(ring) > self.per_key:
            self.evict(ring[0])
        while len(self.live) > self.capacity:
            self.evict(self.live[0])

    def evict(self, entry: Dict[str, Any]) -> None:
        key = (entry["oid"], entry["attr"])
        self.rings[key].remove(entry)
        if not self.rings[key]:
            del self.rings[key]
        self.live.remove(entry)
        self.evicted += 1
        self.bytes -= entry["nbytes"]

    def by_oid(self) -> Dict[OID, set]:
        out: Dict[OID, set] = {}
        for oid, attr in self.rings:
            out.setdefault(oid, set()).add(attr)
        return out

    def latest(self, oid: OID, attr: Optional[str], before: Optional[int],
               prefer: Optional[frozenset]) -> Optional[Dict[str, Any]]:
        def newest(attrs: Any) -> Optional[Dict[str, Any]]:
            found = [e for a in attrs for e in self.rings.get((oid, a), ())
                     if before is None or e["seq"] < before]
            return max(found, key=lambda e: e["seq"]) if found else None
        if attr is not None:
            return newest([attr])
        attrs = self.by_oid().get(oid, set())
        if prefer:
            best = newest([a for a in attrs if a in prefer])
            if best is not None:
                return best
        return newest(attrs)

    def why(self, oid: OID, attr: Optional[str], depth: int
            ) -> Tuple[List[int], bool]:
        hops: List[int] = []
        entry = self.latest(oid, attr, None, None)
        while entry is not None:
            hops.append(entry["seq"])
            cause = entry["cause"]
            if cause.is_boundary():
                return hops, False
            if len(hops) >= depth:
                return hops, True
            entry = self.latest(cause.trigger_oid, None, entry["seq"],
                                cause.trigger_attrs or None)
        return hops, bool(hops)


# -------------------------------------------------------------- compare

def _entry_view(entry: Any) -> Tuple[Any, ...]:
    return (entry.seq, entry.op, entry.oid, entry.attr, entry.old_value,
            entry.new_value, entry.txn_id, entry.top_txn_id,
            entry.journal_seq, entry.wall_time, entry.cause, entry.nbytes)


def _model_view(entry: Dict[str, Any]) -> Tuple[Any, ...]:
    return (entry["seq"], entry["op"], entry["oid"], entry["attr"],
            entry["old"], entry["new"], entry["txn"], entry["top"],
            entry["journal"], entry["wall"], entry["cause"], entry["nbytes"])


def assert_same(store: ProvenanceStore, model: Model) -> None:
    snap = store.stats_snapshot()  # folds
    assert (snap["published"], snap["evicted"], snap["live_entries"],
            snap["approx_bytes"]) == (model.published, model.evicted,
                                      len(model.live), model.bytes)
    assert snap["evicted"] + snap["live_entries"] == snap["published"]
    assert {key: [_entry_view(e) for e in ring]
            for key, ring in store._rings.items()} == {
        key: [_model_view(e) for e in ring]
        for key, ring in model.rings.items()}
    assert store._by_oid == model.by_oid()
    assert store._next_seq == model.seq + 1


# ---------------------------------------------------------------- drive

_values = st.one_of(st.integers(0, 3), st.just(NAN))
_snapshot = st.dictionaries(st.sampled_from(ATTRS), _values, min_size=1)
_record = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 2), st.none(), _snapshot),
    st.tuples(st.just("update"), st.integers(0, 2), _snapshot, _snapshot),
    st.tuples(st.just("delete"), st.integers(0, 2), _snapshot, st.none()),
    st.tuples(st.just("ddl"), st.just(0), st.none(), st.none()))
_cause = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 2), st.sets(st.sampled_from(ATTRS), max_size=2),
              st.one_of(st.none(), st.integers(1, 50))))
_sphere = st.tuples(st.lists(st.tuples(_record, _cause), max_size=6),
                    st.one_of(st.none(), st.integers(1, 50)))
_read = st.tuples(st.sampled_from(["why", "latest", "stats"]),
                  st.integers(0, 2), st.sampled_from(ATTRS + [None]),
                  st.integers(1, 4))
_steps = st.lists(st.one_of(st.tuples(st.just("publish"), _sphere),
                            st.tuples(st.just("read"), _read)), max_size=40)


def _undo_log(records: List[Any], number: int) -> List[Any]:
    """The undo records of one sphere: stamped deltas, and an unstamped
    callback where a DDL record would sit."""
    log: List[Any] = []
    app = CausalEnvelope(kind="application", user="u")
    for k, ((kind, oid, old, new), cause) in enumerate(records):
        if kind == "ddl":
            log.append(CallbackUndo(lambda: None, "ddl"))
            continue
        envelope = app if cause is None else CausalEnvelope(
            kind="rule", rule="r", firing_id=k, event="e",
            event_kind="database", trigger_oid=OIDS[cause[0]],
            trigger_attrs=frozenset(cause[1]), trigger_op="update",
            journal_seq=cause[2])
        log.append(DeltaUndo(None, _Delta(kind, OIDS[oid], old, new),
                             (envelope, "t%d.%d" % (number, k), float(k))))
    return log


@settings(max_examples=300, deadline=None)
@given(per_key=st.integers(1, 4), capacity=st.integers(1, 12),
       fold_records=st.sampled_from([1, 2, 3, 5, 8, provenance.FOLD_RECORDS]),
       steps=_steps)
def test_fold_answers_as_one_entry_at_a_time(per_key, capacity,
                                             fold_records, steps):
    saved, provenance.FOLD_RECORDS = provenance.FOLD_RECORDS, fold_records
    try:
        _drive(per_key, capacity, steps)
    finally:
        provenance.FOLD_RECORDS = saved


def _drive(per_key: int, capacity: int, steps: List[Any]) -> None:
    store = ProvenanceStore(per_key=per_key, capacity=capacity)
    model = Model(per_key, capacity)
    for number, (kind, step) in enumerate(steps):
        if kind == "publish":
            records, flight_seq = step
            log = _undo_log(records, number)
            store.publish(_Txn("t%d" % number, flight_seq, log))
            model.publish(_Txn("t%d" % number, flight_seq, log))
            continue
        read, oid, attr, depth = step
        if read == "why":
            chain = store.why(OIDS[oid], attr, depth=depth)
            assert ([hop.seq for hop in chain.hops], chain.truncated) == \
                model.why(OIDS[oid], attr, depth)
        elif read == "latest":
            got = store.latest(OIDS[oid], attr)
            want = model.latest(OIDS[oid], attr, None, None)
            assert (got and got.seq) == (want and want["seq"])
        assert_same(store, model)
    assert_same(store, model)


def test_a_fold_builds_only_what_the_rings_keep():
    """Twenty rewrites of one key, folded at once: all twenty count as
    published, the ring keeps the newest ``per_key`` with the seqs they
    would have had, and only those were ever built."""
    store = ProvenanceStore(per_key=3)
    built = []
    real = provenance.ProvenanceEntry.__init__

    def counting(self, *args: Any) -> None:
        built.append(args[4])
        real(self, *args)
    app = CausalEnvelope(kind="application")
    a = OID("A", 1)
    for n in range(1, 21):
        delta = _Delta("update", a, {"v": n - 1}, {"v": n})
        store.publish(_Txn("t%d" % n, None, [DeltaUndo(None, delta,
                                                       (app, "t", 0.0))]))
    provenance.ProvenanceEntry.__init__ = counting
    try:
        snap = store.stats_snapshot()
    finally:
        provenance.ProvenanceEntry.__init__ = real
    assert built == [20, 19, 18]  # built newest first, inserted oldest first
    assert (snap["published"], snap["evicted"], snap["live_entries"]) == (20, 17, 3)
    assert [(e.seq, e.new_value) for e in store._rings[(a, "v")]] == \
        [(18, 18), (19, 19), (20, 20)]


def test_concurrent_publishers_lose_no_record():
    """Publishers append without the mutex and folds run on whichever
    thread crosses the bound or reads: under forced thread switches no
    write is lost and each writer's ring ends with its last writes."""
    writers, spheres = 8, 300
    store = ProvenanceStore(per_key=2, capacity=10_000)
    app = CausalEnvelope(kind="application")

    def publish(k: int) -> None:
        oid = OID("W", k)
        for n in range(1, spheres + 1):
            delta = _Delta("update", oid, {"v": n - 1}, {"v": n})
            store.publish(_Txn("w%d.%d" % (k, n), None, [
                DeltaUndo(None, delta, (app, "t", 0.0))]))

    def read() -> None:
        for _ in range(200):
            store.stats_snapshot()
            store.why(OID("W", 0), "v")

    saved = provenance.FOLD_RECORDS, sys.getswitchinterval()
    provenance.FOLD_RECORDS = 7
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=publish, args=(k,))
                   for k in range(writers)]
        threads.append(threading.Thread(target=read))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        provenance.FOLD_RECORDS = saved[0]
        sys.setswitchinterval(saved[1])
    snap = store.stats_snapshot()
    assert snap["published"] == writers * spheres
    assert snap["evicted"] + snap["live_entries"] == snap["published"]
    for k in range(writers):
        assert [e.new_value for e in store._rings[(OID("W", k), "v")]] == \
            [spheres - 1, spheres]
