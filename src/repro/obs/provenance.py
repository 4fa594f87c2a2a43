"""Causal provenance: why is this object in this state? (paper §7).

The paper's tooling discussion asks for explanations of rule behaviour;
the firing log (``tools/explain.py``) answers *what fired*, but not why a
particular committed value exists.  This module tags every attribute
write with its **causal envelope** — the transaction, the rule firing (or
"application" for direct writes), the triggering event, and the
flight-journal sequence number when the recorder is on — and walks those
envelopes backwards: value → firing → triggering event → causing write →
… → the external stimulus at the system boundary.

Design points (DESIGN.md decision 16):

* **Bounded, not full lineage.**  Per ``(oid, attr)`` key a ring keeps the
  last K writes; a global entry cap evicts oldest-first across keys.
  Both evictions are counted, so a truncated chain is observable rather
  than silent.
* **Transaction-correct, by reading the undo log.**  A write leaves only
  a *stamp* (cause, writing transaction, wall time) on its undo record.
  The top-level commit expands the stamped records of ``txn.undo_log`` —
  by then exactly the sphere's surviving writes: a nested abort consumed
  its own, a nested commit handed its own up (DESIGN.md decision 25) —
  into entries, after the durability point and before the sphere's locks
  are released, so the rings are in the order the writes were serialized.
  An abort has nothing to clean up; it only counts what it discarded.
* **Replay-joined.**  Each entry carries the flight-journal seq of the
  stimulus that (transitively) caused it: the seq of the journalled
  external/temporal signal when the write happened inside a rule cascade
  triggered by one, else the seq of the top-level sphere's commit record.
  ``python -m repro.tools.replay --until SEQ`` re-executes the world up
  to that cause; ``--until SEQ-1`` stops just before it.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (
    Any, Deque, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple,
)

from repro.objstore.objects import OID

__all__ = [
    "CausalEnvelope",
    "ProvenanceEntry",
    "ProvenanceStore",
    "WhyChain",
    "parse_oid",
]

#: delta kinds that produce provenance entries (DDL has no oid/attr)
_INSTANCE_KINDS = frozenset({"create", "update", "delete"})

#: fixed per-entry overhead estimate (slots, ring/order bookkeeping)
_ENTRY_BASE_BYTES = 160


def parse_oid(text: str) -> OID:
    """Parse ``"Class#N"`` (or ``"Class:N"``) into an :class:`OID`.

    The ``#`` form matches ``str(OID)``; admin-endpoint callers must
    URL-encode it (``%23``), so the ``:`` alias is accepted as a
    shell-friendly spelling.
    """
    for sep in ("#", ":"):
        if sep in text:
            cls, _, num = text.rpartition(sep)
            if cls and num.isdigit():
                return OID(cls, int(num))
    raise ValueError("malformed oid %r (expected Class#N)" % (text,))


class CausalEnvelope:
    """Why a write happened: the firing (or application call) behind it.

    One envelope is shared by reference across every entry the scope
    produced — a rule action that updates ten attributes costs one
    envelope, not ten.
    """

    __slots__ = (
        "kind", "user", "rule", "firing_id", "event", "event_kind",
        "trigger_oid", "trigger_attrs", "trigger_op", "journal_seq",
    )

    def __init__(self, *, kind: str, user: str = "system",
                 rule: Optional[str] = None,
                 firing_id: Optional[int] = None,
                 event: Optional[str] = None,
                 event_kind: Optional[str] = None,
                 trigger_oid: Optional[OID] = None,
                 trigger_attrs: FrozenSet[str] = frozenset(),
                 trigger_op: Optional[str] = None,
                 journal_seq: Optional[int] = None) -> None:
        self.kind = kind  # "application" | "rule"
        self.user = user
        self.rule = rule
        self.firing_id = firing_id
        self.event = event
        self.event_kind = event_kind
        self.trigger_oid = trigger_oid
        self.trigger_attrs = trigger_attrs
        self.trigger_op = trigger_op
        self.journal_seq = journal_seq

    def is_boundary(self) -> bool:
        """True when the chain cannot be walked further inside the store.

        Application writes and firings triggered by non-database events
        (external, temporal, manual fire) are the system boundary: their
        cause lives outside the object store.
        """
        return self.kind != "rule" or self.trigger_oid is None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "application":
            out["user"] = self.user
        else:
            out["rule"] = self.rule
            out["firing_id"] = self.firing_id
            out["event"] = self.event
            out["event_kind"] = self.event_kind
            out["trigger_oid"] = (
                str(self.trigger_oid) if self.trigger_oid is not None else None)
            out["trigger_attrs"] = sorted(self.trigger_attrs)
            out["trigger_op"] = self.trigger_op
        out["journal_seq"] = self.journal_seq
        return out


class ProvenanceEntry:
    """One attribute write and its causal envelope.

    ``attr`` is None for delete entries (the whole instance went away;
    ``old_value`` holds the final attribute snapshot).  ``txn_id`` names
    the *writing* (possibly nested) transaction, ``top_txn_id`` the
    top-level one whose commit made the write permanent.
    """

    __slots__ = (
        "seq", "op", "oid", "attr", "old_value", "new_value",
        "txn_id", "top_txn_id", "journal_seq", "wall_time",
        "cause", "evicted", "nbytes",
    )

    def __init__(self, op: str, oid: OID, attr: Optional[str],
                 old_value: Any, new_value: Any, txn_id: str,
                 top_txn_id: str, journal_seq: Optional[int],
                 wall_time: float, cause: CausalEnvelope) -> None:
        self.seq = 0  # assigned at publish
        self.op = op
        self.oid = oid
        self.attr = attr
        self.old_value = old_value
        self.new_value = new_value
        self.txn_id = txn_id
        self.top_txn_id = top_txn_id
        self.journal_seq = journal_seq
        self.wall_time = wall_time
        self.cause = cause
        self.evicted = False
        self.nbytes = 0

    def estimate_bytes(self) -> int:
        try:
            return (_ENTRY_BASE_BYTES + sys.getsizeof(self.old_value)
                    + sys.getsizeof(self.new_value))
        except TypeError:  # pragma: no cover - exotic __sizeof__
            return _ENTRY_BASE_BYTES

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "op": self.op,
            "oid": str(self.oid),
            "attr": self.attr,
            "old": self.old_value,
            "new": self.new_value,
            "txn": self.txn_id,
            "top_txn": self.top_txn_id,
            "journal_seq": self.journal_seq,
            "wall_time": self.wall_time,
            "cause": self.cause.as_dict(),
        }


class WhyChain:
    """The answer to ``why(oid, attr)``: causal hops, newest first.

    ``hops[0]`` is the write that produced the current value; each later
    hop is the write that triggered the firing behind the previous one.
    ``complete`` is True when the last hop reached the system boundary
    (an application write or an externally-stimulated firing);
    ``truncated`` when the walk stopped at the depth limit or because the
    bounded store had already evicted the next cause.
    """

    def __init__(self, oid: OID, attr: Optional[str], depth: int,
                 hops: List[ProvenanceEntry], truncated: bool) -> None:
        self.oid = oid
        self.attr = attr
        self.depth = depth
        self.hops = hops
        self.truncated = truncated

    @property
    def complete(self) -> bool:
        return bool(self.hops) and self.hops[-1].cause.is_boundary()

    @property
    def stimulus(self) -> Optional[str]:
        """Describe the external boundary the chain ends at, if reached."""
        if not self.complete:
            return None
        last = self.hops[-1]
        cause = last.cause
        if cause.kind == "application":
            text = "application write by %r in %s" % (cause.user, last.txn_id)
        else:
            text = "%s event %s" % (cause.event_kind, cause.event)
        seq = last.journal_seq
        if seq is not None:
            text += " (journal seq %d)" % seq
        return text

    def as_dict(self) -> Dict[str, Any]:
        return {
            "oid": str(self.oid),
            "attr": self.attr,
            "depth": self.depth,
            "complete": self.complete,
            "truncated": self.truncated,
            "stimulus": self.stimulus,
            "hops": [hop.as_dict() for hop in self.hops],
        }


_RingKey = Tuple[OID, Optional[str]]


class ProvenanceStore:
    """Bounded, thread-safe store of causal write provenance.

    Capture (``note_delta``) buffers nothing and takes no mutex — the
    hot write path pays a kind check, a thread-local read and a clock
    read for the stamp its undo record carries.  ``publish`` (top-level
    commit) and ``why`` queries serialize on one mutex; both are off the
    per-operation path.
    """

    def __init__(self, *, per_key: int = 8, capacity: int = 50_000,
                 metrics: Optional[Any] = None) -> None:
        if per_key < 1:
            raise ValueError("per_key must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.per_key = per_key
        self.capacity = capacity
        self._mutex = threading.Lock()
        self._local = threading.local()
        self._rings: Dict[_RingKey, Deque[ProvenanceEntry]] = {}
        self._by_oid: Dict[OID, Set[Optional[str]]] = {}
        self._order: Deque[ProvenanceEntry] = deque()
        self._seq = itertools.count(1)
        self._entries = 0
        self._bytes = 0
        self.stats = {"published": 0, "pruned": 0, "evicted": 0,
                      "why_queries": 0}
        if metrics is not None:
            self._entries_gauge = metrics.gauge("provenance_entries")
            self._bytes_gauge = metrics.gauge("provenance_bytes")
            self._evictions_counter = metrics.counter(
                "provenance_evictions_total")
            self._why_seconds = metrics.histogram("provenance_why_seconds")
        else:  # pragma: no cover - facade always passes a registry
            self._entries_gauge = None
            self._bytes_gauge = None
            self._evictions_counter = None
            self._why_seconds = None

    # ------------------------------------------------------- causal scopes

    def _stack(self) -> List[CausalEnvelope]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_cause(self) -> Optional[CausalEnvelope]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def firing_scope(self, rule: Any, firing: Any,
                     signal: Any) -> Iterator[CausalEnvelope]:
        """Causal scope for one rule-action execution.

        Every write the action performs (in this thread) is attributed to
        the firing; cascades nest naturally because the inner firing's
        scope shadows the outer one.  The journal seq is taken from the
        triggering signal when the recorder journalled it (external /
        temporal / manual-fire stimuli) and inherited from the enclosing
        scope otherwise (cascade signals are suppressed in the journal).
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        envelope = self._rule_envelope(rule, firing, signal, parent)
        stack.append(envelope)
        try:
            yield envelope
        finally:
            stack.pop()

    def _rule_envelope(self, rule: Any, firing: Any, signal: Any,
                       parent: Optional[CausalEnvelope]) -> CausalEnvelope:
        trigger_oid: Optional[OID] = None
        trigger_attrs: FrozenSet[str] = frozenset()
        trigger_op: Optional[str] = None
        probe = signal
        if probe is not None and probe.kind == "composite":
            # Walk constituents newest-first: the most recent database
            # constituent is the write that completed the composite.
            for constituent in reversed(probe.constituents):
                if constituent.kind == "database" and constituent.oid is not None:
                    probe = constituent
                    break
        if probe is not None and probe.kind == "database" and probe.oid is not None:
            trigger_oid = probe.oid
            trigger_op = probe.op
            if probe.op == "update":
                trigger_attrs = probe.changed_attrs()
        journal_seq = getattr(signal, "_journal_seq", None)
        if journal_seq is None and parent is not None:
            journal_seq = parent.journal_seq
        return CausalEnvelope(
            kind="rule",
            rule=getattr(rule, "name", str(rule)),
            firing_id=getattr(firing, "firing_id", None),
            event=signal.describe() if signal is not None else None,
            event_kind=signal.kind if signal is not None else None,
            trigger_oid=trigger_oid,
            trigger_attrs=trigger_attrs,
            trigger_op=trigger_op,
            journal_seq=journal_seq,
        )

    # ------------------------------------------------------------- capture

    def note_delta(self, delta: Any, txn: Any,
                   user: str) -> Optional[Tuple[CausalEnvelope, str, float]]:
        """The provenance stamp of ``delta``: ``(cause, writing txn id,
        wall time)``, or None for DDL (no instance, no entries).

        Called from the Object Manager's write path, which puts the stamp
        on the delta's undo record; whether the write ever becomes an
        entry is the undo log's business (see :meth:`publish`).
        """
        if delta.kind not in _INSTANCE_KINDS or delta.oid is None:
            return None
        cause = self.current_cause()
        if cause is None:
            cause = CausalEnvelope(kind="application", user=user)
        return cause, txn.txn_id, time.time()

    # ----------------------------------------------------------- lifecycle

    @staticmethod
    def _expand(txn: Any) -> List[ProvenanceEntry]:
        """One entry per attribute written by the stamped records of
        ``txn.undo_log``, in log order.

        ``txn.flight_seq`` (the seq of the sphere's coalesced journal
        record, when the recorder is on) backfills entries whose cause
        carried no stimulus seq, so every hop of a why-chain is
        addressable by ``replay --until``.  Plain loops on purpose: this
        runs inside every top-level commit.
        """
        out: List[ProvenanceEntry] = []
        top_id = txn.txn_id
        fallback_seq = txn.flight_seq
        for record in txn.undo_log:
            stamp = record.stamp
            if stamp is None:
                continue
            cause, txn_id, wall = stamp
            seq = cause.journal_seq
            if seq is None:
                seq = fallback_seq
            delta = record.delta
            kind, oid = delta.kind, delta.oid
            if kind == "update":
                old = delta.old_attrs or {}
                new = delta.new_attrs or {}
                for attr in set(old) | set(new):
                    if old.get(attr) != new.get(attr):
                        out.append(ProvenanceEntry(
                            kind, oid, attr, old.get(attr), new.get(attr),
                            txn_id, top_id, seq, wall, cause))
            elif kind == "create":
                for attr, value in (delta.new_attrs or {}).items():
                    out.append(ProvenanceEntry(
                        kind, oid, attr, None, value,
                        txn_id, top_id, seq, wall, cause))
            else:  # delete: one object-level entry keyed on attr=None
                out.append(ProvenanceEntry(
                    kind, oid, None, delta.old_attrs, None,
                    txn_id, top_id, seq, wall, cause))
        return out

    def publish(self, txn: Any) -> None:
        """Make the sphere's surviving writes queryable.

        Called inside a *top-level* commit, after the durability point
        and while the sphere still holds its locks: no other writer of
        the same objects can publish in between, so ring order is the
        order the writes were serialized in.
        """
        entries = self._expand(txn)
        if not entries:
            return
        with self._mutex:
            for entry in entries:
                entry.seq = next(self._seq)
                entry.nbytes = entry.estimate_bytes()
                self._insert_locked(entry)
            self.stats["published"] += len(entries)
            live, nbytes = self._entries, self._bytes
        if self._entries_gauge is not None:
            self._entries_gauge.set(live)
            self._bytes_gauge.set(nbytes)

    def on_abort(self, txn: Any) -> None:
        """Count the entries the aborting transaction's own log would have
        published.  Nothing was buffered, so nothing is removed; the
        manager aborts still-active children in turn and each counts its
        own log, so no write is counted twice."""
        pruned = len(self._expand(txn))
        if pruned:
            with self._mutex:
                self.stats["pruned"] += pruned

    def _insert_locked(self, entry: ProvenanceEntry) -> None:
        key: _RingKey = (entry.oid, entry.attr)
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = deque()
            self._by_oid.setdefault(entry.oid, set()).add(entry.attr)
        if len(ring) >= self.per_key:
            self._evict_locked(ring.popleft(), key, ring)
        ring.append(entry)
        self._order.append(entry)
        self._entries += 1
        self._bytes += entry.nbytes
        # Global cap: the oldest live entry is always its ring's leftmost
        # (entries enter ring and order together and leave both oldest
        # first), so capacity eviction pops rings from the left too.
        while self._entries > self.capacity:
            victim = self._order[0]
            if victim.evicted:
                self._order.popleft()
                continue
            vkey: _RingKey = (victim.oid, victim.attr)
            vring = self._rings[vkey]
            vring.popleft()
            self._order.popleft()
            self._evict_locked(victim, vkey, vring)
        # Trim ring-evicted garbage off the order head, and compact when
        # garbage accumulates mid-queue (batched per-key churn evicts
        # entries that sit behind other keys' live ones): evicted entry
        # objects must not outlive their eviction.  The rebuild is O(n)
        # at >50% garbage, so amortized O(1) per insert.
        order = self._order
        while order and order[0].evicted:
            order.popleft()
        if len(order) > 64 and len(order) > 2 * self._entries:
            self._order = deque(e for e in order if not e.evicted)

    def _evict_locked(self, entry: ProvenanceEntry, key: _RingKey,
                      ring: Deque[ProvenanceEntry]) -> None:
        entry.evicted = True
        self._entries -= 1
        self._bytes -= entry.nbytes
        self.stats["evicted"] += 1
        if self._evictions_counter is not None:
            self._evictions_counter.inc()
        if not ring:
            del self._rings[key]
            attrs = self._by_oid.get(key[0])
            if attrs is not None:
                attrs.discard(key[1])
                if not attrs:
                    del self._by_oid[key[0]]

    # ------------------------------------------------------------- queries

    def latest(self, oid: OID, attr: Optional[str] = None, *,
               before_seq: Optional[int] = None,
               prefer_attrs: Optional[FrozenSet[str]] = None,
               ) -> Optional[ProvenanceEntry]:
        """Return the newest entry for ``oid`` (optionally one attribute).

        ``before_seq`` restricts to strictly-earlier entries (chain
        walking); ``prefer_attrs`` narrows an any-attribute lookup to the
        given set first, falling back to all attributes on a miss.
        """
        with self._mutex:
            return self._latest_locked(oid, attr, before_seq, prefer_attrs)

    def _latest_locked(self, oid: OID, attr: Optional[str],
                       before_seq: Optional[int],
                       prefer_attrs: Optional[FrozenSet[str]],
                       ) -> Optional[ProvenanceEntry]:
        if attr is not None:
            return self._ring_latest(oid, attr, before_seq)
        attrs = self._by_oid.get(oid)
        if not attrs:
            return None
        if prefer_attrs:
            candidates = [a for a in attrs if a in prefer_attrs]
            best = self._best_of(oid, candidates, before_seq)
            if best is not None:
                return best
        return self._best_of(oid, attrs, before_seq)

    def _best_of(self, oid: OID, attrs: Any,
                 before_seq: Optional[int]) -> Optional[ProvenanceEntry]:
        best: Optional[ProvenanceEntry] = None
        for attr in attrs:
            entry = self._ring_latest(oid, attr, before_seq)
            if entry is not None and (best is None or entry.seq > best.seq):
                best = entry
        return best

    def _ring_latest(self, oid: OID, attr: Optional[str],
                     before_seq: Optional[int]) -> Optional[ProvenanceEntry]:
        ring = self._rings.get((oid, attr))
        if not ring:
            return None
        for entry in reversed(ring):
            if before_seq is None or entry.seq < before_seq:
                return entry
        return None

    def why(self, oid: OID, attr: Optional[str] = None, *,
            depth: int = 10) -> WhyChain:
        """Walk the causal chain behind the current value of ``oid.attr``.

        Each hop's cause either ends the walk (application write, or a
        firing triggered by an external/temporal/fire stimulus — the
        system boundary) or names the database write that triggered it,
        which becomes the next hop: the newest earlier entry for the
        triggering oid, preferring the attributes the triggering update
        changed.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        start = time.perf_counter()
        hops: List[ProvenanceEntry] = []
        truncated = False
        with self._mutex:
            entry = self._latest_locked(oid, attr, None, None)
            while entry is not None:
                hops.append(entry)
                cause = entry.cause
                if cause.is_boundary():
                    break
                if len(hops) >= depth:
                    truncated = True
                    break
                entry = self._latest_locked(
                    cause.trigger_oid, None, entry.seq,
                    cause.trigger_attrs or None)
            else:
                # The next cause was never captured or already evicted:
                # the chain is cut by the store's bounds, not complete.
                truncated = bool(hops)
            self.stats["why_queries"] += 1
        if self._why_seconds is not None:
            self._why_seconds.observe(time.perf_counter() - start)
        return WhyChain(oid, attr, depth, hops, truncated)

    # --------------------------------------------------------------- stats

    def stats_snapshot(self) -> Dict[str, int]:
        """Point-in-time stats for the facade's ``stats()`` tree."""
        with self._mutex:
            return {
                "published": self.stats["published"],
                "pruned": self.stats["pruned"],
                "evicted": self.stats["evicted"],
                "why_queries": self.stats["why_queries"],
                "live_entries": self._entries,
                "approx_bytes": self._bytes,
                "per_key": self.per_key,
                "capacity": self.capacity,
            }
