"""The condition graph (paper §5.5).

"The Condition Evaluator uses techniques such as multiple query optimization
and view materialization ... The data structure used for this purpose is
called a *condition graph*."

This implementation is a discrimination network:

* an **alpha node** exists per distinct ``(class, include_subclasses,
  predicate)`` among the *static* condition queries of all rules (static =
  referencing no event arguments).  Rules that pose structurally identical
  predicates share one node — that is the multiple-query-optimization
  sharing;
* each alpha node carries a **memory**: the set of OIDs currently satisfying
  the predicate, materialized when the first rule using the node is added
  and maintained *incrementally* from the store's deltas;
* memory maintenance is transactional: every adjustment registers an undo
  callback in the mutating transaction, so an abort restores the memory
  exactly (tested property: graph answers ≡ naive re-evaluation).

Parameterized queries (referencing event arguments) cannot be materialized;
they are evaluated per signal by the evaluator, which still shares results
across rules within one signal-processing round.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.objstore.objects import OID
from repro.objstore.query import Query
from repro.objstore.store import (
    CREATE,
    DELETE,
    DROP_CLASS,
    UPDATE,
    Delta,
    ObjectStore,
)
from repro.txn.transaction import Transaction
from repro.txn.undo import CallbackUndo

AlphaKey = Tuple[str, bool, tuple]
"""Identity of an alpha node: (class_name, include_subclasses, predicate key)."""


def alpha_key(query: Query) -> AlphaKey:
    """Return the alpha-node key for a (static) query."""
    return (query.class_name, query.include_subclasses,
            query.predicate.canonical_key())


class AlphaNode:
    """One shared, materialized predicate memory."""

    __slots__ = ("key", "class_name", "include_subclasses", "test",
                 "memory", "refcount")

    def __init__(self, query: Query) -> None:
        self.key = alpha_key(query)
        self.class_name = query.class_name
        self.include_subclasses = query.include_subclasses
        #: the static predicate, bound once: attrs -> bool
        self.test = query.predicate.bind({})
        self.memory: Set[OID] = set()
        self.refcount = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "AlphaNode(%s, |memory|=%d, refs=%d)" % (
            self.key[0], len(self.memory), self.refcount)


class ConditionGraph:
    """The set of alpha nodes, indexed for delta routing."""

    def __init__(self, store: ObjectStore) -> None:
        self._store = store
        self._nodes: Dict[AlphaKey, AlphaNode] = {}
        #: delta routing: class ranged over -> its nodes, so a delta on a
        #: class no condition mentions costs one probe per ancestor
        self._by_class: Dict[str, List[AlphaNode]] = {}
        self._mutex = threading.RLock()
        self.stats = {"nodes_created": 0, "nodes_shared": 0,
                      "deltas_processed": 0, "memory_updates": 0}

    # ------------------------------------------------------------ structure

    def add_query(self, query: Query, txn: Transaction,
                  memory: Optional[Set[OID]] = None) -> AlphaNode:
        """Register a static query; create or share its alpha node.

        ``memory`` may carry the pre-computed matching OIDs (the evaluator
        runs the query through the Object Manager first, which acquires the
        shared locks that make the materialization exact); when None the
        memory is initialized by scanning the store.  Registration is undone
        if ``txn`` aborts.
        """
        with self._mutex:
            node = self._acquire(query, memory)
            self.stats["nodes_created" if node.refcount == 1
                       else "nodes_shared"] += 1
        txn.log_undo(CallbackUndo(lambda: self.release_query(query),
                                  label="condition-graph add %s" % node.class_name))
        return node

    def _acquire(self, query: Query, memory: Optional[Set[OID]]) -> AlphaNode:
        key = alpha_key(query)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = AlphaNode(query)
            self._by_class.setdefault(node.class_name, []).append(node)
            if memory is not None:
                node.memory = set(memory)
            else:
                records = self._store.extent(node.class_name,
                                             node.include_subclasses)
                node.memory = {record.oid for record in records
                               if node.test(record.attrs)}
        node.refcount += 1
        return node

    def release_query(self, query: Query) -> None:
        """Drop one reference to a query's alpha node (rule deleted)."""
        key = alpha_key(query)
        with self._mutex:
            node = self._nodes.get(key)
            if node is None:
                return
            node.refcount -= 1
            if node.refcount <= 0:
                del self._nodes[key]
                self._by_class[node.class_name].remove(node)

    def reacquire_query(self, query: Query) -> None:
        """Re-add a reference (undo of a release during an aborted delete)."""
        with self._mutex:
            self._acquire(query, None)

    def node_for(self, query: Query) -> Optional[AlphaNode]:
        """Return the alpha node for a query, if registered."""
        with self._mutex:
            return self._nodes.get(alpha_key(query))

    def node_count(self) -> int:
        """Number of live alpha nodes (the sharing metric in benchmarks)."""
        with self._mutex:
            return len(self._nodes)

    # -------------------------------------------------------- delta routing

    def on_delta(self, txn: Transaction, delta: Delta) -> None:
        """Incrementally maintain memories for one store delta.

        Registered as an Object Manager delta listener.  Each memory
        adjustment logs an inverse adjustment into ``txn``'s undo log.
        """
        if delta.kind not in (CREATE, UPDATE, DELETE, DROP_CLASS):
            return
        with self._mutex:
            if not self._nodes:
                return
            self.stats["deltas_processed"] += 1
            if delta.kind == DROP_CLASS:
                # An empty extent was dropped: no memory can reference it.
                return
            # A node covers the delta's class when it ranges over that class
            # or, including subclasses, over one of its ancestors.
            for name in self._store.schema.lineage(delta.class_name):
                for node in self._by_class.get(name, ()):
                    if node.include_subclasses or name == delta.class_name:
                        self._adjust(node, txn, delta)

    def _adjust(self, node: AlphaNode, txn: Transaction, delta: Delta) -> None:
        oid = delta.oid
        assert oid is not None
        was_in = oid in node.memory
        if delta.kind == DELETE:
            should_be_in = False
        else:
            attrs = delta.new_attrs or {}
            should_be_in = node.test(attrs)
        if was_in == should_be_in:
            return
        self.stats["memory_updates"] += 1
        if should_be_in:
            node.memory.add(oid)
            txn.log_undo(CallbackUndo(
                lambda n=node, o=oid: n.memory.discard(o),
                label="memory add %s" % oid))
        else:
            node.memory.discard(oid)
            txn.log_undo(CallbackUndo(
                lambda n=node, o=oid: n.memory.add(o),
                label="memory remove %s" % oid))
