"""Property-based tests: transaction abort restores the exact prior state.

For arbitrary sequences of create/update/delete operations — including
nested subtransactions that commit or abort — aborting a top-level
transaction must restore the store (extents, attribute values, indexes) to
exactly its pre-transaction snapshot; committing must preserve exactly the
applied effects.
"""

from hypothesis import given, settings, strategies as st

from repro import AttrType, AttributeDef, ClassDef, HiPAC


def fresh_db():
    db = HiPAC(lock_timeout=2.0)
    db.define_class(ClassDef("Item", (
        AttributeDef("name", AttrType.STRING, required=True, indexed=True),
        AttributeDef("qty", AttrType.INT, default=0),
    )))
    return db


# An op is one of:
#   ("create", name, qty)
#   ("update", target_index, qty)   - applied to an existing object, if any
#   ("delete", target_index)
#   ("subtxn", commit?, [ops])      - nested transaction
ops_strategy = st.deferred(lambda: st.lists(
    st.one_of(
        st.tuples(st.just("create"),
                  st.text(alphabet="abc", min_size=1, max_size=3),
                  st.integers(0, 100)),
        st.tuples(st.just("update"), st.integers(0, 5), st.integers(0, 100)),
        st.tuples(st.just("delete"), st.integers(0, 5)),
        st.tuples(st.just("subtxn"), st.booleans(), ops_strategy),
    ),
    max_size=6,
))


def apply_ops(db, txn, ops, live):
    """Apply an op list; ``live`` tracks OIDs created/visible so far."""
    for op in ops:
        if op[0] == "create":
            live.append(db.create("Item", {"name": op[1], "qty": op[2]}, txn))
        elif op[0] == "update":
            existing = [oid for oid in live if db.store.exists(oid)]
            if existing:
                db.update(existing[op[1] % len(existing)], {"qty": op[2]}, txn)
        elif op[0] == "delete":
            existing = [oid for oid in live if db.store.exists(oid)]
            if existing:
                db.delete(existing[op[1] % len(existing)], txn)
        elif op[0] == "subtxn":
            child = db.begin(txn)
            apply_ops(db, child, op[2], live)
            if op[1]:
                db.commit(child)
            else:
                db.abort(child)


def index_snapshot(db):
    index = db.store.indexes.get("Item", "name")
    return {key: frozenset(index.lookup(key)) for key in list(index.keys())}


class TestAbortRestoresState:
    @settings(max_examples=60, deadline=None)
    @given(setup=ops_strategy, work=ops_strategy)
    def test_abort_is_a_no_op(self, setup, work):
        db = fresh_db()
        live = []
        with db.transaction() as txn:
            apply_ops(db, txn, setup, live)
        before = db.store.snapshot_state()
        before_index = index_snapshot(db)
        before_prov = db.provenance.stats_snapshot()
        before_ops = db.object_manager.stats["operations"]

        txn = db.begin()
        apply_ops(db, txn, work, live)
        db.abort(txn)

        assert db.store.snapshot_state() == before
        assert index_snapshot(db) == before_index
        # Provenance never hears of aborted work, except to count it.
        after_prov = db.provenance.stats_snapshot()
        assert after_prov["published"] == before_prov["published"]
        assert after_prov["live_entries"] == before_prov["live_entries"]
        if db.object_manager.stats["operations"] == before_ops:
            assert after_prov["pruned"] == before_prov["pruned"]

    @settings(max_examples=60, deadline=None)
    @given(setup=ops_strategy, work=ops_strategy)
    def test_commit_equals_flat_replay(self, setup, work):
        """Committing nested work produces the same store state as applying
        the same (surviving) operations without transactions."""
        db1 = fresh_db()
        live1 = []
        with db1.transaction() as txn:
            apply_ops(db1, txn, setup, live1)
            apply_ops(db1, txn, work, live1)
        state_nested = _canonical(db1.store.snapshot_state())
        # Provenance explains exactly the committed state: the newest
        # entry of every live attribute carries the store's value, and
        # the newest entry of a deleted object is its delete (an object
        # only ever created under an aborted subtransaction has none).
        for oid in live1:
            if db1.store.exists(oid):
                for attr, value in db1.store.get(oid).attrs.items():
                    assert db1.provenance.latest(oid, attr).new_value == value
            else:
                newest = db1.provenance.latest(oid)
                assert newest is None or newest.op == "delete"

        db2 = fresh_db()
        live2 = []
        with db2.transaction() as txn:
            apply_ops(db2, txn, setup + _surviving(work), live2)
        state_flat = _canonical(db2.store.snapshot_state())
        assert state_nested == state_flat


def _surviving(ops):
    """Flatten op lists, dropping aborted subtransactions."""
    out = []
    for op in ops:
        if op[0] == "subtxn":
            if op[1]:
                out.extend(_surviving(op[2]))
        else:
            out.append(op)
    return out


def _canonical(state):
    """Store snapshot with OIDs replaced by creation order (OIDs differ
    between runs, attribute multisets must not)."""
    return {
        class_name: sorted(
            tuple(sorted(attrs.items())) for attrs in extent.values()
        )
        for class_name, extent in state.items()
    }
