"""Tests for the Object Manager: operations, locking, event signalling."""

import pytest

from repro.errors import SchemaError, TransactionStateError
from repro.events.spec import on_create, on_update
from repro.objstore.manager import ObjectManager
from repro.objstore.operations import DefineClass, DropClass
from repro.objstore.predicates import Attr
from repro.objstore.query import Query
from repro.objstore.store import ObjectStore
from repro.objstore.types import AttrType, AttributeDef, ClassDef
from repro.txn.locks import LockManager, LockMode, LockResource
from repro.txn.manager import TransactionManager


@pytest.fixture
def om():
    store = ObjectStore()
    tm = TransactionManager(LockManager(default_timeout=1.0))
    manager = ObjectManager(store, tm)
    txn = tm.create_transaction()
    manager.execute_operation(DefineClass(ClassDef("Stock", (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("price", AttrType.NUMBER, default=0.0),
    ))), txn)
    tm.commit_transaction(txn)
    return manager


class TestOperations:
    def test_create_returns_oid(self, om):
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)
        assert oid.class_name == "Stock"
        assert om.read(oid, txn)["symbol"] == "A"

    def test_create_without_txn_rejected(self, om):
        with pytest.raises(SchemaError):
            om.create("Stock", {"symbol": "A"})

    def test_update_and_delete(self, om):
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)
        om.update(oid, {"price": 5.0}, txn)
        assert om.read(oid, txn)["price"] == 5.0
        om.delete(oid, txn)
        assert not om.store.exists(oid)

    def test_unknown_operation_rejected(self, om):
        txn = om.txns.create_transaction()
        with pytest.raises(SchemaError):
            om.execute_operation(object(), txn)

    def test_finished_transaction_rejected(self, om):
        txn = om.txns.create_transaction()
        om.txns.commit_transaction(txn)
        with pytest.raises(TransactionStateError):
            om.create("Stock", {"symbol": "A"}, txn)

    def test_drop_class_operation(self, om):
        txn = om.txns.create_transaction()
        om.execute_operation(DefineClass(ClassDef("Tmp")), txn)
        om.execute_operation(DropClass("Tmp"), txn)
        om.txns.commit_transaction(txn)
        assert not om.store.schema.has("Tmp")


class TestLockingBehavior:
    def test_write_takes_ix_class_x_object(self, om):
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)
        assert om.txns.locks.mode_held(
            txn, LockResource.for_class("Stock")) == LockMode.IX
        assert om.txns.locks.mode_held(
            txn, LockResource.for_object(oid)) == LockMode.X

    def test_query_takes_s_on_extent(self, om):
        txn = om.txns.create_transaction()
        om.execute_query(Query("Stock"), txn)
        assert om.txns.locks.mode_held(
            txn, LockResource.for_class("Stock")) == LockMode.S

    def test_read_takes_is_class_s_object(self, om):
        writer = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, writer)
        om.txns.commit_transaction(writer)
        reader = om.txns.create_transaction()
        om.read(oid, reader)
        assert om.txns.locks.mode_held(
            reader, LockResource.for_class("Stock")) == LockMode.IS
        assert om.txns.locks.mode_held(
            reader, LockResource.for_object(oid)) == LockMode.S

    def test_writer_blocks_reader_of_same_object(self, om):
        from repro.errors import LockTimeout
        writer = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, writer)
        om.txns.commit_transaction(writer)
        w2 = om.txns.create_transaction()
        om.update(oid, {"price": 1.0}, w2)
        reader = om.txns.create_transaction()
        with pytest.raises(LockTimeout):
            om.read(oid, reader)

    def test_writers_of_different_objects_coexist(self, om):
        setup = om.txns.create_transaction()
        a = om.create("Stock", {"symbol": "A"}, setup)
        b = om.create("Stock", {"symbol": "B"}, setup)
        om.txns.commit_transaction(setup)
        t1 = om.txns.create_transaction()
        t2 = om.txns.create_transaction()
        om.update(a, {"price": 1.0}, t1)
        om.update(b, {"price": 2.0}, t2)  # IX + IX compatible: no blocking
        om.txns.commit_transaction(t1)
        om.txns.commit_transaction(t2)

    def test_query_blocks_on_active_writer(self, om):
        from repro.errors import LockTimeout
        setup = om.txns.create_transaction()
        a = om.create("Stock", {"symbol": "A"}, setup)
        om.txns.commit_transaction(setup)
        writer = om.txns.create_transaction()
        om.update(a, {"price": 1.0}, writer)
        reader = om.txns.create_transaction()
        with pytest.raises(LockTimeout):
            om.execute_query(Query("Stock"), reader)


class TestUndoIntegration:
    def test_abort_undoes_operations(self, om):
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)
        om.update(oid, {"price": 3.0}, txn)
        om.txns.abort_transaction(txn)
        assert om.store.extent("Stock") == []

    def test_abort_restores_deleted(self, om):
        t1 = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A", "price": 2.0}, t1)
        om.txns.commit_transaction(t1)
        t2 = om.txns.create_transaction()
        om.delete(oid, t2)
        om.txns.abort_transaction(t2)
        assert om.store.get(oid).attrs["price"] == 2.0

    def test_abort_undoes_ddl(self, om):
        txn = om.txns.create_transaction()
        om.execute_operation(DefineClass(ClassDef("Tmp")), txn)
        om.txns.abort_transaction(txn)
        assert not om.store.schema.has("Tmp")


class TestEventReporting:
    def test_events_reported_when_programmed(self, om):
        seen = []
        om.event_detector.sink = seen.extend
        om.event_detector.define_event(on_update("Stock"))
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)  # create: not programmed
        om.update(oid, {"price": 1.0}, txn)
        om.txns.commit_transaction(txn)
        assert len(seen) == 1
        signal = seen[0]
        assert signal.op == "update"
        assert signal.oid == oid
        assert signal.old_attrs["price"] == 0.0
        assert signal.new_attrs["price"] == 1.0
        assert signal.txn is txn

    def test_signal_carries_user(self, om):
        seen = []
        om.event_detector.sink = seen.extend
        om.event_detector.define_event(on_create("Stock"))
        txn = om.txns.create_transaction()
        om.create("Stock", {"symbol": "A"}, txn, user="alice")
        assert seen[0].user == "alice"

    def test_delta_listeners_called(self, om):
        deltas = []
        om.add_delta_listener(lambda txn, delta: deltas.append(delta.kind))
        txn = om.txns.create_transaction()
        oid = om.create("Stock", {"symbol": "A"}, txn)
        om.delete(oid, txn)
        assert deltas == ["create", "delete"]

    def test_plan_exposed(self, om):
        plan = om.query_plan(Query("Stock", Attr("symbol") == "A"))
        assert plan.kind == "index-probe"
