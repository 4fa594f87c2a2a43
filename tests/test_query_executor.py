"""Tests for queries and the index-aware executor."""

import pytest

from repro.errors import QueryError
from repro.objstore.executor import QueryExecutor
from repro.objstore.predicates import And, Attr, Compare, EventArg
from repro.objstore.query import Query
from repro.objstore.store import ObjectStore
from repro.objstore.types import AttrType, AttributeDef, ClassDef


def seeded_store():
    store = ObjectStore()
    store.define_class(ClassDef("Stock", (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("price", AttrType.NUMBER, default=0.0),
    )))
    store.define_class(ClassDef("Bond", (
        AttributeDef("rate", AttrType.NUMBER, default=0.0),
    )))
    oids = {}
    for symbol, price in [("A", 10.0), ("B", 20.0), ("C", 30.0), ("A2", 10.0)]:
        oids[symbol] = store.insert("Stock", {"symbol": symbol, "price": price}).oid
    return store, oids


class TestQueryValidation:
    def test_requires_class(self):
        with pytest.raises(QueryError):
            Query("")

    def test_requires_predicate_type(self):
        with pytest.raises(QueryError):
            Query("Stock", predicate="price > 5")

    def test_negative_limit_rejected(self):
        with pytest.raises(QueryError):
            Query("Stock", limit=-1)

    def test_canonical_key_structural(self):
        assert Query("Stock", Attr("p") > 1).canonical_key() == \
            Query("Stock", Attr("p") > 1).canonical_key()

    def test_static_detection(self):
        assert Query("Stock", Attr("p") > 1).is_static()
        assert not Query("Stock", Compare(Attr("p"), ">", EventArg("x"))).is_static()


class TestExecution:
    def test_scan_filters(self):
        store, oids = seeded_store()
        result = QueryExecutor(store).execute(Query("Stock", Attr("price") > 15))
        assert set(result.oids()) == {oids["B"], oids["C"]}

    def test_unknown_class_raises(self):
        store, _ = seeded_store()
        with pytest.raises(Exception):
            QueryExecutor(store).execute(Query("Nope"))

    def test_empty_result_falsy(self):
        store, _ = seeded_store()
        result = QueryExecutor(store).execute(Query("Stock", Attr("price") > 999))
        assert not result
        assert len(result) == 0

    def test_first_on_empty_raises(self):
        store, _ = seeded_store()
        result = QueryExecutor(store).execute(Query("Stock", Attr("price") > 999))
        with pytest.raises(QueryError):
            result.first()

    def test_projection(self):
        store, _ = seeded_store()
        result = QueryExecutor(store).execute(
            Query("Stock", Attr("symbol") == "A", project=("price",)))
        assert result.first().attrs == {"price": 10.0}

    def test_projection_unknown_attr_raises(self):
        store, _ = seeded_store()
        with pytest.raises(QueryError):
            QueryExecutor(store).execute(Query("Stock", project=("color",)))

    def test_order_by_and_limit(self):
        store, _ = seeded_store()
        result = QueryExecutor(store).execute(
            Query("Stock", order_by="price", descending=True, limit=2))
        assert result.values("price") == [30.0, 20.0]

    def test_order_by_over_incomparable_values_names_the_attribute(self):
        store = ObjectStore()
        store.define_class(ClassDef("Mixed", (AttributeDef("v", AttrType.ANY),)))
        store.insert("Mixed", {"v": 1})
        store.insert("Mixed", {"v": "a"})
        with pytest.raises(QueryError, match="'v'"):
            QueryExecutor(store).execute(Query("Mixed", order_by="v"))

    def test_default_order_is_oid(self):
        store, oids = seeded_store()
        result = QueryExecutor(store).execute(Query("Stock"))
        assert result.oids() == sorted(result.oids())

    def test_bindings_in_predicate(self):
        store, oids = seeded_store()
        query = Query("Stock", Compare(Attr("price"), ">", EventArg("min")))
        result = QueryExecutor(store).execute(query, {"min": 25})
        assert result.oids() == [oids["C"]]

    def test_row_access(self):
        store, _ = seeded_store()
        row = QueryExecutor(store).execute(
            Query("Stock", Attr("symbol") == "B")).first()
        assert row["price"] == 20.0
        assert row.get("missing", "d") == "d"


class TestPlanning:
    def test_index_probe_chosen_for_equality(self):
        store, _ = seeded_store()
        plan = QueryExecutor(store).plan(Query("Stock", Attr("symbol") == "A"))
        assert plan.kind == "index-probe"
        assert plan.index_attr == "symbol"

    def test_scan_for_range(self):
        store, _ = seeded_store()
        plan = QueryExecutor(store).plan(Query("Stock", Attr("price") > 5))
        assert plan.kind == "scan"

    def test_scan_for_unindexed_equality(self):
        store, _ = seeded_store()
        plan = QueryExecutor(store).plan(Query("Stock", Attr("price") == 10.0))
        assert plan.kind == "scan"

    def test_indexes_disabled(self):
        store, _ = seeded_store()
        executor = QueryExecutor(store, use_indexes=False)
        plan = executor.plan(Query("Stock", Attr("symbol") == "A"))
        assert plan.kind == "scan"

    def test_probe_and_scan_agree(self):
        store, _ = seeded_store()
        query = Query("Stock", And(Attr("symbol") == "A", Attr("price") > 5))
        fast = QueryExecutor(store, use_indexes=True).execute(query)
        slow = QueryExecutor(store, use_indexes=False).execute(query)
        assert fast.oids() == slow.oids()

    def test_probe_with_event_arg(self):
        store, oids = seeded_store()
        query = Query("Stock", Compare(Attr("symbol"), "==", EventArg("s")))
        executor = QueryExecutor(store)
        assert executor.plan(query).kind == "index-probe"
        result = executor.execute(query, {"s": "B"})
        assert result.oids() == [oids["B"]]


class TestSubclassQueries:
    def make(self):
        store = ObjectStore()
        store.define_class(ClassDef("Sec", (AttributeDef("v", AttrType.NUMBER),)))
        store.define_class(ClassDef("Stk", (), superclass="Sec"))
        a = store.insert("Sec", {"v": 1.0}).oid
        b = store.insert("Stk", {"v": 2.0}).oid
        return store, a, b

    def test_subclass_instances_included(self):
        store, a, b = self.make()
        result = QueryExecutor(store).execute(Query("Sec"))
        assert set(result.oids()) == {a, b}

    def test_subclass_excluded_on_request(self):
        store, a, b = self.make()
        result = QueryExecutor(store).execute(Query("Sec", include_subclasses=False))
        assert result.oids() == [a]

    def test_materialize_rows_applies_projection(self):
        store, _, _ = self.make()
        executor = QueryExecutor(store)
        records = store.extent("Sec")
        result = executor.materialize_rows(
            Query("Sec", project=("v",), order_by="v", descending=True), records)
        assert result.values("v") == [2.0, 1.0]
