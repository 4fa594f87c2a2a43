"""Tests for join queries (the multi-class DML extension)."""

import pytest

from repro import (
    Action,
    Attr,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    JoinQuery,
    OID_ATTR,
    Query,
    QueryError,
    Rule,
    on_update,
)


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Warehouse", (
        AttributeDef("city", AttrType.STRING, required=True, indexed=True),
    )))
    database.define_class(ClassDef("Item", (
        AttributeDef("sku", AttrType.STRING, required=True),
        AttributeDef("warehouse", AttrType.OID),
        AttributeDef("qty", AttrType.INT, default=0),
    )))
    yield database
    database.close()


def seed(db):
    with db.transaction() as txn:
        boston = db.create("Warehouse", {"city": "Boston"}, txn)
        nyc = db.create("Warehouse", {"city": "NYC"}, txn)
        items = {
            "A": db.create("Item", {"sku": "A", "warehouse": boston,
                                    "qty": 5}, txn),
            "B": db.create("Item", {"sku": "B", "warehouse": nyc,
                                    "qty": 50}, txn),
            "C": db.create("Item", {"sku": "C", "warehouse": boston,
                                    "qty": 7}, txn),
            "D": db.create("Item", {"sku": "D", "warehouse": None,
                                    "qty": 1}, txn),
        }
    return boston, nyc, items


class TestJoinValidation:
    def test_requires_query_sides(self):
        with pytest.raises(QueryError):
            JoinQuery("Item", Query("Warehouse"), "warehouse")

    def test_requires_attrs(self):
        with pytest.raises(QueryError):
            JoinQuery(Query("Item"), Query("Warehouse"), "")

    def test_left_projection_must_keep_join_attr(self):
        with pytest.raises(QueryError):
            JoinQuery(Query("Item", project=("sku",)), Query("Warehouse"),
                      "warehouse")

    def test_canonical_key_structural(self):
        a = JoinQuery(Query("Item"), Query("Warehouse"), "warehouse")
        b = JoinQuery(Query("Item"), Query("Warehouse"), "warehouse")
        assert a.canonical_key() == b.canonical_key()


class TestOidJoin:
    def test_join_items_to_warehouses(self, db):
        boston, nyc, items = seed(db)
        join = JoinQuery(Query("Item"),
                         Query("Warehouse", Attr("city") == "Boston"),
                         "warehouse", OID_ATTR)
        with db.transaction() as txn:
            result = db.object_manager.execute_join(join, txn)
        assert sorted(result.values("sku")) == ["A", "C"]
        assert all(row.get("right.city") == "Boston" for row in result)

    def test_null_fk_never_joins(self, db):
        seed(db)
        join = JoinQuery(Query("Item"), Query("Warehouse"), "warehouse")
        with db.transaction() as txn:
            result = db.object_manager.execute_join(join, txn)
        assert sorted(result.values("sku")) == ["A", "B", "C"]

    def test_both_side_predicates_apply(self, db):
        seed(db)
        join = JoinQuery(Query("Item", Attr("qty") > 6),
                         Query("Warehouse", Attr("city") == "Boston"),
                         "warehouse")
        with db.transaction() as txn:
            result = db.object_manager.execute_join(join, txn)
        assert result.values("sku") == ["C"]

    def test_attribute_join(self, db):
        """Join on an ordinary attribute (not OID): items in cities with the
        same name as the sku — contrived but exercises the path."""
        with db.transaction() as txn:
            db.create("Warehouse", {"city": "A"}, txn)
        seed(db)
        join = JoinQuery(Query("Item"), Query("Warehouse"), "sku", "city")
        with db.transaction() as txn:
            result = db.object_manager.execute_join(join, txn)
        assert result.values("sku") == ["A"]

    def test_join_row_accessors(self, db):
        boston, nyc, items = seed(db)
        join = JoinQuery(Query("Item", Attr("sku") == "A"),
                         Query("Warehouse"), "warehouse")
        with db.transaction() as txn:
            row = db.object_manager.execute_join(join, txn).first()
        assert row.oid == items["A"]
        assert row["left.sku"] == "A"
        assert row["right.city"] == "Boston"
        assert row["city"] == "Boston"  # unprefixed falls through to right
        with pytest.raises(KeyError):
            row["nope"]

    def test_empty_join_first_raises(self, db):
        seed(db)
        join = JoinQuery(Query("Item", Attr("sku") == "ZZZ"),
                         Query("Warehouse"), "warehouse")
        with db.transaction() as txn:
            result = db.object_manager.execute_join(join, txn)
        with pytest.raises(QueryError):
            result.first()


class TestJoinInConditions:
    def test_rule_with_join_condition(self, db):
        boston, nyc, items = seed(db)
        fired = []
        db.create_rule(Rule(
            name="boston-low-stock",
            event=on_update("Item", attrs=["qty"]),
            condition=Condition.of(JoinQuery(
                Query("Item", Attr("qty") < 3),
                Query("Warehouse", Attr("city") == "Boston"),
                "warehouse")),
            action=Action.call(
                lambda ctx: fired.append(sorted(ctx.results[0].values("sku")))),
        ))
        with db.transaction() as txn:
            db.update(items["B"], {"qty": 1}, txn)   # NYC item: join empty
        assert fired == []
        with db.transaction() as txn:
            db.update(items["A"], {"qty": 2}, txn)   # Boston item below 3
        assert fired == [["A"]]

    def test_join_condition_memoized_within_round(self, db):
        boston, nyc, items = seed(db)
        join = JoinQuery(Query("Item"), Query("Warehouse"), "warehouse")
        for name in ("r1", "r2"):
            db.create_rule(Rule(
                name=name,
                event=on_update("Item", attrs=["qty"]),
                condition=Condition.of(join),
                action=Action.call(lambda ctx: None),
            ))
        before = db.condition_evaluator.stats["memo_hits"]
        with db.transaction() as txn:
            db.update(items["A"], {"qty": 9}, txn)
        assert db.condition_evaluator.stats["memo_hits"] == before + 1

    def test_join_not_materialized_in_graph(self, db):
        seed(db)
        db.create_rule(Rule(
            name="j",
            event=on_update("Item"),
            condition=Condition.of(JoinQuery(
                Query("Item"), Query("Warehouse"), "warehouse")),
            action=Action.call(lambda ctx: None),
        ))
        assert db.condition_evaluator.graph.node_count() == 0
