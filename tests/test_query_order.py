"""``order_by`` on an attribute outside ``project`` orders by that attribute.

A query's rows are ordered on the records' full attributes, then projected,
then limited, on each path rows take: an ad-hoc query, a parameterised rule
condition (through its firing group's memo) and a static one (from the
condition graph's memory).
"""

from repro import (Action, Attr, AttrType, AttributeDef, ClassDef, Compare,
                   Condition, EventArg, HiPAC, Query, Rule, on_update)


def accounts():
    """Four ``A`` objects, ``o0`` .. ``o3``, with balances 5, 1, 3, 2."""
    db = HiPAC()
    db.define_class(ClassDef("A", (
        AttributeDef("owner", AttrType.STRING, default=""),
        AttributeDef("balance", AttrType.NUMBER, default=0.0),
        AttributeDef("n", AttrType.INT, default=0))))
    with db.transaction() as txn:
        oids = [db.create("A", {"owner": "o%d" % k, "balance": balance}, txn)
                for k, balance in enumerate((5, 1, 3, 2))]
    return db, oids


def test_an_ad_hoc_query_orders_by_an_unprojected_attribute():
    db, o = accounts()
    with db.transaction() as txn:
        result = db.query(Query("A", project=("owner",), order_by="balance"),
                          txn)
    assert result.oids() == [o[1], o[3], o[2], o[0]]
    assert result.values("owner") == ["o1", "o3", "o2", "o0"]
    assert all(set(row.attrs) == {"owner"} for row in result)


def test_descending_and_limit_apply_before_the_projection_drops_the_key():
    db, o = accounts()
    with db.transaction() as txn:
        result = db.query(Query("A", Attr("balance") >= 2, project=("owner",),
                                order_by="balance", descending=True, limit=2),
                          txn)
    assert result.oids() == [o[0], o[2]]


def test_rule_conditions_order_by_an_unprojected_attribute():
    db, o = accounts()
    seen = {}
    conditions = {
        # static: answered from the condition graph's memory
        "graph": Query("A", Attr("balance") > 0, project=("owner",),
                       order_by="balance"),
        # parameterised: run through the firing group's memo
        "memo": Query("A", Compare(Attr("n"), "<=", EventArg("new_n")),
                      project=("owner",), order_by="balance"),
    }
    for name, query in conditions.items():
        db.create_rule(Rule(
            name, event=on_update("A", attrs=["n"]),
            condition=Condition.of(query),
            action=Action.call(lambda ctx: seen.__setitem__(
                ctx.rule.name, ctx.results[0].oids()))))
    with db.transaction() as txn:
        db.update(o[0], {"n": 1}, txn)
    expected = [o[1], o[3], o[2], o[0]]
    assert seen == {"graph": expected, "memo": expected}
    stats = db.stats()["conditions"]
    assert stats["graph_answers"] >= 1 and stats["executor_answers"] >= 1
