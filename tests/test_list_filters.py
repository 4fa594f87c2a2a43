"""The executor's list-at-a-time filters against per-object ``matches``.

``QueryExecutor.execute`` binds each top-level conjunct to a filter over a
list of records (one comprehension for an ``Attr op value`` leaf) and may
start from an index bucket instead of the extent.  Whatever the plan, the
answer must be ``[r for r in extent if predicate.matches(r.attrs, b)]`` in
OID order — or, where ``matches`` raises for some object, ``QueryError``
from both plans.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.objstore.executor import QueryExecutor
from repro.objstore.predicates import (
    And, Attr, Compare, Const, EventArg, Not, Or)
from repro.objstore.query import Query
from repro.objstore.store import ObjectStore
from repro.objstore.types import AttrType, AttributeDef, ClassDef

NAN = math.nan

# None, int, float, str, bool, NaN and tuples: orderings between the kinds
# raise TypeError, equalities across int / float / bool hit one index key.
VALUES = st.one_of(
    st.none(), st.integers(-2, 3), st.sampled_from([0.5, 2.0, 1.0, NAN]),
    st.sampled_from(["", "a", "ab"]), st.booleans(),
    st.sampled_from([(1, 2), ("a",), ()]))
OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "in", "contains"])
ATTRS = st.sampled_from(["k", "p", "q", "missing"]).map(Attr)
ARGS = st.sampled_from(["x", "y", "unbound"]).map(EventArg)
OPERANDS = st.one_of(VALUES.map(Const), ATTRS, ARGS)
# The dominant leaf (Attr op Const / Attr op EventArg), equalities an index
# can answer, and every other shape.
LEAVES = st.one_of(
    st.builds(Compare, ATTRS, OPS, st.one_of(VALUES.map(Const), ARGS)),
    st.builds(Compare, ATTRS, st.just("=="), st.one_of(VALUES.map(Const), ARGS)),
    st.builds(Compare, OPERANDS, OPS, OPERANDS))
PREDICATES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(Not),
        st.lists(inner, min_size=2, max_size=4).map(lambda ps: And(*ps)),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Or(*ps))),
    max_leaves=8)
BINDINGS = st.fixed_dictionaries({}, optional={"x": VALUES, "y": VALUES})
ROWS = st.lists(st.fixed_dictionaries({}, optional={
    "k": VALUES, "p": VALUES, "q": VALUES}), min_size=1, max_size=8)


def populated(rows):
    """``k`` declared indexed, ``p`` indexed on request, ``q`` not at all."""
    store = ObjectStore()
    store.define_class(ClassDef("C", (
        AttributeDef("k", AttrType.ANY, indexed=True),
        AttributeDef("p", AttrType.ANY), AttributeDef("q", AttrType.ANY))))
    store.request_index("C", "p")
    for attrs in rows:
        store.insert("C", attrs)
    return store


def outcome(compute):
    try:
        return ("ok", compute())
    except QueryError:
        return ("raises",)


# The extent is never empty: a probe resolves its key before it looks at an
# object, so an unbound leading key raises even where a scan of an empty
# extent has nothing to test (tests/test_predicate_compile.py pins that).
@settings(max_examples=500, deadline=None)
@given(pred=PREDICATES, bindings=BINDINGS, rows=ROWS)
def test_both_plans_answer_what_matches_answers(pred, bindings, rows):
    store = populated(rows)
    query = Query("C", pred)
    expected = outcome(lambda: sorted(
        record.oid for record in store.extent("C")
        if pred.matches(record.attrs, bindings)))
    for use_indexes in (True, False):
        executor = QueryExecutor(store, use_indexes=use_indexes)
        assert outcome(lambda: executor.execute(query, bindings).oids()) \
            == expected


def test_incomparable_values_fall_back_to_one_object_at_a_time():
    store = populated([{"p": 1}, {"p": "a"}, {"p": 2}, {"p": None}])

    def answer(pred, bindings=()):
        return QueryExecutor(store).execute(Query("C", pred), bindings).values("p")
    assert answer(Attr("p") > 1) == [2]
    assert answer(Attr("p") <= "b") == ["a"]
    assert answer(Attr("p") != 1) == ["a", 2, None]
    assert answer(Compare(Attr("p"), ">=", EventArg("x")), {"x": 2}) == [2]


def test_index_plan_needs_the_scan_to_raise_where_it_raises():
    """A probe that resolves an unbound key raises at once; a scan raises
    only when some object reaches that conjunct.  An equality behind another
    conjunct is therefore probed only when every argument is bound."""
    store = ObjectStore()
    store.define_class(ClassDef("S", (
        AttributeDef("sym", AttrType.STRING, indexed=True),
        AttributeDef("p", AttrType.NUMBER))))
    store.insert("S", {"sym": "A", "p": 1.0})
    query = Query("S", And(Attr("p") > 1000,
                           Compare(Attr("sym"), "==", EventArg("x"))))
    for use_indexes in (True, False):
        executor = QueryExecutor(store, use_indexes=use_indexes)
        assert executor.plan(query, {}).kind == "scan"
        assert len(executor.execute(query, {})) == 0
    probe = QueryExecutor(store)
    assert probe.plan(query, {"x": "A"}).kind == "index-probe"
    assert len(probe.execute(query, {"x": "A"})) == 0
    # leading, the equality is probed either way: both plans raise
    leading = Query("S", And(Compare(Attr("sym"), "==", EventArg("x")),
                             Attr("p") > 1000))
    assert probe.plan(leading, {}).kind == "index-probe"
    for use_indexes in (True, False):
        with pytest.raises(QueryError, match="unbound"):
            QueryExecutor(store, use_indexes=use_indexes).execute(leading, {})
