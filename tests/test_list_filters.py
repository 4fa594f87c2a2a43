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
from hypothesis import example, given, settings, strategies as st

from repro import Action, Condition, HiPAC, Rule, on_update
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


# ------------------------------------------------ constants tell kinds apart

def kinds_db():
    """``T(k ANY, n INT)`` holding ``T#1`` (k ``(1, 2)``) and ``T#2`` (k
    ``[1, 2]``): equal frozen forms, unequal values."""
    db = HiPAC()
    db.define_class(ClassDef("T", (AttributeDef("k", AttrType.ANY),
                                   AttributeDef("n", AttrType.INT, default=0))))
    with db.transaction() as txn:
        oids = [db.create("T", {"k": (1, 2)}, txn),
                db.create("T", {"k": [1, 2]}, txn)]
    return db, oids


def answers_to_an_update(db, oid, queries):
    """The rows each of ``queries``' rules hands its action on one update."""
    seen = {}
    for name, query in queries.items():
        db.create_rule(Rule(
            name, event=on_update("T", attrs=["n"]),
            condition=Condition.of(query),
            action=Action.call(lambda ctx: seen.__setitem__(
                ctx.rule.name, ctx.results[0].oids()))))
    with db.transaction() as txn:
        db.update(oid, {"n": 1}, txn)
    return seen


def test_a_list_and_a_tuple_constant_are_two_static_conditions():
    db, (t1, t2) = kinds_db()
    seen = answers_to_an_update(db, t1, {
        "tuple": Query("T", Attr("k") == (1, 2)),
        "list": Query("T", Attr("k") == [1, 2])})
    assert seen == {"tuple": [t1], "list": [t2]}


def test_a_list_and_a_tuple_constant_are_two_memo_entries():
    db, (t1, t2) = kinds_db()
    seen = answers_to_an_update(db, t1, {
        "tuple": Query("T", (Attr("k") == (1, 2)) & (Attr("n") <= EventArg("new_n"))),
        "list": Query("T", (Attr("k") == [1, 2]) & (Attr("n") <= EventArg("new_n")))})
    assert seen == {"tuple": [t1], "list": [t2]}
    assert db.stats()["conditions"]["memo_hits"] == 0
    with db.transaction() as txn:
        assert db.query(Query("T", Attr("k") == (1, 2)), txn).oids() == [t1]
        assert db.query(Query("T", Attr("k") == [1, 2]), txn).oids() == [t2]


def as_list(value):
    return [as_list(item) for item in value] if isinstance(value, tuple) else value


def as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(as_tuple(item) for item in value)
    return value


# VALUES with lists and dicts beside the tuples, and twins of each: the same
# value with its lists and tuples swapped, or a number of another type
KINDS = st.one_of(VALUES, st.lists(VALUES, max_size=2),
                  st.dictionaries(st.sampled_from("ab"), VALUES, max_size=2))
TWINS = st.sampled_from([lambda v: v, as_list, as_tuple, lambda v: v == 1,
                         lambda v: float(v) if type(v) is int else v])


@settings(max_examples=300, deadline=None)
@given(value=KINDS, twin=TWINS, op=OPS, rows=st.lists(KINDS, min_size=1, max_size=6))
def test_equal_constant_keys_answer_alike(value, twin, op, rows):
    """Two constants whose keys are equal share a condition-graph node and a
    memo entry, so they must give every query the same answer."""
    first = Compare(Attr("k"), op, Const(value))
    second = Compare(Attr("k"), op, Const(twin(value)))
    if first.canonical_key() != second.canonical_key():
        return
    store = populated([{"k": row} for row in rows])
    executor = QueryExecutor(store)
    assert executor.execute(Query("C", first)).oids() \
        == executor.execute(Query("C", second)).oids()


# ------------------------------------------- one firing group's shared memo

def family(rows):
    """``P`` and its subclass ``A`` (which sorts first, so the extent of
    ``P`` is not in OID order), ``k`` indexed on both, ``p`` on request.
    Neither extent is empty (see ``test_both_plans_answer...``)."""
    store = ObjectStore()
    store.define_class(ClassDef("P", (
        AttributeDef("k", AttrType.ANY, indexed=True),
        AttributeDef("p", AttrType.ANY), AttributeDef("q", AttrType.ANY))))
    store.define_class(ClassDef("A", (), superclass="P"))
    for name in ("P", "A"):
        store.request_index(name, "p")
    for index, attrs in enumerate(rows):
        store.insert("PA"[index % 2], attrs)
    return store


def answer(compute):
    """Rows as ``(oid, attrs)``, or that the query raised."""
    try:
        return ("ok", [(row.oid, dict(row.attrs)) for row in compute()])
    except QueryError:
        return ("raises",)


def by_matches(store, query, bindings):
    """``matches`` over the extent in OID order, projected and limited."""
    records = sorted(store.extent(query.class_name, query.include_subclasses),
                     key=lambda record: record.oid)
    try:
        kept = [r for r in records if query.predicate.matches(r.attrs, bindings)]
    except QueryError:
        return ("raises",)
    names = query.project
    if names is not None and any(name not in r.attrs for r in kept for name in names):
        return ("raises",)
    rows = [(r.oid, dict(r.attrs) if names is None
             else {name: r.attrs[name] for name in names}) for r in kept]
    return ("ok", rows[:query.limit] if query.limit is not None else rows)


# The dominant shape shares a prefix: an equality on a bound argument, then
# comparisons; every query draws its conjuncts from one small pool.
PREFIXES = st.sampled_from([
    Compare(Attr("k"), "==", EventArg("x")), Compare(Attr("p"), "==", EventArg("y")),
    Attr("k") == 1, Attr("q") > EventArg("x"), Attr("p") < 2.0])


@st.composite
def group(draw):
    """2-10 queries over a pool of conjuncts, each with one of 1-2 binding
    sets (a group at commit holds several signals' firings)."""
    pool = draw(st.lists(st.one_of(PREFIXES, LEAVES), min_size=2, max_size=4))
    queries = []
    for _ in range(draw(st.integers(2, 10))):
        parts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        if draw(st.booleans()):
            parts.append(draw(PREDICATES))
        queries.append((Query(
            draw(st.sampled_from(["P", "A"])),
            And(*parts) if len(parts) > 1 else parts[0],
            project=draw(st.sampled_from([None, None, ("k",), ("p", "k")])),
            include_subclasses=draw(st.booleans()),
            order_by=draw(st.sampled_from([None, None, "k", "p"])),
            descending=draw(st.booleans()),
            limit=draw(st.sampled_from([None, None, 0, 1, 3]))),
            draw(st.integers(0, 1))))
    return queries


# A NaN orders nothing: without one input order for every plan, a sort by
# ``p`` kept the extent's order alone and OID order in the group.
@example(queries=[(Query("P", Compare(Attr("k"), "==", Const(None)),
                         order_by="p"), 0)] * 2,
         bindings=[{}, {}], rows=[{"k": None, "p": 0}, {"p": NAN}])
@settings(max_examples=400, deadline=None)
@given(queries=group(), bindings=st.lists(BINDINGS, min_size=2, max_size=2),
       rows=st.lists(st.fixed_dictionaries({}, optional={
           "k": VALUES, "p": VALUES, "q": VALUES}), min_size=2, max_size=10))
def test_queries_sharing_a_memo_answer_as_each_alone(queries, bindings, rows):
    """Every answer with the group's memo equals the query alone, and
    ``matches`` over the extent in OID order where no ``order_by`` reorders
    it; a query that raises alone raises at the same point in the group."""
    store = family(rows)
    memo = {}
    for use_indexes in (True, False):
        executor = QueryExecutor(store, use_indexes=use_indexes)
        for query, which in queries:
            alone = answer(lambda: executor.execute(query, bindings[which]))
            shared = answer(lambda: executor.execute(query, bindings[which], memo))
            assert shared == alone
            if query.order_by is None:
                assert alone == by_matches(store, query, bindings[which])


# ------------------------------------------- an attribute's bound pairs

NUMBERS = st.one_of(st.integers(-2, 3), st.sampled_from([0.5, 1.0, 2.0]))
BOUND_OPERANDS = st.one_of(VALUES.map(Const), ARGS)
LOWER, UPPER = st.sampled_from([">", ">="]), st.sampled_from(["<", "<="])
PAIR_BINDINGS = st.fixed_dictionaries({}, optional={
    "x": st.one_of(NUMBERS, VALUES), "y": st.one_of(NUMBERS, VALUES)})
# k and p on every record, numbers more often than VALUES alone draws them
PAIR_ROWS = st.lists(st.fixed_dictionaries(
    {"k": st.one_of(NUMBERS, VALUES), "p": st.one_of(NUMBERS, VALUES)},
    optional={"q": VALUES}), min_size=2, max_size=8)


@st.composite
def bound_pairs(draw):
    """A conjunction holding a lower and an upper bound on one or two
    attributes, shuffled among repeats of them, more bounds and other
    leaves: the shape the unmemoized path filters a pair at a time.  Half
    the draws are plain: numeric constants on ``k`` and ``p``, where every
    pair fuses and most records compare."""
    plain = draw(st.booleans())
    attrs = st.sampled_from(["k", "p"]).map(Attr) if plain else ATTRS
    operands = NUMBERS.map(Const) if plain else BOUND_OPERANDS
    parts = []
    for attr in draw(st.lists(attrs, min_size=1, max_size=2, unique=True)):
        parts += [Compare(attr, draw(LOWER), draw(operands)),
                  Compare(attr, draw(UPPER), draw(operands))]
    more = st.builds(Compare, attrs, st.one_of(LOWER, UPPER), operands)
    parts += draw(st.lists(st.one_of(more, st.sampled_from(parts))
                           if plain else st.one_of(more, LEAVES), max_size=2))
    return And(*draw(st.permutations(parts)))


def pair(lower, low, upper, high, attr="p"):
    return And(Compare(Attr(attr), lower, low), Compare(Attr(attr), upper, high))


# NaN; a None bound and None values; a str among floats (the TypeError
# fallback); a str bound from an argument; bools among numbers; an upper
# bound declared first, behind a bound on another attribute.
@example(pred=pair(">=", Const(0.5), "<", Const(2.0)), bindings={},
         rows=[{"p": NAN}, {"p": 1.0}, {"p": 0.5}, {"p": 2.0}])
@example(pred=pair(">", Const(None), "<=", Const(2.0)), bindings={},
         rows=[{"p": None}, {"p": 1.0}, {}])
@example(pred=pair(">=", Const(0.5), "<", Const(2.0)), bindings={},
         rows=[{"p": 1.0}, {"p": "a"}, {"p": 0.5}, {"p": 2.0}])
@example(pred=pair(">=", EventArg("x"), "<", EventArg("y")),
         bindings={"x": 0.5, "y": "a"}, rows=[{"p": 1.0}, {"p": "ab"}])
@example(pred=pair(">", Const(False), "<=", Const(True)), bindings={},
         rows=[{"p": True}, {"p": 1}, {"p": 0.5}, {"p": False}, {"p": 2}])
@example(pred=And(Attr("q") >= 1, Attr("p") <= 2, Attr("p") > 0),
         bindings={}, rows=[{"p": 1, "q": 0}, {"p": 2, "q": 3}, {"p": 3}])
@settings(max_examples=500, deadline=None)
@given(pred=bound_pairs(), bindings=PAIR_BINDINGS, rows=PAIR_ROWS)
def test_bound_pairs_answer_what_matches_answers(pred, bindings, rows):
    """Both plans, with and without a memo, answer what ``matches`` answers
    over the extent in OID order, or raise where it raises."""
    store = populated(rows)
    query = Query("C", pred)
    expected = outcome(lambda: sorted(
        record.oid for record in store.extent("C")
        if pred.matches(record.attrs, bindings)))
    for use_indexes in (True, False):
        executor = QueryExecutor(store, use_indexes=use_indexes)
        assert outcome(lambda: executor.execute(query, bindings).oids()) \
            == expected
        assert outcome(lambda: executor.execute(query, bindings, {}).oids()) \
            == expected
