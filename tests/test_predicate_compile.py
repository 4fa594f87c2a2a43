"""Compiled predicates against an independent reference interpreter.

``repro.objstore.predicates`` evaluates through bound closures only; the
plain recursive interpreter below lives here and nowhere else, shares no code
with what it checks (it only reads the node classes' fields), and defines what
``matches`` and the executor must return — or that they must raise.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Action, Condition, HiPAC, Rule, on_update
from repro.errors import QueryError
from repro.objstore.executor import QueryExecutor
from repro.objstore.predicates import (
    TRUE, And, Attr, Compare, Const, EventArg, Not, Or)
from repro.objstore.query import Query
from repro.objstore.store import ObjectStore
from repro.objstore.types import AttrType, AttributeDef, ClassDef


# ------------------------------------------------------ the reference

class Unbound(Exception):
    """The reference's own 'unbound event argument'."""


def ref_value(expr, attrs, bindings):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Attr):
        return attrs.get(expr.name)
    if expr.name not in bindings:
        raise Unbound(expr.name)
    return bindings[expr.name]


def ref_matches(pred, attrs, bindings):
    if pred is TRUE:
        return True
    if isinstance(pred, Not):
        return not ref_matches(pred.part, attrs, bindings)
    if isinstance(pred, And):
        return all(ref_matches(part, attrs, bindings) for part in pred.parts)
    if isinstance(pred, Or):
        return any(ref_matches(part, attrs, bindings) for part in pred.parts)
    left = ref_value(pred.left, attrs, bindings)
    right = ref_value(pred.right, attrs, bindings)
    try:
        if pred.op == "in":
            return left in right
        if pred.op == "contains":
            return right in left
        if left is None or right is None:
            both = left is None and right is None
            return {"==": both, "!=": not both}.get(pred.op, False)
        return bool({"==": lambda: left == right, "!=": lambda: left != right,
                     "<": lambda: left < right, "<=": lambda: left <= right,
                     ">": lambda: left > right, ">=": lambda: left >= right,
                     }[pred.op]())
    except TypeError:
        return False


def outcome(compute):
    """``("ok", value)`` or ``("unbound",)``: results and raises compare alike."""
    try:
        return ("ok", compute())
    except (QueryError, Unbound):
        return ("unbound",)


# ------------------------------------------------------ generated inputs

# None, numbers, strings, containers: every pair of kinds meets somewhere,
# so ordering comparisons hit incomparable types and `in` hits non-containers.
VALUES = st.one_of(
    st.none(), st.integers(-2, 3), st.sampled_from([0.5, 2.0]),
    st.sampled_from(["", "a", "ab"]), st.sampled_from([(1, 2), ("a",), ()]))
OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "in", "contains"])
OPERANDS = st.one_of(
    VALUES.map(Const),
    st.sampled_from(["p", "q", "missing"]).map(Attr),
    st.sampled_from(["x", "y", "unbound"]).map(EventArg))
COMPARES = st.builds(Compare, OPERANDS, OPS, OPERANDS)
PREDICATES = st.recursive(
    st.one_of(COMPARES, st.just(TRUE)),
    lambda inner: st.one_of(
        inner.map(Not),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: And(*ps)),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Or(*ps))),
    max_leaves=8)
ATTRS = st.fixed_dictionaries({}, optional={"p": VALUES, "q": VALUES})
BINDINGS = st.fixed_dictionaries({}, optional={"x": VALUES, "y": VALUES})
KEYS = st.sampled_from([None, 1, 2, "a"])


@settings(max_examples=400, deadline=None)
@given(pred=PREDICATES, attrs=ATTRS, bindings=BINDINGS)
def test_matches_agrees_with_reference(pred, attrs, bindings):
    expected = outcome(lambda: ref_matches(pred, attrs, bindings))
    assert outcome(lambda: pred.matches(attrs, bindings)) == expected
    # bind once, test many: the form the executor and alpha nodes hold
    assert outcome(lambda: pred.bind(bindings)(attrs)) == expected


@settings(max_examples=200, deadline=None)
@given(pred=PREDICATES, bindings=BINDINGS, key=st.one_of(KEYS.map(Const),
       st.sampled_from(["x", "unbound"]).map(EventArg)), flip=st.booleans(),
       rows=st.lists(st.tuples(KEYS, VALUES, VALUES), max_size=6))
def test_executor_agrees_with_reference_on_scan_and_probe(
        pred, bindings, key, flip, rows):
    store = ObjectStore()
    store.define_class(ClassDef("C", (
        AttributeDef("k", AttrType.ANY, indexed=True),
        AttributeDef("p", AttrType.ANY), AttributeDef("q", AttrType.ANY))))
    for k, p, q in rows:
        store.insert("C", {"k": k, "p": p, "q": q})
    lookup = Compare(key, "==", Attr("k")) if flip else Compare(Attr("k"), "==", key)
    query = Query("C", And(lookup, pred))
    records = store.extent("C")

    def expect(candidates):
        return outcome(lambda: sorted(
            record.oid for record in candidates
            if ref_matches(query.predicate, record.attrs, bindings)))

    scan = QueryExecutor(store, use_indexes=False)
    assert scan.plan(query).kind == "scan"
    assert outcome(lambda: sorted(scan.execute(query, bindings).oids())) \
        == expect(records)

    probe = QueryExecutor(store)
    assert probe.plan(query).kind == "index-probe"
    # A probe resolves its key before it looks at any object, and then sees
    # only the objects filed under that key.
    probed = outcome(lambda: ref_value(key, {}, bindings))
    expected = probed if probed == ("unbound",) else expect(
        [r for r in records if ref_matches(lookup, r.attrs, bindings)])
    assert outcome(lambda: sorted(probe.execute(query, bindings).oids())) \
        == expected


def test_unbound_argument_waits_for_the_first_candidate_that_reaches_it():
    pred = And(Attr("p") > 5, Compare(Attr("q"), "==", EventArg("unbound")))
    test = pred.bind({})                       # binding does not raise
    assert test({"p": 1, "q": 1}) is False     # short-circuited: no error
    with pytest.raises(QueryError, match="unbound"):
        test({"p": 9, "q": 1})
    # the executor's equalities-first order must not make the error eager
    store = ObjectStore()
    store.define_class(ClassDef("C", (AttributeDef("p"), AttributeDef("q"))))
    store.insert("C", {"p": 1, "q": 1})
    assert not QueryExecutor(store).execute(Query("C", pred))
    store.insert("C", {"p": 9, "q": 1})
    with pytest.raises(QueryError, match="unbound"):
        QueryExecutor(store).execute(Query("C", pred))


def test_a_rule_fired_100_times_compiles_its_predicate_once(monkeypatch):
    compiled = []

    def counting(original):
        def _compile(self):
            compiled.append(self)
            return original(self)
        return _compile

    for cls in (Compare, And):
        monkeypatch.setattr(cls, "_compile", counting(cls._compile))
    db = HiPAC(lock_timeout=2.0)
    db.define_class(ClassDef("Stock", (
        AttributeDef("sector", AttrType.STRING, default=""),
        AttributeDef("price", AttrType.NUMBER, default=0.0))))
    with db.transaction() as txn:
        oids = [db.create("Stock", {"sector": "s%d" % (i % 2), "price": i}, txn)
                for i in range(6)]
    fired = []
    db.create_rule(Rule(
        name="scan", event=on_update("Stock", attrs=["price"]),
        condition=Condition.of(Query("Stock", And(
            Compare(Attr("sector"), "==", EventArg("new_sector")),
            Attr("price") > EventArg("new_price"), Attr("price") < 100))),
        action=Action.call(lambda ctx: fired.append(len(ctx.results[0])))))
    db.create_rule(Rule(
        name="band", event=on_update("Stock", attrs=["sector"]),
        condition=Condition.of(Query("Stock", And(Attr("price") >= 2,
                                                 Attr("price") < 4))),
        action=Action.call(lambda ctx: None)))

    def fire(n):
        with db.transaction() as txn:
            db.update(oids[0], {"price": 0.5 + n % 2}, txn)

    fire(0)
    after_first = len(compiled)
    assert after_first > 0
    for n in range(1, 100):
        fire(n)
    assert len(fired) == 100
    assert len(compiled) == after_first
    assert len({id(node) for node in compiled}) == len(compiled)
