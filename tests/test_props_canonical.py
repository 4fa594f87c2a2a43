"""Property-based tests: structural canonicalization of predicates and
queries — the foundation of condition-graph sharing."""

from hypothesis import given, settings, strategies as st

from repro.objstore.predicates import And, Attr, Compare, Const, Not, Or
from repro.objstore.query import Query

ATTRS = ["a", "b", "c"]
OPS = ["==", "!=", "<", "<=", ">", ">="]


@st.composite
def predicates(draw, depth=0):
    """Random predicate trees up to depth 3."""
    if depth >= 3 or draw(st.booleans()):
        attr = draw(st.sampled_from(ATTRS))
        op = draw(st.sampled_from(OPS))
        value = draw(st.integers(-5, 5))
        return Compare(Attr(attr), op, Const(value))
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return Not(draw(predicates(depth=depth + 1)))
    left = draw(predicates(depth=depth + 1))
    right = draw(predicates(depth=depth + 1))
    if kind == "and":
        return And(left, right)
    return Or(left, right)


objects = st.dictionaries(st.sampled_from(ATTRS), st.integers(-6, 6),
                          min_size=0, max_size=3)


class TestCanonicalKeys:
    @settings(max_examples=150, deadline=None)
    @given(pred=predicates())
    def test_key_is_hashable_and_stable(self, pred):
        assert hash(pred.canonical_key()) == hash(pred.canonical_key())
        assert pred == pred

    @settings(max_examples=150, deadline=None)
    @given(left=predicates(), right=predicates())
    def test_commutative_connectives_share_keys(self, left, right):
        assert And(left, right) == And(right, left)
        assert Or(left, right) == Or(right, left)

    @settings(max_examples=150, deadline=None)
    @given(left=predicates(), right=predicates(), obj=objects)
    def test_equal_keys_imply_equal_semantics(self, left, right, obj):
        """Structural sharing is only sound if key equality implies
        pointwise equivalence."""
        if left.canonical_key() == right.canonical_key():
            assert left.matches(obj, {}) == right.matches(obj, {})

    @settings(max_examples=150, deadline=None)
    @given(pred=predicates(), obj=objects)
    def test_demorgan_consistency(self, pred, obj):
        assert Not(pred).matches(obj, {}) != pred.matches(obj, {})

    @settings(max_examples=100, deadline=None)
    @given(pred=predicates())
    def test_query_key_round_trip(self, pred):
        q1 = Query("C", pred)
        q2 = Query("C", pred)
        assert q1.canonical_key() == q2.canonical_key()
        assert Query("D", pred).canonical_key() != q1.canonical_key()

    def test_parts_of_mixed_types_sort_under_a_total_order(self):
        """Regression: the part keys of ``x == 5`` and ``x == "a"`` differ
        in an int against a str, which a plain sort cannot order."""
        one = And(Compare(Attr("x"), "==", Const(5)),
                  Compare(Attr("x"), "==", Const("a")),
                  Compare(Attr("x"), "==", Const(None)))
        other = And(Compare(Attr("x"), "==", Const(None)),
                    Compare(Attr("x"), "==", Const("a")),
                    Compare(Attr("x"), "==", Const(5)))
        assert one.canonical_key() == other.canonical_key()
        assert one == other and hash(one) == hash(other)
        assert Or(*one.parts) == Or(*other.parts) != one
