"""Property-based tests: composite event automata against reference
semantics, and predicate/index equivalences."""

from hypothesis import given, settings, strategies as st

from repro.events.composite import CompositeEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import Conjunction, Disjunction, Sequence, external

NAMES = ["a", "b", "c"]
streams = st.lists(st.sampled_from(NAMES), max_size=30)


def feed(detector, stream):
    seen = []
    detector.sink = seen.extend
    for i, name in enumerate(stream):
        detector.observe(EventSignal(kind="external", name=name, args={},
                                     timestamp=float(i)))
    return seen


class TestDisjunctionSemantics:
    @settings(max_examples=80, deadline=None)
    @given(stream=streams)
    def test_count_equals_member_occurrences(self, stream):
        detector = CompositeEventDetector()
        detector.define_event(Disjunction(external("a"), external("b")))
        seen = feed(detector, stream)
        assert len(seen) == sum(1 for name in stream if name in ("a", "b"))


class TestSequenceSemantics:
    @settings(max_examples=80, deadline=None)
    @given(stream=streams)
    def test_matches_reference_recognizer(self, stream):
        detector = CompositeEventDetector()
        detector.define_event(Sequence(external("a"), external("b")))
        seen = feed(detector, stream)
        # Reference: scan, consume an 'a' then the next 'b'.
        expected = 0
        waiting_for_b = False
        for name in stream:
            if not waiting_for_b and name == "a":
                waiting_for_b = True
            elif waiting_for_b and name == "b":
                expected += 1
                waiting_for_b = False
        assert len(seen) == expected

    @settings(max_examples=80, deadline=None)
    @given(stream=streams)
    def test_constituents_ordered_by_time(self, stream):
        detector = CompositeEventDetector()
        detector.define_event(Sequence(external("a"), external("b"),
                                       external("c")))
        seen = feed(detector, stream)
        for occurrence in seen:
            times = [c.timestamp for c in occurrence.constituents]
            assert times == sorted(times)
            assert [c.name for c in occurrence.constituents] == ["a", "b", "c"]


class TestConjunctionSemantics:
    @settings(max_examples=80, deadline=None)
    @given(stream=streams)
    def test_count_is_min_of_member_counts_interleaved(self, stream):
        detector = CompositeEventDetector()
        detector.define_event(Conjunction(external("a"), external("b")))
        seen = feed(detector, stream)
        # Reference: rounds collect one of each; count completed rounds.
        have = {"a": 0, "b": 0}
        expected = 0
        for name in stream:
            if name in have:
                have[name] += 1
                if have["a"] >= 1 and have["b"] >= 1:
                    expected += 1
                    have = {"a": 0, "b": 0}
        assert len(seen) == expected


class TestPredicateProperties:
    values = st.one_of(st.integers(-50, 50), st.none())

    @settings(max_examples=100, deadline=None)
    @given(value=values, threshold=st.integers(-50, 50))
    def test_negation_partitions_non_null(self, value, threshold):
        from repro.objstore.predicates import Attr, Not
        attrs = {"x": value}
        pred = Attr("x") > threshold
        if value is None:
            # None never satisfies an ordering comparison; Not() therefore does.
            assert not pred.matches(attrs, {})
        else:
            assert pred.matches(attrs, {}) != Not(pred).matches(attrs, {})

    @settings(max_examples=100, deadline=None)
    @given(data=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 5)),
                         max_size=12),
           key=st.sampled_from("abc"), val=st.integers(0, 5))
    def test_index_probe_equals_scan(self, data, key, val):
        from repro.objstore.executor import QueryExecutor
        from repro.objstore.predicates import Attr
        from repro.objstore.query import Query
        from repro.objstore.store import ObjectStore
        from repro.objstore.types import AttrType, AttributeDef, ClassDef
        store = ObjectStore()
        store.define_class(ClassDef("T", (
            AttributeDef("k", AttrType.STRING, indexed=True),
            AttributeDef("v", AttrType.INT),
        )))
        for k, v in data:
            store.insert("T", {"k": k, "v": v})
        query = Query("T", Attr("k") == key)
        fast = QueryExecutor(store, use_indexes=True).execute(query)
        slow = QueryExecutor(store, use_indexes=False).execute(query)
        assert fast.oids() == slow.oids()
