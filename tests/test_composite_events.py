"""Tests for composite event detection (disjunction, sequence, conjunction)."""

import pytest

from repro.events.composite import CompositeEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import (
    Conjunction,
    Disjunction,
    Sequence,
    external,
    on_create,
)


def ext_signal(name, t=0.0, **args):
    return EventSignal(kind="external", name=name, args=args, timestamp=t)


def make_detector():
    detector = CompositeEventDetector()
    seen = []
    detector.sink = seen.extend
    return detector, seen


class TestDisjunction:
    def test_either_member_fires(self):
        detector, seen = make_detector()
        detector.define_event(Disjunction(external("a"), external("b")))
        detector.observe(ext_signal("a"))
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("c"))
        assert len(seen) == 2
        assert all(s.kind == "composite" for s in seen)

    def test_constituents_recorded(self):
        detector, seen = make_detector()
        detector.define_event(Disjunction(external("a"), external("b")))
        detector.observe(ext_signal("a", x=1))
        assert seen[0].constituents[0].name == "a"


class TestSequence:
    def test_in_order_recognized(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b")))
        detector.observe(ext_signal("a", t=1.0))
        assert seen == []
        detector.observe(ext_signal("b", t=2.0))
        assert len(seen) == 1
        assert seen[0].timestamp == 2.0
        assert [c.name for c in seen[0].constituents] == ["a", "b"]

    def test_out_of_order_not_recognized(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b")))
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("a"))
        assert seen == []
        detector.observe(ext_signal("b"))
        assert len(seen) == 1

    def test_occurrences_consumed(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b")))
        detector.observe(ext_signal("a"))
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("b"))  # no pending 'a'
        assert len(seen) == 1

    def test_three_step_sequence(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b"), external("c")))
        for name in ["a", "b", "a", "c"]:
            detector.observe(ext_signal(name))
        assert len(seen) == 1  # the stray 'a' is ignored mid-sequence

    def test_bindings_merge_across_constituents(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b")))
        detector.observe(ext_signal("a", x=1))
        detector.observe(ext_signal("b", y=2))
        bindings = seen[0].bindings()
        assert bindings["x"] == 1 and bindings["y"] == 2


class TestConjunction:
    def test_any_order_recognized(self):
        detector, seen = make_detector()
        detector.define_event(Conjunction(external("a"), external("b")))
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("a"))
        assert len(seen) == 1

    def test_resets_after_firing(self):
        detector, seen = make_detector()
        detector.define_event(Conjunction(external("a"), external("b")))
        detector.observe(ext_signal("a"))
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("a"))
        assert len(seen) == 1
        detector.observe(ext_signal("b"))
        assert len(seen) == 2


class TestNesting:
    def test_sequence_of_disjunction(self):
        detector, seen = make_detector()
        spec = Sequence(Disjunction(external("a"), external("b")), external("c"))
        detector.define_event(spec)
        detector.observe(ext_signal("b"))
        detector.observe(ext_signal("c"))
        assert len(seen) == 1

    def test_composite_signals_do_not_feed_automata(self):
        detector, seen = make_detector()
        detector.define_event(Disjunction(external("a"), external("b")))
        composite = EventSignal(kind="composite", constituents=())
        assert detector.observe(composite) == []

    def test_database_members(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(on_create("A"), on_create("B")))
        detector.observe(EventSignal(kind="database", op="create", class_name="A"))
        detector.observe(EventSignal(kind="database", op="create", class_name="B"))
        assert len(seen) == 1

    def test_reset_clears_partial_state(self):
        detector, seen = make_detector()
        detector.define_event(Sequence(external("a"), external("b")))
        detector.observe(ext_signal("a"))
        detector.reset()
        detector.observe(ext_signal("b"))
        assert seen == []

    def test_delete_removes_automaton(self):
        detector, seen = make_detector()
        spec = Disjunction(external("a"), external("b"))
        detector.define_event(spec)
        detector.delete_event(spec)
        detector.observe(ext_signal("a"))
        assert seen == []


class TestDerivation:
    def test_derive_from_condition_queries(self):
        from repro.events.derivation import derive_event_spec
        from repro.objstore.predicates import Attr
        from repro.objstore.query import Query
        spec = derive_event_spec([Query("Stock", Attr("price") > 5)])
        assert spec.is_composite()
        keys = {m.op for m in spec.members}
        assert keys == {"create", "delete", "update"}
        update = [m for m in spec.members if m.op == "update"][0]
        assert update.attrs == {"price"}

    def test_derive_deduplicates(self):
        from repro.events.derivation import derive_event_spec
        from repro.objstore.predicates import Attr
        from repro.objstore.query import Query
        queries = [Query("S", Attr("p") > 1), Query("S", Attr("p") > 2)]
        spec = derive_event_spec(queries)
        assert len(spec.members) == 3

    def test_derive_empty_condition_rejected(self):
        from repro.errors import ConditionError
        from repro.events.derivation import derive_event_spec
        with pytest.raises(ConditionError):
            derive_event_spec([])
