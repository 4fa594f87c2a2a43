"""Tests for the detector base protocol and the database/external detectors."""

import pytest

from repro.errors import EventError
from repro.events.database import DatabaseEventDetector
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import external, on_create, on_update
from repro.objstore.types import AttributeDef, ClassDef, Schema


def make_schema():
    schema = Schema()
    schema.define_class(ClassDef("Sec", (AttributeDef("price"),)))
    schema.define_class(ClassDef("Stock", (AttributeDef("symbol"),),
                                 superclass="Sec"))
    return schema


class TestDetectorProtocol:
    def test_define_refcounts(self):
        detector = DatabaseEventDetector(make_schema())
        spec = on_create("Stock")
        detector.define_event(spec)
        detector.define_event(spec)
        detector.delete_event(spec)
        assert detector.is_defined(spec)
        detector.delete_event(spec)
        assert not detector.is_defined(spec)

    def test_delete_undefined_raises(self):
        detector = DatabaseEventDetector(make_schema())
        with pytest.raises(EventError):
            detector.delete_event(on_create("Stock"))

    def test_enable_disable(self):
        detector = DatabaseEventDetector(make_schema())
        spec = on_create("Stock")
        detector.define_event(spec)
        assert detector.is_enabled(spec)
        detector.disable_event(spec)
        assert not detector.is_enabled(spec)
        detector.enable_event(spec)
        assert detector.is_enabled(spec)

    def test_enable_undefined_raises(self):
        detector = DatabaseEventDetector(make_schema())
        with pytest.raises(EventError):
            detector.enable_event(on_create("Stock"))

    def test_wrong_spec_type_rejected(self):
        detector = DatabaseEventDetector(make_schema())
        with pytest.raises(EventError):
            detector.define_event(external("e"))


class TestDatabaseDetector:
    def make(self):
        detector = DatabaseEventDetector(make_schema())
        seen = []
        detector.sink = seen.extend
        return detector, seen

    def signal(self, op="create", class_name="Stock", old=None, new=None):
        return EventSignal(kind="database", op=op, class_name=class_name,
                           old_attrs=old, new_attrs=new)

    def test_matching_spec_reported(self):
        detector, seen = self.make()
        detector.define_event(on_create("Stock"))
        matched = detector.observe(self.signal())
        assert len(matched) == 1
        assert len(seen) == 1
        assert seen[0].spec == on_create("Stock")

    def test_unprogrammed_not_reported(self):
        detector, seen = self.make()
        detector.observe(self.signal())
        assert seen == []

    def test_class_wildcard(self):
        detector, seen = self.make()
        detector.define_event(on_create(None))
        detector.observe(self.signal(class_name="Stock"))
        detector.observe(self.signal(class_name="Sec"))
        assert len(seen) == 2

    def test_subclass_matching(self):
        detector, seen = self.make()
        detector.define_event(on_create("Sec"))
        detector.observe(self.signal(class_name="Stock"))
        assert len(seen) == 1

    def test_subclass_matching_disabled(self):
        detector, seen = self.make()
        detector.define_event(on_create("Sec", include_subclasses=False))
        detector.observe(self.signal(class_name="Stock"))
        assert seen == []

    def test_attr_scoping_requires_change(self):
        detector, seen = self.make()
        detector.define_event(on_update("Stock", attrs=["price"]))
        detector.observe(self.signal(
            op="update", old={"price": 1, "symbol": "A"},
            new={"price": 1, "symbol": "B"}))
        assert seen == []
        detector.observe(self.signal(
            op="update", old={"price": 1}, new={"price": 2}))
        assert len(seen) == 1

    def test_multiple_specs_reported_each(self):
        detector, seen = self.make()
        detector.define_event(on_create("Stock"))
        detector.define_event(on_create("Sec"))
        matched = detector.observe(self.signal(class_name="Stock"))
        assert len(matched) == 2
        assert len(seen) == 2
        assert {s.spec for s in seen} == {on_create("Stock"), on_create("Sec")}

    def test_disabled_spec_suppressed(self):
        """A disabled spec leaves the routes: the operation finds no route
        at all, and re-enabling routes it again."""
        detector, seen = self.make()
        detector.define_event(on_create("Stock"))
        detector.disable_event(on_create("Stock"))
        detector.observe(self.signal())
        assert seen == []
        assert detector.relevant("create", "Stock") is None
        assert detector.stats["fast_path"] == 1
        detector.enable_event(on_create("Stock"))
        detector.observe(self.signal())
        assert [s.spec for s in seen] == [on_create("Stock")]


class TestExternalDetector:
    def test_signal_requires_definition(self):
        detector = ExternalEventDetector()
        with pytest.raises(EventError):
            detector.signal("nope")

    def test_signal_validates_arguments(self):
        detector = ExternalEventDetector()
        detector.define_event(external("trade", "symbol", "shares"))
        with pytest.raises(EventError):
            detector.signal("trade", {"symbol": "X"})
        with pytest.raises(EventError):
            detector.signal("trade", {"symbol": "X", "shares": 1, "extra": 2})

    def test_signal_delivers_bindings(self):
        detector = ExternalEventDetector()
        seen = []
        detector.sink = seen.extend
        detector.define_event(external("trade", "symbol"))
        detector.signal("trade", {"symbol": "X"}, timestamp=4.0)
        assert seen[0].bindings()["symbol"] == "X"
        assert seen[0].timestamp == 4.0

    def test_conflicting_redefinition_rejected(self):
        detector = ExternalEventDetector()
        detector.define_event(external("e", "a"))
        with pytest.raises(EventError):
            detector.define_event(external("e", "b"))

    def test_lookup(self):
        detector = ExternalEventDetector()
        spec = external("e", "a")
        detector.define_event(spec)
        assert detector.lookup("e") == spec
        with pytest.raises(EventError):
            detector.lookup("other")
