"""The database detectors' route tables against a brute-force oracle.

A route answers "which programmed specs can an operation of kind ``op`` on
class ``C`` satisfy?" once, and is reused until the programming or the
schema changes.  The oracle here asks :func:`matches_primitive` of *every*
programmed spec for every probe, so a route that outlives a change it
should not (a subclass defined or dropped, an event defined or deleted,
any of them undone by an abort) shows as a difference.

The second test races programming changes against route building on two
threads; the route table must end equal to a fresh build (the publication
order of :mod:`repro.events.database`).
"""

import threading
import time

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro import (Action, AttributeDef, ClassDef, Condition, DatabaseEventSpec,
                   EventSignal, HiPAC, Rule, SchemaError)
from repro.events.database import DatabaseEventDetector
from repro.events.detectors import SubscriptionIndex
from repro.events.matching import matches_primitive
from repro.objstore.types import Schema

ATTRS = ("x", "y", "z")
CLASSES = ("A", "B", "C", "D")
DB_OPS = ("create", "update", "delete", "read", "query", "define-class",
          "drop-class")
TXN_OPS = ("begin", "commit", "abort")

attr_sets = st.sets(st.sampled_from(ATTRS), min_size=1, max_size=2)


@st.composite
def event_specs(draw):
    if draw(st.integers(0, 7)) == 0:
        return DatabaseEventSpec(draw(st.sampled_from(TXN_OPS)))
    op = draw(st.sampled_from(DB_OPS))
    class_name = draw(st.sampled_from((None,) + CLASSES))
    attrs = None
    if op == "update" and draw(st.booleans()):
        attrs = frozenset(draw(attr_sets))
    return DatabaseEventSpec(op, class_name, attrs,
                             include_subclasses=draw(st.booleans()))


def probes(class_names):
    """One signal per (op, class or None, changed attributes) worth asking."""
    changes = [(), ("x",), ("y", "z"), ATTRS]
    for op in DB_OPS:
        for class_name in (None,) + tuple(class_names):
            for changed in (changes if op == "update" else [()]):
                yield EventSignal(kind="database", op=op, class_name=class_name,
                                  old_attrs={a: 0 for a in changed},
                                  new_attrs={a: 1 for a in changed})
    for op in TXN_OPS:
        yield EventSignal(kind="database", op=op)


def check_against_oracle(detector, schema, class_names):
    """Every probe's delivered specs equal the brute-force scan's enabled
    matches, and ``observe`` names all its matches, disabled ones too."""
    sink, sink_batch = detector.sink, detector.sink_batch
    delivered = []
    detector.sink, detector.sink_batch = None, delivered.extend
    try:
        for signal in probes(class_names):
            programmed = detector.registered_specs()
            expected = [spec for spec in programmed
                        if matches_primitive(spec, signal, schema)]
            delivered.clear()
            matched = detector.observe(signal)
            described = "%s on %s" % (signal.describe(), sorted(
                signal.changed_attrs()))
            assert sorted(map(repr, matched)) == sorted(map(repr, expected)), \
                described
            assert len(set(matched)) == len(matched), described
            assert sorted(repr(s.spec) for s in delivered) == sorted(
                repr(spec) for spec in expected
                if detector.is_enabled(spec)), described
            if not detector.relevant(signal.op, signal.class_name):
                # A route the pre-check calls empty has no spec whatever
                # attributes change.
                assert not [spec for spec in programmed
                            if spec.op == signal.op and matches_primitive(
                                spec, _all_changed(signal), schema)], described
    finally:
        detector.sink, detector.sink_batch = sink, sink_batch


def _all_changed(signal):
    return EventSignal(kind="database", op=signal.op,
                       class_name=signal.class_name,
                       old_attrs={a: 0 for a in ATTRS},
                       new_attrs={a: 1 for a in ATTRS})


class RouteMachine(RuleBasedStateMachine):
    """Schema and programming changes, each committed or aborted, with
    operations between them and the oracle after every step."""

    @initialize()
    def start(self):
        self.db = HiPAC(lock_timeout=2.0)
        self.db.define_class(ClassDef("A", tuple(map(AttributeDef, ATTRS))))
        self.db.define_class(ClassDef("B", (), superclass="A"))
        self.db.define_class(ClassDef("C", (), superclass="B"))
        self.rules = {}
        self.seq = 0
        # Watchers on the ancestors from the start: most schema steps then
        # move some route.
        self.create_rule(DatabaseEventSpec("create", "A"), True)
        self.create_rule(DatabaseEventSpec("update", "B", frozenset({"x"}),
                                           include_subclasses=False), True)

    def teardown(self):
        self.db.close()

    def _finish(self, txn, commit):
        if commit:
            self.db.commit(txn)
        else:
            self.db.abort(txn)

    @rule(name=st.sampled_from(CLASSES), data=st.data(), commit=st.booleans())
    def define_class(self, name, data, commit):
        schema = self.db.store.schema
        if schema.has(name):
            return
        superclass = data.draw(st.sampled_from(
            [None] + [c for c in schema.class_names() if c in CLASSES]),
            label="superclass")
        attrs = () if superclass else tuple(map(AttributeDef, ATTRS))
        txn = self.db.begin()
        self.db.define_class(ClassDef(name, attrs, superclass=superclass), txn)
        self._finish(txn, commit)

    @rule(name=st.sampled_from(CLASSES), commit=st.booleans())
    def drop_class(self, name, commit):
        if not self.db.store.schema.has(name):
            return
        txn = self.db.begin()
        try:
            self.db.drop_class(name, txn)
        except SchemaError:  # it has a subclass
            self.db.abort(txn)
            return
        self._finish(txn, commit)

    @rule(spec=event_specs(), commit=st.booleans())
    def create_rule(self, spec, commit):
        self.seq += 1
        name = "r%d" % self.seq
        txn = self.db.begin()
        self.db.create_rule(Rule(name=name, event=spec,
                                 condition=Condition.true(),
                                 action=Action.call(lambda ctx: None)), txn)
        self._finish(txn, commit)
        if commit:
            self.rules[name] = spec

    @precondition(lambda self: self.rules)
    @rule(data=st.data(), commit=st.booleans())
    def delete_rule(self, data, commit):
        name = data.draw(st.sampled_from(sorted(self.rules)))
        txn = self.db.begin()
        self.db.delete_rule(name, txn)
        self._finish(txn, commit)
        if commit:
            del self.rules[name]

    @precondition(lambda self: self.rules)
    @rule(data=st.data(), enable=st.booleans(), commit=st.booleans())
    def toggle_rule(self, data, enable, commit):
        name = data.draw(st.sampled_from(sorted(self.rules)))
        txn = self.db.begin()
        if enable:
            self.db.enable_rule(name, txn)
        else:
            self.db.disable_rule(name, txn)
        self._finish(txn, commit)

    @rule(name=st.sampled_from(CLASSES), changed=attr_sets,
          commit=st.booleans())
    def operate(self, name, changed, commit):
        """Create, update, read and delete one object: routes are built
        lazily by real operations too, and the extent stays droppable."""
        if not self.db.store.schema.has(name):
            return
        txn = self.db.begin()
        oid = self.db.create(name, {}, txn)
        self.db.update(oid, {a: 1 for a in changed}, txn)
        self.db.read(oid, txn)
        self.db.delete(oid, txn)
        self._finish(txn, commit)

    @invariant()
    def routes_match_the_oracle(self):
        if not hasattr(self, "db"):
            return
        # Classes not (or no longer) defined are probed too: their routes
        # reach only their exact buckets until a definition changes that.
        schema = self.db.store.schema
        names = set(schema.class_names()) | set(CLASSES)
        for detector in (self.db.object_manager.event_detector,
                         self.db.rule_manager.txn_detector):
            check_against_oracle(detector, schema, sorted(names))


RouteMachine.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=30,
                                          deadline=None)
TestRoutes = RouteMachine.TestCase


def test_wildcard_attribute_scope_needs_a_changed_attribute():
    """A class-wildcard update spec scoped to ``x`` matches an update of
    any class only when ``x`` changed (the route oracle found
    :func:`matches_primitive` accepting every update)."""
    spec = DatabaseEventSpec("update", None, frozenset({"x"}))

    def update(attr):
        return EventSignal(kind="database", op="update", class_name="A",
                           old_attrs={attr: 0}, new_attrs={attr: 1})
    assert not matches_primitive(spec, update("y"))
    assert matches_primitive(spec, update("x"))


# ------------------------------------------------------- publication order

class _SlowIndex(SubscriptionIndex):
    """A spec index whose updates take a while to land: a route built
    meanwhile reads the old buckets."""

    def add(self, key, spec):
        time.sleep(0.001)
        super().add(key, spec)

    def discard(self, key, spec):
        time.sleep(0.001)
        super().discard(key, spec)


def test_routes_equal_a_fresh_build_after_racing_programming():
    """A prober keeps building routes while another thread defines and
    deletes events; the index updates are slow, so probes land inside
    every programming change.  Afterwards no route may reflect the
    programming as it was before the last change."""
    schema = Schema()
    schema.define_class(ClassDef("Sec", (AttributeDef("price"),)))
    schema.define_class(ClassDef("Stock", (), superclass="Sec"))
    detector = DatabaseEventDetector(schema, sink=lambda signal: None)
    detector._index = _SlowIndex()
    specs = [DatabaseEventSpec("update", "Sec"),
             DatabaseEventSpec("update", "Stock", frozenset({"price"})),
             DatabaseEventSpec("update", None),
             DatabaseEventSpec("create", "Sec", include_subclasses=False)]
    keys = [(op, name) for op in ("update", "create")
            for name in ("Sec", "Stock", None)]
    stop = threading.Event()

    def probe():
        while not stop.is_set():
            for key in keys:
                detector.relevant(*key)

    for round_ in range(24):
        kept = specs[round_ % len(specs):]
        prober = threading.Thread(target=probe)
        prober.start()
        try:
            for spec in specs:
                detector.define_event(spec)
            for spec in specs:
                if spec not in kept:
                    detector.delete_event(spec)
        finally:
            stop.set()
            prober.join()
            stop.clear()
        routes = detector._routes
        assert {key: routes[key] for key in keys} == {
            key: detector._build(*key) for key in keys}, round_
        for spec in kept:
            detector.delete_event(spec)
