"""The database detectors' route tables and the rule catalog's
subscriptions against a brute-force oracle that trusts neither.

A route answers "which enabled specs can an operation of kind ``op`` on
class ``C`` satisfy?" once, and is reused until the programming or the
schema changes.  The oracle works out who acts on each probe from the
rules the state machine itself created: the specs of its enabled rules,
the members of its composite rules and the baselines of its timers, plus
the rule class's own operations.  It asks :func:`matches_primitive` of
every such spec for every probe, so a route that outlives a change it
should not (a subclass defined or dropped, a rule created, deleted,
enabled or disabled, any of them undone by an abort) shows as a
difference; and each of those specs' subscription must name the model's
rules on it, in firing order, and the model's feeds.

The last tests race programming changes, and enable and disable, against
route building on two threads; the route table must end equal to a fresh
build (the publication order of :mod:`repro.events.database`).
"""

import threading
import time

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from repro import (Action, AttributeDef, ClassDef, Condition, DatabaseEventSpec,
                   Disjunction, EventSignal, HiPAC, Rule, SchemaError, Sequence)
from repro.events.database import DatabaseEventDetector
from repro.events.detectors import SubscriptionIndex
from repro.events.matching import matches_primitive
from repro.events.spec import after
from repro.objstore.types import Schema
from repro.rules.rule import RULE_CLASS

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


def check_against_oracle(detector, schema, class_names, watched):
    """Every probe delivers exactly the ``watched`` specs it satisfies, and
    ``observe`` names them."""
    sink = detector.sink
    delivered = []
    detector.sink = delivered.extend
    try:
        for signal in probes(class_names):
            expected = sorted(repr(spec) for spec in watched
                              if matches_primitive(spec, signal, schema))
            delivered.clear()
            matched = detector.observe(signal)
            described = "%s on %s" % (signal.describe(), sorted(
                signal.changed_attrs()))
            assert sorted(map(repr, matched)) == expected, described
            assert sorted(repr(s.spec) for s in delivered) == expected, \
                described
            if detector.relevant(signal.op, signal.class_name) is None:
                # A route the pre-check calls empty has no spec whatever
                # attributes change.
                assert not [spec for spec in watched
                            if spec.op == signal.op and matches_primitive(
                                spec, _all_changed(signal), schema)], described
    finally:
        detector.sink = sink


def _all_changed(signal):
    return EventSignal(kind="database", op=signal.op,
                       class_name=signal.class_name,
                       old_attrs={a: 0 for a in ATTRS},
                       new_attrs={a: 1 for a in ATTRS})


def model_subscriptions(rules, feeds):
    """Who acts on what, worked out from the rules the machine created
    (``rules``: name -> ``(event, enabled, priority)``): spec -> (rule
    names in firing order, feeds in ``feeds`` order)."""
    baseline, automata, rule_object = feeds
    wanted = {DatabaseEventSpec(op, RULE_CLASS): {rule_object}
              for op in ("create", "update", "delete")}
    enabled = {}
    for name, (event, on, priority) in rules.items():
        if on:
            enabled.setdefault(event, []).append((-priority, name))
        if event.is_composite():
            for member in event.primitives():
                wanted.setdefault(member, set()).add(automata)
        elif getattr(event, "baseline", None) is not None:
            wanted.setdefault(event.baseline, set()).add(baseline)
    return {spec: ([name for _, name in sorted(enabled.get(spec, ()))],
                   tuple(feed for feed in feeds
                         if feed in wanted.get(spec, ())))
            for spec in {*enabled, *wanted}}


class RouteMachine(RuleBasedStateMachine):
    """Schema and rule changes, each committed or aborted, with operations
    between them and the oracle after every step."""

    @initialize()
    def start(self):
        self.db = HiPAC(lock_timeout=2.0)
        self.db.define_class(ClassDef("A", tuple(map(AttributeDef, ATTRS))))
        self.db.define_class(ClassDef("B", (), superclass="A"))
        self.db.define_class(ClassDef("C", (), superclass="B"))
        #: name -> (event, enabled, priority), as committed
        self.rules = {}
        self.seq = 0
        # Watchers on the ancestors from the start: most schema steps then
        # move some route.
        self.create_rule(DatabaseEventSpec("create", "A"), 0, True)
        self.create_rule(DatabaseEventSpec("update", "B", frozenset({"x"}),
                                           include_subclasses=False), 0, True)

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

    @rule(event=event_specs(), priority=st.integers(0, 2),
          commit=st.booleans())
    def create_rule(self, event, priority, commit):
        self.seq += 1
        name = "r%d" % self.seq
        txn = self.db.begin()
        self.db.create_rule(Rule(name=name, event=event, priority=priority,
                                 condition=Condition.true(),
                                 action=Action.call(lambda ctx: None)), txn)
        self._finish(txn, commit)
        if commit:
            self.rules[name] = (event, True, priority)

    @rule(first=event_specs(), second=event_specs(), ordered=st.booleans(),
          priority=st.integers(0, 2), commit=st.booleans())
    def create_composite_rule(self, first, second, ordered, priority, commit):
        operator = Sequence if ordered else Disjunction
        self.create_rule(operator(first, second), priority, commit)

    @rule(baseline=event_specs(), priority=st.integers(0, 2),
          commit=st.booleans())
    def create_timer_rule(self, baseline, priority, commit):
        self.create_rule(after(baseline, 1.0), priority, commit)

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
        if commit:
            event, _, priority = self.rules[name]
            self.rules[name] = (event, enable, priority)

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
    def routes_and_subscriptions_match_the_model(self):
        if not hasattr(self, "db"):
            return
        catalog = self.db.rule_catalog
        model = model_subscriptions(self.rules, catalog.feeds)
        assert {spec: ([rule.name for rule in rules], feeds)
                for spec, (rules, feeds) in catalog.subscriptions.items()
                } == model
        # Classes not (or no longer) defined are probed too: their routes
        # reach only their exact buckets until a definition changes that.
        schema = self.db.store.schema
        names = set(schema.class_names()) | set(CLASSES)
        database = [spec for spec in model
                    if isinstance(spec, DatabaseEventSpec)]
        for detector, watched in (
                (self.db.object_manager.event_detector,
                 [spec for spec in database if spec.op not in TXN_OPS]),
                (self.db.rule_manager.txn_detector,
                 [spec for spec in database if spec.op in TXN_OPS])):
            check_against_oracle(detector, schema, sorted(names), watched)


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
    detector = DatabaseEventDetector(schema, sink=lambda signals: None)
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


def test_routes_equal_a_fresh_build_after_racing_enable_and_disable():
    """A prober keeps building routes while another thread disables every
    spec and enables some again; the index updates are slow, so probes
    land inside every change.  Afterwards every route equals a fresh build
    and holds exactly the enabled specs."""
    schema = Schema()
    schema.define_class(ClassDef("Sec", (AttributeDef("price"),)))
    schema.define_class(ClassDef("Stock", (), superclass="Sec"))
    detector = DatabaseEventDetector(schema, sink=lambda signals: None)
    detector._index = _SlowIndex()
    specs = [DatabaseEventSpec("update", "Sec"),
             DatabaseEventSpec("update", "Stock", frozenset({"price"})),
             DatabaseEventSpec("update", None),
             DatabaseEventSpec("create", "Sec", include_subclasses=False)]
    for spec in specs:
        detector.define_event(spec)
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
                detector.disable_event(spec)
            for spec in kept:
                detector.enable_event(spec)
        finally:
            stop.set()
            prober.join()
            stop.clear()
        routes = detector._routes
        assert {key: routes[key] for key in keys} == {
            key: detector._build(*key) for key in keys}, round_
        routed = {spec for key in keys if routes[key] is not None
                  for spec in (*routes[key][0],
                               *(spec for spec, _ in routes[key][1]))}
        assert routed == set(kept), round_
