"""Tests for the indexed event-dispatch layer (ISSUE 1 tentpole).

Covers the database detector's discrimination index (wildcard, lineage,
attribute sub-index, fast paths), the spec-tag aliasing regression, indexed
vs. linear equivalence on randomized workloads, schema-cache invalidation
under DDL (including transaction undo), the subscription gating of the
composite/temporal feeds, and the batched union firing protocol.

Linear dispatch — signal every operation, scan every programmed spec, feed
every signal to the composite and temporal detectors — is what the index
and the subscriptions replaced.  The engine no longer has it; it lives here
as the oracle the indexed path is compared against (:func:`linear_matches`,
:func:`install_linear_dispatch`, :func:`feed_everything`;
``make_detector(indexed=False)`` and ``make_db(indexed=False)`` build on
it).
"""

import copy
import random

import pytest

from repro import (
    Action,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    Sequence,
    attributes,
    external,
    on_create,
    on_update,
)
from repro.events import database
from repro.events.database import DatabaseEventDetector
from repro.events.matching import matches_primitive
from repro.events.signal import EventSignal
from repro.events.spec import DatabaseEventSpec, after
from repro.objstore.types import Schema
from repro.rules.rule import RULE_CLASS


def make_schema():
    schema = Schema()
    schema.define_class(ClassDef("Sec", (AttributeDef("price"),
                                         AttributeDef("volume"))))
    schema.define_class(ClassDef("Stock", (AttributeDef("symbol"),),
                                 superclass="Sec"))
    schema.define_class(ClassDef("Bond", (AttributeDef("coupon"),),
                                 superclass="Sec"))
    schema.define_class(ClassDef("Other", (AttributeDef("x"),)))
    return schema


def linear_matches(detector, signal, schema):
    """The oracle: every programmed spec the signal satisfies."""
    return [spec for spec in detector.registered_specs()
            if matches_primitive(spec, signal, schema)]


def install_linear_dispatch(detector, schema):
    """Route ``detector`` through the oracle: no pre-check, no index."""
    def observe(signal, route=None):
        matched = linear_matches(detector, signal, schema)
        detector.report_batch([(spec, copy.copy(signal)) for spec in matched])
        return matched

    detector.relevant = lambda op, class_name: True
    detector.observe = observe


def feed_everything(db):
    """Feeds without subscriptions: every signal that reaches the Rule
    Manager goes to every baseline and every automaton (and then, on a
    rule object, to rule management), whatever spec it was reported for.
    The engine's own feeds become no-ops that still count as subscribers,
    so the detectors keep reporting what some feed wants."""
    catalog, manager = db.rule_catalog, db.rule_manager
    baseline, automata, on_rule_object = catalog.feeds
    catalog.feeds = (lambda signal: None, lambda signal: None,
                     lambda signal: None)
    with catalog._mutex:
        catalog._rebuild()
    signal_event_batch = manager.signal_event_batch

    def fed(signals):
        base = signals[0]
        baseline(base)
        automata(base)
        if base.kind == "database" and base.class_name == RULE_CLASS:
            on_rule_object(base)
        signal_event_batch(signals)
    manager.signal_event_batch = fed
    for detector in (db.object_manager.event_detector,
                     manager.txn_detector, db.temporal_detector,
                     db.external_detector, db.composite_detector):
        detector.sink = fed


def make_db(indexed=True, **kwargs):
    """A HiPAC; with ``indexed=False`` its event routing is the oracle's."""
    db = HiPAC(**kwargs)
    if not indexed:
        for detector in (db.object_manager.event_detector,
                         db.rule_manager.txn_detector):
            install_linear_dispatch(detector, db.store.schema)
        feed_everything(db)
    return db


def make_detector(indexed=True):
    schema = make_schema()
    detector = DatabaseEventDetector(schema)
    if not indexed:
        install_linear_dispatch(detector, schema)
    seen = []
    detector.sink = seen.extend
    return detector, seen


def db_signal(op="create", class_name="Stock", old=None, new=None):
    return EventSignal(kind="database", op=op, class_name=class_name,
                       old_attrs=old, new_attrs=new)


class TestDiscriminationIndex:
    def test_unprogrammed_op_is_fast_path(self):
        detector, seen = make_detector()
        detector.define_event(on_create("Stock"))
        detector.observe(db_signal(op="delete"))
        assert seen == []
        assert detector.stats["fast_path"] == 1

    def test_wildcard_bucket_matches_any_class(self):
        detector, seen = make_detector()
        detector.define_event(on_create(None))
        detector.observe(db_signal(class_name="Stock"))
        detector.observe(db_signal(class_name="Other"))
        assert len(seen) == 2

    def test_lineage_probe_finds_ancestor_scoped_spec(self):
        detector, seen = make_detector()
        detector.define_event(on_create("Sec"))
        detector.observe(db_signal(class_name="Stock"))
        assert len(seen) == 1
        assert detector.stats["index_hits"] == 1

    def test_exact_scoped_spec_rejects_subclass(self):
        detector, seen = make_detector()
        detector.define_event(on_create("Sec", include_subclasses=False))
        detector.observe(db_signal(class_name="Stock"))
        assert seen == []
        detector.observe(db_signal(class_name="Sec"))
        assert len(seen) == 1

    def test_attr_subindex_requires_changed_attr(self):
        detector, seen = make_detector()
        detector.define_event(on_update("Stock", attrs=["price"]))
        detector.observe(db_signal(op="update", old={"symbol": "A"},
                                   new={"symbol": "B"}))
        assert seen == []
        detector.observe(db_signal(op="update", old={"price": 1},
                                   new={"price": 2}))
        assert len(seen) == 1

    def test_attr_subindex_reports_spec_once_for_multiple_attrs(self):
        detector, seen = make_detector()
        detector.define_event(on_update("Stock", attrs=["price", "volume"]))
        detector.observe(db_signal(op="update",
                                   old={"price": 1, "volume": 10},
                                   new={"price": 2, "volume": 20}))
        assert len(seen) == 1  # both probe keys hit the same spec: one report

    def test_attr_scoped_spec_on_ancestor_matches_subclass_update(self):
        detector, seen = make_detector()
        detector.define_event(on_update("Sec", attrs=["price"]))
        detector.observe(db_signal(op="update", class_name="Stock",
                                   old={"price": 1}, new={"price": 2}))
        assert len(seen) == 1

    def test_unknown_class_probes_exact_bucket_only(self):
        # e.g. the drop-class signal: the class is already gone from the
        # schema, so only exact-scoped specs can match (same as linear).
        detector, seen = make_detector()
        detector.define_event(DatabaseEventSpec("drop-class", "Ghost"))
        detector.observe(db_signal(op="drop-class", class_name="Ghost"))
        assert len(seen) == 1

    def test_delete_event_removes_index_entries(self):
        detector, seen = make_detector()
        spec = on_update("Stock", attrs=["price"])
        detector.define_event(spec)
        detector.delete_event(spec)
        detector.observe(db_signal(op="update", old={"price": 1},
                                   new={"price": 2}))
        assert seen == []
        assert not detector.relevant("update", "Stock")

    def test_relevant_pre_check(self):
        detector, _ = make_detector()
        detector.define_event(on_update("Sec", attrs=["price"]))
        detector.define_event(on_create("Other"))
        assert detector.relevant("update", "Stock")   # via lineage + attrs
        assert detector.relevant("create", "Other")
        assert not detector.relevant("create", "Stock")
        assert not detector.relevant("delete", "Stock")
        assert not detector.relevant("update", "Other")

    def test_relevant_is_always_true_when_unindexed(self):
        detector, _ = make_detector(indexed=False)
        assert detector.relevant("create", "Stock")

    def test_unrelated_specs_add_no_match_calls(self, monkeypatch):
        """Detection cost follows the relevant specs, not the population:
        the first update of the watched class verifies the same candidates
        with 10 and with 1,000 specs programmed on unrelated classes, and
        the next one verifies none (its route is already worked out)."""
        calls = []

        def counting(spec, signal, schema):
            calls.append(spec)
            return matches_primitive(spec, signal, schema)

        monkeypatch.setattr(database, "matches_primitive", counting)
        counts = []
        for unrelated in (10, 1000):
            schema = make_schema()
            detector = DatabaseEventDetector(schema, sink=lambda signals: None)
            detector.define_event(on_update("Stock", attrs=["price"]))
            for i in range(unrelated):
                schema.define_class(ClassDef("U%d" % i, (AttributeDef("x"),)))
                detector.define_event(on_update("U%d" % i))
            per_observe = []
            for _ in range(2):
                calls.clear()
                matched = detector.observe(db_signal(op="update",
                                                     old={"price": 1},
                                                     new={"price": 2}))
                assert matched == [on_update("Stock", attrs=["price"])]
                per_observe.append(len(calls))
            assert per_observe[1] == 0
            counts.append(per_observe[0])
        assert counts[0] == counts[1]


class TestSpecTagAliasing:
    def test_caller_signal_not_mutated_when_multiple_specs_match(self):
        detector, seen = make_detector()
        detector.define_event(on_create("Stock"))
        detector.define_event(on_create("Sec"))
        signal = db_signal(class_name="Stock")
        matched = detector.observe(signal)
        assert len(matched) == 2
        assert signal.spec is None, "caller's signal must never be re-tagged"
        assert {s.spec for s in seen} == {on_create("Stock"), on_create("Sec")}
        assert all(s is not signal for s in seen)

    @pytest.mark.parametrize("indexed", [True, False])
    def test_caller_signal_not_mutated_single_match(self, indexed):
        detector, seen = make_detector(indexed=indexed)
        detector.define_event(on_create("Stock"))
        signal = db_signal()
        detector.observe(signal)
        assert signal.spec is None
        assert seen[0].spec == on_create("Stock")


def random_spec(rng):
    op = rng.choice(["create", "update", "delete"])
    class_name = rng.choice([None, "Sec", "Stock", "Bond", "Other"])
    include = rng.random() < 0.7
    attrs = None
    if op == "update" and class_name is not None and rng.random() < 0.5:
        attrs = frozenset(rng.sample(["price", "volume", "symbol"],
                                     rng.randint(1, 2)))
    return DatabaseEventSpec(op, class_name, attrs, include_subclasses=include)


def random_signal(rng):
    op = rng.choice(["create", "update", "delete", "read"])
    class_name = rng.choice(["Sec", "Stock", "Bond", "Other"])
    old = new = None
    if op == "update":
        old = {"price": 1, "volume": 10, "symbol": "A"}
        new = dict(old)
        for attr in rng.sample(["price", "volume", "symbol"],
                               rng.randint(0, 3)):
            new[attr] = rng.randint(2, 9)
    return db_signal(op=op, class_name=class_name, old=old, new=new)


class TestIndexedLinearEquivalence:
    def test_detector_equivalence_on_random_workload(self):
        rng = random.Random(1789)
        specs = {random_spec(rng) for _ in range(120)}
        schema = make_schema()
        detector = DatabaseEventDetector(schema, sink=lambda signals: None)
        for spec in specs:
            detector.define_event(spec)
        for _ in range(400):
            signal = random_signal(rng)
            fast = set(detector.observe(signal))
            slow = set(linear_matches(detector, signal, schema))
            assert fast == slow, "dispatch divergence on %s" % signal.describe()
            # the Object Manager's pre-check never hides a match
            assert not slow or detector.relevant(signal.op, signal.class_name)

    def test_full_stack_equivalence_on_random_workload(self):
        """Identical rule populations + identical operation scripts must
        produce identical firing sequences with and without the index."""
        rng = random.Random(60189)
        spec_pool = list({random_spec(rng) for _ in range(40)})
        script = []
        live = []
        created = 0
        for step in range(200):
            kind = rng.random()
            if kind < 0.45 or not live:
                script.append(("create", rng.choice(["Sec", "Stock", "Bond",
                                                     "Other"]), step))
                live.append(created)
                created += 1
            elif kind < 0.85:
                changes = {attr: rng.randint(0, 9)
                           for attr in rng.sample(["price", "volume"],
                                                  rng.randint(1, 2))}
                script.append(("update", rng.choice(live), changes))
            else:
                victim = rng.choice(live)
                live.remove(victim)
                script.append(("delete", victim))

        def run(indexed):
            db = make_db(indexed, lock_timeout=5.0)
            for cd in (ClassDef("Sec", (AttributeDef("price"),
                                        AttributeDef("volume"))),
                       ClassDef("Stock", (AttributeDef("symbol"),),
                                superclass="Sec"),
                       ClassDef("Bond", (AttributeDef("coupon"),),
                                superclass="Sec"),
                       ClassDef("Other", (AttributeDef("price"),
                                          AttributeDef("volume")))):
                db.define_class(cd)
            fired = []
            for i, spec in enumerate(spec_pool):
                name = "r%03d" % i
                db.create_rule(Rule(
                    name=name, event=spec, priority=i % 4,
                    condition=Condition.true(),
                    action=Action.call(
                        lambda ctx, n=name: fired.append(
                            (n, ctx.signal.op, ctx.signal.class_name)))))
            oids = []
            with db.transaction() as txn:
                for entry in script:
                    if entry[0] == "create":
                        attrs = {"price": 1, "volume": 1}
                        if entry[1] == "Stock":
                            attrs["symbol"] = "S%d" % entry[2]
                        if entry[1] == "Bond":
                            attrs["coupon"] = 1
                        oids.append(db.create(entry[1], attrs, txn))
                    elif entry[0] == "update":
                        db.update(oids[entry[1]], entry[2], txn)
                    else:
                        db.delete(oids[entry[1]], txn)
            return fired

        assert run(True) == run(False)

    def test_composite_and_baseline_feeds_match_the_oracle(self):
        """Sequences of database events and relative timers on database
        baselines fire alike whether subscriptions gate their feeds or
        every signal is fed."""
        rng = random.Random(4242)
        pairs = [(random_spec(rng), random_spec(rng)) for _ in range(12)]
        script = []
        for step in range(120):
            kind = rng.random()
            if kind < 0.4 or step < 4:
                script.append(("create", rng.choice(["Sec", "Stock", "Bond"])))
            elif kind < 0.85:
                script.append(("update", rng.randrange(4),
                               {rng.choice(["price", "volume"]):
                                rng.randint(0, 9)}))
            else:
                script.append(("delete", rng.randrange(4)))

        def run(indexed):
            db = make_db(indexed, lock_timeout=5.0)
            db.define_class(ClassDef("Sec", (AttributeDef("price"),
                                             AttributeDef("volume"))))
            db.define_class(ClassDef("Stock", (), superclass="Sec"))
            db.define_class(ClassDef("Bond", (), superclass="Sec"))
            fired = []

            def note(name):
                return Action.call(lambda ctx: fired.append(
                    (name, db.clock.now())))
            for i, (first, second) in enumerate(pairs):
                db.create_rule(Rule(
                    name="seq%02d" % i, event=Sequence(first, second),
                    condition=Condition.true(), action=note("seq%02d" % i)))
                db.create_rule(Rule(
                    name="rel%02d" % i, event=after(first, 1.0 + i),
                    condition=Condition.true(), action=note("rel%02d" % i)))
            live = []
            for entry in script:
                with db.transaction() as txn:
                    if entry[0] == "create":
                        live.append(db.create(entry[1], {"price": 1,
                                                         "volume": 1}, txn))
                    elif live:
                        oid = live[entry[1] % len(live)]
                        if entry[0] == "update":
                            db.update(oid, entry[2], txn)
                        else:
                            live.remove(oid)
                            db.delete(oid, txn)
                db.advance_time(0.5)
            db.close()
            return fired

        fired = run(True)
        assert {name[:3] for name, _ in fired} == {"seq", "rel"}
        assert fired == run(False)


class TestSchemaCacheInvalidation:
    def test_lineage_and_subclass_caches_invalidate(self):
        schema = make_schema()
        assert schema.lineage("Stock") == ("Stock", "Sec")
        assert set(schema.subclasses("Sec")) == {"Sec", "Stock", "Bond"}
        assert schema.is_subclass("Stock", "Sec")
        schema.define_class(ClassDef("Pref", (), superclass="Stock"))
        assert schema.lineage("Pref") == ("Pref", "Stock", "Sec")
        assert set(schema.subclasses("Sec")) == {"Sec", "Stock", "Bond", "Pref"}
        assert schema.is_subclass("Pref", "Sec")
        schema.drop_class("Pref")
        assert set(schema.subclasses("Sec")) == {"Sec", "Stock", "Bond"}
        assert not schema.is_subclass("Pref", "Sec") if schema.has("Pref") \
            else True

    @pytest.mark.parametrize("indexed", [True, False])
    def test_subclass_scoped_rule_tracks_ddl(self, indexed):
        """A rule on an ancestor class must start firing for a subclass
        defined *after* the rule, and stop after the subclass is dropped."""
        db = make_db(indexed, lock_timeout=5.0)
        db.define_class(ClassDef("Sec", attributes("price")))
        hits = []
        db.create_rule(Rule(
            name="watch", event=on_create("Sec"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: hits.append(ctx.signal.class_name))))
        db.define_class(ClassDef("Mid", (), superclass="Sec"))
        db.define_class(ClassDef("Leaf", (), superclass="Mid"))
        with db.transaction() as txn:
            oid = db.create("Leaf", {"price": 1}, txn)
        assert hits == ["Leaf"]
        with db.transaction() as txn:
            db.delete(oid, txn)
        # Drop the leaf: creates of remaining classes still match, and the
        # cached closure must not resurrect the dropped class.
        db.drop_class("Leaf")
        with db.transaction() as txn:
            db.create("Mid", {"price": 2}, txn)
        assert hits == ["Leaf", "Mid"]
        assert "Leaf" not in db.store.schema.subclasses("Sec")

    @pytest.mark.parametrize("indexed", [True, False])
    def test_aborted_ddl_restores_cached_hierarchy(self, indexed):
        """The transaction-undo schema paths must invalidate the caches too."""
        db = make_db(indexed, lock_timeout=5.0)
        db.define_class(ClassDef("Sec", attributes("price")))
        txn = db.begin()
        db.define_class(ClassDef("Temp", (), superclass="Sec"), txn)
        assert "Temp" in db.store.schema.subclasses("Sec")
        db.abort(txn)
        assert "Temp" not in db.store.schema.subclasses("Sec")
        assert not db.store.schema.has("Temp")

    def test_dropped_intermediate_stops_matching_at_detector_level(self):
        schema = Schema()
        schema.define_class(ClassDef("A", ()))
        schema.define_class(ClassDef("B", (), superclass="A"))
        detector = DatabaseEventDetector(schema)
        seen = []
        detector.sink = seen.extend
        detector.define_event(on_create("A"))
        detector.observe(db_signal(class_name="B"))
        assert len(seen) == 1
        schema.drop_class("B")
        detector.observe(db_signal(class_name="B"))  # B unknown now
        assert len(seen) == 1


class TestInterestSetGating:
    """The composite and temporal feeds see only the occurrences of specs
    whose subscriptions name them."""

    def test_database_signals_skip_external_only_composite(self):
        db = HiPAC(lock_timeout=5.0)
        db.define_class(ClassDef("Stock", attributes("price")))
        db.define_event("e1")
        db.define_event("e2")
        hits = []
        db.create_rule(Rule(
            name="seq", event=Sequence(external("e1"), external("e2")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: hits.append(1))))
        db.create_rule(Rule(
            name="db-rule", event=on_create("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        before = db.composite_detector.stats["feeds"]
        with db.transaction() as txn:
            db.create("Stock", {"price": 1}, txn)
        # The create reached the Rule Manager (db-rule fired) but was not
        # fed to the automata: no composite member wants database signals.
        assert db.composite_detector.stats["feeds"] == before
        subscriptions = db.rule_catalog.subscriptions
        assert subscriptions[on_create("Stock")].feeds == ()
        assert subscriptions[external("e1")].feeds == (
            db.composite_detector.observe,)
        db.signal_event("e1")
        db.signal_event("e2")
        assert hits == [1]

    def test_temporal_baseline_gating(self):
        db = HiPAC(lock_timeout=5.0)
        db.define_event("base")
        ticks = []
        db.create_rule(Rule(
            name="rel", event=after(external("base"), 5.0),
            condition=Condition.true(),
            action=Action.call(lambda ctx: ticks.append(ctx.signal.timestamp))))
        fed_before = db.temporal_detector.stats["baseline_feeds"]
        # Rule creation signals create-rule events: database signals no
        # baseline wants — they must be gated out.
        db.create_rule(Rule(
            name="noise", event=on_create("Noise"),
            condition=Condition.true(), action=Action.call(lambda ctx: None)))
        db.define_class(ClassDef("Noise", attributes("x")))
        with db.transaction() as txn:
            db.create("Noise", {"x": 1}, txn)
        assert db.temporal_detector.stats["baseline_feeds"] == fed_before
        assert db.rule_catalog.subscriptions[external("base")].feeds == (
            db.temporal_detector.observe_baseline,)
        db.signal_event("base")
        assert db.temporal_detector.stats["baseline_feeds"] == fed_before + 1
        db.advance_time(5.0)
        assert ticks


class TestBatchUnionFiring:
    def test_global_priority_order_across_specs(self):
        """Rules triggered through *different* specs by one operation fire
        in one globally priority-sorted group (§6.2), not per-spec."""
        db = HiPAC(lock_timeout=5.0)
        db.define_class(ClassDef("Sec", attributes("price")))
        db.define_class(ClassDef("Stock", (), superclass="Sec"))
        order = []
        db.create_rule(Rule(
            name="a-low", event=on_update("Sec"), priority=1,
            condition=Condition.true(),
            action=Action.call(lambda ctx: order.append("a-low"))))
        db.create_rule(Rule(
            name="z-high", event=on_update("Stock"), priority=5,
            condition=Condition.true(),
            action=Action.call(lambda ctx: order.append("z-high"))))
        with db.transaction() as txn:
            oid = db.create("Stock", {"price": 1}, txn)
            order.clear()
            db.update(oid, {"price": 2}, txn)
        assert order == ["z-high", "a-low"]

    def test_one_operation_advances_sequence_once(self):
        """One database operation is one event occurrence: a sequence whose
        two members both match the same operation must not double-advance."""
        db = HiPAC(lock_timeout=5.0)
        db.define_class(ClassDef("Sec", attributes("price")))
        db.define_class(ClassDef("Stock", (), superclass="Sec"))
        hits = []
        db.create_rule(Rule(
            name="seq",
            event=Sequence(on_create("Sec"), on_create("Stock")),
            condition=Condition.true(),
            action=Action.call(lambda ctx: hits.append(1))))
        with db.transaction() as txn:
            db.create("Stock", {"price": 1}, txn)  # matches both members
        assert hits == [], "single operation must advance the automaton once"
        with db.transaction() as txn:
            db.create("Stock", {"price": 2}, txn)
        assert hits == [1]

    def test_rule_registration_runs_once_with_wildcard_spectator(self):
        """A wildcard create rule also matches create-rule events; rule
        management must still run once per operation (no double-register)."""
        db = HiPAC(lock_timeout=5.0)
        db.define_class(ClassDef("Stock", attributes("price")))
        seen = []
        db.create_rule(Rule(
            name="spectator", event=on_create(None),
            condition=Condition.true(),
            action=Action.call(lambda ctx: seen.append(ctx.signal.class_name))))
        db.create_rule(Rule(
            name="second", event=on_create("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        assert sorted(db.rule_names()) == ["second", "spectator"]
        with db.transaction() as txn:
            db.create("Stock", {"price": 1}, txn)
        assert seen.count("Stock") == 1


class TestStatsAndTracer:
    def test_facade_stats_aggregate_detector_counters(self):
        db = HiPAC(lock_timeout=5.0)
        db.define_class(ClassDef("Stock", attributes("price")))
        db.create_rule(Rule(
            name="r", event=on_update("Stock"),
            condition=Condition.true(),
            action=Action.call(lambda ctx: None)))
        with db.transaction() as txn:
            oid = db.create("Stock", {"price": 1}, txn)
            db.update(oid, {"price": 2}, txn)
        stats = db.stats()
        events = stats["events"]
        for key in ("database_reported", "database_index_hits",
                    "database_fast_path", "database_index_misses",
                    "composite_feeds", "temporal_baseline_feeds",
                    "external_reported", "transaction_reported"):
            assert key in events, "missing detector counter %r" % key
        assert events["database_index_hits"] >= 1
        assert stats["rules"]["signals"] >= 1
        # The create matched no spec (only update is programmed for Stock):
        # the Object Manager skipped signal construction entirely.
        assert stats["objects"]["signals_skipped"] >= 1
