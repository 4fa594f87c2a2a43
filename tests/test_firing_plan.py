"""The firing plan (§6.1, §6.2): what the catalog keeps ready per event spec
and per rule answers exactly what was once computed on every signal.

:func:`reference` is that per-signal computation, kept here as the oracle:
the registered rules on the signal's spec, the disabled ones filtered out,
sorted into firing order (higher priority first, then name).  Random
sequences of rule administration, each step committed or aborted and the
sequence ending with a crash-recovery re-attach, must leave each spec's
subscribed rules equal to it after every step, and equal to a model of the
committed rule set kept by this file alone.  The spec's detector must
report it exactly while the model has an enabled rule on it or a
composite rule with it among its members.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro import (
    Action,
    ClassDef,
    Condition,
    EventSignal,
    HiPAC,
    Rule,
    Sequence,
    attributes,
    external,
    on_create,
    on_update,
)
from repro.recovery import recover
from repro.util.canonical import once

SPECS = (on_update("Item"), on_create("Item"), external("ping"),
         Sequence(on_create("Item"), external("ping")))
NAMES = ["r%d" % i for i in range(5)]
GROUPS = ["g0", "g1"]


def spec_of(name):
    return SPECS[int(name[1:]) % len(SPECS)]


def group_of(name):
    return GROUPS[int(name[1:]) % len(GROUPS)]


def make_rule(name, priority, enabled=True):
    return Rule(name=name, event=spec_of(name), priority=priority,
                enabled=enabled, group=group_of(name),
                condition=Condition.true(), action=Action.call(lambda ctx: None))


def reference(catalog, spec):
    """The per-signal answer the catalog's kept tuples replaced."""
    named = [catalog.get_rule(name) for name in catalog.rule_names()]
    named = [rule for rule in named if rule.event == spec and rule.enabled]
    named.sort(key=lambda rule: (-rule.priority, rule.name))
    return named


def subscribed(catalog, spec):
    subscription = catalog.subscriptions.get(spec)
    return list(subscription.rules) if subscription is not None else []


def expected(model, spec):
    """The committed rule set's answer; ``model``: name -> [priority,
    enabled]."""
    return sorted((name for name, (_, enabled) in model.items()
                   if enabled and spec_of(name) == spec),
                  key=lambda name: (-model[name][0], name))


def fed(model, spec):
    """Does a composite rule of the model have ``spec`` among its members?"""
    return any(spec in spec_of(name).primitives() for name in model
               if spec_of(name).is_composite())


def check(db, model):
    catalog = db.rule_catalog
    for spec in SPECS:
        got = subscribed(catalog, spec)
        assert got == reference(catalog, spec)
        assert [rule.name for rule in got] == expected(model, spec)
        assert catalog.detector_for(spec).is_enabled(spec) == bool(
            expected(model, spec) or fed(model, spec)), spec
    assert None not in catalog.subscriptions


steps = st.lists(st.one_of(
    st.tuples(st.just("create"), st.sampled_from(NAMES),
              st.integers(-2, 2), st.booleans(), st.booleans()),
    st.tuples(st.sampled_from(["delete", "enable", "disable"]),
              st.sampled_from(NAMES), st.booleans()),
    st.tuples(st.sampled_from(["enable_group", "disable_group"]),
              st.sampled_from(GROUPS), st.booleans()),
), max_size=14)


def apply(db, model, step):
    """Run one administration step in its own transaction; commit or abort
    it as drawn, and keep ``model`` to what committed."""
    kind, target, commit = step[0], step[1], step[-1]
    catalog = db.rule_catalog
    if kind == "create":
        if target in model:
            return
        priority, enabled = step[2], step[3]
        txn = db.begin()
        catalog.create_rule(make_rule(target, priority, enabled), txn)
        change = {target: [priority, enabled]}
    elif kind in ("enable_group", "disable_group"):
        txn = db.begin()
        names = getattr(catalog, kind)(target, txn)
        on = kind == "enable_group"
        change = {name: [model[name][0], on] for name in names}
    else:
        if target not in model:
            return
        txn = db.begin()
        getattr(catalog, kind + "_rule")(target, txn)
        change = ({target: None} if kind == "delete"
                  else {target: [model[target][0], kind == "enable"]})
    if not commit:
        db.abort(txn)
        return
    db.commit(txn)
    for name, entry in change.items():
        if entry is None:
            del model[name]
        else:
            model[name] = entry


class TestPlanInvalidation:
    @settings(max_examples=40, deadline=None)
    @given(sequence=steps)
    def test_triggered_matches_reference_through_recovery(self, sequence):
        with tempfile.TemporaryDirectory() as data_dir:
            db = HiPAC(durability="wal", data_dir=data_dir)
            db.define_class(ClassDef("Item", attributes(("v", "int"))))
            model = {}
            check(db, model)
            for step in sequence:
                apply(db, model, step)
                check(db, model)
            db.close()
            library = [make_rule(name, priority)
                       for name, (priority, _) in model.items()]
            recovered = recover(data_dir, rules=library, durability=None)
            try:
                check(recovered, model)
            finally:
                recovered.close()


class TestBatchOrder:
    @settings(max_examples=25, deadline=None)
    @given(priorities=st.lists(st.integers(-2, 2), min_size=6, max_size=6))
    def test_multi_spec_batch_fires_in_global_order(self, priorities):
        """One update matches three specs: the detector hands the Rule
        Manager one batch of three signals, and the union of their rules
        fires in one global order, not spec by spec."""
        db = HiPAC()
        db.define_class(ClassDef("Item", attributes(("v", "int"))))
        specs = (on_update("Item"), on_update("Item", ["v"]), on_update(None))
        ran = []
        for i, priority in enumerate(priorities):
            name = "r%d" % i
            db.create_rule(Rule(
                name=name, event=specs[i % len(specs)], priority=priority,
                condition=Condition.true(),
                action=Action.call(lambda ctx, name=name: ran.append(name))))
        with db.transaction() as txn:
            oid = db.create("Item", {"v": 0}, txn)
        db.firing_log().clear()
        detector = db.object_manager.event_detector
        reported = detector.stats["reported"]
        with db.transaction() as txn:
            db.update(oid, {"v": 1}, txn)
        assert detector.stats["reported"] - reported == len(specs)
        order = sorted(("r%d" % i for i in range(len(priorities))),
                       key=lambda name: (-priorities[int(name[1:])], name))
        assert [f.rule_name for f in db.firing_log().all()] == order
        assert ran == order
        db.close()


class TestSignalFacts:
    def test_bindings_built_once_and_kept_per_rule(self, monkeypatch):
        """Two rules on one event: the first one's action rewrites its
        bindings, the second still reads the event's; the signal built
        its bindings once for the pair."""
        built = []
        raw = EventSignal._bindings.__wrapped__

        def counted(signal):
            built.append(signal)
            return raw(signal)
        monkeypatch.setattr(EventSignal, "_bindings", once(counted))

        db = HiPAC()
        db.define_class(ClassDef("Item", attributes(("v", "int"))))
        seen = []

        def clobber(ctx):
            ctx.bindings["new_v"] = "clobbered"
            del ctx.bindings["oid"]

        db.create_rule(Rule(name="first", event=on_update("Item"), priority=1,
                            condition=Condition.true(),
                            action=Action.call(clobber)))
        db.create_rule(Rule(name="second", event=on_update("Item"),
                            condition=Condition.true(),
                            action=Action.call(lambda ctx: seen.append(
                                (ctx.bindings["new_v"], ctx.bindings["oid"])))))
        with db.transaction() as txn:
            oid = db.create("Item", {"v": 0}, txn)
        built.clear()
        with db.transaction() as txn:
            db.update(oid, {"v": 7}, txn)
        assert seen == [(7, oid)]
        assert len(built) == 1
        db.close()

    def test_tagged_copy_shares_facts_not_the_tag(self):
        signal = EventSignal(kind="database", op="update", class_name="Item",
                             old_attrs={"v": 0, "w": 1},
                             new_attrs={"v": 2, "w": 1})
        assert signal.changed_attrs() == frozenset({"v"})
        twin = signal.tagged(SPECS[0])
        assert (twin.spec, signal.spec) == (SPECS[0], None)
        assert twin == EventSignal(kind="database", op="update",
                                   class_name="Item",
                                   old_attrs={"v": 0, "w": 1},
                                   new_attrs={"v": 2, "w": 1}, spec=SPECS[0])
        assert twin.changed_attrs() is signal.changed_attrs()
        assert twin.bindings() == signal.bindings()
        assert twin.bindings() is not twin.bindings()
