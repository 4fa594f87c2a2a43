"""One record per firing: the firing log is the cascade tree.

Every :class:`RuleFiring` records the firing whose action triggered it
(``cause``) at every observability level, and its phase timing under
``observability="trace"``.  The profiler, the Chrome export and the
doctor read nothing else, so:

* the profiler's counts and cascade edges on a mixed cascade are pinned
  by an oracle (the values the span-tree profiler produced on the same
  scenario), and the default level gives the same edges;
* the firing ids that the firing log, ``why()``, the Chrome document and
  the flight journal carry agree on one recorded run.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
)
from repro.obs.flightrec import read_journal
from repro.rules.coupling import DEFERRED, SEPARATE
from repro.rules.firing import RuleFiring
from repro.tools.replay import firing_identity, journal_firings

#: every ``as_dict()`` column but the timing ones and the wall times
COLUMNS = ("firings", "evaluated", "satisfied", "executed", "errors",
           "deferred", "separate", "triggers", "triggered_by")


def _mixed_cascade(**options) -> HiPAC:
    """Three stimuli through every coupling, each drained before the next.

    A stimulus creates an A.  ``outer`` (immediate) creates a B and a D.
    The B fires ``inner`` (immediate, nested in ``outer``'s action) and
    ``sep`` (separate, on a worker, whose write fires ``after_sep``).
    ``inner``'s C queues ``late`` (deferred E-C); the D fires ``dca``
    (deferred C-A).  Both write an E at commit, which fires ``on_e``,
    whose condition holds only for ``late``'s E.
    """
    db = HiPAC(lock_timeout=5.0, **options)
    for name in "ABCDES":
        db.define_class(ClassDef(name, attributes(("v", "int"))))

    def create(cls, v=0):
        return Action.call(lambda ctx: ctx.create(cls, {"v": v}))

    db.create_rule(Rule(
        name="outer", event=on_create("A"), condition=Condition.true(),
        action=Action.call(lambda ctx: (ctx.create("B", {"v": 0}),
                                        ctx.create("D", {"v": 0})))))
    db.create_rule(Rule(name="inner", event=on_create("B"),
                        condition=Condition.true(), action=create("C")))
    db.create_rule(Rule(name="sep", event=on_create("B"),
                        condition=Condition.true(), action=create("S"),
                        ec_coupling=SEPARATE))
    db.create_rule(Rule(name="after_sep", event=on_create("S"),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: None)))
    db.create_rule(Rule(name="late", event=on_create("C"),
                        condition=Condition.true(), action=create("E", 1),
                        ec_coupling=DEFERRED))
    db.create_rule(Rule(name="dca", event=on_create("D"),
                        condition=Condition.true(), action=create("E"),
                        ca_coupling=DEFERRED))
    db.create_rule(Rule(
        name="on_e", event=on_create("E"),
        condition=Condition(guard=lambda b, r: b.get("new_v", 0) > 0),
        action=Action.call(lambda ctx: None)))
    for value in range(3):
        with db.transaction() as txn:
            db.create("A", {"v": value}, txn)
        assert db.drain(10.0)
    return db


def _counts(**overrides) -> dict:
    row = dict.fromkeys(("errors", "deferred", "separate"), 0)
    row.update(firings=3, evaluated=3, satisfied=3, executed=3)
    row.update(overrides)
    return row


#: what the span-tree profiler reported on :func:`_mixed_cascade` under
#: ``"trace"``; the A oids are fixed because every stimulus is drained
ORACLE = {
    "outer": dict(_counts(), triggers={"inner": 3, "sep": 3, "dca": 3},
                  triggered_by={"event:db:create A#8": 1,
                                "event:db:create A#15": 1,
                                "event:db:create A#22": 1}),
    "inner": dict(_counts(), triggers={"late": 3},
                  triggered_by={"outer": 3}),
    "sep": dict(_counts(separate=3), triggers={"after_sep": 3},
                triggered_by={"outer": 3}),
    "after_sep": dict(_counts(), triggers={}, triggered_by={"sep": 3}),
    "late": dict(_counts(deferred=3), triggers={"on_e": 3},
                 triggered_by={"inner": 3}),
    "dca": dict(_counts(deferred=3), triggers={"on_e": 3},
                triggered_by={"outer": 3}),
    "on_e": dict(_counts(firings=6, evaluated=6), triggers={},
                 triggered_by={"late": 3, "dca": 3}),
}
#: firings per rule in the oracle run, every one of them timed
TIMED = {"outer": 3, "inner": 3, "sep": 3, "after_sep": 3, "late": 3,
         "dca": 3, "on_e": 6}


def _profile(db: HiPAC):
    rules = db.rule_profiler().as_dict()["rules"]
    return ({name: {column: row[column] for column in COLUMNS}
             for name, row in rules.items()},
            {name: row["timed_firings"] for name, row in rules.items()})


class TestProfilerOracle:
    def test_trace_profile_matches_the_recorded_oracle(self):
        db = _mixed_cascade(observability="trace")
        try:
            assert _profile(db) == (ORACLE, TIMED)
        finally:
            db.close()

    def test_default_level_gives_the_same_edges_untimed(self):
        db = _mixed_cascade()
        try:
            assert _profile(db) == (ORACLE, dict.fromkeys(TIMED, 0))
        finally:
            db.close()


def test_rule_firing_fields():
    """``cause`` and ``timing`` took the slots of the span and the unread
    monotonic timestamp: the record did not grow."""
    assert [f.name for f in dataclasses.fields(RuleFiring)] == [
        "rule_name", "event", "ec_coupling", "ca_coupling",
        "triggering_txn", "condition_txn", "action_txn", "satisfied",
        "executed", "deferred", "separate_thread", "error", "cause",
        "timing", "wall_time", "firing_id"]


class TestCrossRecordAgreement:
    """The firing log, provenance, the Chrome document and the flight
    journal name one set of firings."""

    def test_one_recorded_run(self, tmp_path):
        db = _mixed_cascade(observability="trace", flight_recorder=True,
                            provenance=True, data_dir=tmp_path)
        try:
            log = db.firing_log().all()
            by_id = {firing.firing_id: firing for firing in log}
            chains = [db.why(record.oid, "v")
                      for cls in "BCDES" for record in db.store.extent(cls)]
            document = db.export_trace()
        finally:
            db.close()
        assert {firing.rule_name for firing in log} == set(ORACLE)

        # The journal's responses are the log's evaluated firings.
        records, _ = read_journal(tmp_path)
        journalled = Counter(
            firing_identity(d["rule"], d["event"], d["ec"], d["ca"],
                            d["satisfied"])
            for d in (entry["data"] for entry in journal_firings(records)))
        logged = Counter(
            firing_identity(f.rule_name, f.event, f.ec_coupling,
                            f.ca_coupling, f.satisfied)
            for f in log if f.satisfied is not None)
        assert journalled == logged and sum(logged.values()) == len(log)

        # Every rule hop of why() names a logged firing of its rule.
        hops = [hop.cause for chain in chains for hop in chain.hops
                if hop.cause.kind == "rule"]
        assert {cause.rule for cause in hops} == \
            {"outer", "inner", "sep", "late", "dca"}
        for cause in hops:
            assert by_id[cause.firing_id].rule_name == cause.rule

        # Every cause is a logged firing whose action ran...
        caused = [firing for firing in log if firing.cause is not None]
        assert len(caused) == len(log) - 3      # all but the stimuli
        assert all(by_id[firing.cause].executed for firing in caused)
        # ...and the Chrome document shows exactly the timed firings.
        shown = {event["args"]["firing_id"]
                 for event in document["traceEvents"] if event["ph"] == "X"}
        assert shown == {firing.firing_id for firing in log
                         if firing.timing is not None} == set(by_id)
