"""Experiment Q6 — event detection cost (paper §2.1/§5.3).

Measures primitive database-event matching against the number of programmed
specs, composite (sequence/disjunction) recognition, and the temporal
detector's tick cost against the number of scheduled timers."""

import pytest

from benchmarks.conftest import make_db, seed_stocks
from repro import (
    Action,
    Condition,
    Disjunction,
    Rule,
    Sequence,
    VirtualClock,
    at_time,
    every,
    external,
    on_create,
    on_update,
)
from repro.clock import VirtualClock
from repro.events.signal import EventSignal
from repro.events.temporal import TemporalEventDetector

PRICE = [0.0]


@pytest.mark.parametrize("specs", [1, 50, 500])
def test_database_event_matching_vs_programmed_specs(specs, benchmark):
    """Matching cost grows with the number of *programmed* specs (the
    detector checks each); rules share specs, so real systems stay small."""
    db = make_db()
    oids = seed_stocks(db, 5)
    for i in range(specs):
        db.object_manager.event_detector.define_event(
            on_update("Stock", attrs=["price", "a%d" % i]))

    def update():
        PRICE[0] += 1.0
        with db.transaction() as txn:
            db.update(oids[0], {"price": PRICE[0]}, txn)

    benchmark(update)


def test_shared_spec_matching_is_flat(benchmark):
    """1000 rules sharing one event spec cost one detector match."""
    db = make_db()
    oids = seed_stocks(db, 5)
    before = db.object_manager.event_detector.stats["defined"]
    spec = on_update("Stock", attrs=["price"])
    for i in range(1000):
        db.create_rule(Rule(
            name="shared-%04d" % i, event=spec,
            condition=Condition(guard=lambda b, r: False),  # never satisfied
            action=Action.call(lambda ctx: None)))
    # All 1000 rules share one programmed spec.
    assert db.object_manager.event_detector.stats["defined"] == before + 1

    def update():
        PRICE[0] += 1.0
        with db.transaction() as txn:
            db.update(oids[0], {"price": PRICE[0]}, txn)

    benchmark(update)


def test_composite_sequence_recognition(benchmark):
    db = make_db()
    db.define_event("e1")
    db.define_event("e2")
    db.define_event("e3")
    hits = []
    db.create_rule(Rule(
        name="seq",
        event=Sequence(external("e1"), external("e2"), external("e3")),
        condition=Condition.true(),
        action=Action.call(lambda ctx: hits.append(1)),
    ))

    def run_sequence():
        db.signal_event("e1")
        db.signal_event("e2")
        db.signal_event("e3")

    benchmark(run_sequence)
    assert hits


def test_composite_disjunction_recognition(benchmark):
    db = make_db()
    db.define_event("e1")
    db.define_event("e2")
    hits = []
    db.create_rule(Rule(
        name="dis",
        event=Disjunction(external("e1"), external("e2")),
        condition=Condition.true(),
        action=Action.call(lambda ctx: hits.append(1)),
    ))

    benchmark(lambda: db.signal_event("e1"))
    assert hits


@pytest.mark.parametrize("timers", [10, 100, 1000])
def test_temporal_tick_cost_vs_timer_count(timers, benchmark):
    """Advancing the clock past no deadline costs O(1) (heap peek); the
    benchmark advances in small steps firing ~1 timer per step."""
    clock = VirtualClock()
    detector = TemporalEventDetector(clock)
    fired = []
    detector.sink = fired.extend
    for i in range(timers):
        detector.define_event(every(float(timers), offset=float(i),
                                    info="t%d" % i))

    benchmark(clock.advance, 1.0)
    assert detector.pending_count() == timers


def test_periodic_firing_throughput(benchmark):
    """Cost of one rule firing driven by a periodic temporal event."""
    db = make_db()
    ticks = []
    db.create_rule(Rule(
        name="tick",
        event=every(1.0),
        condition=Condition.true(),
        action=Action.call(lambda ctx: ticks.append(ctx.signal.timestamp)),
    ))

    benchmark(db.advance_time, 1.0)
    assert ticks
