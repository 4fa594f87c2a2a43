"""Property-based tests: condition-graph evaluation is equivalent to naive
re-evaluation, for random rule sets and random update streams."""

from hypothesis import given, settings, strategies as st

from repro import (
    Attr,
    AttrType,
    AttributeDef,
    ClassDef,
    Condition,
    HiPAC,
    Query,
)
from repro.events.signal import EventSignal


def fresh_db(use_graph):
    db = HiPAC(lock_timeout=2.0)
    db.condition_evaluator.use_graph = use_graph
    db.define_class(ClassDef("Stock", (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("price", AttrType.NUMBER, default=0.0),
    )))
    return db


thresholds = st.lists(st.integers(0, 20), min_size=1, max_size=5)

# A stream step: ("create", price) | ("update", index, price) | ("delete", index)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.integers(0, 25)),
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(0, 25)),
        st.tuples(st.just("delete"), st.integers(0, 9)),
    ),
    max_size=15,
)


def run_stream(db, stream):
    oids = []
    with db.transaction() as txn:
        for step in stream:
            if step[0] == "create":
                oids.append(db.create(
                    "Stock", {"symbol": "s%d" % len(oids),
                              "price": float(step[1])}, txn))
            else:
                existing = [oid for oid in oids if db.store.exists(oid)]
                if not existing:
                    continue
                target = existing[step[1] % len(existing)]
                if step[0] == "update":
                    db.update(target, {"price": float(step[2])}, txn)
                else:
                    db.delete(target, txn)


def evaluate_all(db, conditions):
    """Evaluate every condition; return (satisfied, sorted symbols) per
    condition."""
    signal = EventSignal(kind="external", name="probe", args={})
    results = []
    with db.transaction() as txn:
        for condition in conditions:
            outcome = db.condition_evaluator.evaluate(condition, signal, txn)
            results.append((outcome.satisfied,
                            sorted(outcome.results[0].values("symbol"))))
    return results


class TestGraphEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(limits=thresholds, stream=steps)
    def test_graph_equals_naive(self, limits, stream):
        conditions = [Condition.of(Query("Stock", Attr("price") > limit))
                      for limit in limits]
        graph_db = fresh_db(use_graph=True)
        naive_db = fresh_db(use_graph=False)
        for db in (graph_db, naive_db):
            with db.transaction() as txn:
                for condition in conditions:
                    db.condition_evaluator.add_rule(condition, txn)
        run_stream(graph_db, stream)
        run_stream(naive_db, stream)
        assert evaluate_all(graph_db, conditions) == \
            evaluate_all(naive_db, conditions)

    @settings(max_examples=50, deadline=None)
    @given(limits=thresholds, committed=steps, aborted=steps)
    def test_graph_ignores_aborted_work(self, limits, committed, aborted):
        """Memories must reflect only surviving state: an aborted stream of
        changes leaves the graph exactly where the committed stream put it."""
        conditions = [Condition.of(Query("Stock", Attr("price") > limit))
                      for limit in limits]
        db = fresh_db(use_graph=True)
        with db.transaction() as txn:
            for condition in conditions:
                db.condition_evaluator.add_rule(condition, txn)
        run_stream(db, committed)
        expected = evaluate_all(db, conditions)

        txn = db.begin()
        oids = [record.oid for record in db.store.extent("Stock")]
        for step in aborted:
            existing = [oid for oid in oids if db.store.exists(oid)]
            if step[0] == "create":
                oids.append(db.create(
                    "Stock", {"symbol": "x%d" % len(oids),
                              "price": float(step[1])}, txn))
            elif step[0] == "update" and existing:
                db.update(existing[step[1] % len(existing)],
                          {"price": float(step[2])}, txn)
            elif step[0] == "delete" and existing:
                db.delete(existing[step[1] % len(existing)], txn)
        db.abort(txn)

        assert evaluate_all(db, conditions) == expected
