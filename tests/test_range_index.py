"""The index's two probes against a scan, under writes and aborts.

One attribute takes ints, floats, ``-0.0``, ``±inf``, NaN, None, bools,
strings, and values that equal a number without being an int or float
(``1+0j``, which orders against nothing, and ``Fraction(1)``), and is
indexed.  Creates, updates, deletes and aborted
subtransactions run in any order; after each, every equality query and
every range query (each bound inclusive or exclusive) must answer exactly
what ``QueryExecutor(store, use_indexes=False)`` answers.  The key order a
range probe bisects is built by the first range probe: either before any
write (on an empty index) or after some, and maintained from then on.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from repro import AttrType, AttributeDef, ClassDef, HiPAC
from repro.objstore.executor import QueryExecutor
from repro.objstore.predicates import And, Attr, Compare, Const
from repro.objstore.query import Query

INF, NAN = math.inf, math.nan

VALUES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([-0.0, 0.5, 1.0, 2.5, INF, -INF, NAN]),
    st.none(), st.booleans(), st.sampled_from(["", "a"]),
    st.sampled_from([complex(1, 0), Fraction(1), Fraction(5, 2)]))
#: equality keys, every kind among them
EQUALS = (-2, 0, 1, 2.5, -0.0, INF, NAN, None, True, False, "a",
          complex(1, 0), Fraction(5, 2))
#: range bounds, each pair ``low <= high``: numbers, NaN left out
BOUNDS = (-INF, -1, -0.0, 0.5, 1, 2.5, INF)
RANGES = [(low, high) for low in BOUNDS for high in BOUNDS if low <= high]
LOWER, UPPER = (">", ">="), ("<", "<=")

WRITE = st.one_of(
    st.tuples(st.just("create"), VALUES),
    st.tuples(st.just("update"), st.integers(0, 7), VALUES),
    st.tuples(st.just("delete"), st.integers(0, 7)))
STEPS = st.lists(st.one_of(
    WRITE, st.tuples(st.just("abort"), st.lists(WRITE, min_size=1,
                                                max_size=4))),
    max_size=10)


def write(db, oids, step, txn):
    """Apply one write in ``txn``; ``oids`` are the live objects."""
    if step[0] == "create":
        oids.append(db.create("C", {"v": step[1]}, txn))
    elif oids and step[0] == "update":
        db.update(oids[step[1] % len(oids)], {"v": step[2]}, txn)
    elif oids:
        db.delete(oids.pop(step[1] % len(oids)), txn)


def answers(executor, query):
    return executor.execute(query).oids()


def check(db, ranges):
    """Every equality (and, once ``ranges``, every range) query answers
    what the scan answers, through the plan it names."""
    probe = db.object_manager.executor
    scan = QueryExecutor(db.store, use_indexes=False)
    for value in EQUALS:
        query = Query("C", Attr("v") == value)
        assert probe.plan(query).kind == "index-probe"
        assert answers(probe, query) == answers(scan, query), value
    if not ranges:
        return
    for low, high in RANGES:
        for lower in LOWER:
            for upper in UPPER:
                query = Query("C", And(Compare(Attr("v"), lower, Const(low)),
                                       Compare(Attr("v"), upper, Const(high))))
                assert probe.plan(query).kind == "index-range"
                assert answers(probe, query) == answers(scan, query), \
                    (lower, low, upper, high)


def run(steps, built_at):
    """Run ``steps``, each in its own committed transaction (an ``abort``
    step's writes in a subtransaction that aborts); range queries are
    checked from step ``built_at`` on, 0 building the order first."""
    db = HiPAC(lock_timeout=2.0)
    try:
        db.define_class(ClassDef("C", (
            AttributeDef("v", AttrType.ANY, indexed=True),)))
        oids = []
        check(db, built_at == 0)
        for at, step in enumerate(steps, 1):
            with db.transaction() as txn:
                if step[0] != "abort":
                    write(db, oids, step, txn)
                else:
                    sub = db.begin(parent=txn)
                    doomed = list(oids)
                    for part in step[1]:
                        write(db, doomed, part, sub)
                    db.abort(sub)
            check(db, at >= built_at)
    finally:
        db.close()


@settings(max_examples=40, deadline=None)
@given(steps=STEPS, built_at=st.integers(0, 11))
# bisect_right -> bisect_left on the upper bound: v <= 1 drops v == 1
@example(steps=[("create", 1)], built_at=0)
# a key left in the order after its bucket empties: 1's bucket, made by
# the int, is emptied by the delete of True
@example(steps=[("create", 1), ("create", True), ("delete", 0),
                ("delete", 0), ("create", 0.5)], built_at=0)
# the order searched by bisecting with the removed value: 1+0j, filed in
# the bucket 1 made, orders against no number
@example(steps=[("create", 1), ("create", complex(1, 0)), ("delete", 0),
                ("delete", 0), ("create", 0.5)], built_at=0)
@example(steps=[("create", 1), ("create", complex(1, 0)), ("delete", 0),
                ("update", 0, 2)], built_at=0)
# a Fraction keyed in the bucket 2.5 made, removed last
@example(steps=[("create", 2.5), ("create", Fraction(5, 2)), ("delete", 0),
                ("update", 0, "a")], built_at=1)
# side keys not offered to a range probe: True lies between 0.5 and 2.5
@example(steps=[("create", True), ("create", 2.5)], built_at=2)
# the order built after the writes, then undone writes kept exact
@example(steps=[("create", 1.0), ("create", NAN), ("create", -0.0),
                ("abort", [("update", 0, 2.5), ("delete", 1),
                           ("create", INF)]),
                ("update", 2, "a")], built_at=3)
def test_probes_answer_what_the_scan_answers(steps, built_at):
    run(steps, min(built_at, len(steps)))
