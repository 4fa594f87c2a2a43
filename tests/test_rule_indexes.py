"""Indexes requested by rule conditions (§5.5 Add Rule / Delete Rule).

Every attribute a parameterised rule query tests by equality is indexed on
each extent the query ranges over.  The request is reference-counted,
transactional (undone by an abort of the creating or deleting transaction),
rebuilt by recovery, and never drops a declared index.  Buckets hold the
live records, so after any mix of writes and aborts a probe must answer
exactly what a scan answers.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro import (
    Action, AttrType, AttributeDef, ClassDef, Condition, HiPAC, Rule,
    on_update)
from repro.objstore.executor import QueryExecutor
from repro.objstore.predicates import And, Attr, Compare, EventArg
from repro.objstore.query import Query
from repro.recovery import recover
from repro.rules.catalog import firing_order

SECTORS = ("tech", "energy", "bank")


def stock_class(name="Stock", superclass=None):
    attrs = () if superclass else (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("sector", AttrType.STRING, default=""),
        AttributeDef("price", AttrType.NUMBER, default=0.0))
    return ClassDef(name, attrs, superclass=superclass)


def sector_rule(name, ceiling=100.0, class_name="Stock"):
    """A cond_scan-style rule: same sector as the update, price above it."""
    return Rule(
        name=name, event=on_update(class_name, attrs=["price"]),
        condition=Condition.of(Query(class_name, And(
            Compare(Attr("sector"), "==", EventArg("new_sector")),
            Attr("price") > EventArg("new_price"),
            Attr("price") < ceiling))),
        action=Action.call(lambda ctx: None))


def make_db(count=12, **kwargs):
    db = HiPAC(lock_timeout=2.0, **kwargs)
    db.define_class(stock_class())
    with db.transaction() as txn:
        oids = [db.create("Stock", {"symbol": "S%d" % i,
                                    "sector": SECTORS[i % 3],
                                    "price": float(i)}, txn)
                for i in range(count)]
    return db, oids


def sector_index(db, class_name="Stock"):
    return db.store.indexes.get(class_name, "sector")


def scan_sectors(db, class_name="Stock"):
    """What the sector index must hold: value -> OIDs, from the extent."""
    answer = {}
    for record in db.store.extent(class_name, include_subclasses=False):
        answer.setdefault(record.attrs["sector"], set()).add(record.oid)
    return answer


def assert_exact(db, class_name="Stock"):
    """The index files exactly the extent, and files the live records."""
    index = sector_index(db, class_name)
    expected = scan_sectors(db, class_name)
    assert {key: index.lookup(key) for key in index.keys()} == expected
    for key in index.keys():
        for record in index.records(key):
            assert record is db.store.get(record.oid)


def test_index_is_backfilled_on_a_populated_extent_and_shared():
    db, _ = make_db()
    assert sector_index(db) is None
    db.create_rule(sector_rule("r1"))
    index = sector_index(db)
    assert index is not None
    assert_exact(db)
    db.create_rule(sector_rule("r2", ceiling=50.0))
    assert sector_index(db) is index
    db.delete_rule("r1")
    assert sector_index(db) is index          # r2 still holds it
    db.delete_rule("r2")
    assert sector_index(db) is None           # the last rule let it go


def test_a_static_query_requests_no_index():
    db, _ = make_db()
    db.create_rule(Rule(
        name="static", event=on_update("Stock"),
        condition=Condition.of(Query("Stock", Attr("sector") == "tech")),
        action=Action.call(lambda ctx: None)))
    assert sector_index(db) is None           # static: the graph answers it


def test_aborted_create_and_aborted_delete():
    db, _ = make_db()
    txn = db.begin()
    db.create_rule(sector_rule("r"), txn)
    assert sector_index(db) is not None
    db.abort(txn)
    assert sector_index(db) is None
    db.create_rule(sector_rule("r"))
    txn = db.begin()
    db.delete_rule("r", txn)
    assert sector_index(db) is None
    db.abort(txn)
    assert sector_index(db) is not None
    assert_exact(db)
    db.delete_rule("r")
    assert sector_index(db) is None


def test_declared_index_survives_every_delete():
    db, _ = make_db()
    declared = db.store.indexes.get("Stock", "symbol")
    rule = Rule(
        name="by-symbol", event=on_update("Stock", attrs=["price"]),
        condition=Condition.of(Query("Stock", Compare(
            Attr("symbol"), "==", EventArg("new_symbol")))),
        action=Action.call(lambda ctx: None))
    db.create_rule(rule)
    assert db.store.indexes.get("Stock", "symbol") is declared
    txn = db.begin()
    db.delete_rule("by-symbol", txn)
    db.abort(txn)
    db.delete_rule("by-symbol")
    assert db.store.indexes.get("Stock", "symbol") is declared
    assert len(declared) == 12


def test_every_extent_of_a_hierarchy_is_indexed():
    db, _ = make_db()
    db.define_class(stock_class("Tech", superclass="Stock"))
    with db.transaction() as txn:
        db.create("Tech", {"symbol": "T1", "sector": "tech"}, txn)
    db.create_rule(sector_rule("r"))
    assert sector_index(db, "Tech").lookup("tech")
    plan = db.object_manager.executor.plan(
        sector_rule("x").condition.queries[0], {"new_sector": "tech",
                                                "new_price": 0.0})
    assert plan.kind == "index-probe" and plan.class_names == ("Stock", "Tech")
    # a subclass defined later is not indexed: the plan falls back to a scan
    db.define_class(stock_class("Late", superclass="Stock"))
    plan = db.object_manager.executor.plan(
        sector_rule("x").condition.queries[0], {"new_sector": "tech",
                                                "new_price": 0.0})
    assert plan.kind == "scan"
    db.delete_rule("r")
    assert sector_index(db, "Tech") is None and sector_index(db) is None


def test_a_delete_releases_exactly_what_its_rule_requested():
    """Two rules with one query, created either side of a subclass
    definition, hold different indexes; each delete gives back its own."""
    db, _ = make_db()
    db.create_rule(sector_rule("old"))                # Stock alone
    db.define_class(stock_class("Tech", superclass="Stock"))
    db.create_rule(sector_rule("new"))                # Stock and Tech
    db.delete_rule("old")
    assert sector_index(db, "Tech") is not None       # still "new"'s
    assert sector_index(db) is not None
    db.delete_rule("new")
    assert sector_index(db, "Tech") is None and sector_index(db) is None


def test_a_rule_index_outlives_a_drop_of_its_class():
    db, _ = make_db()
    db.define_class(stock_class("Tech", superclass="Stock"))
    db.create_rule(sector_rule("r"))
    query = sector_rule("x").condition.queries[0]
    bindings = {"new_sector": "tech", "new_price": 0.0}
    txn = db.begin()
    db.drop_class("Tech", txn)
    assert sector_index(db, "Tech") is None
    db.abort(txn)                                     # the drop is undone
    assert sector_index(db, "Tech") is not None
    db.drop_class("Tech")
    db.define_class(stock_class("Tech", superclass="Stock"))
    with db.transaction() as txn:
        db.create("Tech", {"symbol": "T1", "sector": "tech"}, txn)
    assert_exact(db, "Tech")
    assert db.object_manager.executor.plan(query, bindings).kind == \
        "index-probe"
    db.delete_rule("r")
    assert sector_index(db, "Tech") is None and sector_index(db) is None


def test_rules_fire_the_same_with_and_without_the_index():
    fired = {}
    for use_indexes in (True, False):
        db, oids = make_db(count=30)
        db.object_manager.executor.use_indexes = use_indexes
        seen = fired[use_indexes] = []
        db.create_rule(Rule(
            name="r", event=on_update("Stock", attrs=["price"]),
            condition=sector_rule("r").condition,
            action=Action.call(lambda ctx, seen=seen: seen.append(
                sorted(row.oid.number for row in ctx.results[0])))))
        for step in range(20):
            with db.transaction() as txn:
                db.update(oids[step * 7 % 30], {"price": step * 1.5}, txn)
    assert fired[True] == fired[False]
    assert fired[True]


def test_index_is_rebuilt_by_recovery(tmp_path):
    rules = [sector_rule("r")]
    db = HiPAC(lock_timeout=2.0, durability="wal", data_dir=tmp_path,
               wal_fsync=False)
    db.define_class(stock_class())
    with db.transaction() as txn:
        for i in range(6):
            db.create("Stock", {"symbol": "S%d" % i,
                                "sector": SECTORS[i % 3]}, txn)
    db.create_rule(rules[0])
    db.close()
    back = recover(tmp_path, rules=[sector_rule("r")], durability=None)
    assert back.rule_names() == ["r"]
    assert sector_index(back) is not None
    assert_exact(back)
    back.delete_rule("r")
    assert sector_index(back) is None


def test_a_value_that_cannot_be_a_key_is_still_stored_and_found():
    """``ANY`` admits values no hash index can key; the rule's index must
    not refuse a write the store accepts, nor lose the object."""
    db = HiPAC(lock_timeout=2.0)
    db.define_class(ClassDef("Blob", (AttributeDef("tag", AttrType.ANY),
                                      AttributeDef("n", AttrType.INT))))
    db.create_rule(Rule(
        name="same-tag", event=on_update("Blob", attrs=["n"]),
        condition=Condition.of(Query("Blob", Compare(
            Attr("tag"), "==", EventArg("new_tag")))),
        action=Action.call(lambda ctx: None)))
    with db.transaction() as txn:
        odd = db.create("Blob", {"tag": bytearray(b"x"), "n": 1}, txn)
        plain = db.create("Blob", {"tag": b"x", "n": 2}, txn)
    query = Query("Blob", Compare(Attr("tag"), "==", EventArg("t")))
    probe = db.object_manager.executor
    assert probe.plan(query, {"t": b"x"}).kind == "index-probe"
    for value in (b"x", bytearray(b"x")):
        assert probe.execute(query, {"t": value}).oids() == [odd, plain]
    with db.transaction() as txn:
        db.update(odd, {"tag": "y"}, txn)
    assert probe.execute(query, {"t": b"x"}).oids() == [plain]
    assert probe.execute(query, {"t": "y"}).oids() == [odd]


def test_concurrent_rule_creation_and_deletion_balance_the_requests():
    db, _ = make_db()
    errors = []

    def churn(worker):
        try:
            for round_ in range(15):
                name = "w%d-%d" % (worker, round_)
                db.create_rule(sector_rule(name))
                db.delete_rule(name)
        except Exception as exc:  # reported below, with the others
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, args=(n,)) for n in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert sector_index(db) is None
    db.create_rule(sector_rule("after"))
    assert_exact(db)


def test_rule_administration_soak_keeps_the_catalog_exact():
    """Twenty rounds of six threads creating, deleting and disabling rules
    on one event spec at once, switching threads as often as the
    interpreter allows.  Afterwards the detector counts one registration
    per live rule, and the catalog answers exactly the enabled ones, in
    firing order."""
    spec = on_update("Stock", attrs=["price"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            db, _ = make_db()
            errors = []
            start = threading.Barrier(6)

            def churn(worker):
                try:
                    start.wait()
                    for k in range(30):
                        name = "w%d-%d" % (worker, k)
                        db.create_rule(sector_rule(name))
                        if k % 3:
                            db.delete_rule(name)
                        elif worker % 2:
                            db.disable_rule(name)
                except Exception as exc:  # reported below, with the others
                    errors.append(exc)

            workers = [threading.Thread(target=churn, args=(n,))
                       for n in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
            assert errors == [], "round %d" % round_
            catalog = db.rule_catalog
            live = [catalog.get_rule(name) for name in catalog.rule_names()]
            assert len(live) == 60
            registration = catalog.detector_for(spec)._registrations[spec]
            assert registration.refcount == len(live), "round %d" % round_
            enabled = sorted((rule for rule in live if rule.enabled),
                             key=firing_order)
            assert len(enabled) == 30
            assert catalog.subscriptions[spec].rules == tuple(
                enabled), "round %d" % round_
            db.close()
    finally:
        sys.setswitchinterval(interval)


def test_a_query_never_sees_an_index_being_built():
    """Rules come and go while another thread probes the populated extent:
    the query sees no index (and scans) or a whole one, never a bucket
    still being filled."""
    db, _ = make_db(count=600)
    query = sector_rule("q", ceiling=1000.0).condition.queries[0]
    bindings = {"new_sector": "tech", "new_price": -1.0}
    probe = QueryExecutor(db.store)
    expected = QueryExecutor(db.store, use_indexes=False).execute(
        query, bindings).rows
    assert len(expected) == 200
    done = threading.Event()
    errors, wrong, probes = [], [], []

    def churn():
        try:
            for round_ in range(30):
                db.create_rule(sector_rule("r%d" % round_))
                db.delete_rule("r%d" % round_)
        except Exception as exc:  # reported below
            errors.append(exc)
        finally:
            done.set()

    def ask():
        try:
            while not done.is_set():
                rows = probe.execute(query, bindings).rows
                probes.append(1)
                if rows != expected:
                    wrong.append(len(rows))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn),
                   threading.Thread(target=ask)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert probes


def price_index(db):
    return db.store.indexes.get("Stock", "price")


def band(low=3.0, high=40.0):
    return Query("Stock", And(Attr("price") >= low, Attr("price") <= high))


def assert_bands_exact(db, txn=None):
    """Every band's answer, probed, is the scan's (inside ``txn``: under
    its S lock, with its own writes)."""
    scan = QueryExecutor(db.store, use_indexes=False)
    for low, high in ((0.0, 9.5), (3.0, 40.0), (100.0, 300.0), (-1, 1e9)):
        query = band(low, high)
        if txn is None:
            got = db.object_manager.executor.execute(query).oids()
        else:
            got = db.query(query, txn).oids()
        assert got == scan.execute(query).oids(), (low, high)


def price_rule(name):
    """A rule whose condition requests an index on ``price``."""
    return Rule(
        name=name, event=on_update("Stock", attrs=["sector"]),
        condition=Condition.of(Query("Stock", Compare(
            Attr("price"), "==", EventArg("new_price")))),
        action=Action.call(lambda ctx: None))


def test_a_range_request_survives_the_abort_that_made_it():
    db, oids = make_db()
    txn = db.begin()
    db.update(oids[5], {"price": 20.5}, txn)
    db.delete(oids[6], txn)
    db.create("Stock", {"symbol": "N", "price": 7.25}, txn)
    assert db.object_manager.query_plan(band()).kind == "index-range"
    assert price_index(db) is None
    assert_bands_exact(db, txn)            # requested under the txn's S
    index = price_index(db)
    assert index is not None
    db.abort(txn)
    assert price_index(db) is index        # undo went through it
    assert_bands_exact(db)
    assert index.lookup(5.0) == {oids[5]} and index.lookup(7.25) == set()


def test_a_static_range_condition_requests_no_index():
    """The condition graph answers a static condition after its first
    memory: the query that fills it requests nothing."""
    db, _ = make_db()
    db.create_rule(Rule(
        name="band", event=on_update("Stock", attrs=["sector"]),
        condition=Condition.of(band()), action=Action.call(lambda ctx: None)))
    assert price_index(db) is None


def test_a_range_request_is_forgotten_with_its_class():
    db, oids = make_db()
    assert_bands_exact(db)
    assert price_index(db) is not None
    with db.transaction() as txn:
        for oid in oids:
            db.delete(oid, txn)
    db.drop_class("Stock")
    db.define_class(stock_class())
    assert price_index(db) is None
    with db.transaction() as txn:
        db.create("Stock", {"symbol": "S", "price": 5.0}, txn)
    assert price_index(db) is None         # the insert filed no index
    assert_bands_exact(db)                 # the next range query asks anew
    assert price_index(db).lookup(5.0)


def test_range_and_rule_requests_release_nothing_of_each_other():
    db, _ = make_db()
    db.create_rule(price_rule("first"))          # the rule's index ...
    index = price_index(db)
    assert_bands_exact(db)                       # ... probed by range
    assert price_index(db) is index
    db.delete_rule("first")                      # no range request held it
    assert price_index(db) is None
    assert_bands_exact(db)                       # requested by range now
    index = price_index(db)
    db.create_rule(price_rule("second"))
    assert price_index(db) is index
    db.delete_rule("second")                     # the range request stands
    assert price_index(db) is index
    assert_bands_exact(db)
    db.create_rule(price_rule("third"))
    db.delete_rule("third")
    assert price_index(db) is index


def test_range_queries_racing_to_build_the_index_answer_as_the_scan():
    """Two threads run range queries that race to build the index (and
    its key order) while a third commits writes to the class; inside each
    reader's transaction the probe answers what a scan answers."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(8):
            db, oids = make_db(count=300)  # a build long enough to race
            start = threading.Barrier(3)
            errors = []

            def read(worker):
                try:
                    start.wait()
                    for k in range(12):
                        with db.transaction() as txn:
                            assert_bands_exact(db, txn)
                except Exception as exc:  # reported below, with the others
                    errors.append(exc)

            def write():
                try:
                    start.wait()
                    for k in range(40):
                        with db.transaction() as txn:
                            db.update(oids[k * 7 % len(oids)],
                                      {"price": k * 0.75}, txn)
                            if k % 4 == 0:
                                db.delete(oids.pop(), txn)
                                oids.insert(0, db.create(
                                    "Stock", {"symbol": "N%d" % k,
                                              "price": float(k)}, txn))
                except Exception as exc:  # reported below, with the others
                    errors.append(exc)

            threads = [threading.Thread(target=read, args=(n,))
                       for n in range(2)] + [threading.Thread(target=write)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [], "round %d: %r" % (round_, errors)
            assert price_index(db) is not None
            assert_bands_exact(db)
            db.close()
    finally:
        sys.setswitchinterval(interval)


# A step is one of:
#   ("create", sector, price)  ("update", target, sector)
#   ("delete", target)         ("rule", create?)  - a second rule comes or goes
# each step in its own transaction, committed or aborted.
STEPS = st.lists(st.tuples(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(SECTORS),
                  st.integers(0, 20)),
        st.tuples(st.just("update"), st.integers(0, 50),
                  st.sampled_from(SECTORS + ("",))),
        st.tuples(st.just("delete"), st.integers(0, 50)),
        st.tuples(st.just("rule"), st.booleans())),
    st.booleans()), max_size=12)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS, sector=st.sampled_from(SECTORS),
       bound=st.integers(0, 20))
def test_probe_equals_scan_after_random_steps_and_aborts(steps, sector, bound):
    db, oids = make_db(count=6)
    db.create_rule(sector_rule("keeper"))
    query = sector_rule("q").condition.queries[0]
    bindings = {"new_sector": sector, "new_price": float(bound) / 2}
    probe = QueryExecutor(db.store)
    scan = QueryExecutor(db.store, use_indexes=False)
    for (op, *args), commit in steps:
        txn = db.begin()
        live = [oid for oid in oids if db.store.exists(oid)]
        if op == "create":
            oids.append(db.create("Stock", {"symbol": "N", "sector": args[0],
                                            "price": float(args[1])}, txn))
        elif op == "update" and live:
            db.update(live[args[0] % len(live)], {"sector": args[1]}, txn)
        elif op == "delete" and live:
            db.delete(live[args[0] % len(live)], txn)
        elif op == "rule":
            if "extra" in db.rule_names():
                db.delete_rule("extra", txn)
            elif args[0]:
                db.create_rule(sector_rule("extra"), txn)
        if commit:
            db.commit(txn)
        else:
            db.abort(txn)
        assert_exact(db)
        assert probe.plan(query, bindings).kind == "index-probe"
        assert probe.execute(query, bindings).rows == \
            scan.execute(query, bindings).rows
