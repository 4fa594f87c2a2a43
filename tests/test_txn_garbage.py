"""Transaction trees are freed by reference counting (§3.1, §3.2).

A tree is held from its root down: ``parent.children`` holds each child and
a child reaches its parent through a weak reference.  So the trees rule
firings build hold no reference cycle, and the moment nothing holds a
finished tree it is gone, with no work left for the cycle collector.  While
something does hold it, the tree reads exactly as a tree of strong links
would.
"""

import gc
import weakref

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
    on_update,
)
from repro.txn.transaction import Transaction


def cyclic_garbage(run):
    """Run ``run()`` and return what only the cycle collector could free
    of it: the Transactions, and the lists and dicts one of them holds."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    txns = [obj for obj in garbage if isinstance(obj, Transaction)]
    held = {id(value) for txn in txns for value in vars(txn).values()}
    owned = [obj for obj in garbage
             if isinstance(obj, (list, dict)) and id(obj) in held]
    return txns, owned


def make_db(coupling):
    """One rule of ``coupling`` (E-C and C-A) on updates of Item, whose
    action creates an Echo; a second, immediate rule on Echo creation."""
    db = HiPAC()
    for name in ("Item", "Echo"):
        db.define_class(ClassDef(name, attributes(("v", "int"))))
    db.create_rule(Rule(
        name="watch", event=on_update("Item"), condition=Condition.true(),
        ec_coupling=coupling, ca_coupling=coupling,
        action=Action.call(lambda ctx: ctx.create("Echo", {"v": 1}))))
    db.create_rule(Rule(name="echo", event=on_create("Echo"),
                        condition=Condition.true(),
                        action=Action.call(lambda ctx: None)))
    with db.transaction() as txn:
        db.update(db.create("Item", {"v": 0}, txn), {"v": 1}, txn)
    db.drain()
    return db


def an_item(db):
    return next(iter(db.store.snapshot_state()["Item"]))


@pytest.fixture
def dbs():
    made = []

    def make(coupling):
        made.append(make_db(coupling))
        return made[-1]
    yield make
    for db in made:
        db.close()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("coupling", ["immediate", "deferred",
                                          "separate"])
    def test_committed_trees(self, dbs, coupling):
        db = dbs(coupling)
        oid = an_item(db)

        def run():
            for value in range(5):
                with db.transaction() as txn:
                    db.update(oid, {"v": value + 2}, txn)
            db.drain()
        txns, owned = cyclic_garbage(run)
        assert txns == [] and owned == []

    def test_aborted_trees(self, dbs):
        db = dbs("immediate")
        oid = an_item(db)
        db.create_rule(Rule(
            name="veto", event=on_update("Item"), condition=Condition.true(),
            action=Action.call(lambda ctx: 1 / 0)))

        def run():
            for value in range(5):
                with pytest.raises(ZeroDivisionError):
                    with db.transaction() as txn:
                        db.update(oid, {"v": value + 2}, txn)
            txn = db.begin()
            db.create("Echo", {"v": 3}, db.begin(txn))  # echo fires inside
            db.abort(txn)
        txns, owned = cyclic_garbage(run)
        assert txns == [] and owned == []
        assert db.transaction_manager.live_transactions() == []


class TestHeldTree:
    def test_held_tree_reads_as_before_and_is_freed_when_dropped(self, dbs):
        db = dbs("immediate")
        oid = an_item(db)
        with db.transaction() as top:
            db.update(oid, {"v": 5}, top)
        # watch: cond + act; the act's Echo fires echo: cond + act under it
        assert top.tree_size() == 5
        assert top.tree_depth() == 3
        cond, act = top.children
        assert cond.parent is top and act.parent is top
        assert [child.parent for child in act.children] == [act, act]
        assert [child.top_level() for child in act.children] == [top, top]
        assert act.children[0].is_descendant_of(top)
        assert list(act.children[1].ancestors()) == [act, top]
        gone = weakref.ref(top)
        leaf = weakref.ref(act.children[1])
        del top, cond, act
        assert gone() is None and leaf() is None  # no collection needed

    def test_an_active_parent_is_always_reachable(self, dbs):
        db = dbs("immediate")
        child = db.begin(db.begin())    # only the child is held here
        gc.collect()
        assert child.parent is not None and child.parent.is_active()
        db.abort(child.parent)
        assert child.is_finished()
