"""Tests for the condition graph: sharing, incremental maintenance, undo."""

import pytest

from repro import (
    And,
    Attr,
    ClassDef,
    Compare,
    Condition,
    EventArg,
    HiPAC,
    Or,
    Query,
    attributes,
)
from repro.conditions.graph import alpha_key
from repro.events.signal import EventSignal


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Stock", attributes(
        "symbol", ("price", "number"))))
    yield database
    database.close()


def evaluator(db):
    return db.condition_evaluator


def add_condition(db, condition):
    with db.transaction() as txn:
        evaluator(db).add_rule(condition, txn)


def signal_for(db):
    return EventSignal(kind="external", name="probe", args={})


class TestSharing:
    def test_identical_queries_share_one_node(self, db):
        q1 = Query("Stock", Attr("price") > 50)
        q2 = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(q1))
        add_condition(db, Condition.of(q2))
        assert evaluator(db).graph.node_count() == 1
        assert evaluator(db).graph.stats["nodes_shared"] == 1

    def test_different_predicates_get_own_nodes(self, db):
        add_condition(db, Condition.of(Query("Stock", Attr("price") > 50)))
        add_condition(db, Condition.of(Query("Stock", Attr("price") > 60)))
        assert evaluator(db).graph.node_count() == 2

    def test_projection_does_not_break_sharing(self, db):
        q1 = Query("Stock", Attr("price") > 50, project=("symbol",))
        q2 = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(q1))
        add_condition(db, Condition.of(q2))
        assert evaluator(db).graph.node_count() == 1

    def test_both_spellings_of_a_conjunction_share_one_node(self, db):
        a, b, c = Attr("price") > 50, Attr("price") < 90, Attr("symbol") != "X"
        chained, flat = a & b & c, And(a, b, c)
        assert chained == flat and hash(chained) == hash(flat)
        assert (a | b | c) == Or(a, b, c)
        assert And(a, Or(b, c)) != And(a, b, c)     # only same-kind nesting flattens
        add_condition(db, Condition.of(Query("Stock", chained)))
        add_condition(db, Condition.of(Query("Stock", flat)))
        assert evaluator(db).graph.node_count() == 1

    def test_parameterized_queries_not_materialized(self, db):
        q = Query("Stock", Compare(Attr("price"), ">", EventArg("limit")))
        add_condition(db, Condition.of(q))
        assert evaluator(db).graph.node_count() == 0

    def test_release_drops_node_at_zero_refs(self, db):
        q = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(q))
        add_condition(db, Condition.of(q))
        with db.transaction() as txn:
            evaluator(db).delete_rule(Condition.of(q), txn)
        assert evaluator(db).graph.node_count() == 1
        with db.transaction() as txn:
            evaluator(db).delete_rule(Condition.of(q), txn)
        assert evaluator(db).graph.node_count() == 0


class TestIncrementalMaintenance:
    def add_watch(self, db, threshold=50):
        query = Query("Stock", Attr("price") > threshold)
        add_condition(db, Condition.of(query))
        return evaluator(db).graph.node_for(query)

    def test_memory_initialized_from_existing_data(self, db):
        with db.transaction() as txn:
            hi = db.create("Stock", {"symbol": "H", "price": 90.0}, txn)
            db.create("Stock", {"symbol": "L", "price": 10.0}, txn)
        node = self.add_watch(db)
        assert node.memory == {hi}

    def test_create_enters_memory(self, db):
        node = self.add_watch(db)
        with db.transaction() as txn:
            hi = db.create("Stock", {"symbol": "H", "price": 90.0}, txn)
            db.create("Stock", {"symbol": "L", "price": 10.0}, txn)
        assert node.memory == {hi}

    def test_update_moves_in_and_out(self, db):
        node = self.add_watch(db)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 10.0}, txn)
        assert node.memory == set()
        with db.transaction() as txn:
            db.update(oid, {"price": 70.0}, txn)
        assert node.memory == {oid}
        with db.transaction() as txn:
            db.update(oid, {"price": 20.0}, txn)
        assert node.memory == set()

    def test_delete_leaves_memory(self, db):
        node = self.add_watch(db)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "A", "price": 90.0}, txn)
        with db.transaction() as txn:
            db.delete(oid, txn)
        assert node.memory == set()

    def test_abort_reverts_memory(self, db):
        node = self.add_watch(db)
        with db.transaction() as txn:
            keeper = db.create("Stock", {"symbol": "K", "price": 90.0}, txn)
        txn = db.begin()
        db.create("Stock", {"symbol": "T", "price": 95.0}, txn)
        db.update(keeper, {"price": 5.0}, txn)
        db.abort(txn)
        assert node.memory == {keeper}

    def test_abort_of_nested_child_reverts_only_child(self, db):
        node = self.add_watch(db)
        top = db.begin()
        a = db.create("Stock", {"symbol": "A", "price": 90.0}, top)
        child = db.begin(top)
        b = db.create("Stock", {"symbol": "B", "price": 91.0}, child)
        db.abort(child)
        assert node.memory == {a}
        db.commit(top)
        assert node.memory == {a}


class TestDeltaRouting:
    """Deltas reach a node through its class or, with subclasses included,
    through an ancestor of the delta's class — and no other node."""

    def test_subclass_deltas_follow_the_include_flag(self, db):
        own = Query("Stock", Attr("price") > 50, include_subclasses=False)
        both = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(own))
        add_condition(db, Condition.of(both))
        # defined after the nodes exist: coverage is resolved per delta
        db.define_class(ClassDef("Preferred", (), superclass="Stock"))
        db.define_class(ClassDef("Bond", attributes(("price", "number"))))
        graph = evaluator(db).graph
        with db.transaction() as txn:
            stock = db.create("Stock", {"symbol": "S", "price": 90.0}, txn)
            pref = db.create("Preferred", {"symbol": "P", "price": 90.0}, txn)
            db.create("Bond", {"price": 90.0}, txn)
        assert graph.node_for(own).memory == {stock}
        assert graph.node_for(both).memory == {stock, pref}
        assert graph.stats["deltas_processed"] == 3
        assert graph.stats["memory_updates"] == 3

    def test_released_node_no_longer_receives_deltas(self, db):
        query = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(query))
        node = evaluator(db).graph.node_for(query)
        with db.transaction() as txn:
            evaluator(db).delete_rule(Condition.of(query), txn)
        add_condition(db, Condition.of(Query("Stock", Attr("price") > 60)))
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "S", "price": 90.0}, txn)
        assert node.memory == set()
        assert evaluator(db).graph.stats["memory_updates"] == 1

    def test_aborted_delete_puts_the_node_back_on_its_route(self, db):
        query = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(query))
        txn = db.begin()
        evaluator(db).delete_rule(Condition.of(query), txn)
        db.abort(txn)
        with db.transaction() as txn:
            oid = db.create("Stock", {"symbol": "S", "price": 90.0}, txn)
        assert evaluator(db).graph.node_for(query).memory == {oid}


class TestGraphEvaluation:
    def test_graph_answers_match_naive(self, db):
        query = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(query))
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "H", "price": 90.0}, txn)
            db.create("Stock", {"symbol": "L", "price": 10.0}, txn)
        with db.transaction() as txn:
            outcome = evaluator(db).evaluate(
                Condition.of(query), signal_for(db), txn)
        assert outcome.satisfied
        assert outcome.results[0].values("symbol") == ["H"]
        assert evaluator(db).stats["graph_answers"] == 1

    def test_memo_shares_within_round(self, db):
        query = Query("Stock", Attr("price") > 50)
        add_condition(db, Condition.of(query))
        memo = {}
        with db.transaction() as txn:
            evaluator(db).evaluate(Condition.of(query), signal_for(db), txn,
                                   memo=memo)
            evaluator(db).evaluate(Condition.of(query), signal_for(db), txn,
                                   memo=memo)
        assert evaluator(db).stats["memo_hits"] == 1

    def test_guard_applied(self, db):
        cond = Condition(queries=(), guard=lambda bindings, results: False)
        with db.transaction() as txn:
            outcome = evaluator(db).evaluate(cond, signal_for(db), txn)
        assert not outcome.satisfied

    def test_guard_exception_wrapped(self, db):
        from repro.errors import ConditionError
        cond = Condition(queries=(),
                         guard=lambda bindings, results: 1 / 0)
        with pytest.raises(ConditionError):
            with db.transaction() as txn:
                evaluator(db).evaluate(cond, signal_for(db), txn)

    def test_empty_condition_trivially_satisfied(self, db):
        with db.transaction() as txn:
            outcome = evaluator(db).evaluate(Condition.true(), signal_for(db), txn)
        assert outcome.satisfied
        assert outcome.results == []

    def test_multi_query_all_must_match(self, db):
        q_hi = Query("Stock", Attr("price") > 50)
        q_lo = Query("Stock", Attr("price") < 5)
        cond = Condition.of(q_hi, q_lo)
        add_condition(db, cond)
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "H", "price": 90.0}, txn)
        with db.transaction() as txn:
            outcome = evaluator(db).evaluate(cond, signal_for(db), txn)
        assert not outcome.satisfied

    def test_parameterized_query_uses_bindings(self, db):
        query = Query("Stock", Compare(Attr("symbol"), "==", EventArg("sym")))
        cond = Condition.of(query)
        add_condition(db, cond)
        with db.transaction() as txn:
            db.create("Stock", {"symbol": "A", "price": 1.0}, txn)
        signal = EventSignal(kind="external", name="probe", args={"sym": "A"})
        with db.transaction() as txn:
            outcome = evaluator(db).evaluate(cond, signal, txn)
        assert outcome.satisfied

    def test_naive_mode_never_uses_graph(self):
        db = HiPAC(lock_timeout=2.0)
        db.condition_evaluator.use_graph = False
        db.define_class(ClassDef("Stock", attributes("symbol", ("price", "number"))))
        query = Query("Stock", Attr("price") > 50)
        with db.transaction() as txn:
            db.condition_evaluator.add_rule(Condition.of(query), txn)
        assert db.condition_evaluator.graph.node_count() == 0
        with db.transaction() as txn:
            db.condition_evaluator.evaluate(
                Condition.of(query), EventSignal(kind="external", name="p"), txn)
        assert db.condition_evaluator.stats["executor_answers"] == 1


class TestAlphaKey:
    def test_key_ignores_projection(self):
        q1 = Query("S", Attr("a") > 1, project=("a",))
        q2 = Query("S", Attr("a") > 1, limit=5)
        assert alpha_key(q1) == alpha_key(q2)

    def test_key_respects_subclass_flag(self):
        q1 = Query("S", Attr("a") > 1, include_subclasses=False)
        q2 = Query("S", Attr("a") > 1)
        assert alpha_key(q1) != alpha_key(q2)
