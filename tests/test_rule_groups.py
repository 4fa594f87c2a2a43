"""Tests for rule groups (paper §4.2: the SAA's display and trading rule
groups)."""

import pytest

from repro import (
    Action,
    ClassDef,
    Condition,
    HiPAC,
    Rule,
    attributes,
    on_create,
)
from repro.saa import SecuritiesAssistant


@pytest.fixture
def db():
    database = HiPAC(lock_timeout=2.0)
    database.define_class(ClassDef("Doc", attributes("title")))
    yield database
    database.close()


def grouped_rule(name, group, sink):
    return Rule(name=name, event=on_create("Doc"),
                condition=Condition.true(),
                action=Action.call(lambda ctx: sink.append(name)),
                group=group)


class TestGroups:
    def test_rules_listed_by_group(self, db):
        sink = []
        db.create_rule(grouped_rule("d1", "display", sink))
        db.create_rule(grouped_rule("d2", "display", sink))
        db.create_rule(grouped_rule("t1", "trading", sink))
        assert db.rules_in_group("display") == ["d1", "d2"]
        assert db.rules_in_group("trading") == ["t1"]
        assert db.rules_in_group("nothing") == []

    def test_group_stored_in_rule_object(self, db):
        sink = []
        rule = db.create_rule(grouped_rule("d1", "display", sink))
        with db.transaction() as txn:
            assert db.read(rule.oid, txn)["group"] == "display"

    def test_disable_group_silences_all_members(self, db):
        sink = []
        db.create_rule(grouped_rule("d1", "display", sink))
        db.create_rule(grouped_rule("d2", "display", sink))
        db.create_rule(grouped_rule("t1", "trading", sink))
        db.disable_group("display")
        with db.transaction() as txn:
            db.create("Doc", {"title": "x"}, txn)
        assert sink == ["t1"]

    def test_enable_group_restores(self, db):
        sink = []
        db.create_rule(grouped_rule("d1", "display", sink))
        db.disable_group("display")
        db.enable_group("display")
        with db.transaction() as txn:
            db.create("Doc", {"title": "x"}, txn)
        assert sink == ["d1"]

    def test_group_toggle_is_transactional(self, db):
        sink = []
        db.create_rule(grouped_rule("d1", "display", sink))
        txn = db.begin()
        db.rule_catalog.disable_group("display", txn)
        db.abort(txn)
        with db.transaction() as t2:
            db.create("Doc", {"title": "x"}, t2)
        assert sink == ["d1"]


class TestSAAGroups:
    def test_saa_rules_carry_paper_groups(self):
        db = HiPAC(lock_timeout=2.0)
        saa = SecuritiesAssistant(db, coupling="immediate")
        saa.add_ticker("NYSE")
        saa.add_display("alice")
        saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="A", symbol="XRX", shares=1,
                             limit=50.0, service="TRDSVC")
        assert db.rules_in_group("display") == [
            "saa:ticker-window:alice", "saa:trade-display:alice"]
        assert db.rules_in_group("trading") == ["saa:trade:A:XRX:1"]

    def test_disabling_display_group_mutes_all_displays(self):
        db = HiPAC(lock_timeout=2.0)
        saa = SecuritiesAssistant(db, coupling="immediate")
        ticker = saa.add_ticker("NYSE")
        alice = saa.add_display("alice")
        bob = saa.add_display("bob")
        db.disable_group("display")
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("XRX", 46.0)
        assert alice.ticker_window == []
        assert bob.ticker_window == []
