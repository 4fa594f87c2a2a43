"""Tests for the Securities Analyst's Assistant (paper §4.2, Figure 4.2)."""

import threading

import pytest

from repro import HiPAC, Query
from repro.saa import (
    POSITION_CLASS,
    STOCK_CLASS,
    TRADE_CLASS,
    SecuritiesAssistant,
)
from repro.workloads import MarketDataGenerator


@pytest.fixture
def saa():
    db = HiPAC(lock_timeout=5.0)
    assistant = SecuritiesAssistant(db, coupling="immediate")
    assistant.add_ticker("NYSE")
    assistant.add_display("alice")
    assistant.add_trader("TRDSVC")
    return assistant


class TestTicker:
    def test_first_quote_creates_stock(self, saa):
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        with saa.db.transaction() as txn:
            stocks = saa.db.query(Query(STOCK_CLASS), txn)
        assert stocks.values("symbol") == ["XRX"]
        assert ticker.stats["created"] == 1

    def test_subsequent_quotes_update(self, saa):
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("XRX", 46.0)
        with saa.db.transaction() as txn:
            stocks = saa.db.query(Query(STOCK_CLASS), txn)
        assert len(stocks) == 1
        assert stocks.first()["price"] == 46.0


class TestDisplayRules:
    def test_ticker_window_scrolls_quotes(self, saa):
        ticker = saa.tickers["NYSE"]
        display = saa.displays["alice"]
        ticker.push_quote("XRX", 45.0)   # create: no update event
        ticker.push_quote("XRX", 46.0)
        ticker.push_quote("XRX", 47.0)
        saa.drain()
        assert [(e.symbol, e.price) for e in display.ticker_window] == \
            [("XRX", 46.0), ("XRX", 47.0)]

    def test_every_display_gets_every_quote(self, saa):
        bob = saa.add_display("bob")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("XRX", 46.0)
        saa.drain()
        assert len(saa.displays["alice"].ticker_window) == 1
        assert len(bob.ticker_window) == 1


class TestTradingRules:
    def test_trade_executes_at_limit(self, saa):
        saa.add_trading_rule(client="A", symbol="XRX", shares=500,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("XRX", 49.0)
        assert saa.traders["TRDSVC"].stats["trades"] == 0
        ticker.push_quote("XRX", 50.0)
        saa.drain()
        assert saa.traders["TRDSVC"].stats["trades"] == 1

    def test_one_shot_rule_fires_once(self, saa):
        saa.add_trading_rule(client="A", symbol="XRX", shares=500,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 51.0)
        ticker.push_quote("XRX", 52.0)
        ticker.push_quote("XRX", 53.0)
        saa.drain()
        assert saa.traders["TRDSVC"].stats["trades"] == 1

    def test_other_symbols_do_not_trigger(self, saa):
        saa.add_trading_rule(client="A", symbol="XRX", shares=500,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("IBM", 99.0)
        ticker.push_quote("IBM", 100.0)
        saa.drain()
        assert saa.traders["TRDSVC"].stats["trades"] == 0

    def test_trade_records_position_and_trade(self, saa):
        saa.add_trading_rule(client="A", symbol="XRX", shares=300,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 49.0)
        ticker.push_quote("XRX", 55.0)
        saa.drain()
        with saa.db.transaction() as txn:
            trades = saa.db.query(Query(TRADE_CLASS), txn)
            positions = saa.db.query(Query(POSITION_CLASS), txn)
        assert trades.values("shares") == [300]
        assert positions.values("shares") == [300]

    def test_trade_displayed_via_event_rule(self, saa):
        """The trade-executed external event drives the display rule that
        shows the trade and updates the portfolio view (paper §4.2)."""
        saa.add_trading_rule(client="A", symbol="XRX", shares=200,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 48.0)
        ticker.push_quote("XRX", 52.0)
        saa.drain()
        display = saa.displays["alice"]
        assert display.trade_log == [{"symbol": "XRX", "shares": 200,
                                      "price": 52.0, "client": "A"}]
        assert display.portfolio_view[("A", "XRX")] == 200

    def test_unknown_service_rejected(self, saa):
        with pytest.raises(KeyError):
            saa.add_trading_rule(client="A", symbol="XRX", shares=1,
                                 limit=1.0, service="NOPE")


class TestParadigmObservations:
    def test_no_direct_program_interactions(self, saa):
        """§4.2: 'There are no direct interactions between the application
        programs.  All interactions take place through rules firing.'"""
        saa.add_trading_rule(client="A", symbol="XRX", shares=100,
                             limit=50.0, service="TRDSVC")
        ticker = saa.tickers["NYSE"]
        for price in (48.0, 51.0, 52.0):
            ticker.push_quote("XRX", price)
        saa.drain()
        assert saa.direct_program_interactions() == 0
        assert saa.rule_mediated_interactions() > 0

    def test_behavior_changed_by_rules_not_software(self, saa):
        """§4.2: 'To modify the behavior of the application, we would change
        the rules rather than the software.'  Disabling the display rule
        stops quote delivery without touching any program."""
        ticker = saa.tickers["NYSE"]
        ticker.push_quote("XRX", 45.0)
        ticker.push_quote("XRX", 46.0)
        saa.db.disable_rule("saa:ticker-window:alice")
        ticker.push_quote("XRX", 47.0)
        saa.drain()
        assert len(saa.displays["alice"].ticker_window) == 1


class TestSeparateCouplingSAA:
    def test_paper_coupling_end_to_end(self):
        """The SAA with the paper's actual coupling (separate) delivers the
        same results asynchronously."""
        db = HiPAC(lock_timeout=5.0)
        saa = SecuritiesAssistant(db)  # separate coupling
        ticker = saa.add_ticker("NYSE")
        display = saa.add_display("alice")
        trader = saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="A", symbol="XRX", shares=100,
                             limit=50.0, service="TRDSVC")
        gen = MarketDataGenerator(["XRX", "IBM"], seed=3,
                                  initial_price=45.0, step=2.0)
        for quote in gen.stream(120):
            ticker.push_quote(quote.symbol, quote.price)
        assert saa.drain(timeout=30.0)
        assert trader.stats["trades"] == 1
        assert display.trade_log
        assert db.rule_manager.background_errors == []

    def test_one_shot_rule_trades_once_when_two_firings_interleave(self):
        """Two separate firings of a one-shot trading rule that have both
        passed the condition before either action runs: the action checks
        and disables under the rule object's lock before it trades, so
        exactly one of them does."""
        db = HiPAC(lock_timeout=5.0)
        saa = SecuritiesAssistant(db)  # separate coupling
        ticker = saa.add_ticker("NYSE")
        trader = saa.add_trader("TRDSVC")
        rule = saa.add_trading_rule(client="A", symbol="XRX", shares=100,
                                    limit=50.0, service="TRDSVC")
        ticker.push_quote("XRX", 45.0)
        assert saa.drain(timeout=30.0)
        # Gate the action: neither firing starts it until both are there,
        # i.e. until both conditions have been evaluated.
        both = threading.Barrier(2, timeout=10.0)
        step = rule.action.steps[0]
        trade = step.fn
        step.fn = lambda ctx: (both.wait(), trade(ctx))
        ticker.push_quote("XRX", 55.0)
        ticker.push_quote("XRX", 56.0)
        assert saa.drain(timeout=30.0)
        assert trader.stats["trades"] == 1
        with db.transaction() as txn:
            assert len(db.query(Query(TRADE_CLASS), txn)) == 1
        assert db.rule_manager.background_errors == []
