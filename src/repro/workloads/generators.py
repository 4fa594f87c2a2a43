"""Deterministic workload generators for experiments and benchmarks.

Everything is seeded: the experiments must produce the same rule sets,
quote streams, and job mixes on every run.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence

from repro.conditions.condition import Condition
from repro.events.spec import on_update
from repro.objstore.predicates import And, Attr, Compare, Const
from repro.objstore.query import Query
from repro.rules.actions import Action, CallStep
from repro.rules.rule import Rule
from repro.scheduler.timecon import Job


@dataclass(frozen=True)
class Quote:
    """One market quote produced by the generator."""

    seq: int
    symbol: str
    price: float


def make_symbols(count: int) -> List[str]:
    """Generate ``count`` distinct ticker symbols (AAA, AAB, ...)."""
    letters = string.ascii_uppercase
    symbols = []
    i = 0
    while len(symbols) < count:
        a, rest = divmod(i, 26 * 26)
        b, c = divmod(rest, 26)
        symbols.append(letters[a % 26] + letters[b] + letters[c])
        i += 1
    return symbols


class MarketDataGenerator:
    """A seeded random-walk price feed over a fixed symbol universe.

    Models the paper's wire service: an endless stream of price quotes.
    """

    def __init__(self, symbols: Sequence[str], *, seed: int = 7,
                 initial_price: float = 100.0, step: float = 1.0,
                 min_price: float = 1.0) -> None:
        self.symbols = list(symbols)
        self._rng = random.Random(seed)
        self._prices = {symbol: float(initial_price) for symbol in self.symbols}
        self._step = step
        self._min_price = min_price
        self._seq = 0

    def next_quote(self) -> Quote:
        """Produce the next quote (random symbol, random-walk price)."""
        symbol = self._rng.choice(self.symbols)
        price = self._prices[symbol] + self._rng.uniform(-self._step, self._step)
        price = max(self._min_price, round(price, 2))
        self._prices[symbol] = price
        self._seq += 1
        return Quote(self._seq, symbol, price)

    def stream(self, count: int) -> Iterator[Quote]:
        """Yield ``count`` quotes."""
        for _ in range(count):
            yield self.next_quote()


def make_threshold_rules(count: int, class_name: str = "Stock", *,
                         attr: str = "price",
                         shared_fraction: float = 0.0,
                         threshold_base: float = 100.0,
                         sink: Optional[Callable] = None,
                         ec_coupling: str = "immediate",
                         ca_coupling: str = "immediate",
                         name_prefix: str = "threshold") -> List[Rule]:
    """Generate ``count`` threshold-watching rules for the Q2/A1 benches.

    ``shared_fraction`` of the rules pose the *same* condition query (and so
    share one condition-graph node); the rest get distinct thresholds.  The
    action records the firing into ``sink`` (or does nothing).
    """
    rules: List[Rule] = []
    shared_count = int(round(count * shared_fraction))
    record = sink if sink is not None else (lambda ctx: None)
    for i in range(count):
        if i < shared_count:
            threshold = threshold_base
        else:
            threshold = threshold_base + 1.0 + i
        query = Query(class_name, Attr(attr) > threshold)
        rules.append(Rule(
            name="%s-%04d" % (name_prefix, i),
            event=on_update(class_name, attrs=[attr]),
            condition=Condition(queries=(query,), name="q%d" % i),
            action=Action.of(CallStep(record, label="record")),
            ec_coupling=ec_coupling,
            ca_coupling=ca_coupling,
        ))
    return rules


def make_symbol_rules(symbols: Sequence[str], *, limit: float = 100.0,
                      sink: Optional[Callable] = None,
                      ec_coupling: str = "immediate",
                      ca_coupling: str = "immediate") -> List[Rule]:
    """One trading-style rule per symbol: price of that symbol exceeds
    ``limit`` (the SAA scale-out rule set)."""
    record = sink if sink is not None else (lambda ctx: None)
    rules = []
    for i, symbol in enumerate(symbols):
        query = Query("Stock", And(
            Compare(Attr("symbol"), "==", Const(symbol)),
            Attr("price") > limit,
        ))
        rules.append(Rule(
            name="watch-%s" % symbol,
            event=on_update("Stock", attrs=["price"]),
            condition=Condition(queries=(query,), name="watch-%s" % symbol),
            action=Action.of(CallStep(record, label="record")),
            ec_coupling=ec_coupling,
            ca_coupling=ca_coupling,
        ))
    return rules


def make_jobs(count: int, *, seed: int = 11, load: float = 0.9,
              servers: int = 1, mean_service: float = 1.0,
              slack_factor: float = 3.0) -> List[Job]:
    """Generate transaction jobs for the time-constrained scheduling bench.

    ``load`` is the offered utilization (arrival rate x mean service /
    servers); deadlines are arrival + service x ``slack_factor`` jittered.
    """
    rng = random.Random(seed)
    rate = load * servers / mean_service
    jobs: List[Job] = []
    now = 0.0
    for i in range(count):
        now += rng.expovariate(rate)
        service = rng.expovariate(1.0 / mean_service)
        slack = service * slack_factor * rng.uniform(0.5, 1.5)
        jobs.append(Job(job_id=i, arrival=now, service=service,
                        deadline=now + service + slack))
    return jobs
