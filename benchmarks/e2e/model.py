"""Seeded input generators and the plain-Python oracles of the six workloads.

Nothing here imports ``repro``: each class draws a workload's inputs from
``random.Random(seed)`` and, while drawing them, advances a shadow model
(dicts and counters) of what the engine must hold afterwards.  The engine
sees only the generated inputs; the oracle never sees engine code.

Every stream is *stationary* — prices revert to a mean, extents keep their
size — so that any block of stimuli costs about as much as any other and a
different ``--seed`` gives a different stream of the same shape.  A free
random walk does not have that property: the share of quotes above a fixed
limit then follows the arcsine law and differs by multiples between seeds.
"""

from __future__ import annotations

import random
import string
from typing import Any, Dict, List, Optional, Tuple


def symbols(count: int) -> List[str]:
    """``count`` distinct ticker symbols: AAA, AAB, ..."""
    letters = string.ascii_uppercase
    return [letters[i // 676 % 26] + letters[i // 26 % 26] + letters[i % 26]
            for i in range(count)]


class QuoteFeed:
    """The SAA wire feed: a mean-reverting random walk per symbol.

    The oracle counts what the two SAA rules must do: the ticker-window
    rule displays every quote that *updates* a stock (the first quote of a
    symbol creates it and triggers nothing), and the trading rule trades on
    every such quote of ``watched`` at or above ``limit``.  Both rules are
    on "update stock *price*": a quote that repeats the stored price changes
    no attribute and is not that event.
    """

    def __init__(self, seed: int, *, count: int = 8, mean: float = 100.0,
                 step: float = 3.0, pull: float = 0.5,
                 watched: str = "AAA", limit: float = 102.0) -> None:
        self._rng = random.Random(seed)
        self.symbols = symbols(count)
        self.mean, self.step, self.pull = mean, step, pull
        self.watched, self.limit = watched, limit
        self.last: Dict[str, float] = {}
        self.pushed = 0
        self.displayed = 0
        self.trades = 0

    def next(self) -> Tuple[str, float]:
        rng = self._rng
        symbol = rng.choice(self.symbols)
        previous = self.last.get(symbol, self.mean)
        price = round(previous + rng.uniform(-self.step, self.step)
                      + self.pull * (self.mean - previous), 2)
        self.pushed += 1
        if symbol in self.last and price != previous:
            self.displayed += 1
            if symbol == self.watched and price >= self.limit:
                self.trades += 1
        self.last[symbol] = price
        return symbol, price

    def block(self, count: int) -> List[Tuple[str, float]]:
        return [self.next() for _ in range(count)]


class PoissonSchedule:
    """Due times (seconds from the start of a block) of an open-loop
    arrival process at a fixed mean rate."""

    def __init__(self, seed: int, rate: float) -> None:
        self._rng = random.Random(seed ^ 0x5EED)
        self.rate = rate

    def block(self, count: int) -> List[float]:
        due, now = [], 0.0
        for _ in range(count):
            now += self._rng.expovariate(self.rate)
            due.append(now)
        return due


class StockExtent:
    """``cond_scan``: an extent of stocks, one price update per stimulus.

    Rule *k* of the workload asks for the stocks of the updated stock's
    sector priced above the new price and below ``ceilings[k]``; the rows
    it hands to its action are counted here from the shadow dict.  A new
    price equal to the stored one is no "update price" event.
    """

    SECTORS = ("tech", "energy", "finance", "health", "retail")

    def __init__(self, seed: int, *, size: int, ceilings: List[float],
                 low: float = 50.0, high: float = 150.0) -> None:
        self._rng = random.Random(seed)
        self.low, self.high = low, high
        self.ceilings = ceilings
        # Sectors of equal size: how many rows a condition walks is set by
        # the size of a sector, so drawing it would make some seeds dearer.
        self.rows: List[Dict[str, Any]] = [
            {"symbol": "S%04d" % i,
             "sector": self.SECTORS[i % len(self.SECTORS)],
             "price": round(self._rng.uniform(low, high), 2)}
            for i in range(size)]
        self.rows_to_actions = 0
        self.actions = 0

    def next(self) -> Tuple[int, float]:
        index = self._rng.randrange(len(self.rows))
        price = round(self._rng.uniform(self.low, self.high), 2)
        row = self.rows[index]
        if price == row["price"]:
            return index, price
        row["price"] = price
        sector = row["sector"]
        peers = [other["price"] for other in self.rows
                 if other["sector"] == sector and other["price"] > price]
        for ceiling in self.ceilings:
            matched = sum(1 for peer in peers if peer < ceiling)
            if matched:
                self.actions += 1
                self.rows_to_actions += matched
        return index, price

    def block(self, count: int) -> List[Tuple[int, float]]:
        return [self.next() for _ in range(count)]


# passive_mix operation codes
READ, POINT, RANGE, UPDATE, CREATE, DELETE = range(6)
_OP_WEIGHTS = ((READ, 30), (POINT, 20), (RANGE, 10),
               (UPDATE, 20), (CREATE, 10), (DELETE, 10))


class AccountBook:
    """``passive_mix``: transactions of four operations over accounts.

    Accounts are named by the model's own integer keys; the harness maps a
    key to the engine's OID when the create runs.  ``expect`` of a read is
    the balance the engine must return, of a query the number of rows.
    An aborted transaction leaves the shadow dict untouched.
    """

    def __init__(self, seed: int, *, size: int, ops_per_txn: int = 4,
                 abort_share: float = 0.05, range_width: float = 50.0) -> None:
        self._rng = random.Random(seed)
        self.ops_per_txn = ops_per_txn
        self.abort_share = abort_share
        self.range_width = range_width
        self.balances: Dict[int, float] = {}
        self._keys: List[int] = []
        self._next_key = 0
        self.initial = [self._new_account() for _ in range(size)]
        self.aborted = 0
        self.ops = 0

    def _new_account(self) -> Tuple[int, float]:
        key = self._next_key
        self._next_key += 1
        balance = round(self._rng.uniform(0.0, 10000.0), 2)
        self.balances[key] = balance
        self._keys.append(key)
        return key, balance

    def _drop(self, key: int) -> None:
        # Swap-remove: later choices stay determined by the seed alone.
        index = self._keys.index(key)
        self._keys[index] = self._keys[-1]
        self._keys.pop()
        del self.balances[key]

    def next(self) -> Tuple[bool, List[Tuple[int, Any, Any]]]:
        """One transaction: ``(commit, [(op, argument, expect), ...])``."""
        rng = self._rng
        commit = rng.random() >= self.abort_share
        ops: List[Tuple[int, Any, Any]] = []
        pending: Dict[int, Optional[float]] = {}   # key -> new balance / None
        created: List[Tuple[int, float]] = []
        codes = rng.choices([code for code, _ in _OP_WEIGHTS],
                            [weight for _, weight in _OP_WEIGHTS],
                            k=self.ops_per_txn)
        for code in codes:
            if code == CREATE:
                key = self._next_key
                self._next_key += 1
                balance = round(rng.uniform(0.0, 10000.0), 2)
                created.append((key, balance))
                ops.append((CREATE, (key, balance), None))
                continue
            if code == RANGE:
                low = round(rng.uniform(0.0, 10000.0 - self.range_width), 2)
                high = low + self.range_width
                # Counted against this transaction's own view.
                view = dict(self.balances)
                view.update(pending)
                view.update(created)
                matched = sum(1 for value in view.values()
                              if value is not None and low <= value < high)
                ops.append((RANGE, (low, high), matched))
                continue
            key = rng.choice(self._keys)
            if pending.get(key, 0.0) is None:
                continue        # deleted earlier in this transaction
            current = pending.get(key, self.balances[key])
            if code == READ:
                ops.append((READ, key, current))
            elif code == POINT:
                ops.append((POINT, key, 1))
            elif code == UPDATE:
                balance = round(rng.uniform(0.0, 10000.0), 2)
                pending[key] = balance
                ops.append((UPDATE, (key, balance), None))
            else:
                pending[key] = None
                ops.append((DELETE, key, None))
        self.ops += len(ops)
        if commit:
            for key, value in pending.items():
                if value is None:
                    self._drop(key)
                else:
                    self.balances[key] = value
            for key, value in created:
                self.balances[key] = value
                self._keys.append(key)
        else:
            self.aborted += 1
        return commit, ops

    def block(self, count: int) -> list:
        return [self.next() for _ in range(count)]


class PartTree:
    """``coupling_mix``: leaf parts under assemblies; a transaction updates
    the quantity of ``updates`` distinct leaves.

    The immediate rule adds each new leaf quantity into the assembly's
    ``total`` (a second update, the depth-2 cascade); the deferred rule
    fires for both updates at commit; the separate rule, on "update
    *qty*", fires on its own thread for every leaf whose quantity changed.
    """

    def __init__(self, seed: int, *, leaves: int, assemblies: int,
                 updates: int = 8) -> None:
        self._rng = random.Random(seed)
        self.updates = updates
        self.parent = [index % assemblies for index in range(leaves)]
        self.qty = [0] * leaves
        self.totals = [0] * assemblies
        self.immediate = 0
        self.deferred = 0
        self.separate = 0

    def next(self) -> List[Tuple[int, int]]:
        rng = self._rng
        txn = []
        for leaf in rng.sample(range(len(self.qty)), self.updates):
            qty = rng.randrange(1, 1000)
            if qty != self.qty[leaf]:
                self.separate += 1
            self.qty[leaf] = qty
            self.totals[self.parent[leaf]] += qty
            txn.append((leaf, qty))
        self.immediate += self.updates
        self.deferred += 2 * self.updates
        return txn

    def block(self, count: int) -> List[List[Tuple[int, int]]]:
        return [self.next() for _ in range(count)]
