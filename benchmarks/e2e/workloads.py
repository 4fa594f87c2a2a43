"""The six workloads, built against the public ``repro`` API.

A workload owns one HiPAC instance and one seeded model (:mod:`.model`).
``setup`` builds schema, rules and the seed extent and runs the warm-up;
``generate(n)`` draws the next *n* stimuli (advancing the oracle);
``issue(item)`` runs one stimulus; ``verify`` compares what the engine did
with the model and returns the mismatches as strings.

``block`` freezes the stimuli per block.  They were sized on the reference
box (2 cores) so that one block lasts 60 to 170 ms and a 10 s run holds
sixty to a hundred and fifty of them; they are counts, not times, so the
same work is measured whatever the host speed.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro import (DEFERRED, IMMEDIATE, SEPARATE, Action, And, Attr,
                   AttrType, AttributeDef, ClassDef, Compare, Condition, Const,
                   EventArg, HiPAC, Query, Rule, on_update)
from repro.saa import SecuritiesAssistant

from . import model

#: open-loop arrival rate of ``saa_open`` (stimuli/s) and its latency limit
OPEN_RATE = 3000.0
OPEN_LIMIT_US = 2000.0


class Workload:
    """Base: sizes, life cycle, and the hooks the harness calls."""

    name = ""
    block = 0               # stimuli per block
    warmup = 1000           # stimuli run by setup() before the first block
    open_rate: Optional[float] = None
    #: methods of this object that rule actions call (traced as apps.action)
    traced_actions: tuple = ()

    def __init__(self, seed: int, workdir: Path, quick: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        if quick:
            self.block = max(10, self.block // 4)
            self.warmup = max(10, self.warmup // 10)
        self.db: Any = None

    def setup(self) -> None:
        self.build()
        for item in self.generate(self.warmup):
            self.issue(item)
        self.end_block()

    def build(self) -> None:
        raise NotImplementedError

    def generate(self, count: int) -> list:
        raise NotImplementedError

    def issue(self, item: Any) -> None:
        raise NotImplementedError

    def end_block(self) -> None:
        """Inside the timed region, after a block's last stimulus."""

    def verify(self) -> List[str]:
        raise NotImplementedError

    def durable_bytes(self) -> int:
        """Bytes this instance has on disk."""
        return 0

    def close(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None


# ---------------------------------------------------------------- SAA

class SaaMem(Workload):
    """Paper §4.2: ticker + display + trader + one durable trading rule,
    immediate coupling, ``HiPAC()`` defaults."""

    name = "saa_mem"
    block = 500

    def options(self) -> Dict[str, Any]:
        return {}

    def build(self) -> None:
        self.feed = model.QuoteFeed(self.seed)
        self.db = HiPAC(lock_timeout=30.0, **self.options())
        saa = SecuritiesAssistant(self.db, coupling="immediate")
        self.ticker = saa.add_ticker("NYSE")
        self.display = saa.add_display("analyst-0")
        self.trader = saa.add_trader("TRDSVC")
        saa.add_trading_rule(client="client-A", symbol=self.feed.watched,
                             shares=500, limit=self.feed.limit,
                             service="TRDSVC", one_shot=False)

    def generate(self, count: int) -> list:
        return self.feed.block(count)

    def issue(self, item: Any) -> None:
        self.ticker.push_quote(item[0], item[1])

    def verify(self) -> List[str]:
        self.db.drain()
        wrong = []
        displayed = len(self.display.ticker_window)
        if displayed != self.feed.displayed:
            wrong.append("displayed %d quotes, model %d"
                         % (displayed, self.feed.displayed))
        if self.trader.stats["trades"] != self.feed.trades:
            wrong.append("executed %d trades, model %d"
                         % (self.trader.stats["trades"], self.feed.trades))
        if len(self.display.trade_log) != self.feed.trades:
            wrong.append("displayed %d trades, model %d"
                         % (len(self.display.trade_log), self.feed.trades))
        return wrong


class SaaDurable(SaaMem):
    """The same stream on the stack users deploy: WAL forced at every
    top-level commit, flight journal at its 100 ms interval, provenance."""

    name = "saa_durable"
    block = 100

    def options(self) -> Dict[str, Any]:
        self.data_dir = self.workdir / "data"
        return {"durability": "wal", "data_dir": self.data_dir,
                "wal_fsync": True, "flight_recorder": True,
                "provenance": True}

    def durable_bytes(self) -> int:
        """WAL + journal bytes on disk, after pushing the journal's queue."""
        self.db.flight_recorder.flush()
        return sum(path.stat().st_size
                   for path in self.data_dir.rglob("*") if path.is_file())

    def verify(self) -> List[str]:
        wrong = super().verify()
        # Durability: what a restart recovers from the bytes on disk.
        self.close()
        reopened = HiPAC(durability="wal", data_dir=self.data_dir,
                         observability=False)
        try:
            with reopened.transaction() as txn:
                rows = reopened.query(Query("SAA::Stock"), txn).rows
            stored = {row["symbol"]: row["price"] for row in rows}
        finally:
            reopened.close()
        if stored != self.feed.last:
            wrong.extend("recovered %s=%r, last quote %r"
                         % (symbol, stored.get(symbol), price)
                         for symbol, price in sorted(self.feed.last.items())
                         if stored.get(symbol) != price)
        return wrong


class SaaOpen(SaaMem):
    """``saa_mem`` fed on a Poisson schedule instead of waiting for HiPAC."""

    name = "saa_open"
    block = 500
    open_rate = OPEN_RATE

    def build(self) -> None:
        super().build()
        self.schedule = model.PoissonSchedule(self.seed, OPEN_RATE)


# ----------------------------------------------------------- cond_scan

def _stock_class(name: str) -> ClassDef:
    return ClassDef(name, (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("sector", AttrType.STRING, default=""),
        AttributeDef("price", AttrType.NUMBER, default=0.0)))


def scan_rules(class_name: str, ceilings: List[float], on_rows: Any,
               bands: int) -> List[Rule]:
    """The 8 parameterised scan rules and ``bands`` static band rules."""
    rules = []
    for k, ceiling in enumerate(ceilings):
        query = Query(class_name, And(
            Compare(Attr("sector"), "==", EventArg("new_sector")),
            Attr("price") > EventArg("new_price"),
            Attr("price") < ceiling))
        rules.append(Rule(
            name="scan-%d" % k,
            event=on_update(class_name, attrs=["price"]),
            condition=Condition.of(query),
            action=Action.call(on_rows, "rows")))
    width = 100.0 / bands
    for k in range(bands):
        low = 50.0 + k * width
        query = Query(class_name, And(Attr("price") >= low,
                                      Attr("price") < low + width))
        rules.append(Rule(
            name="band-%d" % k,
            event=on_update(class_name, attrs=["sector"]),
            condition=Condition.of(query),
            action=Action.call(lambda ctx: None, "never")))
    return rules


class CondScan(Workload):
    """Conditions that the executor answers by walking predicates over an
    extent, plus static conditions kept current on every delta."""

    name = "cond_scan"
    block = 25
    warmup = 150
    traced_actions = ("on_rows",)
    CEILINGS = [80.0 + 10.0 * k for k in range(8)]
    BANDS = 24
    EXTENT = 400

    def build(self) -> None:
        self.extent = model.StockExtent(self.seed, size=self.EXTENT,
                                        ceilings=self.CEILINGS)
        self.rows_seen = 0
        self.actions_run = 0
        self.db = HiPAC(lock_timeout=30.0)
        self.db.define_class(_stock_class("Stock"))
        with self.db.transaction() as txn:
            self.oids = [self.db.create("Stock", dict(row), txn)
                         for row in self.extent.rows]
        for rule in scan_rules("Stock", self.CEILINGS,
                               lambda ctx: self.on_rows(ctx), self.BANDS):
            self.db.create_rule(rule)

    def on_rows(self, ctx: Any) -> None:
        self.actions_run += 1
        self.rows_seen += len(ctx.results[0])

    def generate(self, count: int) -> list:
        return self.extent.block(count)

    def issue(self, item: Any) -> None:
        with self.db.transaction() as txn:
            self.db.update(self.oids[item[0]], {"price": item[1]}, txn)

    def verify(self) -> List[str]:
        wrong = []
        if self.actions_run != self.extent.actions:
            wrong.append("ran %d actions, model %d"
                         % (self.actions_run, self.extent.actions))
        if self.rows_seen != self.extent.rows_to_actions:
            wrong.append("handed %d rows to actions, model %d"
                         % (self.rows_seen, self.extent.rows_to_actions))
        return wrong


# --------------------------------------------------------- passive_mix

class PassiveMix(Workload):
    """Reads, queries, writes and aborts on a class no rule watches."""

    name = "passive_mix"
    block = 100
    warmup = 500
    EXTENT = 2000

    def build(self) -> None:
        self.book = model.AccountBook(self.seed, size=self.EXTENT)
        self.wrong_answers: List[str] = []
        self.db = db = HiPAC(lock_timeout=30.0)
        db.define_class(ClassDef("Account", (
            AttributeDef("owner", AttrType.STRING, required=True,
                         indexed=True),
            AttributeDef("balance", AttrType.NUMBER, default=0.0))))
        # The whole rule set of cond_scan, on a class never touched here:
        # dispatch has to turn every signal of this workload away.
        db.define_class(_stock_class("Stock"))
        for rule in scan_rules("Stock", CondScan.CEILINGS,
                               lambda ctx: self.wrong_answers.append(
                                   "rule %s fired" % ctx.rule.name),
                               CondScan.BANDS):
            db.create_rule(rule)
        self.oids: Dict[int, Any] = {}
        with db.transaction() as txn:
            for key, balance in self.book.initial:
                self.oids[key] = db.create(
                    "Account", {"owner": "acct-%d" % key, "balance": balance},
                    txn)

    def generate(self, count: int) -> list:
        return self.book.block(count)

    def issue(self, item: Any) -> None:
        commit, ops = item
        db, oids = self.db, self.oids
        created = []
        txn = db.begin()
        try:
            for code, arg, expect in ops:
                if code == model.READ:
                    got = db.read(oids[arg], txn)["balance"]
                elif code == model.POINT:
                    got = len(db.query(Query("Account", Compare(
                        Attr("owner"), "==", Const("acct-%d" % arg))), txn))
                elif code == model.RANGE:
                    got = len(db.query(Query("Account", And(
                        Attr("balance") >= arg[0],
                        Attr("balance") < arg[1])), txn))
                elif code == model.UPDATE:
                    db.update(oids[arg[0]], {"balance": arg[1]}, txn)
                    continue
                elif code == model.CREATE:
                    created.append((arg[0], db.create(
                        "Account", {"owner": "acct-%d" % arg[0],
                                    "balance": arg[1]}, txn)))
                    continue
                else:
                    db.delete(oids[arg], txn)
                    continue
                if got != expect:
                    self.wrong_answers.append(
                        "op %d on %r returned %r, model %r"
                        % (code, arg, got, expect))
        except BaseException:
            db.abort(txn)
            raise
        if commit:
            db.commit(txn)
            oids.update(created)
        else:
            db.abort(txn)

    def verify(self) -> List[str]:
        wrong = list(self.wrong_answers)
        with self.db.transaction() as txn:
            rows = self.db.query(Query("Account"), txn).rows
        stored = {row["owner"]: row["balance"] for row in rows}
        expected = {"acct-%d" % key: balance
                    for key, balance in self.book.balances.items()}
        if stored != expected:
            keys = sorted(set(stored) ^ set(expected)) or sorted(
                key for key in expected if stored[key] != expected[key])
            wrong.append("store differs from the model on %d accounts (%s...)"
                         % (len(keys), ", ".join(keys[:3])))
        aborted = self.db.stats()["transactions"]["aborted"]
        if aborted < self.book.aborted:
            wrong.append("engine aborted %d transactions, model %d"
                         % (aborted, self.book.aborted))
        return wrong


# -------------------------------------------------------- coupling_mix

class CouplingMix(Workload):
    """The paper's coupling modes in one transaction: an immediate rule
    that cascades, a deferred rule run at commit, a separate rule run on
    its own thread."""

    name = "coupling_mix"
    block = 25
    warmup = 150
    traced_actions = ("roll_up", "at_commit", "on_thread")
    LEAVES = 256
    ASSEMBLIES = 16

    def build(self) -> None:
        self.tree = model.PartTree(self.seed, leaves=self.LEAVES,
                                   assemblies=self.ASSEMBLIES)
        self.fired = {"immediate": 0, "deferred": 0, "separate": 0}
        self._count_mutex = threading.Lock()
        self.db = db = HiPAC(lock_timeout=30.0)
        db.define_class(ClassDef("Part", (
            AttributeDef("kind", AttrType.STRING, default="leaf"),
            AttributeDef("parent", AttrType.INT, default=-1),
            AttributeDef("qty", AttrType.INT, default=0),
            AttributeDef("total", AttrType.INT, default=0))))
        with db.transaction() as txn:
            self.assemblies = [db.create("Part", {"kind": "assembly"}, txn)
                               for _ in range(self.ASSEMBLIES)]
            self.leaves = [db.create("Part", {"parent": parent}, txn)
                           for parent in self.tree.parent]
        db.create_rule(Rule(
            name="roll-up", event=on_update("Part"),
            condition=Condition(
                guard=lambda bindings, results:
                bindings.get("new_kind") == "leaf", name="is-leaf"),
            action=Action.call(lambda ctx: self.roll_up(ctx), "roll-up"),
            ec_coupling=IMMEDIATE, ca_coupling=IMMEDIATE))
        db.create_rule(Rule(
            name="audit", event=on_update("Part"),
            action=Action.call(lambda ctx: self.at_commit(ctx), "audit"),
            ec_coupling=DEFERRED, ca_coupling=IMMEDIATE))
        db.create_rule(Rule(
            name="notify", event=on_update("Part", attrs=["qty"]),
            action=Action.call(lambda ctx: self.on_thread(ctx), "notify"),
            ec_coupling=SEPARATE, ca_coupling=IMMEDIATE,
            separate_dependent=True))

    def roll_up(self, ctx: Any) -> None:
        """Immediate action: add the leaf's new quantity to its assembly —
        an update that signals again, one level down (depth 2)."""
        self.fired["immediate"] += 1
        assembly = self.assemblies[ctx.bindings["new_parent"]]
        total = ctx.read(assembly)["total"]
        ctx.update(assembly, {"total": total + ctx.bindings["new_qty"]})

    def at_commit(self, ctx: Any) -> None:
        self.fired["deferred"] += 1

    def on_thread(self, ctx: Any) -> None:
        """Separate action: read the part.  The rule is a *dependent*
        separate rule, launched when the triggering transaction commits, so
        the read finds the write lock released."""
        ctx.read(ctx.bindings["oid"])
        with self._count_mutex:
            self.fired["separate"] += 1

    def generate(self, count: int) -> list:
        return self.tree.block(count)

    def issue(self, item: Any) -> None:
        with self.db.transaction() as txn:
            for leaf, qty in item:
                self.db.update(self.leaves[leaf], {"qty": qty}, txn)

    def end_block(self) -> None:
        if not self.db.drain(60.0):
            raise RuntimeError("separate firings did not drain")

    def verify(self) -> List[str]:
        self.db.drain()
        wrong = ["%s rule fired %d times, model %d"
                 % (coupling, self.fired[coupling], expected)
                 for coupling, expected in (
                     ("immediate", self.tree.immediate),
                     ("deferred", self.tree.deferred),
                     ("separate", self.tree.separate))
                 if self.fired[coupling] != expected]
        with self.db.transaction() as txn:
            totals = [self.db.read(oid, txn)["total"]
                      for oid in self.assemblies]
            qty = [self.db.read(oid, txn)["qty"] for oid in self.leaves]
        if totals != self.tree.totals:
            wrong.append("assembly totals differ from the model")
        if qty != self.tree.qty:
            wrong.append("leaf quantities differ from the model")
        wrong.extend("background error in %s: %s" % error
                     for error in self.db.rule_manager.background_errors)
        return wrong


WORKLOADS = {cls.name: cls for cls in (SaaMem, SaaDurable, SaaOpen, CondScan,
                                       PassiveMix, CouplingMix)}
