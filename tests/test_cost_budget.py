"""The cost budget: Python and C calls per stimulus, exact and host-free.

Microseconds drift with the host; calls do not.  Each shape below builds a
fixed-seed workload on the public API, warms it up, then counts every call
the stimulus thread makes under :func:`sys.setprofile` for a fixed number of
stimuli.  Python calls are attributed to the per-layer ledger's names by
the module that defines the called function (``txn.locks``, ``txn``,
``rules``, ...; anything outside ``repro`` is ``other``).

``cost_budget.json`` holds the numbers, keyed by Python minor version
(3.11 counts a comprehension as a call, 3.12 inlines it).  Any rise fails
and names its layer; a fall fails too, until the change that made it
lowers the file — so the file's history is the trajectory.  A version
with no entry skips and prints what it measured, ready to paste in.

Every shape is single-threaded and deterministic: two runs give the same
numbers to the last digit.  The slow log's threshold is lifted for the
count, because whether an action crosses it depends on the host's speed.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import pytest

from repro import (Action, And, Attr, AttrType, AttributeDef, ClassDef,
                   Compare, Condition, Const, EventArg, HiPAC, Query, Rule,
                   on_update)
from repro.saa import SecuritiesAssistant

BUDGET_FILE = Path(__file__).with_name("cost_budget.json")
VERSION = "%d.%d" % sys.version_info[:2]

#: The observability tax, ``saa`` minus ``saa_observability_off``, may not
#: exceed the tax measured when provenance began folding its queue in
#: batches, rounded up to the next whole call, Python and C separately.
#: Unlike the budget, a fall below the cap passes.
OBSERVABILITY_TAX_CAP = {"python": 8, "c": 25}

#: package under ``repro`` -> ledger layer, where the names differ
_LAYER_OF_PACKAGE = {"saa": "apps"}


def layer(module: str) -> str:
    """The ledger layer a module's Python calls are charged to."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "txn" and parts[2:3] == ["locks"]:
        return "txn.locks"
    return _LAYER_OF_PACKAGE.get(parts[1], parts[1])


def count_calls(issue: Callable[[Any], None], items: List[Any],
                finish: Optional[Callable[[], Any]] = None) -> Dict[str, Any]:
    """Calls per stimulus while ``issue`` runs each of ``items`` here,
    then ``finish`` (if given) once, still counted."""
    python: Counter = Counter()
    c_calls = 0
    layers: Dict[str, str] = {}

    def profile(frame: Any, event: str, arg: Any) -> None:
        nonlocal c_calls
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            name = layers.get(module)
            if name is None:
                name = layers[module] = layer(module)
            python[name] += 1
        elif event == "c_call":
            c_calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        for item in items:
            issue(item)
        if finish is not None:
            finish()
    finally:
        sys.setprofile(None)
        gc.enable()
    per = float(len(items))
    return {"python": round(sum(python.values()) / per, 3),
            "c": round(c_calls / per, 3),
            "layers": {name: round(calls / per, 3)
                       for name, calls in sorted(python.items())}}


# --------------------------------------------------------------- shapes

def _quotes(seed: int, count: int) -> List[Tuple[str, float]]:
    """A mean-reverting quote walk over eight symbols."""
    rng = random.Random(seed)
    symbols = ["S%d" % k for k in range(8)]
    last: Dict[str, float] = {}
    quotes = []
    for _ in range(count):
        symbol = rng.choice(symbols)
        previous = last.get(symbol, 100.0)
        price = round(previous + rng.uniform(-3.0, 3.0)
                      + 0.5 * (100.0 - previous), 2)
        last[symbol] = price
        quotes.append((symbol, price))
    return quotes


def saa_shape(observability: bool) -> Tuple[HiPAC, Callable, List[Any]]:
    """Paper §4.2: ticker, display, trader and one trading rule, immediate
    coupling — two firings per quote."""
    db = HiPAC(lock_timeout=30.0, observability=observability)
    saa = SecuritiesAssistant(db, coupling="immediate")
    ticker = saa.add_ticker("NYSE")
    saa.add_display("analyst")
    saa.add_trader("TRDSVC")
    saa.add_trading_rule(client="client-A", symbol="S0", shares=500,
                         limit=102.0, service="TRDSVC", one_shot=False)
    quotes = _quotes(11, 3000)
    for symbol, price in quotes[:1000]:
        ticker.push_quote(symbol, price)
    return db, lambda quote: ticker.push_quote(*quote), quotes[1000:]


def _stock_class() -> ClassDef:
    return ClassDef("Stock", (
        AttributeDef("symbol", AttrType.STRING, required=True, indexed=True),
        AttributeDef("sector", AttrType.STRING, default=""),
        AttributeDef("price", AttrType.NUMBER, default=0.0)))


def _scan_rules(on_rows: Callable[[Any], None]) -> List[Rule]:
    """Eight parameterised scan rules and eight static band rules."""
    rules = [Rule(
        name="scan-%d" % k, event=on_update("Stock", attrs=["price"]),
        condition=Condition.of(Query("Stock", And(
            Compare(Attr("sector"), "==", EventArg("new_sector")),
            Attr("price") > EventArg("new_price"),
            Attr("price") < 80.0 + 10.0 * k))),
        action=Action.call(on_rows, "rows")) for k in range(8)]
    rules += [Rule(
        name="band-%d" % k, event=on_update("Stock", attrs=["sector"]),
        condition=Condition.of(Query("Stock", And(
            Attr("price") >= 50.0 + 12.5 * k,
            Attr("price") < 62.5 + 12.5 * k))),
        action=Action.call(lambda ctx: None, "never")) for k in range(8)]
    return rules


def cond_scan_shape() -> Tuple[HiPAC, Callable, List[Any]]:
    """Parameterised conditions scanned over a 200-object extent."""
    rng = random.Random(11)
    db = HiPAC(lock_timeout=30.0)
    db.define_class(_stock_class())
    with db.transaction() as txn:
        oids = [db.create("Stock", {
            "symbol": "S%d" % k, "sector": rng.choice(("tech", "bank")),
            "price": round(rng.uniform(50.0, 150.0), 2)}, txn)
            for k in range(200)]
    for rule in _scan_rules(lambda ctx: None):
        db.create_rule(rule)
    updates = [(rng.randrange(len(oids)), round(rng.uniform(50.0, 150.0), 2))
               for _ in range(150)]

    def issue(update: Tuple[int, float]) -> None:
        with db.transaction() as txn:
            db.update(oids[update[0]], {"price": update[1]}, txn)
    for update in updates[:50]:
        issue(update)
    return db, issue, updates[50:]


def passive_mix_shape() -> Tuple[HiPAC, Callable, List[Any]]:
    """Reads, queries and writes on a class no rule watches, one
    transaction in twenty aborted; the scan rules sit on another class."""
    rng = random.Random(11)
    db = HiPAC(lock_timeout=30.0)
    db.define_class(ClassDef("Account", (
        AttributeDef("owner", AttrType.STRING, required=True, indexed=True),
        AttributeDef("balance", AttrType.NUMBER, default=0.0))))
    db.define_class(_stock_class())
    for rule in _scan_rules(lambda ctx: None):
        db.create_rule(rule)
    with db.transaction() as txn:
        oids = [db.create("Account", {"owner": "acct-%d" % k,
                                      "balance": float(k)}, txn)
                for k in range(300)]
    batches = [(rng.random() >= 0.05,
                [rng.randrange(len(oids)) for _ in range(4)])
               for _ in range(600)]

    def issue(batch: Tuple[bool, List[int]]) -> None:
        commit, keys = batch
        txn = db.begin()
        db.read(oids[keys[0]], txn)
        db.query(Query("Account", Compare(
            Attr("owner"), "==", Const("acct-%d" % keys[1]))), txn)
        db.query(Query("Account", And(Attr("balance") >= keys[2],
                                      Attr("balance") < keys[2] + 5)), txn)
        db.update(oids[keys[3]], {"balance": float(keys[0])}, txn)
        if commit:
            db.commit(txn)
        else:
            db.abort(txn)
    for batch in batches[:200]:
        issue(batch)
    return db, issue, batches[200:]


SHAPES: Dict[str, Callable[[], Tuple[HiPAC, Callable, List[Any]]]] = {
    "saa": lambda: saa_shape(observability=True),
    "saa_observability_off": lambda: saa_shape(observability=False),
    "cond_scan": cond_scan_shape,
    "passive_mix": passive_mix_shape,
}


@functools.lru_cache(maxsize=None)
def measure(shape: str) -> Dict[str, Any]:
    """Build ``shape``, count its measured stimuli, close it (once per
    process: the counts are deterministic).

    Provenance publishes into a queue that a later call folds; a stats
    read folds it, once before the window and once inside it after the
    last stimulus, so the window pays for every fold its stimuli queued.
    The timeseries ticker is stopped first: its stats read would fold on
    its own thread, at a point that depends on the host's speed.
    """
    db, issue, items = SHAPES[shape]()
    db.slow_log.threshold = float("inf")
    if db.timeseries is not None:
        db.timeseries.stop()
    finish = None
    if db.provenance is not None:
        db.provenance.stats_snapshot()
        finish = db.provenance.stats_snapshot
    try:
        return count_calls(issue, items, finish)
    finally:
        db.close()


def budget_violations(shape: str, budget: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Every number that moved, with the layer it moved in."""
    rows = [("python", budget["python"], measured["python"]),
            ("c", budget["c"], measured["c"])]
    names = sorted(set(budget["layers"]) | set(measured["layers"]))
    rows += [(name, budget["layers"].get(name, 0.0),
              measured["layers"].get(name, 0.0)) for name in names]
    problems = []
    for name, allowed, got in rows:
        delta = round(got - allowed, 3)
        if delta > 0:
            problems.append("%s: %s +%s calls/stimulus (budget %s, measured"
                            " %s)" % (shape, name, delta, allowed, got))
        elif delta < 0:
            problems.append("%s: %s %s calls/stimulus (budget %s, measured"
                            " %s): lower %s in this change"
                            % (shape, name, delta, allowed, got,
                               BUDGET_FILE.name))
    return problems


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_calls_per_stimulus_match_the_budget(shape):
    measured = measure(shape)
    entry = json.loads(BUDGET_FILE.read_text()).get(VERSION, {}).get(shape)
    if entry is None:
        print("\n%s %s: %s" % (VERSION, shape, json.dumps(measured)))
        pytest.skip("no %s budget for Python %s" % (shape, VERSION))
    assert budget_violations(shape, entry, measured) == []


def test_observability_tax_stays_under_its_cap():
    if VERSION not in json.loads(BUDGET_FILE.read_text()):
        pytest.skip("no budget for Python %s" % VERSION)
    on, off = measure("saa"), measure("saa_observability_off")
    for kind, cap in OBSERVABILITY_TAX_CAP.items():
        tax = round(on[kind] - off[kind], 3)
        assert tax <= cap, ("observability costs %s %s calls a quote (cap %s)"
                            % (tax, kind, cap))


def test_a_rise_names_its_layer():
    budget = {"python": 10.0, "c": 5.0, "layers": {"txn": 4.0, "rules": 6.0}}
    moved = {"python": 14.1, "c": 5.0, "layers": {"txn": 8.1, "rules": 6.0}}
    problems = budget_violations("saa", budget, moved)
    assert problems[0].startswith("saa: python +4.1")
    assert problems[1].startswith("saa: txn +4.1 calls/stimulus")
    lowered = budget_violations("saa", moved, budget)
    assert all("lower cost_budget.json" in line for line in lowered)


def test_layers_follow_the_ledger():
    assert layer("repro.txn.locks") == "txn.locks"
    assert layer("repro.txn.manager") == "txn"
    assert layer("repro.saa.programs") == "apps"
    assert layer("repro.rules.manager") == "rules"
    assert layer("threading") == "other"
