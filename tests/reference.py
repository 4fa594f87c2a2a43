"""A reference interpreter of HiPAC's rule semantics, for differential tests.

It runs the same :class:`~repro.rules.rule.Rule` objects as the engine, on
one thread and with none of the engine's machinery: no index, condition
graph, memo, lock or transaction tree.  The store is a dict of attribute
dicts, a condition is ``predicate.matches`` over it, and an aborted
top-level transaction puts back a copy taken at its start.

What it interprets (paper §3 and §6.2-§6.3):

* update-triggered rules (``on_update(class, attrs=...)``), taken in firing
  order: priority descending, then name;
* immediate and deferred E-C coupling crossed with immediate and deferred
  C-A coupling.  The immediate conditions an operation triggers are all
  evaluated before any of their actions runs.  Deferred work waits for the
  top-level commit, which repeats rounds until none is left: each round
  evaluates the deferred conditions, routes their actions, then runs the
  actions deferred before the round began;
* conditions made of unprojected, unordered queries and an optional guard;
  actions that update (and so cascade) or raise.  Any exception aborts the
  whole top-level transaction.

Each evaluated condition appends ``[rule name, satisfied, rows]`` to
:attr:`Reference.log`, in evaluation order; ``rows`` becomes the rows
handed to the action when the action runs (``(oid, value of attr)`` per
row, one list per query) and stays None otherwise.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Tuple

DEFERRED = "deferred"


class _Context:
    """What an action sees: its rule, bindings and results, and ``update``."""

    def __init__(self, reference: "Reference", rule: Any,
                 bindings: Dict[str, Any], results: List[list]) -> None:
        self.rule, self.bindings, self.results = rule, bindings, results
        self._reference = reference

    def update(self, oid: Any, changes: Dict[str, Any]) -> None:
        self._reference.update(oid, changes)


class Reference:
    """Interprets ``rules`` over ``store`` (OID -> attribute dict)."""

    def __init__(self, store: Dict[Any, Dict[str, Any]], rules: List[Any],
                 attr: str = "v") -> None:
        self.store = copy.deepcopy(store)
        self.rules = sorted(rules, key=lambda rule: (-rule.priority, rule.name))
        self.attr = attr
        self.log: List[list] = []
        self._conditions: List[Tuple[Any, Dict[str, Any]]] = []
        self._actions: List[Tuple[Any, Dict[str, Any], List[list], list]] = []

    # ------------------------------------------------ top-level transactions

    def run(self, updates: List[Tuple[Any, Dict[str, Any]]]) -> bool:
        """One top-level transaction: ``updates`` in order, then commit.
        Returns whether it committed; an abort restores the store."""
        saved = copy.deepcopy(self.store)
        self._conditions, self._actions = [], []
        try:
            for oid, changes in updates:
                self.update(oid, changes)
            self._commit()
        except Exception:
            self.store = saved
            return False
        return True

    def _commit(self) -> None:
        while self._conditions or self._actions:
            conditions, self._conditions = self._conditions, []
            actions, self._actions = self._actions, []
            self._fire_group(conditions)
            for action in actions:
                self._act(*action)

    # ------------------------------------------------------------ operations

    def update(self, oid: Any, changes: Dict[str, Any]) -> None:
        """Write ``changes`` and fire the rules the update triggers."""
        old = self.store[oid]
        new = dict(old, **changes)
        self.store[oid] = new
        changed = {name for name in set(old) | set(new)
                   if old.get(name) != new.get(name)}
        bindings = {"oid": oid, "class_name": oid.class_name,
                    "old": dict(old), "new": dict(new)}
        bindings.update(("old_%s" % name, value) for name, value in old.items())
        bindings.update(("new_%s" % name, value) for name, value in new.items())
        immediate = []
        for rule in self.rules:
            spec = rule.event
            if (spec.class_name != oid.class_name
                    or (spec.attrs is not None and not spec.attrs & changed)):
                continue
            if rule.ec_coupling == DEFERRED:
                self._conditions.append((rule, bindings))
            else:
                immediate.append((rule, bindings))
        self._fire_group(immediate)

    # ---------------------------------------------------------------- firing

    def _fire_group(self, firings: List[Tuple[Any, Dict[str, Any]]]) -> None:
        """Every condition first, then each satisfied rule's action."""
        outcomes = [self._evaluate(rule, bindings) for rule, bindings in firings]
        for (rule, bindings), outcome in zip(firings, outcomes):
            if outcome is None:
                continue
            entry, results = outcome
            if rule.ca_coupling == DEFERRED:
                self._actions.append((rule, bindings, results, entry))
            else:
                self._act(rule, bindings, results, entry)

    def _evaluate(self, rule: Any, bindings: Dict[str, Any]
                  ) -> Optional[Tuple[list, List[list]]]:
        condition = rule.condition
        results = [self._answer(query, bindings) for query in condition.queries]
        satisfied = all(results) and (
            condition.guard is None or bool(condition.guard(bindings, results)))
        entry = [rule.name, satisfied, None]
        self.log.append(entry)
        return (entry, results) if satisfied else None

    def _answer(self, query: Any, bindings: Dict[str, Any]) -> list:
        return [(oid, attrs) for oid, attrs in sorted(self.store.items())
                if oid.class_name == query.class_name
                and query.predicate.matches(attrs, bindings)]

    def _act(self, rule: Any, bindings: Dict[str, Any], results: List[list],
             entry: list) -> None:
        entry[2] = [[(oid, attrs.get(self.attr)) for oid, attrs in result]
                    for result in results]
        rule.action.run(_Context(self, rule, dict(bindings), results))
