"""The Condition Evaluator (paper §5.5).

"After an event has been detected, the Condition Evaluator is responsible
for efficiently determining which rule conditions are satisfied (among the
rules triggered by the particular event)."  Its paper interface — used only
by the Rule Manager — is:

* **Add Rule** — register a rule's condition in the condition graph;
* **Delete Rule** — remove it;
* **Evaluate Conditions** — given an event signal (and the coupling mode),
  determine whether a condition is satisfied and produce the query results
  handed to the action.

Efficiency techniques (paper: "multiple query optimization, incremental
evaluation, and materialization of derived data"):

* static queries answer from shared, incrementally-maintained alpha-node
  memories (:mod:`repro.conditions.graph`) after taking extent locks —
  O(answer) instead of O(extent) per rule per event;
* parameterized queries run through the (index-aware) executor, with a
  per-signal **memo** so that many rules sharing one query evaluate it once
  per event;
* every attribute a parameterized query tests by equality is indexed on
  each extent the query ranges over: *Add Rule* requests the index from the
  store and *Delete Rule* releases it (shared by reference count), so the
  executor probes one bucket instead of scanning the extent;
* ``use_graph=False`` turns the graph off (the naive baseline for the
  sharing-ablation benchmark: every rule re-runs every query from scratch);
  whether an index is probed is the executor's ``use_indexes`` alone.
"""

from __future__ import annotations

import time as _time
from typing import Any, Dict, List, Optional, Tuple

from repro.core import tracing
from repro.conditions.condition import Condition, ConditionOutcome
from repro.conditions.graph import ConditionGraph
from repro.errors import ConditionError
from repro.events.signal import EventSignal
from repro.obs.metrics import HOT_PATH_SAMPLE, MetricsRegistry
from repro.obs.slowlog import SlowLog
from repro.objstore.joins import JoinQuery
from repro.objstore.manager import ObjectManager
from repro.objstore.predicates import equality_lookups
from repro.objstore.query import Query, QueryResult
from repro.txn.transaction import Transaction
from repro.txn.undo import CallbackUndo
from repro.util.canonical import freeze

Memo = Dict[Tuple, QueryResult]
"""Per-signal evaluation cache: (query key, bindings fingerprint) -> result."""

IndexKeys = Tuple[Tuple[str, str], ...]
"""The ``(class, attribute)`` indexes one rule's condition requested."""


class ConditionEvaluator:
    """Evaluates rule conditions, sharing work through the condition graph."""

    def __init__(self, object_manager: ObjectManager,
                 tracer: Optional[tracing.Tracer] = None,
                 use_graph: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 slow_log: Optional[SlowLog] = None) -> None:
        self._om = object_manager
        self._tracer = tracer or tracing.Tracer()
        self._metrics = metrics or MetricsRegistry(enabled=False)
        # `is not None`, not truthiness: an empty SlowLog is falsy (len 0).
        self._slow_log = (slow_log if slow_log is not None
                          else SlowLog(enabled=False))
        #: sampled (see Histogram.should_sample): graph-backed evaluations
        #: run in microseconds; the slow log inspects the same sampled
        #: timings, so a recurring slow condition still surfaces quickly
        self._eval_seconds = self._metrics.histogram(
            "condition_eval_seconds", sample=HOT_PATH_SAMPLE)
        self.use_graph = use_graph
        self.graph = ConditionGraph(object_manager.store)
        object_manager.add_delta_listener(self.graph.on_delta)
        self.stats = {"evaluations": 0, "graph_answers": 0,
                      "executor_answers": 0, "memo_hits": 0}

    # ------------------------------------------------- paper §5.5 interface

    def add_rule(self, condition: Condition, txn: Transaction) -> IndexKeys:
        """Add a rule's condition to the condition graph.

        Each static query is registered as a (possibly shared) alpha node;
        the initial memory comes from running the query through the Object
        Manager in ``txn`` (acquiring the extent locks that make it exact).
        Each parameterized query requests its equality indexes; the
        requests made are returned, for :meth:`delete_rule` to release.
        Undone automatically if ``txn`` aborts.
        """
        self._tracer.record(tracing.RULE_MANAGER, tracing.CONDITION_EVALUATOR,
                            "add_rule", condition.name or "-")
        held = tuple(key for query in condition.queries
                     for key in self._index_keys(query))
        if held:
            self._request(held)
            txn.log_undo(CallbackUndo(lambda: self._release(held),
                                      label="condition index release"))
        if self.use_graph:
            for query in condition.queries:
                if not query.is_static():
                    continue
                result = self._om.execute_query(
                    self._bare(query), txn, source=tracing.CONDITION_EVALUATOR)
                self.graph.add_query(query, txn, memory=set(result.oids()))
        return held

    def delete_rule(self, condition: Condition, txn: Transaction,
                    held: IndexKeys = ()) -> None:
        """Remove a rule's condition from the condition graph and release
        ``held``, the index requests its :meth:`add_rule` returned
        (undoable)."""
        self._tracer.record(tracing.RULE_MANAGER, tracing.CONDITION_EVALUATOR,
                            "delete_rule", condition.name or "-")
        if held:
            self._release(held)
            txn.log_undo(CallbackUndo(lambda: self._request(held),
                                      label="condition index re-request"))
        if not self.use_graph:
            return
        for query in condition.queries:
            if not query.is_static():
                continue
            self.graph.release_query(query)
            txn.log_undo(CallbackUndo(
                lambda q=query: self.graph.reacquire_query(q),
                label="condition-graph re-add"))

    def evaluate(self, condition: Condition, signal: EventSignal,
                 txn: Transaction, *, coupling: str = "immediate",
                 memo: Optional[Memo] = None) -> ConditionOutcome:
        """Evaluate ``condition`` against the current state, in ``txn``.

        ``memo`` shares query results across the rules evaluated for one
        signal (the Rule Manager passes one memo per signal-processing
        round).  Returns a :class:`ConditionOutcome` carrying the query
        results for the action.
        """
        self._tracer.record(tracing.RULE_MANAGER, tracing.CONDITION_EVALUATOR,
                            "evaluate_condition", "%s coupling=%s",
                            condition.name or "-", coupling)
        self.stats["evaluations"] += 1
        timed = self._eval_seconds.should_sample()
        start = _time.perf_counter() if timed else 0.0
        bindings = signal.bindings()
        results: List[QueryResult] = []
        satisfied = True
        for query in condition.queries:
            result = self._answer(query, bindings, txn, memo)
            results.append(result)
            if not result:
                satisfied = False
        if satisfied and condition.guard is not None:
            try:
                satisfied = bool(condition.guard(bindings, results))
            except Exception as exc:
                raise ConditionError(
                    "condition guard %r raised: %s" % (condition.name, exc)
                ) from exc
        if timed:
            elapsed = _time.perf_counter() - start
            self._eval_seconds.observe(elapsed)
            if elapsed >= self._slow_log.threshold:
                self._slow_log.note("condition", condition.name or "-",
                                    elapsed, coupling=coupling,
                                    satisfied=satisfied)
        return ConditionOutcome(satisfied, results, bindings)

    # ----------------------------------------------------------- internals

    def _answer(self, query: Query, bindings: Dict[str, Any],
                txn: Transaction, memo: Optional[Memo]) -> QueryResult:
        memo_key = None
        if memo is not None:
            relevant = {name: bindings.get(name) for name in query.event_args()}
            memo_key = (query.canonical_key(), freeze(relevant))
            cached = memo.get(memo_key)
            if cached is not None:
                self.stats["memo_hits"] += 1
                return cached
        result = self._compute(query, bindings, txn)
        if memo is not None and memo_key is not None:
            memo[memo_key] = result
        return result

    def _compute(self, query: Query, bindings: Dict[str, Any],
                 txn: Transaction) -> QueryResult:
        if isinstance(query, JoinQuery):
            self.stats["executor_answers"] += 1
            return self._om.execute_join(query, bindings=bindings, txn=txn,
                                         source=tracing.CONDITION_EVALUATOR)
        if self.use_graph and query.is_static():
            node = self.graph.node_for(query)
            if node is not None:
                self._om.lock_extent(query.class_name, txn,
                                     include_subclasses=query.include_subclasses)
                records = [self._om.store.get(oid) for oid in node.memory]
                self.stats["graph_answers"] += 1
                return self._om.executor.materialize_rows(query, records)
        self.stats["executor_answers"] += 1
        return self._om.execute_query(query, txn, bindings,
                                      source=tracing.CONDITION_EVALUATOR)

    def _index_keys(self, query: Query) -> IndexKeys:
        """The indexes a parameterized, non-join query asks for: every
        attribute it tests by equality, on every extent it ranges over."""
        if isinstance(query, JoinQuery) or query.is_static():
            return ()
        attrs = equality_lookups(query.predicate)
        schema = self._om.store.schema
        if not attrs or not schema.has(query.class_name):
            return ()
        classes = (schema.subclasses(query.class_name)
                   if query.include_subclasses else [query.class_name])
        return tuple((name, attr) for name in classes for attr in attrs)

    def _request(self, keys: IndexKeys) -> None:
        for class_name, attr in keys:
            self._om.store.request_index(class_name, attr)

    def _release(self, keys: IndexKeys) -> None:
        for class_name, attr in keys:
            self._om.store.release_index(class_name, attr)

    @staticmethod
    def _bare(query: Query) -> Query:
        """Strip projection/order/limit: the memory needs all matching OIDs."""
        return Query(query.class_name, query.predicate,
                     include_subclasses=query.include_subclasses)
