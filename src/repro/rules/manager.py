"""The Rule Manager (paper §5.4, §6).

"The Rule Manager is responsible for firing the appropriate rules when an
event is detected.  That is, it determines which rules to fire, and
schedules condition evaluation and action execution for those rules
according to their coupling modes."

Its paper interface is a single operation — **Signal Event** — used by the
Event Detectors and the Transaction Manager.  The protocols of Section 6:

* **rule creation** (§6.1) is :class:`~repro.rules.catalog.RuleCatalog`;
  this module asks it only which rules a signal triggers;
* **event signal processing** (§6.2, :meth:`RuleManager.signal_event_batch`):
  triggered rules are partitioned by E-C coupling; *separate* firings get
  new top-level transactions on worker threads; *deferred* firings are
  saved on the triggering transaction; *immediate* firings evaluate
  conditions in subtransactions (all conditions first, then actions),
  suspending the triggering operation;
* **transaction commit processing** (§6.3,
  :meth:`RuleManager.transaction_event`): at commit the deferred set is
  split into deferred-condition and deferred-action firings and processed
  before commit completes.

Whatever the coupling, a firing is one :class:`RuleFiring` record, one
:meth:`~RuleManager._run_condition` and at most one
:meth:`~RuleManager._run_action`; the coupling only decides *which
transaction* each runs in and *when*.

Cascading: operations performed by conditions/actions signal further events
through the same path, producing the paper's trees of nested transactions.
"""

from __future__ import annotations

import os
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.conditions.condition import ConditionOutcome
from repro.conditions.evaluator import ConditionEvaluator, Memo
from repro.core import tracing
from repro.errors import CascadeLimitExceeded, RuleError, TransactionAborted
from repro.events.composite import CompositeEventDetector
from repro.events.database import DatabaseEventDetector
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.temporal import TemporalEventDetector
from repro.obs.metrics import (DEFAULT_SIZE_BUCKETS, HOT_PATH_SAMPLE,
                                MetricsRegistry)
from repro.obs.slowlog import SlowLog
from repro.obs.spans import SpanRecorder
from repro.obs.watchdog import Watchdog
from repro.objstore.manager import ObjectManager
from repro.rules.actions import ActionContext
from repro.rules.catalog import RuleCatalog
from repro.rules.coupling import DEFERRED, IMMEDIATE, MODES, SEPARATE
from repro.rules.firing import FiringLog, RuleFiring
from repro.rules.rule import RULE_CLASS, Rule
from repro.scheduler.timecon import DeadlineExecutor
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction

#: worker bound of a manager-owned executor (the stdlib pool's default)
SEPARATE_WORKERS = min(32, (os.cpu_count() or 1) + 4)
#: bound on deferred firings scheduling further deferred firings at one commit
MAX_DEFERRED_ROUNDS = 1000
#: seconds :meth:`RuleManager.drain` waits when the caller names no timeout
DRAIN_TIMEOUT = 60.0

#: one triggered rule on its way through the firing path: the rule, its own
#: spec-tagged copy of the signal, and the record made at partition (§6.2)
Entry = Tuple[Rule, EventSignal, RuleFiring]


@dataclass
class RuleManagerConfig:
    """Tunables of the Rule Manager.

    * ``concurrent_conditions`` — evaluate the conditions of an immediate
      group in concurrent sibling subtransactions (the paper's "for rules
      with the same event and E-C coupling mode, the condition evaluation
      transactions will execute concurrently"); serial by default for
      determinism.
    * ``defer_to_top_level`` — where deferred firings whose event occurred
      in a *subtransaction* are queued.  True (default) queues them on the
      top-level transaction, so deferred work — notably integrity
      constraints — runs once, at the outermost commit, against the
      transaction's final state (the execution-model intent [HSU88] and the
      System R integrity lineage).  False follows §2.1's letter ("the same
      transaction as the triggering event"): the deferred set of each
      subtransaction is processed at that subtransaction's own commit.
      Events occurring directly in a top-level transaction behave the same
      either way.
    * ``max_cascade_depth`` — bound on recursive rule triggering.
    """

    concurrent_conditions: bool = False
    defer_to_top_level: bool = True
    max_cascade_depth: int = 64
    #: ring capacity of the firing log (oldest records evicted beyond this;
    #: evictions are counted on :attr:`FiringLog.dropped`)
    firing_log_capacity: int = 100000
    #: the :class:`~repro.scheduler.DeadlineExecutor` that runs separate
    #: firings, most urgent ``Rule.deadline`` first ([BUC88] time-constrained
    #: scheduling); None: one the manager makes, :data:`SEPARATE_WORKERS` wide
    deadline_executor: Any = None


class RuleManager:
    """Maps events to rule firings, and rule firings to transactions (§5.4)."""

    def __init__(self, object_manager: ObjectManager,
                 txn_manager: TransactionManager,
                 evaluator: ConditionEvaluator,
                 temporal_detector: TemporalEventDetector,
                 external_detector: ExternalEventDetector,
                 composite_detector: CompositeEventDetector, *,
                 tracer: tracing.Tracer, clock: Clock, applications: Any,
                 metrics: MetricsRegistry, spans: SpanRecorder,
                 slow_log: SlowLog, watchdog: Watchdog,
                 config: Optional[RuleManagerConfig] = None) -> None:
        self._om = object_manager
        self._txns = txn_manager
        self._evaluator = evaluator
        self._temporal = temporal_detector
        self._external = external_detector
        self._composite = composite_detector
        self._clock = clock
        self.applications = applications
        self.config = config or RuleManagerConfig()
        self._metrics = metrics
        self._spans = spans
        self._slow_log = slow_log
        self._watchdog = watchdog
        self._firing_count = {
            (ec, ca): self._metrics.counter("rule_firings_total", ec=ec, ca=ca)
            for ec in MODES for ca in MODES
        }
        self._action_seconds = {
            ca: self._metrics.histogram("rule_action_seconds",
                                        sample=HOT_PATH_SAMPLE, coupling=ca)
            for ca in MODES
        }
        self._deferred_batch = self._metrics.histogram(
            "deferred_batch_size", buckets=DEFAULT_SIZE_BUCKETS)
        self._error_count = self._metrics.counter("rule_firing_errors_total")

        #: detector for transaction-control events ("the Transaction Manager
        #: ... acts as an event detector", §5.2); its sink is this manager
        self.txn_detector = DatabaseEventDetector(
            object_manager.store.schema, sink=self.signal_event,
            tracer=tracer, component=tracing.TRANSACTION_MANAGER,
            metrics=self._metrics)
        self.txn_detector.sink_batch = self.signal_event_batch
        #: §6.1: the registered rules and the event->rule mapping
        self.catalog = RuleCatalog(
            object_manager, evaluator, self.txn_detector, temporal_detector,
            external_detector, composite_detector, tracer)

        #: flight recorder; None unless the facade enables it.  The Rule
        #: Manager is the journal's gatekeeper: every rule-cascade scope
        #: raises the recorder's thread-local suppression (cascade work is
        #: replay *output*, re-derived by re-signalling the stimuli), and
        #: each completed condition evaluation is journalled as a ``firing``
        #: response record for replay to diff against.
        self.recorder: Optional[Any] = None
        #: causal provenance store; None unless the facade enables it.
        #: Every rule-action execution runs inside a causal scope so the
        #: writes it performs are attributed to the firing and its
        #: triggering event.
        self.provenance: Optional[Any] = None
        self._depth = threading.local()

        self.firings = FiringLog(capacity=self.config.firing_log_capacity)
        self.background_errors: List[Tuple[str, str]] = []
        #: where separate work runs (§6.2): the caller's, else the manager's
        self.executor = self.config.deadline_executor or DeadlineExecutor(
            SEPARATE_WORKERS, name="hipac-sep")
        self.stats = {"signals": 0, "triggered": 0, "conditions_evaluated": 0,
                      "actions_executed": 0, "separate_spawned": 0,
                      "deferred_queued": 0, "max_cascade_depth_seen": 0,
                      "cascades_cut": 0, "firing_errors": 0}

    # ===================================================== the §5.4 interface

    def _suppression(self):
        """Context manager muting flight-recorder stimulus capture on this
        thread for the duration of rule-cascade work.

        Transaction-internal filtering alone is not enough: rule actions may
        call into applications (``ctx.request``) that open their own
        non-internal top-level transactions, and separate-coupling firings
        run on worker threads, outside every cascade — so the scope is
        thread-local and entered wherever cascade processing begins."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.suppressed()

    def signal_event(self, signal: EventSignal) -> None:
        """Report the occurrence of an event (the paper's single operation).

        Called by the Event Detectors (and, for transaction events, by the
        Transaction Manager through :meth:`transaction_event`).  The
        operation that caused the signal is suspended until this returns
        (the call is synchronous).
        """
        self.signal_event_batch([signal])

    def signal_event_batch(self, signals: List[EventSignal]) -> None:
        """Report all detector matches of *one* operation in a single call.

        The database detector matches every programmed spec in one pass and
        delivers the spec-tagged reports together (each carries its own
        ``signal.spec``); this method processes the *union* of the triggered
        rules — one priority sort, one coupling partition (§6.2) — instead
        of re-partitioning once per spec-tagged copy.  The underlying
        operation feeds rule-object management and the temporal/composite
        detectors exactly once, however many specs it matched, and those
        feeds are subscription-driven: signals outside a detector's interest
        set never reach it.
        """
        if not signals:
            return
        depth = getattr(self._depth, "value", 0)
        if depth >= self.config.max_cascade_depth:
            # The paper's unbounded trigger-recursion hazard (§3.2): cut the
            # cascade here, with a typed error the application can catch and
            # an alert the /health endpoint surfaces, instead of recursing
            # to interpreter limits and wedging the transaction.
            self.stats["cascades_cut"] += 1
            described = signals[0].describe()
            self._watchdog.note_cascade_limit(depth, described)
            raise CascadeLimitExceeded(
                "rule cascade exceeded max depth %d (signal %s)"
                % (self.config.max_cascade_depth, described),
                depth=depth,
            )
        self._depth.value = depth + 1
        if depth + 1 > self.stats["max_cascade_depth_seen"]:
            self.stats["max_cascade_depth_seen"] = depth + 1
        # All signals in a batch are spec-tagged copies of one operation;
        # per-operation processing uses the first.
        base = signals[0]
        espan = None
        if self._spans.enabled:
            described = base.describe()
            espan = self._spans.start_span(
                "event:%s" % described, kind="event",
                event=described, depth=depth,
                txn=base.txn.txn_id if base.txn is not None else None)
        try:
            # Everything from here down is rule processing: stimuli were
            # journalled upstream (Object Manager / detectors), and replay
            # re-derives this work by re-signalling them.
            with self._suppression():
                self.stats["signals"] += len(signals)
                if base.kind == "database" and base.class_name == RULE_CLASS:
                    self.catalog.on_rule_object(base)
                # Feed the temporal detector (baselines of relative/periodic
                # events) and the composite automata — once per operation.
                # Composite occurrences recognized here re-enter
                # signal_event recursively.
                if self._temporal.wants_baseline(base):
                    self._temporal.observe_baseline(base)
                if self._composite.wants(base):
                    self._composite.observe(base)
                triggered = [(rule, signal) for signal in signals
                             for rule in self.catalog.triggered(signal)]
                if triggered:
                    self.stats["triggered"] += len(triggered)
                    # One global firing order across all matched specs.
                    triggered.sort(key=lambda pair: (-pair[0].priority,
                                                     pair[0].name))
                    self._process_firings(triggered)
        finally:
            self._spans.finish_span(espan)
            self._depth.value = depth

    def transaction_event(self, kind: str, txn: Transaction) -> None:
        """Transaction-control event hook (the Transaction Manager's event
        sink; it calls for every transaction that is not internal, and for
        an internal one that commits with deferred firings queued).

        For ``commit``, first processes the deferred firings (§6.3), then
        reports the event; begin/abort are simply reported, aborts detached
        (their rules cannot run inside the aborted transaction)."""
        if kind == "commit":
            self._process_deferred(txn)
        if not txn.internal:
            self.txn_detector.observe(EventSignal(
                kind="database", op=kind,
                txn=None if kind == "abort" else txn,
                timestamp=self._clock.now()))

    def fire_rule(self, name: str, txn: Optional[Transaction], *,
                  args: Optional[Dict[str, Any]] = None) -> None:
        """Manually fire a rule (the paper's *fire* operation).

        Evaluates the condition and, if satisfied, executes the action,
        subject to the rule's coupling modes, exactly as if its event had
        occurred in ``txn``.  Manual firing works even when automatic firing
        is disabled.  ``args`` provides event-argument bindings for
        parameterized conditions.
        """
        rule = self.catalog.get_rule(name)
        signal = EventSignal(kind="external", name="fire:%s" % name,
                             args=dict(args or {}), txn=txn,
                             timestamp=self._clock.now())
        if self.recorder is not None:
            # Manual fires are journalled stimuli: address provenance of
            # the firing's writes to the fire record.
            signal._journal_seq = self.recorder.record_fire(name, args, txn)
        with self._suppression():
            self._process_firings([(rule, signal)])

    # ========================================================== §6.2 firing

    def _process_firings(self, triggered: List[Tuple[Rule, EventSignal]]
                         ) -> None:
        """Partition triggered rules by E-C coupling and schedule them
        (paper §6.2).

        ``triggered`` pairs each rule with the signal that triggered it (its
        own spec-tagged copy of the operation), already in global firing
        order.  All signals of one call describe the same operation, so they
        share one transaction.  Each pair gets its :class:`RuleFiring` here —
        the one record of that firing, whenever and wherever it runs.
        """
        txn = triggered[0][1].txn
        # Causality bridge for firings that run later or elsewhere (deferred
        # at commit, §6.3; separate on a worker thread with an empty span
        # stack): their firing span hangs off the span active *here*.
        origin = self._spans.current() if self._spans.enabled else None
        groups: Dict[str, List[Entry]] = {mode: [] for mode in MODES}
        for rule, signal in triggered:
            firing = self.firings.append(RuleFiring(
                rule.name, signal.describe(), rule.ec_coupling,
                rule.ca_coupling,
                triggering_txn=txn.txn_id if txn is not None else None))
            if origin is not None and rule.ec_coupling != IMMEDIATE:
                signal._obs_span = origin
            groups[rule.ec_coupling].append((rule, signal, firing))

        for rule, signal, firing in groups[SEPARATE]:
            self._launch_separate(rule, signal, firing)

        immediate = groups[IMMEDIATE]
        if txn is None:
            # Events outside any transaction (temporal, detached external):
            # host immediate *and* deferred work in a fresh top-level
            # transaction; its commit drives the deferred set.
            immediate = immediate + groups[DEFERRED]
        else:
            target = txn.top_level() if self.config.defer_to_top_level else txn
            for entry in groups[DEFERRED]:
                self.stats["deferred_queued"] += 1
                entry[2].deferred = True
                target.add_deferred_condition(entry)

        if not immediate:
            return
        if txn is not None:
            self._fire_group(immediate, txn, IMMEDIATE)
            return
        host = self._txns.create_transaction(source=tracing.RULE_MANAGER,
                                             label="detached-firing",
                                             internal=True)
        try:
            self._fire_group(immediate, host, IMMEDIATE)
        except BaseException:
            self._txns.abort_transaction(host, source=tracing.RULE_MANAGER)
            raise
        self._txns.commit_transaction(host, source=tracing.RULE_MANAGER)

    def _fire_group(self, entries: List[Entry], host: Transaction,
                    coupling: str) -> None:
        """Evaluate all conditions first (each in a subtransaction of
        ``host``), then schedule the satisfied rules' actions per their C-A
        coupling (paper §6.2; §6.3 for the deferred set at commit)."""
        if (coupling == IMMEDIATE and self.config.concurrent_conditions
                and len(entries) > 1):
            # Concurrent sibling condition subtransactions (§3.2, §6.2); the
            # first failure is re-raised once every sibling has finished.
            with ThreadPoolExecutor(max_workers=len(entries)) as pool:
                futures = [pool.submit(self._run_condition, *entry, host,
                                       None, coupling) for entry in entries]
            outcomes = [future.result() for future in futures]
        else:
            memo: Memo = {}
            outcomes = [self._run_condition(*entry, host, memo, coupling)
                        for entry in entries]
        for (rule, signal, firing), outcome in zip(entries, outcomes):
            if outcome.satisfied:
                self._route_action(rule, signal, firing, outcome, host)

    def _route_action(self, rule: Rule, signal: EventSignal,
                      firing: RuleFiring, outcome: ConditionOutcome,
                      condition_host: Transaction) -> None:
        """Schedule the action of a satisfied rule per its C-A coupling.

        ``condition_host`` is the transaction relative to which the
        condition was evaluated (the triggering transaction for immediate
        and deferred E-C; the separate top-level transaction for separate
        E-C)."""
        if rule.ca_coupling == IMMEDIATE:
            self._run_action(rule, signal, firing, outcome, condition_host)
        elif rule.ca_coupling == DEFERRED:
            self.stats["deferred_queued"] += 1
            firing.deferred = True
            target = (condition_host.top_level()
                      if self.config.defer_to_top_level else condition_host)
            target.add_deferred_action((rule, signal, firing, outcome))
        else:  # separate
            self._spawn(partial(self._run_action, rule, signal, firing,
                                outcome, None), rule.name, rule.deadline)

    # ================================================== the two firing phases

    def _run_condition(self, rule: Rule, signal: EventSignal,
                       firing: RuleFiring, parent: Optional[Transaction],
                       memo: Optional[Memo], coupling: str
                       ) -> Optional[ConditionOutcome]:
        """Evaluate one rule's condition (fire takes a read lock on the rule
        object) and record the outcome on ``firing``.

        With a ``parent`` (immediate and deferred E-C) the condition runs in
        a new subtransaction of it and errors propagate to the triggering
        operation.  ``parent=None`` is separate E-C: a new top-level
        transaction that also hosts the action routing before it commits;
        no caller is waiting, so errors are collected instead of raised."""
        separate = parent is None
        fspan = cspan = None
        if self._spans.enabled:
            # Explicit span parent for firings scheduled earlier or on
            # another thread; immediate firings nest via the thread stack.
            fspan = self._spans.start_span(
                "fire:%s" % rule.name, kind="firing",
                parent=getattr(signal, "_obs_span", None),
                rule=rule.name, ec=rule.ec_coupling, ca=rule.ca_coupling,
                coupling=coupling,
                **({"separate_thread": True} if separate else {}))
        if self._metrics.enabled:
            self._firing_count[(rule.ec_coupling, rule.ca_coupling)].inc()
        self._watchdog.note_firing()
        ctxn = self._txns.create_transaction(
            parent=parent, source=tracing.RULE_MANAGER, internal=True,
            label=("sep-cond:%s" if separate else "cond:%s") % rule.name)
        if not separate:
            # What the condition nests under — the event's transaction, its
            # top level (deferred scoping) or a detached-firing host.
            firing.triggering_txn = parent.txn_id
        firing.condition_txn = ctxn.txn_id
        firing.separate_thread = separate
        firing.span = fspan
        if fspan is not None:
            cspan = self._spans.start_span("cond:%s" % rule.name,
                                           kind="condition", rule=rule.name,
                                           coupling=coupling, txn=ctxn.txn_id)
        try:
            if rule.oid is not None:
                # "Firing requires a read lock" (§2.2) — on the transaction
                # the firing nests under, so the condition's own stays empty.
                self._om.lock_for_read(rule.oid, ctxn if separate else parent,
                                       source=tracing.RULE_MANAGER)
            self.stats["conditions_evaluated"] += 1
            outcome = self._evaluator.evaluate(
                rule.condition, signal, ctxn, coupling=coupling, memo=memo)
            if not separate:
                self._txns.commit_transaction(ctxn, source=tracing.RULE_MANAGER)
            firing.satisfied = outcome.satisfied
            if self.recorder is not None:
                # Response record (bypasses suppression): the journalled
                # outcome replay diffs its own evaluations against.  It
                # buffers on the enclosing sphere — the condition
                # transaction's top level — unless the firing is on a
                # separate thread, which flushes itself.
                self.recorder.record_firing(firing, ctxn.top_level())
            if fspan is not None:
                fspan.tags["satisfied"] = outcome.satisfied
            if separate:
                self._spans.finish_span(cspan)
                cspan = None
                if outcome.satisfied:
                    self._route_action(rule, signal, firing, outcome, ctxn)
                self._txns.commit_transaction(ctxn, source=tracing.RULE_MANAGER)
            return outcome
        except BaseException as exc:
            if not self._firing_failed(rule, firing, ctxn, exc, separate):
                raise
            return None
        finally:
            self._spans.finish_span(cspan)
            self._spans.finish_span(fspan)

    def _run_action(self, rule: Rule, signal: EventSignal, firing: RuleFiring,
                    outcome: ConditionOutcome,
                    parent: Optional[Transaction]) -> None:
        """Execute one rule's action: in a new subtransaction of ``parent``
        (errors propagate), or — ``parent=None``, separate C-A — in a new
        top-level transaction on this thread (errors collected)."""
        separate = parent is None
        atxn = self._txns.create_transaction(
            parent=parent, source=tracing.RULE_MANAGER, internal=True,
            label=("sep-act:%s" if separate else "act:%s") % rule.name)
        firing.action_txn = atxn.txn_id
        if separate:
            firing.separate_thread = True
        # The action hangs off its firing span (which may already be
        # finished — deferred C-A runs at commit, long after the condition).
        aspan = None
        if self._spans.enabled:
            aspan = self._spans.start_span("act:%s" % rule.name, kind="action",
                                           parent=firing.span, rule=rule.name,
                                           coupling=rule.ca_coupling,
                                           txn=atxn.txn_id)
        hist = self._action_seconds[rule.ca_coupling]
        timed = hist.should_sample()
        start = _time.perf_counter() if timed else 0.0
        try:
            ctx = ActionContext(
                object_manager=self._om, txn=atxn, signal=signal,
                bindings=outcome.bindings, results=outcome.results,
                applications=self.applications, rule=rule,
                signal_external=self._signal_external)
            if self.provenance is None:
                rule.action.run(ctx)
            else:
                # Causal scope: every write the action performs is tagged
                # with this firing and its triggering event; cascaded
                # firings push nested scopes, so attribution always names
                # the *innermost* cause.
                with self.provenance.firing_scope(rule, firing, signal):
                    rule.action.run(ctx)
            self._txns.commit_transaction(atxn, source=tracing.RULE_MANAGER)
            firing.executed = True
            self.stats["actions_executed"] += 1
        except BaseException as exc:
            if not self._firing_failed(rule, firing, atxn, exc, separate):
                raise
        finally:
            if timed:
                elapsed = _time.perf_counter() - start
                hist.observe(elapsed)
                if elapsed >= self._slow_log.threshold:
                    self._slow_log.note("rule-action", rule.name, elapsed,
                                        coupling=rule.ca_coupling,
                                        txn=atxn.txn_id)
            self._spans.finish_span(aspan)

    def _firing_failed(self, rule: Rule, firing: RuleFiring, txn: Transaction,
                       exc: BaseException, collect: bool) -> bool:
        """Record one errored firing (either phase) and abort its
        transaction; True when the error was collected (separate coupling)
        and the caller must not re-raise.

        The SLO monitor's firing-error-rate objective windows the error
        count against ``triggered`` — it must tick on every failure mode.
        Collected errors land in :attr:`background_errors`, except an
        abort: a separate firing that loses its transaction just stops."""
        firing.error = str(exc)
        self.stats["firing_errors"] += 1
        self._error_count.inc()
        if not txn.is_finished():
            self._txns.abort_transaction(txn, source=tracing.RULE_MANAGER)
        if not collect or not isinstance(exc, Exception):
            return False
        if not isinstance(exc, TransactionAborted):
            self.background_errors.append((rule.name, str(exc)))
        return True

    def _signal_external(self, name: str, args: Dict[str, Any],
                         txn: Optional[Transaction]) -> Any:
        return self._external.signal(name, args, txn=txn,
                                     timestamp=self._clock.now())

    # ===================================================== separate coupling

    def _launch_separate(self, rule: Rule, signal: EventSignal,
                         firing: RuleFiring) -> None:
        """Queue a separate-coupling firing: condition (and, per C-A
        coupling, action) in a new top-level transaction on a worker thread
        (paper §6.2)."""
        launch = partial(self._spawn, partial(
            self._run_condition, rule, signal, firing, None, None, SEPARATE),
            rule.name, rule.deadline)
        if rule.separate_dependent and signal.txn is not None:
            # Extension: hook the transaction in which the event occurred.
            # A nested transaction's hooks migrate to its parent on commit
            # and are dropped on abort, so the firing launches only if the
            # event's effects become permanent (top-level commit).
            signal.txn.on_commit.append(lambda _txn: launch())
        else:
            launch()

    def _spawn(self, body: Callable[[], Any], label: str,
               deadline: Optional[float] = None) -> None:
        """Queue ``body`` as separate-coupling work, most urgent first; the
        worker that takes it is named ``hipac-sep-<label>`` meanwhile."""
        self.stats["separate_spawned"] += 1

        def run() -> None:
            worker = threading.current_thread()
            own, worker.name = worker.name, "hipac-sep-%s" % label
            try:
                with self._suppression():
                    body()
            finally:
                worker.name = own

        self.executor.submit(self._clock.now() + deadline
                             if deadline is not None else float("inf"), run)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no separate-coupling work is queued or running: True
        on quiescence, False on timeout.  Separate work is asynchronous;
        tests, benchmarks and applications drain before reading its effects."""
        return self.executor.drain(DRAIN_TIMEOUT
                                   if timeout is None else timeout)

    # ========================================================== §6.3 commit

    def _process_deferred(self, txn: Transaction) -> None:
        """Process the deferred rule firings of a committing transaction.

        "This set is divided into two subsets according to whether it was
        the condition or action that was deferred.  For each of the former,
        the Rule Manager calls on the Condition Evaluator to evaluate the
        rule's condition.  For the latter, the Rule Manager simply executes
        the action."  Deferred work may queue further deferred work (e.g.
        deferred C-A after a deferred condition); rounds repeat until the
        set drains."""
        if not txn.has_deferred_work():
            return
        bspan = self._spans.start_span("deferred:%s" % txn.txn_id,
                                       kind="deferred_batch", txn=txn.txn_id)
        try:
            # Commit-time cascade scope: the triggering commit was already
            # journalled as a stimulus; everything below is re-derived by
            # replay, so stimulus capture is suppressed throughout.
            with self._suppression():
                rounds = 0
                while txn.has_deferred_work():
                    rounds += 1
                    if rounds > MAX_DEFERRED_ROUNDS:
                        raise RuleError(
                            "deferred rule firings did not quiesce after"
                            " %d rounds" % MAX_DEFERRED_ROUNDS)
                    conditions = txn.deferred_conditions
                    txn.deferred_conditions = []
                    actions = txn.deferred_actions
                    txn.deferred_actions = []
                    size = len(conditions) + len(actions)
                    if self._metrics.enabled:
                        self._deferred_batch.observe(size)
                    # Deferred-queue blowup detector (§6.3): the commit that
                    # drains an oversized queue is where the latency lands.
                    self._watchdog.note_deferred_depth(size)
                    self._fire_group([entry for entry in conditions
                                      if entry[0].enabled], txn, DEFERRED)
                    for rule, signal, firing, outcome in actions:
                        self._run_action(rule, signal, firing, outcome, txn)
        finally:
            self._spans.finish_span(bspan)
