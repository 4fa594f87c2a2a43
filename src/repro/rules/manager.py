"""The Rule Manager (paper §5.4, §6).

"The Rule Manager is responsible for firing the appropriate rules when an
event is detected.  That is, it determines which rules to fire, and
schedules condition evaluation and action execution for those rules
according to their coupling modes."

Its paper interface is a single operation — **Signal Event**,
:meth:`RuleManager.signal_event_batch` — used by the Event Detectors and
the Transaction Manager.  A detector reports the spec-tagged signals of one
observed occurrence in one call; a single signal is a list of one.  The
protocols of Section 6:

* **rule creation** (§6.1) is :class:`~repro.rules.catalog.RuleCatalog`;
  this module reads only its subscriptions (who acts on a spec);
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
Each thread keeps a stack of the rule actions running on it; a firing
triggered under one records it as its ``cause``, so the firing log holds
the cascade tree whatever the coupling.
"""

from __future__ import annotations

import os
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clock import Clock
from repro.conditions.condition import ConditionOutcome
from repro.conditions.evaluator import ConditionEvaluator, Memo
from repro.errors import CascadeLimitExceeded, RuleError, TransactionAborted
from repro.events.composite import CompositeEventDetector
from repro.events.database import DatabaseEventDetector
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.temporal import TemporalEventDetector
from repro.obs.metrics import (DEFAULT_SIZE_BUCKETS, HOT_PATH_SAMPLE,
                                MetricsRegistry)
from repro.obs.slowlog import SlowLog
from repro.obs.watchdog import Watchdog
from repro.objstore.manager import ObjectManager
from repro.rules.actions import ActionContext
from repro.rules.catalog import RuleCatalog, firing_order
from repro.rules.coupling import DEFERRED, IMMEDIATE, MODES, SEPARATE
from repro.rules.firing import (FIRING_LOG_CAPACITY, FiringLog, Phase,
                                RuleFiring)
from repro.rules.rule import Rule
from repro.scheduler.timecon import DeadlineExecutor
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction

#: worker bound of the separate-coupling executor (the stdlib pool's default)
SEPARATE_WORKERS = min(32, (os.cpu_count() or 1) + 4)
#: bound on deferred firings scheduling further deferred firings at one commit
MAX_DEFERRED_ROUNDS = 1000
#: bound on causal hops in one rule cascade, whatever the couplings on the way
#: (§3.2's unbounded trigger recursion is cut here)
MAX_CASCADE_DEPTH = 64
#: seconds :meth:`RuleManager.drain` waits when the caller names no timeout
DRAIN_TIMEOUT = 60.0
#: the suppression scope without a flight recorder (reusable, stateless)
_UNSUPPRESSED = nullcontext()

#: one triggered rule on its way through the firing path: the rule, its own
#: spec-tagged copy of the signal, and the record made at partition (§6.2)
Entry = Tuple[Rule, EventSignal, RuleFiring]


class _Running(threading.local):
    """One thread's running rule actions, innermost last: a
    ``[rule, firing, signal, envelope]`` slot each, whose envelope the
    provenance store builds at the action's first write."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []


def _phase(begun: float) -> Phase:
    """The firing phase that began at ``begun`` and ends now, here."""
    return threading.get_ident(), begun, _time.perf_counter()


class RuleManager:
    """Maps events to rule firings, and rule firings to transactions (§5.4)."""

    def __init__(self, object_manager: ObjectManager,
                 txn_manager: TransactionManager,
                 evaluator: ConditionEvaluator,
                 temporal_detector: TemporalEventDetector,
                 external_detector: ExternalEventDetector,
                 composite_detector: CompositeEventDetector, *,
                 clock: Clock, applications: Any,
                 metrics: MetricsRegistry, slow_log: SlowLog,
                 watchdog: Watchdog, trace: bool = False) -> None:
        self._om = object_manager
        self._txns = txn_manager
        self._evaluator = evaluator
        self._external = external_detector
        self._clock = clock
        self.applications = applications
        #: evaluate the conditions of an immediate group in concurrent
        #: sibling subtransactions (the paper's "the condition evaluation
        #: transactions will execute concurrently", §3.2); serial, the
        #: deterministic order, unless an experiment sets it (Q5)
        self.concurrent_conditions = False
        self._metrics = metrics
        #: record each firing's :attr:`~RuleFiring.timing`
        #: (``observability="trace"``)
        self.trace = trace
        self._slow_log = slow_log
        self._watchdog = watchdog
        self._deferred_batch = self._metrics.histogram(
            "deferred_batch_size", buckets=DEFAULT_SIZE_BUCKETS)

        #: detector for transaction-control events ("the Transaction Manager
        #: ... acts as an event detector", §5.2); its sink is this manager
        self.txn_detector = DatabaseEventDetector(
            object_manager.store.schema, sink=self.signal_event_batch,
            metrics=self._metrics)
        #: §6.1: the registered rules, the event->rule mapping, and each
        #: rule's firing plan (its action times go to these histograms)
        self.catalog = RuleCatalog(
            object_manager, evaluator, self.txn_detector, temporal_detector,
            external_detector, composite_detector, action_seconds={
                ca: metrics.histogram("rule_action_seconds",
                                      sample=HOT_PATH_SAMPLE, coupling=ca)
                for ca in MODES})

        #: flight recorder; None unless the facade enables it.  The Rule
        #: Manager is the journal's gatekeeper: every rule-cascade scope
        #: raises the recorder's thread-local suppression (cascade work is
        #: replay *output*, re-derived by re-signalling the stimuli), and
        #: each completed condition evaluation is journalled as a ``firing``
        #: response record for replay to diff against.
        self.recorder: Optional[Any] = None
        #: the rule actions running on each thread: the top slot is the
        #: ``cause`` of every firing triggered there, and the provenance
        #: store reads it to attribute the writes made there
        self.running = _Running()
        self._depth = threading.local()

        self.firings = FiringLog(capacity=FIRING_LOG_CAPACITY)
        self.background_errors: List[Tuple[str, str]] = []
        #: where separate work runs (§6.2), most urgent ``Rule.deadline``
        #: first ([BUC88]); ``HiPAC.close()`` shuts it down
        self.executor = DeadlineExecutor(SEPARATE_WORKERS, name="hipac-sep")
        self.stats = {"signals": 0, "triggered": 0, "conditions_evaluated": 0,
                      "actions_executed": 0, "separate_spawned": 0,
                      "deferred_queued": 0, "max_cascade_depth_seen": 0,
                      "cascades_cut": 0, "firing_errors": 0}

    # ===================================================== the §5.4 interface

    def _suppression(self):
        """Context manager muting flight-recorder stimulus capture on this
        thread for the duration of rule-cascade work.  Thread-local, and
        entered wherever cascade processing begins: rule actions may call
        applications (``ctx.request``) that open their own top-level
        transactions, and separate firings run on worker threads."""
        if self.recorder is None:
            return _UNSUPPRESSED
        return self.recorder.suppressed()

    def signal_event_batch(self, signals: List[EventSignal]) -> None:
        """Report the occurrence of an event: the paper's one operation,
        Signal Event.

        Every Event Detector calls it (and, for transaction events, the
        Transaction Manager through :meth:`transaction_event`) with the
        spec-tagged reports of *one* observed occurrence — each signal
        carries its own ``signal.spec``; a single report is a list of one.
        The operation that caused the signal is suspended until this
        returns (the call is synchronous).  The *union* of the triggered
        rules is processed with one priority sort and one coupling
        partition (§6.2).  Each reported spec's subscription names its
        rules and its feeds (rule-object management, temporal baselines,
        composite automata); the union of the feeds sees the underlying
        occurrence once, before any rule, however many specs it matched.
        """
        if not signals:
            return
        depth = getattr(self._depth, "value", 0)
        if depth >= MAX_CASCADE_DEPTH:
            # The paper's unbounded trigger-recursion hazard (§3.2): cut the
            # cascade here, with a typed error the application can catch and
            # an alert the /health endpoint surfaces, instead of recursing
            # to interpreter limits and wedging the transaction.
            self.stats["cascades_cut"] += 1
            described = signals[0].describe()
            self._watchdog.note_cascade_limit(depth, described)
            raise CascadeLimitExceeded(
                "rule cascade exceeded max depth %d (signal %s)"
                % (MAX_CASCADE_DEPTH, described), depth=depth)
        self._depth.value = depth + 1
        if depth + 1 > self.stats["max_cascade_depth_seen"]:
            self.stats["max_cascade_depth_seen"] = depth + 1
        # All signals in a batch are spec-tagged copies of one operation;
        # per-operation processing uses the first.
        base = signals[0]
        try:
            # Everything from here down is rule processing: stimuli were
            # journalled upstream (Object Manager / detectors), and replay
            # re-derives this work by re-signalling them.
            with self._suppression():
                self.stats["signals"] += len(signals)
                catalog = self.catalog
                subscriptions = catalog.subscriptions
                triggered: List[Tuple[Rule, EventSignal]] = []
                feeds: Tuple[Any, ...] = ()
                for signal in signals:
                    subscription = subscriptions.get(signal.spec)
                    if subscription is None:
                        continue
                    rules, wanted = subscription
                    if wanted:
                        feeds = (catalog.union(feeds, wanted) if feeds
                                 else wanted)
                    triggered += [(rule, signal) for rule in rules]
                # Composite occurrences recognized by a feed re-enter this
                # method recursively, before this operation's rules.
                for feed in feeds:
                    feed(base)
                if triggered:
                    self.stats["triggered"] += len(triggered)
                    if len(signals) > 1:  # one order across matched specs
                        triggered.sort(key=lambda pair: firing_order(pair[0]))
                    self._process_firings(triggered)
        finally:
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
        if txn.internal:
            return
        route = self.txn_detector.relevant(kind, None)
        if route is None:
            # No rule waits on it: the detector's fast path, no signal built.
            self.txn_detector.stats["fast_path"] += 1
            return
        self.txn_detector.observe(EventSignal(
            kind="database", op=kind, txn=None if kind == "abort" else txn,
            timestamp=self._clock.now()), route)

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
        share one transaction and one description.  Each pair gets its
        :class:`RuleFiring` here — the one record of that firing, whenever
        and wherever it runs.
        """
        txn = triggered[0][1].txn
        triggering = txn.txn_id if txn is not None else None
        event = triggered[0][1].describe()
        # The action running here caused these firings, however much later
        # (deferred at commit, §6.3) or elsewhere (separate) they run.
        running = self.running.stack
        cause = running[-1][1].firing_id if running else None
        entries: List[Entry] = []
        only_immediate = txn is not None
        for rule, signal in triggered:
            entries.append((rule, signal, self.firings.append(RuleFiring(
                rule.name, event, rule.ec_coupling, rule.ca_coupling,
                triggering_txn=triggering, cause=cause))))
            only_immediate &= rule.ec_coupling == IMMEDIATE
        if only_immediate:  # every SAA quote: nothing to partition
            self._fire_group(entries, txn, IMMEDIATE)
            return
        groups = {mode: [entry for entry in entries
                         if entry[0].ec_coupling == mode] for mode in MODES}
        for entry in groups[SEPARATE]:
            self._launch_separate(*entry)
        immediate = groups[IMMEDIATE]
        if txn is not None:
            # Deferred work runs once, at the outermost commit (DESIGN.md
            # decisions 8 and 39).
            target = txn.top_level()
            for entry in groups[DEFERRED]:
                self.stats["deferred_queued"] += 1
                entry[2].deferred = True
                target.add_deferred_condition(entry)
            if immediate:
                self._fire_group(immediate, txn, IMMEDIATE)
            return
        # Events outside any transaction (temporal, detached external): host
        # immediate *and* deferred work in a fresh top-level transaction;
        # its commit drives the deferred set.
        immediate += groups[DEFERRED]
        if not immediate:
            return
        host = self._txns.create_transaction(label="detached-firing",
                                             internal=True)
        try:
            self._fire_group(immediate, host, IMMEDIATE)
        except BaseException:
            self._txns.abort_transaction(host)
            raise
        self._txns.commit_transaction(host)

    def _fire_group(self, entries: List[Entry], host: Transaction,
                    coupling: str) -> None:
        """Evaluate all conditions first (each in a subtransaction of
        ``host``), then schedule the satisfied rules' actions per their C-A
        coupling (paper §6.2; §6.3 for the deferred set at commit)."""
        if (coupling == IMMEDIATE and self.concurrent_conditions
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
            if outcome:  # satisfied, and not dropped
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
            condition_host.top_level().add_deferred_action(
                (rule, signal, firing, outcome))
        else:  # separate
            self._spawn(partial(self._run_action, rule, signal, firing,
                                outcome, None), rule.name, rule.deadline,
                        getattr(self._depth, "value", 0))

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
        no caller is waiting, so errors are collected instead of raised.  A
        deferred firing of a rule disabled since it was queued is dropped
        (None), unless it is a manual fire (a signal no spec tagged)."""
        if not rule.enabled and coupling == DEFERRED and signal.spec is not None:
            return None
        separate = parent is None
        begun = _time.perf_counter() if self.trace else None
        ctxn = self._txns.create_transaction(
            parent=parent, internal=True,
            label=rule.plan.sep_cond if separate else rule.plan.cond)
        if not separate:
            # What the condition nests under — the event's transaction, its
            # top level (deferred scoping) or a detached-firing host.
            firing.triggering_txn = parent.txn_id
        firing.condition_txn = ctxn.txn_id
        firing.separate_thread = separate
        try:
            if rule.oid is not None:
                # "Firing requires a read lock" (§2.2) — on the transaction
                # the firing nests under, so the condition's own stays empty.
                self._om.lock_for_read(rule.oid, ctxn if separate else parent,
                                       resources=rule.plan.read_locks)
            self.stats["conditions_evaluated"] += 1
            outcome = self._evaluator.evaluate(
                rule.condition, signal, ctxn, coupling=coupling, memo=memo)
            if not separate:
                self._txns.commit_transaction(ctxn)
            firing.satisfied = outcome.satisfied
            if self.recorder is not None:
                # Response record (bypasses suppression) replay diffs its
                # own evaluations against, buffered on the enclosing sphere
                # unless on a separate thread, which flushes itself.
                self.recorder.record_firing(firing, ctxn.top_level())
            if separate:
                if begun is not None:
                    # This transaction also hosts the action: the condition
                    # phase ends where the routing begins.
                    firing.timing = [_phase(begun), None]
                if outcome.satisfied:
                    self._route_action(rule, signal, firing, outcome, ctxn)
                self._txns.commit_transaction(ctxn)
            return outcome
        except BaseException as exc:
            if not self._firing_failed(rule, firing, ctxn, exc, separate):
                raise
            return None
        finally:
            if begun is not None and firing.timing is None:
                firing.timing = [_phase(begun), None]

    def _run_action(self, rule: Rule, signal: EventSignal, firing: RuleFiring,
                    outcome: ConditionOutcome,
                    parent: Optional[Transaction]) -> None:
        """Execute one rule's action: in a new subtransaction of ``parent``
        (errors propagate), or — ``parent=None``, separate C-A — in a new
        top-level transaction on this thread (errors collected)."""
        separate = parent is None
        atxn = self._txns.create_transaction(
            parent=parent, internal=True,
            label=rule.plan.sep_act if separate else rule.plan.act)
        firing.action_txn = atxn.txn_id
        if separate:
            firing.separate_thread = True
        hist = rule.plan.action_seconds
        timed = hist.should_sample()
        start = _time.perf_counter() if timed or self.trace else 0.0
        try:
            ctx = ActionContext(
                object_manager=self._om, txn=atxn, signal=signal,
                bindings=outcome.bindings, results=outcome.results,
                applications=self.applications, rule=rule,
                signal_external=self._signal_external)
            # While it runs, this action causes what it triggers and owns
            # what it writes; cascades nest, so the innermost action wins.
            running = self.running.stack
            running.append([rule, firing, signal, None])
            try:
                rule.action.run(ctx)
            finally:
                running.pop()
            self._txns.commit_transaction(atxn)
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
            if self.trace:
                firing.timing[1] = _phase(start)

    def _firing_failed(self, rule: Rule, firing: RuleFiring, txn: Transaction,
                       exc: BaseException, collect: bool) -> bool:
        """Record one errored firing (either phase) and abort its
        transaction; True when the error was collected (separate coupling)
        and the caller must not re-raise.

        The SLO monitor's firing-error-rate objective windows the error
        count against ``triggered`` — it must tick on every failure mode,
        and once per firing: a separate condition re-enters here with the
        error its immediate action already recorded.  Collected errors
        land in :attr:`background_errors`, except an abort: a separate
        firing that loses its transaction just stops."""
        if firing.error is None:
            self.stats["firing_errors"] += 1
        firing.error = str(exc)
        if not txn.is_finished():
            self._txns.abort_transaction(txn)
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
        (paper §6.2).  The worker continues this thread's cascade depth."""
        launch = partial(self._spawn, partial(
            self._run_condition, rule, signal, firing, None, None, SEPARATE),
            rule.name, rule.deadline, getattr(self._depth, "value", 0))
        if rule.separate_dependent and signal.txn is not None:
            # Extension: hook the transaction in which the event occurred.
            # A nested transaction's hooks migrate to its parent on commit
            # and are dropped on abort, so the firing launches only if the
            # event's effects become permanent (top-level commit).
            signal.txn.on_commit.append(lambda _txn: launch())
        else:
            launch()

    def _spawn(self, body: Callable[[], Any], label: str,
               deadline: Optional[float] = None, depth: int = 0) -> None:
        """Queue ``body`` as separate-coupling work, most urgent first; the
        worker that takes it is named ``hipac-sep-<label>`` meanwhile and
        runs it at cascade ``depth``, the hops that led to it, so a
        cascade through separate firings is cut like a synchronous one."""
        self.stats["separate_spawned"] += 1

        def run() -> None:
            worker = threading.current_thread()
            own, worker.name = worker.name, "hipac-sep-%s" % label
            self._depth.value = depth
            try:
                with self._suppression():
                    body()
            finally:
                worker.name = own
                self._depth.value = 0
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
        if not (txn.deferred_conditions or txn.deferred_actions):
            return
        # Commit-time cascade scope: the triggering commit was already
        # journalled as a stimulus; everything below is re-derived by
        # replay, so stimulus capture is suppressed throughout.
        with self._suppression():
            rounds = 0
            while txn.deferred_conditions or txn.deferred_actions:
                rounds += 1
                if rounds > MAX_DEFERRED_ROUNDS:
                    raise RuleError("deferred rule firings did not quiesce"
                                    " after %d rounds" % MAX_DEFERRED_ROUNDS)
                conditions, txn.deferred_conditions = txn.deferred_conditions, []
                actions, txn.deferred_actions = txn.deferred_actions, []
                # The default deferred_batch objective watches this (§6.3):
                # the commit that drains an oversized set is where the
                # latency lands.
                self._deferred_batch.observe(len(conditions) + len(actions))
                self._fire_group(conditions, txn, DEFERRED)
                for rule, signal, firing, outcome in actions:
                    self._run_action(rule, signal, firing, outcome, txn)
