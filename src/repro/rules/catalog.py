"""The rule catalog: rule creation and administration (paper §6.1).

"The application's create-rule request goes to the Object Manager, which
creates the rule object and signals the create-rule event; the Rule Manager
(synchronously, before the Object Manager resumes) adds the rule to the
Condition Evaluator, programs the Event Detectors, and extends its
event->rule mapping."

:class:`RuleCatalog` owns that mapping and everything that changes it:
create / delete / enable / disable (each a write-locked operation on the
rule's ``HiPAC::Rule`` object, undone if the transaction aborts), rule
groups, and crash-recovery re-attachment.  The firing path
(:mod:`repro.rules.manager`) sees the catalog through one table,
:attr:`RuleCatalog.subscriptions`: per programmed event spec, the one
:class:`Subscription` saying who acts on its occurrences — its enabled
rules, already in firing order, and the feeds that must see it first (the
catalog's own rule-object handler, the temporal detector's baselines, the
composite automata).

The table is rebuilt, never patched, on every change to it: create,
delete, enable and disable, and each of their undos.  The same rebuild
keeps the Event Detectors programmed to match (§6.1): a spec is enabled
at its detector exactly while its subscription is non-empty.  Whatever
else a firing needs that depends on the rule alone is made here too, once:
each rule's :class:`FiringPlan`.
"""

from __future__ import annotations

import threading
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

from repro.conditions.evaluator import ConditionEvaluator
from repro.errors import RuleError
from repro.events.derivation import derive_event_spec
from repro.events.signal import EventSignal
from repro.events.spec import (
    TXN_OPS,
    CompositeEventSpec,
    DatabaseEventSpec,
    EventSpec,
    ExternalEventSpec,
    TemporalEventSpec,
)
from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.rules.rule import RULE_CLASS, Rule
from repro.txn.locks import LockResource
from repro.txn.transaction import Transaction
from repro.txn.undo import CallbackUndo


def firing_order(rule: Rule) -> Tuple[int, str]:
    """Sort key of serial firing: higher ``priority`` first, then name."""
    return -rule.priority, rule.name


class FiringPlan:
    """What every firing of one rule reuses (§6.2), made once when the
    catalog registers the rule: the labels of its condition and action
    transactions, the histogram its action's run time goes to, and the
    (class, object) lock resources of the read lock on its rule object."""

    __slots__ = ("cond", "act", "sep_cond", "sep_act", "action_seconds",
                 "read_locks")

    def __init__(self, rule: Rule, oid: OID, action_seconds: Any) -> None:
        self.cond = "cond:" + rule.name
        self.act = "act:" + rule.name
        self.sep_cond = "sep-cond:" + rule.name
        self.sep_act = "sep-act:" + rule.name
        self.action_seconds = action_seconds
        self.read_locks = (LockResource.for_class(oid.class_name),
                           LockResource.for_object(oid))


Feed = Callable[[EventSignal], Any]
"""A consumer of every occurrence of a spec other than its rules."""


class Subscription(NamedTuple):
    """Who acts on the occurrences of one programmed event spec."""

    #: the spec's enabled rules, in :func:`firing_order`
    rules: Tuple[Rule, ...]
    #: what sees each occurrence before the rules, in the order of
    #: :attr:`RuleCatalog.feeds`
    feeds: Tuple[Feed, ...]


class RuleCatalog:
    """The registered rules and the event->rule mapping (§6.1)."""

    def __init__(self, object_manager: ObjectManager,
                 evaluator: ConditionEvaluator, txn_detector: Any,
                 temporal_detector: Any, external_detector: Any,
                 composite_detector: Any, *,
                 action_seconds: Dict[str, Any]) -> None:
        self._om = object_manager
        self._evaluator = evaluator
        self._txn_detector = txn_detector
        self._temporal = temporal_detector
        self._external = external_detector
        self._composite = composite_detector
        #: the action-time histogram of each C-A coupling
        self._action_seconds = action_seconds
        #: flight recorder; None unless the facade enables it.  Rule
        #: administration is journalled here as a stimulus: the rule-object
        #: operation itself is *not* journalled at the Object Manager
        #: (replay re-issues the rule operation from the caller's rule
        #: library, at this same point in sequence).
        self.recorder: Optional[Any] = None
        self._rules: Dict[str, Rule] = {}
        self._rules_by_oid: Dict[OID, Rule] = {}
        #: every feed, in the order a batch's union of them runs: temporal
        #: baselines, the automata, then rule management — an occurrence
        #: reaches the timers and automata programmed when it happened,
        #: before rule management reprograms them
        self.feeds: Tuple[Feed, ...] = (
            temporal_detector.observe_baseline, composite_detector.observe,
            self.on_rule_object)
        #: per programmed spec with a rule or a feed, who acts on it;
        #: replaced whole by :meth:`_rebuild`
        self.subscriptions: Dict[EventSpec, Subscription] = {}
        self._pending = threading.local()
        #: serializes every change to the mapping and the detectors, undo
        #: callbacks included: creating a rule takes only IX on its class,
        #: so two may register at once (re-entrant: composites recurse)
        self._mutex = threading.RLock()
        self._rebuild()

    # ============================================================ rule ops

    def create_rule(self, rule: Rule, txn: Transaction) -> Rule:
        """Create a rule (paper §6.1).

        The request is handled by the Object Manager: it creates the rule's
        ``HiPAC::Rule`` object under a write lock and signals the
        create-rule event; the catalog registers the rule (condition graph,
        event detectors, event->rule map) while that signal is handled,
        before the Object Manager resumes.  All registration is undone if
        ``txn`` aborts.
        """
        self._prepare(rule)
        self._journal("rule-create", rule.name, txn)
        stack = self._pending_stack()
        stack.append(rule)
        try:
            self._om.create(RULE_CLASS, rule.store_attrs(), txn)
        finally:
            if stack and stack[-1] is rule:
                stack.pop()
        if rule.name not in self._rules:  # pragma: no cover - defensive
            raise RuleError("rule registration failed for %r" % rule.name)
        return rule

    def delete_rule(self, name: str, txn: Transaction) -> None:
        """Delete a rule (write lock; undone if ``txn`` aborts)."""
        rule = self.get_rule(name)
        self._journal("rule-delete", name, txn)
        self._om.delete(rule.oid, txn)

    def enable_rule(self, name: str, txn: Transaction) -> None:
        """Re-enable automatic firing of a rule (write lock)."""
        self._update_enabled(name, True, txn)

    def disable_rule(self, name: str, txn: Transaction) -> None:
        """Disable automatic firing of a rule (write lock)."""
        self._update_enabled(name, False, txn)

    def _update_enabled(self, name: str, enabled: bool, txn: Transaction) -> None:
        rule = self.get_rule(name)
        self._journal("rule-enable" if enabled else "rule-disable", name, txn)
        self._om.update(rule.oid, {"enabled": enabled}, txn)

    def rules_in_group(self, group: str) -> List[str]:
        """Names of the rules belonging to ``group`` (paper §4.2), sorted."""
        return sorted(name for name, rule in self._rules.items()
                      if rule.group == group)

    def enable_group(self, group: str, txn: Transaction) -> List[str]:
        """Enable every rule in a group; returns the affected rule names."""
        return self._update_group(group, True, txn)

    def disable_group(self, group: str, txn: Transaction) -> List[str]:
        """Disable every rule in a group; returns the affected rule names."""
        return self._update_group(group, False, txn)

    def _update_group(self, group: str, enabled: bool, txn: Transaction) -> List[str]:
        names = self.rules_in_group(group)
        for name in names:
            self._update_enabled(name, enabled, txn)
        return names

    def reattach_rule(self, rule: Rule, oid: OID, enabled: bool,
                      txn: Transaction) -> Rule:
        """Re-register a rule against its recovered ``HiPAC::Rule`` row.

        Used by crash recovery: the row (carrying ``oid`` and the stored
        ``enabled`` flag) was restored by checkpoint/WAL replay at the
        store level, without signals, so the in-memory registration —
        condition graph, event detectors, event map — must be rebuilt from
        the caller's rule object.
        """
        self._prepare(rule)
        rule.enabled = bool(enabled)
        self._register(rule, oid, txn)
        return rule

    def get_rule(self, name: str) -> Rule:
        """Return the rule named ``name`` or raise :class:`RuleError`."""
        rule = self._rules.get(name)
        if rule is None:
            raise RuleError("no such rule: %r" % name)
        return rule

    def rule_names(self) -> List[str]:
        """Names of all registered rules, sorted."""
        return sorted(self._rules)

    def bootstrap_specs(self) -> List[DatabaseEventSpec]:
        """The self-management event specs (create/update/delete on the rule
        class) that the facade programs into the database event detector."""
        return [DatabaseEventSpec(op, RULE_CLASS)
                for op in ("create", "update", "delete")]

    def _prepare(self, rule: Rule) -> None:
        if rule.name in self._rules:
            raise RuleError("a rule named %r already exists" % rule.name)
        if rule.event is None:
            rule.event = derive_event_spec(rule.condition.queries)

    def _journal(self, kind: str, name: str, txn: Transaction) -> None:
        if self.recorder is not None:
            self.recorder.record_rule_op(kind, name, txn)

    # ==================================================== the firing path's view

    def union(self, first: Tuple[Feed, ...], second: Tuple[Feed, ...]
              ) -> Tuple[Feed, ...]:
        """The feeds of either subscription, each once, in :attr:`feeds`
        order (an operation matching several specs feeds each consumer
        once)."""
        return tuple(feed for feed in self.feeds
                     if feed in first or feed in second)

    def on_rule_object(self, signal: EventSignal) -> None:
        """Keep the catalog in step with an operation on a ``HiPAC::Rule``
        object (§6.1: handled while the Object Manager waits)."""
        txn = signal.txn
        if txn is None:  # pragma: no cover - rule ops always run in a txn
            raise RuleError("rule-object operations require a transaction")
        if signal.op == "create":
            stack = self._pending_stack()
            # An application may create a bare rule object without going
            # through create_rule; with no condition/action to register
            # there is nothing to manage.
            if stack:
                self._register(stack[-1], signal.oid, txn)
            return
        rule = self._rules_by_oid.get(signal.oid)
        if rule is None:
            return
        if signal.op == "delete":
            self._unregister(rule, txn)
        elif signal.op == "update" and signal.new_attrs is not None:
            enabled = bool(signal.new_attrs.get("enabled", rule.enabled))
            if enabled != rule.enabled:
                self._set_enabled(rule, enabled, txn)

    # ======================================================== registration

    def _pending_stack(self) -> List[Rule]:
        stack = getattr(self._pending, "stack", None)
        if stack is None:
            stack = self._pending.stack = []
        return stack

    def _register(self, rule: Rule, oid: OID, txn: Transaction) -> None:
        rule.oid = oid
        rule.plan = FiringPlan(rule, oid,
                               self._action_seconds[rule.ca_coupling])
        # §6.1 step 1: add the rule to the condition graph.
        rule.indexes = self._evaluator.add_rule(rule.condition, txn)
        # §6.1 steps 2 and 3: program the event detectors and extend the
        # event->rule mapping.
        self._attach(rule)
        txn.log_undo(CallbackUndo(
            lambda: self._detach(rule), label="forget rule %s" % rule.name))

    def _unregister(self, rule: Rule, txn: Transaction) -> None:
        self._evaluator.delete_rule(rule.condition, txn, rule.indexes)
        self._detach(rule)
        txn.log_undo(CallbackUndo(
            lambda: self._attach(rule),
            label="re-register rule %s" % rule.name))

    def _attach(self, rule: Rule) -> None:
        with self._mutex:
            self._define_event(rule.event)
            self._rules[rule.name] = rule
            self._rules_by_oid[rule.oid] = rule
            self._rebuild()

    def _detach(self, rule: Rule) -> None:
        with self._mutex:
            self._delete_event(rule.event)
            self._rules.pop(rule.name, None)
            self._rules_by_oid.pop(rule.oid, None)
            self._rebuild()

    def _set_enabled(self, rule: Rule, enabled: bool, txn: Transaction) -> None:
        previous = rule.enabled
        self._enable(rule, enabled)
        txn.log_undo(CallbackUndo(lambda: self._enable(rule, previous),
                                  label="revert enable %s" % rule.name))

    def _enable(self, rule: Rule, enabled: bool) -> None:
        with self._mutex:
            rule.enabled = enabled
            self._rebuild()

    def _rebuild(self) -> None:
        """Replace :attr:`subscriptions` with one worked out from the
        registered rules, then set each programmed spec's detector state
        to match: enabled exactly while its subscription is non-empty
        (several rules, composites and timers may share one spec, §5.3).
        Callers hold the mutex."""
        baseline, automata, rule_object = self.feeds
        wanted: Dict[EventSpec, Set[Feed]] = {
            spec: {rule_object} for spec in self.bootstrap_specs()}
        enabled: Dict[EventSpec, List[Rule]] = {}
        programmed = dict.fromkeys(wanted)  # in programming order
        for rule in self._rules.values():
            if rule.enabled:
                enabled.setdefault(rule.event, []).append(rule)
            for spec in _programming(rule.event):
                programmed[spec] = None
                if isinstance(spec, CompositeEventSpec):
                    for member in spec.primitives():
                        wanted.setdefault(member, set()).add(automata)
                elif (isinstance(spec, TemporalEventSpec)
                      and spec.baseline is not None):
                    wanted.setdefault(spec.baseline, set()).add(baseline)
        self.subscriptions = subscriptions = {
            spec: Subscription(
                tuple(sorted(enabled.get(spec, ()), key=firing_order)),
                tuple(feed for feed in self.feeds
                      if feed in wanted.get(spec, ())))
            for spec in {*enabled, *wanted}}
        for spec in programmed:
            detector = self.detector_for(spec)
            on = spec in subscriptions
            if detector.is_defined(spec) and detector.is_enabled(spec) != on:
                (detector.enable_event if on else detector.disable_event)(spec)

    # ====================================================== detector routing

    def detector_for(self, spec: Optional[EventSpec]) -> Any:
        """The Event Detector responsible for ``spec`` (None if none is)."""
        if isinstance(spec, CompositeEventSpec):
            return self._composite
        if isinstance(spec, DatabaseEventSpec):
            if spec.op in TXN_OPS:
                return self._txn_detector
            return self._om.event_detector
        if isinstance(spec, TemporalEventSpec):
            return self._temporal
        if isinstance(spec, ExternalEventSpec):
            return self._external
        return None

    def _define_event(self, spec: EventSpec) -> None:
        """Program the detectors for ``spec`` and every spec programmed
        along with it, per §6.1 (callers hold the mutex)."""
        for each in _programming(spec):
            detector = self.detector_for(each)
            if detector is None:
                raise RuleError("no detector available for event %r" % each)
            detector.define_event(each)

    def _delete_event(self, spec: EventSpec) -> None:
        for each in _programming(spec):
            detector = self.detector_for(each)
            if detector is not None:
                detector.delete_event(each)


def _programming(spec: EventSpec) -> Iterator[EventSpec]:
    """``spec`` and, recursively, the specs that must be programmed along
    with it: a composite's members, a relative/periodic temporal event's
    baseline."""
    yield spec
    if isinstance(spec, CompositeEventSpec):
        members: Tuple[EventSpec, ...] = tuple(spec.members)
    elif isinstance(spec, TemporalEventSpec) and spec.baseline is not None:
        members = (spec.baseline,)
    else:
        return
    for member in members:
        yield from _programming(member)
