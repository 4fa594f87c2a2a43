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
(:mod:`repro.rules.manager`) sees the catalog through two calls only:
:meth:`RuleCatalog.triggered` (which enabled rules does this signal fire?)
and :meth:`RuleCatalog.on_rule_object` (an operation on a rule object was
signalled — keep the catalog in step).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Set

from repro.conditions.evaluator import ConditionEvaluator
from repro.core import tracing
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
from repro.txn.transaction import Transaction
from repro.txn.undo import CallbackUndo


class RuleCatalog:
    """The registered rules and the event->rule mapping (§6.1)."""

    def __init__(self, object_manager: ObjectManager,
                 evaluator: ConditionEvaluator, txn_detector: Any,
                 temporal_detector: Any, external_detector: Any,
                 composite_detector: Any, tracer: tracing.Tracer) -> None:
        self._om = object_manager
        self._evaluator = evaluator
        self._txn_detector = txn_detector
        self._temporal = temporal_detector
        self._external = external_detector
        self._composite = composite_detector
        self._tracer = tracer
        #: flight recorder; None unless the facade enables it.  Rule
        #: administration is journalled here as a stimulus: the rule-object
        #: operation itself is *not* journalled at the Object Manager
        #: (replay re-issues the rule operation from the caller's rule
        #: library, at this same point in sequence).
        self.recorder: Optional[Any] = None
        self._rules: Dict[str, Rule] = {}
        self._rules_by_oid: Dict[OID, Rule] = {}
        self._event_map: Dict[EventSpec, Set[str]] = {}
        self._pending = threading.local()

    # ============================================================ rule ops

    def create_rule(self, rule: Rule, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> Rule:
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
            self._om.create(RULE_CLASS, rule.store_attrs(), txn, source=source)
        finally:
            if stack and stack[-1] is rule:
                stack.pop()
        if rule.name not in self._rules:  # pragma: no cover - defensive
            raise RuleError("rule registration failed for %r" % rule.name)
        return rule

    def delete_rule(self, name: str, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> None:
        """Delete a rule (write lock; undone if ``txn`` aborts)."""
        rule = self.get_rule(name)
        self._journal("rule-delete", name, txn)
        self._om.delete(rule.oid, txn, source=source)

    def enable_rule(self, name: str, txn: Transaction, *,
                    source: str = tracing.APPLICATION) -> None:
        """Re-enable automatic firing of a rule (write lock)."""
        self._update_enabled(name, True, txn, source)

    def disable_rule(self, name: str, txn: Transaction, *,
                     source: str = tracing.APPLICATION) -> None:
        """Disable automatic firing of a rule (write lock)."""
        self._update_enabled(name, False, txn, source)

    def _update_enabled(self, name: str, enabled: bool, txn: Transaction,
                        source: str) -> None:
        rule = self.get_rule(name)
        self._journal("rule-enable" if enabled else "rule-disable", name, txn)
        self._om.update(rule.oid, {"enabled": enabled}, txn, source=source)

    def rules_in_group(self, group: str) -> List[str]:
        """Names of the rules belonging to ``group`` (paper §4.2), sorted."""
        return sorted(name for name, rule in self._rules.items()
                      if rule.group == group)

    def enable_group(self, group: str, txn: Transaction, *,
                     source: str = tracing.APPLICATION) -> List[str]:
        """Enable every rule in a group; returns the affected rule names."""
        return self._update_group(group, True, txn, source)

    def disable_group(self, group: str, txn: Transaction, *,
                      source: str = tracing.APPLICATION) -> List[str]:
        """Disable every rule in a group; returns the affected rule names."""
        return self._update_group(group, False, txn, source)

    def _update_group(self, group: str, enabled: bool, txn: Transaction,
                      source: str) -> List[str]:
        names = self.rules_in_group(group)
        for name in names:
            self._update_enabled(name, enabled, txn, source)
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
        self._sync_detector_enablement(rule)
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

    def triggered(self, signal: EventSignal) -> List[Rule]:
        """The enabled rules ``signal`` triggers, in name order."""
        if signal.spec is None:
            return []
        rules = self._rules
        return [rules[name]
                for name in sorted(self._event_map.get(signal.spec, ()))
                if name in rules and rules[name].enabled]

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
        # §6.1 step 1: add the rule to the condition graph.
        self._evaluator.add_rule(rule.condition, txn)
        # §6.1 step 2: program the event detectors.
        self._define_event(rule.event)
        txn.log_undo(CallbackUndo(
            lambda: self._delete_event(rule.event),
            label="undefine events of %s" % rule.name))
        # §6.1 step 3: extend the event->rule mapping.
        self._remember(rule)
        txn.log_undo(CallbackUndo(
            lambda: self._forget(rule),
            label="forget rule %s" % rule.name))

    def _unregister(self, rule: Rule, txn: Transaction) -> None:
        self._evaluator.delete_rule(rule.condition, txn)
        self._delete_event(rule.event)
        txn.log_undo(CallbackUndo(
            lambda: self._define_event(rule.event),
            label="re-define events of %s" % rule.name))
        self._forget(rule)
        txn.log_undo(CallbackUndo(
            lambda: self._remember(rule),
            label="re-register rule %s" % rule.name))

    def _remember(self, rule: Rule) -> None:
        self._event_map.setdefault(rule.event, set()).add(rule.name)
        self._rules[rule.name] = rule
        self._rules_by_oid[rule.oid] = rule

    def _forget(self, rule: Rule) -> None:
        names = self._event_map.get(rule.event)
        if names is not None:
            names.discard(rule.name)
            if not names:
                del self._event_map[rule.event]
        self._rules.pop(rule.name, None)
        self._rules_by_oid.pop(rule.oid, None)

    def _set_enabled(self, rule: Rule, enabled: bool, txn: Transaction) -> None:
        previous = rule.enabled
        rule.enabled = enabled
        self._sync_detector_enablement(rule)

        def revert() -> None:
            rule.enabled = previous
            self._sync_detector_enablement(rule)
        txn.log_undo(CallbackUndo(revert, label="revert enable %s" % rule.name))

    def _sync_detector_enablement(self, rule: Rule) -> None:
        """Disable event detection for a spec only when *no* enabled rule
        uses it (several rules may share one event, §5.3)."""
        spec = rule.event
        detector = self.detector_for(spec)
        if detector is None or not detector.is_defined(spec):
            return
        if any(self._rules[name].enabled
               for name in self._event_map.get(spec, ())
               if name in self._rules):
            detector.enable_event(spec)
        else:
            detector.disable_event(spec)

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
        """Program the detectors for ``spec`` (recursively for composites
        and temporal baselines), with tracing per §6.1."""
        detector = self.detector_for(spec)
        if detector is None:
            raise RuleError("no detector available for event %r" % spec)
        self._tracer.record(tracing.RULE_MANAGER, tracing.EVENT_DETECTOR,
                            "define_event", "%r", spec)
        detector.define_event(spec)
        for member in _constituents(spec):
            self._define_event(member)

    def _delete_event(self, spec: EventSpec) -> None:
        detector = self.detector_for(spec)
        if detector is None:
            return
        self._tracer.record(tracing.RULE_MANAGER, tracing.EVENT_DETECTOR,
                            "delete_event", "%r", spec)
        detector.delete_event(spec)
        for member in _constituents(spec):
            self._delete_event(member)


def _constituents(spec: EventSpec) -> tuple:
    """The specs that must be programmed along with ``spec``: a composite's
    members, a relative/periodic temporal event's baseline."""
    if isinstance(spec, CompositeEventSpec):
        return tuple(spec.members)
    if isinstance(spec, TemporalEventSpec) and spec.baseline is not None:
        return (spec.baseline,)
    return ()
