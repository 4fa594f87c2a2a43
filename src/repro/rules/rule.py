"""ECA rules as first-class database objects (paper §2).

"HiPAC uses an object-oriented data model ... and rules are first-class
database objects, subject to the same operations as user-defined objects
(plus some special operations)."

A :class:`Rule` carries the paper's rule attributes:

* **event** — the triggering event specification (primitive or composite);
  may be None, in which case the event is derived from the condition;
* **condition** — a collection of queries (+ optional guard);
* **action** — a sequence of operations (database ops / application
  requests);
* **E-C coupling** and **C-A coupling** modes.

Every rule also has a row in the system class ``HiPAC::Rule`` in the object
store; that object is what rule *operations* lock — "Firing requires a read
lock.  All operations that update rules (create, modify, delete, enable,
disable) require write locks" (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.conditions.condition import Condition
from repro.errors import RuleError
from repro.events.spec import EventSpec
from repro.objstore.objects import OID
from repro.objstore.types import AttrType, AttributeDef, ClassDef
from repro.rules.actions import Action
from repro.rules.coupling import IMMEDIATE, validate_mode

#: the system class holding one object per rule
RULE_CLASS = "HiPAC::Rule"


def rule_class_def() -> ClassDef:
    """The schema definition of the ``HiPAC::Rule`` system class."""
    return ClassDef(
        RULE_CLASS,
        (
            AttributeDef("name", AttrType.STRING, required=True, indexed=True),
            AttributeDef("enabled", AttrType.BOOL, default=True),
            AttributeDef("ec_coupling", AttrType.STRING, default=IMMEDIATE),
            AttributeDef("ca_coupling", AttrType.STRING, default=IMMEDIATE),
            AttributeDef("event_desc", AttrType.STRING, default=""),
            AttributeDef("description", AttrType.STRING, default=""),
            AttributeDef("group", AttrType.STRING, default=""),
        ),
    )


@dataclass
class Rule:
    """One ECA rule.

    ``separate_dependent`` (extension): when True, separate-coupled work
    triggered by an event in transaction T is launched only after T's
    top-level commit (causally dependent separate firing) and discarded if
    T aborts.  ``priority`` orders deterministic (serial-mode) firing of
    rules triggered by the same event; the paper itself prescribes *no*
    conflict resolution — all triggered rules fire, as concurrent siblings.
    ``deadline`` attaches a time constraint to the rule's separate firings:
    of the separate work queued at any moment the Rule Manager's
    :class:`repro.scheduler.DeadlineExecutor` runs the most urgent first,
    work without a deadline last.
    """

    name: str
    action: Action
    condition: Condition = field(default_factory=Condition.true)
    event: Optional[EventSpec] = None
    ec_coupling: str = IMMEDIATE
    ca_coupling: str = IMMEDIATE
    enabled: bool = True
    description: str = ""
    priority: int = 0
    separate_dependent: bool = False
    #: rule group (paper §4.2: the SAA's rules "are divided into two
    #: groups, display and trading"); groups can be enabled/disabled and
    #: listed as a unit
    group: str = ""
    #: extension ([BUC88] direction): relative deadline, in seconds from the
    #: triggering event, for this rule's separate-coupling work; queued
    #: separate work is taken earliest deadline first
    deadline: Optional[float] = None

    #: the rule's object in the store; assigned at creation
    oid: Optional[OID] = None
    #: what every firing of the rule reuses
    #: (:class:`~repro.rules.catalog.FiringPlan`); made at registration
    plan: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise RuleError("rules must be named")
        validate_mode(self.ec_coupling, "E-C")
        validate_mode(self.ca_coupling, "C-A")
        if not isinstance(self.action, Action):
            raise RuleError("rule %r: action must be an Action" % self.name)
        if not isinstance(self.condition, Condition):
            raise RuleError("rule %r: condition must be a Condition" % self.name)
        if self.event is not None and not isinstance(self.event, EventSpec):
            raise RuleError("rule %r: event must be an EventSpec" % self.name)

    def store_attrs(self) -> dict:
        """The attribute values of this rule's ``HiPAC::Rule`` object."""
        return {
            "name": self.name,
            "enabled": self.enabled,
            "ec_coupling": self.ec_coupling,
            "ca_coupling": self.ca_coupling,
            "event_desc": repr(self.event) if self.event is not None else "(derived)",
            "description": self.description,
            "group": self.group,
        }

    def __repr__(self) -> str:
        return "<Rule %s on %r E-C=%s C-A=%s%s>" % (
            self.name, self.event, self.ec_coupling, self.ca_coupling,
            "" if self.enabled else " DISABLED")
