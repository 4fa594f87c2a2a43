"""ECA rules: the rule object class, actions, couplings, the rule catalog
(§6.1) and the Rule Manager (paper §2, §5.4, §6.2–§6.3)."""

from repro.rules.coupling import DEFERRED, IMMEDIATE, MODES, SEPARATE, all_combinations
from repro.rules.rule import RULE_CLASS, Rule, rule_class_def
from repro.rules.actions import (
    AbortStep,
    Action,
    ActionContext,
    ActionStep,
    CallStep,
    DatabaseStep,
    RequestStep,
    SignalStep,
)
from repro.rules.catalog import RuleCatalog
from repro.rules.firing import FiringLog, RuleFiring
from repro.rules.manager import RuleManager

__all__ = [
    "IMMEDIATE",
    "DEFERRED",
    "SEPARATE",
    "MODES",
    "all_combinations",
    "Rule",
    "RULE_CLASS",
    "rule_class_def",
    "Action",
    "ActionContext",
    "ActionStep",
    "DatabaseStep",
    "RequestStep",
    "SignalStep",
    "CallStep",
    "AbortStep",
    "RuleFiring",
    "FiringLog",
    "RuleCatalog",
    "RuleManager",
]
