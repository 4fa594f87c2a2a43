"""Rule-base analysis (paper §7, future work).

"As the rule base for an application grows, problems due to unexpected
interactions among rules become more likely. ... Future research will
produce the tools and techniques needed to develop large, complex rule
bases."

This module is that tool for this system.  It builds the **triggering
graph** of a rule base — an edge R1 -> R2 whenever an operation R1's action
can perform (or an event it can signal) matches R2's event — and derives:

* **cycles** — potential infinite cascades (R1 -> ... -> R1).  A cycle is a
  warning, not necessarily a bug (conditions may break it), which is
  exactly why the runtime also carries a cascade-depth bound;
* **write/write interactions** — two rules triggered by overlapping events
  whose actions write the same class, where the paper's "no conflict
  resolution, all rules fire concurrently" policy makes the outcome
  order-dependent under separate coupling;
* **stratification** — a topological layering of the acyclic part of the
  graph, useful for understanding cascade depth.

Action effects are declared: structured steps (:class:`DatabaseStep` with a
static operation, :class:`RequestStep`, :class:`SignalStep`) are analyzed
automatically; opaque :class:`CallStep`/builder actions are handled through
the optional ``declared_effects`` on the analysis request (the price of
Smalltalk-block-style actions, which the paper's prototype shared).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.events.spec import (
    DatabaseEventSpec,
    EventSpec,
    ExternalEventSpec,
    TemporalEventSpec,
)
from repro.objstore.operations import (
    CreateObject,
    DeleteObject,
    Operation,
    UpdateObject,
)
from repro.rules.actions import DatabaseStep, SignalStep
from repro.rules.rule import Rule


@dataclass(frozen=True)
class Effect:
    """One potential effect of a rule's action.

    ``kind`` is a database operation kind ("create"/"update"/"delete") with
    a ``class_name`` (and optionally the written ``attrs``), or
    ``"signal"`` with the external event's ``name``.
    """

    kind: str
    class_name: Optional[str] = None
    attrs: Optional[FrozenSet[str]] = None
    event_name: Optional[str] = None

    @staticmethod
    def create(class_name: str) -> "Effect":
        return Effect("create", class_name)

    @staticmethod
    def update(class_name: str, attrs: Optional[Iterable[str]] = None) -> "Effect":
        return Effect("update", class_name,
                      frozenset(attrs) if attrs is not None else None)

    @staticmethod
    def delete(class_name: str) -> "Effect":
        return Effect("delete", class_name)

    @staticmethod
    def signal(event_name: str) -> "Effect":
        return Effect("signal", event_name=event_name)


def effects_of_operation(op: Operation) -> List[Effect]:
    """Derive effects from a static operation descriptor."""
    if isinstance(op, CreateObject):
        return [Effect.create(op.class_name)]
    if isinstance(op, UpdateObject):
        return [Effect.update(op.oid.class_name, op.changes.keys())]
    if isinstance(op, DeleteObject):
        return [Effect.delete(op.oid.class_name)]
    return []


def declared_effects(rule: Rule) -> List[Effect]:
    """Effects statically derivable from a rule's action steps."""
    effects: List[Effect] = []
    for step in rule.action.steps:
        if isinstance(step, DatabaseStep) and isinstance(step.operation, Operation):
            effects.extend(effects_of_operation(step.operation))
        elif isinstance(step, SignalStep):
            effects.append(Effect.signal(step.event_name))
    return effects


def _primitive_specs(event: Optional[EventSpec]) -> List[EventSpec]:
    if event is None:
        return []
    return list(event.primitives())


def effect_triggers(effect: Effect, spec: EventSpec) -> bool:
    """Conservatively: could ``effect`` produce an occurrence of ``spec``?

    Subclass relationships are unknown here, so class names compare by
    equality plus the wildcard (None) — callers wanting subclass precision
    pass a schema-expanded rule set."""
    if isinstance(spec, DatabaseEventSpec):
        if effect.kind not in ("create", "update", "delete"):
            return False
        if effect.kind != spec.op:
            return False
        if spec.class_name is not None and effect.class_name != spec.class_name:
            return False
        if spec.op == "update" and spec.attrs is not None and effect.attrs is not None:
            return bool(spec.attrs & effect.attrs)
        return True
    if isinstance(spec, ExternalEventSpec):
        return effect.kind == "signal" and effect.event_name == spec.name
    if isinstance(spec, TemporalEventSpec):
        # Temporal events with a baseline fire after their baseline; an
        # effect that triggers the baseline transitively arms the timer.
        if spec.baseline is not None:
            return any(effect_triggers(effect, member)
                       for member in _primitive_specs(spec.baseline))
        return False
    return False


@dataclass
class AnalysisReport:
    """The analyzer's findings."""

    edges: List[Tuple[str, str]] = field(default_factory=list)
    cycles: List[List[str]] = field(default_factory=list)
    write_conflicts: List[Tuple[str, str, str]] = field(default_factory=list)
    strata: List[List[str]] = field(default_factory=list)
    opaque_rules: List[str] = field(default_factory=list)

    def has_potential_infinite_cascade(self) -> bool:
        """True if any triggering cycle exists."""
        return bool(self.cycles)

    def max_cascade_depth(self) -> int:
        """Longest acyclic triggering chain (number of strata)."""
        return len(self.strata)

    def format(self) -> str:
        """Human-readable report."""
        lines = ["rule-base analysis:"]
        lines.append("  triggering edges: %d" % len(self.edges))
        for src, dst in self.edges:
            lines.append("    %s -> %s" % (src, dst))
        if self.cycles:
            lines.append("  POTENTIAL INFINITE CASCADES:")
            for cycle in self.cycles:
                lines.append("    " + " -> ".join(cycle + [cycle[0]]))
        else:
            lines.append("  no triggering cycles")
        if self.write_conflicts:
            lines.append("  order-dependent write/write interactions:")
            for a, b, class_name in self.write_conflicts:
                lines.append("    %s and %s both write %s" % (a, b, class_name))
        if self.opaque_rules:
            lines.append("  rules with opaque actions (declare effects to"
                         " analyze): %s" % ", ".join(self.opaque_rules))
        lines.append("  strata (acyclic part): %s"
                     % " | ".join(",".join(s) for s in self.strata))
        return "\n".join(lines)


class RuleBaseAnalyzer:
    """Builds and analyzes the triggering graph of a set of rules."""

    def __init__(self, rules: Sequence[Rule],
                 extra_effects: Optional[Dict[str, Iterable[Effect]]] = None) -> None:
        """``extra_effects`` maps rule name -> declared effects for rules
        whose actions the analyzer cannot see through (callables)."""
        self._rules = list(rules)
        self._effects: Dict[str, List[Effect]] = {}
        self.opaque: List[str] = []
        extra = extra_effects or {}
        for rule in self._rules:
            effects = declared_effects(rule)
            effects.extend(extra.get(rule.name, ()))
            self._effects[rule.name] = effects
            has_opaque_step = any(
                not isinstance(step, (DatabaseStep, SignalStep))
                or (isinstance(step, DatabaseStep)
                    and not isinstance(step.operation, Operation))
                for step in rule.action.steps)
            if has_opaque_step and rule.name not in extra:
                self.opaque.append(rule.name)

    def triggering_edges(self) -> List[Tuple[str, str]]:
        """All edges R1 -> R2 where R1's action may trigger R2."""
        edges = []
        for src in self._rules:
            for dst in self._rules:
                if self._may_trigger(src, dst):
                    edges.append((src.name, dst.name))
        return edges

    def _may_trigger(self, src: Rule, dst: Rule) -> bool:
        for effect in self._effects[src.name]:
            for spec in _primitive_specs(dst.event):
                if effect_triggers(effect, spec):
                    return True
        return False

    def analyze(self) -> AnalysisReport:
        """Run the full analysis."""
        edges = self.triggering_edges()
        report = AnalysisReport(edges=edges, opaque_rules=list(self.opaque))
        adjacency: Dict[str, Set[str]] = {rule.name: set() for rule in self._rules}
        for src, dst in edges:
            adjacency[src].add(dst)
        report.cycles = _find_cycles(adjacency)
        report.strata = _stratify(adjacency)
        report.write_conflicts = self._write_conflicts()
        return report

    def _write_conflicts(self) -> List[Tuple[str, str, str]]:
        conflicts = []
        for i, a in enumerate(self._rules):
            for b in self._rules[i + 1:]:
                if not self._overlapping_events(a, b):
                    continue
                written_a = {e.class_name for e in self._effects[a.name]
                             if e.kind in ("create", "update", "delete")}
                written_b = {e.class_name for e in self._effects[b.name]
                             if e.kind in ("create", "update", "delete")}
                for class_name in sorted(written_a & written_b - {None}):
                    conflicts.append((a.name, b.name, class_name))
        return conflicts

    @staticmethod
    def _overlapping_events(a: Rule, b: Rule) -> bool:
        specs_a = set(_primitive_specs(a.event))
        specs_b = set(_primitive_specs(b.event))
        return bool(specs_a & specs_b)


def _find_cycles(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles via DFS (reported once, rotation-normalized)."""
    cycles: List[List[str]] = []
    seen_keys: Set[Tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: List[str], visited: Set[str]) -> None:
        for neighbor in sorted(adjacency.get(node, ())):
            if neighbor == start:
                rotation = min(range(len(path)),
                               key=lambda i: path[i])
                normal = tuple(path[rotation:] + path[:rotation])
                if normal not in seen_keys:
                    seen_keys.add(normal)
                    cycles.append(list(normal))
            elif neighbor not in visited and neighbor > start:
                visited.add(neighbor)
                dfs(start, neighbor, path + [neighbor], visited)
                visited.discard(neighbor)

    for start in sorted(adjacency):
        dfs(start, start, [start], {start})
    return cycles


def _stratify(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Topological layers of the graph with cycle members removed."""
    in_cycle: Set[str] = set()
    for cycle in _find_cycles(adjacency):
        in_cycle.update(cycle)
    nodes = [n for n in adjacency if n not in in_cycle]
    indegree = {n: 0 for n in nodes}
    for src in nodes:
        for dst in adjacency[src]:
            if dst in indegree:
                indegree[dst] += 1
    strata: List[List[str]] = []
    remaining = set(nodes)
    while remaining:
        layer = sorted(n for n in remaining if indegree[n] == 0)
        if not layer:  # pragma: no cover - cycles already removed
            break
        strata.append(layer)
        for node in layer:
            remaining.discard(node)
            for dst in adjacency[node]:
                if dst in indegree and dst in remaining:
                    indegree[dst] -= 1
    return strata


def analyze_rule_base(db, extra_effects=None) -> AnalysisReport:
    """Analyze a live HiPAC instance's rule base."""
    rules = [db.rule_catalog.get_rule(name) for name in db.rule_names()]
    return RuleBaseAnalyzer(rules, extra_effects).analyze()
