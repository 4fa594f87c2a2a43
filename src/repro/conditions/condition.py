"""Rule conditions (paper §2.1).

"The condition is a collection of queries expressed in an object-oriented
DML.  The queries may refer to arguments in the event signal.  The condition
is satisfied if all of these queries produce non-empty results.  The results
of these queries are passed on to the action, together with the argument
bindings obtained from the event signal."

An empty collection is the always-true condition (the paper's
``Condition: true``).  As in the HiPAC prototype — where "rule conditions
and actions are expressed as Smalltalk blocks" — an optional ``guard``
callable over the bindings/results provides an escape hatch for predicates
the query language cannot express; guarded conditions are excluded from
condition-graph materialization but evaluated like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConditionError
from repro.objstore.joins import JoinQuery
from repro.objstore.query import Query, QueryResult


@dataclass(frozen=True)
class Condition:
    """A collection of queries, all of which must return rows.

    ``guard(bindings, results)`` — optional final predicate; the condition
    is satisfied only if every query returned rows *and* the guard returns
    truthy.  ``name`` labels the condition in traces.
    """

    queries: Tuple[Query, ...] = ()
    guard: Optional[Callable[[Dict[str, Any], List[QueryResult]], bool]] = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        for query in self.queries:
            if not isinstance(query, (Query, JoinQuery)):
                raise ConditionError(
                    "condition queries must be Query or JoinQuery instances")

    @staticmethod
    def true() -> "Condition":
        """The always-true condition."""
        return Condition()

    @staticmethod
    def of(*queries: Query) -> "Condition":
        """Condition over the given queries."""
        return Condition(tuple(queries))

    def event_args(self) -> frozenset:
        """All event-argument names referenced by the condition's queries."""
        names: frozenset = frozenset()
        for query in self.queries:
            names |= query.event_args()
        return names


@dataclass
class ConditionOutcome:
    """The result of evaluating a condition for one rule firing.

    ``results`` holds one :class:`QueryResult` per condition query (in
    order); they are handed to the action together with the event bindings,
    per the paper.
    """

    satisfied: bool
    results: List[QueryResult] = field(default_factory=list)
    bindings: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfied
