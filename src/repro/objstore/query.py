"""Queries of the object-oriented DML.

A rule condition is "a collection of queries ... The condition is satisfied
if all of these queries produce non-empty results.  The results of these
queries are passed on to the action" (paper §2.1).  A :class:`Query` selects,
from the extent of a class (including subclasses), the instances matching a
predicate, optionally projecting attributes, ordering, and limiting.

Queries have structural equality (``canonical_key``), which the Condition
Evaluator uses to share one condition-graph node between rules that pose the
same query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import QueryError
from repro.objstore.objects import OID
from repro.objstore.predicates import TRUE, Predicate
from repro.util.canonical import once


@dataclass(frozen=True)
class Query:
    """A single-class selection query.

    Parameters
    ----------
    class_name:
        The class whose extent is ranged over.
    predicate:
        Boolean predicate over candidate objects; may reference event
        arguments via :class:`~repro.objstore.predicates.EventArg`.
    project:
        Attribute names to include in result rows (None = all attributes).
    include_subclasses:
        Whether instances of subclasses are candidates (default True, the
        usual OO-extent semantics).
    order_by / descending / limit:
        Optional deterministic ordering and truncation of results.
    """

    class_name: str
    predicate: Predicate = TRUE
    project: Optional[Tuple[str, ...]] = None
    include_subclasses: bool = True
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.class_name:
            raise QueryError("query requires a class name")
        if not isinstance(self.predicate, Predicate):
            raise QueryError("query predicate must be a Predicate")
        if self.project is not None:
            object.__setattr__(self, "project", tuple(self.project))
        if self.limit is not None and self.limit < 0:
            raise QueryError("query limit must be non-negative")

    @once
    def canonical_key(self) -> Tuple:
        """Structural key used for condition-graph sharing."""
        return (
            "query",
            self.class_name,
            self.predicate.canonical_key(),
            self.project,
            self.include_subclasses,
            self.order_by,
            self.descending,
            self.limit,
        )

    def event_args(self) -> FrozenSet[str]:
        """Event-argument names referenced by the predicate."""
        return self.predicate.event_args()

    def is_static(self) -> bool:
        """True if the query references no event arguments.

        Only static queries can be *materialized* in the condition graph;
        parameterized queries are evaluated per signal.
        """
        return not self.event_args()


@dataclass(frozen=True)
class Row:
    """One query result row: the matching object's OID and attribute values.

    ``attrs`` holds the projected attributes (all attributes if the query had
    no projection), snapshotted at evaluation time.
    """

    oid: OID
    attrs: Mapping[str, Any]

    def __getitem__(self, name: str) -> Any:
        return self.attrs[name]

    def get(self, name: str, default: Any = None) -> Any:
        return self.attrs.get(name, default)


@dataclass
class QueryResult:
    """The result of evaluating one query: an ordered list of rows."""

    query: Query
    rows: List[Row] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def oids(self) -> List[OID]:
        """Return the OIDs of all result rows, in order."""
        return [row.oid for row in self.rows]

    def first(self) -> Row:
        """Return the first row or raise :class:`QueryError` if empty."""
        if not self.rows:
            raise QueryError("query returned no rows")
        return self.rows[0]

    def values(self, attr: str) -> List[Any]:
        """Return the given attribute from every row."""
        return [row.get(attr) for row in self.rows]
