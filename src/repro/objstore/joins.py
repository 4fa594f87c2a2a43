"""Join queries — the multi-class side of the object-oriented DML.

The common object-model join follows an OID-valued link: *items whose
warehouse is in Boston* joins ``Item.warehouse`` against ``Warehouse``
instances.  :class:`JoinQuery` expresses exactly that:

* ``left`` / ``right`` — ordinary :class:`~repro.objstore.query.Query`
  objects (each with its own predicate, which may reference event
  arguments);
* ``left_attr`` — the joining attribute of left rows;
* ``right_attr`` — the joining attribute of right rows, or the special
  :data:`OID_ATTR` (``"_oid"``) to join against the right object's
  identity (the OID-link case).

Execution is a hash join: the smaller-to-build right side is hashed on its
join key, the left side probes.  Results are :class:`JoinRow` pairs.

Join queries participate in rule conditions like any query (the condition
is satisfied when the join is non-empty; rows flow to the action), but they
are evaluated per signal rather than materialized in the condition graph —
incremental maintenance of join memories is future work, exactly the
condition-monitoring frontier the paper cites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.errors import QueryError
from repro.objstore.query import Query, Row
from repro.util.canonical import freeze, once

#: join against the right object's OID instead of one of its attributes
OID_ATTR = "_oid"


@dataclass(frozen=True)
class JoinQuery:
    """An equi-join of two class queries."""

    left: Query
    right: Query
    left_attr: str
    right_attr: str = OID_ATTR

    def __post_init__(self) -> None:
        if not isinstance(self.left, Query) or not isinstance(self.right, Query):
            raise QueryError("JoinQuery joins two Query instances")
        if not self.left_attr:
            raise QueryError("JoinQuery requires a left join attribute")
        if not self.right_attr:
            raise QueryError("JoinQuery requires a right join attribute")
        if self.left.project is not None and self.left_attr not in self.left.project:
            raise QueryError(
                "left projection must retain the join attribute %r"
                % self.left_attr)
        if (self.right_attr != OID_ATTR and self.right.project is not None
                and self.right_attr not in self.right.project):
            raise QueryError(
                "right projection must retain the join attribute %r"
                % self.right_attr)

    @once
    def canonical_key(self) -> Tuple:
        """Structural key (memoization within a signal round)."""
        return ("join", self.left.canonical_key(), self.right.canonical_key(),
                self.left_attr, self.right_attr)

    @once
    def event_args(self) -> FrozenSet[str]:
        """Event-argument names referenced by either side."""
        return self.left.event_args() | self.right.event_args()

    def is_static(self) -> bool:
        """Joins are never graph-materialized; treat as non-static."""
        return False


@dataclass(frozen=True)
class JoinRow:
    """One joined pair of rows."""

    left: Row
    right: Row

    @property
    def oid(self):
        """The left row's OID (the 'driving' object of the join)."""
        return self.left.oid

    def get(self, name: str, default: Any = None) -> Any:
        """Attribute lookup: ``left.<a>`` / ``right.<a>`` prefixed names, or
        unprefixed (left side wins)."""
        if name.startswith("left."):
            return self.left.get(name[5:], default)
        if name.startswith("right."):
            return self.right.get(name[6:], default)
        value = self.left.get(name, None)
        if value is not None:
            return value
        return self.right.get(name, default)

    def __getitem__(self, name: str) -> Any:
        value = self.get(name, _MISSING)
        if value is _MISSING:
            raise KeyError(name)
        return value


_MISSING = object()


@dataclass
class JoinResult:
    """The result of a join: ordered list of :class:`JoinRow`."""

    query: JoinQuery
    rows: List[JoinRow] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def oids(self) -> list:
        """Left-side OIDs of the joined pairs, in order."""
        return [row.left.oid for row in self.rows]

    def values(self, name: str) -> list:
        """``get(name)`` over every joined row."""
        return [row.get(name) for row in self.rows]

    def first(self) -> JoinRow:
        """First joined row, or :class:`QueryError` if empty."""
        if not self.rows:
            raise QueryError("join returned no rows")
        return self.rows[0]


def hash_join(join: JoinQuery, left_rows: List[Row],
              right_rows: List[Row]) -> JoinResult:
    """Join pre-evaluated row sets (build right, probe left).

    ``None`` join keys never match (SQL semantics for NULL FKs)."""
    buckets: Dict[Any, List[Row]] = {}
    for row in right_rows:
        if join.right_attr == OID_ATTR:
            key = row.oid
        else:
            key = row.get(join.right_attr)
        if key is None:
            continue
        buckets.setdefault(freeze(key), []).append(row)
    result = JoinResult(join)
    for left_row in left_rows:
        key = left_row.get(join.left_attr)
        if key is None:
            continue
        for right_row in buckets.get(freeze(key), ()):
            result.rows.append(JoinRow(left_row, right_row))
    return result
