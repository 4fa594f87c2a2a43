"""Query execution with index selection.

The executor is pure with respect to transactions: it reads the store the
caller has already locked (the Object Manager takes a shared lock on the
extents a query ranges over before invoking the executor).

Plan selection is deliberately simple and predictable:

1. If the predicate has an indexable equality conjunct (``Attr == Const`` or
   ``Attr == EventArg``) and an index exists on that attribute for one of the
   extents ranged over, probe the index and filter the residue.
2. Otherwise scan the extent(s) and filter.

Filtering binds the predicate's conjuncts once per execution and applies them
one at a time, each to the survivors of the one before.

The chosen plan is reported in :class:`Plan` so the ablation benchmark can
verify which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.errors import QueryError
from repro.objstore.objects import ObjectRecord
from repro.objstore.predicates import Bindings, equality_lookups
from repro.objstore.query import Query, QueryResult, Row
from repro.objstore.store import ObjectStore


@dataclass(frozen=True)
class Plan:
    """How a query was (or would be) executed."""

    kind: str  # "index-probe" or "scan"
    class_names: tuple
    index_attr: Optional[str] = None


class QueryExecutor:
    """Evaluates :class:`Query` objects against an :class:`ObjectStore`."""

    def __init__(self, store: ObjectStore, use_indexes: bool = True) -> None:
        self._store = store
        self.use_indexes = use_indexes

    def plan(self, query: Query, bindings: Bindings = ()) -> Plan:
        """Return the plan that :meth:`execute` would use for ``query``."""
        class_names = self._extent_classes(query)
        if self.use_indexes:
            for attr in equality_lookups(query.predicate):
                if all(
                    self._store.indexes.get(name, attr) is not None
                    for name in class_names
                ):
                    return Plan("index-probe", tuple(class_names), attr)
        return Plan("scan", tuple(class_names))

    def execute(self, query: Query, bindings: Bindings = ()) -> QueryResult:
        """Evaluate ``query`` with the given event-argument ``bindings``."""
        bindings = bindings or {}
        plan = self.plan(query, bindings)
        if plan.kind == "index-probe":
            records = self._probe(query, plan, bindings)
        else:
            records = self._scan(plan)
        for test in query.predicate.bind_conjuncts(bindings):
            records = [record for record in records if test(record.attrs)]
        return self.materialize_rows(query, records)

    def count(self, query: Query, bindings: Bindings = ()) -> int:
        """Return the number of matching rows (no projection cost)."""
        return len(self.execute(query, bindings))

    def materialize_rows(self, query: Query,
                         records: Iterable[ObjectRecord]) -> QueryResult:
        """Build a :class:`QueryResult` from pre-matched records.

        Applies the query's projection, ordering, and limit but *not* its
        predicate — used by the condition graph, whose memories already hold
        exactly the matching objects.
        """
        rows = [self._project(query, record) for record in records]
        rows = self._order_and_limit(query, rows)
        return QueryResult(query, rows)

    # ------------------------------------------------------------- internal

    def _extent_classes(self, query: Query) -> List[str]:
        if query.include_subclasses:
            return self._store.schema.subclasses(query.class_name)
        self._store.schema.get(query.class_name)
        return [query.class_name]

    def _scan(self, plan: Plan) -> Iterable[ObjectRecord]:
        records: List[ObjectRecord] = []
        for name in plan.class_names:
            records.extend(self._store.extent(name, include_subclasses=False))
        return records

    def _probe(self, query: Query, plan: Plan, bindings: Bindings) -> Iterable[ObjectRecord]:
        value_expr = equality_lookups(query.predicate)[plan.index_attr]  # type: ignore[index]
        value = value_expr.evaluate({}, bindings)
        records: List[ObjectRecord] = []
        for name in plan.class_names:
            index = self._store.indexes.get(name, plan.index_attr)  # type: ignore[arg-type]
            if index is None:  # pragma: no cover - plan guarantees presence
                continue
            for oid in index.lookup(value):
                records.append(self._store.get(oid))
        return records

    def _project(self, query: Query, record: ObjectRecord) -> Row:
        if query.project is None:
            return Row(record.oid, record.snapshot())
        missing = [name for name in query.project if name not in record.attrs]
        if missing:
            raise QueryError(
                "projection references unknown attributes %s on class %r"
                % (missing, record.oid.class_name)
            )
        return Row(record.oid, {name: record.attrs[name] for name in query.project})

    def _order_and_limit(self, query: Query, rows: List[Row]) -> List[Row]:
        if query.order_by is not None:
            try:
                rows.sort(
                    key=lambda row: (row.get(query.order_by) is None,
                                     row.get(query.order_by), row.oid),
                    reverse=query.descending,
                )
            except TypeError as exc:
                raise QueryError("cannot order by %r: values are not mutually "
                                 "comparable (%s)" % (query.order_by, exc)) from exc
        else:
            rows.sort(key=lambda row: row.oid)
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows
