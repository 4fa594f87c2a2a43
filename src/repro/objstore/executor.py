"""Query execution with index selection.

The executor is pure with respect to transactions: it reads the store the
caller has already locked (the Object Manager takes a shared lock on the
extents a query ranges over before invoking the executor).

Plan selection is deliberately simple and predictable:

1. If the predicate has an indexable equality conjunct (``Attr == Const`` or
   ``Attr == EventArg``) that a probe may answer under the bindings (see
   :func:`~repro.objstore.predicates.probe_attrs`) and an index exists on
   that attribute for every extent ranged over, probe the index and filter
   the residue.
2. Otherwise scan the extent(s) and filter.

Filtering binds the predicate's conjuncts once per execution and applies them
a list at a time, each to the survivors of the one before.  Index buckets
hold the live records, so a probe costs one copy per bucket.  The queries of
one firing group share that work through the group's memo.

The chosen plan is reported in :class:`Plan` so the ablation benchmark can
verify which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import QueryError
from repro.objstore.objects import ObjectRecord
from repro.objstore.predicates import (
    Bindings, bind_filter, equality_lookups, probe_attrs)
from repro.objstore.query import Query, QueryResult, Row
from repro.objstore.store import ObjectStore

#: OID order, compared in C: the same order as ``OID.__lt__``
_BY_OID = attrgetter("oid.class_name", "oid.number")


@dataclass(frozen=True)
class Plan:
    """How a query was (or would be) executed."""

    kind: str  # "index-probe" or "scan"
    class_names: tuple
    index_attr: Optional[str] = None


def _chain(query: Query, plan: Plan, value: Any, bindings: Bindings) -> Any:
    """The memo keys of a query's candidate list and of each conjunct prefix
    after it; None when an argument is unbound or a key unhashable."""
    keys: List[Any] = [(plan.class_names, plan.index_attr, value)]
    try:
        for _, part_key, get in query.predicate.links():
            keys.append((keys[-1], part_key,
                         None if get is None else get(bindings)))
        hash(keys[-1])
    except (KeyError, TypeError):
        return None
    return keys


class QueryExecutor:
    """Evaluates :class:`Query` objects against an :class:`ObjectStore`."""

    def __init__(self, store: ObjectStore, use_indexes: bool = True) -> None:
        self._store = store
        self.use_indexes = use_indexes

    def plan(self, query: Query, bindings: Bindings = ()) -> Plan:
        """Return the plan that :meth:`execute` would use for ``query``
        under ``bindings``."""
        class_names = self._extent_classes(query)
        if self.use_indexes:
            for attr in probe_attrs(query.predicate, bindings):
                if all(
                    self._store.indexes.get(name, attr) is not None
                    for name in class_names
                ):
                    return Plan("index-probe", tuple(class_names), attr)
        return Plan("scan", tuple(class_names))

    def execute(self, query: Query, bindings: Bindings = (),
                memo: Optional[Dict[Any, Any]] = None) -> QueryResult:
        """Evaluate ``query`` with the given event-argument ``bindings``.

        With a firing group's ``memo`` (:data:`~repro.conditions.evaluator.Memo`)
        its queries share candidate lists sorted by OID once, conjunct
        prefixes and rows, unless an argument is unbound or unhashable."""
        bindings = bindings or {}
        plan = self.plan(query, bindings)
        value = None  # the probe key
        if plan.kind == "index-probe":
            value = equality_lookups(query.predicate)[plan.index_attr].evaluate({}, bindings)  # type: ignore[index]
        keys = None if memo is None else _chain(query, plan, value, bindings)
        records = None if keys is None else memo.get(keys[0])
        if records is None:
            records = (self._probe(plan, value) if plan.kind == "index-probe"
                       else self._scan(plan))
            if keys is None:
                for keep in query.predicate.bind_filters(bindings):
                    if not records:
                        break
                    records = keep(records)
                return self.materialize_rows(query, records)
            records = memo[keys[0]] = sorted(records, key=_BY_OID)
        for (part, _, _), key in zip(query.predicate.links(), keys[1:]):
            if key not in memo:
                memo[key] = bind_filter(part, bindings)(records) if records else records
            records = memo[key]
        return self.materialize_rows(query, records, memo)

    def materialize_rows(self, query: Query, records: Iterable[ObjectRecord],
                         memo: Optional[Dict[Any, Any]] = None) -> QueryResult:
        """Build a :class:`QueryResult` from pre-matched records.

        Applies the query's projection, ordering, and limit but *not* its
        predicate — used by the condition graph, whose memories already hold
        exactly the matching objects.  With a ``memo``, ``records`` are in
        OID order and unprojected rows are shared, one per record.
        """
        if query.project is not None:
            rows = [self._project(query, record) for record in records]
        elif memo is None:
            rows = [Row(record.oid, record.snapshot()) for record in records]
        else:
            rows = [memo.get(record) or memo.setdefault(
                record, Row(record.oid, record.snapshot())) for record in records]
        if memo is None or query.order_by is not None:
            rows = self._order_and_limit(query, rows)
        elif query.limit is not None:
            rows = rows[: query.limit]
        return QueryResult(query, rows)

    # ------------------------------------------------------------- internal

    def _extent_classes(self, query: Query) -> List[str]:
        if query.include_subclasses:
            return self._store.schema.subclasses(query.class_name)
        self._store.schema.get(query.class_name)
        return [query.class_name]

    def _scan(self, plan: Plan) -> List[ObjectRecord]:
        records: List[ObjectRecord] = []
        for name in plan.class_names:
            records.extend(self._store.extent(name, include_subclasses=False))
        return records

    def _probe(self, plan: Plan, value: Any) -> List[ObjectRecord]:
        records: List[ObjectRecord] = []
        for name in plan.class_names:
            index = self._store.indexes.get(name, plan.index_attr)  # type: ignore[arg-type]
            if index is None:  # released since planning: its extent will do
                records.extend(self._store.extent(name, include_subclasses=False))
            else:
                records.extend(index.records(value))
        return records

    def _project(self, query: Query, record: ObjectRecord) -> Row:
        missing = [name for name in query.project if name not in record.attrs]
        if missing:
            raise QueryError(
                "projection references unknown attributes %s on class %r"
                % (missing, record.oid.class_name)
            )
        return Row(record.oid, {name: record.attrs[name] for name in query.project})

    def _order_and_limit(self, query: Query, rows: List[Row]) -> List[Row]:
        # OID order first, under order_by too: a NaN orders nothing, so its
        # sort's result would follow the order the plan found the rows in
        rows.sort(key=_BY_OID)
        if query.order_by is not None:
            try:
                rows.sort(
                    key=lambda row: (row.get(query.order_by) is None,
                                     row.get(query.order_by), _BY_OID(row)),
                    reverse=query.descending,
                )
            except TypeError as exc:
                raise QueryError("cannot order by %r: values are not mutually "
                                 "comparable (%s)" % (query.order_by, exc)) from exc
        if query.limit is not None:
            rows = rows[: query.limit]
        return rows
