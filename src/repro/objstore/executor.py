"""Query execution with index selection.

The executor is pure with respect to transactions: it reads the store the
caller has already locked (the Object Manager takes a shared lock on the
extents a query ranges over before invoking the executor).

Plan selection is deliberately simple and predictable:

1. If the predicate has an indexable equality conjunct (``Attr == Const`` or
   ``Attr == EventArg``) that a probe may answer under the bindings (see
   :meth:`~repro.objstore.predicates.Shape.probe_candidates`) and an index
   exists on that attribute for every extent ranged over, probe the index
   and filter the residue (``"index-probe"``).
1½. Otherwise, with every event argument bound, if an attribute has a
   lower and an upper bound (a ``Shape.fused`` step) whose values are both
   numbers, not NaN, and an index exists on it for every extent ranged
   over, bisect the indexes' key order and filter (``"index-range"``).
   Where an index is missing and the predicate offers no equality to
   probe, the query requests it first
   (:meth:`~repro.objstore.store.ObjectStore.request_index`, kept as a
   declaration): the S lock the caller holds on the extents keeps other
   writers out while it is built.
2. Otherwise scan the extent(s) and filter (``"scan"``).

All come from the predicate's :class:`~repro.objstore.predicates.Shape`,
one walk of its conjuncts kept on the predicate; an execution resolves the
extent classes, their indexes and the probe key once.

Filtering binds the predicate's conjuncts once per execution and applies them
a list at a time, each to the survivors of the one before, an attribute's
lower and upper bound as one.  Index buckets hold the live records, so a
probe costs one copy per bucket.  The queries of one firing group share
that work, unfused, through the group's memo.

The chosen plan is reported in :class:`Plan` so the ablation benchmark can
verify which path ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.objstore.index import NUMERIC, HashIndex
from repro.objstore.objects import ObjectRecord
from repro.objstore.predicates import (
    Bindings, Const, Probe, Shape, bind_filter)
from repro.objstore.query import Query, QueryResult, Row
from repro.objstore.store import ObjectStore

#: OID order, compared in C: the same order as ``OID.__lt__``
_BY_OID = attrgetter("oid.class_name", "oid.number")

#: what :meth:`QueryExecutor._choose` answers: the plan kind, its probe —
#: a range probe's is ``(attr, None, (low, high))`` — and one index per
#: extent class (None: :meth:`QueryExecutor.plan`'s range index that
#: execution would request)
Choice = Tuple[str, Probe, Optional[List[HashIndex]]]


@dataclass(frozen=True)
class Plan:
    """How a query was (or would be) executed."""

    kind: str  # "index-probe", "index-range" or "scan"
    class_names: tuple
    index_attr: Optional[str] = None


def _chain(query: Query, first: Any, bindings: Bindings) -> Any:
    """The memo keys of a query's candidate list (``first``) and of each
    conjunct prefix after it; None when an argument is unbound or a key
    unhashable."""
    keys: List[Any] = [first]
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
        under ``bindings``; a range index it would request is named, not
        built."""
        class_names = tuple(self._extent_classes(query))
        shape = query.predicate.shape()
        choice = self._choose(shape, shape.bound(bindings), bindings,
                              class_names, None)
        if choice is None:
            return Plan("scan", class_names)
        return Plan(choice[0], class_names, choice[1][0])

    def execute(self, query: Query, bindings: Bindings = (),
                memo: Optional[Dict[Any, Any]] = None,
                class_names: Optional[Sequence[str]] = None, *,
                range_index: bool = True) -> QueryResult:
        """Evaluate ``query`` with the given event-argument ``bindings``.

        With a firing group's ``memo`` (:data:`~repro.conditions.evaluator.Memo`)
        its queries share candidate lists sorted by OID once, conjunct
        prefixes and rows, unless an argument is unbound or unhashable.
        ``class_names`` are the extent's classes, where the caller has
        resolved them already.  ``range_index=False`` keeps a range query
        from requesting the index it lacks: for a query run once."""
        bindings = bindings or {}
        if class_names is None:
            class_names = self._extent_classes(query)
        shape = query.predicate.shape()
        bound = shape.bound(bindings)
        choice = self._choose(shape, bound, bindings, class_names,
                              range_index)
        kind = attr = value = None  # the plan kind, its attribute and key
        if choice is not None:
            kind, (attr, name, value), indexes = choice
            if name is not None:
                if name not in bindings:
                    raise QueryError("unbound event argument %r" % name)
                value = bindings[name]
        keys = None if memo is None else _chain(
            query, (tuple(class_names), kind, attr, value), bindings)
        records = None if keys is None else memo.get(keys[0])
        if records is None:
            if choice is None:
                records = self._store.extent(class_names[0],
                                             include_subclasses=False)
                for class_name in class_names[1:]:
                    records.extend(self._store.extent(
                        class_name, include_subclasses=False))
            elif kind == "index-range":
                records = indexes[0].range_records(*value)
                for index in indexes[1:]:
                    records.extend(index.range_records(*value))
            else:
                records = indexes[0].records(value)
                for index in indexes[1:]:
                    records.extend(index.records(value))
            if keys is None:
                for keep in query.predicate.bind_filters(bindings, bound):
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

        Applies the query's ordering, projection and limit, in that order,
        but *not* its predicate — used by the condition graph, whose
        memories already hold exactly the matching objects.  Ordering reads
        the records' full attributes, so an ``order_by`` outside ``project``
        still orders.  With a ``memo``, ``records`` are in OID order and
        unprojected rows are shared, one per record.
        """
        if memo is None or query.order_by is not None:
            records = self._order(query, records)
        if query.project is not None:
            rows = [self._project(query, record) for record in records]
        elif memo is None:
            rows = [Row(record.oid, record.snapshot()) for record in records]
        else:
            rows = [memo.get(record) or memo.setdefault(
                record, Row(record.oid, record.snapshot())) for record in records]
        if query.limit is not None:
            rows = rows[: query.limit]
        return QueryResult(query, rows)

    # ------------------------------------------------------------- internal

    def _extent_classes(self, query: Query) -> List[str]:
        if query.include_subclasses:
            return self._store.schema.subclasses(query.class_name)
        self._store.schema.get(query.class_name)
        return [query.class_name]

    def _choose(self, shape: Shape, bound: bool, bindings: Bindings,
                class_names: Sequence[str], request: Optional[bool]
                ) -> Optional[Choice]:
        """The plan of steps 1 and 1½ (see the module docstring); None:
        scan.  ``request`` says whether a range query requests the indexes
        it lacks; None only asks whether it would.

        The indexes are looked up once: the caller holds S on the extents,
        so no write reaches them, and one released meanwhile is still exact.
        """
        if self.use_indexes:
            for_class = self._store.indexes.for_class
            probes = shape.probe_candidates(bound)
            for probe in probes:
                indexes = []
                for name in class_names:
                    index = for_class(name).get(probe[0])
                    if index is None:
                        break
                    indexes.append(index)
                else:
                    return "index-probe", probe, indexes
            if bound and shape.fused is not None:
                # an equality the shape offers is the index to want; its
                # gap (a subclass defined after the rule that requested
                # it) does not request a range index in its stead
                return self._choose_range(shape, bindings, class_names,
                                          False if probes else request)
        return None

    def _choose_range(self, shape: Shape, bindings: Bindings,
                      class_names: Sequence[str], request: Optional[bool]
                      ) -> Optional[Choice]:
        """Step 1½: the first bound pair with numeric, non-NaN values whose
        attribute is indexed on every extent class, or can be requested."""
        for_class = self._store.indexes.for_class
        for step in shape.fused:  # type: ignore[union-attr]
            if type(step) is not tuple:
                continue
            lower, upper = step
            low = (lower.right.value if type(lower.right) is Const
                   else bindings[lower.right.name])
            high = (upper.right.value if type(upper.right) is Const
                    else bindings[upper.right.name])
            if (type(low) not in NUMERIC or type(high) not in NUMERIC
                    or low != low or high != high):
                continue
            attr = lower.left.name
            indexes: Optional[List[HashIndex]] = [
                for_class(name).get(attr) for name in class_names]
            if None in indexes:  # type: ignore[operator]
                if request is False:
                    continue
                if request:
                    for name in class_names:
                        self._store.request_index(name, attr, declare=True)
                    indexes = [for_class(name)[attr] for name in class_names]
                else:
                    indexes = None
            return "index-range", (attr, None, (low, high)), indexes
        return None

    def _project(self, query: Query, record: ObjectRecord) -> Row:
        missing = [name for name in query.project if name not in record.attrs]
        if missing:
            raise QueryError(
                "projection references unknown attributes %s on class %r"
                % (missing, record.oid.class_name)
            )
        return Row(record.oid, {name: record.attrs[name] for name in query.project})

    def _order(self, query: Query, records: Iterable[ObjectRecord]
               ) -> List[ObjectRecord]:
        # OID order first, under order_by too: a NaN orders nothing, so its
        # sort's result would follow the order the plan found the records in
        ordered = sorted(records, key=_BY_OID)
        name = query.order_by
        if name is not None:
            try:
                ordered.sort(
                    key=lambda record: (record.attrs.get(name) is None,
                                        record.attrs.get(name), _BY_OID(record)),
                    reverse=query.descending,
                )
            except TypeError as exc:
                raise QueryError("cannot order by %r: values are not mutually "
                                 "comparable (%s)" % (name, exc)) from exc
        return ordered
