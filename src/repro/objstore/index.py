"""Secondary indexes over object extents.

An index maps an attribute value to the live records of the objects
holding it.  There is one index kind, :class:`HashIndex`, requested in
three ways and kept by the same :class:`IndexSet`:

* **declared** — an attribute declared with ``indexed=True`` is indexed for
  as long as its class exists;
* **rule-requested** — when a rule is added, the Condition Evaluator
  requests an index for each attribute one of its parameterised queries
  tests by equality (§5.5 *Add Rule*).  Requests are reference-counted: the
  index is built from the extent on the first request, published only once
  whole, and dropped when the last request is released, unless the
  attribute is also declared or range-requested.  A request outlives a drop
  of its class, so the class defined again (or restored by an aborted drop)
  is indexed again;
* **range-requested** — the query executor requests an index for the
  attribute a two-sided numeric bound ranges over, the first time a query
  with such a bound and no equality to probe would scan.  The request
  lives as a declaration does: never released, forgotten when the class
  is dropped.

An index answers two probes.  **Equality** is one dict probe.  **Range**
bisects a sorted list of the distinct numeric keys (int and float, NaN
left out) and adds every other key's bucket — None, NaN, bools, strings,
frozen containers — and the unkeyed records: a superset of the matches,
which the caller's bound filter decides exactly.  The sorted list is built
by the first range probe and maintained from then on, so an index only
ever probed by equality keeps none.

Indexes are maintained by the store on every create/update/delete
(including transaction undo, which routes through the same store
mutators), so a bucket always holds exactly the live records filed under
its value, and the query executor consults them for equality predicates.
A bucket is a set of records hashed by identity: a record is filed and
removed as the store's own live object, never looked up by OID.

Values are frozen (see :mod:`repro.util.canonical`) before use as keys so
that list/dict attribute values can be indexed too.  A value that cannot be
a key even frozen is filed beside the buckets and offered to every probe.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import (
    Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple)

from repro.objstore.objects import OID, ObjectRecord
from repro.util.canonical import freeze

Bucket = Set[ObjectRecord]

#: the key types a range probe bisects; every other key is a side key
NUMERIC = (int, float)
#: the value types that are their own key: filed without a call to freeze
PLAIN = frozenset((int, float, str, bool, type(None)))


class HashIndex:
    """An index on one attribute of one class extent: hash buckets, and
    the order of their numeric keys once a range probe asks for it."""

    def __init__(self, class_name: str, attr_name: str) -> None:
        self.class_name = class_name
        self.attr_name = attr_name
        self._buckets: Dict[Any, Bucket] = {}
        #: records whose value is unhashable even frozen
        self._unkeyed: Bucket = set()
        #: the numeric keys of ``_buckets``, sorted, and the rest (side
        #: keys); None until the first range probe.  Every key of
        #: ``_buckets`` is in exactly one of the two.
        self._order: Optional[List[Any]] = None
        self._side: Set[Any] = set()

    def insert(self, value: Any, record: ObjectRecord) -> None:
        """File ``record`` under ``value``."""
        try:
            key = value if type(value) in PLAIN else freeze(value)
            bucket = self._buckets.get(key)
        except TypeError:
            self._unkeyed.add(record)
            return
        if bucket is None:
            bucket = self._buckets[key] = set()
            order = self._order
            if order is not None:  # a new key enters the order or the side
                if type(key) in NUMERIC and key == key:
                    insort(order, key)
                else:
                    self._side.add(key)
        bucket.add(record)

    def remove(self, value: Any, record: ObjectRecord) -> None:
        """Remove ``record`` from under ``value`` (no-op if absent)."""
        try:
            key = value if type(value) in PLAIN else freeze(value)
            bucket = self._buckets.get(key)
        except TypeError:
            self._unkeyed.discard(record)
            return
        if bucket is None:
            return
        bucket.discard(record)
        if not bucket:
            del self._buckets[key]
            order = self._order
            if order is not None:
                # ``key`` equals the emptied bucket's own key but may differ
                # in type (``True`` or ``1+0j`` for ``1``): a side key is
                # found by equality, so a key that is none sits in the
                # order, where only an int or float is sure to bisect
                if key in self._side:
                    self._side.remove(key)
                elif type(key) in NUMERIC:
                    del order[bisect_left(order, key)]
                else:
                    order.remove(key)

    def records(self, value: Any) -> List[ObjectRecord]:
        """Return the live records whose attribute may equal ``value`` (a
        list the caller owns): its bucket and any unkeyed records, or every
        record when ``value`` itself cannot be a key."""
        try:
            bucket = self._buckets.get(
                value if type(value) in PLAIN else freeze(value))
        except TypeError:
            records = [record for bucket in self._buckets.values()
                       for record in bucket]
            records.extend(self._unkeyed)
            return records
        records = list(bucket) if bucket else []
        if self._unkeyed:
            records.extend(self._unkeyed)
        return records

    def range_records(self, low: Any, high: Any) -> List[ObjectRecord]:
        """Return the live records whose attribute may lie between ``low``
        and ``high`` (numbers, not NaN; a list the caller owns): the buckets
        of the numeric keys from ``low`` to ``high`` inclusive, every side
        key's bucket and the unkeyed records."""
        buckets = self._buckets
        order = self._order
        if order is None:
            order, side = [], set()
            for key in buckets:
                if type(key) in NUMERIC and key == key:
                    order.append(key)
                else:
                    side.add(key)
            order.sort()
            self._side, self._order = side, order
        records: List[ObjectRecord] = []
        for key in order[bisect_left(order, low):bisect_right(order, high)]:
            records.extend(buckets[key])
        for key in self._side:
            records.extend(buckets[key])
        if self._unkeyed:
            records.extend(self._unkeyed)
        return records

    def lookup(self, value: Any) -> Set[OID]:
        """Return the set of OIDs whose attribute equals ``value``."""
        return {record.oid for record in self._buckets.get(freeze(value), ())}

    def keys(self) -> Iterable[Any]:
        """Return the distinct indexed values."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return (sum(len(bucket) for bucket in self._buckets.values())
                + len(self._unkeyed))


class IndexSet:
    """All indexes of one store, grouped per class: ``class_name -> attr_name
    -> index``, so a write consults only its own class's indexes.

    An index on class C covers exactly the objects stored in C's *own*
    extent; queries over a class hierarchy consult the index of each extent
    in the hierarchy.
    """

    def __init__(self) -> None:
        self._by_class: Dict[str, Dict[str, HashIndex]] = {}
        self._declared: Set[Tuple[str, str]] = set()
        #: (class, attr) -> outstanding requests.  Kept when the class is
        #: dropped: the rules holding them outlive the drop (and its abort).
        self._requests: Dict[Tuple[str, str], int] = {}

    def define_class(self, class_name: str, declared: Iterable[str]) -> None:
        """Index a newly defined, empty class: each ``declared`` attribute
        (never released), and each attribute an outstanding request names —
        a class dropped and defined again, or restored by an aborted drop."""
        self._declared.update((class_name, attr_name) for attr_name in declared)
        indexes = self._by_class.setdefault(class_name, {})
        for name, attr_name in (*self._declared, *self._requests):
            if name == class_name and attr_name not in indexes:
                indexes[attr_name] = HashIndex(class_name, attr_name)

    def request(self, class_name: str, attr_name: str,
                records: Iterable[ObjectRecord], *,
                declare: bool = False) -> None:
        """Add one request for ``class_name.attr_name``; a missing index is
        built from ``records``, the class's own extent.  With ``declare``
        (a range query's request) the request is not counted but kept as a
        declaration is: never released, forgotten by :meth:`drop_class`.

        The index is published only once it is whole: a query planned
        meanwhile sees no index and scans, never a partial bucket.
        """
        key = (class_name, attr_name)
        if declare:
            self._declared.add(key)
        else:
            self._requests[key] = self._requests.get(key, 0) + 1
        if self.get(class_name, attr_name) is None:
            index = HashIndex(class_name, attr_name)
            for record in records:
                index.insert(record.attrs.get(attr_name), record)
            self._by_class.setdefault(class_name, {})[attr_name] = index

    def release(self, class_name: str, attr_name: str) -> None:
        """Drop one request; the last one drops an undeclared index."""
        key = (class_name, attr_name)
        count = self._requests.pop(key, 0)
        if count > 1:
            self._requests[key] = count - 1
        elif count == 1 and key not in self._declared:
            indexes = self._by_class.get(class_name, {})
            indexes.pop(attr_name, None)
            if not indexes:
                self._by_class.pop(class_name, None)

    def drop_class(self, class_name: str) -> None:
        """Drop every index belonging to ``class_name`` and forget its
        declarations; its requests stand (see :meth:`define_class`)."""
        self._by_class.pop(class_name, None)
        self._declared = {key for key in self._declared
                          if key[0] != class_name}

    def get(self, class_name: str, attr_name: str) -> Optional[HashIndex]:
        """Return the index for ``class_name.attr_name`` or None."""
        return self.for_class(class_name).get(attr_name)

    def for_class(self, class_name: str) -> Mapping[str, HashIndex]:
        """Return ``attr_name -> index`` for all indexes on ``class_name``."""
        return self._by_class.get(class_name, {})

    def object_created(self, class_name: str, record: ObjectRecord) -> None:
        """Maintain indexes after ``record`` was added to ``class_name``."""
        for attr_name, index in self.for_class(class_name).items():
            index.insert(record.attrs.get(attr_name), record)

    def object_deleted(self, class_name: str, record: ObjectRecord) -> None:
        """Maintain indexes after ``record`` was removed from ``class_name``."""
        for attr_name, index in self.for_class(class_name).items():
            index.remove(record.attrs.get(attr_name), record)

    def object_updated(
        self,
        class_name: str,
        record: ObjectRecord,
        old_attrs: Dict[str, Any],
        new_attrs: Dict[str, Any],
    ) -> None:
        """Maintain indexes after ``record``'s attributes changed."""
        for attr_name, index in self.for_class(class_name).items():
            old_value = old_attrs.get(attr_name)
            new_value = new_attrs.get(attr_name)
            if old_value != new_value or type(old_value) is not type(new_value):
                index.remove(old_value, record)
                index.insert(new_value, record)
