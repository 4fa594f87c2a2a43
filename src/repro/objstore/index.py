"""Secondary indexes over object extents.

Attributes declared with ``indexed=True`` get a hash index mapping attribute
value -> set of OIDs.  Indexes are maintained by the store on every
create/update/delete (including transaction undo, which routes through the
same store mutators), and the query executor consults them for equality
predicates.

Values are frozen (see :mod:`repro.util.canonical`) before use as keys so
that list/dict attribute values can be indexed too.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set

from repro.objstore.objects import OID
from repro.util.canonical import freeze


class HashIndex:
    """A hash index on one attribute of one class extent."""

    def __init__(self, class_name: str, attr_name: str) -> None:
        self.class_name = class_name
        self.attr_name = attr_name
        self._buckets: Dict[Any, Set[OID]] = {}

    def insert(self, value: Any, oid: OID) -> None:
        """Add ``oid`` under ``value``."""
        key = freeze(value)
        self._buckets.setdefault(key, set()).add(oid)

    def remove(self, value: Any, oid: OID) -> None:
        """Remove ``oid`` from under ``value`` (no-op if absent)."""
        key = freeze(value)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        bucket.discard(oid)
        if not bucket:
            del self._buckets[key]

    def update(self, old_value: Any, new_value: Any, oid: OID) -> None:
        """Move ``oid`` from ``old_value`` to ``new_value``."""
        self.remove(old_value, oid)
        self.insert(new_value, oid)

    def lookup(self, value: Any) -> Set[OID]:
        """Return the set of OIDs whose attribute equals ``value`` (a copy)."""
        return set(self._buckets.get(freeze(value), ()))

    def keys(self) -> Iterable[Any]:
        """Return the distinct indexed values."""
        return self._buckets.keys()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class IndexSet:
    """All indexes of one store, grouped per class: ``class_name -> attr_name
    -> index``, so a write consults only its own class's indexes.

    An index on class C covers exactly the objects stored in C's *own*
    extent; queries over a class hierarchy consult the index of each extent
    in the hierarchy.
    """

    def __init__(self) -> None:
        self._by_class: Dict[str, Dict[str, HashIndex]] = {}

    def create(self, class_name: str, attr_name: str) -> HashIndex:
        """Create (or return the existing) index for ``class_name.attr_name``."""
        indexes = self._by_class.setdefault(class_name, {})
        index = indexes.get(attr_name)
        if index is None:
            index = indexes[attr_name] = HashIndex(class_name, attr_name)
        return index

    def drop_class(self, class_name: str) -> None:
        """Drop every index belonging to ``class_name``."""
        self._by_class.pop(class_name, None)

    def get(self, class_name: str, attr_name: str) -> Optional[HashIndex]:
        """Return the index for ``class_name.attr_name`` or None."""
        return self.for_class(class_name).get(attr_name)

    def for_class(self, class_name: str) -> Mapping[str, HashIndex]:
        """Return ``attr_name -> index`` for all indexes on ``class_name``."""
        return self._by_class.get(class_name, {})

    def object_created(self, class_name: str, oid: OID, attrs: Dict[str, Any]) -> None:
        """Maintain indexes after an instance was added to ``class_name``."""
        for attr_name, index in self.for_class(class_name).items():
            index.insert(attrs.get(attr_name), oid)

    def object_deleted(self, class_name: str, oid: OID, attrs: Dict[str, Any]) -> None:
        """Maintain indexes after an instance was removed from ``class_name``."""
        for attr_name, index in self.for_class(class_name).items():
            index.remove(attrs.get(attr_name), oid)

    def object_updated(
        self,
        class_name: str,
        oid: OID,
        old_attrs: Dict[str, Any],
        new_attrs: Dict[str, Any],
    ) -> None:
        """Maintain indexes after an instance's attributes changed."""
        for attr_name, index in self.for_class(class_name).items():
            old_value = old_attrs.get(attr_name)
            new_value = new_attrs.get(attr_name)
            if old_value != new_value or type(old_value) is not type(new_value):
                index.update(old_value, new_value, oid)
