"""The physical object store: extents, schema, indexes.

:class:`ObjectStore` is the lowest storage layer.  It knows nothing about
transactions, locking, events, or rules — the Object Manager composes those
concerns on top.  Every mutator returns a :class:`Delta` describing exactly
what changed; the transaction layer logs deltas for undo and the condition
evaluator consumes them for incremental maintenance.

Consistency model: mutations are applied in place.  Isolation is the
transaction manager's job (strict two-phase locking ensures no other
transaction observes uncommitted state), and atomicity is achieved by
replaying inverse deltas on abort.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import SchemaError, UnknownObjectError
from repro.objstore.index import IndexSet
from repro.objstore.objects import OID, ObjectRecord
from repro.objstore.types import ClassDef, Schema
from repro.util.ids import IdGenerator

# Delta kinds.
CREATE = "create"
UPDATE = "update"
DELETE = "delete"
DEFINE_CLASS = "define-class"
DROP_CLASS = "drop-class"


@dataclass(frozen=True)
class Delta:
    """An atomic change to the store, with enough detail to invert it.

    For instance-level deltas ``old_attrs``/``new_attrs`` are full attribute
    snapshots (None for the missing side of create/delete).  For DDL deltas
    ``class_def`` carries the definition.
    """

    kind: str
    class_name: str
    oid: Optional[OID] = None
    old_attrs: Optional[Dict[str, Any]] = None
    new_attrs: Optional[Dict[str, Any]] = None
    class_def: Optional[ClassDef] = None

    def inverse(self) -> "Delta":
        """Return the delta that undoes this one."""
        if self.kind == CREATE:
            return Delta(DELETE, self.class_name, self.oid, self.new_attrs, None)
        if self.kind == DELETE:
            return Delta(CREATE, self.class_name, self.oid, None, self.old_attrs)
        if self.kind == UPDATE:
            return Delta(UPDATE, self.class_name, self.oid, self.new_attrs, self.old_attrs)
        if self.kind == DEFINE_CLASS:
            return Delta(DROP_CLASS, self.class_name, class_def=self.class_def)
        if self.kind == DROP_CLASS:
            return Delta(DEFINE_CLASS, self.class_name, class_def=self.class_def)
        raise ValueError("cannot invert delta kind %r" % self.kind)


def _indexed(class_def: ClassDef) -> List[str]:
    """The attributes ``class_def`` declares ``indexed=True``."""
    return [attr.name for attr in class_def.all_attributes.values()
            if attr.indexed]


class ObjectStore:
    """In-memory object store with per-class extents and secondary indexes."""

    def __init__(self) -> None:
        self.schema = Schema()
        self._extents: Dict[str, Dict[OID, ObjectRecord]] = {}
        self.indexes = IndexSet()
        self._oid_counter = IdGenerator()
        self._mutex = threading.RLock()

    # ------------------------------------------------------------------ DDL

    def define_class(self, class_def: ClassDef) -> Delta:
        """Register a class, create its (empty) extent and its indexes: the
        declared ones and any a standing request names."""
        with self._mutex:
            self.schema.define_class(class_def)
            self._extents[class_def.name] = {}
            self.indexes.define_class(class_def.name, _indexed(class_def))
            return Delta(DEFINE_CLASS, class_def.name, class_def=class_def)

    def drop_class(self, name: str) -> Delta:
        """Drop a class.  The extent must be empty (delete instances first)."""
        with self._mutex:
            if self._extents.get(name):
                raise SchemaError(
                    "cannot drop class %r: extent is not empty" % name
                )
            class_def = self.schema.drop_class(name)
            self._extents.pop(name, None)
            self.indexes.drop_class(name)
            return Delta(DROP_CLASS, name, class_def=class_def)

    def request_index(self, class_name: str, attr_name: str, *,
                      declare: bool = False) -> None:
        """Request an index on ``class_name.attr_name`` (reference-counted,
        or kept as a declaration with ``declare``; see
        :class:`~repro.objstore.index.IndexSet`), filled from the class's
        own extent if it does not exist yet."""
        with self._mutex:
            self.indexes.request(class_name, attr_name,
                                 self._extents.get(class_name, {}).values(),
                                 declare=declare)

    def release_index(self, class_name: str, attr_name: str) -> None:
        """Release one :meth:`request_index`."""
        with self._mutex:
            self.indexes.release(class_name, attr_name)

    # ------------------------------------------------------------------ DML

    def new_oid(self, class_name: str) -> OID:
        """Allocate a fresh OID for an instance of ``class_name``."""
        return OID(class_name, self._oid_counter.next_int())

    def next_oid_number(self) -> int:
        """The number the next OID allocation would use (checkpointing)."""
        return self._oid_counter.peek()

    def ensure_oid_floor(self, number: int) -> None:
        """Never allocate an OID number ``<= number`` again (recovery:
        replayed objects keep their original OIDs; new allocations must not
        collide with them)."""
        self._oid_counter.advance_past(number)

    def insert(self, class_name: str, attrs: Dict[str, Any],
               oid: Optional[OID] = None) -> Delta:
        """Create an instance of ``class_name``.

        Validates attributes against the class definition, fills defaults,
        allocates an OID unless one is supplied (the undo path re-creates
        deleted objects under their original OID).
        """
        with self._mutex:
            class_def = self.schema.get(class_name)
            record_attrs: Dict[str, Any] = {}
            for attr in class_def.all_attributes.values():
                value = attrs.get(attr.name, attr.default)
                if value is None and attr.required:
                    raise SchemaError(
                        "attribute %r of class %r is required"
                        % (attr.name, class_name)
                    )
                attr.validate(value)
                record_attrs[attr.name] = value
            unknown = set(attrs) - set(class_def.all_attributes)
            if unknown:
                raise SchemaError(
                    "class %r has no attributes %s"
                    % (class_name, sorted(unknown))
                )
            if oid is None:
                oid = self.new_oid(class_name)
            extent = self._extents[class_name]
            if oid in extent:
                raise SchemaError("OID %s already exists" % oid)
            record = ObjectRecord(oid, record_attrs)
            extent[oid] = record
            self.indexes.object_created(class_name, record)
            return Delta(CREATE, class_name, oid, None, record.snapshot())

    def update(self, oid: OID, changes: Dict[str, Any]) -> Delta:
        """Set attributes of an existing instance; returns the change delta."""
        with self._mutex:
            record = self.get(oid)
            class_def = self.schema.get(oid.class_name)
            old_attrs = record.snapshot()
            for name, value in changes.items():
                class_def.attribute(name).validate(value)
            record.attrs.update(changes)
            new_attrs = record.snapshot()
            self.indexes.object_updated(oid.class_name, record, old_attrs, new_attrs)
            return Delta(UPDATE, oid.class_name, oid, old_attrs, new_attrs)

    def delete(self, oid: OID) -> Delta:
        """Remove an instance; returns the change delta."""
        with self._mutex:
            record = self.get(oid)
            extent = self._extents[oid.class_name]
            del extent[oid]
            old_attrs = record.snapshot()
            self.indexes.object_deleted(oid.class_name, record)
            return Delta(DELETE, oid.class_name, oid, old_attrs, None)

    def apply(self, delta: Delta) -> Delta:
        """Apply an arbitrary delta (used to replay inverses during undo)."""
        if delta.kind == CREATE:
            return self.insert(delta.class_name, dict(delta.new_attrs or {}),
                               oid=delta.oid)
        if delta.kind == DELETE:
            return self.delete(delta.oid)  # type: ignore[arg-type]
        if delta.kind == UPDATE:
            return self.update(delta.oid, dict(delta.new_attrs or {}))  # type: ignore[arg-type]
        if delta.kind == DEFINE_CLASS:
            with self._mutex:
                self.schema.restore_class(delta.class_def)  # type: ignore[arg-type]
                self._extents.setdefault(delta.class_name, {})
                self.indexes.define_class(
                    delta.class_name, _indexed(delta.class_def))  # type: ignore[arg-type]
                return delta
        if delta.kind == DROP_CLASS:
            with self._mutex:
                self.schema.unregister_class(delta.class_name)
                self._extents.pop(delta.class_name, None)
                self.indexes.drop_class(delta.class_name)
                return delta
        raise ValueError("cannot apply delta kind %r" % delta.kind)

    # ---------------------------------------------------------------- reads

    def get(self, oid: OID) -> ObjectRecord:
        """Return the live record for ``oid`` or raise :class:`UnknownObjectError`."""
        with self._mutex:
            extent = self._extents.get(oid.class_name)
            if extent is None:
                raise UnknownObjectError("unknown class for OID %s" % oid)
            record = extent.get(oid)
            if record is None:
                raise UnknownObjectError("no such object: %s" % oid)
            return record

    def exists(self, oid: OID) -> bool:
        """Return True if ``oid`` refers to a live instance."""
        with self._mutex:
            extent = self._extents.get(oid.class_name)
            return extent is not None and oid in extent

    def extent(self, class_name: str, include_subclasses: bool = True) -> List[ObjectRecord]:
        """Return the instances of ``class_name`` (and its subclasses by default)."""
        with self._mutex:
            if include_subclasses:
                names = self.schema.subclasses(class_name)
            else:
                self.schema.get(class_name)
                names = [class_name]
            records: List[ObjectRecord] = []
            for name in names:
                records.extend(self._extents.get(name, {}).values())
            return records

    def extent_size(self, class_name: str, include_subclasses: bool = True) -> int:
        """Return the number of instances in the extent of ``class_name``."""
        with self._mutex:
            if include_subclasses:
                names = self.schema.subclasses(class_name)
            else:
                names = [class_name]
            return sum(len(self._extents.get(name, {})) for name in names)

    def snapshot_state(self) -> Dict[str, Dict[OID, Dict[str, Any]]]:
        """Deep-copy the instance state of every extent.

        Used by property-based tests to check that abort restores the exact
        pre-transaction state.
        """
        with self._mutex:
            return {
                class_name: {oid: record.snapshot() for oid, record in extent.items()}
                for class_name, extent in self._extents.items()
            }
