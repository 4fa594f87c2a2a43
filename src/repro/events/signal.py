"""Event signals (paper §2.1).

"Event occurrences and the argument bindings are reported in an event
signal."  An :class:`EventSignal` carries:

* what happened — the primitive kind (database / temporal / external /
  composite) and, for database events, the operation and its actual
  arguments ("the object instances being modified, and the old and new
  values of the modified objects' attributes");
* when — the timestamp;
* where — the transaction in which the event occurred (None for temporal
  events and for external events signalled outside a transaction);
* the *bindings* that rule conditions and actions may reference via
  :class:`~repro.objstore.predicates.EventArg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.events.spec import EventSpec
from repro.objstore.objects import OID
from repro.util.canonical import once

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction


@dataclass
class EventSignal:
    """One event occurrence and its argument bindings.

    ``kind`` is ``"database"``, ``"temporal"``, ``"external"``, or
    ``"composite"``.  For database events, ``op``/``class_name``/``oid``/
    ``old_attrs``/``new_attrs`` describe the operation; for external events
    ``name`` and ``args`` carry the application-defined payload; for
    temporal events ``timestamp`` is the occurrence time and ``info`` any
    descriptive text; composite signals reference their constituent signals.
    """

    kind: str
    timestamp: float = 0.0
    txn: Optional["Transaction"] = None
    # database events
    op: Optional[str] = None
    class_name: Optional[str] = None
    oid: Optional[OID] = None
    old_attrs: Optional[Dict[str, Any]] = None
    new_attrs: Optional[Dict[str, Any]] = None
    user: str = "system"
    # external events
    name: Optional[str] = None
    args: Dict[str, Any] = field(default_factory=dict)
    # temporal events
    info: Optional[str] = None
    # composite events
    constituents: Tuple["EventSignal", ...] = ()
    #: the spec the signal was matched against (set by the detector)
    spec: Optional[EventSpec] = None

    def tagged(self, spec: EventSpec) -> "EventSignal":
        """This occurrence reported as an occurrence of ``spec``: a shallow
        copy carrying its own spec tag, and every fact already computed
        from the occurrence (the detector has derived its changed
        attributes by then)."""
        twin = object.__new__(EventSignal)
        twin.__dict__.update(self.__dict__)
        twin.spec = spec
        return twin

    @once
    def changed_attrs(self) -> frozenset:
        """For update events: the set of attributes whose value changed."""
        if self.old_attrs is None or self.new_attrs is None:
            return frozenset()
        changed = set()
        for key in set(self.old_attrs) | set(self.new_attrs):
            if self.old_attrs.get(key) != self.new_attrs.get(key):
                changed.add(key)
        return frozenset(changed)

    def bindings(self) -> Dict[str, Any]:
        """Return the argument bindings visible to conditions and actions.

        Database events bind ``oid``, ``class_name``, ``op``, ``old``/``new``
        (attribute snapshots) plus flattened ``old_<attr>`` / ``new_<attr>``
        for every attribute; external events bind their declared parameters;
        temporal events bind ``time`` and ``info``.  Composite signals merge
        constituent bindings in occurrence order (later constituents win on
        conflicts) and additionally expose ``event_<i>_<name>`` per
        constituent.  All signals bind ``timestamp``.

        Built once per signal; each caller gets its own copy, so one rule's
        edits to its bindings never reach another rule's.
        """
        return dict(self._bindings())

    @once
    def _bindings(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"timestamp": self.timestamp, "event_kind": self.kind}
        if self.kind == "database":
            out["op"] = self.op
            out["class_name"] = self.class_name
            out["oid"] = self.oid
            out["old"] = self.old_attrs
            out["new"] = self.new_attrs
            if self.old_attrs:
                for key, value in self.old_attrs.items():
                    out["old_%s" % key] = value
            if self.new_attrs:
                for key, value in self.new_attrs.items():
                    out["new_%s" % key] = value
            out["user"] = self.user
            if self.txn is not None:
                out["txn_id"] = self.txn.txn_id
        elif self.kind == "external":
            out["event_name"] = self.name
            out.update(self.args)
        elif self.kind == "temporal":
            out["time"] = self.timestamp
            out["info"] = self.info
        elif self.kind == "composite":
            for i, constituent in enumerate(self.constituents):
                child = constituent.bindings()
                for key, value in child.items():
                    out["event_%d_%s" % (i, key)] = value
                out.update(child)
            out["timestamp"] = self.timestamp
            out["event_kind"] = "composite"
        return out

    def journal_payload(self) -> Dict[str, Any]:
        """JSON-able stimulus payload for the flight recorder.

        Only externally-originated kinds are journalled (database signals
        are derived from operations, which the recorder journals at the
        Object Manager instead): external events carry their name and
        declared arguments, temporal events their occurrence time and
        descriptive text — exactly what replay needs to re-signal the
        occurrence into a fresh instance.
        """
        from repro.recovery.serialize import encode_value

        if self.kind == "external":
            return {"name": self.name,
                    "args": {key: encode_value(value)
                             for key, value in self.args.items()},
                    "timestamp": self.timestamp}
        if self.kind == "temporal":
            return {"timestamp": self.timestamp, "info": self.info}
        raise ValueError("signals of kind %r are not journalled" % self.kind)

    def describe(self) -> str:
        """One-line human-readable description (used in traces and logs)."""
        if self.kind == "database":
            target = str(self.oid) if self.oid is not None else (self.class_name or "-")
            return "db:%s %s" % (self.op, target)
        if self.kind == "external":
            return "external:%s %r" % (self.name, self.args)
        if self.kind == "temporal":
            return "temporal@%s%s" % (self.timestamp,
                                      " (%s)" % self.info if self.info else "")
        return "composite[%s]" % ", ".join(c.describe() for c in self.constituents)
