"""Matching primitive event signals against primitive event specs.

Shared by the database detector (which specs does this operation satisfy?),
the temporal detector (is this a baseline occurrence?), the composite
automata, and the Rule Manager's event->rule mapping.
"""

from __future__ import annotations

from typing import Optional

from repro.events.signal import EventSignal
from repro.events.spec import (
    DatabaseEventSpec,
    EventSpec,
    ExternalEventSpec,
    TemporalEventSpec,
)
from repro.objstore.types import Schema


def matches_primitive(spec: EventSpec, signal: EventSignal,
                      schema: Optional[Schema] = None) -> bool:
    """Return True if ``signal`` is an occurrence of primitive ``spec``.

    ``schema`` is needed to resolve subclass extents for class-scoped
    database events; when None, class names must match exactly.
    """
    if isinstance(spec, DatabaseEventSpec):
        if signal.kind != "database" or signal.op != spec.op:
            return False
        if spec.class_name is not None:
            if signal.class_name is None:
                return False
            if signal.class_name != spec.class_name:
                if not spec.include_subclasses:
                    return False
                if schema is None or not schema.has(signal.class_name):
                    return False
                if not schema.is_subclass(signal.class_name,
                                          spec.class_name):
                    return False
        if spec.attrs is not None:
            # Update events scoped to attributes: at least one scoped
            # attribute must actually have changed.
            if not (spec.attrs & signal.changed_attrs()):
                return False
        return True
    if isinstance(spec, ExternalEventSpec):
        return signal.kind == "external" and signal.name == spec.name
    if isinstance(spec, TemporalEventSpec):
        # Temporal occurrences are generated by the temporal detector and
        # tagged with their spec; identity is the match.
        return signal.kind == "temporal" and signal.spec == spec
    return False
