"""The database event detector (paper §5.3).

Database events are detected *inside* the Object Manager and Transaction
Manager ("there are event detectors for database events (in the Object
Manager and Transaction Manager)").  Those components call
:meth:`DatabaseEventDetector.observe` with a raw signal describing the
operation just performed; the detector reports one signal per programmed
spec the operation satisfies.

Because the paper's §6.2 protocol suspends every database operation until
event detection (and any immediate rule work) completes, detection cost is
on the critical path of *all* data operations.  The detector therefore
answers "who is watching?" once per ``(op, class_name)`` and keeps the
answer in a *route table*:

* a route holds every programmed spec an operation of that kind on that
  class can satisfy, worked out through the schema lineage and each spec's
  ``include_subclasses`` (with :func:`matches_primitive`) when the route is
  first needed;
* attribute-scoped update specs ride the route as ``(spec, attrs)`` pairs,
  delivered when ``attrs`` meets the signal's changed attributes;
* an operation nobody watches finds the one shared empty route.

The table is thrown away, never patched: at a spec's first
``define_event`` and last ``delete_event`` (which the rule catalog's undo
paths also go through), and whenever :attr:`Schema.version` moves (define,
drop, restore and unregister of a class).  Enable and disable keep it:
a disabled spec stays routed and :meth:`report_batch` suppresses it.

Publication order: a programming change updates the spec index first and
then publishes a fresh table, both under the detector's mutex; a route is
built on a miss of the table its reader probed, and kept there — in the
table read *before* the index was.  A route built from the old
programming therefore lands only in a table that has already been
replaced.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

from repro.events.detectors import EventDetector, EventSink, SubscriptionIndex
from repro.events.matching import matches_primitive
from repro.events.signal import EventSignal
from repro.events.spec import DatabaseEventSpec
from repro.obs.metrics import MetricsRegistry
from repro.objstore.types import Schema

Route = Tuple[Tuple[DatabaseEventSpec, ...],
              Tuple[Tuple[DatabaseEventSpec, frozenset], ...]]
"""(specs without attribute scope, (attribute-scoped spec, its attrs))."""

#: the route of every operation no programmed spec can match
_EMPTY: Route = ((), ())


class _Routes(dict):
    """``(op, class_name) -> route`` for one schema version.  A missing
    route is worked out on first use and kept in *this* table — the one
    its reader probed — never in a newer one."""

    __slots__ = ("version", "_build")

    def __init__(self, version: int,
                 build: Callable[[Optional[str], Optional[str]], Route]
                 ) -> None:
        super().__init__()
        self.version = version
        self._build = build

    def __missing__(self, key: Tuple[Optional[str], Optional[str]]) -> Route:
        route = self[key] = self._build(*key)
        return route


class DatabaseEventDetector(EventDetector):
    """Matches database operations against programmed database-event specs."""

    accepts = DatabaseEventSpec

    def __init__(self, schema: Schema, sink: Optional[EventSink] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(sink, metrics=metrics)
        self._schema = schema
        #: (op, class_name) -> programmed specs scoped exactly there: the
        #: input of route building
        self._index = SubscriptionIndex()
        self._mutex = threading.Lock()
        self._routes = _Routes(schema.version, self._build)
        self.stats.update({"index_hits": 0, "index_misses": 0,
                           "fast_path": 0})

    # ------------------------------------------------------ rebuild points

    def _installed(self, spec: DatabaseEventSpec) -> None:  # type: ignore[override]
        with self._mutex:
            self._index.add((spec.op, spec.class_name), spec)
            self._routes = _Routes(self._schema.version, self._build)

    def _removed(self, spec: DatabaseEventSpec) -> None:  # type: ignore[override]
        with self._mutex:
            self._index.discard((spec.op, spec.class_name), spec)
            self._routes = _Routes(self._schema.version, self._build)

    def _current_routes(self) -> _Routes:
        """The route table, replaced first if the schema moved since it
        was published."""
        with self._mutex:
            version = self._schema.version
            if self._routes.version != version:
                self._routes = _Routes(version, self._build)
            return self._routes

    def _build(self, op: Optional[str], class_name: Optional[str]) -> Route:
        """Work out the route of ``(op, class_name)``.

        The candidates are the specs scoped to the wildcard or to a class
        of ``class_name``'s lineage; a class unknown to the schema (the
        class a drop-class operation removes) reaches only its exact
        bucket, as :func:`matches_primitive` refuses to subclass-match it.
        """
        schema = self._schema
        if class_name is None:
            scope: Tuple[Optional[str], ...] = (None,)
        elif schema.has(class_name):
            scope = (None,) + schema.lineage(class_name)
        else:
            scope = (None, class_name)
        candidates = [spec for name in scope
                      for spec in self._index.get((op, name))]
        route = _EMPTY
        if candidates:
            # One probe occurrence changing every scoped attribute: a
            # candidate matches it iff its class scope admits class_name.
            changed = frozenset().union(*(spec.attrs for spec in candidates
                                          if spec.attrs is not None))
            probe = EventSignal(kind="database", op=op, class_name=class_name,
                                old_attrs=dict.fromkeys(changed, 0),
                                new_attrs=dict.fromkeys(changed, 1))
            matched = [spec for spec in candidates
                       if matches_primitive(spec, probe, schema)]
            plain = tuple(spec for spec in matched if spec.attrs is None)
            scoped = tuple((spec, spec.attrs) for spec in matched
                           if spec.attrs is not None)
            if plain or scoped:
                route = (plain, scoped)
        return route

    # ------------------------------------------------------------ routing

    def relevant(self, op: str, class_name: Optional[str]) -> bool:
        """Could *any* programmed spec match an operation of kind ``op`` on
        ``class_name``?  One probe of the route table.

        Used by the Object Manager to skip signal construction entirely for
        unwatched operations.  Never returns a false negative (a route with
        only attribute-scoped specs is relevant before the attributes are
        known).
        """
        routes = self._routes
        if routes.version != self._schema.version:
            routes = self._current_routes()
        return routes[op, class_name] is not _EMPTY

    def observe(self, signal: EventSignal) -> List[DatabaseEventSpec]:
        """Process one database operation; report per matching spec.

        Returns the specs that matched (useful to callers that must know
        whether the operation was relevant to any rule).  When a signal
        matches several specs it is reported once per spec, each report
        carrying its own spec tag on its own :meth:`EventSignal.tagged`
        copy — the caller's signal is never re-tagged.
        """
        routes = self._routes
        if routes.version != self._schema.version:
            routes = self._current_routes()
        route = routes[signal.op, signal.class_name]
        if route is _EMPTY:
            self.stats["fast_path"] += 1
            return []
        plain, scoped = route
        matched = [*plain]
        if scoped:
            changed = signal.changed_attrs()
            for spec, attrs in scoped:
                if attrs & changed:
                    matched.append(spec)
        if not matched:
            self.stats["index_misses"] += 1
            return matched
        self.stats["index_hits"] += 1
        self.report_batch([(spec, signal.tagged(spec)) for spec in matched])
        return matched
