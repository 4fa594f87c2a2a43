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
routes through a discrimination index keyed on ``(op, class_name)``:

* class-scoped specs are indexed under their own class and matched against
  the signal class's schema *lineage* (an operation on ``Stock`` probes
  ``Stock``, its superclasses, and the wildcard bucket — subclass-inclusive
  specs are found on the ancestor they are scoped to);
* attribute-scoped update specs live in a sub-index keyed on
  ``(op, class_name, attr)`` probed once per changed attribute;
* an operation kind with no programmed spec at all is a single dict miss
  (the per-op refcount table), whatever the rule population.

Every candidate found by a probe is still verified with
:func:`matches_primitive`, so the index only ever narrows what a scan of
all programmed specs would report (``tests/test_dispatch_index.py`` holds
that scan as the oracle).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.events.detectors import EventDetector, EventSink, SubscriptionIndex
from repro.events.matching import matches_primitive
from repro.events.signal import EventSignal
from repro.events.spec import OP_UPDATE, DatabaseEventSpec
from repro.obs.metrics import MetricsRegistry
from repro.objstore.types import Schema


class DatabaseEventDetector(EventDetector):
    """Matches database operations against programmed database-event specs."""

    accepts = DatabaseEventSpec

    def __init__(self, schema: Schema, sink: Optional[EventSink] = None, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(sink, metrics=metrics)
        self._schema = schema
        #: (op, class_name) -> specs without attribute scope
        self._index = SubscriptionIndex()
        #: (op, class_name, attr) -> attribute-scoped update specs
        self._attr_index = SubscriptionIndex()
        #: (op, class_name) -> number of attribute-scoped specs (pre-check)
        self._attr_classes: Dict[Tuple[str, Optional[str]], int] = {}
        #: op -> number of programmed specs (the single-dict-miss fast path)
        self._ops: Dict[str, int] = {}
        self.stats.update({"index_hits": 0, "index_misses": 0,
                           "fast_path": 0})

    # -------------------------------------------------- index maintenance

    def _installed(self, spec: DatabaseEventSpec) -> None:  # type: ignore[override]
        self._ops[spec.op] = self._ops.get(spec.op, 0) + 1
        if spec.attrs:
            key = (spec.op, spec.class_name)
            self._attr_classes[key] = self._attr_classes.get(key, 0) + 1
            for attr in spec.attrs:
                self._attr_index.add((spec.op, spec.class_name, attr), spec)
        else:
            self._index.add((spec.op, spec.class_name), spec)

    def _removed(self, spec: DatabaseEventSpec) -> None:  # type: ignore[override]
        count = self._ops.get(spec.op, 0) - 1
        if count <= 0:
            self._ops.pop(spec.op, None)
        else:
            self._ops[spec.op] = count
        if spec.attrs:
            key = (spec.op, spec.class_name)
            remaining = self._attr_classes.get(key, 0) - 1
            if remaining <= 0:
                self._attr_classes.pop(key, None)
            else:
                self._attr_classes[key] = remaining
            for attr in spec.attrs:
                self._attr_index.discard((spec.op, spec.class_name, attr), spec)
        else:
            self._index.discard((spec.op, spec.class_name), spec)

    # --------------------------------------------------------- fast paths

    def _scope_names(self, class_name: Optional[str]) -> Tuple[Optional[str], ...]:
        """The class buckets an operation on ``class_name`` can hit: the
        wildcard bucket plus the class's schema lineage (self + ancestors).

        A class unknown to the schema — e.g. the class being dropped by a
        drop-class operation — probes only its exact bucket, mirroring
        :func:`matches_primitive`'s refusal to subclass-match it.
        """
        if class_name is None:
            return (None,)
        if self._schema.has(class_name):
            return (None,) + self._schema.lineage(class_name)
        return (None, class_name)

    def relevant(self, op: str, class_name: Optional[str]) -> bool:
        """Conservative pre-check: could *any* programmed spec match an
        operation of kind ``op`` on ``class_name``?

        Used by the Object Manager to skip signal construction entirely for
        irrelevant operations.  Never returns a false negative.
        """
        if op not in self._ops:
            return False
        for name in self._scope_names(class_name):
            if (op, name) in self._index or (op, name) in self._attr_classes:
                return True
        return False

    # ----------------------------------------------------------- observe

    def observe(self, signal: EventSignal) -> List[DatabaseEventSpec]:
        """Process one database operation; report per matching spec.

        Returns the specs that matched (useful to callers that must know
        whether the operation was relevant to any rule).  When a signal
        matches several specs it is reported once per spec, each report
        carrying its own spec tag on its own :meth:`EventSignal.tagged`
        copy — the caller's signal is never re-tagged.
        """
        matched = self._probe(signal)
        if not matched:
            return matched  # type: ignore[return-value]
        self.report_batch([(spec, signal.tagged(spec)) for spec in matched])
        return matched  # type: ignore[return-value]

    def _probe(self, signal: EventSignal) -> List[DatabaseEventSpec]:
        """Candidate lookup through the discrimination index."""
        op = signal.op
        if op is None or op not in self._ops:
            self.stats["fast_path"] += 1
            return []
        matched: List[DatabaseEventSpec] = []
        seen = set()
        scope = self._scope_names(signal.class_name)
        for name in scope:
            for spec in self._index.get((op, name)):
                if spec not in seen and \
                        matches_primitive(spec, signal, self._schema):
                    seen.add(spec)
                    matched.append(spec)  # type: ignore[arg-type]
        if op == OP_UPDATE and self._attr_classes:
            changed = signal.changed_attrs()
            if changed:
                for name in scope:
                    if (op, name) not in self._attr_classes:
                        continue
                    for attr in changed:
                        for spec in self._attr_index.get((op, name, attr)):
                            if spec not in seen and \
                                    matches_primitive(spec, signal, self._schema):
                                seen.add(spec)
                                matched.append(spec)  # type: ignore[arg-type]
        if matched:
            self.stats["index_hits"] += 1
        else:
            self.stats["index_misses"] += 1
        return matched
