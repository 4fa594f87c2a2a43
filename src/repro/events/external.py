"""The external (application-defined) event detector (paper §2.1, §4.1).

Applications *define* events ("the definition of an event specifies the
data to be included in the event signal") and later *signal* them; the
signal binds the declared formal parameters to actual arguments.  Rules
created on the event fire when the application signals it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core import tracing
from repro.errors import EventError
from repro.events.detectors import EventDetector, EventSink
from repro.events.signal import EventSignal
from repro.events.spec import ExternalEventSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.txn.transaction import Transaction


class ExternalEventDetector(EventDetector):
    """Registry and signalling point for application-defined events.

    Dispatch is indexed by event name: signalling never scans the
    registration table, however many events applications have defined.
    """

    accepts = ExternalEventSpec

    def __init__(self, sink: Optional[EventSink] = None,
                 tracer: Optional[tracing.Tracer] = None) -> None:
        super().__init__(sink, tracer)
        self._by_name: Dict[str, ExternalEventSpec] = {}
        #: flight recorder (wired by the facade); application-level event
        #: definitions and signals are journalled as replayable stimuli
        self.recorder: Optional[Any] = None

    def _installed(self, spec: ExternalEventSpec) -> None:  # type: ignore[override]
        existing = self._by_name.get(spec.name)
        if existing is not None and existing != spec:
            raise EventError(
                "external event %r already defined with parameters %r"
                % (spec.name, list(existing.parameters))
            )
        if spec.name not in self._by_name and self.recorder is not None:
            # Definitions arriving through rule creation happen inside the
            # suppressed cascade scope; only application-level definitions
            # reach the journal (replay re-creates the rule-driven ones).
            self.recorder.record_define_event(spec.name, spec.parameters)
        self._by_name[spec.name] = spec

    def _removed(self, spec: ExternalEventSpec) -> None:  # type: ignore[override]
        self._by_name.pop(spec.name, None)

    def lookup(self, name: str) -> ExternalEventSpec:
        """Return the spec registered under ``name`` or raise EventError."""
        spec = self._by_name.get(name)
        if spec is None:
            raise EventError("external event %r is not defined" % name)
        return spec

    def signal(self, name: str, args: Optional[Dict[str, Any]] = None, *,
               txn: Optional["Transaction"] = None,
               timestamp: float = 0.0) -> EventSignal:
        """Signal an occurrence of the external event ``name``.

        ``args`` must bind exactly the declared formal parameters.  Returns
        the signal (after delivering it to the Rule Manager; immediate and
        deferred rule work triggered by the event has completed by then).
        """
        spec = self.lookup(name)
        args = dict(args or {})
        declared = set(spec.parameters)
        supplied = set(args)
        if declared != supplied:
            missing = sorted(declared - supplied)
            extra = sorted(supplied - declared)
            raise EventError(
                "bad arguments for event %r: missing %s, unexpected %s"
                % (name, missing, extra)
            )
        signal = EventSignal(kind="external", name=name, args=args, txn=txn,
                             timestamp=timestamp)
        if self.recorder is not None:
            # Journalled before delivery (intent discipline): a torn tail
            # is a signal whose rule processing never ran.  The record's
            # seq rides on the signal so provenance can address every
            # downstream write to this stimulus (replay --until seq).
            seq = self.recorder.record_signal(signal)
            if seq is not None:
                signal._journal_seq = seq
        self.report(spec, signal)
        return signal
