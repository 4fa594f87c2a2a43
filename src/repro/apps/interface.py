"""The application/HiPAC interface (paper §4.1, Figure 4.1).

"This interface is divided into four modules.  Two of these provide the
usual DBMS functionality, and the other two are unique to HiPAC.  The
former are the modules that support operations on data and transactions.
The latter are the modules that contain operations on events, and
application-specific operations."

:class:`ApplicationInterface` is one application program's endpoint; each of
its four inner modules (:class:`DataModule`, :class:`TransactionModule`,
:class:`EventModule`, :class:`OperationsModule`) corresponds to one box of
Figure 4.1.  The Figure 4.1 experiment drives an application through all
four and checks the crossing trace.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.apps.registry import ApplicationRegistry
from repro.apps.channel import Channel
from repro.clock import Clock
from repro.events.external import ExternalEventDetector
from repro.events.signal import EventSignal
from repro.events.spec import ExternalEventSpec
from repro.objstore.manager import ObjectManager
from repro.objstore.objects import OID
from repro.objstore.operations import Operation
from repro.objstore.predicates import Bindings
from repro.objstore.query import Query, QueryResult
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


class DataModule:
    """Figure 4.1 module 1: operations on data (DDL + DML + queries)."""

    def __init__(self, om: ObjectManager, application: str) -> None:
        self._om = om
        self._application = application

    def execute_operation(self, op: Operation, txn: Transaction) -> Any:
        """The Object Manager's single entry point (paper §5.1)."""
        return self._om.execute_operation(op, txn, user=self._application)

    def create(self, class_name: str, attrs: Optional[Dict[str, Any]] = None,
               txn: Optional[Transaction] = None) -> OID:
        """Create an object."""
        return self._om.create(class_name, attrs, txn, user=self._application)

    def update(self, oid: OID, changes: Dict[str, Any],
               txn: Optional[Transaction] = None) -> None:
        """Update an object's attributes."""
        self._om.update(oid, changes, txn, user=self._application)

    def delete(self, oid: OID, txn: Optional[Transaction] = None) -> None:
        """Delete an object."""
        self._om.delete(oid, txn, user=self._application)

    def read(self, oid: OID, txn: Transaction) -> Dict[str, Any]:
        """Read an object's attributes."""
        return self._om.read(oid, txn)

    def query(self, query: Query, txn: Transaction,
              bindings: Bindings = ()) -> QueryResult:
        """Run a query."""
        return self._om.execute_query(query, txn, bindings)


class TransactionModule:
    """Figure 4.1 module 2: operations on transactions (create/commit/abort)."""

    def __init__(self, txns: TransactionManager) -> None:
        self._txns = txns

    def create(self, parent: Optional[Transaction] = None, **kwargs: Any) -> Transaction:
        """Create a top-level transaction or a subtransaction."""
        return self._txns.create_transaction(parent, **kwargs)

    def commit(self, txn: Transaction) -> None:
        """Commit a transaction (deferred rule work runs first, §6.3)."""
        self._txns.commit_transaction(txn)

    def abort(self, txn: Transaction) -> None:
        """Abort a transaction, discarding its and its descendants' effects."""
        self._txns.abort_transaction(txn)

    @contextlib.contextmanager
    def run(self, parent: Optional[Transaction] = None,
            **kwargs: Any) -> Iterator[Transaction]:
        """Context manager: commit on success, abort on exception."""
        txn = self.create(parent, **kwargs)
        try:
            yield txn
        except BaseException:
            if not txn.is_finished():
                self.abort(txn)
            raise
        else:
            if not txn.is_finished():
                self.commit(txn)


class EventModule:
    """Figure 4.1 module 3: operations on events — *define* and *signal*.

    "This interface allows applications to define and signal their own
    events.  After an application-specific event has been defined, it can
    be used in creating one or more rules.  Then, when the application
    signals the event, HiPAC will fire the rule." (§4.1)
    """

    def __init__(self, detector: ExternalEventDetector, clock: Clock) -> None:
        self._detector = detector
        self._clock = clock

    def define(self, name: str, *parameters: str) -> ExternalEventSpec:
        """Define an application event with the given formal parameters."""
        spec = ExternalEventSpec(name, tuple(parameters))
        self._detector.define_event(spec)
        return spec

    def signal(self, name: str, args: Optional[Dict[str, Any]] = None,
               txn: Optional[Transaction] = None) -> EventSignal:
        """Signal an occurrence; returns after triggered immediate/deferred
        rule work completes."""
        return self._detector.signal(name, args, txn=txn,
                                     timestamp=self._clock.now())


class OperationsModule:
    """Figure 4.1 module 4: application operations — HiPAC as the client.

    The application registers handlers; rule actions invoke them by name.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def register(self, operation: str, handler: Callable[..., Any]) -> None:
        """Register a handler callable for one operation."""
        self._channel.register(operation, handler)

    def serve(self, max_requests: Optional[int] = None) -> int:
        """Mailbox mode: run queued requests; returns how many ran."""
        return self._channel.serve(max_requests)

    def pending(self) -> int:
        """Mailbox mode: number of queued requests."""
        return self._channel.pending()

    def history(self) -> List[Any]:
        """All requests this application has received from HiPAC."""
        return list(self._channel.history)


class ApplicationInterface:
    """One application program's four-module interface to HiPAC."""

    def __init__(self, name: str, om: ObjectManager, txns: TransactionManager,
                 external_detector: ExternalEventDetector,
                 registry: ApplicationRegistry, clock: Clock, *,
                 mailbox: bool = False) -> None:
        self.name = name
        channel = registry.register(name, mailbox=mailbox)
        #: Figure 4.1 modules
        self.data = DataModule(om, name)
        self.transactions = TransactionModule(txns)
        self.events = EventModule(external_detector, clock)
        self.operations = OperationsModule(channel)
