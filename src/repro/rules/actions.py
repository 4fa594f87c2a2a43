"""Rule actions (paper §2.1, §4.1).

"The action is a sequence of operations.  These can be database operations
or external requests to application programs."  An :class:`Action` is a
sequence of steps, each executed in the action transaction:

* :class:`DatabaseStep` — a database operation (or a builder producing one
  from the firing context), executed through the Object Manager;
* :class:`RequestStep` — a request to an application program: "HiPAC
  becomes the client and the application becomes the server" (§4.1);
* :class:`SignalStep` — raise an application-defined event from the action
  (rule chaining through events);
* :class:`CallStep` — an arbitrary callable over the firing context, the
  equivalent of the prototype's Smalltalk blocks;
* :class:`AbortStep` — abort the triggering transaction by raising (the
  standard contingency of integrity-constraint rules).

Each step receives an :class:`ActionContext` giving it the action
transaction, the event bindings, and the condition's query results —
"the results of these queries are passed on to the action, together with
the argument bindings obtained from the event signal" (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from repro.errors import RuleError
from repro.events.signal import EventSignal
from repro.objstore.objects import OID
from repro.objstore.operations import Operation
from repro.objstore.query import Query, QueryResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.registry import ApplicationRegistry
    from repro.objstore.manager import ObjectManager
    from repro.rules.rule import Rule
    from repro.txn.transaction import Transaction


@dataclass(slots=True)
class ActionContext:
    """Everything an action step may use while executing."""

    object_manager: "ObjectManager"
    txn: "Transaction"
    signal: EventSignal
    bindings: Dict[str, Any]
    results: List[QueryResult]
    applications: Optional["ApplicationRegistry"] = None
    rule: Optional["Rule"] = None
    signal_external: Optional[Callable[..., Any]] = None

    # Database conveniences (all run in the action transaction; the reads
    # are the system's own, so they are not retrieval events).

    def create(self, class_name: str, attrs: Optional[Dict[str, Any]] = None) -> OID:
        """Create an object as part of the action."""
        return self.object_manager.create(class_name, attrs, self.txn)

    def update(self, oid: OID, changes: Dict[str, Any]) -> None:
        """Update an object as part of the action."""
        self.object_manager.update(oid, changes, self.txn)

    def delete(self, oid: OID) -> None:
        """Delete an object as part of the action."""
        self.object_manager.delete(oid, self.txn)

    def read(self, oid: OID) -> Dict[str, Any]:
        """Read an object's attributes in the action transaction."""
        return self.object_manager.read(oid, self.txn, signal=False)

    def query(self, query: Query) -> QueryResult:
        """Run a query in the action transaction."""
        return self.object_manager.execute_query(
            query, self.txn, self.bindings, signal=False)

    def request(self, application: str, operation: str, **args: Any) -> Any:
        """Send a request to an application program and return its reply."""
        if self.applications is None:
            raise RuleError("no application registry wired into this system")
        return self.applications.request(application, operation, args,
                                         context=self)


class ActionStep:
    """Base class of action steps."""

    def execute(self, ctx: ActionContext) -> Any:
        """Run the step; the return value is collected per step."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line description for traces."""
        return type(self).__name__


OperationBuilder = Callable[[ActionContext], Union[Operation, List[Operation]]]


@dataclass
class DatabaseStep(ActionStep):
    """Execute a database operation (static or built from the context)."""

    operation: Union[Operation, OperationBuilder]
    label: str = ""

    def execute(self, ctx: ActionContext) -> Any:
        op = self.operation
        if callable(op) and not isinstance(op, Operation):
            op = op(ctx)
        operations = op if isinstance(op, list) else [op]
        result = None
        for operation in operations:
            result = ctx.object_manager.execute_operation(operation, ctx.txn)
        return result

    def describe(self) -> str:
        if isinstance(self.operation, Operation):
            return "db:%s" % self.operation.describe()
        return "db:%s" % (self.label or "builder")


ArgsBuilder = Callable[[ActionContext], Dict[str, Any]]


@dataclass
class RequestStep(ActionStep):
    """Send a request to an application program (HiPAC as client, §4.1)."""

    application: str
    operation: str
    args: Union[Dict[str, Any], ArgsBuilder, None] = None

    def execute(self, ctx: ActionContext) -> Any:
        args = self.args
        if callable(args):
            args = args(ctx)
        return ctx.request(self.application, self.operation, **(args or {}))

    def describe(self) -> str:
        return "request:%s.%s" % (self.application, self.operation)


@dataclass
class SignalStep(ActionStep):
    """Signal an application-defined event from within the action."""

    event_name: str
    args: Union[Dict[str, Any], ArgsBuilder, None] = None

    def execute(self, ctx: ActionContext) -> Any:
        if ctx.signal_external is None:
            raise RuleError("no external event signaller wired into this system")
        args = self.args
        if callable(args):
            args = args(ctx)
        return ctx.signal_external(self.event_name, dict(args or {}), ctx.txn)

    def describe(self) -> str:
        return "signal:%s" % self.event_name


@dataclass
class CallStep(ActionStep):
    """Run an arbitrary callable over the context (Smalltalk-block style)."""

    fn: Callable[[ActionContext], Any]
    label: str = ""

    def execute(self, ctx: ActionContext) -> Any:
        return self.fn(ctx)

    def describe(self) -> str:
        return "call:%s" % (self.label or getattr(self.fn, "__name__", "fn"))


@dataclass
class AbortStep(ActionStep):
    """Abort the enclosing work by raising (constraint contingency)."""

    message: str = "aborted by rule action"
    error: Optional[Exception] = None

    def execute(self, ctx: ActionContext) -> Any:
        if self.error is not None:
            raise self.error
        from repro.errors import IntegrityViolation

        rule_name = ctx.rule.name if ctx.rule is not None else ""
        raise IntegrityViolation(self.message, constraint=rule_name)

    def describe(self) -> str:
        return "abort"


@dataclass(frozen=True)
class Action:
    """A sequence of action steps, run in order in the action transaction."""

    steps: Tuple[ActionStep, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, ActionStep):
                raise RuleError("action steps must be ActionStep instances")

    @staticmethod
    def of(*steps: ActionStep) -> "Action":
        """Action over the given steps."""
        return Action(tuple(steps))

    @staticmethod
    def call(fn: Callable[[ActionContext], Any], label: str = "") -> "Action":
        """Single-callable action (the most common form in examples)."""
        return Action((CallStep(fn, label),))

    def run(self, ctx: ActionContext) -> List[Any]:
        """Execute every step; returns the per-step results."""
        return [step.execute(ctx) for step in self.steps]

    def is_empty(self) -> bool:
        """True for the no-op action."""
        return not self.steps
