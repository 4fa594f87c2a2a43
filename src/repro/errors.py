"""Exception taxonomy for the HiPAC reproduction.

Every error raised by the library derives from :class:`HiPACError` so that
applications can catch library failures without catching unrelated Python
errors.  Transaction-control errors form their own small hierarchy because
the rule manager and application code frequently need to distinguish "this
transaction was aborted" (retryable) from genuine programming errors.
"""

from __future__ import annotations

from typing import Any


class HiPACError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(HiPACError):
    """A data-definition request was invalid (unknown class, bad attribute,
    duplicate definition, type violation, ...)."""


class UnknownObjectError(HiPACError):
    """An operation referenced an OID that does not exist (or was deleted)."""


class QueryError(HiPACError):
    """A query was malformed: unknown class or attribute, bad predicate,
    unbound event-argument reference, or an unsupported operator."""


class TransactionError(HiPACError):
    """Base class for transaction-control errors."""


class TransactionStateError(TransactionError):
    """An operation was attempted on a transaction in the wrong state
    (e.g. writing in a committed transaction, committing twice, or operating
    on a parent while a child is active)."""


class TransactionAborted(TransactionError):
    """The transaction was aborted and can no longer be used.

    Raised both when user code touches an already-aborted transaction and
    *inside* a transaction when the system decides to abort it (deadlock
    victim, lock timeout escalation, integrity violation with ABORT
    contingency).
    """

    def __init__(self, message: str, *, reason: str = "aborted") -> None:
        super().__init__(message)
        self.reason = reason


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim and aborted."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="deadlock")


class LockTimeout(TransactionAborted):
    """A lock could not be acquired within the configured timeout.

    Treated as an abort because under strict two-phase locking a transaction
    that cannot make progress must release what it holds.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="lock-timeout")


class UnreadableLogError(HiPACError):
    """A data directory holds a log file in a format this version cannot
    read (a pre-segment-store ``.jsonl`` log).  Opening the directory as
    if it were empty would silently drop that history, so recovery stops
    here; the offending file is available as :attr:`path`."""

    def __init__(self, path: Any) -> None:
        super().__init__("unreadable log file %s: JSONL logs are no longer "
                         "supported" % path)
        self.path = path


class EventError(HiPACError):
    """An event definition or signal was invalid (unknown event name,
    argument/parameter mismatch, malformed composite specification)."""


class RuleError(HiPACError):
    """A rule definition or rule operation was invalid (missing action,
    bad coupling combination, unknown rule, firing a disabled rule
    manually, ...)."""


class CascadeLimitExceeded(RuleError):
    """A rule cascade exceeded the configured depth bound.

    Raised by the Rule Manager when recursive rule triggering (rules whose
    actions signal events that trigger further rules) reaches
    ``RuleManagerConfig.max_cascade_depth`` — the runtime guard against the
    non-terminating rule sets the execution model makes possible.  The
    signalling transaction is aborted by the normal error path; the depth
    at which the cascade was cut is available as :attr:`depth`.
    """

    def __init__(self, message: str, *, depth: int = 0) -> None:
        super().__init__(message)
        self.depth = depth


class ConditionError(HiPACError):
    """A rule condition was malformed or could not be evaluated."""


class ApplicationError(HiPACError):
    """An application-operation request failed: the target application or
    operation is not registered, or the application raised."""


class IntegrityViolation(HiPACError):
    """A declarative integrity constraint (compiled to an ECA rule) was
    violated and its contingency is ABORT."""

    def __init__(self, message: str, *, constraint: str = "") -> None:
        super().__init__(message)
        self.constraint = constraint


class AccessDenied(HiPACError):
    """A declarative access constraint rejected the operation."""

    def __init__(self, message: str, *, constraint: str = "", user: str = "") -> None:
        super().__init__(message)
        self.constraint = constraint
        self.user = user
