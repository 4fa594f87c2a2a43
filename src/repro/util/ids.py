"""Thread-safe monotonically increasing OID numbers.

Every OID of one HiPAC instance is small, dense and deterministic — the
tests and the tracing experiments rely on it.  Recovery restores the
generator past the highest recovered number (:meth:`IdGenerator.advance_past`)
so replayed objects and new ones never collide.
"""

from __future__ import annotations

import threading


class IdGenerator:
    """Produce the integers 1, 2, ...

    Thread safe: multiple event-detector and rule-firing threads allocate ids
    concurrently.
    """

    def __init__(self) -> None:
        self._next = 1
        self._lock = threading.Lock()

    def next_int(self) -> int:
        """Return the next integer id."""
        with self._lock:
            value = self._next
            self._next += 1
            return value

    def peek(self) -> int:
        """The integer the next allocation would return."""
        with self._lock:
            return self._next

    def advance_past(self, value: int) -> None:
        """Ensure no future id is ``<= value`` (recovery floor)."""
        with self._lock:
            if self._next <= value:
                self._next = value + 1
