"""Named event counts that stay exact under threads without a lock.

The component ``stats`` of the hot path (transactions created, locks
granted) are ticked from every application and rule-firing thread.  A
``dict`` entry bumped with ``+= 1`` loses updates under threads unless a
mutex guards it; a :class:`Tally` rides each count on
:func:`itertools.count` instead — the idiom :mod:`repro.obs.metrics` uses
for its counters: one C call per tick, atomic under the GIL, with the
running total read through the iterator's ``__reduce__`` without consuming
a tick.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Callable, Iterator


class Tally(Mapping):
    """A read-only mapping ``name -> count`` over a fixed set of names.

    ``tally.counter(name)`` returns the tick of one name: calling it adds
    one.  Reading (``tally[name]``, ``dict(tally)``) never blocks a tick.
    """

    def __init__(self, *names: str) -> None:
        self._counts = {name: itertools.count() for name in names}

    def counter(self, name: str) -> Callable[[], int]:
        """The callable that adds one to ``name``."""
        return self._counts[name].__next__

    def __getitem__(self, name: str) -> int:
        # count.__reduce__() -> (count, (next_value,))
        return self._counts[name].__reduce__()[1][0]

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)
