"""Small shared utilities: id generation, canonical value handling, and
the newest items of a bounded ring."""

from typing import Any, List

from repro.util.ids import IdGenerator
from repro.util.canonical import canonical_value, freeze

__all__ = ["IdGenerator", "canonical_value", "freeze", "tail"]


def tail(items: List[Any], last: int) -> List[Any]:
    """The newest ``last`` items; none for ``last <= 0`` (``items[-0:]``
    would be all of them)."""
    return items[-last:] if last > 0 else []
