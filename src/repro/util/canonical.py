"""Canonical, hashable representations of attribute values.

The condition graph shares work between rules whose queries are structurally
identical.  Structural identity requires that predicate constants compare and
hash consistently, so user-supplied values are *frozen* into hashable
equivalents before they enter a predicate key.
"""

from __future__ import annotations

import functools
from typing import Any


def freeze(value: Any) -> Any:
    """Return a hashable, immutable equivalent of ``value``.

    Lists and tuples become tuples of frozen elements, sets become
    ``frozenset``, dicts become sorted tuples of ``(key, frozen value)``
    pairs.  Scalars pass through unchanged.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, freeze(val)) for key, val in value.items()))
    return value


def canonical_value(value: Any) -> str:
    """Return a stable string form of ``value`` for diagnostics and keys."""
    return repr(freeze(value))


def once(method):
    """Memoize a zero-argument method (or a function of one such value) on
    its immutable instance.

    Predicates and queries are immutable values that are keyed, hashed and
    compiled many times over a rule's life; what they derive from their own
    structure is computed on first use and kept in the instance ``__dict__``
    (which also works on frozen dataclasses).  Two threads racing on the
    first call both compute the same value; the last store wins.
    """
    slot = "_once_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        try:
            return self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
            return value
    return cached
