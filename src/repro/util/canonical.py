"""Canonical, hashable representations of attribute values.

The condition graph shares work between rules whose queries are structurally
identical.  Structural identity requires that predicate constants compare and
hash consistently, so user-supplied values are *frozen* into hashable
equivalents before they enter a predicate key.
"""

from __future__ import annotations

import functools
from typing import Any


#: a frozen list's and a frozen dict's tags, equal only to themselves
_LIST, _DICT = type("list", (), {}), type("dict", (), {})


def freeze(value: Any, tagged: bool = False) -> Any:
    """Return a hashable, immutable equivalent of ``value``.

    Lists and tuples become tuples of frozen elements, sets become
    ``frozenset``, dicts become sorted tuples of ``(key, frozen value)``
    pairs.  Scalars pass through unchanged.  ``tagged`` also tags lists and
    dicts, at every depth, so that equal results stand for ``==`` values
    (``[1, 2] != (1, 2)``): the form for keys that share an answer.
    """
    if isinstance(value, (list, tuple)):
        items = tuple(freeze(item, tagged) for item in value)
        return (_LIST, items) if tagged and isinstance(value, list) else items
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(item, tagged) for item in value)
    if isinstance(value, dict):
        pairs = tuple(sorted((key, freeze(val, tagged))
                             for key, val in value.items()))
        return (_DICT, pairs) if tagged else pairs
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
    (which also works on frozen dataclasses).  An event signal's facts are
    as fixed once it is detected, and its bindings and changed attributes
    are kept the same way.  Two threads racing on the first call both
    compute the same value; the last store wins.
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
