"""Predicate AST for the object-oriented DML.

Conditions in HiPAC are collections of queries; the Condition Evaluator
shares work between rules whose queries are structurally identical (the
paper's "multiple query optimization").  Predicates here are therefore
immutable values with *structural* equality/hash (``canonical_key``) so that
two independently constructed but identical predicates land on the same
condition-graph node.

Value expressions (the leaves):

* :class:`Const` — a literal;
* :class:`Attr` — an attribute of the candidate object;
* :class:`EventArg` — a named argument from the triggering event's signal
  (the paper: "the queries may refer to arguments in the event signal").

Predicates compose with :class:`Compare`, :class:`And`, :class:`Or`,
:class:`Not`, and the constant :data:`TRUE`.  :class:`Attr` supports the
comparison-operator sugar ``Attr("price") > 50``.

Evaluation is compiled, in two stages.  Each node builds a *binder* once
(``_compile``, cached on the immutable node); ``bind(bindings)`` resolves the
``Const``/``EventArg`` operands once per query execution and returns a plain
closure ``test(attrs) -> bool`` that is then called per candidate object.  A
predicate without event arguments binds once for good.  ``matches`` and
``evaluate`` are ``bind(...)(attrs)``; there is no other evaluator.

The executor filters a list at a time instead: ``bind_filters(bindings)``
turns each top-level conjunct into a :data:`Filter` over a list of records,
and an ``Attr op value`` conjunct becomes one list comprehension.
"""

from __future__ import annotations

import operator
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple)

from repro.errors import QueryError
from repro.util.canonical import freeze, once

Bindings = Mapping[str, Any]
"""Event-argument bindings: name -> value from the event signal."""

Test = Callable[[Mapping[str, Any]], bool]
"""A bound predicate: candidate attributes -> whether the candidate matches."""

Binder = Callable[[Bindings], Test]
"""A compiled predicate: event-argument bindings -> :data:`Test`."""

Filter = Callable[[List[Any]], List[Any]]
"""A bound conjunct applied a list at a time: records (anything with an
``attrs`` mapping) -> the records that satisfy it, in order."""

_OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _safe_compare(op: str, left: Any, right: Any) -> bool:
    """Compare two values, treating incomparable pairs as not matching."""
    try:
        if op == "in":
            return left in right
        if op == "contains":
            return right in left
        if left is None or right is None:
            if op == "==":
                return left is None and right is None
            if op == "!=":
                return not (left is None and right is None)
            return False
        return bool(_OPERATORS[op](left, right))
    except TypeError:
        return False


def _attr_test(name: str, op: str, value: Any) -> Test:
    """``Attr(name) op value`` with ``value`` resolved: the dominant leaf.

    Equal to ``_safe_compare(op, attrs.get(name), value)`` with the operator
    looked up and the None cases decided once instead of per candidate.
    """
    if value is None or op not in _OPERATORS:
        return lambda attrs: _safe_compare(op, attrs.get(name), value)
    compare = _OPERATORS[op]
    if_none = op == "!="

    def test(attrs: Mapping[str, Any]) -> bool:
        left = attrs.get(name)
        if left is None:
            return if_none
        try:
            return bool(compare(left, value))
        except TypeError:
            return False
    return test


def _test_filter(test: Test) -> Filter:
    """Apply a bound test to a list of records."""
    return lambda records: [record for record in records if test(record.attrs)]


# ``Attr(name) op value`` over a list, per operator, with ``value`` not None:
# the comparison is inline (no call per record) and a None attribute
# decides as in :func:`_attr_test`.
_COMPREHENSIONS: Dict[str, Callable[[List[Any], str, Any], List[Any]]] = {
    "==": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is not None and left == value],
    "!=": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is None or left != value],
    "<": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is not None and left < value],
    "<=": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is not None and left <= value],
    ">": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is not None and left > value],
    ">=": lambda records, name, value: [
        record for record in records
        if (left := record.attrs.get(name)) is not None and left >= value],
}


def _attr_filter(name: str, op: str, value: Any) -> Filter:
    """``Attr(name) op value`` over a list of records: one comprehension.

    The operator is looked up and the None cases decided once, as in
    :func:`_attr_test`.  A ``TypeError`` (incomparable values) re-filters the
    list a record at a time through :func:`_attr_test`, so every answer is
    the one :func:`_safe_compare` gives.
    """
    if value is None or op not in _COMPREHENSIONS:
        return _test_filter(_attr_test(name, op, value))
    comprehension = _COMPREHENSIONS[op]

    def keep(records: List[Any]) -> List[Any]:
        try:
            return comprehension(records, name, value)
        except TypeError:
            return _test_filter(_attr_test(name, op, value))(records)
    return keep


def _unbound(name: str) -> Callable[[Mapping[str, Any]], Any]:
    """What an unbound event argument binds to: the error waits for the first
    candidate that reaches it, so a short-circuited or empty scan never raises."""
    def fail(attrs: Mapping[str, Any]) -> Any:
        raise QueryError("unbound event argument %r" % name)
    return fail


def _always(attrs: Mapping[str, Any]) -> bool:
    return True


class ValueExpr:
    """Base class of value expressions (predicate leaves)."""

    def bind(self, bindings: Bindings) -> Callable[[Mapping[str, Any]], Any]:
        """Resolve against ``bindings``; return ``value(attrs)``."""
        raise NotImplementedError

    def evaluate(self, attrs: Mapping[str, Any], bindings: Bindings) -> Any:
        """Return this expression's value for a candidate object."""
        return self.bind(bindings)(attrs)

    def canonical_key(self) -> Tuple:
        """Return a hashable structural key."""
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """Return the object attributes this expression reads."""
        return frozenset()

    def event_args(self) -> FrozenSet[str]:
        """Return the event-argument names this expression reads."""
        return frozenset()

    # Comparison sugar: ``Attr("price") > 50`` builds a Compare when the
    # other side is a plain Python value.  Between two ValueExpr instances,
    # == / != compare *structure* and return bool (so expressions are safe
    # as dict keys); use ``Compare(a, "==", b)`` explicitly to build an
    # expression-to-expression comparison such as new price == limit.
    def __eq__(self, other: Any):  # type: ignore[override]
        if isinstance(other, ValueExpr):
            return self.canonical_key() == other.canonical_key()
        return Compare(self, "==", _as_expr(other))

    def __ne__(self, other: Any):  # type: ignore[override]
        if isinstance(other, ValueExpr):
            return self.canonical_key() != other.canonical_key()
        return Compare(self, "!=", _as_expr(other))

    def __lt__(self, other: Any) -> "Compare":
        return Compare(self, "<", _as_expr(other))

    def __le__(self, other: Any) -> "Compare":
        return Compare(self, "<=", _as_expr(other))

    def __gt__(self, other: Any) -> "Compare":
        return Compare(self, ">", _as_expr(other))

    def __ge__(self, other: Any) -> "Compare":
        return Compare(self, ">=", _as_expr(other))

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def is_in(self, values: Iterable[Any]) -> "Compare":
        """Membership test: value ∈ ``values``."""
        return Compare(self, "in", Const(tuple(values)))


def _as_expr(value: Any) -> ValueExpr:
    """Coerce a Python value into a :class:`ValueExpr` (literals -> Const)."""
    if isinstance(value, ValueExpr):
        return value
    return Const(value)


class Const(ValueExpr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, bindings: Bindings) -> Callable[[Mapping[str, Any]], Any]:
        value = self.value
        return lambda attrs: value

    def canonical_key(self) -> Tuple:
        return ("const", freeze(self.value))

    def __repr__(self) -> str:
        return "Const(%r)" % (self.value,)


class Attr(ValueExpr):
    """An attribute of the candidate object being tested."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise QueryError("attribute name must be a non-empty string")
        self.name = name

    def bind(self, bindings: Bindings) -> Callable[[Mapping[str, Any]], Any]:
        name = self.name
        return lambda attrs: attrs.get(name)

    def canonical_key(self) -> Tuple:
        return ("attr", self.name)

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return "Attr(%r)" % self.name


class EventArg(ValueExpr):
    """A named argument bound in the triggering event's signal.

    Evaluating an :class:`EventArg` without a binding raises
    :class:`QueryError`; a rule whose condition references event arguments can
    only be evaluated in response to a signal that binds them.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise QueryError("event argument name must be a non-empty string")
        self.name = name

    def bind(self, bindings: Bindings) -> Callable[[Mapping[str, Any]], Any]:
        if self.name not in bindings:
            return _unbound(self.name)
        value = bindings[self.name]
        return lambda attrs: value

    def canonical_key(self) -> Tuple:
        return ("event-arg", self.name)

    def event_args(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __repr__(self) -> str:
        return "EventArg(%r)" % self.name


class Predicate:
    """Base class of boolean predicates over a candidate object."""

    def bind(self, bindings: Bindings = ()) -> Test:
        """Resolve every operand against ``bindings``; return ``test(attrs)``.

        Call once per query execution and apply the result to each candidate.
        An event argument missing from ``bindings`` does not fail here: its
        comparison binds to a test that raises :class:`QueryError` when called.
        """
        return self._binder()(bindings)

    def matches(self, attrs: Mapping[str, Any], bindings: Bindings = ()) -> bool:
        """Return True if the candidate object satisfies this predicate."""
        return self.bind(bindings)(attrs)

    @once
    def _binder(self) -> Binder:
        binder = self._compile()
        if self.event_args():
            return binder
        test = binder({})       # nothing to resolve: bound for good
        return lambda bindings: test

    def _compile(self) -> Binder:
        """Build this node's binder (once per node; see :meth:`bind`)."""
        raise NotImplementedError

    def bind_filters(self, bindings: Bindings) -> List[Filter]:
        """Bind the top-level conjuncts one by one, as :data:`Filter` s for
        filtering a candidate list a conjunct at a time (survivors of one
        feed the next).

        Indexable equality conjuncts go first, being the most selective —
        unless an event argument is unbound: then the declared order stands,
        so the error is raised exactly when :meth:`matches` would raise it.
        """
        declared, equalities_first = self._conjunct_orders()
        bound = all(name in bindings for name in self.event_args())
        return [_bind_filter(part, bindings)
                for part in (equalities_first if bound else declared)]

    @once
    def _conjunct_orders(self) -> Tuple[Tuple["Predicate", ...], ...]:
        declared = tuple(part for part in conjuncts(self) if part is not TRUE)
        return declared, tuple(sorted(
            declared, key=lambda part: _indexable(part) is None))

    def canonical_key(self) -> Tuple:
        """Return a hashable structural key (used for condition-graph sharing)."""
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """Return all object attributes the predicate reads."""
        raise NotImplementedError

    def event_args(self) -> FrozenSet[str]:
        """Return all event-argument names the predicate reads."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Predicate) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())


class TruePredicate(Predicate):
    """The always-true predicate (a condition of ``Condition: true``)."""

    def _compile(self) -> Binder:
        return lambda bindings: _always

    def canonical_key(self) -> Tuple:
        return ("true",)

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def event_args(self) -> FrozenSet[str]:
        return frozenset()

    def __repr__(self) -> str:
        return "TRUE"


TRUE = TruePredicate()


class Compare(Predicate):
    """A comparison between two value expressions.

    Supported operators: ``== != < <= > >= in contains``.  ``in`` tests
    membership of the left value in the right value; ``contains`` is the
    reverse.
    """

    __slots__ = ("left", "op", "right")

    _VALID_OPS = frozenset(_OPERATORS) | {"in", "contains"}

    def __init__(self, left: Any, op: str, right: Any) -> None:
        if op not in self._VALID_OPS:
            raise QueryError("unsupported comparison operator: %r" % op)
        self.left = _as_expr(left)
        self.op = op
        self.right = _as_expr(right)

    def _compile(self) -> Binder:
        left, op, right = self.left, self.op, self.right
        if isinstance(left, Attr) and isinstance(right, Const):
            return lambda bindings: _attr_test(left.name, op, right.value)
        if isinstance(left, Attr) and isinstance(right, EventArg):
            return lambda bindings: (
                _attr_test(left.name, op, bindings[right.name])
                if right.name in bindings else _unbound(right.name))

        def bind(bindings: Bindings) -> Test:
            lhs, rhs = left.bind(bindings), right.bind(bindings)
            return lambda attrs: _safe_compare(op, lhs(attrs), rhs(attrs))
        return bind

    @once
    def canonical_key(self) -> Tuple:
        return ("compare", self.left.canonical_key(), self.op, self.right.canonical_key())

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    @once
    def event_args(self) -> FrozenSet[str]:
        return self.left.event_args() | self.right.event_args()

    def __repr__(self) -> str:
        return "Compare(%r %s %r)" % (self.left, self.op, self.right)


class _Connective(Predicate):
    """``And``/``Or``: two or more parts, canonicalized by sorting.

    A nested connective of the same kind is flattened at construction, so
    ``a & b & c`` and ``And(a, b, c)`` are one predicate with one key (and
    one condition-graph node).
    """

    __slots__ = ("parts",)

    #: the part result that decides the whole: False for And, True for Or
    _decisive: bool

    def __init__(self, *parts: Predicate) -> None:
        if len(parts) < 2:
            raise QueryError("%s requires at least two predicates"
                             % type(self).__name__)
        flat: List[Predicate] = []
        for part in parts:
            flat.extend(part.parts if type(part) is type(self) else (part,))
        self.parts = tuple(flat)

    def _compile(self) -> Binder:
        binders = [part._binder() for part in self.parts]
        decisive = self._decisive

        def bind(bindings: Bindings) -> Test:
            tests = [binder(bindings) for binder in binders]

            def test(attrs: Mapping[str, Any]) -> bool:
                for part in tests:
                    if part(attrs) is decisive:
                        return decisive
                return not decisive
            return test
        return bind

    @once
    def canonical_key(self) -> Tuple:
        # Sorted by repr: a total order, where the keys themselves are not
        # one (``x == 5`` against ``x == "a"`` compares an int with a str).
        keys = sorted((part.canonical_key() for part in self.parts), key=repr)
        return (type(self).__name__.lower(), tuple(keys))

    def attributes(self) -> FrozenSet[str]:
        return frozenset().union(*(part.attributes() for part in self.parts))

    @once
    def event_args(self) -> FrozenSet[str]:
        return frozenset().union(*(part.event_args() for part in self.parts))

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(repr(part) for part in self.parts))


class And(_Connective):
    """Conjunction of two or more predicates."""

    __slots__ = ()
    _decisive = False


class Or(_Connective):
    """Disjunction of two or more predicates."""

    __slots__ = ()
    _decisive = True


class Not(Predicate):
    """Negation of a predicate."""

    __slots__ = ("part",)

    def __init__(self, part: Predicate) -> None:
        self.part = part

    def _compile(self) -> Binder:
        inner = self.part._binder()

        def bind(bindings: Bindings) -> Test:
            test = inner(bindings)
            return lambda attrs: not test(attrs)
        return bind

    def canonical_key(self) -> Tuple:
        return ("not", self.part.canonical_key())

    def attributes(self) -> FrozenSet[str]:
        return self.part.attributes()

    def event_args(self) -> FrozenSet[str]:
        return self.part.event_args()

    def __repr__(self) -> str:
        return "Not(%r)" % self.part


def _bind_filter(part: Predicate, bindings: Bindings) -> Filter:
    """``part`` as a :data:`Filter`: one comprehension for ``Attr op Const``
    and ``Attr op <bound EventArg>``, its bound test per record otherwise."""
    if isinstance(part, Compare) and isinstance(part.left, Attr):
        right = part.right
        if isinstance(right, Const):
            return _attr_filter(part.left.name, part.op, right.value)
        if isinstance(right, EventArg) and right.name in bindings:
            return _attr_filter(part.left.name, part.op, bindings[right.name])
    return _test_filter(part.bind(bindings))


def conjuncts(predicate: Predicate) -> Tuple[Predicate, ...]:
    """Return a predicate's top-level conjuncts (``And`` is flat by construction)."""
    return predicate.parts if isinstance(predicate, And) else (predicate,)


def _indexable(part: Predicate) -> Optional[Tuple[str, ValueExpr]]:
    """``(attr, expr)`` when ``part`` is ``Attr(attr) == expr`` or ``expr ==
    Attr(attr)`` with ``expr`` reading no object attribute; else None."""
    if isinstance(part, Compare) and part.op == "==":
        left, right = part.left, part.right
        if isinstance(left, Attr) and not right.attributes():
            return left.name, right
        if isinstance(right, Attr) and not left.attributes():
            return right.name, left
    return None


@once
def equality_lookups(predicate: Predicate) -> Dict[str, ValueExpr]:
    """Return ``attr -> value expression`` for indexable equality conjuncts,
    sorted by attribute (the planner's preference order).

    Used by the query planner to find ``Attr == Const`` / ``Attr == EventArg``
    conjuncts an index can answer.  The first conjunct on an attribute wins.
    Computed once per predicate: do not mutate the result.
    """
    lookups: Dict[str, ValueExpr] = {}
    for part in conjuncts(predicate):
        found = _indexable(part)
        if found is not None:
            lookups.setdefault(*found)
    return dict(sorted(lookups.items()))


def probe_attrs(predicate: Predicate, bindings: Bindings) -> Iterable[str]:
    """The attributes an index probe may answer ``predicate`` on, under
    ``bindings``, in the planner's preference order.

    A probe resolves its key before it sees any object and then sees only
    the objects filed under that key.  With every event argument bound the
    conjuncts raise nothing, so any equality will do.  Otherwise the
    conjuncts are tested in declared order, and only a leading equality may
    be probed: a scan tests it first on every object, so nothing a probe
    skips could reach an unbound argument first.
    """
    lookups = equality_lookups(predicate)
    if all(name in bindings for name in predicate.event_args()):
        return lookups
    declared = predicate._conjunct_orders()[0]
    found = _indexable(declared[0]) if declared else None
    return (found[0],) if found is not None else ()
