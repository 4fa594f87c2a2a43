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
and an ``Attr op value`` conjunct becomes one list comprehension, as does an
attribute's lower and upper bound together.  What planning and filtering
need from the conjuncts is found in one walk of them (:class:`Shape`).
"""

from __future__ import annotations

import operator
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set,
    Tuple)

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


# ``Attr(name)`` between a lower and an upper bound over a list, per
# (lower, upper) operator, with neither bound None: the attribute's value
# is on the left of both comparisons, as in ``_COMPREHENSIONS``, so the
# same methods decide.
_PAIRS: Dict[Tuple[str, str], Callable[[List[Any], str, Any, Any], List[Any]]] = {
    (">", "<"): lambda records, name, low, high: [
        record for record in records
        if (left := record.attrs.get(name)) is not None
        and left > low and left < high],
    (">", "<="): lambda records, name, low, high: [
        record for record in records
        if (left := record.attrs.get(name)) is not None
        and left > low and left <= high],
    (">=", "<"): lambda records, name, low, high: [
        record for record in records
        if (left := record.attrs.get(name)) is not None
        and left >= low and left < high],
    (">=", "<="): lambda records, name, low, high: [
        record for record in records
        if (left := record.attrs.get(name)) is not None
        and left >= low and left <= high],
}

#: the ordering operators that bound an attribute: True below, False above
_BOUND_SIDES = {">": True, ">=": True, "<": False, "<=": False}


def _pair_filter(name: str, lower: str, low: Any, upper: str,
                 high: Any) -> Filter:
    """``Attr(name) lower low`` and ``Attr(name) upper high`` over a list
    of records, neither bound None: one comprehension.  A ``TypeError``
    applies the two bounds' own filters in turn, each with its per-record
    fallback, so every answer is the one :func:`_safe_compare` gives."""
    comprehension = _PAIRS[lower, upper]

    def keep(records: List[Any]) -> List[Any]:
        try:
            return comprehension(records, name, low, high)
        except TypeError:
            return _attr_filter(name, upper, high)(
                _attr_filter(name, lower, low)(records))
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
        return ("const", freeze(self.value, tagged=True))

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

    def bind_filters(self, bindings: Bindings, bound: bool) -> List[Filter]:
        """Bind the top-level conjuncts one by one, as :data:`Filter` s for
        filtering a candidate list a conjunct at a time (survivors of one
        feed the next); ``bound`` says whether ``bindings`` bind every
        event argument (:meth:`Shape.bound`).

        Indexable equality conjuncts go first, being the most selective,
        and an attribute's first lower and first upper bound filter as one,
        where the first of the two stood.  Unless an event argument is
        unbound: then the declared order stands, unfused, so the error is
        raised exactly when :meth:`matches` would raise it.  A pair with a
        None bound is not fused either.
        """
        shape = self.shape()
        if not bound:
            return [bind_filter(part, bindings) for part in shape.declared]
        if shape.fused is not None:
            filters = []
            for step in shape.fused:
                if type(step) is not tuple:
                    filters.append(bind_filter(step, bindings))
                    continue
                lower, upper = step
                low = _value(lower.right, bindings)
                high = _value(upper.right, bindings)
                if low is None or high is None:
                    break
                filters.append(_pair_filter(lower.left.name, lower.op, low,
                                            upper.op, high))
            else:
                return filters
        return [bind_filter(part, bindings) for part in shape.ordered]

    @once
    def links(self) -> Tuple[Tuple["Predicate", Tuple, Any], ...]:
        """``(conjunct, canonical key, getter of its event arguments or
        None)`` per conjunct, in equalities-first order and unfused: what a
        firing group's memo keys a conjunct prefix by."""
        return tuple(
            (part, part.canonical_key(),
             operator.itemgetter(*sorted(part.event_args()))
             if part.event_args() else None)
            for part in self.shape().ordered)

    @once
    def shape(self) -> "Shape":
        """Walk the top-level conjuncts once for all that planning and
        filtering derive from them."""
        declared: List[Predicate] = []
        equalities: List[Predicate] = []
        others: List[Predicate] = []
        lookups: Dict[str, ValueExpr] = {}
        args: Set[str] = set()
        leading: Optional[str] = None
        bounds: Dict[Tuple[str, bool], int] = {}  # first per side, in others
        for part in conjuncts(self):
            if part is TRUE:
                continue
            declared.append(part)
            leaf = _leaf(part)
            if leaf is None:
                args |= part.event_args()
                others.append(part)
                continue
            attr, op, operand = leaf
            if type(operand) is EventArg:
                args.add(operand.name)
            if op == "==":
                equalities.append(part)
                lookups.setdefault(attr, operand)
                if len(declared) == 1:
                    leading = attr
                continue
            if op in _BOUND_SIDES:
                bounds.setdefault((attr, _BOUND_SIDES[op]), len(others))
            others.append(part)
        steps: Optional[List[Any]] = None
        for (attr, below), at in bounds.items():
            other = bounds.get((attr, False))
            if below and other is not None:
                steps = steps or list(others)
                steps[min(at, other)] = (others[at], others[other])
                steps[max(at, other)] = None
        lookups = dict(sorted(lookups.items()))
        probes = {attr: (attr, operand.name, None) if type(operand) is EventArg
                  else (attr, None, operand.value)  # type: ignore[attr-defined]
                  for attr, operand in lookups.items()}
        return Shape(
            tuple(declared), tuple(equalities + others),
            None if steps is None else tuple(
                equalities + [step for step in steps if step is not None]),
            lookups, tuple(probes.values()),
            () if leading is None else (probes[leading],), frozenset(args))

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


def bind_filter(part: Predicate, bindings: Bindings) -> Filter:
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


Probe = Tuple[str, Optional[str], Any]
"""An equality an index may answer: ``(attribute, event-argument name,
None)`` or ``(attribute, None, constant)``."""


class Shape:
    """What planning and filtering derive from a predicate's top-level
    conjuncts, found in one walk of them (:meth:`Predicate.shape`).

    * ``declared``: the conjuncts in declared order, TRUE left out;
    * ``ordered``: the same, indexable equalities first (a stable sort);
    * ``fused``: ``ordered`` with each attribute's first lower and first
      upper bound one ``(lower, upper)`` step, where the first of the two
      stood; None when no attribute has both;
    * ``lookups``: :func:`equality_lookups`' answer;
    * ``probes``: one :data:`Probe` per attribute of ``lookups``, in its
      order;
    * ``leading``: the probe of the first declared conjunct when that is an
      indexable equality, else empty;
    * ``args``: the event-argument names the conjuncts read.
    """

    __slots__ = ("declared", "ordered", "fused", "lookups", "probes",
                 "leading", "args")

    def __init__(self, declared: Tuple["Predicate", ...],
                 ordered: Tuple["Predicate", ...],
                 fused: Optional[Tuple[Any, ...]],
                 lookups: Dict[str, ValueExpr], probes: Tuple[Probe, ...],
                 leading: Tuple[Probe, ...], args: FrozenSet[str]) -> None:
        self.declared, self.ordered, self.fused = declared, ordered, fused
        self.lookups, self.probes, self.leading = lookups, probes, leading
        self.args = args

    def bound(self, bindings: Bindings) -> bool:
        """Whether ``bindings`` bind every event argument."""
        return not self.args or self.args.issubset(bindings)

    def probe_candidates(self, bound: bool) -> Tuple[Probe, ...]:
        """The equalities an index probe may answer the predicate on, in
        the planner's preference order.

        A probe resolves its key before it sees any object and then sees
        only the objects filed under that key.  With every event argument
        bound the conjuncts raise nothing, so any equality will do.
        Otherwise the conjuncts are tested in declared order, and only a
        leading equality may be probed: a scan tests it first on every
        object, so nothing a probe skips could reach an unbound argument
        first.
        """
        return self.probes if bound else self.leading


def _leaf(part: Predicate) -> Optional[Tuple[str, str, ValueExpr]]:
    """``(attr, op, operand)`` when ``part`` is ``Attr(attr) op operand``,
    or an equality written ``operand == Attr(attr)``, with a Const or
    EventArg operand; else None."""
    if type(part) is not Compare:
        return None
    left, op, right = part.left, part.op, part.right
    if op == "==" and type(right) is Attr:
        left, right = right, left
    if type(left) is Attr and type(right) in (Const, EventArg):
        return left.name, op, right
    return None


def _value(operand: ValueExpr, bindings: Bindings) -> Any:
    """A Const's value, or a bound EventArg's."""
    return (operand.value if type(operand) is Const
            else bindings[operand.name])  # type: ignore[attr-defined]


def equality_lookups(predicate: Predicate) -> Dict[str, ValueExpr]:
    """Return ``attr -> value expression`` for indexable equality conjuncts,
    sorted by attribute (the planner's preference order).

    Used by the query planner to find ``Attr == Const`` / ``Attr == EventArg``
    conjuncts an index can answer.  The first conjunct on an attribute wins.
    Computed once per predicate: do not mutate the result.
    """
    return predicate.shape().lookups
