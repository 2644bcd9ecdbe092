"""One shape checker for the ``repro.*/v1`` records.

A validator declares a record's shape once, as a module-level spec, and
keeps only the invariants a spec cannot state, run on a unit (a record,
section, worker or entry) only once that unit's shape holds.  A spec is
plain data:

* a ``dict`` is an object that has those keys, each value fitting its
  spec (keys the spec does not name are not checked);
* a one-element ``list`` is a list whose every item fits that element;
* :class:`MapOf` is an object with any keys whose values fit its spec;
* a :class:`Leaf` is a predicate on one value;
* :func:`nullable`, :func:`optional` and :func:`nonempty` wrap a spec to
  also allow ``None``, to let an object's key be absent, or to refuse
  an empty list or object.

:func:`shape_problems` names each misfit by its path, e.g.
``workers[0].peak.bytes is not a non-negative integer, got -1``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Union

__all__ = [
    "BOOL", "INT", "NAT", "NONNEG", "NUMBER", "OBJECT", "STR", "TEXT",
    "Leaf", "MapOf", "nonempty", "nullable", "one_of", "optional",
    "shape_problems",
]


class Leaf(NamedTuple):
    """A predicate on one value; ``what`` completes "is not ..."."""

    test: Callable[[Any], bool]
    what: str


class MapOf(NamedTuple):
    """An object with any keys, every value fitting ``spec``."""

    spec: "Spec"


class _Wrap(NamedTuple):
    spec: "Spec"
    mode: str  # "nullable", "optional" or "nonempty"


Spec = Union[Leaf, MapOf, _Wrap, Dict[str, Any], List[Any]]


NUMBER = Leaf(
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "numeric",
)
NONNEG = Leaf(lambda v: NUMBER.test(v) and v >= 0, "a non-negative number")
INT = Leaf(lambda v: NUMBER.test(v) and isinstance(v, int), "an integer")
NAT = Leaf(lambda v: INT.test(v) and v >= 0, "a non-negative integer")
BOOL = Leaf(lambda v: isinstance(v, bool), "a boolean")
STR = Leaf(lambda v: isinstance(v, str), "a string")
TEXT = Leaf(lambda v: isinstance(v, str) and v != "", "a non-empty string")
#: an object whose contents are not checked
OBJECT = Leaf(lambda v: isinstance(v, dict), "an object")


def nullable(spec: Spec) -> Spec:
    """``None``, or a value fitting ``spec``."""
    return _Wrap(spec, "nullable")


def optional(spec: Spec) -> Spec:
    """As an object's value: the key may be absent."""
    return _Wrap(spec, "optional")


def nonempty(spec: Spec) -> Spec:
    """A list or object fitting ``spec`` with at least one item."""
    return _Wrap(spec, "nonempty")


def one_of(*values: Any) -> Leaf:
    """One of ``values``."""
    return Leaf(lambda v: v in values, " or ".join(map(repr, values)))


def _misfit(where: str, what: str, value: Any) -> str:
    got = repr(value)
    if isinstance(value, (dict, list)):
        got = f"a {type(value).__name__}"
    return f"{where or 'record'} {what}, got {got}"


def shape_problems(value: Any, spec: Spec, where: str) -> List[str]:
    """Every place where ``value`` does not fit ``spec`` (empty: it
    fits); ``where`` names ``value``, ``""`` for a record's root."""
    if isinstance(spec, _Wrap):
        if spec.mode == "nullable" and value is None:
            return []
        inner = shape_problems(value, spec.spec, where)
        if spec.mode == "nonempty" and not inner and not value:
            return [_misfit(where, "must be non-empty", value)]
        return inner
    if isinstance(spec, Leaf):
        if spec.test(value):
            return []
        return [_misfit(where, f"is not {spec.what}", value)]
    if isinstance(spec, list):
        if not isinstance(value, list):
            return [_misfit(where, "must be a list", value)]
        return [
            problem
            for i, item in enumerate(value)
            for problem in shape_problems(item, spec[0], f"{where}[{i}]")
        ]
    if not isinstance(value, dict):
        return [_misfit(where, "must be an object", value)]
    if isinstance(spec, MapOf):
        return [
            problem
            for key, item in value.items()
            for problem in shape_problems(item, spec.spec, f"{where}[{key}]")
        ]
    problems: List[str] = []
    for key, sub in spec.items():
        here = f"{where}.{key}" if where else key
        if key in value:
            problems += shape_problems(value[key], sub, here)
        elif not (isinstance(sub, _Wrap) and sub.mode == "optional"):
            problems.append(f"{here} is missing")
    return problems
