"""Small declarative predicate helpers for queries over class extents.

Rule conditions have their own formula language (:mod:`repro.rules.conditions`);
this module provides the lighter-weight predicates that callers hand to
``select`` queries (:meth:`ChimeraDatabase.select
<repro.oodb.database.ChimeraDatabase.select>`, ``Transaction.select``), which
accept any callable over an object.  They are public API, re-exported by
:mod:`repro.oodb`; nothing else in the package builds them, and the query
tests (``tests/oodb``) are their users here::

    from repro.oodb.query import Attr

    low_stock = (Attr("quantity") < Attr("minquantity")) & (Attr("onorder") == 0)
    db.select("stock", low_stock)

Predicates are plain callables over :class:`~repro.oodb.objects.ChimeraObject`
instances, composable with ``&``, ``|`` and ``~``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from repro.errors import QueryError
from repro.oodb.objects import ChimeraObject

__all__ = ["Predicate", "Attr", "Const", "always", "never"]


class Predicate:
    """A boolean predicate over an object, composable with ``&``, ``|`` and ``~``."""

    def __init__(
        self, test: Callable[[ChimeraObject], bool], description: str = ""
    ) -> None:
        self._test = test
        self.description = description or getattr(test, "__name__", "predicate")

    def __call__(self, obj: ChimeraObject) -> bool:
        return bool(self._test(obj))

    def __and__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda obj: self(obj) and other(obj),
            f"({self.description} and {other.description})",
        )

    def __or__(self, other: "Predicate") -> "Predicate":
        return Predicate(
            lambda obj: self(obj) or other(obj),
            f"({self.description} or {other.description})",
        )

    def __invert__(self) -> "Predicate":
        return Predicate(lambda obj: not self(obj), f"(not {self.description})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Predicate({self.description})"


#: Predicate that accepts every object.
always = Predicate(lambda obj: True, "always")

#: Predicate that rejects every object.
never = Predicate(lambda obj: False, "never")


class _Operand:
    """Base class for the two sides of a comparison."""

    def value(self, obj: ChimeraObject) -> Any:
        raise NotImplementedError

    # comparisons build predicates -----------------------------------------
    def _compare(
        self, other: Any, op: Callable[[Any, Any], bool], symbol: str
    ) -> Predicate:
        other_operand = other if isinstance(other, _Operand) else Const(other)

        def test(obj: ChimeraObject) -> bool:
            left = self.value(obj)
            right = other_operand.value(obj)
            if left is None or right is None:
                return False
            try:
                return op(left, right)
            except TypeError as exc:
                raise QueryError(
                    f"cannot compare {left!r} {symbol} {right!r} on object {obj.oid}"
                ) from exc

        return Predicate(test, f"{self} {symbol} {other_operand}")

    def __eq__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare(other, operator.eq, "==")

    def __ne__(self, other: Any) -> Predicate:  # type: ignore[override]
        return self._compare(other, operator.ne, "!=")

    def __lt__(self, other: Any) -> Predicate:
        return self._compare(other, operator.lt, "<")

    def __le__(self, other: Any) -> Predicate:
        return self._compare(other, operator.le, "<=")

    def __gt__(self, other: Any) -> Predicate:
        return self._compare(other, operator.gt, ">")

    def __ge__(self, other: Any) -> Predicate:
        return self._compare(other, operator.ge, ">=")

    __hash__ = None  # type: ignore[assignment]


class Attr(_Operand):
    """Reference to an attribute of the object under test."""

    def __init__(self, name: str) -> None:
        self.name = name

    def value(self, obj: ChimeraObject) -> Any:
        return obj.get(self.name)

    def __str__(self) -> str:
        return self.name


class Const(_Operand):
    """A constant operand."""

    def __init__(self, literal: Any) -> None:
        self.literal = literal

    def value(self, obj: ChimeraObject) -> Any:
        return self.literal

    def __str__(self) -> str:
        return repr(self.literal)
