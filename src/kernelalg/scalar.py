"""Exact finite nonnegative rational scalars.

All measure weights, kernel entries and density values in this package are
Scalars.  Arithmetic is exact: results are rationals in lowest terms, and the
algebraic identities the rest of the package relies on (associativity,
distributivity, exact comparison) hold with equality, never within a
tolerance.  Division by zero raises Python's ZeroDivisionError; every formula
in this package checks its divisor first, so hitting it means a logic error
upstream.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import NegativeScalar

__all__ = ["Scalar", "ZERO", "ONE", "as_scalar"]


class Scalar:
    """A nonnegative rational number, kept as a Fraction in lowest terms."""

    __slots__ = ("_frac",)

    def __init__(self, numerator=0, denominator=1):
        if isinstance(numerator, Scalar):
            self._frac = numerator._frac
            return
        if isinstance(numerator, Fraction) and denominator == 1:
            frac = numerator
        else:
            frac = Fraction(numerator, denominator)
        if frac < 0:
            raise NegativeScalar(f"scalar must be nonnegative, got {frac}")
        self._frac = frac

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return self._frac == 0

    @property
    def numerator(self) -> int:
        return self._frac.numerator

    @property
    def denominator(self) -> int:
        return self._frac.denominator

    def as_fraction(self) -> Fraction:
        return self._frac

    def __float__(self) -> float:
        return float(self._frac)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        return _wrap(self._frac + as_scalar(other)._frac)

    __radd__ = __add__

    def __mul__(self, other: "Scalar") -> "Scalar":
        return _wrap(self._frac * as_scalar(other)._frac)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return _wrap(self._frac / as_scalar(other)._frac)

    # -- exact total order --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self):
        return hash(("kernelalg.Scalar", self._frac))

    def __lt__(self, other):
        return self._frac < as_scalar(other)._frac

    def __le__(self, other):
        return self._frac <= as_scalar(other)._frac

    def __gt__(self, other):
        return self._frac > as_scalar(other)._frac

    def __ge__(self, other):
        return self._frac >= as_scalar(other)._frac

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return _format_rational(self._frac)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _format_rational(q) -> str:
    """`p/q`, or `p` when q is 1, of a Fraction or Scalar, with every digit.

    Digits go through Decimal, which has no limit on them; str() of an int
    refuses past sys.get_int_max_str_digits() digits."""
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(Decimal(num))
    return f"{Decimal(num)}/{Decimal(den)}"


def _wrap(frac: Fraction) -> Scalar:
    s = object.__new__(Scalar)
    s._frac = frac
    return s


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
