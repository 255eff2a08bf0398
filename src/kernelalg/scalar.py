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
from math import gcd

from .errors import NegativeScalar

__all__ = ["Scalar", "ZERO", "ONE", "as_scalar"]


class Scalar:
    """A nonnegative rational number, kept as two ints in lowest terms.

    `numerator` and `denominator` are plain slots, read like Fraction's and
    never written after construction.  Every operation costs one gcd; no
    Fraction is built unless as_fraction() asks for one.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator=0, denominator=1):
        if isinstance(numerator, Scalar):
            self.numerator, self.denominator = numerator.numerator, numerator.denominator
            return
        if type(numerator) is int and type(denominator) is int:
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            if denominator < 0:
                numerator, denominator = -numerator, -denominator
            g = gcd(numerator, denominator)
            n, d = numerator // g, denominator // g
        elif isinstance(numerator, Fraction) and denominator == 1:
            n, d = numerator.numerator, numerator.denominator
        else:
            frac = Fraction(numerator, denominator)
            n, d = frac.numerator, frac.denominator
        if n < 0:
            raise NegativeScalar(f"scalar must be nonnegative, got {_format_ratio(n, d)}")
        self.numerator = n
        self.denominator = d

    # -- predicates and views --------------------------------------------

    def is_zero(self) -> bool:
        return self.numerator == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        other = as_scalar(other)
        a, b, c, d = self.numerator, self.denominator, other.numerator, other.denominator
        return _ratio(a * d + c * b, b * d)

    __radd__ = __add__

    def __mul__(self, other: "Scalar") -> "Scalar":
        other = as_scalar(other)
        return _ratio(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar") -> "Scalar":
        num, den = _cross(self, as_scalar(other))
        if den == 0:
            raise ZeroDivisionError(f"Fraction({num}, 0)")
        return _ratio(num, den)

    # -- exact total order --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __hash__(self):
        return hash(("kernelalg.Scalar", self.numerator, self.denominator))

    def __lt__(self, other):
        a, b = _cross(self, as_scalar(other))
        return a < b

    def __le__(self, other):
        a, b = _cross(self, as_scalar(other))
        return a <= b

    def __gt__(self, other):
        a, b = _cross(self, as_scalar(other))
        return a > b

    def __ge__(self, other):
        a, b = _cross(self, as_scalar(other))
        return a >= b

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return _format_ratio(self.numerator, self.denominator)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _format_rational(q) -> str:
    """`p/q`, or `p` when q is 1, of a Fraction or Scalar, with every digit."""
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(num: int, den: int) -> str:
    """`num/den`, or `num` when den is 1, for a fraction in lowest terms.

    Digits go through Decimal, which has no limit on them; str() of an int
    refuses past sys.get_int_max_str_digits() digits."""
    if den == 1:
        return str(Decimal(num))
    return f"{Decimal(num)}/{Decimal(den)}"


def _cross(p: Scalar, q: Scalar):
    """(p.numerator * q.denominator, q.numerator * p.denominator): the
    numerator and denominator of p / q, and the two sides of p <=> q."""
    return p.numerator * q.denominator, q.numerator * p.denominator


def _ratio(num: int, den: int) -> Scalar:
    """The Scalar num/den of ints num >= 0 and den >= 1, reduced by one gcd."""
    g = gcd(num, den)
    s = object.__new__(Scalar)
    s.numerator = num // g
    s.denominator = den // g
    return s


def _views(nums, den: int) -> tuple:
    """The Scalars nums[i] / den for ints nums[i] >= 0 and den >= 1.

    Equal entries share one Scalar, and 0 and 1 are ZERO and ONE, so a row
    allocates one object, and takes one gcd, per distinct weight."""
    seen = {0: ZERO, den: ONE}
    for n in set(nums).difference(seen):
        seen[n] = _ratio(n, den)
    return tuple(map(seen.__getitem__, nums))


def as_scalar(value) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
