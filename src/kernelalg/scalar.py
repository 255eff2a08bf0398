"""Exact finite nonnegative rational scalars.

A Scalar is a `fractions.Fraction` that is known to be nonnegative: the sign
is checked once, at construction, and everything else (arithmetic, exact
comparison, equality and hashing with ints and Fractions) is Fraction's.  So
a sum or quotient of two Scalars is a plain Fraction.  The library computes
on integer rows (`Measure.nums` over `Measure.den`); Scalar is only the view
of a weight handed to callers.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd

from .errors import NegativeScalar

__all__ = ["Scalar", "ZERO", "ONE"]

_EXACT = (int, Fraction)


class Scalar(Fraction):
    """A nonnegative rational number: a Fraction whose sign was checked.

    Scalar(n, d) takes ints and Fractions, as Fraction does; a float, str or
    Decimal is refused with TypeError, and a negative value with
    NegativeScalar.
    """

    __slots__ = ()

    # Fraction's numerator and denominator are properties, a Python call per
    # read (about four times a slot read); these descriptors read the same
    # two slots directly.
    numerator = Fraction._numerator
    denominator = Fraction._denominator

    def __new__(cls, numerator=0, denominator=None):
        for value in (numerator, denominator):
            if value is not None and not isinstance(value, _EXACT):
                raise TypeError(f"cannot interpret {value!r} as a scalar")
        self = super().__new__(cls, numerator, denominator)
        if self._numerator < 0:
            raise NegativeScalar(f"scalar must be nonnegative, got {self}")
        return self

    def is_zero(self) -> bool:
        return self._numerator == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self._numerator, self._denominator)

    def __str__(self) -> str:
        return _format_ratio(self._numerator, self._denominator)

    def __format__(self, spec: str) -> str:
        # From Python 3.13 Fraction formats an empty spec through str() of its
        # ints, which stops at sys.get_int_max_str_digits() digits.
        return str(self) if not spec else super().__format__(spec)

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _format_rational(q) -> str:
    """`p/q`, or `p` when q is 1, of an int, Fraction or Scalar, with every digit."""
    return _format_ratio(q.numerator, q.denominator)


def _format_ratio(num: int, den: int) -> str:
    """`num/den`, or `num` when den is 1, for a fraction in lowest terms.

    Digits go through Decimal, which has no limit on them; str() of an int
    refuses past sys.get_int_max_str_digits() digits."""
    if den == 1:
        return str(Decimal(num))
    return f"{Decimal(num)}/{Decimal(den)}"


def _ratio(num: int, den: int) -> Scalar:
    """The Scalar num/den of ints num >= 0 and den >= 1, reduced by one gcd.

    The two slots are set directly, as Fraction's own constructor for coprime
    ints does, so no Fraction.__new__ runs."""
    g = gcd(num, den)
    s = object.__new__(Scalar)
    s._numerator = num // g
    s._denominator = den // g
    return s


def _views(nums, den: int) -> tuple:
    """The Scalars nums[i] / den for ints nums[i] >= 0 and den >= 1.

    Equal entries share one Scalar, and 0 and 1 are ZERO and ONE, so a row
    allocates one object, and takes one gcd, per distinct weight."""
    seen = {0: ZERO, den: ONE}
    for n in set(nums).difference(seen):
        seen[n] = _ratio(n, den)
    return tuple(map(seen.__getitem__, nums))


def _checked(value) -> tuple:
    """(numerator, denominator) of an int or Fraction value, checked nonnegative."""
    if not isinstance(value, _EXACT):
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    n, d = value.numerator, value.denominator
    if n < 0:
        raise NegativeScalar(f"scalar must be nonnegative, got {_format_ratio(n, d)}")
    return n, d


ZERO = _ratio(0, 1)
ONE = _ratio(1, 1)
