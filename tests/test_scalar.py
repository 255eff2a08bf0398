from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelalg.errors import NegativeScalar
from kernelalg.scalar import ONE, ZERO, Scalar


finite_scalars = st.builds(
    Scalar,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def test_exact_addition():
    assert Scalar(1, 3) + Scalar(1, 6) == Scalar(1, 2)


def test_zero_annihilates():
    assert Scalar(3, 4) * ZERO == ZERO


def test_positive_over_zero_raises():
    # p/q grows without bound as q descends, and q = 0 has no value.
    previous = ZERO
    for k in range(1, 11):
        value = Scalar(1, 2) / Scalar(1, 2**k)
        assert value > previous
        previous = value
    assert previous == Scalar(2**9)
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 2) / ZERO


def test_zero_over_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ZERO / ZERO


def test_negative_rejected():
    with pytest.raises(NegativeScalar):
        Scalar(-1, 2)


def test_lowest_terms():
    s = Scalar(6, 8)
    assert s.numerator == 3 and s.denominator == 4


def test_total_order():
    values = [ZERO, Scalar(1, 3), ONE, Scalar(7, 2)]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a < b) == (i < j)
            assert (a <= b) == (i <= j)
            assert (a > b) == (i > j)
            assert (a >= b) == (i >= j)
            assert (a == b) == (i == j)


def test_parse_and_format():
    assert Scalar(Fraction(" 3/9 ")) == Scalar(1, 3)
    assert Scalar(Fraction("7")) == Scalar(7)
    assert str(Scalar(4, 6)) == "2/3"


@given(finite_scalars, finite_scalars, finite_scalars)
def test_field_laws_on_finite_values(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(finite_scalars, finite_scalars)
def test_comparison_matches_fractions(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(finite_scalars)
def test_string_round_trip(a):
    assert Scalar(Fraction(str(a))) == a


@given(finite_scalars, finite_scalars)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a
