import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelalg.errors import NegativeScalar
from kernelalg.scalar import ONE, ZERO, Scalar, _ratio


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


# -- Scalar is a Fraction whose sign was checked ---------------------------------


def test_ratio_is_the_fraction_of_its_ints():
    rng = random.Random(19)
    big = 10**399
    cases = [(0, 1), (1, 1), (0, 7), (6, 8), (big, 1), (1, big), (big + 1, 3 * big)]
    for _ in range(300):
        bits = rng.choice((8, 64, 1330))  # 1330 bits: a 400-digit int
        cases.append((rng.getrandbits(bits), rng.getrandbits(bits) + 1))
    for n, d in cases:
        got, want = _ratio(n, d), Fraction(n, d)
        assert type(got) is Scalar and isinstance(got, Fraction)
        assert got == want and hash(got) == hash(want)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert Scalar(n, d) == got and str(got) == str(want)


@pytest.mark.parametrize("inexact", [0.5, "1/2", Decimal("0.5")], ids=repr)
def test_inexact_values_refused(inexact):
    with pytest.raises(TypeError, match="cannot interpret"):
        Scalar(inexact)
    with pytest.raises(TypeError, match="cannot interpret"):
        Scalar(1, inexact)


def test_negative_rejected_from_ints_and_fractions():
    for value in (-1, Fraction(-1, 3), Scalar(1, 2) - 1):
        with pytest.raises(NegativeScalar, match="got -"):
            Scalar(value)
    assert Scalar(-2, -4) == Scalar(1, 2)


def test_equal_to_the_equal_int_and_fraction():
    assert Scalar(1) == 1 and Scalar(6, 3) == 2 and ZERO == 0 and ONE == 1
    assert Scalar(6, 8) == Fraction(3, 4) and Fraction(3, 4) == Scalar(6, 8)
    assert hash(Scalar(2)) == hash(2) and hash(Scalar(3, 4)) == hash(Fraction(3, 4))
    assert Scalar(1, 3) != Fraction(1, 2) and Scalar(1, 3) < 1


def test_arithmetic_results_are_plain_fractions():
    for value in (Scalar(1, 3) + Scalar(1, 6), Scalar(1, 2) / Scalar(1, 4), ONE - Scalar(3)):
        assert type(value) is Fraction
    assert ONE - Scalar(3) == -2


def test_str_prints_every_digit():
    num = 10**4999 + 7  # past the default int-to-str limit of 4300 digits
    weight = Scalar(num, 3)
    assert str(weight) == str(Decimal(num)) + "/3"
    assert len(str(weight)) == 5000 + 2
    assert f"{weight}" == str(weight) and repr(weight) == f"Scalar({weight})"
