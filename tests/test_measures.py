import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from genlib import random_measure, weather_kernel, weather_space
from kernelalg import algebra as alg
from kernelalg.analytics import KernelScope, certify_bounded_range, cond_kl
from kernelalg.bayes import bayes_check
from kernelalg.conditioning import kernel_indep_fun
from kernelalg.disintegration import DensityTable
from kernelalg.errors import (
    DimensionMismatch,
    KernelAlgError,
    NegativeScalar,
    NoMarkovIntoEmpty,
    NotAProbabilityMeasure,
    NotMarkov,
    SpaceMismatch,
)
from kernelalg.measures import Kernel, Measure, dirac, uniform, zero_measure
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.spaces import Base, FiniteSpace, Product
from kernelalg.variables import RandomVariable, RealRV


def test_weather_kernel_is_markov():
    assert weather_kernel().is_markov()


def test_zero_row_breaks_markov():
    w = weather_space()
    k = Kernel(w, w, [zero_measure(w), uniform(w)])
    assert not k.is_markov()
    assert k.finite_bound() == ONE


def test_finite_bound_is_max_row_total():
    w = weather_space()
    k = Kernel(
        w,
        w,
        [
            Measure(w, [Scalar(1), Scalar(1, 2)]),  # total 3/2
            uniform(w),
        ],
    )
    assert k.finite_bound() == Scalar(3, 2)


def test_weight_count_must_match():
    w = weather_space()
    with pytest.raises(DimensionMismatch):
        Measure(w, [Scalar(1)])


def test_negative_weight_rejected():
    w = weather_space()
    assert issubclass(NegativeScalar, KernelAlgError)
    with pytest.raises(NegativeScalar):
        Measure(w, [-1, 2])
    with pytest.raises(NegativeScalar):
        DensityTable(w, [-1, 0])


@pytest.mark.parametrize("inexact", [0.1, "1/3"])
def test_floats_and_strings_are_not_exact_values(inexact):
    w = weather_space()
    for build in (Measure, DensityTable, RealRV):
        with pytest.raises(TypeError, match="cannot interpret"):
            build(w, [inexact, 0])
    assert RealRV(w, [-1, Fraction(1, 3)]).values == (Fraction(-1), Fraction(1, 3))


@pytest.mark.parametrize("inexact", [0.5, "1/2", Decimal("0.5")], ids=repr)
def test_no_decimals_and_no_negatives_at_the_measure_level(inexact):
    w = weather_space()
    for build in (Measure, DensityTable):
        with pytest.raises(TypeError, match="cannot interpret"):
            build(w, [Fraction(1, 2), inexact])
        for negative in (-1, Fraction(-1, 2)):
            with pytest.raises(NegativeScalar, match="nonnegative, got -"):
                build(w, [1, negative])
    with pytest.raises(TypeError, match="cannot interpret"):
        Scalar(inexact)


def test_public_values_are_fractions_equal_to_ints():
    w = weather_space()
    mu = Measure(w, [Fraction(2, 3), 1])
    k = Kernel(w, w, [mu, uniform(w)])
    values = [
        *mu.weights, mu.weight("good"), mu.total(), mu.mass_of(["bad"]), k.finite_bound(),
        *(weight for weight, _ in k.support_rows(mu)), *DensityTable(w, [0, 3]).values,
    ]
    assert all(type(v) is Scalar and isinstance(v, Fraction) for v in values)
    assert mu.weights == (Fraction(2, 3), 1) and mu.total() == Fraction(5, 3)
    assert DensityTable(w, [0, 3]).values == (0, 3)
    # a sum of weights is a plain Fraction
    assert type(mu.weights[0] + mu.weights[1]) is Fraction


def test_a_weight_of_5000_digits_prints_every_digit():
    w = weather_space()
    num = 7 * 10**4999 + 1
    mu = Measure(w, [Fraction(num, 10**5000), Fraction(3 * 10**4999 - 1, 10**5000)])
    assert mu.is_probability()
    assert str(mu.weight("good")) == f"{Decimal(num)}/1{'0' * 5000}"
    assert len(str(mu.weight("good")).split("/")[0]) == 5000


def test_message_and_repr_print_weights_without_scalar_views(monkeypatch):
    w = weather_space()
    den = 3 * 10**4999 + 1
    mu = Measure(w, [Fraction(1, den), Fraction(1, den)])

    def refuse(*args):
        raise AssertionError("a weight printed through a Scalar view")

    monkeypatch.setattr(Scalar, "__str__", refuse)
    monkeypatch.setattr(Scalar, "__format__", refuse)
    with pytest.raises(NotAProbabilityMeasure) as err:
        mu.require_probability()
    assert str(err.value) == f"measure on W has total 2/{Decimal(den)}, expected 1"
    assert repr(mu) == f"Measure(W, {{good: 1/{Decimal(den)}, bad: 1/{Decimal(den)}}})"


def test_total_additivity_over_disjoint_split():
    rng = random.Random(7)
    s = Base(FiniteSpace("S", [f"a{i}" for i in range(6)]))
    for _ in range(50):
        mu = random_measure(rng, s)
        part_a = [a for a in s.atoms if rng.random() < 0.5]
        part_b = [a for a in s.atoms if a not in part_a]
        assert mu.mass_of(part_a) + mu.mass_of(part_b) == mu.total()


def test_markov_rows_give_bound_one():
    rng = random.Random(11)
    from genlib import fresh_space, random_markov_kernel

    for _ in range(25):
        dom, cod = fresh_space(rng), fresh_space(rng)
        k = random_markov_kernel(rng, dom, cod)
        assert k.finite_bound() == ONE


def test_no_markov_into_empty():
    w = weather_space()
    empty = Base(FiniteSpace("E", []))
    k = Kernel(w, empty, [zero_measure(empty), zero_measure(empty)])
    assert not k.is_markov()
    with pytest.raises(NoMarkovIntoEmpty):
        k.require_markov()
    # from the empty space every kernel is vacuously Markov
    assert Kernel(empty, w, []).is_markov()


def test_require_markov_and_probability_messages():
    w = weather_space()
    with pytest.raises(NotMarkov):
        Kernel(w, w, [zero_measure(w), uniform(w)]).require_markov()
    with pytest.raises(NotAProbabilityMeasure):
        zero_measure(w).require_probability()


def test_support_rows_are_the_positive_mass_rows_in_atom_order():
    s = Base(FiniteSpace("S", ["a", "b", "c"]))
    w = weather_space()
    k = Kernel(s, w, [dirac(w, "good"), uniform(w), dirac(w, "bad")])
    mu = Measure(s, [Scalar(1, 3), ZERO, Scalar(2, 3)])
    assert k.support_rows(mu) == [(Scalar(1, 3), k.rows[0]), (Scalar(2, 3), k.rows[2])]
    # a lift repeats its row objects, and support_rows hands out those very objects
    lifted = alg.prod_mk_left(w, k)
    nu = Measure(lifted.domain, [ONE, ZERO, ONE, ONE, ONE, ZERO])
    got = [id(row) for _, row in lifted.support_rows(nu)]
    assert got == [id(k.rows[i]) for i in (0, 2, 0, 1)]
    message = f"measure on {w} does not match kernel domain {s}"
    with pytest.raises(SpaceMismatch, match=f"^{re.escape(message)}$"):
        k.support_rows(uniform(w))
    # a kernel scope reports its mismatch in the same words
    with pytest.raises(SpaceMismatch, match=f"^{re.escape(message)}$"):
        KernelScope(k, uniform(w)).rows()


def test_almost_everywhere_statements_ignore_rows_at_null_atoms():
    # mu is the Dirac at a; each kernel's row at b would change its caller's answer
    s = Base(FiniteSpace("S", ["a", "b"]))
    w = weather_space()
    mu = dirac(s, "a")
    # cond_kl: the rows at b are mutually singular
    k = Kernel(s, w, [uniform(w), dirac(w, "good")])
    e = Kernel(s, w, [uniform(w), dirac(w, "bad")])
    assert cond_kl(k, e, mu) == 0.0
    assert math.isinf(cond_kl(k, e, uniform(s)))
    # kernel_indep_fun: the row at b correlates the two coordinates
    sq = Product(w, w)
    fst = RandomVariable.from_function(sq, w, lambda pair: pair[0])
    snd = RandomVariable.from_function(sq, w, lambda pair: pair[1])
    diagonal = Measure(sq, [Scalar(1, 2), ZERO, ZERO, Scalar(1, 2)])
    joint = Kernel(s, sq, [uniform(sq), diagonal])
    assert kernel_indep_fun(fst, snd, joint, mu)
    assert not kernel_indep_fun(fst, snd, joint, uniform(s))
    # bayes_check: the row at b charges "bad", which has no evidence under mu
    report = bayes_check(Kernel(s, w, [dirac(w, "good"), dirac(w, "bad")]), mu)
    assert report.holds
    # certify_bounded_range: the row at b has mean 1
    x = RealRV(w, [1, -1])
    cert = certify_bounded_range(x, KernelScope(k, mu))
    assert cert.verified and cert.constant == 1


def test_normalize_and_restrict():
    w = weather_space()
    m = Measure(w, [Scalar(3), Scalar(1)])
    n = m.normalize()
    assert n.weights == (Scalar(3, 4), Scalar(1, 4))
    r = m.restrict(["good"])
    assert r.weight("good") == Scalar(3) and r.weight("bad").is_zero()
    with pytest.raises(NotAProbabilityMeasure):
        zero_measure(w).normalize()


def test_dirac_and_equality():
    w = weather_space()
    assert dirac(w, "good").weight("good") == ONE
    assert dirac(w, "good") != dirac(w, "bad")
    assert weather_kernel() == weather_kernel()
