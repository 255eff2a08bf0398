import itertools
import math
import random
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlib
from genlib import fresh_space, random_markov_kernel, random_probability, random_rv, weather_kernel
from kernelalg import algebra as alg
from kernelalg import analytics
from kernelalg.analytics import (
    MAX_GRID_POINTS,
    KernelScope,
    PlainMeasureScope,
    TOLERANCE,
    certify_bounded_range,
    certify_grid,
    certify_subgaussian,
    cond_entropy,
    cond_kl,
    data_processing,
    entropy,
    hoeffding_check,
    kernel_entropy,
    kl_chain_rule,
    kl_div,
    mgf,
    renyi_div,
    subgaussian_add_comp_prod,
)
from kernelalg.errors import (
    AlphaOutOfRange,
    GridViolation,
    KernelAlgError,
    NonzeroMean,
    NotAProbabilityMeasure,
    NotCertified,
)
from kernelalg.measures import Kernel, Measure, dirac, uniform
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.spaces import UNIT, Base, FiniteSpace, Product
from kernelalg.variables import RandomVariable, RealRV, pair_rv


def bernoulli_space():
    return Base(FiniteSpace("B", ["1", "0"]))


def ber(p: Fraction) -> Measure:
    b = bernoulli_space()
    return Measure(b, [Scalar(p), Scalar(1 - p)])


def rademacher():
    s = Base(FiniteSpace("Sign", ["plus", "minus"]))
    return RealRV(s, [1, -1]), uniform(s)


# -- entropy ------------------------------------------------------------------------


def test_entropy_dirac_is_zero():
    s = fresh_space(random.Random(0), 4)
    assert entropy(dirac(s, s.atoms[0])) == 0.0


def test_entropy_uniform_four():
    s = Base(FiniteSpace("S", ["a", "b", "c", "d"]))
    assert abs(entropy(uniform(s)) - math.log(4)) < 1e-12


def test_entropy_three_quarters():
    mu = ber(Fraction(3, 4))
    expected = 0.75 * math.log(Fraction(4, 3)) + 0.25 * math.log(4)
    assert abs(entropy(mu) - expected) < 1e-12


def test_entropy_requires_probability():
    s = bernoulli_space()
    with pytest.raises(NotAProbabilityMeasure):
        entropy(Measure(s, [ONE, ONE]))


def test_kernel_entropy_deterministic_is_zero():
    rng = random.Random(1)
    dom, cod = fresh_space(rng), fresh_space(rng)
    k = alg.deterministic(random_rv(rng, dom, cod))
    assert kernel_entropy(k, random_probability(rng, dom)) == 0.0


def test_kernel_entropy_constant_kernel():
    rng = random.Random(2)
    dom, cod = fresh_space(rng), fresh_space(rng)
    nu = random_probability(rng, cod)
    k = alg.const_kernel(dom, nu)
    mu = random_probability(rng, dom)
    assert abs(kernel_entropy(k, mu) - entropy(nu)) < 1e-12


def test_kernel_entropy_weather():
    k = weather_kernel()
    h_good = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
    h_bad = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))
    expected = 0.5 * h_good + 0.5 * h_bad
    assert abs(kernel_entropy(k, uniform(k.domain)) - expected) < 1e-12


def test_cond_entropy_determined_and_independent():
    rng = random.Random(3)
    om = fresh_space(rng, 5)
    mu = random_probability(rng, om)
    y = random_rv(rng, om, fresh_space(rng, 3))
    # x determined by y
    post = random_rv(rng, y.codomain, fresh_space(rng, 3))
    x = RandomVariable(
        om, post.codomain, {a: post.table[y.table[a]] for a in om.atoms}
    )
    assert cond_entropy(x, y, mu) < 1e-12
    # independent coordinates on a product with a product measure
    b = Base(FiniteSpace("Bit", ["0", "1"]))
    sq = Product(b, b)
    fst = RandomVariable.from_function(sq, b, lambda a: a[0])
    snd = RandomVariable.from_function(sq, b, lambda a: a[1])
    pm = alg.measure_product(ber(Fraction(1, 3)), ber(Fraction(1, 5)))
    pm = Measure(sq, pm.weights)
    hx = entropy(alg.pushforward(pm, fst))
    assert abs(cond_entropy(fst, snd, pm) - hx) < 1e-12


def test_cond_entropy_against_double_sum():
    rng = random.Random(4)
    for _ in range(15):
        om = fresh_space(rng, 6)
        mu = random_probability(rng, om, zero_frac=0.25)
        x = random_rv(rng, om, fresh_space(rng, 3))
        y = random_rv(rng, om, fresh_space(rng, 3))
        # independent direct summation oracle over the joint law
        joint = {}
        for w, atom in zip(mu.weights, om.atoms):
            if w.is_zero():
                continue
            key = (x.table[atom], y.table[atom])
            joint[key] = joint.get(key, Fraction(0)) + w.as_fraction()
        py = {}
        for (a, b), p in joint.items():
            py[b] = py.get(b, Fraction(0)) + p
        expected = 0.0
        for (a, b), p in joint.items():
            expected -= float(p) * math.log(float(p / py[b]))
        assert abs(cond_entropy(x, y, mu) - expected) < TOLERANCE


# -- KL and Renyi --------------------------------------------------------------------


def test_kl_self_is_zero():
    rng = random.Random(5)
    mu = random_probability(rng, fresh_space(rng, 5))
    assert kl_div(mu, mu) == 0.0


def test_kl_bernoulli_value():
    value = kl_div(ber(Fraction(1, 2)), ber(Fraction(1, 4)))
    expected = 0.5 * math.log(2) + 0.5 * math.log(Fraction(2, 3))
    assert abs(value - expected) < 1e-12
    assert abs(value - 0.143841) < 1e-6


def test_kl_singular_pair_is_infinite():
    s = bernoulli_space()
    assert math.isinf(kl_div(dirac(s, "1"), dirac(s, "0")))


def test_gibbs_inequality_and_equality_case():
    rng = random.Random(6)
    for _ in range(100):
        s = fresh_space(rng, 5)
        mu = random_probability(rng, s, zero_frac=0.2)
        nu = random_probability(rng, s, zero_frac=0.2)
        value = kl_div(mu, nu)
        if mu == nu:
            assert value == 0.0
        elif not math.isinf(value):
            assert value > -TOLERANCE
            # exact-equality direction: zero implies identical measures
            if abs(value) <= 1e-15:
                assert mu == nu


def test_cond_kl_identical_kernels():
    rng = random.Random(7)
    dom, cod = fresh_space(rng), fresh_space(rng)
    k = random_markov_kernel(rng, dom, cod)
    mu = random_probability(rng, dom)
    assert cond_kl(k, k, mu) == 0.0


def test_cond_kl_dirac_base():
    rng = random.Random(8)
    dom, cod = fresh_space(rng, 4), fresh_space(rng, 4)
    k1 = random_markov_kernel(rng, dom, cod)
    k2 = random_markov_kernel(rng, dom, cod)
    x0 = dom.atoms[0]
    expected = kl_div(k1.row(x0), k2.row(x0))
    got = cond_kl(k1, k2, dirac(dom, x0))
    if math.isinf(expected):
        assert math.isinf(got)
    else:
        assert abs(got - expected) < 1e-12


def test_cond_kl_weather_vs_lazy():
    k = weather_kernel()
    lazy = alg.const_kernel(k.domain, uniform(k.codomain))
    kl_good = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    kl_bad = 0.4 * math.log(0.8) + 0.6 * math.log(1.2)
    expected = 0.5 * kl_good + 0.5 * kl_bad
    got = cond_kl(k, lazy, uniform(k.domain))
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.106440) < 1e-5


def test_chain_rule_degenerate_cases():
    rng = random.Random(9)
    dom, cod = fresh_space(rng, 4), fresh_space(rng, 4)
    k = random_markov_kernel(rng, dom, cod)
    mu = random_probability(rng, dom)
    nu = random_probability(rng, dom)
    same_kernel = kl_chain_rule(mu, nu, k, k)
    assert same_kernel.additive_form_holds and same_kernel.comp_prod_form_holds
    if not math.isinf(same_kernel.joint):
        assert abs(same_kernel.joint - same_kernel.marginal) < TOLERANCE
    eta = random_markov_kernel(rng, dom, cod)
    same_measure = kl_chain_rule(mu, mu, k, eta)
    assert same_measure.additive_form_holds and same_measure.comp_prod_form_holds
    if not math.isinf(same_measure.joint):
        assert abs(same_measure.joint - same_measure.conditional) < TOLERANCE


def test_chain_rule_randomized_with_infinities():
    rng = random.Random(10)
    finite = infinite = 0
    for _ in range(120):
        dom, cod = fresh_space(rng, 3), fresh_space(rng, 3)
        k = random_markov_kernel(rng, dom, cod, zero_frac=0.3)
        eta = random_markov_kernel(rng, dom, cod, zero_frac=0.3)
        mu = random_probability(rng, dom, zero_frac=0.3)
        nu = random_probability(rng, dom, zero_frac=0.3)
        report = kl_chain_rule(mu, nu, k, eta)
        assert report.additive_form_holds
        assert report.comp_prod_form_holds
        if math.isinf(report.joint):
            infinite += 1
        else:
            finite += 1
    assert finite and infinite


def test_data_processing_discard():
    k = weather_kernel()
    discard = alg.discard_kernel(k.domain)
    rng = random.Random(11)
    mu = random_probability(rng, k.domain)
    nu = random_probability(rng, k.domain)
    report = data_processing("kl", discard, mu, nu)
    assert report.processed == 0.0
    assert report.dpi_holds and report.conditioning_holds


def test_data_processing_injective_equality():
    rng = random.Random(12)
    s = fresh_space(rng, 4)
    perm = list(s.atoms)
    rng.shuffle(perm)
    relabel = alg.deterministic(RandomVariable(s, s, dict(zip(s.atoms, perm))))
    mu = random_probability(rng, s)
    nu = random_probability(rng, s)
    report = data_processing("kl", relabel, mu, nu)
    if math.isinf(report.original):
        assert math.isinf(report.processed)
    else:
        assert abs(report.processed - report.original) < TOLERANCE


def test_data_processing_sweep():
    rng = random.Random(13)
    for _ in range(150):
        dom, cod = fresh_space(rng, 4), fresh_space(rng, 4)
        k = random_markov_kernel(rng, dom, cod, zero_frac=0.25)
        mu = random_probability(rng, dom, zero_frac=0.25)
        nu = random_probability(rng, dom, zero_frac=0.25)
        assert data_processing("kl", k, mu, nu).dpi_holds
        report = data_processing("renyi", k, mu, nu, alpha=Fraction(1, 2))
        assert report.dpi_holds and report.conditioning_holds


def test_renyi_self_and_disjoint():
    rng = random.Random(14)
    mu = random_probability(rng, fresh_space(rng, 4))
    assert renyi_div(Fraction(1, 2), mu, mu) == 0.0
    s = bernoulli_space()
    assert math.isinf(renyi_div(Fraction(1, 3), dirac(s, "1"), dirac(s, "0")))


def test_renyi_half_bernoulli_closed_form():
    value = renyi_div(Fraction(1, 2), ber(Fraction(1, 2)), ber(Fraction(1, 4)))
    expected = -2.0 * math.log(math.sqrt(1 / 8) + math.sqrt(3 / 8))
    assert abs(value - expected) < 1e-12


def test_renyi_near_order_one_against_decimal_oracle():
    # the full-support pair tends to KL = log(4/3) / 2; the second pair shares
    # only 3/4 of mu's mass, so its divergence grows like log(4/3) / (1 - alpha);
    # the third shares all but 1e-12 of it, so log P must come from 1 - P
    s = Base(FiniteSpace("S", ["a", "b", "c"]))
    partial = (
        Measure(s, [Scalar(1, 2), Scalar(1, 4), Scalar(1, 4)]),
        Measure(s, [Scalar(1, 3), Scalar(2, 3), ZERO]),
    )
    tiny = Fraction(1, 10**12)
    almost_all = (Measure(s, [1 - tiny, tiny, ZERO]), dirac(s, "a"))
    cases = [(ber(Fraction(1, 2)), ber(Fraction(1, 4)), k) for k in range(3, 16)]
    cases += [(*partial, k) for k in range(3, 16)]
    cases += [(*almost_all, k) for k in (6, 10)]
    for mu, nu, k in cases:
        alpha = 1 - Fraction(1, 10**k)
        with localcontext() as ctx:
            ctx.prec = 60
            a = _dec(alpha)
            terms = [
                a * _dec(wm).ln() + (1 - a) * _dec(wn).ln()
                for wm, wn in zip(mu.weights, nu.weights)
                if not wn.is_zero()
            ]
            want = _oracle_log_sum_exp(terms) / (a - 1)
            assert abs(Decimal(renyi_div(alpha, mu, nu)) - want) <= Decimal(1e-12) * want


def test_renyi_alpha_range():
    mu = ber(Fraction(1, 2))
    for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(AlphaOutOfRange):
            renyi_div(bad, mu, mu)


def test_renyi_conditional_assembly_mismatch_witness():
    # The integral-style assembly of a conditional Renyi divergence does not
    # reproduce the joint value; frozen here as a regression witness.
    alpha = Fraction(1, 2)
    w = Base(FiniteSpace("W", ["a", "b"]))
    mu = Measure(w, [Scalar(1, 2), Scalar(1, 2)])
    nu = Measure(w, [Scalar(1, 4), Scalar(3, 4)])
    k = Kernel(w, w, [
        Measure(w, [Scalar(4, 5), Scalar(1, 5)]),
        Measure(w, [Scalar(2, 5), Scalar(3, 5)]),
    ])
    eta = alg.const_kernel(w, uniform(w))
    joint = renyi_div(alpha, alg.comp_prod_measure(mu, k), alg.comp_prod_measure(nu, eta))
    integral_assembly = renyi_div(alpha, mu, nu) + sum(
        float(wm) * renyi_div(alpha, krow, erow)
        for wm, krow, erow in zip(mu.weights, k.rows, eta.rows)
    )
    assert abs(joint - integral_assembly) > 1e-3


# -- MGF and certificates ---------------------------------------------------------------


def test_mgf_basics():
    x, mu = rademacher()
    assert abs(mgf(x, mu, 0) - 1.0) < 1e-15
    assert abs(mgf(x, mu, 1) - math.cosh(1)) < 1e-12
    s = Base(FiniteSpace("Pt", ["p"]))
    point = RealRV(s, [Fraction(5, 2)])
    assert abs(mgf(point, dirac(s, "p"), Fraction(2)) - math.exp(5)) < 1e-9


def test_rademacher_bounded_range_certificate():
    x, mu = rademacher()
    cert = certify_bounded_range(x, PlainMeasureScope(mu))
    assert cert.constant == 1
    assert cert.verified
    # independent grid oracle: cosh(t) <= exp(t^2/2) on [-10, 10]
    t = -10.0
    while t <= 10.0:
        assert math.cosh(t) <= math.exp(t * t / 2) * (1 + 1e-12)
        t += 0.01
    grid_cert = certify_grid(x, PlainMeasureScope(mu), 1, Fraction(10), Fraction(1, 100))
    assert grid_cert.verified


def test_dirac_zero_certificate():
    s = Base(FiniteSpace("Pt", ["p"]))
    x = RealRV(s, [0])
    cert = certify_bounded_range(x, PlainMeasureScope(dirac(s, "p")))
    assert cert.constant == 0
    assert cert.verified


def test_nonzero_mean_rejected():
    s = Base(FiniteSpace("S", ["a", "b"]))
    x = RealRV(s, [1, 0])
    with pytest.raises(NonzeroMean):
        certify_bounded_range(x, PlainMeasureScope(uniform(s)))
    # kernel scope with one shifted row
    t = Base(FiniteSpace("T", ["t0", "t1"]))
    x2 = RealRV(s, [1, -1])
    rows = [uniform(s), Measure(s, [Scalar(3, 4), Scalar(1, 4)])]
    kappa = Kernel(t, s, rows)
    with pytest.raises(NonzeroMean):
        certify_bounded_range(x2, KernelScope(kappa, uniform(t)))


def test_grid_violation_reports_first_point():
    # with c = 1/2 the violation region is intermediate |t|; scanning from
    # -4 upward the first failing grid point is -3 (cosh 3 > e^{9/4})
    x, mu = rademacher()
    with pytest.raises(GridViolation) as exc:
        certify_grid(x, PlainMeasureScope(mu), Fraction(1, 2), Fraction(4), Fraction(1, 2))
    assert exc.value.t == -3
    assert math.cosh(3) > math.exp(9 / 4)


def test_grid_point_count_is_checked_before_building():
    # floor(2T/step) + 1 points, the last one at or below T
    third = Fraction(3, 7)
    assert analytics._grid_points(Fraction(1), third) == [-1 + i * third for i in range(5)]
    widest = Fraction(20, MAX_GRID_POINTS - 1)
    assert len(analytics._grid_points(Fraction(10), widest)) == MAX_GRID_POINTS
    with pytest.raises(KernelAlgError, match=f"grid of {MAX_GRID_POINTS + 1} points"):
        analytics._grid_points(Fraction(10), Fraction(20, MAX_GRID_POINTS))


def test_grid_exponents_past_the_float_range_are_refused():
    # c T^2 / 2 = 5e219 fits a float; the mgf exponents reach 2T = 2e310
    x, mu = rademacher()
    big = Fraction(10**310)
    with pytest.raises(KernelAlgError, match=rf"^grid exponent T \|v\| = 2{'0' * 310} "):
        certify_grid(x, PlainMeasureScope(mu), Fraction(1, 10**400), big, big / 10)


def test_certify_dispatch():
    x, mu = rademacher()
    assert certify_subgaussian(x, PlainMeasureScope(mu)).constant == 1
    grid = certify_subgaussian(
        x, PlainMeasureScope(mu), method="grid", constant=2
    )
    assert grid.constant == 2
    with pytest.raises(NotCertified):
        certify_subgaussian(x, PlainMeasureScope(mu), method="grid")


def test_add_comp_prod_diracs():
    pt = Base(FiniteSpace("P0", ["o"]))
    x = RealRV(pt, [0])
    nu = dirac(UNIT, "()")
    kappa = alg.const_kernel(UNIT, dirac(pt, "o"))
    cx = certify_bounded_range(x, KernelScope(kappa, nu))
    eta = alg.const_kernel(Product(UNIT, pt), dirac(pt, "o"))
    cy = certify_bounded_range(x, KernelScope(eta, alg.comp_prod_measure(nu, kappa)))
    combined = subgaussian_add_comp_prod(cx, cy)
    assert combined.constant == 0 and combined.verified


def test_add_comp_prod_two_rademachers():
    (x, mu) = rademacher()
    nu = dirac(UNIT, "()")
    kappa = alg.const_kernel(UNIT, mu)
    cx = certify_bounded_range(x, KernelScope(kappa, nu))
    eta = alg.const_kernel(Product(UNIT, mu.space), mu)
    cy = certify_bounded_range(x, KernelScope(eta, alg.comp_prod_measure(nu, kappa)))
    combined = subgaussian_add_comp_prod(cx, cy)
    assert combined.constant == 2
    assert combined.verified
    assert combined.method[0] == "gridCheck"
    # oracle: the sum's mgf is cosh(t)^2 <= exp(t^2)
    pair = combined.variable
    row = alg.comp_prod(kappa, eta).rows[0]
    for t in (Fraction(-3), Fraction(1, 2), Fraction(2)):
        assert abs(mgf(pair, row, t) - math.cosh(float(t)) ** 2) < 1e-9


def chained_mean_zero_fixture():
    t = Base(FiniteSpace("T", ["t0", "t1"]))
    o1 = Base(FiniteSpace("O1", ["a", "b", "c"]))
    x = RealRV(o1, [1, -1, 0])
    kappa = Kernel(
        t,
        o1,
        [
            Measure(o1, [Scalar(1, 2), Scalar(1, 2), ZERO]),
            Measure(o1, [Scalar(1, 4), Scalar(1, 4), Scalar(1, 2)]),
        ],
    )
    nu = uniform(t)
    o2 = Base(FiniteSpace("O2", ["p", "m"]))
    y = RealRV(o2, [Fraction(1, 2), Fraction(-1, 2)])
    dom2 = Product(t, o1)
    eta = Kernel(dom2, o2, [uniform(o2) for _ in dom2.atoms])
    return x, kappa, nu, y, eta


def test_add_comp_prod_chained_fixture():
    x, kappa, nu, y, eta = chained_mean_zero_fixture()
    cx = certify_bounded_range(x, KernelScope(kappa, nu))
    assert cx.constant == 1
    cy = certify_bounded_range(y, KernelScope(eta, alg.comp_prod_measure(nu, kappa)))
    assert cy.constant == Fraction(1, 4)
    combined = subgaussian_add_comp_prod(cx, cy)
    assert combined.constant == Fraction(5, 4)
    assert combined.verified
    # exact-mgf oracle by enumeration over the product atoms at a few points
    joint = alg.comp_prod(kappa, eta)
    for t_atom in ("t0", "t1"):
        row = joint.row(t_atom)
        for t in (Fraction(-2), Fraction(1), Fraction(3, 2)):
            direct = sum(
                float(w) * math.exp(float(t * (x.value(a) + y.value(b))))
                for (a, b), w in row.items()
                if not w.is_zero()
            )
            assert abs(mgf(combined.variable, row, t) - direct) < 1e-9


def test_add_comp_prod_scope_mismatch():
    from kernelalg.errors import ScopeMismatch

    x, kappa, nu, y, eta = chained_mean_zero_fixture()
    cx = certify_bounded_range(x, KernelScope(kappa, nu))
    bad_measure = alg.comp_prod_measure(
        Measure(kappa.domain, [Scalar(1, 4), Scalar(3, 4)]), kappa
    )
    cy_bad = certify_bounded_range(y, KernelScope(eta, bad_measure))
    with pytest.raises(ScopeMismatch):
        subgaussian_add_comp_prod(cx, cy_bad)


# -- Hoeffding ------------------------------------------------------------------------


def test_hoeffding_rademacher_example():
    x, mu = rademacher()
    report = hoeffding_check(x, mu, 1, 10, 4)
    assert report.exact_tail == Fraction(11, 64)
    # oracle: binomial enumeration C(10,7)+C(10,8)+C(10,9)+C(10,10) over 2^10
    assert Fraction(120 + 45 + 10 + 1, 1024) == Fraction(11, 64)
    assert abs(report.bound - math.exp(-0.8)) < 1e-15
    assert report.holds


def test_hoeffding_tail_beyond_range():
    x, mu = rademacher()
    report = hoeffding_check(x, mu, 1, 5, 6)
    assert report.exact_tail == 0
    assert report.holds


def test_hoeffding_preconditions():
    x, mu = rademacher()
    with pytest.raises(Exception):
        hoeffding_check(x, mu, 1, 0, 1)
    from kernelalg.errors import KernelAlgError

    with pytest.raises(KernelAlgError):
        hoeffding_check(x, mu, 1, 5, 0)
    s = Base(FiniteSpace("S", ["a", "b"]))
    shifted = RealRV(s, [2, 0])
    with pytest.raises(NotCertified):
        hoeffding_check(shifted, uniform(s), 1, 5, 1)


def test_hoeffding_without_sigma_sq_takes_the_bounded_range_constant(monkeypatch):
    x, mu = rademacher()
    report = hoeffding_check(x, mu, None, 10, 4)
    assert report == hoeffding_check(x, mu, 1, 10, 4)
    assert report.certificate.constant == 1
    s = Base(FiniteSpace("S", ["a", "b"]))
    # a nonzero mean is raised as it is, after the argument and size checks
    with pytest.raises(NonzeroMean, match="exact mean 1, expected 0"):
        hoeffding_check(RealRV(s, [2, 0]), uniform(s), None, 5, 1)
    with pytest.raises(KernelAlgError, match="n must be at least 1"):
        hoeffding_check(RealRV(s, [2, 0]), uniform(s), None, 0, 1)
    with monkeypatch.context() as patch, pytest.raises(KernelAlgError, match="visits"):
        patch.setattr(analytics, "MAX_HOEFFDING_WORK", 0)
        hoeffding_check(RealRV(s, [2, 0]), uniform(s), None, 5, 1)
    # a constant variable has range constant 0, which bounds nothing
    with pytest.raises(NotCertified, match=r"sigma\^2 must be positive"):
        hoeffding_check(RealRV(s, [0, 0]), uniform(s), None, 5, 1)


def test_hoeffding_grid_of_thresholds():
    x, mu = rademacher()
    for n in (1, 5, 12, 20):
        t = Fraction(1, 2)
        while t <= n:
            report = hoeffding_check(x, mu, 1, n, t)
            assert report.holds, (n, t)
            t += Fraction(1, 2)
    # asymmetric mean-zero variable: values 2 and -1 with probs 1/3, 2/3
    s = Base(FiniteSpace("S", ["hi", "lo"]))
    x2 = RealRV(s, [2, -1])
    mu2 = Measure(s, [Scalar(1, 3), Scalar(2, 3)])
    sigma_sq = Fraction(9, 4)  # (2 - (-1))^2 / 4
    for n in (1, 4, 9):
        t = Fraction(1, 2)
        while t <= 2 * n:
            report = hoeffding_check(x2, mu2, sigma_sq, n, t)
            assert report.holds, (n, t)
            t += Fraction(1, 2)


def test_hoeffding_falls_back_to_the_grid_below_the_range_constant():
    # -1, 0, 1 with probabilities 1/8, 3/4, 1/8: mean 0, variance 1/4 and
    # bounded-range constant 1; mgf(t) = 3/4 + cosh(t) / 4 <= exp(t^2 / 4)
    s = Base(FiniteSpace("S", ["lo", "mid", "hi"]))
    x = RealRV(s, [-1, 0, 1])
    mu = Measure(s, [Fraction(1, 8), Fraction(3, 4), Fraction(1, 8)])
    assert certify_bounded_range(x, PlainMeasureScope(mu)).constant == 1
    report = hoeffding_check(x, mu, Fraction(1, 2), 6, 3)
    assert report.certificate.method == ("gridCheck", 10, Fraction(1, 100))
    assert report.certificate.constant == Fraction(1, 2)
    law = dict(zip(x.values, mu.weights))
    want = sum(
        math.prod(law[v] for v in draws)
        for draws in itertools.product(x.values, repeat=6)
        if sum(draws) >= 3
    )
    assert report.exact_tail == want
    assert abs(report.bound - math.exp(-1.5)) < 1e-15
    assert report.holds
    # below the variance the grid finds a violation, and nothing certifies
    with pytest.raises(NotCertified, match="mgf bound violated"):
        hoeffding_check(x, mu, Fraction(1, 8), 6, 3)


def test_hoeffding_refuses_a_convolution_past_the_limit(monkeypatch):
    # values -3/2, 0, 3 sit at positions -3, 0, 6 on the lattice of step 3 (scale 2),
    # so L = 3 and 4 rounds visit at most 3 * (3 * 4 * 3 / 2 + 3) = 63 pairs; the
    # uniform weights are over D = 3, so each weight has at most 4 * 2 = 8 bits,
    # and each pair also pays the fixed PAIR_OVERHEAD_BITS = 1600
    s = Base(FiniteSpace("S", ["lo", "mid", "hi"]))
    x = RealRV(s, [Fraction(-3, 2), 0, 3])
    mu = Measure(s, [Fraction(2, 3), 0, Fraction(1, 3)])

    def certified(*args):
        raise AssertionError("certification ran")

    monkeypatch.setattr(analytics, "certify_bounded_range", certified)
    monkeypatch.setattr(analytics, "certify_grid", certified)
    assert analytics.PAIR_OVERHEAD_BITS == 1600
    monkeypatch.setattr(analytics, "MAX_HOEFFDING_WORK", 101303)
    with pytest.raises(KernelAlgError, match=re.escape(
        "the 4-fold convolution visits up to 63 (sum, value) pairs of weights of "
        "up to 8 bits, 63 * (8 + 1600) = 101304 pair-bits, above the limit of 101303"
    )):
        hoeffding_check(x, uniform(s), 1, 4, 1)
    # at the limit, the check passes and certification runs next
    monkeypatch.setattr(analytics, "MAX_HOEFFDING_WORK", 101304)
    with pytest.raises(AssertionError, match="certification ran"):
        hoeffding_check(x, uniform(s), 1, 4, 1)
    # a zero-weight atom adds no value: -3 and 6 are one step of 9 apart, L = 1
    monkeypatch.setattr(analytics, "MAX_HOEFFDING_WORK", 28943)
    with pytest.raises(KernelAlgError, match=r"visits up to 18 \(sum.* 28944 pair-bits"):
        hoeffding_check(x, mu, 1, 4, 1)
    # a single value stays one point: n - 1 pairs
    monkeypatch.setattr(analytics, "MAX_HOEFFDING_WORK", 9683)
    with pytest.raises(KernelAlgError, match=r"7-fold convolution visits up to 6 \(sum"):
        hoeffding_check(RealRV(s, [1, 1, 1]), uniform(s), 1, 7, 1)


def test_hoeffding_work_limit_counts_the_bits_of_the_weights(monkeypatch):
    """Under the default limit, a Rademacher sum of 2047 terms is accepted, and a
    mean-zero law over a 60-bit denominator is refused at the same n, before
    any convolution or certification.  A uniform law on 2000 odd integers has
    D = 2000, so its weights are small, but each pair still costs dict work:
    it is accepted at n = 3 (1.2e7 pairs) and refused at n = 4 and 10."""

    def certified(*args):
        raise AssertionError("certification ran")

    monkeypatch.setattr(analytics, "certify_bounded_range", certified)
    monkeypatch.setattr(analytics, "certify_grid", certified)
    s = Base(FiniteSpace("S", ["lo", "hi"]))
    with pytest.raises(AssertionError, match="certification ran"):
        hoeffding_check(RealRV(s, [-1, 1]), uniform(s), 1, 2047, 1)
    p, q = 2**59 + 1, 2**59 - 93
    mu = Measure(s, [Fraction(p, p + q), Fraction(q, p + q)])
    assert mu.den.bit_length() == 60
    with pytest.raises(KernelAlgError) as exc:
        hoeffding_check(RealRV(s, [-q, p]), mu, 1, 2047, 1)
    assert str(exc.value) == (
        "the 2047-fold convolution visits up to 4192254 (sum, value) pairs of "
        "weights of up to 122820 bits, 4192254 * (122820 + 1600) = 521600242680 "
        "pair-bits, above the limit of 34359738368"
    )
    s = Base(FiniteSpace("S", [f"a{i}" for i in range(2000)]))
    x = RealRV(s, list(range(-1999, 2000, 2)))
    with pytest.raises(AssertionError, match="certification ran"):
        hoeffding_check(x, uniform(s), 1, 3, 1)
    with pytest.raises(KernelAlgError, match=re.escape(
        "the 4-fold convolution visits up to 23994000 (sum, value) pairs of "
        "weights of up to 44 bits, 23994000 * (44 + 1600) = 39446136000 "
        "pair-bits, above the limit of 34359738368"
    )):
        hoeffding_check(x, uniform(s), 1, 4, 1)
    with pytest.raises(KernelAlgError, match=r"10-fold convolution visits up to 179928000 \(sum"):
        hoeffding_check(x, uniform(s), 1, 10, 1)


# -- the exact-to-float boundary against the earlier float() routes ----------------------


def _within(got, want, rel, floor=0.0):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= rel * abs(want) + floor


def _random_mean_zero(rng, mu):
    """Values with small denominators, shifted by their exact mean under mu."""
    values = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in mu.weights]
    mean = sum(w.as_fraction() * v for w, v in zip(mu.weights, values))
    return RealRV(mu.space, [v - mean for v in values])


def test_float_layer_matches_earlier_routes():
    """Bit for bit where a log of float(q) is still taken, within 1e-12 where the
    sum moved to log space (renyi_div, mgf), on zero weights, single atoms and
    product spaces."""
    rng = random.Random(20261018)
    for round_ in range(300):
        if round_ % 3 == 0:
            space = Product(fresh_space(rng, 3), fresh_space(rng, 3))
        else:
            space = fresh_space(rng, 5)
        mu = random_probability(rng, space, zero_frac=0.3)
        nu = random_probability(rng, space, zero_frac=0.3)
        assert entropy(mu).hex() == genlib.reference_entropy(mu).hex()
        assert kl_div(mu, nu).hex() == genlib.reference_kl_div(mu, nu).hex()
        for alpha in (Fraction(1, 2), Fraction(1, 1000), Fraction(999, 1000)):
            # log sum = (alpha - 1) D: the rounding of either route, over 1 - alpha,
            # is an absolute error, and it dominates where D is near 0
            got = renyi_div(alpha, mu, nu)
            want = genlib.reference_renyi_div(alpha, mu, nu)
            assert _within(got, want, 1e-12, 1e-15 / float(1 - alpha))

        dom = fresh_space(rng, 3)
        k = random_markov_kernel(rng, dom, space, zero_frac=0.3)
        e = random_markov_kernel(rng, dom, space, zero_frac=0.3)
        base = random_probability(rng, dom, zero_frac=0.3)
        ke = cl = 0.0
        for w, krow, erow in zip(base.weights, k.rows, e.rows):
            if not w.is_zero():
                ke += float(w) * genlib.reference_entropy(krow)
                cl += float(w) * genlib.reference_kl_div(krow, erow)
        assert kernel_entropy(k, base).hex() == ke.hex()
        assert cond_kl(k, e, base).hex() == cl.hex()
        x = random_rv(rng, space, fresh_space(rng, 3))
        y = random_rv(rng, space, fresh_space(rng, 3))
        direct = genlib.table_cond_entropy_direct(x, y, mu)
        assert cond_entropy(x, y, mu).hex() == direct.hex()

        v = _random_mean_zero(rng, mu)
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        assert _within(mgf(v, mu, t), genlib.reference_mgf(v, mu, t), 1e-12)
        log_mgf = float(analytics._log_mgf(v, mu, t))
        assert abs(log_mgf - genlib.reference_log_mgf(v, mu, t)) <= 1e-12 * (
            1 + abs(log_mgf)
        )
        sigma_sq = certify_bounded_range(v, PlainMeasureScope(mu)).constant + 1
        n = rng.randint(1, 4)
        threshold = Fraction(rng.randint(1, 10**4), rng.randint(1, 8))
        bound = hoeffding_check(v, mu, sigma_sq, n, threshold).bound
        assert bound.hex() == genlib.reference_hoeffding_bound(n, threshold, sigma_sq).hex()


def test_weights_below_the_float_range():
    # 1/10^400 is a positive weight whose float is 0.0
    s = Base(FiniteSpace("S", ["a", "b"]))
    tiny = Fraction(1, 10**400)
    mu = Measure(s, [Scalar(tiny), Scalar(1 - tiny)])
    nu = dirac(s, "a")
    x = RealRV(s, [1000, 0])
    assert abs(kl_div(nu, mu) - 400 * math.log(10)) < 1e-9
    assert abs(renyi_div(Fraction(1, 2), mu, nu) - 400 * math.log(10)) < 1e-9
    assert entropy(mu) == 0.0  # 921 / 10^400 and 1/10^400 are far below a float
    # 10^-400 e^1000 + 1 = e^(1000 - 400 log 10) + 1
    assert abs(mgf(x, mu, 1) / 1.97007111402e34 - 1) < 1e-9
    cert = certify_grid(x, PlainMeasureScope(mu), 10**6, Fraction(10), Fraction(1))
    assert cert.verified


def test_mgf_past_the_float_range_decides_inf_or_zero():
    # t v = +-10^400 does not convert to a float
    s = Base(FiniteSpace("S", ["a", "b"]))
    x = RealRV(s, [1, 2])
    mu = uniform(s)
    assert mgf(x, mu, 10**400) == math.inf
    assert mgf(x, mu, -(10**400)) == 0.0
    assert mgf(x, mu, 800) == math.inf
    assert mgf(x, mu, -800) == 0.0
    assert analytics._LOG_FLOAT_MAX == math.log(sys.float_info.max)
    assert math.isfinite(math.exp(analytics._LOG_FLOAT_MAX))


def test_order_rounding_to_one_is_refused():
    mu = ber(Fraction(1, 2))
    nu = ber(Fraction(1, 4))
    near = 1 - Fraction(1, 10**400)
    assert renyi_div(near, mu, mu) == 0.0  # mu == nu is decided first
    with pytest.raises(AlphaOutOfRange, match=f"^alpha {near} rounds to 1 in float64$"):
        renyi_div(near, mu, nu)
    assert math.isfinite(renyi_div(1 - Fraction(1, 10**15), mu, nu))


def test_add_comp_prod_sums_values_without_listing_product_atoms():
    x, kappa, nu, y, eta = chained_mean_zero_fixture()
    cx = certify_bounded_range(x, KernelScope(kappa, nu))
    cy = certify_bounded_range(y, KernelScope(eta, alg.comp_prod_measure(nu, kappa)))
    combined = subgaussian_add_comp_prod(cx, cy)
    assert combined.variable.domain._atoms is None
    # the certificate as built from the listed product atoms
    pair_space = Product(kappa.codomain, eta.codomain)
    listed = RealRV(pair_space, [x.value(a) + y.value(b) for (a, b) in pair_space.atoms])
    expected = certify_grid(
        listed,
        KernelScope(alg.comp_prod(kappa, eta), nu),
        cx.constant + cy.constant,
        Fraction(10),
        Fraction(1, 100),
    )
    assert combined == expected


# -- fuzz against a 60-digit decimal oracle -------------------------------------------
#
# Weights are ratios of integers up to 10^500, renormalized, so a weight or a
# density ratio can lie far outside the float range; values and t reach 10^6,
# so t v can overflow exp; orders come near 0, near 1 and in between.  Every
# call returns a float that is not nan, or raises a KernelAlgError.

BIG = 10**500
_raw_weight = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(0, BIG), st.integers(1, BIG))
)
_value = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=100),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=100),
)
_order = st.one_of(
    st.fractions(0, 1, max_denominator=10**6).filter(lambda a: 0 < a < 1),
    st.integers(1, 600).map(lambda k: Fraction(1, 10**k)),
    st.integers(1, 600).map(lambda k: 1 - Fraction(1, 10**k)),
)


@st.composite
def _cases(draw):
    size = draw(st.integers(1, 3))
    space = Base(FiniteSpace("S", [f"s{i}" for i in range(size)]))

    def measure():
        raw = draw(st.lists(_raw_weight, min_size=size, max_size=size).filter(any))
        total = sum(raw)
        return Measure(space, [Scalar(w / total) for w in raw])

    def rv():
        images = draw(st.lists(st.sampled_from(space.atoms), min_size=size, max_size=size))
        return RandomVariable(space, space, dict(zip(space.atoms, images)))

    return dict(
        mu=measure(),
        nu=measure(),
        values=draw(st.lists(_value, min_size=size, max_size=size)),
        t=draw(_value),
        alpha=draw(_order),
        x=rv(),
        y=rv(),
        n=draw(st.integers(1, 3)),
        threshold=draw(st.fractions(min_value=0, max_value=10**3, max_denominator=100)),
    )


def _dec(q) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _oracle_entropy(weights) -> Decimal:
    return -sum((_dec(w) * _dec(w).ln() for w in weights if not w.is_zero()), Decimal(0))


def _oracle_kl(mu, nu):
    acc = Decimal(0)
    for wm, wn in zip(mu.weights, nu.weights):
        if not wm.is_zero():
            if wn.is_zero():
                return math.inf
            acc += _dec(wm) * (_dec(wm).ln() - _dec(wn).ln())
    return acc


def _oracle_log_sum_exp(terms) -> Decimal:
    top = max(terms)
    return top + sum(((x - top).exp() for x in terms), Decimal(0)).ln()


def _oracle_log_mgf(values, mu, t) -> Decimal:
    return _oracle_log_sum_exp(
        [_dec(w).ln() + _dec(t * v) for w, v in zip(mu.weights, values) if not w.is_zero()]
    )


def _close(got: float, want, slack=Decimal(0)):
    """got within 1e-9 relative plus 1e-12 absolute of want, plus any slack."""
    assert not math.isnan(got)
    if want == math.inf or got == math.inf:
        assert got == want
        return
    assert abs(Decimal(got) - want) <= Decimal(1e-9) * abs(want) + Decimal(1e-12) + slack, (
        got,
        want,
    )


def _close_exp(got: float, log_want: Decimal):
    """got = exp(log_want), with inf past the float range and 0.0 below it."""
    if got == math.inf:
        assert log_want > Decimal("709.7827")
    elif got == 0.0:
        assert log_want < Decimal(-744)
    else:
        _close(got, log_want.exp())


def _attempt(fn, *args):
    """fn(*args), or None for a KernelAlgError; any other exception escapes."""
    try:
        return fn(*args)
    except KernelAlgError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cases())
def test_float_layer_fuzz_against_decimal_oracle(case):
    with localcontext() as ctx:
        ctx.prec = 60
        _fuzz_case(**case)


def _fuzz_case(mu, nu, values, t, alpha, x, y, n, threshold):
    space = mu.space
    k = Kernel(space, space, [(mu, nu)[i % 2] for i in range(space.size)])
    e = Kernel(space, space, [(nu, mu)[i % 2] for i in range(space.size)])

    _close(entropy(mu), _oracle_entropy(mu.weights))
    _close(
        kernel_entropy(k, mu),
        sum(_dec(w) * _oracle_entropy(r.weights) for w, r in zip(mu.weights, k.rows)),
    )
    h = _attempt(cond_entropy, x, y, mu)
    if h is not None:
        joint = alg.pushforward(mu, pair_rv(y, x)).weights
        py = alg.pushforward(mu, y).weights
        nx = space.size
        want = -sum(
            (
                _dec(p) * (_dec(p).ln() - _dec(py[i // nx]).ln())
                for i, p in enumerate(joint)
                if not p.is_zero()
            ),
            Decimal(0),
        )
        _close(h, want)
    for a, b in ((mu, nu), (nu, mu)):
        _close(kl_div(a, b), _oracle_kl(a, b))
    rows = [(w, kr, er) for w, kr, er in zip(mu.weights, k.rows, e.rows) if not w.is_zero()]
    rows_kl = [_oracle_kl(kr, er) for _, kr, er in rows]
    want = math.inf if math.inf in rows_kl else sum(
        (_dec(w) * kl for (w, _, _), kl in zip(rows, rows_kl)), Decimal(0)
    )
    _close(cond_kl(k, e, mu), want)
    report = kl_chain_rule(mu, nu, k, e)
    assert not math.isnan(report.joint + report.marginal + report.conditional)
    assert report.additive_form_holds and report.comp_prod_form_holds
    for kind in ("kl", "renyi"):
        dp = _attempt(data_processing, kind, k, mu, nu, alpha)
        if dp is not None:
            assert not math.isnan(dp.processed + dp.original + dp.joint)

    d = _attempt(renyi_div, alpha, mu, nu)
    if d is None:
        assert float(alpha) == 1.0 and mu != nu
    else:
        _check_renyi(d, alpha, mu, nu)

    v = RealRV(space, values)
    _close_exp(mgf(v, mu, t), _oracle_log_mgf(values, mu, t))
    _check_certificates(v, mu, n, threshold)


def _check_renyi(got, alpha, mu, nu):
    """Within the oracle's tolerance plus the conditioning of the formula: log of
    the sum is (alpha - 1) D, so its float rounding error, a few ulps of the
    largest log weight, is divided by 1 - alpha."""
    if mu == nu:
        assert got == 0.0
        return
    a = _dec(alpha)
    shared = [
        (wm, wn)
        for wm, wn in zip(mu.weights, nu.weights)
        if not wm.is_zero() and not wn.is_zero()
    ]
    if not shared:
        assert got == math.inf
        return
    logs = [(_dec(wm).ln(), _dec(wn).ln()) for wm, wn in shared]
    want = _oracle_log_sum_exp([a * lm + (1 - a) * ln for lm, ln in logs]) / (a - 1)
    largest = max(max(abs(lm), abs(ln)) for lm, ln in logs)
    _close(got, want, slack=16 * Decimal(2) ** -53 * (largest + 1) / (1 - a))


def _check_certificates(v, mu, n, threshold):
    scope = PlainMeasureScope(mu)
    assert _attempt(certify_subgaussian, v, scope) is None or v.mean(mu) == 0
    centered = RealRV(mu.space, [value - v.mean(mu) for value in v.values])
    cert = certify_subgaussian(centered, scope)
    grid_t, grid_step = Fraction(2), Fraction(1, 2)
    for c in (cert.constant, cert.constant / 4):
        try:
            grid = certify_subgaussian(centered, scope, "grid", c, grid_t, grid_step)
        except GridViolation as exc:
            assert not math.isnan(exc.mgf_value) and not math.isnan(exc.bound)
            log_mgf = _oracle_log_mgf(centered.values, mu, exc.t)
            assert log_mgf > _dec(c * exc.t**2 / 2) - Decimal(1e-9)
        else:
            assert grid.verified
            for point in analytics._grid_points(grid_t, grid_step):
                log_mgf = _oracle_log_mgf(centered.values, mu, point)
                assert log_mgf <= _dec(c * point**2 / 2) + Decimal(1e-9)

    unit_scope = dirac(UNIT, "()")
    kappa = alg.const_kernel(UNIT, mu)
    eta = alg.const_kernel(Product(UNIT, mu.space), mu)
    cx = certify_bounded_range(centered, KernelScope(kappa, unit_scope))
    cy = certify_bounded_range(
        centered, KernelScope(eta, alg.comp_prod_measure(unit_scope, kappa))
    )
    summed = subgaussian_add_comp_prod(cx, cy, grid_t, grid_step)
    assert summed.verified and summed.constant == 2 * cert.constant

    sigma_sq = cert.constant or Fraction(1)
    hoeffding = _attempt(hoeffding_check, centered, mu, sigma_sq, n, threshold)
    if hoeffding is not None:
        _close_exp(hoeffding.bound, -_dec(threshold**2 / (2 * n * sigma_sq)))
        assert hoeffding.holds == (hoeffding.exact_tail <= Fraction(hoeffding.bound))


def test_messages_print_every_digit_of_a_rational():
    big = (10**2999 + 7) * (10**2999 + 9)
    assert len(str(Decimal(big))) > 4300

    def digits(q: Fraction) -> str:
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"

    mu, nu = ber(Fraction(1, 2)), ber(Fraction(1, 4))
    over = 1 + Fraction(1, big)
    with pytest.raises(AlphaOutOfRange) as info:
        renyi_div(over, mu, nu)
    assert str(info.value) == f"alpha must lie strictly in (0, 1), got {digits(over)}"
    near = 1 - Fraction(1, big)
    with pytest.raises(AlphaOutOfRange) as info:
        renyi_div(near, mu, nu)
    assert str(info.value) == f"alpha {digits(near)} rounds to 1 in float64"
    order = Fraction(1, 2) + Fraction(1, big)
    kappa = Kernel(mu.space, mu.space, [mu, nu])
    report = data_processing("renyi", kappa, mu, nu, alpha=order)
    assert report.divergence == f"renyi({digits(order)})"
    assert data_processing("renyi", kappa, mu, nu, Fraction(1, 3)).divergence == (
        "renyi(1/3)"
    )
    # sigma^2 below the range constant 1 of a fair sign flip, where cosh(t)
    # exceeds exp(sigma^2 t^2 / 2) near t = 0
    sign, fair = rademacher()
    sigma_sq = Fraction(9, 10) + Fraction(1, big)
    with pytest.raises(NotCertified) as info:
        hoeffding_check(sign, fair, sigma_sq, 2, 1)
    assert str(info.value).startswith(
        f"variable does not certify sub-Gaussian at {digits(sigma_sq)}: "
        "mgf bound violated at t = "
    )
    radius = 10 + Fraction(1, big)
    with pytest.raises(KernelAlgError) as info:
        certify_grid(sign, PlainMeasureScope(fair), 1, radius, Fraction(1, 10**6))
    assert str(info.value) == (
        f"grid of 20000001 points on [-{digits(radius)}, {digits(radius)}] "
        f"exceeds the limit of {MAX_GRID_POINTS} points; use a larger step"
    )
