import math
import random
from fractions import Fraction

import pytest

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
from kernelalg.variables import RandomVariable, RealRV


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
