"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance and budget is pinned here; randomized
sweeps use fixed seeds so the suite is bit-reproducible.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from genlib import (
    fresh_space,
    random_finite_kernel,
    random_markov_kernel,
    random_probability,
    random_rv,
    rectangle_indep_oracle,
)
from kernelalg import algebra as alg
from kernelalg.analytics import (
    KernelScope,
    PlainMeasureScope,
    certify_bounded_range,
    certify_grid,
    data_processing,
    entropy,
    hoeffding_check,
    kernel_entropy,
    kl_chain_rule,
    kl_div,
    subgaussian_add_comp_prod,
)
from kernelalg.bayes import bayes_check, posterior
from kernelalg.conditioning import cond_indep_iff_cond_distrib, indep_fun
from kernelalg.disintegration import (
    cond_kernel,
    is_cond_kernel,
    rn_deriv,
    singular_part,
    with_density,
    DensityTable,
)
from kernelalg.document import parse_document, serialize_document
from kernelalg.errors import ExprTypeError
from kernelalg.exprlang import eval_expr, infer_type, parse_expr
from kernelalg.jsonio import dumps
from kernelalg.measures import Kernel, Measure, dirac, uniform
from kernelalg.scalar import ZERO, Scalar
from kernelalg.sequential import (
    KernelChain,
    flatten_trajectory,
    markov_chain,
    projection_consistency,
    sample,
    traj_kernel,
    trajectory_law,
)
from kernelalg.spaces import Base, FiniteSpace, Product
from kernelalg.variables import RandomVariable, RealRV

DATA = Path(__file__).parent / "data"


def report(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_weather_fixture():
    started = time.perf_counter()
    doc = parse_document((DATA / "01_weather.kd").read_text())
    node = parse_expr("comp(k,k)")
    infer_type(doc, node)
    value = eval_expr(doc, node)
    assert value.weight("good", "good") == Scalar(18, 25)
    report("weather-fixture comp(k,k) = 18/25 exactly", started, 1.0)


def test_algebra_law_suite():
    started = time.perf_counter()
    rng = random.Random(20240801)
    for _ in range(1000):
        a, b, c, d = (fresh_space(rng, 5) for _ in range(4))
        k1 = random_markov_kernel(rng, a, b, max_den=16)
        k2 = random_markov_kernel(rng, b, c, max_den=16)
        k3 = random_markov_kernel(rng, c, d, max_den=16)
        # associativity and unit laws, exact
        assert alg.compose(k3, alg.compose(k2, k1)) == alg.compose(
            alg.compose(k3, k2), k1
        )
        assert alg.compose(alg.identity_kernel(b), k1) == k1
        assert alg.compose(k1, alg.identity_kernel(a)) == k1
        # Markov-category discard law
        assert alg.compose(alg.discard_kernel(b), k1) == alg.discard_kernel(a)
        # pairing-snd identity: composition is the snd marginal of the pairing
        lifted = alg.prod_mk_left(a, k2)
        assert alg.marginal_snd(alg.comp_prod(k1, lifted)) == alg.compose(k2, k1)
        # same-input pairing equals the copy route
        k4 = random_markov_kernel(rng, a, c, max_den=16)
        assert alg.prod(k1, k4) == alg.compose(
            alg.parallel(k1, k4), alg.copy_kernel(a)
        )
        # sequential-pairing associativity with explicit rebracketing
        t, x, y, z = (fresh_space(rng, 5) for _ in range(4))
        kap = random_markov_kernel(rng, t, x, max_den=16)
        eta = random_markov_kernel(rng, Product(t, x), y, max_den=16)
        xi = random_markov_kernel(rng, Product(t, Product(x, y)), z, max_den=16)
        left = alg.comp_prod(alg.comp_prod(kap, eta), xi)
        xi2 = alg.compose(xi, alg.assoc_inv_kernel(t, x, y))
        right = alg.comp_prod(kap, alg.comp_prod(eta, xi2))
        assert left == alg.compose(alg.assoc_kernel(x, y, z), right)
        assert alg.comp_prod(kap, eta) == alg.comp_prod_via_primitives(kap, eta)
    report("algebra-laws 1000 randomized instances, zero tolerance", started, 30.0)


def test_disintegration_suite():
    started = time.perf_counter()
    rng = random.Random(20240802)
    zero_atoms = total_atoms = 0
    for _ in range(500):
        x, y, z = (fresh_space(rng, 4) for _ in range(3))
        kappa = random_finite_kernel(rng, x, Product(y, z), zero_frac=0.4)
        zero_atoms += sum(
            1 for row in kappa.rows for w in row.weights if w.is_zero()
        )
        total_atoms += x.size * y.size * z.size
        ck = cond_kernel(kappa)
        assert ck.is_markov()
        assert is_cond_kernel(kappa, ck)
        # a.e. uniqueness and null-modification invariance
        fst = alg.marginal_fst(kappa)
        rows = []
        for (x_atom, y_atom) in ck.domain.atoms:
            if fst.weight(x_atom, y_atom).is_zero():
                rows.append(random_probability(rng, z))
            else:
                rows.append(ck.row((x_atom, y_atom)))
        modified = Kernel(ck.domain, z, rows)
        assert is_cond_kernel(kappa, modified)
        for (x_atom, y_atom) in ck.domain.atoms:
            if not fst.weight(x_atom, y_atom).is_zero():
                assert ck.row((x_atom, y_atom)) == modified.row((x_atom, y_atom))
    assert zero_atoms >= 0.3 * total_atoms
    report("disintegration 500 random kernels, exact reconstruction", started, 30.0)


def test_radon_nikodym_suite():
    started = time.perf_counter()
    rng = random.Random(20240803)
    for i in range(500):
        x, y = fresh_space(rng, 4), fresh_space(rng, 4)
        eta = random_finite_kernel(rng, x, y, zero_frac=0.3)
        if i % 2 == 0:
            kappa = random_finite_kernel(rng, x, y, zero_frac=0.3)
        else:
            # dominated pair: kappa <= eta atom by atom
            scale = DensityTable(
                Product(x, y),
                [Scalar(rng.randint(0, 4), 4) for _ in range(x.size * y.size)],
            )
            kappa = with_density(eta, scale)
        density = rn_deriv(kappa, eta)
        singular = singular_part(kappa, eta)
        assert alg.add_kernels(with_density(eta, density), singular) == kappa
        for srow, erow in zip(singular.rows, eta.rows):
            for ws, we in zip(srow.weights, erow.weights):
                assert ws.is_zero() or we.is_zero()
        if i % 2 == 1:
            assert singular == alg.zero_kernel(x, y)
            # dominated-case integral identity over every atom set
            for xi, x_atom in enumerate(x.atoms):
                for mask in range(1 << y.size):
                    block = [y.atoms[j] for j in range(y.size) if mask >> j & 1]
                    integral = ZERO
                    for y_atom in block:
                        integral = integral + density.value(
                            (x_atom, y_atom)
                        ) * eta.rows[xi].weight(y_atom)
                    assert integral == kappa.rows[xi].mass_of(block)
    report("radon-nikodym 500 random pairs, exact decomposition", started, 30.0)


def test_bayes_suite():
    started = time.perf_counter()
    rng = random.Random(20240804)
    for _ in range(500):
        om, xs = fresh_space(rng, 4), fresh_space(rng, 4)
        kappa = random_markov_kernel(rng, om, xs, zero_frac=0.3)
        mu = random_probability(rng, om, zero_frac=0.3)
        post = posterior(kappa, mu)
        evidence = alg.comp_measure(kappa, mu)
        joint = alg.comp_prod_measure(mu, kappa)
        swapped = alg.comp_measure(alg.swap_kernel(om, xs), joint)
        assert alg.comp_prod_measure(evidence, post) == swapped
        assert bayes_check(kappa, mu).holds
        back = posterior(post, evidence)
        for wi, omega in enumerate(om.atoms):
            if not mu.weights[wi].is_zero():
                assert back.row(omega) == kappa.rows[wi]
    # worked coin example, exact
    om = Base(FiniteSpace("Om", ["r", "s"]))
    xs = Base(FiniteSpace("X", ["h", "t"]))
    coin = Kernel(
        om,
        xs,
        [
            Measure(xs, [Scalar(3, 4), Scalar(1, 4)]),
            Measure(xs, [Scalar(1, 4), Scalar(3, 4)]),
        ],
    )
    post = posterior(coin, uniform(om))
    assert post.row("h").weights == (Scalar(3, 4), Scalar(1, 4))
    report("bayes 500 random priors, exact inversion identities", started, 30.0)


def test_independence_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240805)
    for _ in range(200):
        om = fresh_space(rng, 6)
        cx = fresh_space(rng, 3)
        cy = fresh_space(rng, 3)
        x, y = random_rv(rng, om, cx), random_rv(rng, om, cy)
        mu = random_probability(rng, om, zero_frac=0.3)
        assert indep_fun(x, y, mu) == rectangle_indep_oracle(x, y, mu)
    for _ in range(200):
        om = fresh_space(rng, 6)
        x = random_rv(rng, om, fresh_space(rng, 3))
        y = random_rv(rng, om, fresh_space(rng, 3))
        z = random_rv(rng, om, fresh_space(rng, 3))
        mu = random_probability(rng, om, zero_frac=0.3)
        lhs, rhs = cond_indep_iff_cond_distrib(x, y, z, mu)
        assert lhs == rhs
    report("independence singleton check == rectangle oracle, 200+200 cases", started, 30.0)


def test_finite_horizon_consistency():
    started = time.perf_counter()
    rng = random.Random(20240806)
    for _ in range(100):
        length = rng.randint(1, 5)
        start = fresh_space(rng, 4)
        history = start
        steps = []
        for _ in range(length):
            out = fresh_space(rng, 4)
            steps.append(random_markov_kernel(rng, history, out))
            history = Product(history, out)
        chain = KernelChain(start, steps)
        for n in range(1, length + 1):
            assert traj_kernel(chain, n).is_markov()
            for m in range(1, n + 1):
                assert projection_consistency(chain, n, m)
    # deterministic chain gives a Dirac trajectory
    w = Base(FiniteSpace("W", ["a", "b", "c"]))
    rotate = alg.deterministic(
        RandomVariable(w, w, {"a": "b", "b": "c", "c": "a"})
    )
    chain = markov_chain(dirac(w, "a"), rotate, 3)
    t = traj_kernel(chain, 3)
    assert t.row("a") == dirac(t.codomain, (("b", "c"), "a"))
    report("finite-horizon projection consistency, 100 random chains", started, 60.0)


def test_sampler():
    started = time.perf_counter()
    doc = parse_document((DATA / "06_three_state.kd").read_text())
    chain = doc.chains["walk"]
    n, seed, count = 3, 987654321, 100000
    first = sample(chain, n, seed, count)
    second = sample(chain, n, seed, count)
    assert first == second  # bit-exact reproducibility
    law = trajectory_law(chain, n)
    counts = Counter(first)
    tv = Fraction(0)
    for atom, weight in law.items():
        flat = flatten_trajectory(n, atom)
        tv += abs(weight.as_fraction() - Fraction(counts.get(flat, 0), count))
    tv = tv / 2
    assert tv <= Fraction(2, 100), f"TV distance {float(tv):.4f} exceeds 0.02"
    report(
        f"sampler 1e5 trajectories, TV = {float(tv):.4f} <= 0.02, reproducible",
        started,
        60.0,
    )


def test_entropy_and_kl():
    started = time.perf_counter()
    four = Base(FiniteSpace("S4", ["a", "b", "c", "d"]))
    assert abs(entropy(uniform(four)) - math.log(4)) < 1e-12
    b = Base(FiniteSpace("B", ["1", "0"]))
    half = Measure(b, [Scalar(1, 2), Scalar(1, 2)])
    quarter = Measure(b, [Scalar(1, 4), Scalar(3, 4)])
    independent = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert abs(kl_div(half, quarter) - independent) < 1e-12
    assert abs(kl_div(half, quarter) - 0.143841) < 1e-6

    rng = random.Random(20240807)
    for _ in range(500):
        dom, cod = fresh_space(rng, 4), fresh_space(rng, 4)
        kap = random_markov_kernel(rng, dom, cod, zero_frac=0.25)
        eta = random_markov_kernel(rng, dom, cod, zero_frac=0.25)
        mu = random_probability(rng, dom, zero_frac=0.25)
        nu = random_probability(rng, dom, zero_frac=0.25)
        chain_report = kl_chain_rule(mu, nu, kap, eta)
        assert chain_report.additive_form_holds
        assert chain_report.comp_prod_form_holds
        # entropy chain rule for the sequential pairing
        second = random_markov_kernel(rng, Product(dom, cod), fresh_space(rng, 4))
        lhs = kernel_entropy(alg.comp_prod(kap, second), mu)
        rhs = kernel_entropy(kap, mu) + kernel_entropy(
            second, alg.comp_prod_measure(mu, kap)
        )
        assert abs(lhs - rhs) < 1e-9
    violations = 0
    for _ in range(1000):
        dom, cod = fresh_space(rng, 4), fresh_space(rng, 4)
        kap = random_markov_kernel(rng, dom, cod, zero_frac=0.25)
        mu = random_probability(rng, dom, zero_frac=0.25)
        nu = random_probability(rng, dom, zero_frac=0.25)
        if not data_processing("kl", kap, mu, nu).dpi_holds:
            violations += 1
        renyi_report = data_processing("renyi", kap, mu, nu, alpha=Fraction(1, 2))
        if not (renyi_report.dpi_holds and renyi_report.conditioning_holds):
            violations += 1
    assert violations == 0
    report(
        "entropy/KL: pinned values, 500 chain-rule and 1000 DPI instances",
        started,
        60.0,
    )


def test_subgaussian_and_hoeffding():
    started = time.perf_counter()
    sign = Base(FiniteSpace("Sign", ["plus", "minus"]))
    x = RealRV(sign, [1, -1])
    fair = uniform(sign)
    cert = certify_bounded_range(x, PlainMeasureScope(fair))
    assert cert.constant == 1 and cert.verified
    grid_cert = certify_grid(
        x, PlainMeasureScope(fair), cert.constant, Fraction(10), Fraction(1, 100)
    )
    assert grid_cert.verified

    # chained mean-zero fixtures: summed constant, grid-verified
    t_space = Base(FiniteSpace("T", ["t0", "t1"]))
    o1 = Base(FiniteSpace("O1", ["a", "b", "c"]))
    xv = RealRV(o1, [1, -1, 0])
    kappa = Kernel(
        t_space,
        o1,
        [
            Measure(o1, [Scalar(1, 2), Scalar(1, 2), ZERO]),
            Measure(o1, [Scalar(1, 4), Scalar(1, 4), Scalar(1, 2)]),
        ],
    )
    nu = uniform(t_space)
    o2 = Base(FiniteSpace("O2", ["p", "m"]))
    yv = RealRV(o2, [Fraction(1, 2), Fraction(-1, 2)])
    eta = Kernel(
        Product(t_space, o1), o2, [uniform(o2) for _ in Product(t_space, o1).atoms]
    )
    cx = certify_bounded_range(xv, KernelScope(kappa, nu))
    cy = certify_bounded_range(yv, KernelScope(eta, alg.comp_prod_measure(nu, kappa)))
    combined = subgaussian_add_comp_prod(cx, cy)
    assert combined.constant == cx.constant + cy.constant
    assert combined.verified and combined.method[0] == "gridCheck"

    rademacher_report = hoeffding_check(x, fair, 1, 10, 4)
    assert rademacher_report.exact_tail == Fraction(11, 64)
    assert abs(rademacher_report.bound - math.exp(Fraction(-4, 5))) < 1e-15
    assert rademacher_report.holds

    for n in range(1, 21):
        t = Fraction(1, 2)
        while t <= n:
            assert hoeffding_check(x, fair, 1, n, t).holds, (n, t)
            t += Fraction(1, 2)
    skew = Base(FiniteSpace("Skew", ["hi", "lo"]))
    x2 = RealRV(skew, [2, -1])
    mu2 = Measure(skew, [Scalar(1, 3), Scalar(2, 3)])
    for n in range(1, 21):
        t = Fraction(1, 2)
        while t <= 2 * n:
            assert hoeffding_check(x2, mu2, Fraction(9, 4), n, t).holds, (n, t)
            t += Fraction(1, 2)
    report("sub-Gaussian certificates and Hoeffding tails, n <= 20 grids", started, 60.0)


def test_frontend():
    started = time.perf_counter()
    paths = sorted(DATA.glob("*.kd"))
    assert len(paths) >= 10
    for path in paths:
        doc = parse_document(path.read_text())
        once = serialize_document(doc)
        assert parse_document(once) == doc
        assert serialize_document(parse_document(once)) == once

    # bracketing-mismatch rejection with both space expressions in the message
    doc = parse_document(
        """
space T { t }
space X { x0 x1 }
space Y { y0 y1 }
space Z { z0 z1 }
kernel k1 : T -> X = { t: { x0: 1/2, x1: 1/2 } }
kernel k2 : (T x X) -> Y = {
  (t,x0): { y0: 1, y1: 0 }
  (t,x1): { y0: 0, y1: 1 }
}
kernel k3 : ((T x X) x Y) -> Z = {
  ((t,x0),y0): { z0: 1, z1: 0 }
  ((t,x0),y1): { z0: 1, z1: 0 }
  ((t,x1),y0): { z0: 1, z1: 0 }
  ((t,x1),y1): { z0: 1, z1: 0 }
}
"""
    )
    node = parse_expr("compProd(compProd(k1, k2), k3)")
    try:
        infer_type(doc, node)
        raise AssertionError("bracketing mismatch was not rejected")
    except ExprTypeError as exc:
        message = str(exc)
        assert "(T x (X x Y))" in message and "((T x X) x Y)" in message

    # JSON byte-stability across repeated rendering
    weather_doc = parse_document((DATA / "01_weather.kd").read_text())
    node = parse_expr("comp(k,k)")
    infer_type(weather_doc, node)
    value = eval_expr(weather_doc, node)
    blobs = {dumps(value) for _ in range(5)}
    assert len(blobs) == 1
    report("frontend round-trip, bracket diagnostics, stable JSON", started, 30.0)
