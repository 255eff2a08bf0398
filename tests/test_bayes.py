import random

import pytest

from genlib import fresh_space, random_markov_kernel, random_probability
from kernelalg import algebra as alg
from kernelalg.bayes import bayes_check, posterior
from kernelalg.errors import SpaceMismatch
from kernelalg.measures import Kernel, Measure, dirac, uniform
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.spaces import Base, FiniteSpace
from kernelalg.variables import RandomVariable


def coin_setup():
    om = Base(FiniteSpace("Om", ["r", "s"]))
    x = Base(FiniteSpace("X", ["h", "t"]))
    kappa = Kernel(
        om,
        x,
        [
            Measure(x, [Scalar(3, 4), Scalar(1, 4)]),
            Measure(x, [Scalar(1, 4), Scalar(3, 4)]),
        ],
    )
    return om, x, kappa, uniform(om)


def test_worked_coin_example():
    om, x, kappa, mu = coin_setup()
    evidence = alg.comp_measure(kappa, mu)
    assert evidence.weights == (Scalar(1, 2), Scalar(1, 2))
    post = posterior(kappa, mu)
    assert post.row("h").weight("r") == Scalar(3, 4)
    assert post.row("h").weight("s") == Scalar(1, 4)
    assert post.row("t").weight("r") == Scalar(1, 4)


def test_injective_deterministic_evidence():
    rng = random.Random(0)
    s = fresh_space(rng, 4)
    perm = list(s.atoms)
    rng.shuffle(perm)
    f = RandomVariable(s, s, dict(zip(s.atoms, perm)))
    mu = random_probability(rng, s)
    while any(w.is_zero() for w in mu.weights):
        mu = random_probability(rng, s)
    post = posterior(alg.deterministic(f), mu)
    for a in s.atoms:
        assert post.row(f.table[a]) == dirac(s, a)


def test_uninformative_likelihood():
    rng = random.Random(1)
    om, x = fresh_space(rng, 3), fresh_space(rng, 3)
    mu = random_probability(rng, om)
    nu = random_probability(rng, x)
    post = posterior(alg.const_kernel(om, nu), mu)
    for w, row in zip(nu.weights, post.rows):
        if not w.is_zero():
            assert row == mu


def test_null_evidence_rows_are_uniform():
    om, x, kappa, mu = coin_setup()
    # kill the t column entirely
    sure = Kernel(
        om, x, [Measure(x, [ONE, ZERO]), Measure(x, [ONE, ZERO])]
    )
    post = posterior(sure, mu)
    assert post.row("t") == uniform(om)


def test_defining_swap_identity_randomized():
    rng = random.Random(2)
    for _ in range(40):
        om, x = fresh_space(rng, 4), fresh_space(rng, 4)
        kappa = random_markov_kernel(rng, om, x, zero_frac=0.25)
        mu = random_probability(rng, om, zero_frac=0.25)
        post = posterior(kappa, mu)
        evidence = alg.comp_measure(kappa, mu)
        joint = alg.comp_prod_measure(mu, kappa)
        swapped = alg.comp_measure(alg.swap_kernel(om, x), joint)
        assert alg.comp_prod_measure(evidence, post) == swapped
        assert post.is_markov()


def test_bayes_formula_holds_and_reports():
    om, x, kappa, mu = coin_setup()
    report = bayes_check(kappa, mu)
    assert report.holds
    assert (("h", "r")) in report.checked
    rng = random.Random(3)
    for _ in range(30):
        a, b = fresh_space(rng, 4), fresh_space(rng, 4)
        kap = random_markov_kernel(rng, a, b, zero_frac=0.3)
        prior = random_probability(rng, a, zero_frac=0.3)
        assert bayes_check(kap, prior).holds


def test_zero_evidence_atoms_excluded_from_checks():
    om, x, kappa, mu = coin_setup()
    sure = Kernel(om, x, [Measure(x, [ONE, ZERO]), Measure(x, [ONE, ZERO])])
    report = bayes_check(sure, mu)
    assert report.holds
    assert all(y == "h" for (y, _) in report.checked)


def test_involution_on_positive_atoms():
    rng = random.Random(4)
    for _ in range(30):
        om, x = fresh_space(rng, 4), fresh_space(rng, 4)
        kappa = random_markov_kernel(rng, om, x, zero_frac=0.25)
        mu = random_probability(rng, om, zero_frac=0.25)
        post = posterior(kappa, mu)
        evidence = alg.comp_measure(kappa, mu)
        back = posterior(post, evidence)
        for wi, omega in enumerate(om.atoms):
            # on positive-mass atoms the evidence dominates the row, so the
            # double inversion restores it exactly
            if not mu.weights[wi].is_zero():
                assert back.row(omega) == kappa.rows[wi]


def test_posterior_space_mismatch():
    om, x, kappa, mu = coin_setup()
    with pytest.raises(SpaceMismatch):
        posterior(kappa, uniform(x))
