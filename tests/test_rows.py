"""Integer rows over one denominator, against the Scalar routes they replaced.

Every Measure holds `nums / den` in canonical form.  The row arithmetic
(compose and its gather/scatter, the paired rows of parallel, prod and
comp_prod, totals and sampler thresholds) runs on those integers, and so does
every reader of a row (the float analytics, the Bayes check, the
disintegration laws, conditioning, means and bounds); `weights` is only the
Scalar view handed to callers.  Here each is compared with the Scalar route
kept in genlib, on random rows of every kind: empty and one-atom spaces, zero,
Dirac and non-probability rows, weights whose denominators are pairwise
coprime and up to 10**30, and weights of 1/10**400.
"""

import random
from fractions import Fraction
from itertools import repeat
from math import gcd
from pathlib import Path

import pytest

import genlib
from genlib import compose_oracle, fresh_space, random_measure, random_probability, random_rv
from kernelalg import algebra as alg
from kernelalg import bayes, cli, laws
from kernelalg.analytics import (
    PlainMeasureScope,
    _log_mgf,
    certify_bounded_range,
    certify_subgaussian,
    cond_entropy,
    cond_kl,
    entropy,
    hoeffding_check,
    kernel_entropy,
    kl_div,
    mgf,
    renyi_div,
)
from kernelalg.bayes import bayes_check, posterior
from kernelalg.conditioning import (
    cond_distrib,
    cond_exp,
    cond_exp_kernel,
    cond_indep_fun,
    cond_indep_iff_cond_distrib,
    indep_fun,
)
from kernelalg.disintegration import (
    DensityTable,
    absolutely_continuous,
    cond_kernel,
    rn_deriv,
    singular_part,
    with_density,
)
from kernelalg.document import parse_document
from kernelalg.errors import KernelAlgError
from kernelalg.jsonio import dumps
from kernelalg.measures import Kernel, Measure, dirac, uniform, zero_measure
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.sequential import _thresholds
from kernelalg.spaces import UNIT, Base, FiniteSpace, Product
from kernelalg.variables import PartitionSigma, RealRV

ROOT = Path(__file__).resolve().parent.parent

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def coprime_row(rng, space) -> Measure:
    """Weights over powers of distinct primes, each power at most 10**30."""
    primes = list(_PRIMES)
    rng.shuffle(primes)
    weights = []
    for i in range(space.size):
        p = primes[i % len(primes)]
        k = 1
        while p ** (k + 1) <= 10**30 and rng.random() < 0.95:
            k += 1
        weights.append(ZERO if rng.random() < 0.3 else Scalar(rng.randint(1, 2 * p**k), p**k))
    return Measure(space, weights)


def random_row(rng, space) -> Measure:
    if space.size == 0:
        return zero_measure(space)
    kind = rng.choice(("probability", "finite", "zero", "dirac", "coprime"))
    if kind == "probability":
        return random_probability(rng, space, max_den=48, zero_frac=0.3)
    if kind == "finite":
        return random_measure(rng, space, max_den=48, zero_frac=0.3)
    if kind == "zero":
        return zero_measure(space)
    if kind == "dirac":
        return dirac(space, rng.choice(space.atoms))
    return coprime_row(rng, space)


def random_space(rng):
    kind = rng.random()
    if kind < 0.1:
        return UNIT
    if kind < 0.2:
        return Base(FiniteSpace(f"E{rng.randrange(10**6)}", []))
    if kind < 0.3:
        return Product(fresh_space(rng, 2), fresh_space(rng, 3, min_atoms=0))
    return fresh_space(rng, 5, min_atoms=0)


def operand(rng, dom, cod) -> Kernel:
    """A dense kernel of random rows, or a map kernel when one exists."""
    if rng.random() < 0.35 and (cod.size > 0 or dom.size == 0):
        return alg.deterministic(random_rv(rng, dom, cod))
    return Kernel(dom, cod, [random_row(rng, cod) for _ in range(dom.size)])


def assert_canonical(m: Measure):
    assert type(m.nums) is tuple and type(m.den) is int
    assert all(type(n) is int and n >= 0 for n in m.nums)
    assert m.den >= 1 and gcd(m.den, *m.nums) == 1
    if not any(m.nums):
        assert m.den == 1


def assert_same_row(got: Measure, want: Measure):
    assert_canonical(got)
    assert got.weights == want.weights
    assert got == want and hash(got) == hash(want)
    assert _thresholds(got) == genlib.scalar_thresholds(want)
    assert got.total() == genlib.scalar_total(want)
    assert got.is_probability() == (genlib.scalar_total(want) == ONE)


def assert_same_kernel(got: Kernel, want: Kernel):
    assert got.domain == want.domain and got.codomain == want.codomain
    assert got == want and hash(got) == hash(want)
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert_same_row(g, w)
    assert got.is_markov() == all(genlib.scalar_total(r) == ONE for r in want.rows)


def test_integer_rows_match_scalar_routes():
    rng = random.Random(14)
    for _ in range(250):
        x, y, z = (random_space(rng) for _ in range(3))
        kappa, eta = operand(rng, x, y), operand(rng, y, z)

        composed = alg.compose(eta, kappa)
        assert_same_kernel(composed, genlib.scalar_compose(eta, kappa))
        assert [[w.as_fraction() for w in r.weights] for r in composed.rows] == \
            compose_oracle(eta, kappa)

        mu = random_row(rng, y)
        f = alg.deterministic(random_rv(rng, y, z)) if z.size or not y.size else None
        if f is not None:
            assert_same_row(alg._scatter(f, mu), genlib.scalar_scatter(f, mu))
        nu = random_row(rng, x)
        assert_same_row(alg.comp_measure(kappa, nu), genlib.scalar_compose(
            kappa, alg.measure_as_kernel(nu)).rows[0])

        other = operand(rng, z, x)
        cod = Product(y, x)
        assert_same_kernel(alg.parallel(kappa, other), Kernel(
            Product(x, z), cod,
            [genlib.scalar_pair_row(cod, ra, repeat(rb)) for ra in kappa.rows for rb in other.rows],
        ))
        twin = operand(rng, x, z)
        cod = Product(y, z)
        assert_same_kernel(alg.prod(kappa, twin), Kernel(
            x, cod, [genlib.scalar_pair_row(cod, ra, repeat(rb))
                     for ra, rb in zip(kappa.rows, twin.rows)]
        ))
        second = operand(rng, Product(x, y), z)
        rows = second.rows
        assert_same_kernel(alg.comp_prod(kappa, second), Kernel(
            x, cod, [genlib.scalar_pair_row(cod, ra, rows[i * y.size:(i + 1) * y.size])
                     for i, ra in enumerate(kappa.rows)]
        ))
        assert_same_row(alg.measure_product(nu, mu), genlib.scalar_pair_row(
            Product(x, y), nu, repeat(mu)))
        joint = genlib.scalar_pair_row(Product(x, y), nu, kappa.rows)
        assert_same_row(alg.comp_prod_measure(nu, kappa), joint)


def test_paired_rows_need_their_gcd():
    # neither factor is a probability row, and their product shares a factor 2
    s, t = Base(FiniteSpace("S", ["a", "b"])), Base(FiniteSpace("T", ["c", "d"]))
    a = Measure(s, [Scalar(1, 2), Scalar(1, 2)])
    b = Measure(t, [Scalar(2, 3), Scalar(4, 3)])
    assert (a.nums, a.den, b.nums, b.den) == ((1, 1), 2, (2, 4), 3)
    pair = alg.measure_product(a, b)
    assert (pair.nums, pair.den) == ((1, 2, 1, 2), 3)


def test_every_constructor_is_canonical():
    rng = random.Random(7)
    s = Base(FiniteSpace("S", ["a", "b", "c"]))
    empty = Base(FiniteSpace("E", []))
    built = [
        Measure(s, [Scalar(2, 4), Fraction(1, 4), 0]),
        Measure(s, [0, 0, 0]),
        Measure(s, [2, 4, 6]),
        Measure(empty, []),
        Measure(UNIT, [ONE]),
        Measure.from_dict(s, {"b": Scalar(3, 9)}),
        dirac(s, "c"),
        uniform(s),
        zero_measure(s),
        zero_measure(empty),
        Measure(s, [Scalar(2, 6), Scalar(4, 6), ZERO]).normalize(),
        Measure(s, [Scalar(1, 6), Scalar(1, 3), Scalar(1, 2)]).restrict(["a", "b"]),
        Measure(s, [Scalar(1, 6), ZERO, ZERO]).add(Measure(s, [Scalar(1, 3), ZERO, ZERO])),
        Measure(s, [Scalar(1, 2), ZERO, ZERO]).restrict([]),
    ]
    built += alg.swap_kernel(s, s).rows + alg.discard_kernel(s).rows
    sq = Product(s, s)
    k = Kernel(s, sq, [random_probability(rng, sq, zero_frac=0.3) for _ in s.atoms])
    k2 = Kernel(s, s, [random_measure(rng, s, zero_frac=0.3) for _ in s.atoms])
    mu = random_probability(rng, s)
    built += cond_kernel(k).rows
    built += singular_part(k2, k2).rows + singular_part(k2, alg.zero_kernel(s, s)).rows
    density = DensityTable(Product(s, s), [Scalar(i % 3, 4) for i in range(9)])
    built += with_density(k2, density).rows
    built += cond_exp_kernel(mu, PartitionSigma(s, [["a", "b"], ["c"]])).rows
    built += posterior(alg.marginal_fst(k), mu).rows
    built += alg.compose(k2, k2).rows + alg.add_kernels(k2, k2).rows
    for m in built:
        assert_canonical(m)
        assert Measure(m.space, m.weights) == m


def probability_row(rng, space) -> Measure:
    """A random_row normalized (a Dirac row if it is zero), one in five with a
    weight of 1/10**400 put in first."""
    row = random_row(rng, space)
    if rng.random() < 0.2:
        weights = list(row.weights)
        weights[rng.randrange(space.size)] = Scalar(1, 10**400)
        row = Measure(space, weights)
    if not any(row.nums):
        return dirac(space, rng.choice(space.atoms))
    return row.normalize()


def random_real_rv(rng, space) -> RealRV:
    return RealRV(space, [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in space.atoms])


def test_row_readers_match_scalar_views():
    rng = random.Random(15)
    for _ in range(150):
        s, c = fresh_space(rng, 5), fresh_space(rng, 4)
        mu = probability_row(rng, s)
        nu = mu if rng.random() < 0.1 else probability_row(rng, s)
        m = random_row(rng, s)

        assert entropy(mu) == genlib.scalar_entropy(mu)
        assert kl_div(mu, nu) == genlib.scalar_kl_div(mu, nu)
        for alpha in (Fraction(1, 2), Fraction(rng.randint(1, 99), 100), 1 - Fraction(1, 10**6)):
            assert renyi_div(alpha, mu, nu) == genlib.scalar_renyi_div(alpha, mu, nu)

        x, y, z = (random_rv(rng, s, fresh_space(rng, 3)) for _ in range(3))
        assert cond_entropy(x, y, mu) == genlib.scalar_cond_entropy(x, y, mu)
        _, rhs = cond_indep_iff_cond_distrib(x, y, z, mu)
        assert rhs == genlib.scalar_cond_indep_rhs(x, y, z, mu)
        sigma = PartitionSigma.generated_by(x)
        assert cond_exp_kernel(m, sigma) == genlib.scalar_cond_exp_kernel(m, sigma)

        f = random_real_rv(rng, s)
        assert f.mean(m) == genlib.scalar_mean(f, m)
        for t in (Fraction(rng.randint(-40, 40), rng.randint(1, 8)), rng.randint(-10**4, 10**4)):
            assert _log_mgf(f, mu, Fraction(t)) == genlib.scalar_log_mgf(f, mu, Fraction(t))
        centred = RealRV(s, [v - f.mean(mu) for v in f.values])
        sigma_sq = certify_bounded_range(centred, PlainMeasureScope(mu)).constant or 1
        n, t = rng.randint(1, 3), Fraction(rng.randint(1, 60), rng.randint(1, 6))
        assert hoeffding_check(centred, mu, sigma_sq, n, t).exact_tail == \
            genlib.scalar_hoeffding_tail(centred, mu, n, t)

        finite = Kernel(s, c, [random_row(rng, c) for _ in s.atoms])
        assert finite.finite_bound() == genlib.scalar_finite_bound(finite)
        markov = Kernel(s, c, [probability_row(rng, c) for _ in s.atoms])
        for kappa in (markov, finite):
            assert bayes_check(kappa, mu) == genlib.scalar_bayes_check(kappa, mu)


def test_failed_verdicts_match_scalar_views(monkeypatch):
    """With a wrong posterior or a foreign singular part, the Bayes check and the
    singular-part laws fail where the Scalar routes do."""
    rng = random.Random(16)
    failed = 0
    for _ in range(100):
        s, c = fresh_space(rng, 4), fresh_space(rng, 4)
        mu = probability_row(rng, s)
        kappa = Kernel(s, c, [probability_row(rng, c) for _ in s.atoms])
        wrong = Kernel(c, s, [probability_row(rng, s) for _ in c.atoms])
        ka, kb, singular = (Kernel(s, c, [random_row(rng, c) for _ in s.atoms]) for _ in range(3))
        with monkeypatch.context() as patch:
            patch.setattr(bayes, "posterior", lambda k, m: wrong)
            report = bayes_check(kappa, mu)
            assert report == genlib.scalar_bayes_check(kappa, mu)
            failed += not report.holds
            patch.setattr(laws, "singular_part", lambda a, b: singular)
            got = {r.law: r.ok for r in laws.disintegration_laws({"a": ka, "b": kb})
                   if r.subject == "da/db"}
        disjoint, is_zero = genlib.scalar_singular_verdicts(singular, kb)
        assert got["rn-singular-disjoint"] == disjoint
        assert got["rn-ac-iff-no-singular"] == (absolutely_continuous(ka, kb) == is_zero)
    assert failed > 50


def density_space(rng):
    """Unit, empty, a base space of 1-5 atoms or a nested product."""
    kind = rng.random()
    if kind < 0.1:
        return UNIT
    if kind < 0.2:
        return Base(FiniteSpace(f"E{rng.randrange(10**6)}", []))
    if kind < 0.4:
        return genlib.random_bracketing(rng, genlib.random_leaves(rng, rng.randint(2, 3), 2))
    return fresh_space(rng, 5)


def test_densities_and_writers_match_the_scalar_routes(capsys):
    """rn_deriv, with_density and both writers against their per-entry routes."""
    rng = random.Random(22)
    for _ in range(200):
        x, y = density_space(rng), density_space(rng)
        eta = operand(rng, x, y)
        kappa = eta if rng.random() < 0.1 else operand(rng, x, y)
        density = rn_deriv(kappa, eta)
        want = genlib.scalar_rn_deriv(kappa, eta)
        assert_canonical(density)
        assert type(density) is DensityTable and density.values == want.values
        assert density == want and hash(density) == hash(want)
        f = DensityTable(Product(x, y), random_row(rng, Product(x, y)).weights)
        for g in (density, f):
            assert_same_kernel(with_density(eta, g), genlib.scalar_with_density(eta, g))
        for value in (kappa, eta, random_row(rng, y), density, f):
            cli._print_value(value, False)
            assert capsys.readouterr().out == genlib.render_text(value)
            blob = genlib.tree_dumps(genlib.render_value(value))
            assert dumps(value) == blob
            cli._print_value(value, True)
            assert capsys.readouterr().out == blob + "\n"


def test_hoeffding_law_matches_the_fraction_convolution():
    """The integer law's exact tail against the Fraction-dict convolution, n <= 8."""
    rng = random.Random(23)
    for i in range(80):
        s = fresh_space(rng, 5)
        mu = random_probability(rng, s, max_den=48, zero_frac=0.3)
        if i % 10 == 0:
            values = [Fraction(rng.randint(-9, 9), 4)] * s.size
        else:
            values = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in s.atoms]
        # zero-weight atoms hold values of denominators no weighted value has
        values = [v if n else Fraction(rng.randint(-10**6, 10**6), 10**9 + 7)
                  for v, n in zip(values, mu.nums)]
        f = RealRV(s, values)
        centred = RealRV(s, [v - f.mean(mu) for v in values])
        sigma_sq = certify_bounded_range(centred, PlainMeasureScope(mu)).constant or 1
        for n in range(1, 9):
            t = Fraction(rng.randint(1, 40), rng.randint(1, 6))
            assert hoeffding_check(centred, mu, sigma_sq, n, t).exact_tail == \
                genlib.scalar_hoeffding_tail(centred, mu, n, t)


_ARITHMETIC = (
    "__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


def _attempt(fn, *args):
    try:
        return fn(*args)
    except KernelAlgError as exc:
        return type(exc).__name__, str(exc)


def _readings(doc) -> list:
    """Every law, analytics value, Bayes check, conditioning result, mean and
    bound the document's declarations admit."""
    out = [laws.run_laws("all", doc.kernels, doc.measures)]
    out += [k.finite_bound() for k in doc.kernels.values()]
    for mu in doc.measures.values():
        out.append(_attempt(entropy, mu))
        for nu in doc.measures.values():
            if nu.space == mu.space:
                out.append(_attempt(kl_div, mu, nu))
                for alpha in (Fraction(1, 2), 1 - Fraction(1, 10**6)):
                    out.append(_attempt(renyi_div, alpha, mu, nu))
        for k in doc.kernels.values():
            if k.domain == mu.space:
                out.append(_attempt(bayes_check, k, mu))
                out.append(_attempt(kernel_entropy, k, mu))
                out.append(_attempt(cond_kl, k, k, mu))
        rvs = [x for x in doc.rvs.values() if x.domain == mu.space]
        sigmas = [p for p in doc.partitions.values() if p.space == mu.space]
        sigmas += [PartitionSigma.generated_by(x) for x in rvs]
        for x in rvs:
            for y in rvs:
                out.append(_attempt(cond_entropy, x, y, mu))
                out.append(_attempt(indep_fun, x, y, mu))
                out.append(_attempt(cond_distrib, y, x, mu))
                out += [_attempt(cond_indep_iff_cond_distrib, x, y, z, mu) for z in rvs]
                out += [_attempt(cond_indep_fun, x, y, sigma, mu) for sigma in sigmas]
        for sigma in sigmas:
            out.append(_attempt(cond_exp_kernel, mu, sigma))
        for f in doc.realrvs.values():
            if f.domain == mu.space:
                out.append(f.mean(mu))
                out += [_attempt(mgf, f, mu, t) for t in (-3, Fraction(1, 2), 2)]
                out.append(_attempt(certify_subgaussian, f, PlainMeasureScope(mu)))
                out.append(_attempt(hoeffding_check, f, mu, 1, 3, 1))
                out += [_attempt(cond_exp, f, mu, sigma) for sigma in sigmas]
    return out


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "tests" / "data").glob("*.kd")) + sorted((ROOT / "docs").glob("*.kd")),
    ids=lambda p: p.name,
)
def test_row_readers_need_no_scalar_arithmetic(monkeypatch, path):
    """Scalar is the view handed to callers: with its arithmetic and order
    raising, every reader of a document's rows reads the same."""
    want = _readings(parse_document(path.read_text()))

    def refuse(*args):
        raise AssertionError("Scalar arithmetic inside the library")

    with monkeypatch.context() as patch:
        for name in _ARITHMETIC:
            patch.setattr(Scalar, name, refuse)
        got = _readings(parse_document(path.read_text()))
    assert got == want
