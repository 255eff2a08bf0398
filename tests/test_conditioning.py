import random
from fractions import Fraction

import pytest

import genlib
from genlib import (
    fresh_space,
    random_probability,
    random_rv,
    rectangle_indep_oracle,
)
from kernelalg import algebra as alg
from kernelalg.analytics import TOLERANCE, cond_entropy, kernel_entropy
from kernelalg.conditioning import (
    cond_distrib,
    cond_exp,
    cond_exp_kernel,
    cond_indep_fun,
    cond_indep_iff_cond_distrib,
    indep_fun,
    kernel_indep_fun,
)
from kernelalg.errors import NotAProbabilityMeasure, SpaceMismatch
from kernelalg.measures import Measure, dirac, uniform, zero_measure
from kernelalg.scalar import ZERO, Scalar
from kernelalg.spaces import UNIT, Base, FiniteSpace, Product
from kernelalg.variables import PartitionSigma, RandomVariable, RealRV, pair_rv


def four_point():
    om = Base(FiniteSpace("Om", ["1", "2", "3", "4"]))
    par = Base(FiniteSpace("Par", ["odd", "even"]))
    mod = Base(FiniteSpace("Mod", ["0", "1", "2"]))
    x = RandomVariable(om, par, {"1": "odd", "2": "even", "3": "odd", "4": "even"})
    y = RandomVariable(om, mod, {"1": "1", "2": "2", "3": "0", "4": "1"})
    return om, x, y


def bits():
    b = Base(FiniteSpace("Bit", ["0", "1"]))
    sq = Product(b, b)
    fst = RandomVariable.from_function(sq, b, lambda a: a[0])
    snd = RandomVariable.from_function(sq, b, lambda a: a[1])
    return b, sq, fst, snd


# -- conditional distributions --------------------------------------------------


def test_cond_distrib_parity_example():
    om, x, y = four_point()
    cd = cond_distrib(y, x, uniform(om))
    assert cd.row("odd").weight("1") == Scalar(1, 2)
    assert cd.row("odd").weight("0") == Scalar(1, 2)
    assert cd.row("even").weight("2") == Scalar(1, 2)
    assert cd.row("even").weight("1") == Scalar(1, 2)


def test_cond_distrib_of_variable_given_itself():
    rng = random.Random(0)
    om = fresh_space(rng, 5)
    cod = fresh_space(rng, 4)
    x = random_rv(rng, om, cod)
    mu = random_probability(rng, om)
    cd = cond_distrib(x, x, mu)
    pushed = alg.pushforward(mu, x)
    for w, atom, row in zip(pushed.weights, cod.atoms, cd.rows):
        if not w.is_zero():
            assert row == dirac(cod, atom)


def test_cond_distrib_constant_conditioner():
    rng = random.Random(1)
    om = fresh_space(rng, 5)
    cod = fresh_space(rng, 4)
    point = Base(FiniteSpace("Pt", ["p"]))
    x = RandomVariable(om, point, {a: "p" for a in om.atoms})
    y = random_rv(rng, om, cod)
    mu = random_probability(rng, om)
    cd = cond_distrib(y, x, mu)
    assert cd.row("p") == alg.pushforward(mu, y)


def test_cond_distrib_disintegrates_the_joint():
    rng = random.Random(2)
    for _ in range(30):
        om = fresh_space(rng, 5)
        cx, cy = fresh_space(rng, 3), fresh_space(rng, 3)
        x, y = random_rv(rng, om, cx), random_rv(rng, om, cy)
        mu = random_probability(rng, om, zero_frac=0.3)
        joint = alg.pushforward(mu, pair_rv(x, y))
        rebuilt = alg.comp_prod_measure(
            alg.pushforward(mu, x), cond_distrib(y, x, mu)
        )
        assert rebuilt == joint


def test_cond_entropy_equals_kernel_entropy_of_cond_distrib():
    rng = random.Random(24)
    for _ in range(200):
        om = fresh_space(rng, 6)
        x = random_rv(rng, om, fresh_space(rng, 4))
        y = random_rv(rng, om, fresh_space(rng, 4))
        mu = random_probability(rng, om, max_den=48, zero_frac=0.3)
        via_kernel = kernel_entropy(cond_distrib(x, y, mu), alg.pushforward(mu, y))
        assert abs(cond_entropy(x, y, mu) - via_kernel) <= TOLERANCE


# -- conditional expectation ----------------------------------------------------


def test_cond_exp_kernel_trivial_partition():
    rng = random.Random(3)
    om = fresh_space(rng, 4)
    mu = random_probability(rng, om)
    k = cond_exp_kernel(mu, PartitionSigma.trivial(om))
    for row in k.rows:
        assert row == mu.normalize()


def test_cond_exp_kernel_discrete_partition():
    rng = random.Random(4)
    om = fresh_space(rng, 4)
    mu = random_probability(rng, om)
    k = cond_exp_kernel(mu, PartitionSigma.discrete(om))
    for w, atom, row in zip(mu.weights, om.atoms, k.rows):
        if not w.is_zero():
            assert row == dirac(om, atom)


def test_cond_exp_kernel_two_blocks():
    om = Base(FiniteSpace("Om", ["1", "2", "3", "4"]))
    sigma = PartitionSigma(om, [("1", "2"), ("3", "4")])
    k = cond_exp_kernel(uniform(om), sigma)
    assert k.row("1").weights == (Scalar(1, 2), Scalar(1, 2), ZERO, ZERO)
    # rows constant on blocks
    assert k.row("1") == k.row("2")
    assert k.row("3") == k.row("4")


def test_partition_block_of():
    om = Base(FiniteSpace("Om", ["1", "2", "3", "4"]))
    sigma = PartitionSigma(om, [("1", "2"), ("3", "4")])
    assert [sigma.block_of(a) for a in om.atoms] == [("1", "2")] * 2 + [("3", "4")] * 2
    with pytest.raises(SpaceMismatch, match="atom 5 not in partitioned space Om"):
        sigma.block_of("5")


def test_cond_exp_block_averages():
    om = Base(FiniteSpace("Om", ["1", "2", "3", "4"]))
    sigma = PartitionSigma(om, [("1", "2"), ("3", "4")])
    f = RealRV(om, [1, 2, 3, 4])
    values = cond_exp(f, uniform(om), sigma).values
    assert values == (Fraction(3, 2), Fraction(3, 2), Fraction(7, 2), Fraction(7, 2))


def test_cond_exp_trivial_and_discrete():
    rng = random.Random(5)
    om = fresh_space(rng, 5)
    mu = random_probability(rng, om)
    f = RealRV(om, [Fraction(rng.randint(-4, 4)) for _ in om.atoms])
    mean = f.mean(mu)
    const = cond_exp(f, mu, PartitionSigma.trivial(om))
    assert all(v == mean for v in const.values)
    same = cond_exp(f, mu, PartitionSigma.discrete(om))
    for w, a, b in zip(mu.weights, same.values, f.values):
        if not w.is_zero():
            assert a == b


def test_cond_exp_block_integral_identity():
    rng = random.Random(6)
    for _ in range(20):
        om = fresh_space(rng, 6)
        mu = random_probability(rng, om, zero_frac=0.2)
        atoms = list(om.atoms)
        rng.shuffle(atoms)
        cut = rng.randint(1, max(1, om.size - 1))
        blocks = [atoms[:cut], atoms[cut:]]
        blocks = [b for b in blocks if b]
        sigma = PartitionSigma(om, blocks)
        f = RealRV(om, [Fraction(rng.randint(-6, 6)) for _ in om.atoms])
        g = cond_exp(f, mu, sigma)
        for block in sigma.blocks:
            mass = mu.mass_of(block)
            if mass.is_zero():
                continue
            lhs = sum(
                (mu.weight(a).as_fraction() * g.value(a) for a in block),
                Fraction(0),
            )
            rhs = sum(
                (mu.weight(a).as_fraction() * f.value(a) for a in block),
                Fraction(0),
            )
            assert lhs == rhs


def test_cond_exp_tower():
    rng = random.Random(7)
    om = fresh_space(rng, 6)
    mu = random_probability(rng, om)
    sigma = PartitionSigma(om, [om.atoms[:2], om.atoms[2:]])
    f = RealRV(om, [Fraction(rng.randint(-5, 5)) for _ in om.atoms])
    trivial = PartitionSigma.trivial(om)
    inner = cond_exp(f, mu, sigma)
    assert cond_exp(inner, mu, trivial) == cond_exp(f, mu, trivial)


# -- independence ------------------------------------------------------------------


def test_product_measure_independence():
    b, sq, fst, snd = bits()
    assert indep_fun(fst, snd, uniform(sq))
    kappa = alg.const_kernel(UNIT, uniform(sq))
    assert kernel_indep_fun(fst, snd, kappa, dirac(UNIT, "()"))


def test_correlated_bits_fail():
    b, sq, fst, snd = bits()
    corr = Measure(sq, [Scalar(1, 2), ZERO, ZERO, Scalar(1, 2)])
    assert not indep_fun(fst, snd, corr)


def test_self_dependence_under_full_support_row():
    rng = random.Random(8)
    om = fresh_space(rng, 3, min_atoms=2)
    x = RandomVariable.identity(om)
    kappa = alg.const_kernel(UNIT, uniform(om))
    assert not kernel_indep_fun(x, x, kappa, dirac(UNIT, "()"))


def test_zero_base_measure_is_vacuous():
    rng = random.Random(9)
    om = fresh_space(rng, 3, min_atoms=2)
    x = RandomVariable.identity(om)
    kappa = alg.const_kernel(UNIT, uniform(om))
    assert kernel_indep_fun(x, x, kappa, zero_measure(UNIT))


def test_constants_are_independent_of_everything():
    rng = random.Random(10)
    om = fresh_space(rng, 5)
    point = Base(FiniteSpace("Pt", ["p"]))
    x = RandomVariable(om, point, {a: "p" for a in om.atoms})
    y = random_rv(rng, om, fresh_space(rng, 3))
    mu = random_probability(rng, om)
    assert indep_fun(x, y, mu)


def test_indep_requires_probability():
    b, sq, fst, snd = bits()
    with pytest.raises(NotAProbabilityMeasure):
        indep_fun(fst, snd, zero_measure(sq))


def test_symmetry():
    rng = random.Random(11)
    for _ in range(25):
        om = fresh_space(rng, 5)
        x = random_rv(rng, om, fresh_space(rng, 3))
        y = random_rv(rng, om, fresh_space(rng, 3))
        mu = random_probability(rng, om, zero_frac=0.2)
        assert indep_fun(x, y, mu) == indep_fun(y, x, mu)
        z = random_rv(rng, om, fresh_space(rng, 2))
        sigma = PartitionSigma.generated_by(z)
        assert cond_indep_fun(x, y, sigma, mu) == cond_indep_fun(y, x, sigma, mu)


def test_singletons_match_rectangle_oracle():
    rng = random.Random(12)
    agree = disagree = 0
    for _ in range(60):
        om = fresh_space(rng, 6)
        cx = fresh_space(rng, 3)
        cy = fresh_space(rng, 3)
        x, y = random_rv(rng, om, cx), random_rv(rng, om, cy)
        mu = random_probability(rng, om, zero_frac=0.3)
        fast = indep_fun(x, y, mu)
        slow = rectangle_indep_oracle(x, y, mu)
        assert fast == slow
        agree += fast
        disagree += not fast
    assert agree and disagree  # both outcomes exercised


def test_g_measurable_variable_is_conditionally_independent():
    rng = random.Random(13)
    for _ in range(20):
        om = fresh_space(rng, 6)
        zc = fresh_space(rng, 3)
        z = random_rv(rng, om, zc)
        sigma = PartitionSigma.generated_by(z)
        # x is a function of z, hence determined per block
        post = random_rv(rng, zc, fresh_space(rng, 3))
        x = RandomVariable(om, post.codomain, {a: post.table[z.table[a]] for a in om.atoms})
        y = random_rv(rng, om, fresh_space(rng, 3))
        mu = random_probability(rng, om, zero_frac=0.2)
        assert cond_indep_fun(x, y, sigma, mu)


def test_trivial_partition_reduces_to_plain_independence():
    rng = random.Random(14)
    for _ in range(30):
        om = fresh_space(rng, 6)
        x = random_rv(rng, om, fresh_space(rng, 3))
        y = random_rv(rng, om, fresh_space(rng, 3))
        mu = random_probability(rng, om, zero_frac=0.2)
        trivial = PartitionSigma.trivial(om)
        assert cond_indep_fun(x, y, trivial, mu) == indep_fun(x, y, mu)


def common_cause_measure():
    """Dependent x and y that factor insideевery z-block."""
    z = Base(FiniteSpace("Z", ["z0", "z1"]))
    xy = Product(Base(FiniteSpace("X", ["x0", "x1"])), Base(FiniteSpace("Y", ["y0", "y1"])))
    om = Product(z, xy)
    px = {"z0": Fraction(1, 4), "z1": Fraction(3, 4)}
    py = {"z0": Fraction(1, 2), "z1": Fraction(1, 8)}
    pz = Fraction(1, 2)
    weights = []
    for (zv, (xv, yv)) in om.atoms:
        wx = px[zv] if xv == "x1" else 1 - px[zv]
        wy = py[zv] if yv == "y1" else 1 - py[zv]
        weights.append(Scalar(pz * wx * wy))
    mu = Measure(om, weights)
    zrv = RandomVariable.from_function(om, z, lambda a: a[0])
    xrv = RandomVariable.from_function(om, xy.left, lambda a: a[1][0])
    yrv = RandomVariable.from_function(om, xy.right, lambda a: a[1][1])
    return om, mu, zrv, xrv, yrv


def test_common_cause_fixture():
    om, mu, zrv, xrv, yrv = common_cause_measure()
    assert om.size == 8
    assert mu.is_probability()
    assert not indep_fun(xrv, yrv, mu)
    assert cond_indep_fun(xrv, yrv, PartitionSigma.generated_by(zrv), mu)


def test_cond_indep_iff_cond_distrib_positive_fixture():
    om, mu, zrv, xrv, yrv = common_cause_measure()
    assert cond_indep_iff_cond_distrib(xrv, yrv, zrv, mu) == (True, True)


def test_cond_indep_iff_cond_distrib_identity_fixture():
    rng = random.Random(15)
    om = fresh_space(rng, 4)
    x = RandomVariable.identity(om)
    mu = random_probability(rng, om)
    assert cond_indep_iff_cond_distrib(x, x, x, mu) == (True, True)


def test_cond_indep_iff_cond_distrib_xor_fixture():
    # atoms are (y, noise) pairs; x = y xor noise with biased noise, so x
    # still depends on y when z reveals nothing
    b, sq, fst, snd = bits()
    x_rv = RandomVariable.from_function(
        sq, b, lambda a: "0" if a[0] == a[1] else "1"
    )
    point = Base(FiniteSpace("Pt", ["p"]))
    z = RandomVariable(sq, point, {a: "p" for a in sq.atoms})
    mu = Measure(
        sq,
        [Scalar(3, 8), Scalar(1, 8), Scalar(3, 8), Scalar(1, 8)],
    )
    assert cond_indep_iff_cond_distrib(x_rv, fst, z, mu) == (False, False)


def test_cond_indep_iff_sides_always_agree():
    rng = random.Random(16)
    for _ in range(50):
        om = fresh_space(rng, 6)
        x = random_rv(rng, om, fresh_space(rng, 3))
        y = random_rv(rng, om, fresh_space(rng, 3))
        z = random_rv(rng, om, fresh_space(rng, 3))
        mu = random_probability(rng, om, zero_frac=0.25)
        lhs, rhs = cond_indep_iff_cond_distrib(x, y, z, mu)
        assert lhs == rhs


def test_shape_mismatches():
    om, x, y = four_point()
    other = Base(FiniteSpace("Other", ["q"]))
    with pytest.raises(SpaceMismatch):
        cond_distrib(y, x, uniform(other))
    with pytest.raises(SpaceMismatch):
        cond_exp_kernel(uniform(other), PartitionSigma.trivial(om))
    with pytest.raises(SpaceMismatch):
        kernel_indep_fun(x, y, alg.const_kernel(UNIT, uniform(other)), dirac(UNIT, "()"))


def test_preimage_refuses_an_atom_outside_the_codomain():
    om, x, y = four_point()
    assert x.preimage(["odd"]) == ["1", "3"] and y.preimage([]) == []
    with pytest.raises(SpaceMismatch, match=r"^atom zzz does not belong to space Par$"):
        x.preimage(["zzz"])
    with pytest.raises(SpaceMismatch):
        y.preimage(["0", "odd"])


# -- index maps against the atom-table routes ---------------------------------------


def random_codomain(rng, dom):
    """A bracketing of bases, unit and empty bases; nonempty when dom is."""
    while True:
        cod = genlib.random_bracketing(rng, genlib.random_leaves(rng, rng.randint(1, 3)))
        if cod.size or not dom.size:
            return cod


def test_index_maps_match_their_atom_tables():
    rng = random.Random(17)
    verdicts = set()
    for i in range(150):
        om = genlib.random_bracketing(rng, genlib.random_leaves(rng, rng.randint(1, 3)))
        x, y, z = (random_rv(rng, om, random_codomain(rng, om)) for _ in range(3))
        pair = pair_rv(x, y)
        reference = genlib.table_pair_rv(x, y)
        assert pair == reference and pair.table == reference.table
        for rv in (x, pair):
            assert PartitionSigma.generated_by(rv).blocks == tuple(genlib.table_fibers(rv))
        if not om.size:
            continue
        mu = random_probability(rng, om, zero_frac=0.4)
        w = fresh_space(rng, 3)
        kappa = genlib.random_markov_kernel(rng, w, om, zero_frac=0.4)
        nu = genlib.random_measure(rng, w, zero_frac=0.3)
        sigma = PartitionSigma.generated_by(z)
        got = (
            indep_fun(x, y, mu),
            kernel_indep_fun(x, y, kappa, nu),
            cond_indep_fun(x, y, sigma, mu),
        )
        assert got == (
            genlib.table_row_factorizes(mu, x, y),
            genlib.table_kernel_indep(x, y, kappa, nu),
            genlib.table_kernel_indep(x, y, cond_exp_kernel(mu, sigma), mu),
        )
        verdicts.update(got)
        direct = genlib.table_cond_entropy_direct(x, y, mu)
        assert cond_entropy(x, y, mu).hex() == direct.hex()
    assert verdicts == {True, False}
