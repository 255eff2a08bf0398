import random

import pytest

from genlib import fresh_space, random_finite_kernel, random_markov_kernel, subsets
from kernelalg import algebra as alg
from kernelalg.disintegration import (
    DensityTable,
    RNDecomposition,
    absolutely_continuous,
    cond_kernel,
    cond_kernel_measure,
    is_cond_kernel,
    rn_decomposition,
    rn_deriv,
    singular_part,
    with_density,
)
from kernelalg.errors import DimensionMismatch, EmptyCodomainZ, SpaceMismatch
from kernelalg.measures import Kernel, Measure, uniform
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.spaces import Base, FiniteSpace, Product


def ab01():
    a = Base(FiniteSpace("A", ["a", "b"]))
    b = Base(FiniteSpace("B", ["0", "1"]))
    return a, b


def quarter_joint():
    a, b = ab01()
    rho = Measure(
        Product(a, b), [Scalar(1, 4), Scalar(1, 4), Scalar(1, 2), ZERO]
    )
    return rho


def test_cond_kernel_measure_ratios():
    rho = quarter_joint()
    ck = cond_kernel_measure(rho)
    assert ck.row("a").weights == (Scalar(1, 2), Scalar(1, 2))
    assert ck.row("b").weights == (ONE, ZERO)


def test_cond_kernel_per_atom_ratios():
    rho = quarter_joint()
    k = alg.measure_as_kernel(rho)
    ck = cond_kernel(k)
    assert ck.row(("()", "a")).weights == (Scalar(1, 2), Scalar(1, 2))
    assert ck.row(("()", "b")).weights == (ONE, ZERO)
    assert ck.is_markov()
    assert is_cond_kernel(k, ck)


def test_product_joint_gives_constant_conditional():
    rng = random.Random(0)
    a, b = ab01()
    from genlib import random_probability

    mu = random_probability(rng, a)
    nu = random_probability(rng, b)
    rho = alg.measure_product(mu, nu)
    ck = cond_kernel_measure(rho)
    for w, row in zip(mu.weights, ck.rows):
        if not w.is_zero():
            assert row == nu


def test_independent_coordinates_ignore_y():
    rng = random.Random(1)
    x, y, z = (fresh_space(rng, 3) for _ in range(3))
    from genlib import random_probability

    kappa = Kernel(
        x,
        Product(y, z),
        [
            alg.measure_product(random_probability(rng, y), random_probability(rng, z))
            for _ in x.atoms
        ],
    )
    ck = cond_kernel(kappa)
    for x_atom in x.atoms:
        rows = [ck.row((x_atom, y_atom)) for y_atom in y.atoms]
        fst = alg.marginal_fst(kappa).row(x_atom)
        positive = [
            r for w, r in zip(fst.weights, rows) if not w.is_zero()
        ]
        assert all(r == positive[0] for r in positive)


def test_null_atoms_get_uniform_markov_rows():
    a, b = ab01()
    rho = quarter_joint()
    k = alg.measure_as_kernel(rho)
    # kill all mass at a: the (a,·) fiber becomes null
    dead = Measure(Product(a, b), [ZERO, ZERO, Scalar(1, 2), Scalar(1, 2)])
    ck = cond_kernel(alg.measure_as_kernel(dead))
    assert ck.row(("()", "a")) == uniform(b)
    assert is_cond_kernel(alg.measure_as_kernel(dead), ck)


def test_is_cond_kernel_detects_perturbation():
    rho = quarter_joint()
    k = alg.measure_as_kernel(rho)
    ck = cond_kernel(k)
    # perturb on a positive-mass atom
    a, b = ab01()
    bad_rows = list(ck.rows)
    idx = ck.domain.index_of(("()", "a"))
    bad_rows[idx] = Measure(b, [Scalar(1, 4), Scalar(3, 4)])
    bad = Kernel(ck.domain, ck.codomain, bad_rows)
    assert not is_cond_kernel(k, bad)


def test_modification_on_null_atoms_preserves_disintegration():
    a, b = ab01()
    dead = Measure(Product(a, b), [ZERO, ZERO, Scalar(1, 2), Scalar(1, 2)])
    k = alg.measure_as_kernel(dead)
    ck = cond_kernel(k)
    rows = list(ck.rows)
    idx = ck.domain.index_of(("()", "a"))  # null atom
    rows[idx] = Measure(b, [ONE, ZERO])
    modified = Kernel(ck.domain, ck.codomain, rows)
    assert is_cond_kernel(k, modified)


def test_ae_uniqueness_on_positive_atoms():
    rng = random.Random(2)
    for _ in range(20):
        x = fresh_space(rng, 3)
        y = fresh_space(rng, 3)
        z = fresh_space(rng, 3)
        kappa = random_finite_kernel(rng, x, Product(y, z), zero_frac=0.3)
        ck = cond_kernel(kappa)
        fst = alg.marginal_fst(kappa)
        # second disintegration: uniform rows replaced by a Dirac default
        rows = []
        for (x_atom, y_atom) in ck.domain.atoms:
            if fst.weight(x_atom, y_atom).is_zero() and z.size > 0:
                rows.append(Measure(z, [ONE] + [ZERO] * (z.size - 1)))
            else:
                rows.append(ck.row((x_atom, y_atom)))
        other = Kernel(ck.domain, z, rows)
        assert is_cond_kernel(kappa, other)
        for (x_atom, y_atom) in ck.domain.atoms:
            if not fst.weight(x_atom, y_atom).is_zero():
                assert ck.row((x_atom, y_atom)) == other.row((x_atom, y_atom))


def test_disintegration_identity_randomized():
    rng = random.Random(3)
    for _ in range(50):
        x, y, z = (fresh_space(rng, 4) for _ in range(3))
        kappa = random_finite_kernel(rng, x, Product(y, z), zero_frac=0.35)
        ck = cond_kernel(kappa)
        assert ck.is_markov()
        assert is_cond_kernel(kappa, ck)


def test_empty_z_rejected():
    a, _ = ab01()
    empty = Base(FiniteSpace("E", []))
    k = alg.zero_kernel(a, Product(a, empty))
    with pytest.raises(EmptyCodomainZ):
        cond_kernel(k)


def test_with_density_identities():
    rng = random.Random(4)
    x, y = fresh_space(rng, 3), fresh_space(rng, 3)
    eta = random_markov_kernel(rng, x, y)
    table_space = Product(x, y)
    ones = DensityTable.constant(table_space, 1)
    assert with_density(eta, ones) == eta
    zeros = DensityTable.constant(table_space, 0)
    assert with_density(eta, zeros) == alg.zero_kernel(x, y)


def test_a_density_is_a_measure_that_never_equals_one():
    a, b = ab01()
    ab = Product(a, b)
    values = [Scalar(3, 2), ZERO, 2, Scalar(1, 6)]
    density, measure = DensityTable(ab, values), Measure(ab, values)
    assert isinstance(density, Measure) and density.values == measure.weights
    assert (density.nums, density.den) == (measure.nums, measure.den) == ((9, 0, 12, 1), 6)
    assert density != measure and measure != density
    assert not density == measure and not measure == density
    # equal densities are equal and hash equal, so they can be set members
    twin = DensityTable.from_dict(ab, {("a", "0"): Scalar(3, 2), ("b", "0"): 2, ("b", "1"): Scalar(1, 6)})
    assert twin == density and hash(twin) == hash(density) and len({twin, density}) == 1
    assert DensityTable(ab, [1, 0, 2, Scalar(1, 6)]) != density
    with pytest.raises(DimensionMismatch, match="has 4 atoms, got 3 weights"):
        DensityTable(ab, values[:3])
    # Measure equality is unchanged
    assert Measure(ab, values) == measure and hash(Measure(ab, values)) == hash(measure)
    assert Measure(ab, [1, 0, 2, Scalar(1, 6)]) != measure
    assert repr(density) == "DensityTable((A x B), 4 values)"


def test_with_density_atomwise():
    x = Base(FiniteSpace("X", ["x"]))
    y = Base(FiniteSpace("Y", ["y1", "y2"]))
    eta = Kernel(x, y, [Measure(y, [Scalar(1, 4), Scalar(1, 4)])])
    f = DensityTable(Product(x, y), [Scalar(2), Scalar(1)])
    out = with_density(eta, f)
    assert out.row("x").weights == (Scalar(1, 2), Scalar(1, 4))


def test_rn_deriv_case_split():
    x = Base(FiniteSpace("X", ["x"]))
    y = Base(FiniteSpace("Y", ["y1", "y2"]))
    kappa = Kernel(x, y, [Measure(y, [Scalar(1, 2), Scalar(1, 2)])])
    eta = Kernel(x, y, [Measure(y, [Scalar(1, 4), ZERO])])
    density = rn_deriv(kappa, eta)
    assert density.value(("x", "y1")) == Scalar(2)
    assert density.value(("x", "y2")).is_zero()
    singular = singular_part(kappa, eta)
    assert singular.row("x").weights == (ZERO, Scalar(1, 2))
    rebuilt = alg.add_kernels(with_density(eta, density), singular)
    assert rebuilt == kappa
    assert not absolutely_continuous(kappa, eta)


def test_rn_deriv_degenerate_cases():
    rng = random.Random(5)
    x, y = fresh_space(rng, 4), fresh_space(rng, 4)
    kappa = random_finite_kernel(rng, x, y)
    assert rn_deriv(kappa, kappa).values == tuple(
        ONE if not kappa.weight(a, b).is_zero() else ZERO
        for (a, b) in Product(x, y).atoms
    )
    assert singular_part(kappa, kappa) == alg.zero_kernel(x, y)
    assert absolutely_continuous(kappa, kappa)
    # fully singular pair: disjoint supports atom by atom
    half = Kernel(
        x,
        y,
        [
            Measure(y, [Scalar(1, 2)] + [ZERO] * (y.size - 1))
            for _ in x.atoms
        ],
    )
    other = Kernel(
        x,
        y,
        [
            Measure(y, [ZERO] + [Scalar(1, 3)] * (y.size - 1))
            for _ in x.atoms
        ],
    )
    assert rn_deriv(half, other).values == (ZERO,) * (x.size * y.size)
    assert singular_part(half, other) == half
    assert absolutely_continuous(alg.zero_kernel(x, y), other)


def test_rn_reconstruction_randomized():
    rng = random.Random(6)
    for _ in range(50):
        x, y = fresh_space(rng, 4), fresh_space(rng, 4)
        kappa = random_finite_kernel(rng, x, y, zero_frac=0.3)
        eta = random_finite_kernel(rng, x, y, zero_frac=0.3)
        density = rn_deriv(kappa, eta)
        singular = singular_part(kappa, eta)
        assert alg.add_kernels(with_density(eta, density), singular) == kappa
        for srow, erow in zip(singular.rows, eta.rows):
            for ws, we in zip(srow.weights, erow.weights):
                assert ws.is_zero() or we.is_zero()
        assert absolutely_continuous(kappa, eta) == all(
            w.is_zero() for row in singular.rows for w in row.weights
        )


def test_rn_decomposition_pairs_density_and_singular_part():
    rng = random.Random(8)
    for _ in range(20):
        x, y = fresh_space(rng, 3), fresh_space(rng, 3)
        kappa = random_finite_kernel(rng, x, y, zero_frac=0.3)
        eta = random_finite_kernel(rng, x, y, zero_frac=0.3)
        decomposition = rn_decomposition(kappa, eta)
        assert isinstance(decomposition, RNDecomposition)
        assert decomposition.density == rn_deriv(kappa, eta)
        assert decomposition.singular == singular_part(kappa, eta)
        # a record: equal fields make equal decompositions, with equal hashes
        again = rn_decomposition(kappa, eta)
        assert decomposition == again and hash(decomposition) == hash(again)
        rebuilt = alg.add_kernels(
            with_density(eta, decomposition.density), decomposition.singular
        )
        assert rebuilt == kappa


def test_dominated_case_integral_identity():
    # kappa <= eta atomwise: no singular part, and the density integrates
    # back to kappa over every atom set.
    rng = random.Random(7)
    for _ in range(20):
        x, y = fresh_space(rng, 3), fresh_space(rng, 3)
        eta = random_finite_kernel(rng, x, y, zero_frac=0.2)
        halver = DensityTable(
            Product(x, y),
            [Scalar(rng.randint(0, 4), 4) for _ in range(x.size * y.size)],
        )
        kappa = with_density(eta, halver)  # kappa <= eta atom by atom
        assert singular_part(kappa, eta) == alg.zero_kernel(x, y)
        density = rn_deriv(kappa, eta)
        for x_atom in x.atoms:
            erow = eta.row(x_atom)
            krow = kappa.row(x_atom)
            for block in subsets(y.atoms):
                integral = ZERO
                for y_atom in block:
                    integral = integral + density.value((x_atom, y_atom)) * erow.weight(y_atom)
                assert integral == krow.mass_of(block)


def test_shape_mismatch_rejected():
    rng = random.Random(8)
    x, y = fresh_space(rng, 3), fresh_space(rng, 3)
    kappa = random_finite_kernel(rng, x, y)
    eta = random_finite_kernel(rng, y, x)
    with pytest.raises(SpaceMismatch):
        rn_deriv(kappa, eta)
    with pytest.raises(SpaceMismatch):
        with_density(kappa, DensityTable.constant(Product(y, x), 1))
