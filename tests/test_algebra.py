import random

import pytest

import genlib
from genlib import (
    compose_oracle,
    fresh_space,
    random_markov_kernel,
    random_probability,
    weather_kernel,
    weather_space,
)
from kernelalg import algebra as alg
from kernelalg.disintegration import measure_rn_deriv
from kernelalg.errors import KernelAlgError, NotAProductCodomain, SpaceMismatch
from kernelalg.exprlang import OPERATORS
from kernelalg.laws import algebra_laws, run_laws
from kernelalg.measures import Kernel, Measure, dirac, uniform
from kernelalg.scalar import ONE, ZERO, Scalar
from kernelalg.spaces import UNIT, UNIT_ATOM, Base, FiniteSpace, Product
from kernelalg.variables import RandomVariable, pair_rv


def comp_prod_triple(rng, max_atoms=4):
    """Random (kappa, eta, xi) shaped T->X, (T x X)->Y, (T x (X x Y))->Z."""
    t, x, y, z = (fresh_space(rng, max_atoms) for _ in range(4))
    kappa = random_markov_kernel(rng, t, x)
    eta = random_markov_kernel(rng, Product(t, x), y)
    xi = random_markov_kernel(rng, Product(t, Product(x, y)), z)
    return kappa, eta, xi


def comp_prod_assoc_holds(kappa, eta, xi) -> bool:
    """Associativity of the sequential pairing, with explicit rebracketing.

    ((kappa (x) eta) (x) xi) equals the assoc kernel composed with
    (kappa (x) (eta (x) xi')), where xi' consumes the other bracketing.
    """
    t, x = kappa.domain, kappa.codomain
    y, z = eta.codomain, xi.codomain
    left = alg.comp_prod(alg.comp_prod(kappa, eta), xi)
    xi_rebr = alg.compose(xi, alg.assoc_inv_kernel(t, x, y))
    right = alg.comp_prod(kappa, alg.comp_prod(eta, xi_rebr))
    return left == alg.compose(alg.assoc_kernel(x, y, z), right)


# -- worked examples ----------------------------------------------------------


def test_weather_two_step():
    k = weather_kernel()
    kk = alg.compose(k, k)
    # brute force over the intermediate atom: 4/5*4/5 + 1/5*2/5
    assert kk.weight("good", "good") == Scalar(18, 25)
    assert [[w.as_fraction() for w in row.weights] for row in kk.rows] == \
        compose_oracle(k, k)


def test_identity_laws():
    rng = random.Random(0)
    for _ in range(20):
        dom, cod = fresh_space(rng), fresh_space(rng)
        k = random_markov_kernel(rng, dom, cod)
        assert alg.compose(alg.identity_kernel(cod), k) == k
        assert alg.compose(k, alg.identity_kernel(dom)) == k


def test_discard_naturality_for_markov():
    rng = random.Random(1)
    for _ in range(20):
        dom, cod = fresh_space(rng), fresh_space(rng)
        k = random_markov_kernel(rng, dom, cod)
        assert alg.compose(alg.discard_kernel(cod), k) == alg.discard_kernel(dom)


def test_deterministic_kernels():
    w = weather_space()
    ident = alg.deterministic(RandomVariable.identity(w))
    assert ident.rows == (dirac(w, "good"), dirac(w, "bad"))
    const_g = alg.deterministic(
        RandomVariable(w, w, {"good": "good", "bad": "good"})
    )
    assert all(row == dirac(w, "good") for row in const_g.rows)
    p = Product(Base(FiniteSpace("A", ["a", "b"])), Base(FiniteSpace("B", ["0", "1"])))
    q = Product(p.right, p.left)
    swap_rv = RandomVariable(p, q, {(a, b): (b, a) for (a, b) in p.atoms})
    assert alg.deterministic(swap_rv) == alg.swap_kernel(p.left, p.right)


def test_structural_kernels():
    w = weather_space()
    copy = alg.copy_kernel(w)
    assert copy.row("good").weight(("good", "good")) == ONE
    assert copy.row("good").weight(("good", "bad")).is_zero()
    discard = alg.discard_kernel(w)
    assert all(row.weights == (ONE,) for row in discard.rows)
    x = Base(FiniteSpace("X", ["x"]))
    const = alg.const_kernel(x, uniform(w))
    assert const.row("x") == uniform(w)


def test_parallel_weights():
    k = weather_kernel()
    par = alg.parallel(k, k)
    assert par.weight(("good", "bad"), ("good", "good")) == Scalar(8, 25)
    ident = alg.identity_kernel(weather_space())
    ki = alg.parallel(k, ident)
    assert ki.weight(("good", "bad"), ("good", "bad")) == Scalar(4, 5)
    assert ki.weight(("good", "bad"), ("good", "good")).is_zero()
    assert par.is_markov()


def test_prod_weights_and_copy_route():
    k = weather_kernel()
    p = alg.prod(k, k)
    assert p.weight("good", ("good", "bad")) == Scalar(4, 25)
    assert p == alg.compose(alg.parallel(k, k), alg.copy_kernel(k.domain))
    assert p.is_markov()


def test_prod_unit_law_up_to_unitor():
    # pairing with the lifted discard is the kernel itself up to the unitor
    k = weather_kernel()
    lifted = alg.prod(k, alg.discard_kernel(k.domain))
    cod = lifted.codomain
    unitor = RandomVariable(cod, k.codomain, {(y, u): y for (y, u) in cod.atoms})
    assert alg.compose(alg.deterministic(unitor), lifted) == k


def test_comp_prod_with_dirac_second_stage():
    k = weather_kernel()
    w = k.domain
    eta = alg.deterministic(
        RandomVariable(Product(w, w), w, {(x, y): y for (x, y) in Product(w, w).atoms})
    )
    cp = alg.comp_prod(k, eta)
    assert cp.weight("good", ("good", "good")) == Scalar(4, 5)
    assert cp.weight("good", ("good", "bad")).is_zero()


def test_comp_prod_marginals():
    rng = random.Random(2)
    for _ in range(20):
        t, x, y = (fresh_space(rng, 4) for _ in range(3))
        kappa = random_markov_kernel(rng, t, x)
        eta = random_markov_kernel(rng, Product(t, x), y)
        cp = alg.comp_prod(kappa, eta)
        assert alg.marginal_fst(cp) == kappa  # eta rows sum to 1
        # snd marginal by the explicit double sum
        snd = alg.marginal_snd(cp)
        for ti, t_atom in enumerate(t.atoms):
            for zi, z_atom in enumerate(y.atoms):
                acc = ZERO
                for xi, x_atom in enumerate(x.atoms):
                    acc = acc + kappa.rows[ti].weights[xi] * eta.row(
                        (t_atom, x_atom)
                    ).weights[zi]
                assert snd.rows[ti].weights[zi] == acc
        assert alg.marginals(cp) == (alg.marginal_fst(cp), snd)


def test_comp_prod_two_routes_agree():
    rng = random.Random(3)
    for _ in range(15):
        t, x, y = (fresh_space(rng, 4) for _ in range(3))
        kappa = random_markov_kernel(rng, t, x)
        eta = random_markov_kernel(rng, Product(t, x), y)
        assert alg.comp_prod(kappa, eta) == alg.comp_prod_via_primitives(kappa, eta)


def test_composition_via_pairing_snd():
    rng = random.Random(4)
    for _ in range(15):
        x, y, z = (fresh_space(rng, 4) for _ in range(3))
        kappa = random_markov_kernel(rng, x, y)
        eta = random_markov_kernel(rng, y, z)
        lifted = alg.prod_mk_left(x, eta)
        assert alg.marginal_snd(alg.comp_prod(kappa, lifted)) == alg.compose(eta, kappa)


def test_associativity_random_triples():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c, d = (fresh_space(rng) for _ in range(4))
        k1 = random_markov_kernel(rng, a, b)
        k2 = random_markov_kernel(rng, b, c)
        k3 = random_markov_kernel(rng, c, d)
        assert alg.compose(k3, alg.compose(k2, k1)) == alg.compose(
            alg.compose(k3, k2), k1
        )


def test_law_catalog_associativity_matches_recomputed_composites():
    rng = random.Random(15)
    checked = 0
    for _ in range(40):
        spaces = [fresh_space(rng, 3) for _ in range(2)]
        kernels = {
            f"k{i}": genlib.random_finite_kernel(
                rng, rng.choice(spaces), rng.choice(spaces), zero_frac=0.3
            )
            for i in range(rng.randint(1, 4))
        }
        got = [r.line() for r in algebra_laws(kernels) if r.law == "associativity"]
        assert got == [r.line() for r in genlib.reference_associativity(kernels)]
        checked += len(got)
    assert checked > 100


def test_comp_prod_associativity_with_associators():
    rng = random.Random(6)
    for _ in range(15):
        assert comp_prod_assoc_holds(*comp_prod_triple(rng))


def test_copy_discard_coherence():
    rng = random.Random(7)
    for _ in range(10):
        s = fresh_space(rng)
        copy = alg.copy_kernel(s)
        fst = alg.deterministic(alg.fst_proj(s, s))
        assert alg.compose(fst, copy) == alg.identity_kernel(s)
        assert alg.compose(alg.swap_kernel(s, s), copy) == copy


def test_markov_and_finite_stability():
    rng = random.Random(8)
    for _ in range(15):
        a, b, c = (fresh_space(rng, 4) for _ in range(3))
        k1 = random_markov_kernel(rng, a, b)
        k2 = random_markov_kernel(rng, b, c)
        assert alg.compose(k2, k1).is_markov()
        assert alg.parallel(k1, k2).is_markov()
        k3 = random_markov_kernel(rng, a, c)
        assert alg.prod(k1, k3).is_markov()
        f1 = genlib.random_finite_kernel(rng, a, b)
        f2 = genlib.random_finite_kernel(rng, b, c)
        bound = alg.compose(f2, f1).finite_bound()
        assert bound <= f1.finite_bound() * f2.finite_bound() or bound.is_zero()


def test_copy_after_kernel_is_not_parallel_after_copy():
    # only deterministic kernels commute with copy
    k = weather_kernel()
    lhs = alg.compose(alg.parallel(k, k), alg.copy_kernel(k.domain))
    rhs = alg.compose(alg.copy_kernel(k.codomain), k)
    assert lhs != rhs


def test_measure_composition():
    k = weather_kernel()
    mu = uniform(k.domain)
    pushed = alg.comp_measure(k, mu)
    assert pushed.weight("good") == Scalar(3, 5)
    assert pushed.weight("bad") == Scalar(2, 5)


def test_measure_comp_prod_with_constant_kernel():
    w = weather_space()
    s = Base(FiniteSpace("S", ["x", "y", "z"]))
    rng = random.Random(9)
    mu = random_probability(rng, w)
    nu = random_probability(rng, s)
    joint = alg.comp_prod_measure(mu, alg.const_kernel(w, nu))
    assert joint == alg.measure_product(mu, nu)


def test_pushforward_identity():
    rng = random.Random(10)
    s = fresh_space(rng)
    mu = random_probability(rng, s)
    assert alg.pushforward(mu, RandomVariable.identity(s)) == mu


def test_add_kernels():
    w = weather_space()
    k = weather_kernel()
    zero = alg.zero_kernel(w, w)
    assert alg.add_kernels(k, zero) == k
    row = Measure(w, [Scalar(1, 4), ZERO])
    row2 = Measure(w, [Scalar(1, 2), ZERO])
    a = Kernel(w, w, [row, row])
    b = Kernel(w, w, [row2, row2])
    assert alg.add_kernels(a, b).weight("good", "good") == Scalar(3, 4)
    doubled = alg.add_kernels(k, k)
    assert not doubled.is_markov()
    assert doubled.finite_bound() == Scalar(2)


def test_space_mismatch_errors():
    w = weather_space()
    other = Base(FiniteSpace("O", ["u", "v", "w"]))
    k = weather_kernel()
    j = alg.const_kernel(other, uniform(other))
    with pytest.raises(SpaceMismatch):
        alg.compose(j, k)
    with pytest.raises(SpaceMismatch):
        alg.prod(k, j)
    with pytest.raises(SpaceMismatch):
        alg.comp_prod(k, j)
    with pytest.raises(NotAProductCodomain):
        alg.marginal_fst(k)
    with pytest.raises(SpaceMismatch):
        alg.comp_measure(k, uniform(other))


def test_rebracket_kernel():
    a, b, c = (Base(FiniteSpace(n, ["0", "1"])) for n in "ABC")
    src = Product(a, Product(b, c))
    dst = Product(Product(a, b), c)
    k = alg.rebracket_kernel(src, dst)
    assert k == alg.assoc_kernel(a, b, c)
    with pytest.raises(SpaceMismatch):
        alg.rebracket_kernel(src, Product(Product(b, a), c))


def test_measure_kernel_views():
    rng = random.Random(11)
    s = fresh_space(rng)
    mu = random_probability(rng, s)
    k = alg.measure_as_kernel(mu)
    assert k.domain == UNIT
    assert alg.kernel_as_measure(k) == mu


# -- deterministic kernels (index maps) against the dense route ---------------


def dense_twin(f: RandomVariable) -> Kernel:
    """deterministic(f) built the dense way, from explicit Dirac rows."""
    return Kernel(f.domain, f.codomain, [dirac(f.codomain, f(a)) for a in f.domain.atoms])


def fractions_of(k: Kernel) -> list:
    return [[w.as_fraction() for w in row.weights] for row in k.rows]


def test_compose_with_deterministic_matches_dense_oracle():
    rng = random.Random(40)
    for _ in range(40):
        w, x, y, z = (fresh_space(rng) for _ in range(4))
        f, g = genlib.random_rv(rng, x, y), genlib.random_rv(rng, y, z)
        before = genlib.random_finite_kernel(rng, w, x, zero_frac=0.3)
        after = genlib.random_finite_kernel(rng, y, z, zero_frac=0.3)
        df, dg = alg.deterministic(f), alg.deterministic(g)

        pushed = alg.compose(df, before)
        assert fractions_of(pushed) == compose_oracle(dense_twin(f), before)
        assert pushed == alg.compose(dense_twin(f), before)

        pulled = alg.compose(after, df)
        assert fractions_of(pulled) == compose_oracle(after, dense_twin(f))
        assert pulled == alg.compose(after, dense_twin(f))

        both = alg.compose(dg, df)
        assert both.index_map is not None
        assert fractions_of(both) == compose_oracle(dense_twin(g), dense_twin(f))
        assert both == alg.compose(dense_twin(g), dense_twin(f))
        assert alg.compose(dense_twin(g), dense_twin(f)) == both


def test_measure_maps_with_deterministic_match_dense_oracle():
    rng = random.Random(41)
    for _ in range(40):
        x, y = fresh_space(rng), fresh_space(rng)
        f = genlib.random_rv(rng, x, y)
        mu = genlib.random_measure(rng, x, zero_frac=0.3)
        expected = compose_oracle(dense_twin(f), alg.measure_as_kernel(mu))[0]
        pushed = alg.comp_measure(alg.deterministic(f), mu)
        assert [w.as_fraction() for w in pushed.weights] == expected
        assert alg.pushforward(mu, f) == pushed

        w, a, b = fresh_space(rng), fresh_space(rng, 3), fresh_space(rng, 3)
        k = genlib.random_finite_kernel(rng, w, Product(a, b), zero_frac=0.3)
        fst, snd = dense_twin(alg.fst_proj(a, b)), dense_twin(alg.snd_proj(a, b))
        assert fractions_of(alg.marginal_fst(k)) == compose_oracle(fst, k)
        assert fractions_of(alg.marginal_snd(k)) == compose_oracle(snd, k)


def test_deterministic_equals_and_hashes_like_its_dense_twin():
    rng = random.Random(42)
    for _ in range(40):
        x, y = fresh_space(rng), fresh_space(rng)
        f, g = genlib.random_rv(rng, x, y), genlib.random_rv(rng, x, y)
        df, twin = alg.deterministic(f), dense_twin(f)
        assert df == twin and twin == df
        assert hash(df) == hash(twin)
        assert df.rows == twin.rows
        assert df.is_markov()
        same = f.table == g.table
        assert (alg.deterministic(g) == df) is same
        assert (dense_twin(g) == df) is same
        assert (df == dense_twin(g)) is same
    w = weather_space()
    ww = Product(w, w)
    assert alg.copy_kernel(w) == Kernel(w, ww, [dirac(ww, (a, a)) for a in w.atoms])
    assert Kernel(w, UNIT, [dirac(UNIT, "()")] * w.size) == alg.discard_kernel(w)


def test_lifts_of_a_map_stay_maps_equal_to_their_dense_twins():
    rng = random.Random(44)
    for _ in range(40):
        x, y, extra = fresh_space(rng), fresh_space(rng), fresh_space(rng, 3)
        f = genlib.random_rv(rng, x, y)
        for lift in (
            lambda k: alg.prod_mk_right(k, extra),
            lambda k: alg.prod_mk_left(extra, k),
        ):
            lifted, twin = lift(alg.deterministic(f)), lift(dense_twin(f))
            assert lifted.index_map is not None and twin.index_map is None
            assert lifted == twin and twin == lifted
            assert hash(lifted) == hash(twin)
            assert lifted.rows == twin.rows


def test_lifts_match_their_two_branch_references():
    """Each lift is one compose with a projection: a map input keeps its index
    map, and a dense input's rows are the reference's row objects."""
    rng = random.Random(46)
    extras = [lambda: fresh_space(rng, 0, 0), lambda: UNIT] + [
        lambda n=n: fresh_space(rng, n, n) for n in range(1, 5)
    ]
    for case in range(200):
        dom = fresh_space(rng, 0, 0) if case % 7 == 0 else fresh_space(rng, 4)
        cod, extra = fresh_space(rng, 4), extras[case // 2 % len(extras)]()
        if case % 2:
            kernel = genlib.random_rv(rng, dom, cod)
        else:
            kernel = genlib.random_finite_kernel(rng, dom, cod, zero_frac=0.3)
        for got, want in (
            (alg.prod_mk_right(kernel, extra), genlib.reference_prod_mk_right(kernel, extra)),
            (alg.prod_mk_left(extra, kernel), genlib.reference_prod_mk_left(extra, kernel)),
        ):
            assert got == want and want == got
            assert got.index_map == want.index_map
            if kernel.index_map is not None:
                assert got.index_map is not None
            else:
                assert len(got.rows) == len(want.rows)
                assert all(a is b for a, b in zip(got.rows, want.rows))


def test_a_random_variable_is_its_deterministic_kernel():
    rng = random.Random(47)
    for _ in range(40):
        x, y, z = fresh_space(rng), fresh_space(rng), fresh_space(rng)
        f, g = genlib.random_rv(rng, x, y), genlib.random_rv(rng, y, z)
        reference = genlib.reference_deterministic(f)
        assert isinstance(f, Kernel) and type(reference) is Kernel
        assert alg.deterministic(f) is f
        assert f == reference and reference == f and hash(f) == hash(reference)
        assert f.rows == reference.rows and f.is_markov()
        assert all(f.row(a) == dirac(y, f(a)) for a in x.atoms)
        mu = genlib.random_measure(rng, x, zero_frac=0.3)
        assert alg.pushforward(mu, f) == alg.comp_measure(reference, mu)
        assert type(pair_rv(f, genlib.random_rv(rng, x, z))) is RandomVariable
        both = alg.compose(g, f)
        assert type(both) is Kernel and both.index_map is not None


# -- structural maps by index arithmetic against their atom tables ------------


def random_tree(rng, max_leaves):
    return genlib.random_bracketing(rng, genlib.random_leaves(rng, rng.randint(1, max_leaves)))


def test_structural_maps_match_atom_tables():
    rng = random.Random(43)
    for _ in range(80):
        leaves = genlib.random_leaves(rng, rng.randint(2, 5))
        src, dst = genlib.random_bracketing(rng, leaves), genlib.random_bracketing(rng, leaves)
        pairs = [(alg.rebracket_kernel(src, dst), genlib.table_rebracket(src, dst))]

        x, y, z = (random_tree(rng, 2) for _ in range(3))
        xy = Product(x, y)
        pairs += [
            (alg.identity_kernel(xy), alg.deterministic(RandomVariable.identity(xy))),
            (alg.swap_kernel(x, y), genlib.table_swap(x, y)),
            (alg.assoc_kernel(x, y, z), genlib.table_assoc(x, y, z)),
            (alg.assoc_inv_kernel(x, y, z), genlib.table_assoc_inv(x, y, z)),
            (alg.marginal_fst(alg.identity_kernel(xy)), genlib.table_fst(x, y)),
            (alg.marginal_snd(alg.identity_kernel(xy)), genlib.table_snd(x, y)),
        ]
        for got, table in pairs:
            assert got.index_map == table.index_map
            assert got == table

        w = fresh_space(rng, 3)
        k = genlib.random_finite_kernel(rng, w, xy, zero_frac=0.3)
        assert alg.marginal_fst(k) == alg.compose(genlib.table_fst(x, y), k)
        assert alg.marginal_snd(k) == alg.compose(genlib.table_snd(x, y), k)

        lift = genlib.random_finite_kernel(rng, x, w)
        atoms = genlib.eager_atoms(Product(x, y))
        assert alg.prod_mk_right(lift, y).rows == tuple(lift.row(a) for a, _ in atoms)
        atoms = genlib.eager_atoms(Product(y, x))
        assert alg.prod_mk_left(y, lift).rows == tuple(lift.row(b) for _, b in atoms)


def test_projections_are_index_maps_that_never_list_product_atoms():
    rng = random.Random(46)
    for _ in range(60):
        x, y = random_tree(rng, 3), random_tree(rng, 3)
        k = genlib.random_finite_kernel(rng, fresh_space(rng, 3), Product(x, y))
        fst, snd = alg.fst_proj(x, y), alg.snd_proj(x, y)
        alg.marginal_fst(k), alg.marginal_snd(k)
        for space in (fst.domain, snd.domain, k.codomain, x, y):
            assert not isinstance(space, Product) or space._atoms is None
        assert alg.deterministic(fst).index_map is fst.index_map
        tables = genlib.table_fst_rv(x, y), genlib.table_snd_rv(x, y)
        for got, table in zip((fst, snd), tables):
            assert got == table and got.table == table.table


# -- measures as kernels from unit, against the earlier direct loops -----------


def test_measure_operations_match_their_loops():
    rng = random.Random(44)
    empty = fresh_space(rng, max_atoms=0, min_atoms=0)
    for i in range(80):
        x = [UNIT, empty][i] if i < 2 else random_tree(rng, 3)
        y = random_tree(rng, 3)
        pairs = [
            (x, genlib.random_finite_kernel(rng, x, y, zero_frac=0.3)),
            (Product(x, y), alg.swap_kernel(x, y)),
            (x, alg.copy_kernel(x)),
            (x, alg.discard_kernel(x)),
        ]
        if y.size or not x.size:
            pairs.append((x, alg.deterministic(genlib.random_rv(rng, x, y))))
        for space, kappa in pairs:
            mu = genlib.random_measure(rng, space, zero_frac=0.3)
            assert alg.comp_measure(kappa, mu) == genlib.loop_comp_measure(kappa, mu)
            assert alg.comp_prod_measure(mu, kappa) == genlib.loop_comp_prod_measure(
                mu, kappa
            )
        mu, nu = (genlib.random_measure(rng, y, zero_frac=0.3) for _ in range(2))
        assert measure_rn_deriv(mu, nu) == genlib.loop_measure_rn_deriv(mu, nu)
    with pytest.raises(SpaceMismatch, match="do not compare"):
        measure_rn_deriv(uniform(weather_space()), dirac(UNIT, "()"))


def test_projections_match_the_random_variable_route():
    rng = random.Random(45)
    for _ in range(60):
        x, y = random_tree(rng, 3), random_tree(rng, 3)
        mu = genlib.random_measure(rng, Product(x, y), zero_frac=0.3)
        assert OPERATORS["fst"].evaluate(mu) == genlib.rv_marginal(mu, alg.fst_proj)
        assert OPERATORS["snd"].evaluate(mu) == genlib.rv_marginal(mu, alg.snd_proj)
        fst_copy = alg.marginal_fst(alg.copy_kernel(x))
        assert fst_copy.index_map == genlib.rv_fst_after_copy(x).index_map
        assert fst_copy == alg.identity_kernel(x)
        k = genlib.random_finite_kernel(rng, x, y, zero_frac=0.3)
        checked = [r for r in algebra_laws({"k": k}) if r.law == "fst.copy=id"]
        assert len(checked) == len({str(x), str(y)}) and all(r.ok for r in checked)


def test_unknown_law_suite_is_a_kernelalg_error():
    kernels = {"k": weather_kernel()}
    with pytest.raises(KernelAlgError, match="unknown law suite 'algebras'"):
        run_laws("algebras", kernels, {})
    assert run_laws("Bayes", kernels, {}) == []


def test_dense_results_checked_before_building(monkeypatch):
    """parallel, prod, comp_prod and comp_prod_measure multiply out the size of
    their result first; map operands cost nothing until rows are built."""
    big = Base(FiniteSpace("B", [str(i) for i in range(4097)]))
    ident = alg.identity_kernel(big)
    fst = alg.deterministic(alg.fst_proj(big, big))
    with monkeypatch.context() as patch:
        patch.setattr(alg, "_pair_row", None)
        for build, op, dom, cod in (
            (lambda: alg.parallel(ident, ident), "parallel", 4097**2, 4097**2),
            (lambda: alg.prod(ident, ident), "prod", 4097, 4097**2),
            (lambda: alg.comp_prod(ident, fst), "comp_prod", 4097, 4097**2),
            (lambda: alg.comp_prod_measure(dirac(big, "0"), ident), "comp_prod", 1, 4097**2),
        ):
            with pytest.raises(KernelAlgError) as exc:
                build()
            assert str(exc.value) == (
                f"{op} result of {dom} x {cod} = {dom * cod} entries, "
                f"above the limit of {alg.MAX_DENSE_ENTRIES}"
            )
    assert alg.MAX_DENSE_ENTRIES == 1 << 24 == 4096**2
    # a result of exactly the limit is built
    six = alg.identity_kernel(Base(FiniteSpace("Six", [str(i) for i in range(6)])))
    two = alg.identity_kernel(Base(FiniteSpace("Two", ["x", "y"])))
    with monkeypatch.context() as patch:
        patch.setattr(alg, "MAX_DENSE_ENTRIES", 36)
        assert len(alg.parallel(six, alg.identity_kernel(UNIT)).rows) == 6
        assert alg.comp_prod_measure(dirac(six.domain, "0"), six).space.size == 36
        with pytest.raises(KernelAlgError, match="parallel result of 12 x 12 = 144 entries"):
            alg.parallel(six, two)


def test_compose_checked_before_building(monkeypatch):
    """compose's dense and scatter branches multiply out |dom| x |cod| first, so a
    discard followed by a spreading kernel is refused; the map-map and gather
    branches build no entries and are not checked."""
    a = Base(FiniteSpace("A", [str(i) for i in range(5000)]))
    f = Kernel(a, UNIT, [dirac(UNIT, UNIT_ATOM)] * a.size)
    spread = Kernel(UNIT, a, [uniform(a)])
    pick = alg.deterministic(RandomVariable(UNIT, a, {UNIT_ATOM: "7"}))
    with monkeypatch.context() as patch:
        patch.setattr(alg, "_mix", None)
        patch.setattr(alg, "_scatter", None)
        for g in (spread, pick):
            with pytest.raises(KernelAlgError) as exc:
                alg.compose(g, f)
            assert str(exc.value) == (
                "compose result of 5000 x 5000 = 25000000 entries, above the limit "
                f"of {alg.MAX_DENSE_ENTRIES}"
            )
        discard = alg.discard_kernel(a)
        assert alg.compose(spread, discard).rows == (uniform(a),) * a.size
        assert alg.compose(pick, discard).index_map == (7,) * a.size
