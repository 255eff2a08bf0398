"""Shared fixtures, random generators and independent oracles for the tests.

The generators draw exact rational weights with bounded denominators: a row
is built by splitting a common denominator D into integer parts, so every
weight is p/q with q <= D after reduction.  Oracles here deliberately avoid
the library's own code paths (explicit sums, full rectangle enumeration).
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import product as iter_product

from kernelalg import analytics, bayes
from kernelalg.algebra import (
    comp_measure,
    comp_prod,
    compose,
    copy_kernel,
    deterministic,
    fst_proj,
    prod_mk_left,
    prod_mk_right,
    pushforward,
    rebracket_kernel,
)
from kernelalg.bayes import BayesReport
from kernelalg.conditioning import cond_distrib
from kernelalg.disintegration import DensityTable
from kernelalg.document import MAX_NESTING
from kernelalg.errors import KdSyntaxError, KernelAlgError, SpaceMismatch
from kernelalg.laws import LawResult
from kernelalg.measures import Kernel, Measure, uniform
from kernelalg.scalar import ZERO, Scalar
from kernelalg.sequential import KernelChain, SplitMix64, _thresholds, traj_kernel
from kernelalg.spaces import UNIT, Base, FiniteSpace, Product, format_atom
from kernelalg.variables import RandomVariable, pair_rv

_NAMES = iter(range(10**9))


def fresh_space(rng: random.Random, max_atoms=5, min_atoms=1, name=None) -> Base:
    n = rng.randint(min_atoms, max_atoms)
    name = name or f"S{next(_NAMES)}"
    return Base(FiniteSpace(name, [f"{name.lower()}_{i}" for i in range(n)]))


def _split_total(rng: random.Random, total: int, parts: int, zero_frac=0.0):
    """Split an integer into `parts` nonnegative summands."""
    counts = [0] * parts
    live = [
        i for i in range(parts) if not (zero_frac and rng.random() < zero_frac)
    ]
    if not live:
        live = [rng.randrange(parts)]
    for _ in range(total):
        counts[rng.choice(live)] += 1
    return counts


def random_probability(rng, space, max_den=16, zero_frac=0.0) -> Measure:
    den = rng.randint(1, max_den)
    counts = _split_total(rng, den, space.size, zero_frac)
    return Measure(space, [Scalar(c, den) for c in counts])


def random_measure(rng, space, max_den=16, zero_frac=0.0) -> Measure:
    """A finite, not necessarily normalized measure."""
    den = rng.randint(1, max_den)
    weights = [
        Scalar(0)
        if zero_frac and rng.random() < zero_frac
        else Scalar(rng.randint(0, 2 * den), den)
        for _ in range(space.size)
    ]
    return Measure(space, weights)


def random_markov_kernel(rng, dom, cod, max_den=16, zero_frac=0.0) -> Kernel:
    return Kernel(
        dom, cod, [random_probability(rng, cod, max_den, zero_frac) for _ in dom.atoms]
    )


def random_finite_kernel(rng, dom, cod, max_den=16, zero_frac=0.0) -> Kernel:
    return Kernel(
        dom, cod, [random_measure(rng, cod, max_den, zero_frac) for _ in dom.atoms]
    )


def random_rv(rng, dom, cod) -> RandomVariable:
    return RandomVariable(dom, cod, {a: rng.choice(cod.atoms) for a in dom.atoms})


# -- fixtures -------------------------------------------------------------------


def weather_space() -> Base:
    return Base(FiniteSpace("W", ["good", "bad"]))


def weather_kernel() -> Kernel:
    w = weather_space()
    return Kernel(
        w,
        w,
        [
            Measure(w, [Scalar(4, 5), Scalar(1, 5)]),
            Measure(w, [Scalar(2, 5), Scalar(3, 5)]),
        ],
    )


# -- oracles ---------------------------------------------------------------------


def subsets(items):
    items = list(items)
    for mask in range(1 << len(items)):
        yield [items[i] for i in range(len(items)) if mask >> i & 1]


def rectangle_indep_oracle(x, y, mu) -> bool:
    """Definition-level independence: every pair of value SETS factorizes."""
    total = mu.total().as_fraction()
    assert total == 1
    for a_set in subsets(x.codomain.atoms):
        pre_a = set(x.preimage(a_set))
        pa = mu.mass_of(pre_a)
        for b_set in subsets(y.codomain.atoms):
            pre_b = set(y.preimage(b_set))
            pb = mu.mass_of(pre_b)
            pab = mu.mass_of(pre_a & pre_b)
            if pab != pa * pb:
                return False
    return True


def compose_oracle(eta, kappa) -> list:
    """Entry-by-entry double sum, no sparsity tricks."""
    out = []
    for x in kappa.domain.atoms:
        row = []
        for z in eta.codomain.atoms:
            acc = Fraction(0)
            for y in kappa.codomain.atoms:
                wy = kappa.weight(x, y)
                wz = eta.weight(y, z)
                if not wy.is_zero() and not wz.is_zero():
                    acc += wy.as_fraction() * wz.as_fraction()
            row.append(acc)
        out.append(row)
    return out


# -- Scalar-route references for the integer row arithmetic -----------------------
#
# The library's rows are integer numerators over one denominator.  These are the
# Scalar routes it took before, kept to compare the two on random inputs; each
# result goes through the public Measure constructor.


def scalar_compose(eta, kappa) -> Kernel:
    """compose by Scalar multiply-adds over the dense rows of both operands."""
    cod = eta.codomain
    eta_rows = eta.rows
    out_rows = []
    for row in kappa.rows:
        acc = [ZERO] * cod.size
        for yi, wy in enumerate(row.weights):
            if wy.is_zero():
                continue
            for zi, wz in enumerate(eta_rows[yi].weights):
                if not wz.is_zero():
                    acc[zi] = acc[zi] + wy * wz
        out_rows.append(Measure(cod, acc))
    return Kernel(kappa.domain, cod, out_rows)


def scalar_scatter(f, mu) -> Measure:
    """Push mu through the map kernel f: add each Scalar weight at its image."""
    acc = [ZERO] * f.codomain.size
    for x, w in zip(f.index_map, mu.weights):
        if not w.is_zero():
            acc[x] = acc[x] + w
    return Measure(f.codomain, acc)


def scalar_pair_row(cod, a, rows) -> Measure:
    """The measure on cod with weight a({i}) * rows[i]({j}) at (i, j)."""
    n = cod.right.size
    weights = []
    for wa, row in zip(a.weights, rows):
        if wa.is_zero():
            weights.extend([ZERO] * n)
        else:
            weights.extend(wa * wb if not wb.is_zero() else ZERO for wb in row.weights)
    return Measure(cod, weights)


def scalar_total(mu) -> Scalar:
    total = ZERO
    for w in mu.weights:
        total = total + w
    return total


def scalar_thresholds(row) -> list:
    """Inverse-CDF thresholds ceil(cumulative * 2**64), from Fraction weights."""
    thresholds = []
    num, den = 0, 1
    for w in row.weights:
        if not w.is_zero():
            f = w.as_fraction()
            num = num * f.denominator + f.numerator * den
            den = den * f.denominator
        thresholds.append(-((-num << 64) // den))
    return thresholds


# -- Scalar-view readers of rows ---------------------------------------------------
#
# The library's readers of a row (the float analytics, the Bayes check, the
# disintegration laws, conditioning, means and bounds) work on nums / den.
# These are the routes that read the Scalar views in `weights` with Scalar
# arithmetic, kept to compare the two on random inputs.  Preconditions are the
# caller's.


def scalar_entropy(mu) -> float:
    acc = 0.0
    for w in mu.weights:
        if not w.is_zero():
            acc -= float(w) * analytics._log(w)
    return acc


def scalar_cond_entropy(x, y, mu) -> float:
    py = pushforward(mu, y)
    nx = x.codomain.size
    acc = 0.0
    for i, pab in enumerate(pushforward(mu, pair_rv(y, x)).weights):
        if not pab.is_zero():
            pb = py.weights[i // nx]
            p_cond = pab / pb
            acc -= float(pb) * float(p_cond) * analytics._log(p_cond)
    return acc


def scalar_kl_div(mu, nu) -> float:
    acc = 0.0
    for wm, wn in zip(mu.weights, nu.weights):
        if not wm.is_zero():
            if wn.is_zero():
                return math.inf
            acc += float(wm) * analytics._log(wm / wn)
    return acc


def scalar_renyi_div(alpha, mu, nu) -> float:
    """renyi_div past its argument checks, on the Scalar weights of the shared support."""
    alpha = Fraction(alpha)
    if mu == nu:
        return 0.0
    a, b = float(alpha), float(1 - alpha)
    shared = [
        (wm, wn)
        for wm, wn in zip(mu.weights, nu.weights)
        if not wm.is_zero() and not wn.is_zero()
    ]
    if not shared:
        return math.inf
    if alpha > Fraction(1, 2):
        logs = [analytics._log_near_one(wn / wm) for wm, wn in shared]
        if b * max(abs(r) for r in logs) <= 1:
            mass = sum(wm for wm, _ in shared)
            excess = sum(
                float(wm / mass) * math.expm1(b * r) for (wm, _), r in zip(shared, logs)
            )
            return (analytics._log_near_one(mass) + math.log1p(excess)) / -b
    return analytics._log_sum_exp(
        [a * analytics._log(wm) + b * analytics._log(wn) for wm, wn in shared]
    ) / -b


def scalar_log_mgf(x, mu, t) -> Fraction:
    terms = [(w, t * v) for w, v in zip(mu.weights, x.values) if not w.is_zero()]
    top = max(e for _, e in terms)
    offsets = [
        analytics._log(w) + float(max(e - top, analytics._FLOAT_FLOOR)) for w, e in terms
    ]
    return top + Fraction(analytics._log_sum_exp(offsets))


def scalar_hoeffding_tail(x, mu, n, t) -> Fraction:
    """P(sum of n independent copies >= t), the law summed from Scalar views."""
    law: dict = {}
    for w, v in zip(mu.weights, x.values):
        if not w.is_zero():
            law[v] = law.get(v, Fraction(0)) + w.as_fraction()
    total = dict(law)
    for _ in range(n - 1):
        nxt: dict = {}
        for s, p in total.items():
            for v, q in law.items():
                nxt[s + v] = nxt.get(s + v, Fraction(0)) + p * q
        total = nxt
    return sum((p for s, p in total.items() if s >= t), Fraction(0))


def scalar_rn_deriv(kappa, eta) -> DensityTable:
    """rn_deriv with one Scalar per entry, each reduced by its own gcd."""
    values = [
        ZERO if we.is_zero() else wk / we
        for ka, ea in zip(kappa.rows, eta.rows)
        for wk, we in zip(ka.weights, ea.weights)
    ]
    return DensityTable(Product(kappa.domain, kappa.codomain), values)


def scalar_with_density(eta, f) -> Kernel:
    """with_density as one product of Scalar views per entry."""
    ny = eta.codomain.size
    return Kernel(eta.domain, eta.codomain, [
        Measure(eta.codomain, [w * v for w, v in zip(row.weights, f.values[xi * ny :])])
        for xi, row in enumerate(eta.rows)
    ])


def render_value(value):
    """A kernel, measure or density as the JSON writer's dict tree of Scalar texts."""
    if isinstance(value, DensityTable):
        return {
            "sort": "density",
            "space": str(value.domain),
            "values": {format_atom(a): v for a, v in zip(value.domain.atoms, value.values)},
        }
    if isinstance(value, Measure):
        return {
            "sort": "measure",
            "space": str(value.space),
            "weights": {format_atom(a): w for a, w in value.items()},
        }
    if isinstance(value, Kernel):
        return {
            "sort": "kernel",
            "domain": str(value.domain),
            "codomain": str(value.codomain),
            "rows": {format_atom(a): render_value(row)["weights"]
                     for a, row in zip(value.domain.atoms, value.rows)},
        }
    return value


def tree_dumps(tree) -> str:
    """The recursive JSON encoder of render_value's trees, one value at a time."""
    if isinstance(tree, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{tree_dumps(v)}" for k, v in tree.items())
        return "{" + inner + "}"
    if isinstance(tree, (list, tuple)):
        return "[" + ",".join(tree_dumps(v) for v in tree) + "]"
    if isinstance(tree, bool):
        return "true" if tree else "false"
    if isinstance(tree, float):
        return '"inf"' if math.isinf(tree) else format(tree, ".12g")
    if isinstance(tree, Fraction):
        return json.dumps(str(tree))
    return json.dumps(tree)


def render_text(value) -> str:
    """The text writer's lines for a kernel, measure or density, from Scalar views."""
    def body(space, weights):
        return "{ " + ", ".join(f"{format_atom(a)}: {w}" for a, w in zip(space.atoms, weights)) + " }"

    if isinstance(value, DensityTable):
        return f"density on {value.domain} = {body(value.domain, value.values)}\n"
    if isinstance(value, Measure):
        return f"measure on {value.space} = {body(value.space, value.weights)}\n"
    lines = [f"kernel : {value.domain} -> {value.codomain}\n"]
    lines += [f"  {format_atom(a)}: {body(value.codomain, row.weights)}\n"
              for a, row in zip(value.domain.atoms, value.rows)]
    return "".join(lines)


def scalar_bayes_check(kappa, mu) -> BayesReport:
    """bayes_check with posterior(y)(x) and mu(x) kappa(x)(y) / evidence(y) as Scalars."""
    post = bayes.posterior(kappa, mu)
    evidence = comp_measure(kappa, mu)
    report = BayesReport(holds=True)
    for yi, ev in enumerate(evidence.weights):
        y = evidence.space.atoms[yi]
        if ev.is_zero():
            continue
        post_row = post.rows[yi]
        for xi, x in enumerate(mu.space.atoms):
            lhs = post_row.weights[xi]
            rhs = mu.weights[xi] * (kappa.rows[xi].weights[yi] / ev)
            report.checked.append((y, x))
            if lhs != rhs:
                report.failures.append((y, x))
                report.holds = False
    return report


def scalar_singular_verdicts(singular, kb) -> tuple:
    """(rn-singular-disjoint, singular part is zero) of disintegration_laws."""
    disjoint = all(
        not (not ws.is_zero() and not we.is_zero())
        for rs, re_ in zip(singular.rows, kb.rows)
        for ws, we in zip(rs.weights, re_.weights)
    )
    return disjoint, all(w.is_zero() for r in singular.rows for w in r.weights)


def scalar_cond_exp_kernel(mu, sigma) -> Kernel:
    block_rows = []
    for block in sigma.blocks:
        restricted = mu.restrict(block)
        if restricted.total().is_zero():
            block_rows.append(uniform(mu.space))
        else:
            block_rows.append(restricted.normalize())
    rows = [block_rows[sigma.block_index(a)] for a in mu.space.atoms]
    return Kernel(mu.space, mu.space, rows)


def scalar_cond_indep_rhs(x, y, z, mu) -> bool:
    """The cond-distrib side of cond_indep_iff_cond_distrib, rows compared as views."""
    zy = pair_rv(z, y)
    given_zy = cond_distrib(x, zy, mu)
    lifted = prod_mk_right(cond_distrib(x, z, mu), y.codomain)
    joint_mass = pushforward(mu, zy)
    return all(
        row_a.weights == row_b.weights
        for (_, row_a), (_, row_b) in zip(
            given_zy.support_rows(joint_mass), lifted.support_rows(joint_mass)
        )
    )


def scalar_mean(x, measure) -> Fraction:
    total = Fraction(0)
    for w, v in zip(measure.weights, x.values):
        if not w.is_zero():
            total += w.as_fraction() * v
    return total


def scalar_finite_bound(kappa) -> Scalar:
    bound = ZERO
    for row in kappa.rows:
        t = scalar_total(row)
        if t > bound:
            bound = t
    return bound


# -- eager references for lazy products and their index arithmetic ---------------


def random_bracketing(rng: random.Random, leaves):
    """A random binary product tree over the given leaves, in order."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return Product(
        random_bracketing(rng, leaves[:cut]), random_bracketing(rng, leaves[cut:])
    )


def random_leaves(rng: random.Random, count, max_atoms=3):
    """Base spaces of 1..max_atoms atoms, one in ten unit and one in ten empty."""
    leaves = []
    for _ in range(count):
        r = rng.random()
        if r < 0.1:
            leaves.append(UNIT)
        elif r < 0.2:
            leaves.append(fresh_space(rng, max_atoms=0, min_atoms=0))
        else:
            leaves.append(fresh_space(rng, max_atoms))
    return leaves


def eager_atoms(space) -> tuple:
    """Every atom of a space, built the way Product once built them up front."""
    if isinstance(space, Product):
        right = eager_atoms(space.right)
        return tuple((a, b) for a in eager_atoms(space.left) for b in right)
    return space.atoms


def eager_index_of(space, atom) -> int:
    """index_of through an atom -> index dict over eager_atoms."""
    index = {a: i for i, a in enumerate(eager_atoms(space))}
    try:
        return index[atom]
    except KeyError:
        raise SpaceMismatch(
            f"atom {format_atom(atom)} does not belong to space {space}"
        ) from None


def flatten_atom(space, atom):
    """Yield the leaf atoms of a (possibly nested) product atom, in order."""
    if isinstance(space, Product):
        yield from flatten_atom(space.left, atom[0])
        yield from flatten_atom(space.right, atom[1])
    else:
        yield atom


def build_atom(space, leaf_iter):
    """Rebuild a nested atom of `space` from an iterator of leaf atoms."""
    if isinstance(space, Product):
        left = build_atom(space.left, leaf_iter)
        right = build_atom(space.right, leaf_iter)
        return (left, right)
    return next(leaf_iter)


def table_rv(dom, cod, image) -> RandomVariable:
    """The RandomVariable whose table is image(atom) on every eagerly listed atom."""
    return RandomVariable(dom, cod, {a: image(a) for a in eager_atoms(dom)})


def _table_map(dom, cod, image) -> Kernel:
    return deterministic(table_rv(dom, cod, image))


def table_swap(left, right) -> Kernel:
    return _table_map(Product(left, right), Product(right, left), lambda t: (t[1], t[0]))


def table_assoc(a, b, c) -> Kernel:
    return _table_map(
        Product(a, Product(b, c)),
        Product(Product(a, b), c),
        lambda t: ((t[0], t[1][0]), t[1][1]),
    )


def table_assoc_inv(a, b, c) -> Kernel:
    return _table_map(
        Product(Product(a, b), c),
        Product(a, Product(b, c)),
        lambda t: (t[0][0], (t[0][1], t[1])),
    )


def table_fst_rv(left, right) -> RandomVariable:
    """fst_proj as it was built: from the table (a, b) -> a over the product atoms."""
    return table_rv(Product(left, right), left, lambda t: t[0])


def table_snd_rv(left, right) -> RandomVariable:
    return table_rv(Product(left, right), right, lambda t: t[1])


def table_fst(left, right) -> Kernel:
    return deterministic(table_fst_rv(left, right))


def table_snd(left, right) -> Kernel:
    return deterministic(table_snd_rv(left, right))


def table_rebracket(src, dst) -> Kernel:
    return _table_map(src, dst, lambda t: build_atom(dst, flatten_atom(src, t)))


class _RowSampler:
    """Inverse-CDF draws of one row: the sampler's per-row object before block
    sampling, kept for the per-trajectory references below."""

    __slots__ = ("thresholds",)

    def __init__(self, row: Measure):
        self.thresholds = _thresholds(row)

    def draw(self, u: int) -> int:
        return bisect_right(self.thresholds, u)


def reference_sample(chain, n, seed, count, initial=None):
    """`sequential.sample` as a per-trajectory loop: one next_u64 per draw, the
    history as its row-major index h, one sampler per distinct row object.
    Each step reads row h % len(rows): h itself for a step over the history
    space, the state drawn last for a step that reads only that state.  The
    library draws the same words a packed block and a column at a time."""
    init = initial if initial is not None else chain.initial
    if init is None:
        raise KernelAlgError("chain has no initial distribution to sample from")
    rng = SplitMix64(seed)
    init_sampler = _RowSampler(init)
    samplers = {}
    plan = [
        (step.rows, step.codomain.size, step.codomain.atoms)
        for step in chain.steps[:n]
    ]
    out = []
    for _ in range(count):
        # h is the row-major index of the history drawn so far
        h = init_sampler.draw(rng.next_u64())
        traj = []
        for rows, size, atoms in plan:
            row = rows[h % len(rows)]
            sampler = samplers.get(id(row))
            if sampler is None:
                sampler = samplers[id(row)] = _RowSampler(row)
            j = sampler.draw(rng.next_u64())
            traj.append(atoms[j])
            h = h * size + j
        out.append(tuple(traj))
    return out


def explicit_chain(mu, k, n):
    """markov_chain(mu, k, n) with every step lifted to its history space:
    KernelChain(S, [k, prod_mk_left(S, k), prod_mk_left((S x S), k), ...], mu)."""
    steps, history = [k], k.domain
    for _ in range(1, n):
        steps.append(prod_mk_left(history, k))
        history = Product(history, k.codomain)
    return KernelChain(k.domain, steps, mu)


def lifted_traj_kernel(chain, n) -> Kernel:
    """`sequential.traj_kernel` as kernel algebra: a last-state step is lifted
    to its history space with prod_mk_left, and every step is composed with
    the rebracketing from start x (trajectory so far) to that history space.
    The library reads each step's rows on start x (trajectory so far) as they
    stand, since both bracketings number their atoms alike."""
    reads_last = chain._reads_last(n)
    xi = chain.steps[0]
    history = Product(chain.start, xi.codomain)
    for i in range(1, n):
        step = chain.steps[i]
        if reads_last[i]:
            step = prod_mk_left(history.left, step)
        lift_dom = Product(chain.start, xi.codomain)
        lifted = compose(step, rebracket_kernel(lift_dom, history))
        xi = comp_prod(xi, lifted)
        history = Product(history, step.codomain)
    return xi


def sample_oracle(chain, n, seed, count, initial=None):
    """Trajectory sampling keyed by nested history atoms, one sampler per row
    index.  Every step must map the history space, as in explicit_chain."""
    init = initial if initial is not None else chain.initial
    if init is None:
        raise KernelAlgError("chain has no initial distribution to sample from")
    rng = SplitMix64(seed)
    init_sampler = _RowSampler(init)
    index = [
        {a: i for i, a in enumerate(eager_atoms(step.domain))}
        for step in chain.steps[:n]
    ]
    outs = [eager_atoms(step.codomain) for step in chain.steps[:n]]
    row_samplers = [{} for _ in range(n)]
    out = []
    for _ in range(count):
        history = init.space.atoms[init_sampler.draw(rng.next_u64())]
        traj = []
        for i in range(n):
            step = chain.steps[i]
            ri = index[i][history]
            sampler = row_samplers[i].get(ri)
            if sampler is None:
                sampler = row_samplers[i][ri] = _RowSampler(step.rows[ri])
            atom = outs[i][sampler.draw(rng.next_u64())]
            traj.append(atom)
            history = (history, atom)
        out.append(tuple(traj))
    return out


# -- measure operations as their own loops, projections through RandomVariables --
#
# The library computes these as kernel operations on measure_as_kernel(mu) and
# projects by index maps; these are the earlier direct implementations.


def loop_comp_measure(kappa, mu) -> Measure:
    """Weight sum_x mu({x}) * kappa(x)({y}) at y, by a double loop."""
    acc = [ZERO] * kappa.codomain.size
    for xi, wx in enumerate(mu.weights):
        if wx.is_zero():
            continue
        for yi, wy in enumerate(kappa.rows[xi].weights):
            if not wy.is_zero():
                acc[yi] = acc[yi] + wx * wy
    return Measure(kappa.codomain, acc)


def loop_comp_prod_measure(mu, kappa) -> Measure:
    """Weight mu({x}) * kappa(x)({y}) at (x, y), row by row."""
    n = kappa.codomain.size
    weights = []
    for wx, row in zip(mu.weights, kappa.rows):
        if wx.is_zero():
            weights.extend([ZERO] * n)
        else:
            weights.extend(wx * w if not w.is_zero() else ZERO for w in row.weights)
    return Measure(Product(mu.space, kappa.codomain), weights)


def loop_measure_rn_deriv(mu, nu) -> list:
    return [
        ZERO if wn.is_zero() else wm / wn for wm, wn in zip(mu.weights, nu.weights)
    ]


def rv_marginal(mu, project) -> Measure:
    """fst or snd of a measure: its pushforward under fst_proj or snd_proj."""
    return pushforward(mu, project(mu.space.left, mu.space.right))


def rv_fst_after_copy(space) -> Kernel:
    return compose(deterministic(fst_proj(space, space)), copy_kernel(space))


def rv_drop_last(kernel, cod, count) -> Kernel:
    """Compose with the map dropping the last `count` legs of a left-nested atom."""

    def drop(atom):
        for _ in range(count):
            atom = atom[0]
        return atom

    proj = RandomVariable.from_function(kernel.codomain, cod, drop)
    return compose(deterministic(proj), kernel)


def rv_projection_consistency(chain, n, m) -> bool:
    big, small = traj_kernel(chain, n), traj_kernel(chain, m)
    if m == n:
        return big == small
    return rv_drop_last(big, small.codomain, n - m) == small


# -- random variables through their atom tables ------------------------------------------
#
# RandomVariable holds a codomain index map; these are the earlier routes that
# read its atom -> atom table.


def table_pair_rv(x, y) -> RandomVariable:
    tx, ty = x.table, y.table
    cod = Product(x.codomain, y.codomain)
    return RandomVariable(x.domain, cod, {a: (tx[a], ty[a]) for a in x.domain.atoms})


def table_fibers(rv) -> list:
    """generated_by's blocks: one scan of the domain per codomain atom."""
    table = rv.table
    fibers = []
    for value in rv.codomain.atoms:
        fiber = tuple(a for a in rv.domain.atoms if table[a] == value)
        if fiber:
            fibers.append(fiber)
    return fibers


def table_row_factorizes(row, x, y) -> bool:
    """Singleton product identity for one row, summed in dicts keyed by values."""
    tx, ty = x.table, y.table
    joint = {}
    px = {a: ZERO for a in x.codomain.atoms}
    py = {b: ZERO for b in y.codomain.atoms}
    for atom, w in row.items():
        a = tx[atom]
        b = ty[atom]
        px[a] = px[a] + w
        py[b] = py[b] + w
        if not w.is_zero():
            joint[(a, b)] = joint.get((a, b), ZERO) + w
    for a in x.codomain.atoms:
        for b in y.codomain.atoms:
            lhs = joint.get((a, b), ZERO)
            if lhs != px[a] * py[b]:
                return False
    return True


def table_kernel_indep(x, y, kappa, nu) -> bool:
    """kernel_indep_fun's verdict through table_row_factorizes."""
    return all(
        table_row_factorizes(row, x, y)
        for w, row in zip(nu.weights, kappa.rows)
        if not w.is_zero()
    )


def table_cond_entropy_direct(x, y, mu) -> float:
    """cond_entropy's direct double sum over the fibers of y and the values of x."""
    tx = x.table
    direct = 0.0
    for b in y.codomain.atoms:
        fiber = y.preimage([b])
        pb = mu.mass_of(fiber)
        if pb.is_zero():
            continue
        for a in x.codomain.atoms:
            joint = mu.mass_of([w for w in fiber if tx[w] == a])
            if joint.is_zero():
                continue
            p_cond = float(joint / pb)
            direct -= float(pb) * p_cond * math.log(p_cond)
    return direct


# -- the lifts and deterministic(f) as their own constructions -------------------------
#
# prod_mk_right and prod_mk_left compose with a projection, and deterministic(f)
# is f; these are the earlier routes: a map branch and a dense branch per lift,
# and a plain Kernel copy of f's index map.


def reference_prod_mk_right(kernel, extra) -> Kernel:
    dom = Product(kernel.domain, extra)
    if kernel.index_map is not None:
        index_map = tuple(j for j in kernel.index_map for _ in range(extra.size))
        return Kernel._from_map(dom, kernel.codomain, index_map)
    rows = tuple(row for row in kernel.rows for _ in range(extra.size))
    return Kernel._unchecked(dom, kernel.codomain, rows)


def reference_prod_mk_left(extra, kernel) -> Kernel:
    dom = Product(extra, kernel.domain)
    if kernel.index_map is not None:
        return Kernel._from_map(dom, kernel.codomain, kernel.index_map * extra.size)
    return Kernel._unchecked(dom, kernel.codomain, kernel.rows * extra.size)


def reference_deterministic(f) -> Kernel:
    return Kernel._from_map(f.domain, f.codomain, f.index_map)


# -- the match-loop tokenizer ---------------------------------------------------------
#
# The library tokenizes in one finditer pass; this is the earlier loop that
# matched at a moving position and counted lines and columns chunk by chunk.

_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[{}():,=/\-])
    """,
    re.VERBOSE,
)


def reference_tokens(text: str) -> list:
    """(kind, text, line, col) of every token and the final eof, or KdSyntaxError."""
    tokens = []
    line, col = 1, 1
    pos = 0
    depth = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise KdSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            label = chunk if kind == "punct" else kind
            if label == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise KdSyntaxError(
                        f"parentheses nested deeper than {MAX_NESTING}", line, col
                    )
            elif label == ")":
                depth -= 1
            tokens.append((label, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# -- the float analytics through float() of each weight ---------------------------
#
# The library takes every log and exp of an exact value through analytics._log,
# _exp and one log-sum-exp; these are the earlier routes, which converted each
# weight, ratio or exponent to float first.  Preconditions are the caller's.


def reference_entropy(mu) -> float:
    acc = 0.0
    for w in mu.weights:
        if not w.is_zero():
            p = float(w)
            acc -= p * math.log(p)
    return acc


def reference_kl_div(mu, nu) -> float:
    for wm, wn in zip(mu.weights, nu.weights):
        if wn.is_zero() and not wm.is_zero():
            return math.inf
    acc = 0.0
    for wm, wn in zip(mu.weights, nu.weights):
        if not wm.is_zero():
            acc += float(wm) * math.log(float(wm / wn))
    return acc


def reference_renyi_div(alpha, mu, nu) -> float:
    """Densities taken exactly against mu + nu, summed in linear space."""
    if mu == nu:
        return 0.0
    shared = any(
        not wm.is_zero() and not wn.is_zero()
        for wm, wn in zip(mu.weights, nu.weights)
    )
    if not shared:
        return math.inf
    a = float(alpha)
    total = 0.0
    for wm, wn in zip(mu.weights, nu.weights):
        if wm.is_zero() or wn.is_zero():
            continue
        m = wm + wn
        p = float(wm / m)
        q = float(wn / m)
        total += (p ** a) * (q ** (1.0 - a)) * float(m)
    return math.log(total) / (a - 1.0)


def _reference_exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def reference_mgf(x, mu, t) -> float:
    """sum of float(w) * exp(float(t v)) over the positive weights."""
    t = Fraction(t)
    acc = 0.0
    for w, v in zip(mu.weights, x.values):
        if not w.is_zero():
            acc += float(w) * _reference_exp(float(t * v))
    return acc


def reference_log_mgf(x, mu, t) -> float:
    """Log-sum-exp over float(w), the largest exponent factored out exactly."""
    terms = [(w, t * v) for w, v in zip(mu.weights, x.values) if not w.is_zero()]
    top = max(e for _, e in terms)
    scaled = sum(float(w) * math.exp(float(e - top)) for w, e in terms)
    return float(top) + math.log(scaled)


def reference_hoeffding_bound(n, t, sigma_sq) -> float:
    """exp(-t^2 / (2 n sigma^2)), 0.0 from the exponent 746 on."""
    exponent = Fraction(t) ** 2 / (2 * n * Fraction(sigma_sq))
    return 0.0 if exponent >= 746 else math.exp(float(-exponent))


def reference_associativity(kernels) -> list:
    """The associativity results of laws.algebra_laws, each triple recomputing
    both inner composites."""
    names = sorted(kernels)
    results = []
    for a, b, c in iter_product(names, names, names):
        ka, kb, kc = kernels[a], kernels[b], kernels[c]
        if ka.codomain == kb.domain and kb.codomain == kc.domain:
            left = compose(kc, compose(kb, ka))
            right = compose(compose(kc, kb), ka)
            results.append(LawResult("associativity", f"{c}.{b}.{a}", left == right))
    return results
