"""Conditional distributions, conditional expectation kernels, independence.

Independence comes in three flavors here, and all three reduce to one
predicate: two maps are independent under a kernel row whenever the joint
mass of every singleton rectangle factors.  Singletons suffice on finite
spaces because rectangle masses are sums of singleton masses; the test suite
keeps a brute-force oracle over all rectangle pairs to guard that reduction.
"""

from __future__ import annotations

from .algebra import const_kernel, measure_product, prod_mk_right, pushforward
from .disintegration import cond_kernel_measure
from .errors import SpaceMismatch
from .measures import Kernel, Measure, dirac, uniform
from .spaces import UNIT, UNIT_ATOM
from .variables import PartitionSigma, RandomVariable, RealRV, pair_rv

__all__ = [
    "cond_distrib",
    "cond_exp_kernel",
    "cond_exp",
    "kernel_indep_fun",
    "indep_fun",
    "cond_indep_fun",
    "cond_indep_iff_cond_distrib",
]


def cond_distrib(y: RandomVariable, x: RandomVariable, mu: Measure) -> Kernel:
    """Conditional distribution of y given x under mu.

    Built by disintegrating the joint pushforward of mu under (x, y); the
    identity pushforward(mu, pair) == comp_prod_measure(pushforward(mu, x),
    result) holds exactly, and rows at x-values of zero mass are uniform.
    """
    if x.domain != mu.space or y.domain != mu.space:
        raise SpaceMismatch(
            f"maps on {x.domain} and {y.domain} do not live on measure space {mu.space}"
        )
    joint = pushforward(mu, pair_rv(x, y))
    return cond_kernel_measure(joint)


def cond_exp_kernel(mu: Measure, sigma: PartitionSigma) -> Kernel:
    """Markov kernel of conditioning on a partition sigma-algebra.

    The row at an atom is mu restricted to that atom's block and normalized;
    zero-mass blocks get the uniform row.  Rows are constant on blocks, which
    is exactly measurability with respect to the partition at finite scale.
    """
    if sigma.space != mu.space:
        raise SpaceMismatch(
            f"partition on {sigma.space} does not match measure space {mu.space}"
        )
    space = mu.space
    block_rows = []
    for block in sigma.blocks:
        restricted = mu.restrict(block)
        if restricted.total().is_zero():
            block_rows.append(uniform(space))
        else:
            block_rows.append(restricted.normalize())
    rows = tuple(block_rows[sigma.block_index(a)] for a in space.atoms)
    return Kernel._unchecked(space, space, rows)


def cond_exp(f: RealRV, mu: Measure, sigma: PartitionSigma) -> RealRV:
    """Conditional expectation of an observable given a partition.

    Exact: value at an atom is the mean of f under the conditioning kernel's
    row there, so the block-integral identity holds with equality on every
    block of positive mass.
    """
    if f.domain != mu.space:
        raise SpaceMismatch(
            f"observable on {f.domain} does not match measure space {mu.space}"
        )
    kernel = cond_exp_kernel(mu, sigma)
    values = [f.mean(row) for row in kernel.rows]
    return RealRV(mu.space, values)


def kernel_indep_fun(
    x: RandomVariable, y: RandomVariable, kappa: Kernel, nu: Measure
) -> bool:
    """Independence of two maps under a kernel, nu-almost everywhere.

    True iff every row of kappa at an atom of positive nu-mass satisfies the
    singleton product identity for all pairs of values of x and y.
    """
    if x.domain != kappa.codomain or y.domain != kappa.codomain:
        raise SpaceMismatch(
            f"maps on {x.domain} and {y.domain} do not match kernel codomain "
            f"{kappa.codomain}"
        )
    if nu.space != kappa.domain:
        raise SpaceMismatch(
            f"measure on {nu.space} does not match kernel domain {kappa.domain}"
        )
    xy = pair_rv(x, y)
    for w, row in zip(nu.weights, kappa.rows):
        if w.is_zero():
            continue
        joint = pushforward(row, xy)
        if joint != measure_product(pushforward(row, x), pushforward(row, y)):
            return False
    return True


def indep_fun(x: RandomVariable, y: RandomVariable, mu: Measure) -> bool:
    """Plain independence: the kernel predicate with a constant kernel."""
    mu.require_probability()
    kappa = const_kernel(UNIT, mu)
    return kernel_indep_fun(x, y, kappa, dirac(UNIT, UNIT_ATOM))


def cond_indep_fun(
    x: RandomVariable, y: RandomVariable, sigma: PartitionSigma, mu: Measure
) -> bool:
    """Conditional independence given a partition sigma-algebra.

    The kernel predicate applied to the conditioning kernel of the partition,
    quantified over atoms of positive mu-mass.  Rows are block-constant, so
    this equals quantification over blocks of positive mass.
    """
    kappa = cond_exp_kernel(mu, sigma)
    return kernel_indep_fun(x, y, kappa, mu)


def cond_indep_iff_cond_distrib(
    x: RandomVariable,
    y: RandomVariable,
    z: RandomVariable,
    mu: Measure,
):
    """Both sides of the conditional-independence characterization.

    Returns (lhs, rhs): lhs is conditional independence of y and x given the
    partition generated by z; rhs is whether the conditional distribution of
    x given (z, y) agrees with the lifted conditional distribution of x given
    z on every atom of positive joint (z, y) mass.  The two always coincide;
    computing them independently is the point.
    """
    sigma = PartitionSigma.generated_by(z)
    lhs = cond_indep_fun(y, x, sigma, mu)

    zy = pair_rv(z, y)
    given_zy = cond_distrib(x, zy, mu)
    lifted = prod_mk_right(cond_distrib(x, z, mu), y.codomain)
    joint_mass = pushforward(mu, zy)
    rhs = True
    for w, row_a, row_b in zip(joint_mass.weights, given_zy.rows, lifted.rows):
        if w.is_zero():
            continue
        if row_a.weights != row_b.weights:
            rhs = False
            break
    return lhs, rhs
