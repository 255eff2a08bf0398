"""Bayesian inversion of kernels against a prior measure."""

from __future__ import annotations

from .algebra import comp_measure, comp_prod_measure, swap_kernel
from .disintegration import cond_kernel_measure
from .errors import SpaceMismatch
from .measures import Kernel, Measure
from .records import Record

__all__ = ["posterior", "bayes_check", "BayesReport"]


def posterior(kappa: Kernel, mu: Measure) -> Kernel:
    """The Bayesian inverse of kappa with respect to the prior mu.

    Disintegrates the swapped joint measure of (input, output): the result
    maps each observation to the updated distribution over inputs, and
    comp_prod_measure(comp_measure(kappa, mu), posterior) reproduces the
    swapped joint exactly.  Observations with zero evidence mass get the
    uniform row, matching the conditional-kernel default.
    """
    if mu.space != kappa.domain:
        raise SpaceMismatch(
            f"prior on {mu.space} does not match kernel domain {kappa.domain}"
        )
    joint = comp_prod_measure(mu, kappa)
    swap = swap_kernel(mu.space, kappa.codomain)
    flipped = comp_measure(swap, joint)
    return cond_kernel_measure(flipped)


class BayesReport(Record):
    """Result of checking the pointwise Bayes formula on positive evidence."""

    __slots__ = ("holds", "checked", "failures")

    # Its own constructor, not Record's: `checked` and `failures` default to
    # fresh lists, where one shared default list would leak between reports.
    def __init__(self, holds: bool, checked=None, failures=None):
        self.holds = holds
        self.checked = [] if checked is None else checked
        self.failures = [] if failures is None else failures


def bayes_check(kappa: Kernel, mu: Measure) -> BayesReport:
    """Verify posterior(y)({x}) = mu({x}) * kappa(x)({y}) / evidence({y}).

    The identity is checked exactly at every observation y with positive
    evidence mass and every input x.  Every row kappa(x) at an atom of positive
    mu-mass is dominated by the evidence, since evidence({y}) >= mu({x}) *
    kappa(x)({y}), so there is nothing else to check.
    """
    post = posterior(kappa, mu)
    evidence = comp_measure(kappa, mu)
    report = BayesReport(holds=True)
    for yi, ev in enumerate(evidence.nums):
        y = evidence.space.atoms[yi]
        if not ev:
            continue  # excluded by the almost-everywhere quantifier
        post_row = post.rows[yi]
        for xi, x in enumerate(mu.space.atoms):
            row = kappa.rows[xi]
            # p / P == (m / M) * (k / K) / (ev / E), both sides cross-multiplied
            lhs = post_row.nums[xi] * mu.den * row.den * ev
            rhs = mu.nums[xi] * row.nums[yi] * evidence.den * post_row.den
            report.checked.append((y, x))
            if lhs != rhs:
                report.failures.append((y, x))
                report.holds = False
    return report
