"""Bayesian inversion of kernels against a prior measure."""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import comp_measure, comp_prod_measure, swap_kernel
from .disintegration import cond_kernel_measure
from .errors import SpaceMismatch
from .measures import Kernel, Measure
from .spaces import format_atom

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


@dataclass
class BayesReport:
    """Result of checking the pointwise Bayes formula on positive evidence."""

    holds: bool
    checked: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    dominated: bool = True

    def as_dict(self):
        return {
            "holds": self.holds,
            "checkedAtoms": [
                [format_atom(y), format_atom(x)] for (y, x) in self.checked
            ],
            "failures": [
                [format_atom(y), format_atom(x)] for (y, x) in self.failures
            ],
            "dominated": self.dominated,
        }


def bayes_check(kappa: Kernel, mu: Measure) -> BayesReport:
    """Verify posterior(y)({x}) = mu({x}) * kappa(x)({y}) / evidence({y}).

    The identity is checked exactly at every observation y with positive
    evidence mass and every input x.  Whether every row kappa(x) is dominated
    by the evidence is reported as a flag, not required: on finite spaces the
    per-atom formula above holds regardless.
    """
    post = posterior(kappa, mu)
    evidence = comp_measure(kappa, mu)
    report = BayesReport(holds=True)
    for yi, ev in enumerate(evidence.weights):
        y = evidence.space.atoms[yi]
        if ev.is_zero():
            continue  # excluded by the almost-everywhere quantifier
        post_row = post.rows[yi]
        for xi, x in enumerate(mu.space.atoms):
            lhs = post_row.weights[xi]
            rhs = mu.weights[xi] * (kappa.rows[xi].weights[yi] / ev)
            report.checked.append((y, x))
            if lhs != rhs:
                report.failures.append((y, x))
                report.holds = False
    report.dominated = not any(
        ev.is_zero() and not w.is_zero()
        for _, row in kappa.support_rows(mu)
        for w, ev in zip(row.weights, evidence.weights)
    )
    return report
