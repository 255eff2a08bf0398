"""Exact disintegration of kernels and the kernel Radon-Nikodym decomposition.

On finite spaces every finite kernel into a product disintegrates exactly:
the conditional kernel is the per-atom ratio against the first marginal, and
rows at atoms the first marginal never reaches are set to the uniform row so
the result is genuinely Markov everywhere.  The uniform choice is symmetric
under atom reordering; any Markov choice on those null atoms reconstructs the
same kernel, which the law suite checks as modification invariance.

A Radon-Nikodym derivative is a DensityTable, a Measure on domain x codomain,
so rn_deriv and with_density compute on integer rows.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .algebra import comp_prod, marginal_fst, measure_as_kernel
from .errors import EmptyCodomainZ, NotAProductCodomain, SpaceMismatch
from .measures import Kernel, Measure, uniform
from .records import Record
from .spaces import Product, SpaceExpr

__all__ = [
    "DensityTable",
    "RNDecomposition",
    "cond_kernel",
    "cond_kernel_measure",
    "is_cond_kernel",
    "with_density",
    "rn_deriv",
    "singular_part",
    "rn_decomposition",
    "absolutely_continuous",
    "measure_rn_deriv",
]


class DensityTable(Measure):
    """A total finite table of density values on a space expression.

    It is a Measure on that space (`domain`), held as the same integer row:
    `values` are its `weights`, Scalars built on first read.  It prints as a
    density and never equals a Measure with the same data.
    """

    __slots__ = ()
    sort, entries = "density", "values"
    domain, values, value = Measure.space, Measure.weights, Measure.weight

    @classmethod
    def constant(cls, domain: SpaceExpr, value) -> "DensityTable":
        return cls(domain, (value,) * domain.size)

    def __repr__(self):
        return f"DensityTable({self.space}, {self.space.size} values)"


class RNDecomposition(Record):
    """Density plus singular part: kernel = density * base + singular."""

    __slots__ = ("density", "singular")


def _split_product_codomain(kappa: Kernel):
    if not isinstance(kappa.codomain, Product):
        raise NotAProductCodomain(
            f"disintegration needs a product codomain, got {kappa.codomain}"
        )
    return kappa.codomain.left, kappa.codomain.right


def cond_kernel(kappa: Kernel) -> Kernel:
    """Conditional kernel of a kernel into a product.

    For kappa from X into Y x Z, returns the Markov kernel from X x Y to Z
    whose row at (x, y) is kappa(x) restricted to the fiber {y} x Z and
    normalized; rows at atoms with kappa(x)({y} x Z) = 0 are uniform on Z.
    Satisfies comp_prod(marginal_fst(kappa), result) == kappa exactly.
    """
    y_space, z_space = _split_product_codomain(kappa)
    dom = Product(kappa.domain, y_space)
    nz = z_space.size
    if nz == 0 and dom.size > 0:
        raise EmptyCodomainZ(
            f"cannot build Markov rows into the empty space {z_space}"
        )
    uniform_row = uniform(z_space) if dom.size > 0 else None
    rows = []
    for row in kappa.rows:
        for yi in range(y_space.size):
            fiber = row.nums[yi * nz : (yi + 1) * nz]
            mass = sum(fiber)
            rows.append(Measure._reduce(z_space, fiber, mass) if mass else uniform_row)
    return Kernel._unchecked(dom, z_space, tuple(rows))


def cond_kernel_measure(rho: Measure) -> Kernel:
    """Disintegrate a joint measure on Y x Z into a kernel Y -> Z.

    Same ratios as cond_kernel viewed from the one-point space, with the
    unit coordinate dropped so the result is a kernel from Y directly.
    """
    if not isinstance(rho.space, Product):
        raise NotAProductCodomain(
            f"disintegration needs a product space, got {rho.space}"
        )
    inner = cond_kernel(measure_as_kernel(rho))
    # inner runs over atoms ((), y) in y order; reuse its rows directly.
    return Kernel._unchecked(rho.space.left, rho.space.right, inner.rows)


def is_cond_kernel(kappa: Kernel, eta: Kernel) -> bool:
    """Does eta disintegrate kappa, i.e. marginal_fst(kappa) (x) eta == kappa?"""
    y_space, z_space = _split_product_codomain(kappa)
    expected_dom = Product(kappa.domain, y_space)
    if eta.domain != expected_dom or eta.codomain != z_space:
        raise SpaceMismatch(
            f"candidate conditional kernel must map {expected_dom} to {z_space}, "
            f"got {eta.domain} to {eta.codomain}"
        )
    return comp_prod(marginal_fst(kappa), eta) == kappa


def with_density(eta: Kernel, f: DensityTable) -> Kernel:
    """Reweight a kernel atomwise: row(x)({y}) = f((x, y)) * eta(x)({y})."""
    expected = Product(eta.domain, eta.codomain)
    if f.space != expected:
        raise SpaceMismatch(
            f"density table lives on {f.space}, expected {expected}"
        )
    ny, fnums, fden = eta.codomain.size, f.nums, f.den
    rows = tuple(
        Measure._reduce(
            eta.codomain, tuple(map(mul, row.nums, fnums[xi * ny : xi * ny + ny])), row.den * fden
        )
        for xi, row in enumerate(eta.rows)
    )
    return Kernel._unchecked(eta.domain, eta.codomain, rows)


def _check_same_shape(kappa: Kernel, eta: Kernel):
    if kappa.domain != eta.domain or kappa.codomain != eta.codomain:
        raise SpaceMismatch(
            "Radon-Nikodym decomposition needs kernels of identical shape, got "
            f"{kappa.domain} -> {kappa.codomain} and {eta.domain} -> {eta.codomain}"
        )


def rn_deriv(kappa: Kernel, eta: Kernel) -> DensityTable:
    """Atomwise derivative of kappa against eta, 0 where eta has no mass.

    Mass of kappa sitting on eta-null atoms is carried by singular_part, so
    with_density(eta, rn_deriv(kappa, eta)) + singular_part(kappa, eta)
    reconstructs kappa exactly.
    """
    _check_same_shape(kappa, eta)
    pairs = tuple(zip(kappa.rows, eta.rows))
    # (nk / Dk) / (ne / De) = nk * De / (Dk * ne), every entry over one lcm
    den = lcm(*(ka.den * ne for ka, ea in pairs for ne in ea.nums if ne))
    nums = tuple(
        nk * ea.den * (den // (ka.den * ne)) if ne else 0
        for ka, ea in pairs
        for nk, ne in zip(ka.nums, ea.nums)
    )
    return DensityTable._reduce(Product(kappa.domain, kappa.codomain), nums, den)


def singular_part(kappa: Kernel, eta: Kernel) -> Kernel:
    """The part of kappa supported where eta vanishes, row by row."""
    _check_same_shape(kappa, eta)
    rows = []
    for ka, ea in zip(kappa.rows, eta.rows):
        nums = tuple(0 if ne else nk for nk, ne in zip(ka.nums, ea.nums))
        rows.append(Measure._reduce(kappa.codomain, nums, ka.den))
    return Kernel._unchecked(kappa.domain, kappa.codomain, tuple(rows))


def rn_decomposition(kappa: Kernel, eta: Kernel) -> RNDecomposition:
    return RNDecomposition(rn_deriv(kappa, eta), singular_part(kappa, eta))


def absolutely_continuous(kappa: Kernel, eta: Kernel) -> bool:
    """True iff every row of kappa vanishes wherever the matching eta row does."""
    _check_same_shape(kappa, eta)
    return not any(
        nk and not ne
        for ka, ea in zip(kappa.rows, eta.rows)
        for nk, ne in zip(ka.nums, ea.nums)
    )


def measure_rn_deriv(mu: Measure, nu: Measure):
    """Atomwise derivative of one measure against another (0 on nu-null atoms)."""
    if mu.space != nu.space:
        raise SpaceMismatch(f"measures on {mu.space} and {nu.space} do not compare")
    return list(rn_deriv(measure_as_kernel(mu), measure_as_kernel(nu)).values)
