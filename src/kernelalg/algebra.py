"""Composition algebra of finite kernels.

Notation used in docstrings below (and in the README):

    compose(eta, kappa)        eta . kappa, feed the output of kappa into eta
    parallel(kappa, eta)       kappa on the left leg, eta on the right leg
    prod(kappa, eta)           same input to both, pair the outputs
    comp_prod(kappa, eta)      sequential pair: (first output, second output)
    comp_measure(kappa, mu)    push a measure through a kernel
    comp_prod_measure(mu, k)   joint measure (input, output)

All operations are exact.  Composition gates on structural space equality:
products are binary trees and no rebracketing ever happens implicitly.  Use
assoc_kernel / assoc_inv_kernel / rebracket_kernel to move between
bracketings explicitly.
"""

from __future__ import annotations

from itertools import repeat

from .errors import NotAProductCodomain, SpaceMismatch
from .measures import Kernel, Measure, zero_measure
from .scalar import ZERO
from .spaces import UNIT, Product, SpaceExpr
from .variables import RandomVariable

__all__ = [
    "deterministic",
    "identity_kernel",
    "copy_kernel",
    "discard_kernel",
    "const_kernel",
    "swap_kernel",
    "assoc_kernel",
    "assoc_inv_kernel",
    "fst_proj",
    "snd_proj",
    "prod_mk_right",
    "prod_mk_left",
    "rebracket_kernel",
    "compose",
    "parallel",
    "prod",
    "comp_prod",
    "comp_prod_via_primitives",
    "marginal_fst",
    "marginal_snd",
    "marginals",
    "comp_measure",
    "comp_prod_measure",
    "pushforward",
    "measure_product",
    "add_kernels",
    "zero_kernel",
    "measure_as_kernel",
    "kernel_as_measure",
]


# -- structural kernels --------------------------------------------------------


def deterministic(f: RandomVariable) -> Kernel:
    """The kernel sending each atom to the Dirac measure at its image.

    Held as f's index map (see Kernel), so composing with it gathers or
    scatters rows instead of multiplying by Dirac rows.
    """
    return Kernel._from_map(f.domain, f.codomain, f.index_map)


def identity_kernel(space: SpaceExpr) -> Kernel:
    return _same_index(space, space)


def _same_index(dom: SpaceExpr, cod: SpaceExpr) -> Kernel:
    """The map sending atom index i of dom to atom index i of cod.

    A product's atom index is the mixed-radix number of its leaf indices over
    the leaf sizes, whatever the bracketing, so this is the identity and every
    rebracketing between spaces with one leaf sequence.
    """
    return Kernel._from_map(dom, cod, tuple(range(dom.size)))


def copy_kernel(space: SpaceExpr) -> Kernel:
    """space -> space x space, each atom to the Dirac measure at (atom, atom)."""
    n = space.size
    return Kernel._from_map(space, Product(space, space), tuple(i * n + i for i in range(n)))


def discard_kernel(space: SpaceExpr) -> Kernel:
    """space -> unit, every row the unique probability measure on unit."""
    return Kernel._from_map(space, UNIT, (0,) * space.size)


def const_kernel(domain: SpaceExpr, measure: Measure) -> Kernel:
    """Every row equal to the given measure."""
    return Kernel._unchecked(domain, measure.space, (measure,) * domain.size)


def swap_kernel(left: SpaceExpr, right: SpaceExpr) -> Kernel:
    """(left x right) -> (right x left), deterministic coordinate swap."""
    nl, nr = left.size, right.size
    index_map = tuple(j * nl + i for i in range(nl) for j in range(nr))
    return Kernel._from_map(Product(left, right), Product(right, left), index_map)


def assoc_kernel(a: SpaceExpr, b: SpaceExpr, c: SpaceExpr) -> Kernel:
    """a x (b x c) -> (a x b) x c, deterministic rebracketing."""
    return _same_index(Product(a, Product(b, c)), Product(Product(a, b), c))


def assoc_inv_kernel(a: SpaceExpr, b: SpaceExpr, c: SpaceExpr) -> Kernel:
    """(a x b) x c -> a x (b x c), inverse rebracketing."""
    return _same_index(Product(Product(a, b), c), Product(a, Product(b, c)))


def fst_proj(left: SpaceExpr, right: SpaceExpr) -> RandomVariable:
    index_map = tuple(i for i in range(left.size) for _ in range(right.size))
    return RandomVariable._from_map(Product(left, right), left, index_map)


def snd_proj(left: SpaceExpr, right: SpaceExpr) -> RandomVariable:
    index_map = tuple(range(right.size)) * left.size
    return RandomVariable._from_map(Product(left, right), right, index_map)


def prod_mk_right(kernel: Kernel, extra: SpaceExpr) -> Kernel:
    """Lift dom -> cod to (dom x extra) -> cod, ignoring the second coordinate."""
    rows = tuple(row for row in kernel.rows for _ in range(extra.size))
    return Kernel._unchecked(Product(kernel.domain, extra), kernel.codomain, rows)


def prod_mk_left(extra: SpaceExpr, kernel: Kernel) -> Kernel:
    """Lift dom -> cod to (extra x dom) -> cod, ignoring the first coordinate."""
    rows = kernel.rows * extra.size
    return Kernel._unchecked(Product(extra, kernel.domain), kernel.codomain, rows)


def rebracket_kernel(src: SpaceExpr, dst: SpaceExpr) -> Kernel:
    """Deterministic re-association between two bracketings of one leaf list.

    src and dst must have identical ordered leaf sequences; the kernel maps
    each atom to the same flat coordinate tuple re-nested for dst.
    """
    if src.leaves() != dst.leaves():
        raise SpaceMismatch(
            f"spaces {src} and {dst} have different leaf sequences; "
            "rebracketing is only defined between bracketings of the same product"
        )
    return _same_index(src, dst)


# -- compositions ---------------------------------------------------------------


def compose(eta: Kernel, kappa: Kernel) -> Kernel:
    """Sequential composition: run kappa, feed its output into eta.

    (eta . kappa)(x)({z}) = sum_y kappa(x)({y}) * eta(y)({z}).

    A deterministic operand is applied as its index map: kappa's map gathers
    eta's rows, eta's map scatter-adds each of kappa's rows.  Both give the
    dense result exactly, since w * 1 == w and exact sums ignore order.
    """
    if kappa.codomain != eta.domain:
        raise SpaceMismatch(
            f"cannot compose: intermediate spaces differ "
            f"({kappa.codomain} vs {eta.domain})"
        )
    cod = eta.codomain
    if kappa.index_map is not None:
        if eta.index_map is not None:
            index_map = tuple(eta.index_map[y] for y in kappa.index_map)
            return Kernel._from_map(kappa.domain, cod, index_map)
        eta_rows = eta.rows
        return Kernel._unchecked(
            kappa.domain, cod, tuple(eta_rows[y] for y in kappa.index_map)
        )
    if eta.index_map is not None:
        return Kernel._unchecked(
            kappa.domain, cod, tuple(_scatter(eta, row) for row in kappa.rows)
        )
    n = cod.size
    eta_rows = eta.rows
    out_rows = []
    for row in kappa.rows:
        acc = [ZERO] * n
        for yi, wy in enumerate(row.weights):
            if wy.is_zero():
                continue
            for zi, wz in enumerate(eta_rows[yi].weights):
                if not wz.is_zero():
                    acc[zi] = acc[zi] + wy * wz
        out_rows.append(Measure._unchecked(cod, tuple(acc)))
    return Kernel._unchecked(kappa.domain, cod, tuple(out_rows))


def _scatter(f: Kernel, mu: Measure) -> Measure:
    """Push mu through the deterministic kernel f: add each weight at its image."""
    acc = [ZERO] * f.codomain.size
    for x, w in zip(f.index_map, mu.weights):
        if not w.is_zero():
            acc[x] = acc[x] + w
    return Measure._unchecked(f.codomain, tuple(acc))


def measure_product(a: Measure, b: Measure) -> Measure:
    """Product measure on Product(a.space, b.space)."""
    return _pair_row(Product(a.space, b.space), a, repeat(b))


def parallel(kappa: Kernel, eta: Kernel) -> Kernel:
    """Parallel composition on the product of domains and codomains.

    Row at (x, t) is the product measure kappa(x) (x) eta(t).
    """
    dom = Product(kappa.domain, eta.domain)
    cod = Product(kappa.codomain, eta.codomain)
    rows = tuple(
        _pair_row(cod, ra, repeat(rb)) for ra in kappa.rows for rb in eta.rows
    )
    return Kernel._unchecked(dom, cod, rows)


def _pair_row(cod: Product, a: Measure, rows) -> Measure:
    """The measure on cod with weight a({i}) * rows[i]({j}) at (i, j)."""
    n = cod.right.size
    weights = []
    for wa, row in zip(a.weights, rows):
        if wa.is_zero():
            weights.extend([ZERO] * n)
        else:
            weights.extend(wa * wb if not wb.is_zero() else ZERO for wb in row.weights)
    return Measure._unchecked(cod, tuple(weights))


def prod(kappa: Kernel, eta: Kernel) -> Kernel:
    """Same-input pairing: row at x is the product measure kappa(x) (x) eta(x).

    Equal to compose(parallel(kappa, eta), copy_kernel(domain)); the law suite
    checks that identity permanently.
    """
    if kappa.domain != eta.domain:
        raise SpaceMismatch(
            f"prod needs a shared domain, got {kappa.domain} and {eta.domain}"
        )
    cod = Product(kappa.codomain, eta.codomain)
    rows = tuple(
        _pair_row(cod, ra, repeat(rb)) for ra, rb in zip(kappa.rows, eta.rows)
    )
    return Kernel._unchecked(kappa.domain, cod, rows)


def comp_prod(kappa: Kernel, eta: Kernel) -> Kernel:
    """Sequential pairing kappa (x) eta: keep both stages' outputs.

    Needs eta's domain to be exactly Product(kappa.domain, kappa.codomain);
    then (kappa (x) eta)(x)({(y, z)}) = kappa(x)({y}) * eta((x, y))({z}).
    Bracketing is strict: a mismatched domain raises SpaceMismatch.
    """
    expected = Product(kappa.domain, kappa.codomain)
    if eta.domain != expected:
        raise SpaceMismatch(
            f"comp_prod: second kernel must have domain {expected}, got {eta.domain}"
        )
    y_size = kappa.codomain.size
    cod = Product(kappa.codomain, eta.codomain)
    eta_rows = eta.rows
    rows = tuple(
        _pair_row(cod, row, eta_rows[xi * y_size : (xi + 1) * y_size])
        for xi, row in enumerate(kappa.rows)
    )
    return Kernel._unchecked(kappa.domain, cod, rows)


def comp_prod_via_primitives(kappa: Kernel, eta: Kernel) -> Kernel:
    """comp_prod built from copy, parallel, rebracketing and swap only.

    Kept alongside the direct formula as a permanent cross-check; the two
    must agree exactly on every input.
    """
    x_space = kappa.domain
    y_space = kappa.codomain
    expected = Product(x_space, y_space)
    if eta.domain != expected:
        raise SpaceMismatch(
            f"comp_prod: second kernel must have domain {expected}, got {eta.domain}"
        )
    z_space = eta.codomain
    idx = identity_kernel(x_space)
    idy = identity_kernel(y_space)
    k = copy_kernel(x_space)                                # X -> X x X
    k = compose(parallel(idx, kappa), k)                    # X -> X x Y
    k = compose(parallel(idx, copy_kernel(y_space)), k)     # X -> X x (Y x Y)
    k = compose(assoc_kernel(x_space, y_space, y_space), k) # X -> (X x Y) x Y
    k = compose(parallel(eta, idy), k)                      # X -> Z x Y
    return compose(swap_kernel(z_space, y_space), k)        # X -> Y x Z


def marginal_fst(kappa: Kernel) -> Kernel:
    """Compose with the deterministic first projection."""
    if not isinstance(kappa.codomain, Product):
        raise NotAProductCodomain(f"codomain {kappa.codomain} is not a product")
    cod = kappa.codomain
    return compose(deterministic(fst_proj(cod.left, cod.right)), kappa)


def marginal_snd(kappa: Kernel) -> Kernel:
    if not isinstance(kappa.codomain, Product):
        raise NotAProductCodomain(f"codomain {kappa.codomain} is not a product")
    cod = kappa.codomain
    return compose(deterministic(snd_proj(cod.left, cod.right)), kappa)


def marginals(kappa: Kernel):
    return marginal_fst(kappa), marginal_snd(kappa)


# -- measure-level operations ------------------------------------------------------
#
# A measure is a kernel from the one-point space UNIT (measure_as_kernel), so
# each operation here is the kernel operation on that view.


def comp_measure(kappa: Kernel, mu: Measure) -> Measure:
    """Push mu through kappa: (kappa . mu)({y}) = sum_x mu({x}) kappa(x)({y})."""
    if mu.space != kappa.domain:
        raise SpaceMismatch(
            f"measure on {mu.space} cannot feed kernel from {kappa.domain}"
        )
    return compose(kappa, measure_as_kernel(mu)).rows[0]


def comp_prod_measure(mu: Measure, kappa: Kernel) -> Measure:
    """Joint measure of (input, output): weight mu({x}) * kappa(x)({y}) at (x, y)."""
    if mu.space != kappa.domain:
        raise SpaceMismatch(
            f"measure on {mu.space} cannot feed kernel from {kappa.domain}"
        )
    return comp_prod(measure_as_kernel(mu), prod_mk_left(UNIT, kappa)).rows[0]


def pushforward(mu: Measure, f: RandomVariable) -> Measure:
    """Image measure of mu under a map, via the deterministic kernel."""
    return comp_measure(deterministic(f), mu)


def add_kernels(a: Kernel, b: Kernel) -> Kernel:
    if a.domain != b.domain or a.codomain != b.codomain:
        raise SpaceMismatch("kernel addition needs identical domain and codomain")
    rows = tuple(ra.add(rb) for ra, rb in zip(a.rows, b.rows))
    return Kernel._unchecked(a.domain, a.codomain, rows)


def zero_kernel(domain: SpaceExpr, codomain: SpaceExpr) -> Kernel:
    row = zero_measure(codomain)
    return Kernel._unchecked(domain, codomain, (row,) * domain.size)


def measure_as_kernel(mu: Measure) -> Kernel:
    """View a measure as a kernel from the one-point space."""
    return Kernel._unchecked(UNIT, mu.space, (mu,))


def kernel_as_measure(kappa: Kernel) -> Measure:
    """Inverse view for kernels from the one-point space."""
    if kappa.domain != UNIT:
        raise SpaceMismatch(f"kernel from {kappa.domain} is not a measure in disguise")
    return kappa.rows[0]
