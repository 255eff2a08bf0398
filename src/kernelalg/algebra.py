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

A row is integer numerators over one denominator (see Measure), so the
arithmetic below is integer multiply-adds and one gcd per output row.
compose, parallel, prod and comp_prod build |dom| * |cod| entries; a result of
more than MAX_DENSE_ENTRIES entries is refused before anything is built.
"""

from __future__ import annotations

from itertools import repeat
from math import lcm
from operator import mul

from .errors import KernelAlgError, NotAProductCodomain, SpaceMismatch
from .measures import Kernel, Measure, zero_measure
from .spaces import UNIT, Product, SpaceExpr
from .variables import RandomVariable

__all__ = [
    "MAX_DENSE_ENTRIES",
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


# Most entries a dense product result may have: 2**24, whose row tuples alone
# take 128 MiB of pointers.
MAX_DENSE_ENTRIES = 1 << 24


def _check_dense(op: str, dom_size: int, cod_size: int):
    """Refuse a dense result of dom_size x cod_size above MAX_DENSE_ENTRIES."""
    entries = dom_size * cod_size
    if entries > MAX_DENSE_ENTRIES:
        raise KernelAlgError(
            f"{op} result of {dom_size} x {cod_size} = {entries} entries, above the "
            f"limit of {MAX_DENSE_ENTRIES}"
        )


# -- structural kernels --------------------------------------------------------


def deterministic(f: RandomVariable) -> Kernel:
    """The kernel sending each atom to the Dirac measure at its image: f itself,
    since a RandomVariable is the map Kernel of its index map (see Kernel)."""
    return f


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
    """Lift dom -> cod to (dom x extra) -> cod: kernel . fst_proj(dom, extra)."""
    return compose(kernel, fst_proj(kernel.domain, extra))


def prod_mk_left(extra: SpaceExpr, kernel: Kernel) -> Kernel:
    """Lift dom -> cod to (extra x dom) -> cod: kernel . snd_proj(extra, dom)."""
    return compose(kernel, snd_proj(extra, kernel.domain))


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
    _check_dense("compose", kappa.domain.size, cod.size)
    if eta.index_map is not None:
        return Kernel._unchecked(
            kappa.domain, cod, tuple(_scatter(eta, row) for row in kappa.rows)
        )
    return Kernel._unchecked(kappa.domain, cod, _mix(cod, kappa.rows, eta.rows))


def _mix(cod: SpaceExpr, rows, eta_rows) -> tuple:
    """Each of `rows` pushed through the dense rows `eta_rows`, into cod.

    The eta rows that some row reads are scaled once to the lcm L of their
    denominators.  Output z of a row a is then the integer dot product
    sum_y a_y * (L / E_y) * b_yz over a.den * L, reduced by one gcd per row.
    """
    read = [any(col) for col in zip(*(row.nums for row in rows))]
    scale = lcm(*(eta.den for eta, r in zip(eta_rows, read) if r))
    unread = (0,) * cod.size
    scaled = [
        tuple(map((scale // eta.den).__mul__, eta.nums)) if r else unread
        for eta, r in zip(eta_rows, read)
    ]
    cols = list(zip(*scaled)) if scaled else [()] * cod.size
    return tuple(
        Measure._reduce(
            cod, tuple([sum(map(mul, row.nums, col)) for col in cols]), row.den * scale
        )
        for row in rows
    )


def _scatter(f: Kernel, mu: Measure) -> Measure:
    """Push mu through the deterministic kernel f: add each weight at its image."""
    acc = [0] * f.codomain.size
    for x, n in zip(f.index_map, mu.nums):
        if n:
            acc[x] += n
    return Measure._reduce(f.codomain, tuple(acc), mu.den)


def measure_product(a: Measure, b: Measure) -> Measure:
    """Product measure on Product(a.space, b.space)."""
    return _pair_row(Product(a.space, b.space), a, repeat(b))


def parallel(kappa: Kernel, eta: Kernel) -> Kernel:
    """Parallel composition on the product of domains and codomains.

    Row at (x, t) is the product measure kappa(x) (x) eta(t).
    """
    _check_dense(
        "parallel",
        kappa.domain.size * eta.domain.size,
        kappa.codomain.size * eta.codomain.size,
    )
    dom = Product(kappa.domain, eta.domain)
    cod = Product(kappa.codomain, eta.codomain)
    rows = tuple(
        _pair_row(cod, ra, repeat(rb)) for ra in kappa.rows for rb in eta.rows
    )
    return Kernel._unchecked(dom, cod, rows)


def _pair_row(cod: Product, a: Measure, rows) -> Measure:
    """The measure on cod with weight a({i}) * rows[i]({j}) at (i, j).

    Its denominator is a.den times the lcm of the rows a weights.  The product
    of two canonical rows need not be canonical, (1,1)/2 (x) (2,4)/3 being
    (2,4,2,4)/6, so the result takes one gcd.
    """
    pairs = list(zip(a.nums, rows))
    scale = lcm(*(row.den for w, row in pairs if w))
    zeros = (0,) * cod.right.size
    nums = []
    for w, row in pairs:
        if w:
            nums.extend(map((w * (scale // row.den)).__mul__, row.nums))
        else:
            nums.extend(zeros)
    return Measure._reduce(cod, tuple(nums), a.den * scale)


def prod(kappa: Kernel, eta: Kernel) -> Kernel:
    """Same-input pairing: row at x is the product measure kappa(x) (x) eta(x).

    Equal to compose(parallel(kappa, eta), copy_kernel(domain)); the law suite
    checks that identity permanently.
    """
    if kappa.domain != eta.domain:
        raise SpaceMismatch(
            f"prod needs a shared domain, got {kappa.domain} and {eta.domain}"
        )
    _check_dense("prod", kappa.domain.size, kappa.codomain.size * eta.codomain.size)
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
    _check_dense("comp_prod", kappa.domain.size, y_size * eta.codomain.size)
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
    return compose(fst_proj(cod.left, cod.right), kappa)


def marginal_snd(kappa: Kernel) -> Kernel:
    if not isinstance(kappa.codomain, Product):
        raise NotAProductCodomain(f"codomain {kappa.codomain} is not a product")
    cod = kappa.codomain
    return compose(snd_proj(cod.left, cod.right), kappa)


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
    """Image measure of mu under a map, the map being its deterministic kernel."""
    return comp_measure(f, mu)


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
