"""Entropy, divergences and sub-Gaussian certification over exact inputs.

This is the one float-valued layer of the package.  The contract throughout:
every decision that can be made exactly is made exactly, in rational
arithmetic, before anything is converted to float64.  In particular a
divergence is infinite iff an exact support condition says so; +inf is never
the artifact of a float log or division, and no size of rational breaks one:
every log and exp of an exact value goes through _log, _exp and _log_sum_exp.
Finite results are float64 with natural logs, summed in fixed atom order.
Identities among finite values hold within TOLERANCE = 1e-9.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .algebra import comp_measure, comp_prod, comp_prod_measure, pushforward
from .errors import (
    AlphaOutOfRange,
    GridViolation,
    KernelAlgError,
    NonzeroMean,
    NotCertified,
    ScopeMismatch,
    SpaceMismatch,
)
from .measures import Kernel, Measure
from .records import Record
from .scalar import _format_rational
from .spaces import Product
from .variables import RandomVariable, RealRV, pair_rv

__all__ = [
    "TOLERANCE",
    "entropy",
    "kernel_entropy",
    "cond_entropy",
    "kl_div",
    "cond_kl",
    "kl_chain_rule",
    "KLChainRuleReport",
    "data_processing",
    "DataProcessingReport",
    "renyi_div",
    "mgf",
    "PlainMeasureScope",
    "KernelScope",
    "SubgaussianCertificate",
    "certify_subgaussian",
    "certify_bounded_range",
    "certify_grid",
    "subgaussian_add_comp_prod",
    "hoeffding_check",
    "HoeffdingReport",
]

TOLERANCE = 1e-9

# Relative slack for float <= comparisons in grid checks; the analytic margin
# of every certified inequality dwarfs this by many orders of magnitude.
_GRID_SLACK = 1e-12

# Most points certify_grid walks, floor(2T/step) + 1; more is refused before
# any point is built.  The default grid (T = 10, step = 1/100) has 2001, and
# each point costs one exact mgf per in-scope row.
MAX_GRID_POINTS = 100_000

# Most pair-bits hoeffding_check's convolution may spend: each (sum, value) pair
# it visits costs n * D.bit_length(), a bound on the bits of every weight, plus
# PAIR_OVERHEAD_BITS of fixed dict work (98-110 ns measured).  At about 1.5e10
# pair-bits/s (Python 3.11, 2 vCPUs) that is about 2 s of integer loop; more is
# refused before the variable is certified.
MAX_HOEFFDING_WORK = 1 << 35
PAIR_OVERHEAD_BITS = 1600


# -- the exact-to-float boundary --------------------------------------------------

_LOG_FLOAT_MAX = 709.782712893384  # log(sys.float_info.max): exp of more is inf
_FLOAT_FLOOR = -(10**308)  # float() of less overflows; exp of it is 0.0


def _log(q) -> float:
    """Natural log of a positive exact rational of any size: log(float(q)) when
    q is safely a normal float (decided from bit lengths), else log n - log d."""
    n, d = q.numerator, q.denominator
    if -1021 <= n.bit_length() - d.bit_length() <= 1022:
        return math.log(n / d)
    return math.log(n) - math.log(d)


def _log_near_one(q) -> float:
    """_log(q), but log1p of the exact q - 1 when 1/2 < q < 2, whose digits
    log(float(q)) would round away."""
    n, d = q.numerator, q.denominator
    if d < 2 * n < 4 * d:
        return math.log1p((n - d) / d)
    return _log(q)


def _exp(v) -> float:
    """exp of an exact or float exponent: 0.0 below -746 and inf past the float
    range, both decided on v itself before any conversion."""
    if v < -746:
        return 0.0
    if v > _LOG_FLOAT_MAX:
        return math.inf
    return math.exp(v)


def _log_sum_exp(terms) -> float:
    """log sum exp(terms) of finite floats, the largest one factored out."""
    top = max(terms)
    return top + math.log(sum(math.exp(x - top) for x in terms))


def entropy(mu: Measure) -> float:
    """Shannon entropy in nats, with the 0 log 0 = 0 convention."""
    mu.require_probability()
    acc = 0.0
    for n in mu.nums:
        if n:
            acc -= n / mu.den * _log(Fraction(n, mu.den))
    return acc


def kernel_entropy(kappa: Kernel, mu: Measure) -> float:
    """Row entropies of a Markov kernel averaged under mu."""
    kappa.require_markov()
    mu.require_probability()
    acc = 0.0
    for w, row in kappa.support_rows(mu):
        acc += float(w) * entropy(row)
    return acc


def cond_entropy(x: RandomVariable, y: RandomVariable, mu: Measure) -> float:
    """Conditional entropy of x given y under mu.

    The direct double sum over values of y and x, using exact conditional
    ratios; it equals kernel_entropy(cond_distrib(x, y, mu), pushforward(mu, y))
    within TOLERANCE.
    """
    if x.domain != mu.space or y.domain != mu.space:
        raise SpaceMismatch(
            f"maps on {x.domain} and {y.domain} do not live on {mu.space}"
        )
    mu.require_probability()
    py = pushforward(mu, y)
    joint = pushforward(mu, pair_rv(y, x))
    nx = x.codomain.size
    acc = 0.0
    # the joint law of (y, x), row-major: atom (b, a) has index b * |X| + a
    for i, n in enumerate(joint.nums):
        if n:
            nb = py.nums[i // nx]
            p_cond = Fraction(n * py.den, joint.den * nb)
            acc -= nb / py.den * float(p_cond) * _log(p_cond)
    return acc


def kl_div(mu: Measure, nu: Measure) -> float:
    """KL divergence in nats; +inf iff mu is not dominated by nu, decided exactly."""
    if mu.space != nu.space:
        raise SpaceMismatch(f"measures on {mu.space} and {nu.space} do not compare")
    mu.require_probability()
    nu.require_probability()
    acc = 0.0
    for m, n in zip(mu.nums, nu.nums):
        if m:
            if not n:
                return math.inf
            acc += m / mu.den * _log(Fraction(m * nu.den, mu.den * n))
    return acc


def cond_kl(kappa: Kernel, eta: Kernel, mu: Measure) -> float:
    """Row KL divergences averaged under mu; +inf if any positive-mass row is."""
    if kappa.domain != eta.domain or kappa.codomain != eta.codomain:
        raise SpaceMismatch("conditional KL needs kernels of identical shape")
    kappa.require_markov()
    eta.require_markov()
    mu.require_probability()
    acc = 0.0
    for (w, ka), (_, ea) in zip(kappa.support_rows(mu), eta.support_rows(mu)):
        term = kl_div(ka, ea)
        if math.isinf(term):
            return math.inf
        acc += float(w) * term
    return acc


def _agree(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= TOLERANCE


class KLChainRuleReport(Record):
    __slots__ = (
        "joint",
        "marginal",
        "conditional",
        "joint_conditional",
        "additive_form_holds",
        "comp_prod_form_holds",
    )


def kl_chain_rule(mu: Measure, nu: Measure, kappa: Kernel, eta: Kernel) -> KLChainRuleReport:
    """Evaluate both chain-rule decompositions of a joint KL divergence.

    joint            KL of the two (input, output) joint measures
    marginal         KL of the inputs
    conditional      averaged row KL of the kernels under mu
    joint_conditional  KL of the two joints sharing the input marginal mu

    Checks joint = marginal + conditional and
    joint = marginal + joint_conditional, with exact infinity propagation.
    """
    joint = kl_div(comp_prod_measure(mu, kappa), comp_prod_measure(nu, eta))
    marginal = kl_div(mu, nu)
    conditional = cond_kl(kappa, eta, mu)
    joint_conditional = kl_div(comp_prod_measure(mu, kappa), comp_prod_measure(mu, eta))
    return KLChainRuleReport(
        joint=joint,
        marginal=marginal,
        conditional=conditional,
        joint_conditional=joint_conditional,
        additive_form_holds=_agree(joint, marginal + conditional),
        comp_prod_form_holds=_agree(joint, marginal + joint_conditional),
    )


class DataProcessingReport(Record):
    __slots__ = (
        "divergence",
        "processed",
        "original",
        "joint",
        "dpi_holds",
        "conditioning_holds",
    )


def data_processing(
    kind: str, kappa: Kernel, mu: Measure, nu: Measure, alpha: Fraction | None = None
) -> DataProcessingReport:
    """Check the data-processing inequality for KL or a Renyi order.

    processed = D(kappa . mu, kappa . nu) must not exceed original = D(mu, nu),
    nor joint = D of the two (input, output) joints, since marginalizing the
    output is itself processing by a deterministic kernel.
    """
    kappa.require_markov()
    if kind == "kl":
        div = kl_div
        label = "kl"
    elif kind == "renyi":
        if alpha is None:
            raise AlphaOutOfRange("renyi data processing needs an order alpha")
        div = lambda a, b: renyi_div(alpha, a, b)  # noqa: E731
        label = f"renyi({_format_rational(Fraction(alpha))})"
    else:
        raise KernelAlgError(f"unknown divergence kind {kind!r}")
    processed = div(comp_measure(kappa, mu), comp_measure(kappa, nu))
    original = div(mu, nu)
    joint = div(comp_prod_measure(mu, kappa), comp_prod_measure(nu, kappa))
    return DataProcessingReport(
        divergence=label,
        processed=processed,
        original=original,
        joint=joint,
        dpi_holds=processed <= original + TOLERANCE,
        conditioning_holds=processed <= joint + TOLERANCE,
    )


def renyi_div(alpha: Fraction, mu: Measure, nu: Measure) -> float:
    """Renyi divergence of order alpha in (0, 1), in nats.

    (alpha - 1)^-1 log sum mu^alpha nu^(1 - alpha) over the shared support; the
    result is +inf iff that support is empty (decided exactly), and exactly 0.0
    when mu == nu.  An order whose float64 is 1.0 is refused.  Near order 1 the
    log of the sum is (alpha - 1) D, which a log-sum-exp cancels away; there,
    with p, q the weights, P the exact shared mass of mu and b = 1 - alpha, it is
    log P + log1p(sum (p / P) expm1(b log(q / p))) instead, where log P and
    log(q / p) come from the exact P - 1 and q / p - 1 when near 1.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise AlphaOutOfRange(
            f"alpha must lie strictly in (0, 1), got {_format_rational(alpha)}"
        )
    if mu.space != nu.space:
        raise SpaceMismatch(f"measures on {mu.space} and {nu.space} do not compare")
    mu.require_probability()
    nu.require_probability()
    if mu == nu:
        return 0.0
    a, b = float(alpha), float(1 - alpha)  # b exact: 1.0 - a drops digits near 1
    if a == 1.0:
        raise AlphaOutOfRange(
            f"alpha {_format_rational(alpha)} rounds to 1 in float64"
        )
    shared = [
        (Fraction(m, mu.den), Fraction(n, nu.den))
        for m, n in zip(mu.nums, nu.nums)
        if m and n
    ]
    if not shared:
        return math.inf
    if alpha > Fraction(1, 2):
        logs = [_log_near_one(wn / wm) for wm, wn in shared]
        if b * max(abs(r) for r in logs) <= 1:  # keeps log1p's argument in [-0.64, 1.72]
            mass = sum(wm for wm, _ in shared)
            excess = sum(
                float(wm / mass) * math.expm1(b * r) for (wm, _), r in zip(shared, logs)
            )
            return (_log_near_one(mass) + math.log1p(excess)) / -b
    return _log_sum_exp([a * _log(wm) + b * _log(wn) for wm, wn in shared]) / -b


def mgf(x: RealRV, mu: Measure, t) -> float:
    """Moment generating function of an observable at an exact argument t.

    inf when the value exceeds the float range, 0.0 below it.
    """
    if mu.space != x.domain:
        raise SpaceMismatch(
            f"observable on {x.domain} does not match measure space {mu.space}"
        )
    mu.require_probability()
    return _exp(_log_mgf(x, mu, Fraction(t)))


def _log_mgf(x: RealRV, mu: Measure, t: Fraction) -> Fraction:
    """log mgf(t) on a probability measure, exact past exp's range: the largest
    exponent t*v is factored out, and added back, exactly."""
    terms = [(Fraction(n, mu.den), t * v) for n, v in zip(mu.nums, x.values) if n]
    top = max(e for _, e in terms)
    offsets = [_log(w) + float(max(e - top, _FLOAT_FLOOR)) for w, e in terms]
    return top + Fraction(_log_sum_exp(offsets))


# -- sub-Gaussian certification ---------------------------------------------------


class PlainMeasureScope(Record):
    """Certify against a single probability measure."""

    __slots__ = ("measure",)

    def rows(self):
        return [self.measure.require_probability()]

    def describe(self):
        return "plainMeasure"


class KernelScope(Record):
    """Certify against every row of a Markov kernel at atoms the base measure hits."""

    __slots__ = ("kernel", "measure")

    def rows(self):
        self.kernel.require_markov()
        return [row for _, row in self.kernel.support_rows(self.measure)]

    def describe(self):
        return "kernelScope"


class SubgaussianCertificate(Record):
    __slots__ = ("variable", "constant", "scope", "method", "verified", "integrability")

    # All expectations here are finite sums, so the integrability side
    # condition of the definition holds vacuously; recorded, not checked.
    _defaults = {"integrability": "vacuous (finite sums)"}

    def as_dict(self):
        method = {"name": self.method[0]}
        if self.method[0] == "gridCheck":
            method["T"] = _format_rational(self.method[1])
            method["step"] = _format_rational(self.method[2])
        return {
            "constant": _format_rational(self.constant),
            "scope": self.scope.describe(),
            "method": method,
            "verified": self.verified,
            "integrability": self.integrability,
        }


def _scope_rows(x: RealRV, scope):
    rows = scope.rows()
    for row in rows:
        if row.space != x.domain:
            raise SpaceMismatch(
                f"scope rows live on {row.space}, observable on {x.domain}"
            )
    return rows


def certify_bounded_range(x: RealRV, scope) -> SubgaussianCertificate:
    """Certificate with constant (range width)^2 / 4, the Hoeffding lemma route.

    Requires exact mean zero under every in-scope row; the range is taken over
    atoms carrying positive mass under some in-scope row, since that is where
    the variable lives almost surely.
    """
    rows = _scope_rows(x, scope)
    support = set()
    for row in rows:
        m = x.mean(row)
        if m != 0:
            raise NonzeroMean(
                f"in-scope row has exact mean {_format_rational(m)}, expected 0"
            )
        support.update(row.support())
    if support:
        values = [x.values[i] for i in support]
        lo, hi = min(values), max(values)
        constant = (hi - lo) ** 2 / 4
    else:
        constant = Fraction(0)
    return SubgaussianCertificate(
        variable=x,
        constant=constant,
        scope=scope,
        method=("boundedRange",),
        verified=True,
    )


def _grid_points(grid_t: Fraction, grid_step: Fraction):
    if grid_t <= 0 or grid_step <= 0:
        raise KernelAlgError("grid radius and step must be positive")
    count = 2 * grid_t // grid_step + 1
    if count > MAX_GRID_POINTS:
        radius = _format_rational(grid_t)
        raise KernelAlgError(
            f"grid of {_format_rational(count)} points on [-{radius}, {radius}] "
            f"exceeds the limit of {MAX_GRID_POINTS} points; use a larger step"
        )
    return [-grid_t + i * grid_step for i in range(count)]


def certify_grid(
    x: RealRV, scope, constant, grid_t, grid_step
) -> SubgaussianCertificate:
    """Verify mgf(t) <= exp(c t^2 / 2) on an explicit grid in [-T, T].

    This is an honest partial check: the certificate records the grid it was
    verified on.  Raises GridViolation at the first failing point.
    """
    constant = Fraction(constant)
    grid_t = Fraction(grid_t)
    grid_step = Fraction(grid_step)
    if constant < 0:
        raise KernelAlgError("sub-Gaussian constant must be nonnegative")
    rows = _scope_rows(x, scope)
    # Refused before any point is built: on [-T, T], c t^2 / 2 peaks at c T^2 / 2,
    # and t v and its differences in _log_mgf stay within T (max(v, 0) - min(v, 0)).
    values = [x.values[i] for row in rows for i in row.support()] or [0]
    for name, value in (
        ("c T^2 / 2", constant * grid_t * grid_t / 2),
        ("T |v|", grid_t * (max(max(values), 0) - min(min(values), 0))),
    ):
        if value > sys.float_info.max:
            raise KernelAlgError(
                f"grid exponent {name} = {_format_rational(value)} is past the "
                "float range; use a smaller constant or grid radius"
            )
    # mgf(t) > bound * (1 + slack), compared in log space: either side
    # overflows a float once t*v or c t^2 / 2 passes ~709.
    log_slack = math.log1p(_GRID_SLACK)
    for t in _grid_points(grid_t, grid_step):
        log_bound = float(constant * t * t / 2)
        for row in rows:
            log_mgf = _log_mgf(x, row, t)
            if log_mgf > log_bound + log_slack:
                raise GridViolation(t, _exp(log_mgf), _exp(log_bound))
    return SubgaussianCertificate(
        variable=x,
        constant=constant,
        scope=scope,
        method=("gridCheck", grid_t, grid_step),
        verified=True,
    )


def certify_subgaussian(
    x: RealRV,
    scope,
    method: str = "boundedRange",
    constant=None,
    grid_t=Fraction(10),
    grid_step=Fraction(1, 100),
) -> SubgaussianCertificate:
    """Dispatch to the bounded-range or explicit-grid certification route."""
    if method in ("boundedRange", "bounded"):
        return certify_bounded_range(x, scope)
    if method in ("gridCheck", "grid"):
        if constant is None:
            raise NotCertified("grid certification needs an explicit constant")
        return certify_grid(x, scope, constant, grid_t, grid_step)
    raise KernelAlgError(f"unknown certification method {method!r}")


def subgaussian_add_comp_prod(
    cert_x: SubgaussianCertificate,
    cert_y: SubgaussianCertificate,
    grid_t=Fraction(10),
    grid_step=Fraction(1, 100),
) -> SubgaussianCertificate:
    """Certificate for the coordinate sum under the sequential pairing.

    cert_x must hold over (kappa, nu) and cert_y over (eta, nu (x) kappa) with
    eta consuming kappa's (input, output) pairs; then the sum of the two
    observables on the paired outputs is sub-Gaussian with the summed constant
    over (kappa (x) eta, nu).  The summed certificate is re-verified on an
    explicit grid rather than taken on faith.
    """
    if not (cert_x.verified and cert_y.verified):
        raise NotCertified("both input certificates must be verified")
    sx, sy = cert_x.scope, cert_y.scope
    if not isinstance(sx, KernelScope) or not isinstance(sy, KernelScope):
        raise ScopeMismatch("summing certificates needs kernel scopes on both sides")
    kappa, nu = sx.kernel, sx.measure
    eta = sy.kernel
    if eta.domain != Product(kappa.domain, kappa.codomain):
        raise ScopeMismatch(
            f"second kernel must consume {Product(kappa.domain, kappa.codomain)}, "
            f"got {eta.domain}"
        )
    if sy.measure != comp_prod_measure(nu, kappa):
        raise ScopeMismatch(
            "second certificate's measure is not the joint of the first scope"
        )
    if cert_x.variable.domain != kappa.codomain or cert_y.variable.domain != eta.codomain:
        raise ScopeMismatch("certificate variables do not live on the scope codomains")

    combined = RealRV(
        Product(kappa.codomain, eta.codomain),
        [a + b for a in cert_x.variable.values for b in cert_y.variable.values],
    )
    scope = KernelScope(comp_prod(kappa, eta), nu)
    return certify_grid(
        combined, scope, cert_x.constant + cert_y.constant, grid_t, grid_step
    )


class HoeffdingReport(Record):
    __slots__ = ("exact_tail", "bound", "holds", "n", "threshold", "certificate")

    def as_dict(self):
        return {
            "exactTail": _format_rational(self.exact_tail),
            "bound": self.bound,
            "holds": self.holds,
        }


def hoeffding_check(
    x: RealRV, mu: Measure, sigma_sq, n: int, t
) -> HoeffdingReport:
    """Exact tail of an n-fold independent sum against exp(-t^2 / (2 n sigma^2)).

    The tail P(sum >= t) is computed by exact convolution of the value
    distribution, so `holds` compares an exact rational against the float
    bound with no statistical or rounding doubt on the left side.  The law is
    an integer row: weights over mu's denominator at the integer positions
    v * scale, where scale is the lcm of the denominators of the values that
    carry mass.  A convolution of more than MAX_HOEFFDING_WORK pair-bits is
    refused before the variable is certified.
    The variable must certify sub-Gaussian with constant sigma^2 first: by
    bounded range if that gives a constant <= sigma^2, otherwise by an
    explicit grid check at sigma^2.  sigma_sq=None takes the bounded-range
    constant, and a nonzero mean is raised as NonzeroMean.
    """
    t = Fraction(t)
    if n < 1:
        raise KernelAlgError("n must be at least 1")
    if t <= 0:
        raise KernelAlgError("threshold t must be positive")
    if sigma_sq is not None and Fraction(sigma_sq) <= 0:
        raise NotCertified("sigma^2 must be positive")
    scope = PlainMeasureScope(mu)
    (row,) = _scope_rows(x, scope)
    mass = [(m, v) for m, v in zip(row.nums, x.values) if m]
    scale = math.lcm(*(v.denominator for _, v in mass))
    law: dict = {}
    for m, v in mass:
        key = v.numerator * (scale // v.denominator)
        law[key] = law.get(key, 0) + m
    _check_convolution_size(law, n, row.den)
    if sigma_sq is None:
        certificate = certify_bounded_range(x, scope)
        sigma_sq = certificate.constant
        if sigma_sq <= 0:
            raise NotCertified("sigma^2 must be positive")
    else:
        sigma_sq = Fraction(sigma_sq)
        try:
            certificate = certify_bounded_range(x, scope)
            if certificate.constant > sigma_sq:
                certificate = certify_grid(
                    x, scope, sigma_sq, Fraction(10), Fraction(1, 100)
                )
        except (NonzeroMean, GridViolation) as exc:
            raise NotCertified(
                "variable does not certify sub-Gaussian at "
                f"{_format_rational(sigma_sq)}: {exc}"
            ) from exc

    total = dict(law)
    for _ in range(n - 1):
        nxt: dict = {}
        for s, p in total.items():
            for v, q in law.items():
                key = s + v
                nxt[key] = nxt.get(key, 0) + p * q
        total = nxt
    at = t * scale
    tail = Fraction(sum(p for s, p in total.items() if s >= at), row.den**n)
    bound = _exp(-t * t / (2 * n * sigma_sq))
    return HoeffdingReport(
        exact_tail=tail,
        bound=bound,
        holds=tail <= Fraction(bound),
        n=n,
        threshold=t,
        certificate=certificate,
    )


def _check_convolution_size(law: dict, n: int, den: int):
    """Refuse an n-fold convolution of `law` past MAX_HOEFFDING_WORK.

    Its k positions lie on a lattice of step delta (the gcd of their
    differences) spanning L steps, so the i-fold law has at most i*L + 1
    positions and the n - 1 rounds visit at most k * (L*n(n-1)/2 + n - 1)
    (sum, value) pairs.  Each pair multiplies weights of at most den**n, so
    of at most n * den.bit_length() bits, plus PAIR_OVERHEAD_BITS fixed."""
    keys = sorted(law)
    delta = math.gcd(*(key - keys[0] for key in keys))
    span = (keys[-1] - keys[0]) // delta if delta else 0
    pairs = len(keys) * (span * n * (n - 1) // 2 + n - 1)
    bits = n * den.bit_length()
    work = pairs * (bits + PAIR_OVERHEAD_BITS)
    if work > MAX_HOEFFDING_WORK:
        pairs_text, work_text = _format_rational(pairs), _format_rational(work)
        raise KernelAlgError(
            f"the {n}-fold convolution visits up to {pairs_text} (sum, value) "
            f"pairs of weights of up to {bits} bits, {pairs_text} * ({bits} + "
            f"{PAIR_OVERHEAD_BITS}) = {work_text} pair-bits, above the limit of "
            f"{MAX_HOEFFDING_WORK}"
        )
