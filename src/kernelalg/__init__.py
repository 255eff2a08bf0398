"""Exact algebra of Markov kernels on finite measurable spaces."""

from .scalar import ONE, ZERO, Scalar
from .spaces import UNIT, Base, FiniteSpace, Product, SpaceExpr, Unit
from .measures import Kernel, Measure, dirac, uniform, zero_measure
from .variables import PartitionSigma, RandomVariable, RealRV, pair_rv
from .algebra import (
    add_kernels,
    assoc_inv_kernel,
    assoc_kernel,
    comp_measure,
    comp_prod,
    comp_prod_measure,
    comp_prod_via_primitives,
    compose,
    const_kernel,
    copy_kernel,
    deterministic,
    discard_kernel,
    identity_kernel,
    marginal_fst,
    marginal_snd,
    marginals,
    measure_as_kernel,
    parallel,
    prod,
    prod_mk_left,
    prod_mk_right,
    pushforward,
    rebracket_kernel,
    swap_kernel,
    zero_kernel,
)
from .disintegration import (
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
from .bayes import BayesReport, bayes_check, posterior
from .conditioning import (
    cond_distrib,
    cond_exp,
    cond_exp_kernel,
    cond_indep_fun,
    cond_indep_iff_cond_distrib,
    indep_fun,
    kernel_indep_fun,
)
from .sequential import (
    KernelChain,
    SplitMix64,
    flatten_trajectory,
    markov_chain,
    projection_consistency,
    sample,
    traj_kernel,
    trajectory_law,
)
from .analytics import (
    HoeffdingReport,
    KernelScope,
    PlainMeasureScope,
    SubgaussianCertificate,
    certify_bounded_range,
    certify_grid,
    certify_subgaussian,
    cond_entropy,
    cond_kl,
    data_processing,
    entropy,
    hoeffding_check,
    kernel_entropy,
    kl_chain_rule,
    kl_div,
    mgf,
    renyi_div,
    subgaussian_add_comp_prod,
)
from .document import Document, parse_document, serialize_document
from .exprlang import eval_expr, infer_type, parse_expr

__version__ = "0.1.0"
