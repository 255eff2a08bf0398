"""Exact algebra of Markov kernels on finite measurable spaces.

Every public name below resolves on its first access, importing only the
module that defines it (PEP 562), so `import kernelalg` and a CLI call load
no module they do not use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "scalar": ("ONE", "ZERO", "Scalar"),
    "spaces": ("UNIT", "Base", "FiniteSpace", "Product", "SpaceExpr", "Unit"),
    "measures": ("Kernel", "Measure", "dirac", "uniform", "zero_measure"),
    "variables": ("PartitionSigma", "RandomVariable", "RealRV", "pair_rv"),
    "algebra": (
        "add_kernels",
        "assoc_inv_kernel",
        "assoc_kernel",
        "comp_measure",
        "comp_prod",
        "comp_prod_measure",
        "comp_prod_via_primitives",
        "compose",
        "const_kernel",
        "copy_kernel",
        "deterministic",
        "discard_kernel",
        "identity_kernel",
        "marginal_fst",
        "marginal_snd",
        "marginals",
        "measure_as_kernel",
        "parallel",
        "prod",
        "prod_mk_left",
        "prod_mk_right",
        "pushforward",
        "rebracket_kernel",
        "swap_kernel",
        "zero_kernel",
    ),
    "disintegration": (
        "DensityTable",
        "RNDecomposition",
        "absolutely_continuous",
        "cond_kernel",
        "cond_kernel_measure",
        "is_cond_kernel",
        "rn_decomposition",
        "rn_deriv",
        "singular_part",
        "with_density",
    ),
    "bayes": ("BayesReport", "bayes_check", "posterior"),
    "conditioning": (
        "cond_distrib",
        "cond_exp",
        "cond_exp_kernel",
        "cond_indep_fun",
        "cond_indep_iff_cond_distrib",
        "indep_fun",
        "kernel_indep_fun",
    ),
    "sequential": (
        "KernelChain",
        "SplitMix64",
        "flatten_trajectory",
        "markov_chain",
        "projection_consistency",
        "sample",
        "traj_kernel",
        "trajectory_law",
    ),
    "analytics": (
        "HoeffdingReport",
        "KernelScope",
        "PlainMeasureScope",
        "SubgaussianCertificate",
        "certify_bounded_range",
        "certify_grid",
        "certify_subgaussian",
        "cond_entropy",
        "cond_kl",
        "data_processing",
        "entropy",
        "hoeffding_check",
        "kernel_entropy",
        "kl_chain_rule",
        "kl_div",
        "mgf",
        "renyi_div",
        "subgaussian_add_comp_prod",
    ),
    "document": ("Document", "parse_document", "serialize_document"),
    "exprlang": ("eval_expr", "infer_type", "parse_expr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
