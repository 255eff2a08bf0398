"""What a CLI call imports, the public names of the package, and late binding.

A call loads only its subcommand's modules, and reads every library function
as a module attribute when it runs, so a rebound attribute is what runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kernelalg
from kernelalg import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WEATHER = str(ROOT / "docs" / "weather.kd")  # declares chain c = markov(mu, k, 3)
RADEMACHER = str(ROOT / "docs" / "rademacher.kd")

# Run in a fresh interpreter: sys.modules before and after `import kernelalg`,
# then after cli.main(argv), written to the file named by argv[1].
CHILD = """
import sys
before = set(sys.modules)
import kernelalg
imported = set(sys.modules)
from kernelalg import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write(repr((code, sorted(imported - before), sorted(set(sys.modules) - before))))
"""

# argv -> modules of the package that the call must not load
NOT_LOADED = {
    ("eval", WEATHER, "--expr", "mu"): {
        "analytics", "laws", "bayes", "conditioning", "disintegration", "jsonio",
    },
    ("eval", WEATHER, "--expr", "kl(mu, nu)", "--json"): {
        "laws", "bayes", "conditioning", "disintegration",
    },
    ("check", WEATHER, "--laws", "all"): {"analytics", "exprlang", "jsonio"},
    ("simulate", WEATHER, "--chain", "c", "-n", "2", "--seed", "42", "--count", "5"): {
        "analytics", "laws", "bayes", "conditioning", "disintegration", "exprlang",
        "jsonio",
    },
    ("hoeffding", RADEMACHER, "--rv", "X", "--measure", "mu", "-n", "10", "-t", "4"): {
        "laws", "bayes", "conditioning", "disintegration", "exprlang", "sequential",
        "jsonio",
    },
}


def run_child(argv, tmp_path):
    out = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", CHILD, str(out), *argv],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    code, imported, loaded = ast.literal_eval(out.read_text())
    return code, set(imported), set(loaded)


@pytest.mark.parametrize("argv", list(NOT_LOADED), ids=lambda a: " ".join(a[:1] + a[2:]))
def test_a_call_loads_only_its_subcommand_modules(argv, tmp_path):
    code, imported, loaded = run_child(argv, tmp_path)
    assert code == 0
    assert {m for m in imported if m.startswith("kernelalg.")} == set()
    assert {f"kernelalg.{m}" for m in NOT_LOADED[argv]} & loaded == set()
    assert "dataclasses" not in loaded
    assert "kernelalg.cli" in loaded


# Every name `kernelalg` exported before its names resolved lazily, by defining module.
PUBLIC = {
    "scalar": ["ONE", "ZERO", "Scalar"],
    "spaces": ["UNIT", "Base", "FiniteSpace", "Product", "SpaceExpr", "Unit"],
    "measures": ["Kernel", "Measure", "dirac", "uniform", "zero_measure"],
    "variables": ["PartitionSigma", "RandomVariable", "RealRV", "pair_rv"],
    "algebra": [
        "add_kernels", "assoc_inv_kernel", "assoc_kernel", "comp_measure", "comp_prod",
        "comp_prod_measure", "comp_prod_via_primitives", "compose", "const_kernel",
        "copy_kernel", "deterministic", "discard_kernel", "identity_kernel",
        "marginal_fst", "marginal_snd", "marginals", "measure_as_kernel", "parallel",
        "prod", "prod_mk_left", "prod_mk_right", "pushforward", "rebracket_kernel",
        "swap_kernel", "zero_kernel",
    ],
    "disintegration": [
        "DensityTable", "RNDecomposition", "absolutely_continuous", "cond_kernel",
        "cond_kernel_measure", "is_cond_kernel", "rn_decomposition", "rn_deriv",
        "singular_part", "with_density",
    ],
    "bayes": ["BayesReport", "bayes_check", "posterior"],
    "conditioning": [
        "cond_distrib", "cond_exp", "cond_exp_kernel", "cond_indep_fun",
        "cond_indep_iff_cond_distrib", "indep_fun", "kernel_indep_fun",
    ],
    "sequential": [
        "KernelChain", "SplitMix64", "flatten_trajectory", "markov_chain",
        "projection_consistency", "sample", "traj_kernel", "trajectory_law",
    ],
    "analytics": [
        "HoeffdingReport", "KernelScope", "PlainMeasureScope", "SubgaussianCertificate",
        "certify_bounded_range", "certify_grid", "certify_subgaussian", "cond_entropy",
        "cond_kl", "data_processing", "entropy", "hoeffding_check", "kernel_entropy",
        "kl_chain_rule", "kl_div", "mgf", "renyi_div", "subgaussian_add_comp_prod",
    ],
    "document": ["Document", "parse_document", "serialize_document"],
    "exprlang": ["eval_expr", "infer_type", "parse_expr"],
}
NAMES = [name for names in PUBLIC.values() for name in names]


def test_public_names_resolve_to_their_defining_objects():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"kernelalg.{module}")
        for name in names:
            assert getattr(kernelalg, name) is getattr(defining, name), name
    assert sorted(kernelalg.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(kernelalg))
    star = {}
    exec("from kernelalg import *", star)
    assert set(NAMES) <= set(star)
    assert kernelalg.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as exc:
        kernelalg.no_such_name
    assert str(exc.value) == "module 'kernelalg' has no attribute 'no_such_name'"
    assert not hasattr(kernelalg, "no_such_name")
    with pytest.raises(ImportError):
        exec("from kernelalg import no_such_name", {})


# (module, function) -> a call that runs it
LATE_BOUND = {
    ("bayes", "posterior"): ["eval", WEATHER, "--expr", "posterior(k, mu)"],
    ("algebra", "compose"): ["eval", WEATHER, "--expr", "comp(k, k)"],
    ("laws", "run_laws"): ["check", WEATHER, "--laws", "all"],
    ("sequential", "_columns"): [
        "simulate", WEATHER, "--chain", "c", "-n", "2", "--seed", "42", "--count", "5",
    ],
    ("analytics", "hoeffding_check"): [
        "hoeffding", RADEMACHER, "--rv", "X", "--measure", "mu", "-n", "10", "-t", "4",
    ],
}


@pytest.mark.parametrize("target", list(LATE_BOUND), ids=".".join)
def test_calls_read_rebound_module_attributes(target, monkeypatch, capsys):
    module = importlib.import_module(f"kernelalg.{target[0]}")
    real = getattr(module, target[1])
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, target[1], counting)
    assert cli.main(LATE_BOUND[target]) == 0
    assert len(calls) >= 1
    capsys.readouterr()
