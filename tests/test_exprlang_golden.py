"""Golden table for the expression language.

Every operator is evaluated through `kernelalg eval` (plain and `--json`) on a
document holding every declaration sort, and every error path (unknown
operator, arity, each parameter kind given the wrong thing, each type rule's
failure) is raised by one expression with a single error.  The recorded
stdout, exit code, exception class, message and line:col must not change.

Expressions with more than one error are kept out: which error is reported
first is not part of the contract.

    PYTHONPATH=src python tests/test_exprlang_golden.py

rewrites `data/exprlang/golden.json` from the cases below.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from kernelalg.cli import main
from kernelalg.document import parse_document
from kernelalg.errors import KernelAlgError
from kernelalg.exprlang import eval_expr, infer_type, parse_expr

DATA = Path(__file__).parent / "data" / "exprlang"
DOC_PATH = DATA / "every_sort.kd"
GOLDEN_PATH = DATA / "golden.json"

EVAL_CASES = [
    "k",
    "rho",
    "comp(k, k)",
    "parallel(k, h)",
    "prod(k, h)",
    "compProd(k, snd(idk((W x W))))",
    "condKernel(wide)",
    "condKernel(rho)",
    "posterior(k, nu)",
    "mcomp(k, nu)",
    "mcompProd(nu, k)",
    "fst(wide)",
    "fst(rho)",
    "snd(wide)",
    "snd(rho)",
    "swapOn(W, (A x B))",
    "assocOn(W, A, B)",
    "assocInvOn(W, unit, (A x B))",
    "det(side)",
    "const(A, nu)",
    "copy(W)",
    "discard(A)",
    "idk(unit)",
    "rnDeriv(k, h)",
    "rnDeriv(h, k)",
    "singular(k, h)",
    "entropy(nu)",
    "kentropy(k, nu)",
    "kl(mu, nu)",
    "kl(mu, pt)",
    "condkl(k, h, nu)",
    "condkl(h, k, nu)",
    "renyi(1/2, mu, nu)",
    "renyi(1/3, nu, mu)",
    "indep(ident, swapper, mu)",
    "indep(side, ident, pt)",
    "condindep(ident, swapper, ident, mu)",
    "traj(c, 2)",
    "renyi(1, mu, nu)",
]

ERROR_CASES = [
    # parsing
    "nosuch(k)",
    "comp(k)",
    "entropy()",
    "comp(k, k) k",
    "comp(, k)",
    "renyi(1/0, mu, nu)",
    "swapOn((W y A), W)",
    "swapOn((W x ,), W)",
    # arity, one per operator
    "comp(k, k, k)",
    "parallel(k, k, k)",
    "prod(k, k, k)",
    "compProd(k, k, k)",
    "condKernel(k, k)",
    "posterior(k, k, k)",
    "mcomp(k, k, k)",
    "mcompProd(k, k, k)",
    "fst(k, k)",
    "snd(k, k)",
    "swapOn(k, k, k)",
    "assocOn(k, k, k, k)",
    "assocInvOn(k, k, k, k)",
    "det(k, k)",
    "const(k, k, k)",
    "copy(k, k)",
    "discard(k, k)",
    "idk(k, k)",
    "rnDeriv(k, k, k)",
    "singular(k, k, k)",
    "entropy(k, k)",
    "kentropy(k, k, k)",
    "kl(k, k, k)",
    "condkl(k, k, k, k)",
    "renyi(k, k, k, k)",
    "indep(k, k, k, k)",
    "condindep(k, k, k, k, k)",
    "traj(k, k, k)",
    # bare names and literals
    "missing",
    "W",
    "twin",
    "1/2",
    "unit",
    "(W x A)",
    # kernel parameters
    "comp(k, mu)",
    "comp(k, 1/2)",
    "comp(unit, k)",
    "comp((W x A), k)",
    "comp(k, kl(mu, mu))",
    "comp(k, missing)",
    "comp(k, W)",
    "comp(k, twin)",
    # measure parameters
    "mcomp(k, k)",
    "mcompProd(k, k)",
    "const(W, k)",
    "kl(mu, indep(ident, swapper, mu))",
    # kernel-or-measure parameters
    "fst(entropy(mu))",
    "snd(kl(mu, nu))",
    "condKernel(indep(ident, swapper, mu))",
    "condKernel(rnDeriv(k, k))",
    "fst(1)",
    # space parameters
    "idk(comp(k, k))",
    "copy(1)",
    "discard(Q)",
    "swapOn((W x Q), A)",
    "idk(k)",
    "assocOn(W, A, mu)",
    # rv parameters
    "det(k)",
    "det(unit)",
    "det(1)",
    "indep(ident, comp(k, k), mu)",
    # chain parameters
    "traj(k, 2)",
    "traj(1, 2)",
    # rational and integer parameters
    "renyi(mu, mu, nu)",
    "traj(c, 1/2)",
    "traj(c, mu)",
    # type rules
    "comp(k, wide)",
    "prod(k, posterior(wide, mu))",
    "compProd(k, k)",
    "condKernel(k)",
    "condKernel(mu)",
    "posterior(k, rho)",
    "mcomp(k, rho)",
    "mcompProd(rho, k)",
    "fst(k)",
    "fst(mu)",
    "snd(k)",
    "snd(mu)",
    "rnDeriv(k, wide)",
    "singular(wide, k)",
    "kentropy(k, rho)",
    "kl(mu, rho)",
    "condkl(k, wide, mu)",
    "condkl(k, k, rho)",
    "renyi(1/2, mu, rho)",
    "indep(ident, pick, mu)",
    "indep(ident, swapper, rho)",
    "condindep(ident, swapper, pick, mu)",
    "condindep(ident, swapper, ident, rho)",
    "traj(c, 4)",
    "traj(c, 0)",
    # a type rule failing below the top of the expression
    "kl(fst(rho), mcomp(k, rho))",
    # evaluation errors, which carry no position
    "renyi(1, mu, nu)",
    "renyi(2, nu, pt)",
]


def eval_outcome(expr, as_json):
    argv = ["eval", str(DOC_PATH), "--expr", expr] + (["--json"] if as_json else [])
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def error_outcome(expr):
    doc = parse_document(DOC_PATH.read_text())
    try:
        node = parse_expr(expr)
        infer_type(doc, node)
        eval_expr(doc, node)
    except KernelAlgError as exc:
        return {
            "class": type(exc).__name__,
            "message": str(exc),
            "line": getattr(exc, "line", None),
            "col": getattr(exc, "column", None),
        }
    raise AssertionError(f"{expr!r} raised no error")


def record():
    return {
        "eval": {
            expr: {"plain": eval_outcome(expr, False), "json": eval_outcome(expr, True)}
            for expr in EVAL_CASES
        },
        "errors": {expr: error_outcome(expr) for expr in ERROR_CASES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_exactly_the_cases(golden):
    assert list(golden["eval"]) == EVAL_CASES
    assert list(golden["errors"]) == ERROR_CASES


@pytest.mark.parametrize("expr", EVAL_CASES)
def test_eval_output_matches_golden(golden, expr):
    expected = golden["eval"][expr]
    assert eval_outcome(expr, False) == expected["plain"]
    assert eval_outcome(expr, True) == expected["json"]


@pytest.mark.parametrize("expr", ERROR_CASES)
def test_error_matches_golden(golden, expr):
    assert error_outcome(expr) == golden["errors"][expr]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
