import math
import re
from pathlib import Path

import pytest

from kernelalg.disintegration import DensityTable
from kernelalg.document import MAX_NESTING, parse_document
from kernelalg.errors import ArityError, ExprTypeError, KdSyntaxError, UnknownName
from kernelalg.exprlang import (
    OPERATORS,
    T_BOOL,
    T_FLOAT,
    TDensity,
    TKernel,
    TMeasure,
    eval_expr,
    infer_type,
    parse_expr,
)
from kernelalg.measures import Kernel, Measure
from kernelalg.scalar import Scalar
from kernelalg.spaces import Product


DOC = parse_document(
    """
space W { good bad }
space A { a b }
space B { 0 1 }

measure mu on W = { good: 1/2, bad: 1/2 }
measure nu on W = { good: 1/4, bad: 3/4 }
measure rho on (A x B) = { (a,0): 1/4, (a,1): 1/4, (b,0): 1/2, (b,1): 0 }

kernel k : W -> W = {
  good: { good: 4/5, bad: 1/5 }
  bad: { good: 2/5, bad: 3/5 }
}

kernel wide : W -> (A x B) = {
  good: { (a,0): 1/2, (a,1): 0, (b,0): 1/4, (b,1): 1/4 }
  bad: { (a,0): 0, (a,1): 1/3, (b,0): 1/3, (b,1): 1/3 }
}

rv swapper : W -> W = { good -> bad, bad -> good }
rv ident : W -> W = { good -> good, bad -> bad }
rv side : W -> A = { good -> a, bad -> b }

realrv score on W = { good: 1, bad: -1 }

chain c = markov(mu, k, 3)
"""
)


def ev(text):
    node = parse_expr(text)
    infer_type(DOC, node)
    return eval_expr(DOC, node)


def ty(text):
    return infer_type(DOC, parse_expr(text))


def test_weather_composition():
    value = ev("comp(k, k)")
    assert isinstance(value, Kernel)
    assert value.weight("good", "good") == Scalar(18, 25)


def test_type_of_composition():
    t = ty("comp(k, k)")
    assert t == TKernel(DOC.spaces["W"], DOC.spaces["W"])


def test_sort_mismatch_is_type_error():
    with pytest.raises(ExprTypeError):
        ty("comp(k, mu)")


def test_kl_zero():
    assert ev("kl(mu, mu)") == 0.0


def test_measure_ops():
    pushed = ev("mcomp(k, mu)")
    assert pushed.weight("good") == Scalar(3, 5)
    joint = ev("mcompProd(mu, k)")
    assert joint.weight(("good", "bad")) == Scalar(1, 10)
    assert ev("fst(rho)").weight("a") == Scalar(1, 2)
    assert ev("snd(rho)").weight("0") == Scalar(3, 4)


def test_structural_ops():
    ident = ev("idk(W)")
    assert ident == ev("det(ident)")
    cp = ev("copy(W)")
    assert cp.weight("good", ("good", "good")) == Scalar(1)
    disc = ev("discard(W)")
    assert disc.codomain.size == 1
    const = ev("const(A, mu)")
    assert const.domain == DOC.spaces["A"]
    sw = ev("swapOn(W, A)")
    assert sw.weight(("good", "a"), ("a", "good")) == Scalar(1)
    assoc = ev("assocOn(W, A, B)")
    inv = ev("assocInvOn(W, A, B)")
    from kernelalg import algebra as alg

    assert alg.compose(inv, assoc) == alg.identity_kernel(assoc.domain)


def test_cond_kernel_and_posterior():
    ck = ev("condKernel(rho)")
    assert ck.row("a").weight("0") == Scalar(1, 2)
    ck2 = ev("condKernel(wide)")
    assert ck2.domain == Product(DOC.spaces["W"], DOC.spaces["A"])
    post = ev("posterior(k, mu)")
    assert post.is_markov()


def test_rn_ops():
    dens = ev("rnDeriv(k, k)")
    assert all(str(v) in ("1",) for v in dens.values)
    sing = ev("singular(k, k)")
    assert all(w.is_zero() for row in sing.rows for w in row.weights)


def test_divergence_ops():
    assert abs(ev("kl(mu, nu)") - ev("kl(mu, nu)")) == 0.0
    assert math.isinf(ev("renyi(1/2, mu, nu)")) is False
    assert ev("condkl(k, k, mu)") == 0.0
    assert abs(ev("entropy(mu)") - math.log(2)) < 1e-12
    assert ev("kentropy(k, mu)") > 0


def test_independence_ops():
    assert ev("indep(ident, swapper, mu)") is False
    assert ev("condindep(ident, swapper, ident, mu)") is True


def test_traj_op():
    t = ev("traj(c, 2)")
    assert t.weight("good", ("good", "good")) == Scalar(16, 25)
    assert ty("traj(c, 2)") == TKernel(
        DOC.spaces["W"], Product(DOC.spaces["W"], DOC.spaces["W"])
    )
    with pytest.raises(ExprTypeError):
        ty("traj(c, 9)")


def test_comp_prod_bracketing_error_shows_both_spaces():
    doc = parse_document(
        """
space T { t }
space X { x0 x1 }
space Y { y0 y1 }
space Z { z0 z1 }

kernel k1 : T -> X = { t: { x0: 1/2, x1: 1/2 } }

kernel k2 : (T x X) -> Y = {
  (t,x0): { y0: 1, y1: 0 }
  (t,x1): { y0: 0, y1: 1 }
}

kernel wrongly : ((T x X) x Y) -> Z = {
  ((t,x0),y0): { z0: 1, z1: 0 }
  ((t,x0),y1): { z0: 1, z1: 0 }
  ((t,x1),y0): { z0: 1, z1: 0 }
  ((t,x1),y1): { z0: 1, z1: 0 }
}
"""
    )
    node = parse_expr("compProd(compProd(k1, k2), wrongly)")
    with pytest.raises(ExprTypeError) as exc:
        infer_type(doc, node)
    message = str(exc.value)
    assert "(T x (X x Y))" in message  # required bracketing
    assert "((T x X) x Y)" in message  # supplied bracketing


def test_unknown_and_ambiguous_names():
    with pytest.raises(UnknownName):
        ty("comp(k, missing)")
    with pytest.raises(UnknownName):
        ty("det(missing)")
    ambiguous = parse_document(
        """
space S { a }
measure twin on S = { a: 1 }
kernel twin : S -> S = { a: { a: 1 } }
"""
    )
    with pytest.raises(ExprTypeError):
        infer_type(ambiguous, parse_expr("twin"))


def test_arity_and_syntax_errors():
    with pytest.raises(ArityError):
        parse_expr("comp(k)")
    with pytest.raises(KdSyntaxError):
        parse_expr("comp(k, k) trailing")
    with pytest.raises(UnknownName):
        parse_expr("nosuchop(k)")
    # Space expressions share the .kd grammar and its messages.
    with pytest.raises(
        KdSyntaxError, match="1:12: expected a space expression, got 'end of input'"
    ):
        parse_expr("swapOn((W x")


# A case for every operator.  Where a case's spaces coincide (k : W -> W), a
# second one tells domain from codomain; fst, snd and condKernel get a kernel
# and a measure.
PREDICTION_CASES = {
    "comp": ["comp(k, k)", "comp(wide, const(A, mu))"],
    "parallel": ["parallel(k, k)", "parallel(k, wide)"],
    "prod": ["prod(k, k)", "prod(k, wide)"],
    "compProd": ["compProd(k, const((W x W), rho))"],
    "condKernel": ["condKernel(wide)", "condKernel(rho)"],
    "posterior": ["posterior(k, mu)", "posterior(wide, mu)"],
    "mcomp": ["mcomp(k, mu)", "mcomp(wide, mu)"],
    "mcompProd": ["mcompProd(mu, k)", "mcompProd(mu, wide)"],
    "fst": ["fst(rho)", "fst(wide)"],
    "snd": ["snd(rho)", "snd(wide)"],
    "swapOn": ["swapOn(W, (A x B))"],
    "assocOn": ["assocOn(W, A, B)"],
    "assocInvOn": ["assocInvOn(W, (A x unit), B)"],
    "det": ["det(swapper)", "det(side)"],
    "const": ["const(A, mu)"],
    "copy": ["copy((A x B))"],
    "discard": ["discard(W)"],
    "idk": ["idk(unit)", "idk((A x B))"],
    "rnDeriv": ["rnDeriv(wide, wide)"],
    "singular": ["singular(wide, wide)"],
    "entropy": ["entropy(rho)"],
    "kentropy": ["kentropy(k, mu)"],
    "kl": ["kl(mu, nu)"],
    "condkl": ["condkl(k, k, mu)"],
    "renyi": ["renyi(1/2, mu, nu)"],
    "indep": ["indep(ident, swapper, mu)"],
    "condindep": ["condindep(ident, swapper, ident, mu)"],
    "traj": ["traj(c, 3)"],
}


def test_expression_nesting_is_capped():
    space, atom = "W", "a"
    for _ in range(MAX_NESTING):
        space, atom = f"({space} x W)", f"({atom},a)"
    doc = parse_document(f"space W {{ a }}\nmeasure m on {space} = {{ {atom}: 1 }}")
    node = parse_expr("fst(" * MAX_NESTING + "m" + ")" * MAX_NESTING)
    w = doc.spaces["W"]
    assert infer_type(doc, node) == TMeasure(w)
    assert eval_expr(doc, node) == Measure(w, [1])
    with pytest.raises(KdSyntaxError) as exc:
        parse_expr("fst(" * 2000 + "m" + ")" * 2000)
    assert (exc.value.line, exc.value.column) == (1, 4 * (MAX_NESTING + 1))


def test_typechecker_predicts_result_spaces():
    assert set(PREDICTION_CASES) == set(OPERATORS)
    for op, texts in PREDICTION_CASES.items():
        for text in texts:
            assert parse_expr(text).op == op
            t = ty(text)
            value = ev(text)
            if isinstance(t, TKernel):
                assert isinstance(value, Kernel), text
                assert (value.domain, value.codomain) == (t.dom, t.cod), text
            elif isinstance(t, TMeasure):
                assert isinstance(value, Measure), text
                assert value.space == t.space, text
            elif isinstance(t, TDensity):
                assert isinstance(value, DensityTable), text
                assert value.domain == t.space, text
            elif t == T_FLOAT:
                assert isinstance(value, float), text
            else:
                assert t == T_BOOL and isinstance(value, bool), text


def test_readme_lists_every_operator_with_its_kinds():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)\([^|]*\| ([^|]*?) +\|", readme, re.M)
    listed = {name: tuple(kinds.split(", ")) for name, kinds in rows}
    assert len(listed) == len(rows)
    assert set(listed) == set(OPERATORS)
    for name, op in OPERATORS.items():
        assert listed[name] == op.kinds, name
