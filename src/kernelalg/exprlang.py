"""Prefix-call expression language over a parsed document.

Expressions are typechecked before anything is evaluated: every subexpression
resolves to a sort (kernel with its domain and codomain, measure with its
space, density table, float, boolean) and any mismatch is reported with the
full space expressions on both sides, which makes forgotten rebracketings
visible at a glance.  Evaluation then dispatches to the core modules.  Each
operator is declared once, in `OPERATORS`, with its parameter kinds, type
rule and evaluator.

Grammar: a call `op(arg, ...)`, a bare name declared in the document, a space
expression (`unit` or `(S x T)`), or a rational literal, depending on the
operator's parameter kinds.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import import_module

from .document import Document, Tokenizer, _parse_rational, _parse_space_expr
from .errors import ArityError, ExprTypeError, KdSyntaxError, UnknownName
from .measures import Kernel
from .records import Record
from .spaces import UNIT, Product, SpaceExpr
from .variables import PartitionSigma

__all__ = ["parse_expr", "infer_type", "eval_expr", "TKernel", "TMeasure"]


class _Module:
    """A module of this package, imported on the first attribute read.

    Every read goes through the module, so an evaluator calls whatever
    function the module binds at that moment.  Parsing and typechecking an
    expression import none of these modules.
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = f"{__package__}.{name}"

    def __getattr__(self, attr):
        return getattr(import_module(self.name), attr)


alg = _Module("algebra")
analytics = _Module("analytics")
bayes = _Module("bayes")
conditioning = _Module("conditioning")
disintegration = _Module("disintegration")
sequential = _Module("sequential")


# -- AST -----------------------------------------------------------------------


class Call(Record):
    __slots__ = ("op", "args", "line", "col")


class Name(Record):
    __slots__ = ("text", "line", "col")


class SpaceArg(Record):
    # space is a SpaceExpr, a Name, or a (left, right) pair of these
    __slots__ = ("space", "line", "col")


class RatArg(Record):
    __slots__ = ("value", "line", "col")


# -- types ------------------------------------------------------------------------


class TKernel(Record):
    __slots__ = ("dom", "cod")

    def __str__(self):
        return f"kernel {self.dom} -> {self.cod}"


class TMeasure(Record):
    __slots__ = ("space",)

    def __str__(self):
        return f"measure on {self.space}"


class TDensity(Record):
    __slots__ = ("space",)

    def __str__(self):
        return f"density on {self.space}"


T_FLOAT = "float"
T_BOOL = "boolean"


# -- parsing -----------------------------------------------------------------------


def parse_expr(text: str):
    tz = Tokenizer(text)
    node = _parse_node(tz)
    tail = tz.peek()
    if tail.kind != "eof":
        raise KdSyntaxError(
            f"trailing input {tail.text!r} after expression", tail.line, tail.col
        )
    return node


def _parse_node(tz: Tokenizer):
    tok = tz.peek()
    if tok.kind == "(" or (tok.kind == "ident" and tok.text == "unit"):
        # Space names are resolved when the expression is typechecked.
        space = _parse_space_expr(
            tz, lambda t: Name(t.text, t.line, t.col), lambda s, t: (s, t)
        )
        return SpaceArg(space, tok.line, tok.col)
    if tok.kind == "ident":
        tz.next()
        if tz.at("("):
            if tok.text not in OPERATORS:
                raise UnknownName(
                    f"unknown operator {tok.text!r}", tok.line, tok.col
                )
            tz.next()
            args = []
            if not tz.at(")"):
                args.append(_parse_node(tz))
                while tz.at(","):
                    tz.next()
                    args.append(_parse_node(tz))
            tz.expect(")")
            arity = len(OPERATORS[tok.text].kinds)
            if len(args) != arity:
                raise ArityError(
                    f"{tok.text} takes {arity} arguments, got {len(args)}",
                    tok.line,
                    tok.col,
                )
            return Call(tok.text, args, tok.line, tok.col)
        return Name(tok.text, tok.line, tok.col)
    if tok.kind == "int":
        return RatArg(_parse_rational(tz), tok.line, tok.col)
    raise KdSyntaxError(
        f"unexpected token {tok.text or 'end of input'!r} in expression",
        tok.line,
        tok.col,
    )


# -- argument resolution -------------------------------------------------------------


def _fail(node, message):
    raise ExprTypeError(message, node.line, node.col)


def _space_arg(doc: Document, node) -> SpaceExpr:
    if isinstance(node, SpaceArg):
        node = node.space
    if isinstance(node, Name):
        return doc.lookup("space", node.text, node)
    if isinstance(node, SpaceExpr):
        return node
    if isinstance(node, tuple):
        return Product(_space_arg(doc, node[0]), _space_arg(doc, node[1]))
    _fail(node, "expected a space expression here")


def _named_arg(sort, what):
    def resolve(doc: Document, node):
        if not isinstance(node, Name):
            _fail(node, f"expected the name of {what} here")
        return doc.lookup(sort, node.text, node)

    return resolve


def _rat_arg(doc: Document, node) -> Fraction:
    if not isinstance(node, RatArg):
        _fail(node, "expected a rational literal here")
    return node.value


def _int_arg(doc: Document, node) -> int:
    if not (isinstance(node, RatArg) and node.value.denominator == 1):
        _fail(node, "expected an integer literal here")
    return int(node.value)


# Parameter kinds whose argument is not an expression: its type and its value
# are the same resolved object.
_LEAF_KINDS = {
    "space": _space_arg,
    "rv": _named_arg("rv", "an rv"),
    "chain": _named_arg("chain", "a chain"),
    "rat": _rat_arg,
    "int": _int_arg,
}
# Expression kinds checked before the type rule runs; "expr" (kernel or
# measure) is left to the rule.
_SORT_KINDS = {"kernel": TKernel, "measure": TMeasure}


def _name_sorts(doc: Document, node: Name):
    found = []
    if node.text in doc.kernels:
        found.append(("kernel", doc.kernels[node.text]))
    if node.text in doc.measures:
        found.append(("measure", doc.measures[node.text]))
    return found


# -- typechecking -----------------------------------------------------------------------


def infer_type(doc: Document, node):
    """Resolve the sort and spaces of an expression, or raise ExprTypeError."""
    if isinstance(node, Name):
        found = _name_sorts(doc, node)
        if not found:
            raise UnknownName(
                f"no kernel or measure named {node.text!r}", node.line, node.col
            )
        if len(found) > 1:
            _fail(node, f"name {node.text!r} is both a kernel and a measure; rename one")
        sort, obj = found[0]
        if sort == "kernel":
            return TKernel(obj.domain, obj.codomain)
        return TMeasure(obj.space)
    if isinstance(node, RatArg):
        _fail(node, "a bare rational is not an expression")
    if isinstance(node, SpaceArg):
        _fail(node, "a bare space expression is not an expression")
    op = OPERATORS[node.op]
    return op.rule(
        node, *(_arg_type(doc, kind, arg) for kind, arg in zip(op.kinds, node.args))
    )


def _arg_type(doc: Document, kind, node):
    if kind in _LEAF_KINDS:
        return _LEAF_KINDS[kind](doc, node)
    t = infer_type(doc, node)
    if kind in _SORT_KINDS and not isinstance(t, _SORT_KINDS[kind]):
        _fail(node, f"expected a {kind}, got {t}")
    return t


def _joint(node, t) -> Product:
    """The product space a kernel-or-measure argument splits."""
    if isinstance(t, TKernel):
        what, space = "the kernel codomain", t.cod
    elif isinstance(t, TMeasure):
        what, space = "the measure space", t.space
    else:
        _fail(node, f"{node.op} expects a kernel or measure, got {t}")
    if not isinstance(space, Product):
        _fail(node, f"{node.op}: {what} must be a product space, got {space}")
    return space


def _require_same_shape(node, f, g):
    if f != g:
        _fail(node, f"{node.op}: kernel shapes differ ({f} vs {g})")


def _require_same_space(node, m1, m2):
    if m1.space != m2.space:
        _fail(
            node,
            f"{node.op}: measures on different spaces ({m1.space} vs {m2.space})",
        )


def _require_on_domain(node, m, f):
    if m.space != f.dom:
        _fail(node, f"{node.op}: measure on {m.space}, kernel domain {f.dom}")


def _comp_type(node, f, g):
    if g.cod != f.dom:
        _fail(
            node,
            f"{node.op}: output space of the second kernel is "
            f"{g.cod} but the first kernel consumes {f.dom}",
        )
    return TKernel(g.dom, f.cod)


def _prod_type(node, f, g):
    if f.dom != g.dom:
        _fail(node, f"{node.op}: domains differ ({f.dom} vs {g.dom})")
    return TKernel(f.dom, Product(f.cod, g.cod))


def _comp_prod_type(node, f, g):
    expected = Product(f.dom, f.cod)
    if g.dom != expected:
        _fail(
            node,
            f"{node.op}: second kernel must have domain {expected} but has {g.dom}",
        )
    return TKernel(f.dom, Product(f.cod, g.cod))


def _cond_kernel_type(node, t):
    joint = _joint(node, t)
    if isinstance(t, TKernel):
        return TKernel(Product(t.dom, joint.left), joint.right)
    return TKernel(joint.left, joint.right)


def _marginal_type(side):
    def rule(node, t):
        space = getattr(_joint(node, t), side)
        return TKernel(t.dom, space) if isinstance(t, TKernel) else TMeasure(space)

    return rule


def _posterior_type(node, f, m):
    if m.space != f.dom:
        _fail(node, f"{node.op}: prior lives on {m.space}, kernel domain is {f.dom}")
    return TKernel(f.cod, f.dom)


def _mcomp_type(node, f, m):
    _require_on_domain(node, m, f)
    return TMeasure(f.cod)


def _mcomp_prod_type(node, m, f):
    _require_on_domain(node, m, f)
    return TMeasure(Product(f.dom, f.cod))


def _rn_deriv_type(node, f, g):
    _require_same_shape(node, f, g)
    return TDensity(Product(f.dom, f.cod))


def _singular_type(node, f, g):
    _require_same_shape(node, f, g)
    return f


def _kentropy_type(node, f, m):
    _require_on_domain(node, m, f)
    return T_FLOAT


def _kl_type(node, m1, m2):
    _require_same_space(node, m1, m2)
    return T_FLOAT


def _condkl_type(node, f, g, m):
    _require_same_shape(node, f, g)
    _require_on_domain(node, m, f)
    return T_FLOAT


def _renyi_type(node, alpha, m1, m2):
    _require_same_space(node, m1, m2)
    return T_FLOAT


def _indep_type(node, *args):
    *rvs, m = args
    if any(rv.domain != m.space for rv in rvs):
        domains = ", ".join(str(rv.domain) for rv in rvs)
        _fail(
            node,
            f"{node.op}: rv domains {domains} and measure space {m.space} "
            "must all agree",
        )
    return T_BOOL


def _traj_type(node, chain, n):
    if not 1 <= n <= len(chain.steps):
        _fail(node.args[1], f"horizon {n} outside 1..{len(chain.steps)}")
    outs = chain.output_spaces()
    traj_space = outs[0]
    for out in outs[1:n]:
        traj_space = Product(traj_space, out)
    return TKernel(chain.start, traj_space)


# -- evaluation ----------------------------------------------------------------------


def eval_expr(doc: Document, node):
    """Evaluate a typechecked expression to a core value."""
    if isinstance(node, Name):
        sort, obj = _name_sorts(doc, node)[0]
        return obj
    op = OPERATORS[node.op]
    return op.evaluate(
        *(_arg_value(doc, kind, arg) for kind, arg in zip(op.kinds, node.args))
    )


def _arg_value(doc: Document, kind, node):
    if kind in _LEAF_KINDS:
        return _LEAF_KINDS[kind](doc, node)
    return eval_expr(doc, node)


def _marginal(project, v):
    """project on a kernel, or on a measure viewed as a kernel from unit."""
    if isinstance(v, Kernel):
        return project(v)
    return alg.kernel_as_measure(project(alg.measure_as_kernel(v)))


# -- the operator table ----------------------------------------------------------------


class Operator(Record):
    """One operator: parameter kinds, type rule and evaluator.

    A kind is "kernel", "measure", "expr" (kernel or measure), "space", "rv",
    "chain", "rat" or "int".  The type rule receives the call node and the
    resolved argument types (for the non-expression kinds, the resolved
    space, rv, chain or number); the evaluator receives the resolved values.
    Evaluators name core functions at call time, as attributes of their
    modules, so rebinding a module-level name reaches every call.
    """

    __slots__ = ("kinds", "rule", "evaluate")


OPERATORS = {
    "comp": Operator(
        ("kernel", "kernel"), _comp_type, lambda f, g: alg.compose(f, g)
    ),
    "parallel": Operator(
        ("kernel", "kernel"),
        lambda node, f, g: TKernel(Product(f.dom, g.dom), Product(f.cod, g.cod)),
        lambda f, g: alg.parallel(f, g),
    ),
    "prod": Operator(("kernel", "kernel"), _prod_type, lambda f, g: alg.prod(f, g)),
    "compProd": Operator(
        ("kernel", "kernel"), _comp_prod_type, lambda f, g: alg.comp_prod(f, g)
    ),
    "condKernel": Operator(
        ("expr",),
        _cond_kernel_type,
        lambda v: disintegration.cond_kernel(v)
        if isinstance(v, Kernel)
        else disintegration.cond_kernel_measure(v),
    ),
    "posterior": Operator(
        ("kernel", "measure"), _posterior_type, lambda f, m: bayes.posterior(f, m)
    ),
    "mcomp": Operator(
        ("kernel", "measure"), _mcomp_type, lambda f, m: alg.comp_measure(f, m)
    ),
    "mcompProd": Operator(
        ("measure", "kernel"),
        _mcomp_prod_type,
        lambda m, f: alg.comp_prod_measure(m, f),
    ),
    "fst": Operator(
        ("expr",), _marginal_type("left"), lambda v: _marginal(alg.marginal_fst, v)
    ),
    "snd": Operator(
        ("expr",), _marginal_type("right"), lambda v: _marginal(alg.marginal_snd, v)
    ),
    "swapOn": Operator(
        ("space", "space"),
        lambda node, s, t: TKernel(Product(s, t), Product(t, s)),
        lambda s, t: alg.swap_kernel(s, t),
    ),
    "assocOn": Operator(
        ("space", "space", "space"),
        lambda node, a, b, c: TKernel(
            Product(a, Product(b, c)), Product(Product(a, b), c)
        ),
        lambda a, b, c: alg.assoc_kernel(a, b, c),
    ),
    "assocInvOn": Operator(
        ("space", "space", "space"),
        lambda node, a, b, c: TKernel(
            Product(Product(a, b), c), Product(a, Product(b, c))
        ),
        lambda a, b, c: alg.assoc_inv_kernel(a, b, c),
    ),
    "det": Operator(
        ("rv",),
        lambda node, rv: TKernel(rv.domain, rv.codomain),
        lambda rv: alg.deterministic(rv),
    ),
    "const": Operator(
        ("space", "measure"),
        lambda node, s, m: TKernel(s, m.space),
        lambda s, m: alg.const_kernel(s, m),
    ),
    "copy": Operator(
        ("space",),
        lambda node, s: TKernel(s, Product(s, s)),
        lambda s: alg.copy_kernel(s),
    ),
    "discard": Operator(
        ("space",), lambda node, s: TKernel(s, UNIT), lambda s: alg.discard_kernel(s)
    ),
    "idk": Operator(
        ("space",), lambda node, s: TKernel(s, s), lambda s: alg.identity_kernel(s)
    ),
    "rnDeriv": Operator(
        ("kernel", "kernel"), _rn_deriv_type, lambda f, g: disintegration.rn_deriv(f, g)
    ),
    "singular": Operator(
        ("kernel", "kernel"),
        _singular_type,
        lambda f, g: disintegration.singular_part(f, g),
    ),
    "entropy": Operator(
        ("measure",), lambda node, m: T_FLOAT, lambda m: analytics.entropy(m)
    ),
    "kentropy": Operator(
        ("kernel", "measure"),
        _kentropy_type,
        lambda f, m: analytics.kernel_entropy(f, m),
    ),
    "kl": Operator(
        ("measure", "measure"), _kl_type, lambda m1, m2: analytics.kl_div(m1, m2)
    ),
    "condkl": Operator(
        ("kernel", "kernel", "measure"),
        _condkl_type,
        lambda f, g, m: analytics.cond_kl(f, g, m),
    ),
    "renyi": Operator(
        ("rat", "measure", "measure"),
        _renyi_type,
        lambda alpha, m1, m2: analytics.renyi_div(alpha, m1, m2),
    ),
    "indep": Operator(
        ("rv", "rv", "measure"),
        _indep_type,
        lambda x, y, m: conditioning.indep_fun(x, y, m),
    ),
    "condindep": Operator(
        ("rv", "rv", "rv", "measure"),
        _indep_type,
        lambda x, y, z, m: conditioning.cond_indep_fun(
            x, y, PartitionSigma.generated_by(z), m
        ),
    ),
    "traj": Operator(
        ("chain", "int"), _traj_type, lambda c, n: sequential.traj_kernel(c, n)
    ),
}
