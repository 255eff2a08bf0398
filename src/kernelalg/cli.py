"""Command line interface.

Subcommands:

    eval <file> --expr "<expr>" [--json] [--log2]
    check <file> --laws {algebra,disintegration,bayes,all}
    simulate <file> --chain NAME -n STEPS --seed U64 --count K [--initial M] [--json]
    certify <file> --rv NAME --measure NAME --method {bounded,grid}
            [--kernel NAME] [--c Q] [--grid-T Q] [--grid-step Q] [--json]
    hoeffding <file> --rv NAME --measure NAME -n K -t Q [--sigma2 Q] [--json]

Exit codes: 0 on success (and when a checked property holds), 1 when a check
or certification fails, 2 on usage, parse or type errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .document import _labels, _weights_body, parse_document
from .errors import (
    DocumentError,
    GridViolation,
    KernelAlgError,
    NonzeroMean,
    NotCertified,
)
from .measures import Kernel, Measure
from .scalar import _format_rational
from .spaces import format_atom

# Each handler imports the modules its subcommand runs, when it runs, and
# reads their functions there, so a call loads only what it uses.

_LN2 = math.log(2)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_document(text)


def _print_value(value, as_json: bool, log2: bool = False):
    if isinstance(value, float) and log2:
        value = value / _LN2 if not math.isinf(value) else value
    if as_json:
        from .jsonio import dumps

        print(dumps(value))
    elif isinstance(value, Kernel):
        print(f"kernel : {value.domain} -> {value.codomain}")
        labels = _labels(value.codomain)
        for label, row in zip(_labels(value.domain), value.rows):
            print(f"  {label}: " + _weights_body(labels, row._texts()))
    elif isinstance(value, Measure):
        # a measure or a density table, named by its sort
        body = _weights_body(_labels(value.space), value._texts())
        print(f"{value.sort} on {value.space} = {body}")
    elif isinstance(value, bool):
        print("true" if value else "false")
    else:
        print("inf" if math.isinf(value) else format(value, ".12g"))


def _cmd_eval(args) -> int:
    from .exprlang import eval_expr, infer_type, parse_expr

    doc = _load(args.file)
    node = parse_expr(args.expr)
    infer_type(doc, node)
    value = eval_expr(doc, node)
    _print_value(value, args.json, args.log2)
    return 0


def _cmd_check(args) -> int:
    from .laws import run_laws

    doc = _load(args.file)
    results = run_laws(args.laws, doc.kernels, doc.measures)
    failures = 0
    for result in results:
        print(result.line())
        if not result.ok:
            failures += 1
    print(f"{len(results) - failures}/{len(results)} laws hold")
    return 0 if failures == 0 else 1


def _cmd_simulate(args) -> int:
    from .sequential import _columns

    doc = _load(args.file)
    chain = doc.lookup("chain", args.chain)
    initial = doc.lookup("measure", args.initial) if args.initial else None
    blocks = _columns(chain, args.n, args.seed, args.count, initial=initial)
    n, steps = args.n, chain.steps[: args.n]
    if args.json:
        from .jsonio import dumps

        # a row reads ,["a","b",...,"z"]; the array's first row drops its comma
        quote, opens, closes = dumps, [",["] + [","] * (n - 1), [""] * (n - 1) + ["]"]
    else:
        quote, opens, closes = str, [""] * n, ["→"] * (n - 1) + ["\n"]
    # texts[i][j] is atom j of step i+1's codomain, its separators attached
    texts = [
        [o + quote(format_atom(a)) + c for a in s.codomain.atoms]
        for s, o, c in zip(steps, opens, closes)
    ]
    write = sys.stdout.write
    if args.json:
        write("[")
    lead = args.json  # the first row of a JSON array drops its comma
    for columns in blocks:
        flat = [None] * (len(columns[0]) * n)
        for i, (text, js) in enumerate(zip(texts, columns)):
            flat[i::n] = map(text.__getitem__, js)
        if lead:
            flat[0] = flat[0][1:]
            lead = False
        write("".join(flat))
    if args.json:
        write("]\n")
    return 0


def _cmd_certify(args) -> int:
    from .analytics import KernelScope, PlainMeasureScope, certify_subgaussian

    doc = _load(args.file)
    x = doc.lookup("realrv", args.rv)
    mu = doc.lookup("measure", args.measure)
    if args.kernel:
        scope = KernelScope(doc.lookup("kernel", args.kernel), mu)
    else:
        scope = PlainMeasureScope(mu)
    if args.method == "grid" and args.c is None:
        raise DocumentError("--method grid requires an explicit --c constant")
    cert = certify_subgaussian(
        x, scope, args.method, args.c, args.grid_T, args.grid_step
    )
    if args.json:
        from .jsonio import dumps

        print(dumps(cert.as_dict()))
    else:
        method = cert.method[0]
        print(
            f"certified: c = {_format_rational(cert.constant)} via {method} "
            f"({cert.scope.describe()})"
        )
    return 0


def _cmd_hoeffding(args) -> int:
    from .analytics import PlainMeasureScope, certify_bounded_range, hoeffding_check

    doc = _load(args.file)
    x = doc.lookup("realrv", args.rv)
    mu = doc.lookup("measure", args.measure)
    if args.sigma2 is not None:
        sigma_sq = Fraction(args.sigma2)
    else:
        sigma_sq = certify_bounded_range(x, PlainMeasureScope(mu)).constant
    report = hoeffding_check(x, mu, sigma_sq, args.n, Fraction(args.t))
    if args.json:
        from .jsonio import dumps

        print(dumps(report.as_dict()))
    else:
        # the bound exp(-t^2 / (2 n sigma^2)) is at most 1, so never "inf"
        print(
            f"exact tail {_format_rational(report.exact_tail)} "
            f"<= bound {format(report.bound, '.12g')}: "
            + ("holds" if report.holds else "VIOLATED")
        )
    return 0 if report.holds else 1


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


class _LawSuites:
    """`laws.SUITES` as the choices of `check --laws`: argparse reads them only
    to parse `check` or print its help, and only then is `laws` imported."""

    def __iter__(self):
        from .laws import SUITES

        return iter(SUITES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelalg",
        description="Exact Markov-kernel algebra on finite spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression over a document")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--log2", action="store_true", help="display entropies/divergences in bits")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run law suites on the declared objects")
    p.add_argument("file")
    # set after add_argument, which would otherwise format the choices at once
    p.add_argument("--laws", default="all").choices = _LawSuites()
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="sample trajectories from a chain")
    p.add_argument("file")
    p.add_argument("--chain", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=_u64, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--initial", help="measure name overriding the chain's initial")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("certify", help="certify a real variable sub-Gaussian")
    p.add_argument("file")
    p.add_argument("--rv", required=True, help="realrv name")
    p.add_argument("--measure", required=True)
    p.add_argument("--kernel", help="certify against every row of this kernel")
    p.add_argument("--method", required=True, choices=["bounded", "grid"])
    p.add_argument("--c", type=_rational)
    p.add_argument("--grid-T", type=_rational, default=Fraction(10))
    p.add_argument("--grid-step", type=_rational, default=Fraction(1, 100))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("hoeffding", help="exact tail against the sub-Gaussian bound")
    p.add_argument("file")
    p.add_argument("--rv", required=True, help="realrv name")
    p.add_argument("--measure", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-t", type=_rational, required=True)
    p.add_argument("--sigma2", type=_rational)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hoeffding)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GridViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (NonzeroMean, NotCertified) as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 1
    except KernelAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
