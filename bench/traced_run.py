"""Traced in-process run: spans around every call into each layer.

    python3 bench/traced_run.py --workload W --seed N --seconds S --out FILE --src DIR DOC...

Runs the workload's ops by calling `kernelalg.cli.main(argv)` in this
process, one op at a time, first untraced and then, for the same ops, with
every module-level binding of each public function replaced by a wrapper
that records a span (name, start, end, parent, op id).  Modules import each
other's functions by name (`bayes` binds `swap_kernel`, `exprlang` binds
`posterior`), so each binding is patched, not only the defining one.
Scalar arithmetic is not wrapped: it runs millions of times per op, and its
cost shows as self time of the layer that does it.

Spans stay in memory and are written next to FILE at the end; FILE receives
the per-layer metrics.  A layer's self time is its spans' duration minus the
time covered by their child spans.  Per-op figures are averages over the
traced ops.  What each metric should move, and on which workload:

- algebra.compose.{calls,self_s}, algebra.max_den_bits: op_p50_s on
  check-laws, little on chain-simulate.  useful_ratio is nonzero products
  over loop iterations (one per entry of each input row, plus one per
  output entry for each nonzero input entry); dirac_share is the share of
  calls with an all-Dirac operand.
- algebra.structural.{self_s,entries}: op_p50_s on query-session, partly on
  check-laws, nothing on chain-simulate.
- algebra.{parallel,prod,comp_prod,comp_measure,comp_prod_measure}.self_s:
  check-laws and query-session.
- spaces.Product.*, sequential.markov_chain.self_s: setup_s, op_p50_s and
  peak_rss_mb on chain-simulate; small on check-laws.
- sequential.sample.*: ops_per_s on chain-simulate only.  The row-cache hit
  ratio is derived outside the program, from the replayed trajectories.
- sequential.traj_kernel.self_s: query-session.
- disintegration.*, bayes.*: query-session and check-laws.
- laws.*: check-laws only.  analytics.*: query-session only.
- document.parse_document.*: setup_s everywhere, most on query-session.
  document.serialize_document.self_s is per document, from a
  serialize / re-parse round trip that must be byte-identical.
- exprlang.*, jsonio.*, cli.main.self_s (printing): query-session and
  chain-simulate.
- trace.overhead_ratio: untraced ops per second over traced ops per second.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS, Verifier  # noqa: E402

STRUCTURAL = {
    "algebra.deterministic", "algebra.identity_kernel", "algebra.copy_kernel",
    "algebra.swap_kernel", "algebra.assoc_kernel", "algebra.assoc_inv_kernel",
    "algebra.rebracket_kernel", "algebra.prod_mk_left", "algebra.prod_mk_right",
    "measures.dirac",
}
ARITHMETIC = {
    "algebra.compose", "algebra.parallel", "algebra.prod", "algebra.comp_prod",
    "algebra.comp_measure", "algebra.comp_prod_measure",
}
GROUPS = {  # reported self_s metric -> span names it sums
    "algebra.compose": {"algebra.compose"},
    "algebra.structural": STRUCTURAL,
    **{n: {n} for n in sorted(ARITHMETIC - {"algebra.compose"})},
    "spaces.Product": {"spaces.Product"},
    "sequential.markov_chain": {"sequential.markov_chain"},
    "sequential.sample": {"sequential.sample"},
    "sequential.traj_kernel": {"sequential.traj_kernel"},
    "disintegration.cond_kernel": {"disintegration.cond_kernel"},
    "disintegration.cond_kernel_measure": {"disintegration.cond_kernel_measure"},
    "disintegration.rn": {
        "disintegration.rn_deriv", "disintegration.singular_part",
        "disintegration.rn_decomposition", "disintegration.with_density",
        "disintegration.absolutely_continuous", "disintegration.measure_rn_deriv",
    },
    "bayes.posterior": {"bayes.posterior"},
    "bayes.bayes_check": {"bayes.bayes_check"},
    "laws.run_laws": {
        "laws.run_laws", "laws.algebra_laws", "laws.disintegration_laws", "laws.bayes_laws",
    },
    "analytics.hoeffding_check": {"analytics.hoeffding_check"},
    "analytics.divergence": {"analytics.entropy", "analytics.kl_div", "analytics.renyi_div"},
    "document.parse_document": {"document.parse_document"},
    "exprlang.parse_expr": {"exprlang.parse_expr"},
    "exprlang.infer_type": {"exprlang.infer_type"},
    "exprlang.eval_expr": {"exprlang.eval_expr"},
    "jsonio": {"jsonio.dumps", "jsonio.render_value", "jsonio.format_float"},
    "cli.main": {"cli.main"},
}
BOOKKEEPING = "trace.bookkeeping"
# Per-value helpers (scalar arithmetic, atom formatting) run millions of times
# an op; spans there would cost more than the work they time.
UNTRACED_MODULES = {"scalar", "spaces", "errors"}


class Tracer:
    """Span recorder.  A span is [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = None
        self.counts = {}

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def bookkeep(self, fn, *args):
        """Run counter code as a span of its own, so no layer's self time holds it."""
        start = time.perf_counter()
        fn(*args)
        self.spans.append([BOOKKEEPING, start, time.perf_counter(), self.stack[-1], self.op])

    def span(self, name, fn, *args, **kwargs):
        record = [name, 0.0, 0.0, self.stack[-1], self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self.bookkeep(before, args)
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                self.bookkeep(after, args, result)
            return result

        return traced

    def caller(self):
        """Name of the span that is running now, or None at the top."""
        parent = self.stack[-1]
        return self.spans[parent][0] if parent >= 0 else None


# -- counters taken at layer boundaries --------------------------------------


def _is_dirac(kernel) -> bool:
    """Every row has one nonzero weight, equal to 1 (read without side effects)."""
    for row in kernel.rows:
        nonzero = [w for w in row.weights if not w.is_zero()]
        if len(nonzero) != 1 or (nonzero[0].numerator, nonzero[0].denominator) != (1, 1):
            return False
    return True


def _den_bits(value) -> int:
    rows = value.rows if hasattr(value, "rows") else (value,)
    return max(
        (w.denominator.bit_length() for row in rows for w in row.weights),
        default=0,
    )


def counters(tracer: Tracer):
    """before/after hooks per span name, feeding `tracer.counts`."""
    t = tracer

    def compose_before(args):
        eta, kappa = args
        t.count("compose.calls")
        t.count("compose.dirac_calls", int(_is_dirac(eta) or _is_dirac(kappa)))
        nnz = [sum(1 for w in row.weights if not w.is_zero()) for row in eta.rows]
        n = eta.codomain.size
        for row in kappa.rows:
            t.count("compose.iterations", len(row.weights))
            for yi, w in enumerate(row.weights):
                if not w.is_zero():
                    t.count("compose.iterations", n)
                    t.count("compose.useful", nnz[yi])

    def den_after(args, result):
        t.counts["max_den_bits"] = max(t.counts.get("max_den_bits", 0), _den_bits(result))

    def structural_after(args, result):
        if t.caller() in STRUCTURAL:
            return  # counted by the outermost structural call
        rows = result.rows if hasattr(result, "rows") else (result,)
        t.count("structural.entries", len(rows) * len(rows[0].weights) if rows else 0)

    def product_after(args, result):
        t.count("Product.calls")
        t.count("Product.atoms", len(args[0].atoms))

    def parse_before(args):
        t.count("parse.bytes", len(args[0].encode()))

    def sample_after(args, result):
        t.count("sample.draws", sum(len(traj) for traj in result))

    def laws_after(args, result):
        t.count("laws.checked", len(result))

    def dumps_after(args, result):
        if not (t.caller() or "").startswith("jsonio."):
            t.count("jsonio.bytes", len(result.encode()))

    hooks = {
        "algebra.compose": (compose_before, den_after),
        "spaces.Product": (None, product_after),
        "document.parse_document": (parse_before, None),
        "sequential.sample": (None, sample_after),
        "laws.run_laws": (None, laws_after),
        "jsonio.dumps": (None, dumps_after),
    }
    for name in ARITHMETIC - {"algebra.compose"}:
        hooks[name] = (None, den_after)
    for name in STRUCTURAL:
        hooks[name] = (None, structural_after)
    return hooks


def install(tracer: Tracer, package):
    """Replace every module-level binding of each public function with a wrapper."""
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{m.name}")
        for m in pkgutil.iter_modules(package.__path__)
    ]
    hooks = counters(tracer)
    wrappers = {}  # id(function) -> (function, wrapper)
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        if short in UNTRACED_MODULES:
            continue
        public = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")
        ]
        for name in public:
            fn = getattr(module, name, None)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                span = f"{short}.{name}"
                wrapper = tracer.wrap(span, fn, *hooks.get(span, (None, None)))
                wrappers[id(fn)] = (fn, wrapper)
    for module in modules:
        for name, value in list(vars(module).items()):
            fn, wrapper = wrappers.get(id(value), (None, None))
            if fn is value:
                setattr(module, name, wrapper)
    product = importlib.import_module(f"{package.__name__}.spaces").Product
    init = product.__init__
    after = hooks["spaces.Product"][1]

    def traced_init(self, *args):
        tracer.span("spaces.Product", init, self, *args)
        tracer.bookkeep(after, (self,), None)

    product.__init__ = traced_init


# -- running ops in-process ---------------------------------------------------


def run_op(cli, workload, path, doc):
    """One op through cli.main: returns ([(call, stdout)], failure or None)."""
    outputs = []
    for call in workload.calls:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(call.argv(path, doc))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op boundary: record and go on
            return outputs, f"{call.name} raised {exc!r}"
        if code != 0:
            return outputs, f"{call.name} returned {code}"
        outputs.append((call, out.getvalue().encode()))
    return outputs, None


def verify(outputs, reason, index, doc, verifier):
    """Check an op's outputs, outside any timed region."""
    for call, out in outputs:
        wrong = verifier.verdict(index, call, doc, out)
        if wrong:
            return f"{call.name}: {wrong}"
    return reason


def self_times(spans, ops):
    """Self time per span name over spans of the given op ids.

    Self time is a span's duration minus that of its direct children.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {}
    for (name, start, end, _, op), child in zip(spans, covered):
        if op in ops:
            totals[name] = totals.get(name, 0.0) + (end - start) - child
    return totals


def inclusive(spans, name, ops):
    """Time inside outermost spans of `name` in the given op ids.

    Nested spans of `name` are not added twice.
    """
    inside = set()
    total = 0.0
    for i, (n, start, end, parent, op) in enumerate(spans):
        if n == name:
            inside.add(i)
            if parent not in inside and op in ops:
                total += end - start
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("docs", nargs="+")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import kernelalg
    from kernelalg import cli, document

    workload = WORKLOADS[args.workload]
    pool = [(p, workload.make_doc(args.seed, i)) for i, p in enumerate(args.docs)]
    verifier = Verifier()
    problems, failed = [], 0

    # Untraced: ops until half the window is used.  Traced: the same ops.
    plain_s, ops = 0.0, 0
    while plain_s < args.seconds / 2:
        path, doc = pool[ops % len(pool)]
        start = time.perf_counter()
        outputs, reason = run_op(cli, workload, path, doc)
        plain_s += time.perf_counter() - start
        reason = verify(outputs, reason, ops % len(pool), doc, verifier)
        if reason:
            failed += 1
            problems.append(f"untraced op {ops}: {reason}")
        ops += 1

    tracer = Tracer()
    install(tracer, kernelalg)
    traced_s = 0.0
    for op in range(ops):
        path, doc = pool[op % len(pool)]
        tracer.op = op
        start = time.perf_counter()
        outputs, reason = tracer.span("op", run_op, cli, workload, path, doc)
        traced_s += time.perf_counter() - start
        reason = verify(outputs, reason, op % len(pool), doc, verifier)
        if reason:
            failed += 1
            problems.append(f"traced op {op}: {reason}")

    # Counters cover the traced ops only, not the round trip below.
    c = dict(tracer.counts)

    # Write side: serialize, re-parse, serialize again; all byte-identical.
    tracer.op = "roundtrip"
    for i, (_, doc) in enumerate(pool):
        once = document.serialize_document(document.parse_document(doc.text))
        if once != doc.text or document.serialize_document(document.parse_document(once)) != once:
            problems.append(f"doc{i}: serialize(parse(text)) is not byte-identical")

    spans = tracer.spans
    traced_ops = set(range(ops))
    self_s = self_times(spans, traced_ops)

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for group, names in GROUPS.items():
        metrics[f"{group}.self_s"] = (per_op(sum(self_s.get(n, 0.0) for n in names)), "s")
    metrics["algebra.compose.calls"] = (per_op(c.get("compose.calls", 0)), "count")
    metrics["algebra.max_den_bits"] = (c.get("max_den_bits", 0), "bits")
    metrics["algebra.compose.useful_ratio"] = (
        ratio(c.get("compose.useful", 0), c.get("compose.iterations", 0)), "ratio")
    metrics["algebra.compose.dirac_share"] = (
        ratio(c.get("compose.dirac_calls", 0), c.get("compose.calls", 0)), "ratio")
    metrics["algebra.structural.entries"] = (per_op(c.get("structural.entries", 0)), "count")
    metrics["spaces.Product.calls"] = (per_op(c.get("Product.calls", 0)), "count")
    metrics["spaces.Product.atoms_built"] = (per_op(c.get("Product.atoms", 0)), "count")
    draws = c.get("sample.draws", 0)
    metrics["sequential.sample.draws_per_s"] = (
        ratio(draws, inclusive(spans, "sequential.sample", traced_ops)), "1/s")
    metrics["sequential.sample.row_cache_hit_ratio"] = (row_cache_hit_ratio(workload, pool, ops), "ratio")
    metrics["laws.checked"] = (per_op(c.get("laws.checked", 0)), "count")
    metrics["document.parse_document.bytes_per_s"] = (
        ratio(c.get("parse.bytes", 0), inclusive(spans, "document.parse_document", traced_ops)), "B/s")
    serialized = self_times(spans, {"roundtrip"})
    metrics["document.serialize_document.self_s"] = (
        serialized.get("document.serialize_document", 0.0) / (2 * len(pool)), "s")
    metrics["jsonio.bytes_out"] = (per_op(c.get("jsonio.bytes", 0)), "B")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")

    out = Path(args.out)
    with open(out.with_suffix(".spans.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    out.write_text(json.dumps({
        "workload": workload.name,
        "attempted": 2 * ops,
        "failed": failed,
        "problems": problems,
        "metrics": dict(sorted(metrics.items())),
    }))
    return 0


def row_cache_hit_ratio(workload, pool, ops) -> float:
    """Hits of the sampler's (step, history) row cache, from replayed draws.

    Each op draws count * horizon rows; the first draw of each distinct
    (step, history) pair builds a row sampler, every later one is a hit.
    """
    if workload.name != "chain-simulate":
        return 0.0
    draws = gen.CHAIN_HORIZON * gen.CHAIN_COUNT
    misses = [
        oracle.replay_simulate(doc, "c", gen.CHAIN_HORIZON, doc.sim_seed, gen.CHAIN_COUNT)[1]
        for _, doc in pool
    ]
    hits = sum(draws - misses[op % len(pool)] for op in range(ops))
    return hits / (draws * ops)


if __name__ == "__main__":
    sys.exit(main())
