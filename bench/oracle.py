"""Independent oracles for every CLI output the workloads produce.

Written with plain `fractions` and the documented output formats only; this
module never imports kernelalg.  Each `check_*` function returns None when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right
from fractions import Fraction

from gen import Doc, atoms_of, format_atom, format_space

TOLERANCE = 1e-9


# -- exact models of the queried values ---------------------------------------


def _rows(doc: Doc, name: str) -> list[list[Fraction]]:
    return doc.kernels[name][2]


def expected_comp(doc: Doc, outer: str, inner: str) -> list[list[Fraction]]:
    """(outer . inner)(x)(z) = sum_y inner(x)(y) * outer(y)(z), as a double sum."""
    a = _rows(doc, inner)
    b = _rows(doc, outer)
    n = len(b[0])
    return [
        [sum((row[y] * b[y][z] for y in range(len(row))), Fraction(0)) for z in range(n)]
        for row in a
    ]


def expected_posterior(doc: Doc, kernel: str, prior: str) -> list[list[Fraction]]:
    """Pointwise Bayes: post(y)(x) = mu(x) k(x)(y) / evidence(y); uniform at 0."""
    k = _rows(doc, kernel)
    mu = doc.measures[prior]
    rows = []
    for y in range(len(k[0])):
        evidence = sum((mu[x] * k[x][y] for x in range(len(mu))), Fraction(0))
        if evidence == 0:
            rows.append([Fraction(1, len(mu))] * len(mu))
        else:
            rows.append([mu[x] * k[x][y] / evidence for x in range(len(mu))])
    return rows


def expected_traj(doc: Doc, chain: str, n: int) -> list[list[Fraction]]:
    """Row x: the law of (out_1..out_n) started at x, in row-major atom order."""
    _, kernel, _ = doc.chains[chain]
    k = _rows(doc, kernel)
    size = len(k)
    rows = []
    for x in range(size):
        law = [(x, Fraction(1))]  # (last state, mass) per trajectory prefix
        for _ in range(n):
            law = [(s, p * k[last][s]) for last, p in law for s in range(size)]
        rows.append([p for _, p in law])
    return rows


def expected_cond_comp_prod(doc: Doc, first: str, second: str) -> list[list[Fraction]]:
    """condKernel(compProd(f, g)): normalized fibers of f(x)(y) * g(x, y)(z)."""
    f = _rows(doc, first)
    g = _rows(doc, second)
    ny = len(f[0])
    rows = []
    for x, frow in enumerate(f):
        for y in range(ny):
            fiber = [frow[y] * w for w in g[x * ny + y]]
            total = sum(fiber, Fraction(0))
            if total == 0:
                rows.append([Fraction(1, len(fiber))] * len(fiber))
            else:
                rows.append([w / total for w in fiber])
    return rows


def expected_kl_pushforward(doc: Doc, kernel: str, mu: str, nu: str) -> float:
    k = _rows(doc, kernel)
    m, v = doc.measures[mu], doc.measures[nu]
    p = [sum((m[x] * k[x][y] for x in range(len(m))), Fraction(0)) for y in range(len(v))]
    if any(q == 0 and w != 0 for w, q in zip(p, v)):
        return math.inf
    return math.fsum(float(w) * math.log(float(w / q)) for w, q in zip(p, v) if w)


def expected_hoeffding(doc: Doc, rv: str, measure: str, n: int, t: Fraction):
    """Exact P(sum of n iid draws >= t) by our own convolution, and the bound."""
    values, weights = doc.realrvs[rv], doc.measures[measure]
    law = {}
    for v, w in zip(values, weights):
        if w:
            law[v] = law.get(v, Fraction(0)) + w
    dist = {Fraction(0): Fraction(1)}
    for _ in range(n):
        nxt = {}
        for s, p in dist.items():
            for v, q in law.items():
                nxt[s + v] = nxt.get(s + v, Fraction(0)) + p * q
        dist = nxt
    tail = sum((p for s, p in dist.items() if s >= t), Fraction(0))
    sigma_sq = (max(law) - min(law)) ** 2 / 4
    bound = math.exp(-float(t * t) / (2 * n * float(sigma_sq)))
    return tail, bound


def law_count(n_kernels: int, n_measures: int) -> int:
    """Laws `check --laws all` runs on one space with endomorphisms S -> S."""
    k, m = n_kernels, n_measures
    algebra = 2 + 2 * k + 3 * k * k + k**3
    disintegration = 3 * k * (k - 1)
    bayes = 2 * k * m
    return algebra + disintegration + bayes


# -- the sampler, replayed from its documented algorithm ----------------------

_MASK = (1 << 64) - 1


def _splitmix64(seed: int):
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def _thresholds(row: list[Fraction]) -> list[int]:
    """ceil(cumulative mass * 2**64) after each atom."""
    out, cum = [], Fraction(0)
    for w in row:
        cum += w
        out.append(-((-cum.numerator << 64) // cum.denominator))
    return out


@functools.lru_cache(maxsize=8)
def replay_simulate(doc: Doc, chain: str, n: int, seed: int, count: int):
    """Expected `simulate` stdout, and the distinct (step, history) row keys.

    The history of step i is (start, out_1, .., out_i); the start atom is not
    printed, so the replay is what recovers it.
    """
    measure, kernel, _ = doc.chains[chain]
    states = doc.spaces[doc.kernels[kernel][0]]
    init = _thresholds(doc.measures[measure])
    step = [_thresholds(row) for row in doc.kernels[kernel][2]]
    rng = _splitmix64(seed)
    lines, keys = [], set()
    for _ in range(count):
        last = bisect_right(init, next(rng))
        history = (last,)
        traj = []
        for i in range(n):
            keys.add((i, history))
            last = bisect_right(step[last], next(rng))
            history += (last,)
            traj.append(states[last])
        lines.append("→".join(traj))
    return ("\n".join(lines) + "\n").encode(), len(keys)


# -- output checks ------------------------------------------------------------


def _pairs(text: bytes):
    return json.loads(text, object_pairs_hook=list)


def check_kernel_json(out: bytes, doc: Doc, dom, cod, rows) -> str | None:
    """Compare `eval --json` kernel output with expected rows, keys in order."""
    try:
        tree = dict(_pairs(out))
    except ValueError as exc:
        return f"not JSON: {exc}"
    head = (tree.get("sort"), tree.get("domain"), tree.get("codomain"))
    if head != ("kernel", format_space(dom), format_space(cod)):
        return f"wrong kernel header {head}"
    got = tree.get("rows", [])
    dom_atoms, cod_atoms = atoms_of(doc, dom), atoms_of(doc, cod)
    if [k for k, _ in got] != [format_atom(a) for a in dom_atoms]:
        return "row atoms differ"
    for (a, row), want in zip(got, rows):
        if [k for k, _ in row] != [format_atom(b) for b in cod_atoms]:
            return f"column atoms differ in row {a}"
        for (b, w), v in zip(row, want):
            if Fraction(w) != v:
                return f"entry ({a}, {b}) is {w}, expected {v}"
    return None


def check_float(out: bytes, want: float) -> str | None:
    text = out.decode().strip()
    got = math.inf if text == "inf" else float(text)
    if not math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
        return f"value {text}, expected {want!r}"
    return None


def check_hoeffding_json(out: bytes, tail: Fraction, bound: float) -> str | None:
    tree = dict(_pairs(out))
    if Fraction(tree["exactTail"]) != tail:
        return f"exact tail {tree['exactTail']}, expected {tail}"
    if not math.isclose(tree["bound"], bound, rel_tol=TOLERANCE):
        return f"bound {tree['bound']}, expected {bound!r}"
    if tree["holds"] is not (tail <= Fraction(bound)):
        return "holds flag disagrees with tail <= bound"
    return None


def check_laws_text(out: bytes, expected: int) -> str | None:
    lines = out.decode().splitlines()
    if not lines or lines[-1] != f"{expected}/{expected} laws hold":
        return f"summary {lines[-1] if lines else '(none)'!r}, expected {expected}/{expected}"
    if len(lines) != expected + 1 or not all(l.startswith("PASS ") for l in lines[:-1]):
        return "law lines are not all PASS"
    return None
