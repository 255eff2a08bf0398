"""The three workloads: their documents, CLI calls and output checks.

An op is one closed-loop unit of user work on one generated document: a
single `check` or `simulate` call, or a six-call `query-session`.  Ops cycle
over a small pool of documents made from the seed, so every document is run
several times in one measurement window.  A session takes seconds, so
query-session's pool holds one document: every op in a run then costs the
same, and the median op does not depend on how many ops the window held.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gen
import oracle
from gen import Doc


@dataclass(frozen=True)
class Call:
    name: str
    argv: Callable[[str, Doc], list]  # (document path, model) -> CLI arguments
    check: Callable[[bytes, Doc], "str | None"]  # stdout -> None or a reason


@dataclass(frozen=True)
class Workload:
    name: str
    make_doc: Callable[[int, int], Doc]  # (seed, pool index) -> document
    pool: int
    calls: tuple


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _check_simulate(out: bytes, doc: Doc) -> "str | None":
    want, _ = oracle.replay_simulate(doc, "c", gen.CHAIN_HORIZON, doc.sim_seed, gen.CHAIN_COUNT)
    if out != want:
        return f"trajectories differ from the replayed sampler ({len(out)} vs {len(want)} bytes)"
    return None


def _kernel_check(dom, cod, expected):
    return lambda out, doc: oracle.check_kernel_json(out, doc, dom, cod, expected(doc))


def _traj_space(n):
    space = "T"
    for _ in range(n - 1):
        space = (space, "T")
    return space


def _hoeffding_check(out, doc):
    t = Fraction(gen.HOEFFDING_T)
    return oracle.check_hoeffding_json(out, *oracle.expected_hoeffding(doc, "X", "r", gen.HOEFFDING_N, t))


CHECK_LAWS = Workload(
    name="check-laws",
    make_doc=gen.laws_doc,
    pool=4,
    calls=(
        Call(
            "check",
            lambda path, doc: ["check", path, "--laws", "all"],
            lambda out, doc: oracle.check_laws_text(
                out, oracle.law_count(len(gen.LAWS_KERNELS), len(doc.measures))
            ),
        ),
    ),
)

CHAIN_SIMULATE = Workload(
    name="chain-simulate",
    make_doc=gen.chain_doc,
    pool=2,
    calls=(
        Call(
            "simulate",
            lambda path, doc: [
                "simulate", path, "--chain", "c", "-n", str(gen.CHAIN_HORIZON),
                "--seed", str(doc.sim_seed), "--count", str(gen.CHAIN_COUNT),
            ],
            _check_simulate,
        ),
    ),
)

QUERY_SESSION = Workload(
    name="query-session",
    make_doc=gen.query_doc,
    pool=1,
    calls=(
        Call(
            "posterior",
            lambda path, doc: ["eval", path, "--json", "--expr", "posterior(k, mu)"],
            _kernel_check("S", "S", lambda doc: oracle.expected_posterior(doc, "k", "mu")),
        ),
        Call(
            "traj",
            lambda path, doc: ["eval", path, "--json", "--expr", f"traj(ch, {gen.QUERY_HORIZON})"],
            _kernel_check(
                "T",
                _traj_space(gen.QUERY_HORIZON),
                lambda doc: oracle.expected_traj(doc, "ch", gen.QUERY_HORIZON),
            ),
        ),
        Call(
            "condKernel",
            lambda path, doc: ["eval", path, "--json", "--expr", "condKernel(compProd(f, g))"],
            _kernel_check(("S", "T"), "T", lambda doc: oracle.expected_cond_comp_prod(doc, "f", "g")),
        ),
        Call(
            "comp",
            lambda path, doc: ["eval", path, "--json", "--expr", "comp(k, k)"],
            _kernel_check("S", "S", lambda doc: oracle.expected_comp(doc, "k", "k")),
        ),
        Call(
            "kl",
            lambda path, doc: ["eval", path, "--expr", "kl(mcomp(k, mu), nu)"],
            lambda out, doc: oracle.check_float(out, oracle.expected_kl_pushforward(doc, "k", "mu", "nu")),
        ),
        Call(
            "hoeffding",
            lambda path, doc: [
                "hoeffding", path, "--rv", "X", "--measure", "r",
                "-n", str(gen.HOEFFDING_N), "-t", str(gen.HOEFFDING_T), "--json",
            ],
            _hoeffding_check,
        ),
    ),
)

WORKLOADS = {w.name: w for w in (CHECK_LAWS, CHAIN_SIMULATE, QUERY_SESSION)}


# Every document declares this measure; `eval --expr mu` loads the document
# and builds its objects (chain history spaces too) but runs no query.
SETUP_MEASURE = "mu"


def setup_check(out: bytes, doc: Doc) -> "str | None":
    """`eval --expr mu` prints the measure as declared."""
    space = doc.measure_spaces[SETUP_MEASURE]
    weights = doc.measures[SETUP_MEASURE]
    body = ", ".join(f"{a}: {w}" for a, w in zip(doc.spaces[space], weights))
    want = f"measure on {space} = {{ {body} }}\n".encode()
    return None if out == want else "eval of a declared measure printed something else"


class Verifier:
    """Checks each call's stdout once per distinct output, then by digest."""

    def __init__(self):
        self.verdicts = {}  # (pool index, call name, digest) -> None or reason

    def verdict(self, index: int, call: Call, doc: Doc, out: bytes) -> "str | None":
        key = (index, call.name, digest(out))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = call.check(out, doc)
            except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
                self.verdicts[key] = f"unreadable output: {exc!r}"
        return self.verdicts[key]
