"""Seeded `.kd` documents for the benchmark workloads.

Every document is generated from (workload, seed, index) alone and written in
the canonical form `serialize_document` produces, so the traced run can
require serialize(parse(text)) == text.  Each generator also returns the
plain-`Fraction` model the oracles in `oracle.py` check outputs against; this
module never imports kernelalg.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# Input sizes, recorded per workload in BENCHMARK.json.
LAWS_ATOMS = 12
LAWS_KERNELS = ("k1", "k2", "k3")
LAWS_MAX_DEN = 48
LAWS_ZERO_SHARE = Fraction(1, 5)

CHAIN_STATES = 3
CHAIN_HORIZON = 10
CHAIN_COUNT = 50_000
CHAIN_ROW = (Fraction(5, 8), Fraction(1, 4), Fraction(1, 8))
CHAIN_INITIAL = (Fraction(5, 12), Fraction(1, 3), Fraction(1, 4))

QUERY_ATOMS = 40
QUERY_STATES = 3
QUERY_HORIZON = 7
QUERY_RV_ATOMS = 16
QUERY_RV_MAX = 4
HOEFFDING_N = 20
HOEFFDING_T = 10


@dataclass(eq=False)
class Doc:
    """One generated document: its text and the model it was written from.

    Compared and hashed by identity, so oracles can memoize per document.
    """

    text: str
    spaces: dict = field(default_factory=dict)  # name -> list of atom labels
    measures: dict = field(default_factory=dict)  # name -> list[Fraction]
    measure_spaces: dict = field(default_factory=dict)  # name -> space
    kernels: dict = field(default_factory=dict)  # name -> (dom, cod, rows)
    realrvs: dict = field(default_factory=dict)  # name -> list[Fraction]
    chains: dict = field(default_factory=dict)  # name -> (measure, kernel, n)
    sim_seed: int = 0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _composition(rng, total: int, parts: int) -> list[int]:
    """`total` split into `parts` positive integers, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _small_den_row(rng, size: int, zeros: int, max_den: int) -> list[Fraction]:
    live = size - zeros
    den = rng.randint(max(live, max_den // 3), max_den)
    parts = iter(_composition(rng, den, live))
    zero_at = set(rng.sample(range(size), zeros))
    return [Fraction(0) if i in zero_at else Fraction(next(parts), den) for i in range(size)]


def _stick_row(rng, size: int) -> list[Fraction]:
    """Stick-breaking: many distinct denominators that grow along the row."""
    row, rest = [], Fraction(1)
    for _ in range(size - 1):
        q = rng.randint(2, 7)
        piece = rest * Fraction(rng.randint(1, q - 1), q)
        row.append(piece)
        rest -= piece
    row.append(rest)
    return row


def format_atom(a) -> str:
    return f"({format_atom(a[0])},{format_atom(a[1])})" if isinstance(a, tuple) else a


def format_space(s) -> str:
    return f"({format_space(s[0])} x {format_space(s[1])})" if isinstance(s, tuple) else s


def atoms_of(doc: Doc, space) -> list:
    """Atoms of a space name or a nested (left, right) pair, row-major."""
    if isinstance(space, tuple):
        return [(a, b) for a in atoms_of(doc, space[0]) for b in atoms_of(doc, space[1])]
    return doc.spaces[space]


def _body(atoms, values) -> str:
    return "{ " + ", ".join(f"{format_atom(a)}: {v}" for a, v in zip(atoms, values)) + " }"


class _Writer:
    """Collects declarations into a Doc, rendering the canonical `.kd` text."""

    def __init__(self):
        self.doc = Doc(text="")
        self.chunks = []

    def space(self, name, labels):
        self.doc.spaces[name] = list(labels)
        self.chunks.append(f"space {name} {{ {' '.join(labels)} }}")

    def measure(self, name, space, weights):
        self.doc.measures[name] = weights
        self.doc.measure_spaces[name] = space
        body = _body(atoms_of(self.doc, space), weights)
        self.chunks.append(f"measure {name} on {format_space(space)} = {body}")

    def kernel(self, name, dom, cod, rows):
        self.doc.kernels[name] = (dom, cod, rows)
        cod_atoms = atoms_of(self.doc, cod)
        lines = [f"kernel {name} : {format_space(dom)} -> {format_space(cod)} = {{"]
        for a, row in zip(atoms_of(self.doc, dom), rows):
            lines.append(f"  {format_atom(a)}: {_body(cod_atoms, row)}")
        lines.append("}")
        self.chunks.append("\n".join(lines))

    def realrv(self, name, space, values):
        self.doc.realrvs[name] = values
        body = _body(atoms_of(self.doc, space), values)
        self.chunks.append(f"realrv {name} on {space} = {body}")

    def chain(self, name, measure, kernel, n):
        self.doc.chains[name] = (measure, kernel, n)
        self.chunks.append(f"chain {name} = markov({measure}, {kernel}, {n})")

    def finish(self) -> Doc:
        self.doc.text = "\n\n".join(self.chunks) + "\n"
        return self.doc


def laws_doc(seed: int, index: int) -> Doc:
    """One space, three dense Markov kernels with small shared denominators."""
    rng = _rng("check-laws", seed, index)
    w = _Writer()
    w.space("S", [f"s{i}" for i in range(LAWS_ATOMS)])
    for name in ("mu", "nu"):
        w.measure(name, "S", _small_den_row(rng, LAWS_ATOMS, 0, LAWS_MAX_DEN))
    cells = LAWS_ATOMS * LAWS_ATOMS
    for name in LAWS_KERNELS:
        # Exactly round(cells / 5) zero entries, spread over the rows.
        zeros = [0] * LAWS_ATOMS
        for i in rng.sample(range(cells), round(cells * LAWS_ZERO_SHARE)):
            zeros[i // LAWS_ATOMS] += 1
        zeros = [min(z, LAWS_ATOMS - 1) for z in zeros]
        rows = [_small_den_row(rng, LAWS_ATOMS, z, LAWS_MAX_DEN) for z in zeros]
        w.kernel(name, "S", "S", rows)
    return w.finish()


def chain_doc(seed: int, index: int) -> Doc:
    """A 3-state homogeneous chain of horizon 10 and the seed of its simulate call.

    Every row is a permutation of CHAIN_ROW and the initial law one of
    CHAIN_INITIAL, so each seed's chain has the same entropy rate: the
    sampler's row-cache behaviour, and with it the cost of an op, does not
    depend on the seed, which only relabels where the mass goes.
    """
    rng = _rng("chain-simulate", seed, index)
    w = _Writer()
    w.space("X", [f"x{i}" for i in range(CHAIN_STATES)])
    w.measure("mu", "X", rng.sample(CHAIN_INITIAL, CHAIN_STATES))
    w.kernel("k", "X", "X", [rng.sample(CHAIN_ROW, CHAIN_STATES) for _ in range(CHAIN_STATES)])
    w.chain("c", "mu", "k", CHAIN_HORIZON)
    doc = w.finish()
    doc.sim_seed = rng.getrandbits(64)
    return doc


def _mean_zero_law(rng) -> tuple[list[Fraction], list[Fraction]]:
    """Integer values in [-m, m] and a full-support law with exact mean 0.

    All atoms but two carry half the mass; the last two, at values -m and +m,
    split the other half so that the mean cancels exactly.
    """
    m = QUERY_RV_MAX
    values = [Fraction(rng.randint(-m, m)) for _ in range(QUERY_RV_ATOMS - 2)]
    values += [Fraction(-m), Fraction(m)]
    parts = _composition(rng, 64, QUERY_RV_ATOMS - 2)
    weights = [Fraction(p, 128) for p in parts]
    drift = sum(w * v for w, v in zip(weights, values)) / m
    half = Fraction(1, 2)
    weights += [(half + drift) / 2, (half - drift) / 2]
    return values, weights


def query_doc(seed: int, index: int) -> Doc:
    """A 40-atom stick-broken kernel, a 2-stage pair, a chain and a real variable."""
    rng = _rng("query-session", seed, index)
    w = _Writer()
    w.space("S", [f"s{i}" for i in range(QUERY_ATOMS)])
    w.space("T", [f"t{i}" for i in range(QUERY_STATES)])
    w.space("R", [f"r{i}" for i in range(QUERY_RV_ATOMS)])
    w.measure("mu", "S", _stick_row(rng, QUERY_ATOMS))
    w.measure("nu", "S", _stick_row(rng, QUERY_ATOMS))
    w.kernel("k", "S", "S", [_stick_row(rng, QUERY_ATOMS) for _ in range(QUERY_ATOMS)])
    w.kernel("f", "S", "T", [_stick_row(rng, QUERY_STATES) for _ in range(QUERY_ATOMS)])
    w.kernel(
        "g",
        ("S", "T"),
        "T",
        [_stick_row(rng, QUERY_STATES) for _ in range(QUERY_ATOMS * QUERY_STATES)],
    )
    w.measure("m3", "T", _stick_row(rng, QUERY_STATES))
    w.kernel("k3", "T", "T", [_stick_row(rng, QUERY_STATES) for _ in range(QUERY_STATES)])
    w.chain("ch", "m3", "k3", QUERY_HORIZON)
    values, weights = _mean_zero_law(rng)
    w.measure("r", "R", weights)
    w.realrv("X", "R", values)
    return w.finish()
