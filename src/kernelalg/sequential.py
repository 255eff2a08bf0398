"""Finite-horizon trajectory kernels for chains of Markov kernels.

A chain fixes a start space and a list of Markov steps, where step i maps the
left-nested history space (((start x out_1) x out_2) ... x out_i), or in a
markov_chain only the last state out_i, to the next output space.  The
trajectory kernel up to horizon n is the iterated sequential pairing of the
steps.  A product atom's index is the row-major number of its leaf indices
whatever the bracketing, so no rebracketing moves a row: history atom h reads
its step's row h mod |domain|, which is h itself for a step over the history
and the last state, the least significant coordinate, for a last-state step.
Trajectories exclude the start coordinate: the horizon-n trajectory space is
the left-nested product of out_1 .. out_n.

Sampling is reproducible by construction: the generator is splitmix64 (the
exact algorithm is pinned below and in the README), and atoms are drawn by
inverse CDF against thresholds computed in exact arithmetic and scaled to
2**64, compared directly with the raw 64-bit draw.  No float is involved, so
two runs with one seed agree bit for bit on every platform.  splitmix64 is
counter-based (word i is a fixed function of seed + i * gamma), so the sampler
computes its words a block at a time with whole-integer arithmetic over
packed lanes, and draws each step of a block of trajectories as one column.
A column is drawn through guide tables (Chen and Asau 1974; Devroye 1986,
III.2): each row's table maps a word's top byte to the atom that every word
of that bucket draws, and a word whose bucket holds a threshold is compared
with the thresholds in full, so the draw is the same atom.  A row's table is
built when a trajectory first reads the row.  The CLI writes each block of
trajectories as it is drawn.

A chain of more than MAX_CHAIN_STEPS steps is refused when it is declared.
The horizon-n trajectory kernel has |history_n| entries, so traj_kernel
refuses a history space of more than MAX_HISTORY_ATOMS atoms before it builds
anything; sample reads a markov_chain's step itself and needs no such limit.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import accumulate, compress, repeat
from operator import add, eq, getitem, lt, mul

from .algebra import comp_measure, comp_prod, marginal_fst
from .errors import HorizonOutOfRange, KernelAlgError, SpaceMismatch
from .measures import Kernel, Measure
from .spaces import Product, SpaceExpr

__all__ = [
    "SplitMix64",
    "PRNG_ALGORITHM",
    "MAX_HISTORY_ATOMS",
    "MAX_CHAIN_STEPS",
    "KernelChain",
    "markov_chain",
    "traj_kernel",
    "projection_consistency",
    "trajectory_law",
    "flatten_trajectory",
    "sample",
]

PRNG_ALGORITHM = "splitmix64"

# Largest history space traj_kernel builds: start x out_1 x ... x out_i.
MAX_HISTORY_ATOMS = 1 << 20

# Most steps a chain may have; each step nests the trajectory space that traj
# and its type rule build one level deeper, and the space and atom code
# recurses once per level.
MAX_CHAIN_STEPS = 64

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# A guide entry that decides nothing: the lane's word meets the thresholds.
_SPLIT = 255
_BYTES = [bytes([j]) for j in range(_SPLIT)]


# Words per packed block: SplitMix64.take computes this many at once, and
# sample draws the trajectories that fit in one block together.
_CHUNK = 2048
# (ones, gamma ramp, low-word mask) over _CHUNK 128-bit lanes, built on first use
_lanes = None


def _lane_constants():
    global _lanes
    ones = int.from_bytes((b"\x01" + bytes(15)) * _CHUNK, "little")
    ramp = int.from_bytes(
        b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(1, _CHUNK + 1)),
        "little",
    )
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * _CHUNK, "little")
    _lanes = ones, ramp, low
    return _lanes


def _low_words(z: int, byteorder: str):
    """The low 64 bits of each 128-bit lane of z, lane 0 first, as read by a
    host of the given byte order."""
    words = memoryview(z.to_bytes(16 * _CHUNK, byteorder)).cast("Q")
    # little: lo_0, hi_0, lo_1, ...; big: hi_last, lo_last, ..., hi_0, lo_0
    return words[::2] if byteorder == "little" else words[::-2]


def _mix(state: int) -> int:
    """The _CHUNK words that follow `state`, packed: lane i (bits 128i up)
    holds state + (i+1) * gamma put through the finalizer in place, the word in
    its low 64 bits.  Every value is masked to its lane's low 64 bits before a
    multiply, so no carry crosses a lane."""
    ones, ramp, low = _lanes or _lane_constants()
    z = (state * ones + ramp) & low
    z = ((z ^ (z >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    return z ^ (z >> 31)


def _check_seed(seed: int):
    if not 0 <= seed <= _MASK:
        raise ValueError("seed must be an unsigned 64-bit integer")


def _block(state: int):
    """The _CHUNK words that follow `state`, in order."""
    return _low_words(_mix(state), sys.byteorder)


class SplitMix64:
    """The splitmix64 generator: 64-bit state, 64-bit output words.

    next_u64 advances the state by the golden-gamma increment and applies the
    standard two-round xor-shift-multiply finalizer.  Seed 0 produces the
    well-known first outputs 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, ...
    take(k) returns the next k words at once, the same as k calls of next_u64.
    """

    __slots__ = ("seed", "state")

    algorithm = PRNG_ALGORITHM

    def __init__(self, seed: int):
        _check_seed(seed)
        self.seed = seed
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def take(self, k: int) -> list:
        """The next k words, computed a packed block at a time."""
        if k < 0:
            raise ValueError("word count must be nonnegative")
        out = []
        state = self.state
        for done in range(0, k, _CHUNK):
            m = min(_CHUNK, k - done)
            out += _block(state)[:m].tolist()
            state = (state + m * _GAMMA) & _MASK
        self.state = state
        return out


def _thresholds(row: Measure) -> list:
    """Inverse-CDF thresholds of a probability row: ceil(cumulative * 2**64),
    exact, so atom j is drawn for a word u with thresholds[j-1] <= u < thresholds[j]."""
    den = row.den
    return [-((-cum << 64) // den) for cum in accumulate(row.nums)]


def _check_step_count(count: int):
    if count > MAX_CHAIN_STEPS:
        raise KernelAlgError(
            f"chain of {count} steps, above the limit of {MAX_CHAIN_STEPS}"
        )


class KernelChain:
    """A start space plus Markov steps over left-nested history spaces (or,
    built by markov_chain only, over the last state)."""

    __slots__ = ("start", "steps", "initial")

    def __init__(self, start: SpaceExpr, steps, initial: Measure | None = None):
        steps = tuple(steps)
        _check_step_count(len(steps))
        history = start
        for i, step in enumerate(steps):
            if step.domain != history:
                raise SpaceMismatch(
                    f"step {i} must map the history space {history}, "
                    f"got domain {step.domain}"
                )
            step.require_markov()
            history = Product(history, step.codomain)
        if initial is not None:
            if initial.space != start:
                raise SpaceMismatch(
                    f"initial distribution on {initial.space}, chain starts in {start}"
                )
            initial.require_probability()
        self.start = start
        self.steps = steps
        self.initial = initial

    @classmethod
    def _unchecked(cls, start: SpaceExpr, steps: tuple, initial) -> "KernelChain":
        """A chain whose steps, sizes and initial measure are already checked."""
        chain = object.__new__(cls)
        chain.start = start
        chain.steps = steps
        chain.initial = initial
        return chain

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        if not isinstance(other, KernelChain):
            return NotImplemented
        return (
            self.start == other.start
            and self.steps == other.steps
            and self.initial == other.initial
        )

    def output_spaces(self):
        return tuple(step.codomain for step in self.steps)

    def _reads_last(self, n: int) -> list:
        """Whether each of the first n steps reads only the state drawn just
        before it: its domain is that output space (the start for step 0).  A
        history space holds that space as a strict subtree, so never equals it."""
        previous = (self.start,) + self.output_spaces()
        return [step.domain == previous[i] for i, step in enumerate(self.steps[:n])]


def markov_chain(initial: Measure, step: Kernel, n: int) -> KernelChain:
    """A homogeneous chain: every one of its n steps is `step`, applied to the
    last state only.  Nothing history-sized is built; traj_kernel repeats the
    step's rows over each history space it needs."""
    if step.domain != step.codomain:
        raise SpaceMismatch(
            f"a Markov chain step must be square, got {step.domain} -> {step.codomain}"
        )
    step.require_markov()
    initial.require_probability()
    if initial.space != step.domain:
        raise SpaceMismatch(
            f"initial distribution on {initial.space} does not match state space "
            f"{step.domain}"
        )
    _check_step_count(n)
    return KernelChain._unchecked(step.domain, (step,) * n, initial)


def _check_horizon(chain: KernelChain, n: int):
    if not 1 <= n <= len(chain.steps):
        raise HorizonOutOfRange(
            f"horizon {n} outside 1..{len(chain.steps)}"
        )


def traj_kernel(chain: KernelChain, n: int) -> Kernel:
    """Joint kernel of the first n outputs, start space to trajectory space.
    Atom h of start x (trajectory so far) reads its step's row h mod |domain|,
    so a last-state step's rows repeat as a block."""
    _check_horizon(chain, n)
    size = chain.start.size
    for i, step in enumerate(chain.steps[:n], 1):
        size *= step.codomain.size
        if size > MAX_HISTORY_ATOMS:
            raise KernelAlgError(
                f"history space after step {i} has {size} atoms, above the "
                f"limit of {MAX_HISTORY_ATOMS}"
            )
    xi = chain.steps[0]
    for step in chain.steps[1:n]:
        dom = Product(chain.start, xi.codomain)
        rows = step.rows * (dom.size // max(step.domain.size, 1))
        xi = comp_prod(xi, Kernel._unchecked(dom, step.codomain, rows))
    return xi


def projection_consistency(chain: KernelChain, n: int, m: int) -> bool:
    """Does dropping the last n-m coordinates of the n-trajectory give the m one?"""
    _check_horizon(chain, n)
    if not 1 <= m <= n:
        raise HorizonOutOfRange(f"projection horizon {m} outside 1..{n}")
    big = traj_kernel(chain, n)
    for _ in range(n - m):
        big = marginal_fst(big)
    return big == traj_kernel(chain, m)


def trajectory_law(chain: KernelChain, n: int, initial: Measure | None = None) -> Measure:
    """Exact distribution of the horizon-n trajectory."""
    init = initial if initial is not None else chain.initial
    if init is None:
        raise KernelAlgError("chain has no initial distribution to push through")
    return comp_measure(traj_kernel(chain, n), init)


def flatten_trajectory(n: int, atom) -> tuple:
    """Unfold a left-nested trajectory atom into the tuple (out_1, ..., out_n)."""
    parts = []
    for _ in range(n - 1):
        atom, last = atom
        parts.append(last)
    parts.append(atom)
    return tuple(reversed(parts))


def _guide(thresholds: list) -> bytes:
    """The guide table of a row's thresholds, on a word's top byte: entry t is
    the atom that every word of the bucket [t * 2**56, (t+1) * 2**56) draws, or
    _SPLIT when a threshold falls strictly inside the bucket or the atom is
    _SPLIT or above.  Atom j owns the buckets that lie inside
    [thresholds[j-1], thresholds[j]); a zero-weight atom owns none."""
    guide = bytearray([_SPLIT]) * 256
    ends = [x >> 56 for x in thresholds[:_SPLIT]]
    firsts = [0] + [-(-x >> 56) for x in thresholds[: len(ends) - 1]]
    for j in compress(range(len(ends)), map(lt, firsts, ends)):
        guide[firsts[j] : ends[j]] = _BYTES[j] * (ends[j] - firsts[j])
    return bytes(guide)


class _Tables(dict):
    """Row index -> guide table of a list of rows, built the first time a lane
    reads the row, with the row's thresholds beside it in .thresholds.  A row
    object is tabled once, in `shared` (id(row) -> (thresholds, guide))."""

    __slots__ = ("rows", "shared", "thresholds")

    def __init__(self, rows, shared: dict):
        self.rows, self.shared, self.thresholds = rows, shared, {}

    def __missing__(self, h):
        row = self.rows[h]
        got = self.shared.get(id(row))
        if got is None:
            thresholds = _thresholds(row)
            got = self.shared[id(row)] = thresholds, _guide(thresholds)
        self.thresholds[h], self[h] = got
        return got[1]


def _draw(buf: bytes, words, i: int, width: int, b: int, tables: _Tables, rows):
    """Column i of a block: the atom each of its b trajectories draws from the
    row it reads, rows[t].  The guide entry of the word's top byte decides a
    lane, and a _SPLIT lane is decided by its whole word against the row's
    thresholds."""
    # word t * width + i of the block is words[2 * (t * width + i)], and its
    # top byte is buf[16 * (t * width + i) + 7]
    tops = buf[16 * i + 7 :: 16 * width][:b]
    js = list(map(getitem, map(tables.__getitem__, rows), tops))
    if _SPLIT in js:
        column = words[2 * i :: 2 * width]
        lanes = list(compress(range(b), map(eq, js, repeat(_SPLIT))))
        lane_words = map(column.__getitem__, lanes)
        lane_rows = map(tables.thresholds.__getitem__, map(rows.__getitem__, lanes))
        for t, j in zip(lanes, map(bisect_right, lane_rows, lane_words)):
            js[t] = j
    return js


def _columns(chain: KernelChain, n: int, seed: int, count: int, initial: Measure | None = None):
    """An iterator over the blocks of `count` horizon-n trajectories: each block
    is a list of n columns, column i holding each trajectory's codomain index at
    step i+1.  The arguments are checked here, before any word is drawn."""
    _check_horizon(chain, n)
    if count < 0:
        raise KernelAlgError("trajectory count must be nonnegative")
    init = initial if initial is not None else chain.initial
    if init is None:
        raise KernelAlgError("chain has no initial distribution to sample from")
    if init.space != chain.start:
        raise SpaceMismatch(
            f"initial distribution on {init.space}, chain starts in {chain.start}"
        )
    init.require_probability()
    _check_seed(seed)
    return _blocks(chain, n, seed, count, init)


def _blocks(chain: KernelChain, n: int, seed: int, count: int, init: Measure):
    width = n + 1  # words per trajectory: the start, then one per step
    shared = {}  # id(row) -> (thresholds, guide), per distinct row read
    built = {}  # id(step) -> _Tables of its rows, per distinct step kernel
    for step in chain.steps[:n]:
        if id(step) not in built:
            built[id(step)] = _Tables(step.rows, shared)
    reads_last = chain._reads_last(n)
    track = not all(reads_last)  # the history index is kept if a step reads it
    plan = [
        (built[id(step)], last, step.codomain.size)
        for step, last in zip(chain.steps, reads_last)
    ]
    start = _Tables([init], shared)
    per_block = max(1, _CHUNK // width)
    state = seed
    for done in range(0, count, per_block):
        b = min(per_block, count - done)
        buf = _mix(state).to_bytes(16 * _CHUNK, "little")
        words = array("Q", buf)  # the low and high halves of each lane
        if sys.byteorder == "big":
            words.byteswap()
        state = (state + b * width * _GAMMA) & _MASK
        # hs[t] is the row-major index of trajectory t's history drawn so far,
        # js[t] the index of the state it drew last
        hs = js = _draw(buf, words, 0, width, b, start, [0] * b)
        columns = []
        for i, (step_tables, last, size) in enumerate(plan, 1):
            js = _draw(buf, words, i, width, b, step_tables, js if last else hs)
            columns.append(js)
            if track:
                hs = list(map(add, map(mul, hs, repeat(size)), js))
        yield columns


def sample(
    chain: KernelChain,
    n: int,
    seed: int,
    count: int,
    initial: Measure | None = None,
):
    """Draw `count` horizon-n trajectories, reproducibly for a given seed.

    Returns a list of n-tuples of atoms.  The empirical distribution converges
    to trajectory_law(chain, n); determinism is bit-exact per seed.  The words
    are drawn a packed block of trajectories at a time, each step as one
    column through its rows' guide tables (see _guide and _draw), built for a
    row when a trajectory first reads it; every word and threshold is the one
    a next_u64 call per draw would compare.
    """
    blocks = _columns(chain, n, seed, count, initial)
    atoms = [step.codomain.atoms for step in chain.steps[:n]]
    out = []
    for columns in blocks:
        out += zip(*[map(a.__getitem__, js) for a, js in zip(atoms, columns)])
    return out
