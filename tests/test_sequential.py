import random
import sys
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import genlib
from genlib import (
    explicit_chain,
    fresh_space,
    random_markov_kernel,
    random_probability,
    reference_sample,
    sample_oracle,
    weather_kernel,
)
from kernelalg import algebra as alg
from kernelalg import sequential
from kernelalg.document import parse_document
from kernelalg.errors import HorizonOutOfRange, KernelAlgError, NotMarkov, SpaceMismatch
from kernelalg.measures import Kernel, Measure, dirac, uniform, zero_measure
from kernelalg.scalar import ONE, Scalar
from kernelalg.sequential import (
    MAX_CHAIN_STEPS,
    MAX_HISTORY_ATOMS,
    KernelChain,
    SplitMix64,
    flatten_trajectory,
    markov_chain,
    projection_consistency,
    sample,
    traj_kernel,
    trajectory_law,
)
from kernelalg.spaces import UNIT, Base, FiniteSpace, Product
from kernelalg.variables import RandomVariable

DATA = Path(__file__).parent / "data"


def random_chain(rng, length=None, max_atoms=4):
    length = length or rng.randint(1, 5)
    start = fresh_space(rng, max_atoms)
    history = start
    steps = []
    for _ in range(length):
        out = fresh_space(rng, max_atoms)
        steps.append(random_markov_kernel(rng, history, out))
        history = Product(history, out)
    return KernelChain(start, steps)


# -- generator pinning -----------------------------------------------------------


def test_splitmix64_reference_vectors():
    # Published first outputs of splitmix64 for seed 0.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_step_by_step_oracle():
    # Independent re-derivation of one step from the raw recurrence.
    seed = 42
    mask = (1 << 64) - 1
    state = (seed + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    expected = z ^ (z >> 31)
    assert SplitMix64(42).next_u64() == expected


TAKE_SEEDS = [0, 1, (1 << 64) - 1, (1 << 64) - 0x9E3779B97F4A7C15]
TAKE_COUNTS = [
    0, 1, sequential._CHUNK - 1, sequential._CHUNK, sequential._CHUNK + 1,
    3 * sequential._CHUNK + 2,
]


@pytest.mark.parametrize("seed", TAKE_SEEDS)
def test_take_equals_next_u64_calls(seed):
    for k in TAKE_COUNTS:
        block, single = SplitMix64(seed), SplitMix64(seed)
        block.next_u64()
        single.next_u64()
        assert block.take(k) == [single.next_u64() for _ in range(k)]
        assert block.state == single.state
        assert block.next_u64() == single.next_u64()


def test_take_pinned_first_words_and_validation():
    rng = SplitMix64(0)
    assert rng.take(3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert rng.take(0) == [] and rng.state == 3 * 0x9E3779B97F4A7C15 % (1 << 64)
    with pytest.raises(ValueError):
        rng.take(-1)


@pytest.mark.parametrize("seed", TAKE_SEEDS)
def test_packed_block_is_the_next_words(seed):
    # lane i of _mix(seed) holds the (i+1)-th word after seed, across the
    # 2**64 wraparound of the state for the last two seeds
    chunk = sequential._CHUNK
    buf = sequential._mix(seed).to_bytes(16 * chunk, "little")
    rng = SplitMix64(seed)
    assert sequential._words(buf)[::2].tolist() == [rng.next_u64() for _ in range(chunk)]


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_words_decoding_on_either_byte_order(byteorder):
    # Lane i holds word i in its low 64 bits and noise above; a host of the
    # given byte order reads the words back in lane order.  On a host of the
    # other order each decoded word comes out byte-swapped, so swap it back.
    rng = random.Random(7)
    chunk = sequential._CHUNK
    words = [rng.getrandbits(64) for _ in range(chunk)]
    z = sum((rng.getrandbits(64) << 64 | w) << (128 * i) for i, w in enumerate(words))
    got = sequential._words(z.to_bytes(16 * chunk, "little"), byteorder)[::2].tolist()
    if byteorder != sys.byteorder:
        got = [int.from_bytes(w.to_bytes(8, "little"), "big") for w in got]
    assert got == words


def test_seed_validation():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(1 << 64)


@pytest.mark.parametrize("seed, count", [(-1, 0), (1 << 64, 1), ((1 << 64) + 5, 1)])
def test_sample_refuses_a_seed_outside_64_bits(seed, count):
    # The check runs with the other argument checks, before any word is drawn,
    # so a seed is never reduced mod 2**64 or borrowed across lanes.
    chain = markov_chain(uniform(weather_kernel().domain), weather_kernel(), 2)
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        sample(chain, 1, seed, count)
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        sequential._columns(chain, 1, seed, count)
    assert sample(chain, 2, (1 << 64) - 1, 3) == reference_sample(chain, 2, (1 << 64) - 1, 3)


# -- trajectory kernels ------------------------------------------------------------


def test_horizon_one_is_first_step():
    rng = random.Random(0)
    chain = random_chain(rng, length=3)
    assert traj_kernel(chain, 1) == chain.steps[0]


def test_deterministic_chain_gives_dirac_orbit():
    w = Base(FiniteSpace("W", ["a", "b", "c"]))
    step = {"a": "b", "b": "c", "c": "a"}
    k = alg.deterministic(RandomVariable(w, w, step))
    chain = markov_chain(dirac(w, "a"), k, 3)
    t = traj_kernel(chain, 3)
    assert t.row("a") == dirac(t.codomain, (("b", "c"), "a"))
    trajs = sample(chain, 3, seed=9, count=5)
    assert trajs == [("b", "c", "a")] * 5


def test_weather_two_step_trajectory():
    k = weather_kernel()
    chain = markov_chain(dirac(k.domain, "good"), k, 2)
    t = traj_kernel(chain, 2)
    assert t.weight("good", ("good", "good")) == Scalar(16, 25)
    # law of (S1, S2) started at good; P(S2 = good) marginalizes to 18/25
    law = trajectory_law(chain, 2)
    snd = alg.pushforward(
        law, alg.snd_proj(law.space.left, law.space.right)
    )
    assert snd.weight("good") == Scalar(18, 25)


def test_traj_kernel_is_markov():
    rng = random.Random(1)
    for _ in range(10):
        chain = random_chain(rng)
        for n in range(1, len(chain.steps) + 1):
            assert traj_kernel(chain, n).is_markov()


def test_projection_consistency_all_pairs():
    rng = random.Random(2)
    for _ in range(10):
        chain = random_chain(rng, max_atoms=3)
        for n in range(1, len(chain.steps) + 1):
            for m in range(1, n + 1):
                assert projection_consistency(chain, n, m)


def test_non_markov_step_rejected_at_construction():
    w = Base(FiniteSpace("W", ["a", "b"]))
    bad = Kernel(w, w, [zero_measure(w), uniform(w)])
    with pytest.raises(NotMarkov):
        KernelChain(w, [bad])
    with pytest.raises(NotMarkov):
        markov_chain(uniform(w), bad, 2)


def test_misaligned_history_rejected():
    rng = random.Random(3)
    a, b = fresh_space(rng), fresh_space(rng)
    k1 = random_markov_kernel(rng, a, b)
    k2 = random_markov_kernel(rng, b, a)  # wrong: must consume Product(a, b)
    with pytest.raises(SpaceMismatch):
        KernelChain(a, [k1, k2])


def test_horizon_out_of_range():
    rng = random.Random(4)
    chain = random_chain(rng, length=2)
    with pytest.raises(HorizonOutOfRange):
        traj_kernel(chain, 3)
    with pytest.raises(HorizonOutOfRange):
        traj_kernel(chain, 0)
    with pytest.raises(HorizonOutOfRange):
        projection_consistency(chain, 2, 0)


def test_markov_chain_absorbing():
    w = Base(FiniteSpace("W", ["a", "b"]))
    chain = markov_chain(dirac(w, "b"), alg.identity_kernel(w), 3)
    law = trajectory_law(chain, 3)
    assert law.weight((("b", "b"), "b")) == ONE


def test_doubly_stochastic_keeps_uniform():
    w = Base(FiniteSpace("W", ["a", "b", "c"]))
    third = Scalar(1, 3)
    rows = [
        Measure(w, [Scalar(1, 2), Scalar(1, 4), Scalar(1, 4)]),
        Measure(w, [Scalar(1, 4), Scalar(1, 2), Scalar(1, 4)]),
        Measure(w, [Scalar(1, 4), Scalar(1, 4), Scalar(1, 2)]),
    ]
    step = Kernel(w, w, rows)
    chain = markov_chain(uniform(w), step, 3)
    for n in range(1, 4):
        law = trajectory_law(chain, n)
        # marginal of the last coordinate stays uniform
        last = law
        if n > 1:
            last = alg.pushforward(
                last, alg.snd_proj(last.space.left, last.space.right)
            )
        assert last.weights == (third, third, third)


def test_trajectory_law_matches_flattened_step_products():
    k = weather_kernel()
    chain = markov_chain(uniform(k.domain), k, 3)
    law = trajectory_law(chain, 3)
    # brute force: P(s1,s2,s3) = sum_s0 mu(s0) k(s0,s1) k(s1,s2) k(s2,s3)
    for atom, weight in law.items():
        s1, s2, s3 = flatten_trajectory(3, atom)
        acc = Fraction(0)
        for s0 in k.domain.atoms:
            acc += (
                Fraction(1, 2)
                * k.weight(s0, s1).as_fraction()
                * k.weight(s1, s2).as_fraction()
                * k.weight(s2, s3).as_fraction()
            )
        assert weight.as_fraction() == acc


def test_traj_kernel_horizon_8_exact_within_budget():
    # 3 * 3^8 entries; with a dense rebracketing kernel per step this took 15-19 s
    w = Base(FiniteSpace("W", ["a", "b", "c"]))
    p = {
        "a": (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        "b": (Fraction(1, 4), Fraction(0), Fraction(3, 4)),
        "c": (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
    }
    chain = markov_chain(uniform(w), Kernel(w, w, [Measure(w, p[s]) for s in w.atoms]), 8)
    started = time.perf_counter()
    kernel = traj_kernel(chain, 8)
    elapsed = time.perf_counter() - started
    col = {s: j for j, s in enumerate(w.atoms)}
    for s0 in w.atoms:
        for atom, weight in kernel.row(s0).items():
            path = (s0,) + flatten_trajectory(8, atom)
            expected = Fraction(1)
            for s, t in zip(path, path[1:]):
                expected *= p[s][col[t]]
            assert weight.as_fraction() == expected
    assert elapsed < 5.0, f"traj_kernel at horizon 8 took {elapsed:.2f}s, budget 5s"


def test_markov_property_as_conditional_independence():
    from kernelalg.conditioning import cond_indep_fun
    from kernelalg.variables import PartitionSigma

    k = weather_kernel()
    chain = markov_chain(uniform(k.domain), k, 3)
    law = trajectory_law(chain, 3)
    space = law.space  # ((S1 x S2) x S3)
    w = k.domain
    s1 = RandomVariable.from_function(space, w, lambda a: a[0][0])
    s2 = RandomVariable.from_function(space, w, lambda a: a[0][1])
    s3 = RandomVariable.from_function(space, w, lambda a: a[1])
    sigma = PartitionSigma.generated_by(s2)
    assert cond_indep_fun(s3, s1, sigma, law)
    assert not cond_indep_fun(s3, s1, PartitionSigma.trivial(space), law)


# -- sampling ---------------------------------------------------------------------


def test_sample_count_zero():
    rng = random.Random(5)
    chain = random_chain(rng, length=2)
    assert sample(chain, 2, seed=1, count=0, initial=uniform(chain.start)) == []


def test_sample_reproducible_and_seed_sensitive():
    k = weather_kernel()
    chain = markov_chain(uniform(k.domain), k, 3)
    a = sample(chain, 3, seed=123, count=500)
    b = sample(chain, 3, seed=123, count=500)
    c = sample(chain, 3, seed=124, count=500)
    assert a == b
    assert a != c


def test_sample_requires_initial():
    rng = random.Random(6)
    chain = random_chain(rng, length=2)
    with pytest.raises(KernelAlgError):
        sample(chain, 2, seed=1, count=1)


def test_zero_weight_atoms_never_drawn():
    w = Base(FiniteSpace("W", ["a", "b", "c"]))
    row = Measure(w, [Scalar(1, 2), Scalar(0), Scalar(1, 2)])
    step = alg.const_kernel(w, row)
    chain = markov_chain(row, step, 1)
    for traj in sample(chain, 1, seed=0, count=4096):
        assert traj[0] != "b"


def test_empirical_distribution_approaches_law():
    k = weather_kernel()
    chain = markov_chain(uniform(k.domain), k, 2)
    law = trajectory_law(chain, 2)
    count = 20000
    counts = Counter(sample(chain, 2, seed=2024, count=count))
    tv = Fraction(0)
    for atom, weight in law.items():
        flat = flatten_trajectory(2, atom)
        tv += abs(weight.as_fraction() - Fraction(counts.get(flat, 0), count))
    assert tv / 2 < Fraction(3, 100)


def test_sample_matches_dict_keyed_oracle():
    # Both references draw one next_u64 per atom, trajectory by trajectory;
    # sample draws a packed block of words and one column per step.  Counts
    # sit at the edges of one block of trajectories, at every horizon, with
    # the chain's own initial and an override.  The dict-keyed oracle walks
    # history atoms, so it runs on a markov chain's explicit twin.
    rng = random.Random(60)
    for _ in range(20):
        s = fresh_space(rng, 4)
        step = random_markov_kernel(rng, s, s, zero_frac=0.3)
        n = rng.randint(1, 5)
        mu = random_probability(rng, s)
        homogeneous = markov_chain(mu, step, n)
        inhomogeneous = random_chain(rng)
        for chain, explicit in (
            (homogeneous, explicit_chain(mu, step, n)),
            (inhomogeneous, inhomogeneous),
        ):
            other = random_probability(rng, chain.start, zero_frac=0.3)
            seed = rng.getrandbits(64)
            inits = [other] if chain.initial is None else [None, other]
            for n in range(1, len(chain) + 1):
                block = sequential._CHUNK // (n + 1)
                for init in inits:
                    for count in (0, 1, 40, block - 1, block, block + 1):
                        got = sample(chain, n, seed, count, init)
                        assert got == reference_sample(chain, n, seed, count, init)
                        assert got == sample_oracle(explicit, n, seed, count, init)
                        assert all(type(t) is tuple and len(t) == n for t in got)


def row_of(rng, nums, space=None):
    """The probability row nums / sum(nums), on a fresh space by default."""
    space = space or fresh_space(rng, len(nums), len(nums))
    return Measure(space, [Fraction(k, sum(nums)) for k in nums])


def guide_rows(rng):
    rows = [random_probability(rng, fresh_space(rng, 8), max_den=997) for _ in range(20)]
    rows += [row_of(rng, [rng.randint(0, 10**6) for _ in range(6)]) for _ in range(20)]
    rows += [row_of(rng, genlib._split_total(rng, 256, 7)) for _ in range(10)]  # k/256
    rows += [row_of(rng, [1, 2, 5]), row_of(rng, [1, 1]), row_of(rng, [255, 1])]
    rows += [row_of(rng, [0, 1, 2]), row_of(rng, [1, 0, 0, 2]), row_of(rng, [1, 2, 0])]
    rows += [row_of(rng, [0, 3, 0, 5, 0]), row_of(rng, [0, 0, 1, 0, 0]), row_of(rng, [1])]
    rows.append(row_of(rng, [rng.randint(0, 50) for _ in range(300)]))
    rows.append(row_of(rng, [1] * 299 + [10**6]))  # atom 299 owns most buckets
    return rows


def test_guide_tables_match_bisect_bucket_by_bucket():
    # Entry t stands for every word of [t * 2**56, (t+1) * 2**56): it is the
    # bisect at the bucket's first and last word, or _SPLIT exactly when a
    # threshold lies strictly inside the bucket or that bisect is _SPLIT or more.
    split = sequential._SPLIT
    ambiguous = wide = 0
    for row in guide_rows(random.Random(256)):
        thresholds = sequential._thresholds(row)
        guide = sequential._guide(thresholds)
        assert type(guide) is bytes and len(guide) == 256
        for t, entry in enumerate(guide):
            first, last = t << 56, ((t + 1) << 56) - 1
            j = bisect_right(thresholds, first)
            if any(first < x <= last for x in thresholds):
                assert entry == split
                ambiguous += 1
            elif j >= split:
                assert entry == split and j == bisect_right(thresholds, last)
                wide += 1
            else:
                assert entry == j == bisect_right(thresholds, last)
        if 256 % row.den == 0:  # weights in 1/256ths: every threshold on an edge
            assert split not in guide
    assert ambiguous > 300 and wide > 0


def test_sample_matches_reference_on_wide_rows_and_history_chains():
    # A 300-atom step splits most buckets and its atoms from _SPLIT on own
    # none, so most lanes end in bisection; an inhomogeneous chain reads its
    # history.  Counts sit at one block's edges.
    rng = random.Random(300)
    s = fresh_space(rng, 300, 300)
    k = Kernel(s, s, [row_of(rng, [rng.randint(0, 50) for _ in s.atoms], s) for _ in s.atoms])
    wide = markov_chain(row_of(rng, [rng.randint(0, 9) for _ in s.atoms], s), k, 3)
    history = random_chain(random.Random(7), length=3, max_atoms=5)
    other = random_probability(rng, history.start, max_den=97)
    for chain, init in ((wide, None), (history, other)):
        for n in range(1, len(chain) + 1):
            block = sequential._CHUNK // (n + 1)
            for count in (block - 1, block, block + 1):
                seed = rng.getrandbits(64)
                assert sample(chain, n, seed, count, init) == reference_sample(
                    chain, n, seed, count, init
                )


def test_sample_tables_only_the_rows_it_reads(monkeypatch):
    # A step over the whole history has one row per history atom; sample
    # builds thresholds and a guide for a row object the first time a
    # trajectory reads it, so one trajectory tables one row per step.
    chain = random_chain(random.Random(11), length=4, max_atoms=5)
    init = random_probability(random.Random(12), chain.start, max_den=97)
    built = []
    thresholds = sequential._thresholds
    monkeypatch.setattr(sequential, "_thresholds", lambda row: built.append(row) or thresholds(row))
    got = sample(chain, 4, 5, 1, init)
    assert len(built) <= 5 < sum(len(step.rows) for step in chain.steps)
    assert got == reference_sample(chain, 4, 5, 1, init)
    built.clear()
    got = sample(chain, 4, 6, 3000, init)
    assert len(built) == len(set(map(id, built)))  # each row object once
    assert got == reference_sample(chain, 4, 6, 3000, init)


def test_long_markov_chain_declares_fast_and_samples_like_oracle(monkeypatch):
    """A markov chain holds its step: with no Product to call, 64 steps on 3
    states declare and sample like the reference."""
    rng = random.Random(64)
    w = Base(FiniteSpace("T", ["a", "b", "c"]))
    k, mu = random_markov_kernel(rng, w, w, zero_frac=0.3), random_probability(rng, w)
    with monkeypatch.context() as patch:
        patch.setattr(sequential, "Product", None)
        chain = markov_chain(mu, k, MAX_CHAIN_STEPS)
        got = sample(chain, MAX_CHAIN_STEPS, 3, 500)
    assert chain.steps == (k,) * MAX_CHAIN_STEPS
    assert got == reference_sample(chain, MAX_CHAIN_STEPS, 3, 500)
    k = weather_kernel()
    chain = markov_chain(uniform(k.domain), k, 16)
    explicit = explicit_chain(uniform(k.domain), k, 16)
    assert sample(chain, 16, 99, 1000) == sample_oracle(explicit, 16, 99, 1000)


def test_markov_chain_checks_its_step_once(monkeypatch):
    """The chain's steps are the step itself, so the one Markov check of the
    step is the only one; it runs, traj and sample, like its explicit twin."""
    rng = random.Random(20)
    w = Base(FiniteSpace("T", ["a", "b", "c"]))
    k, mu = random_markov_kernel(rng, w, w), random_probability(rng, w)
    checked = []
    is_markov = Kernel.is_markov
    with monkeypatch.context() as patch:
        patch.setattr(Kernel, "is_markov", lambda self: checked.append(self) or is_markov(self))
        chain = markov_chain(mu, k, 11)
    assert len(checked) == 1 and checked[0] is k
    explicit = explicit_chain(mu, k, 11)
    for n in range(1, 8):
        assert traj_kernel(chain, n) == traj_kernel(explicit, n)
    assert sample(chain, 11, 8, 700) == sample(explicit, 11, 8, 700)


def test_markov_and_explicit_chains_sample_and_traj_alike():
    """sample(markov_chain(mu, k, n)) equals sample and reference_sample on the
    explicit chain of lifted steps, and traj_kernel agrees at every horizon:
    on every markov chain of tests/data and on random chains of 1-4 states."""
    cases = []
    for path in sorted(DATA.rglob("*.kd")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        for name, spec in doc.chain_specs.items():
            if spec[0] == "markov":
                _, mu, k, n = spec
                cases.append((doc.measures[mu], doc.kernels[k], n))
    assert cases
    rng = random.Random(21)
    for _ in range(50):
        s = Base(FiniteSpace("S", [f"s{i}" for i in range(rng.randint(1, 4))]))
        k = random_markov_kernel(rng, s, s, zero_frac=0.3)
        cases.append((random_probability(rng, s, zero_frac=0.3), k, rng.randint(1, 8)))
    for mu, k, n in cases:
        chain, explicit = markov_chain(mu, k, n), explicit_chain(mu, k, n)
        for h in range(1, n + 1):
            assert traj_kernel(chain, h) == traj_kernel(explicit, h)
            seed = rng.getrandbits(64)
            got = sample(chain, h, seed, 60)
            assert got == sample(explicit, h, seed, 60)
            assert got == reference_sample(explicit, h, seed, 60)
    # refused when histories were checked at declaration
    w = Base(FiniteSpace("T", ["a", "b", "c"]))
    k, mu = random_markov_kernel(rng, w, w, zero_frac=0.3), random_probability(rng, w)
    chain = markov_chain(mu, k, 40)
    assert sample(chain, 40, 7, 2000) == reference_sample(chain, 40, 7, 2000)


def test_history_size_checked_before_building(monkeypatch):
    """traj_kernel counts the history space of its horizon before it builds
    anything; a chain declares whatever its history sizes."""
    w = Base(FiniteSpace("T", ["a", "b", "c"]))
    chain = markov_chain(uniform(w), alg.const_kernel(w, uniform(w)), 40)
    big = Base(FiniteSpace("B", [str(i) for i in range(1024)]))
    fits = Base(FiniteSpace("F", [str(i) for i in range(MAX_HISTORY_ATOMS // 1024)]))
    fitting = KernelChain(big, [alg.const_kernel(big, uniform(fits))])
    over = Base(FiniteSpace("O", [str(i) for i in range(MAX_HISTORY_ATOMS // 1024 + 1)]))
    too_big = KernelChain(big, [alg.const_kernel(big, uniform(over))])
    with monkeypatch.context() as patch:
        for name in ("Product", "Kernel", "comp_prod"):
            patch.setattr(sequential, name, None)
        with pytest.raises(KernelAlgError) as exc:
            traj_kernel(chain, 40)
        assert str(exc.value) == (
            "history space after step 12 has 1594323 atoms, above the limit of 1048576"
        )
        with pytest.raises(KernelAlgError, match="after step 1 has 1049600 atoms"):
            traj_kernel(too_big, 1)
    assert traj_kernel(fitting, 1) is fitting.steps[0]
    assert traj_kernel(chain, 11).codomain.size == 3**11


def test_step_count_checked_before_building(monkeypatch):
    """The step count is bounded when a chain is declared, before any history
    product is built, even on one atom, whose history never grows."""
    u = Base(FiniteSpace("U", ["a"]))
    k = alg.identity_kernel(u)
    assert len(markov_chain(dirac(u, "a"), k, MAX_CHAIN_STEPS)) == MAX_CHAIN_STEPS
    with monkeypatch.context() as patch:
        patch.setattr(sequential, "Product", None)
        for n in (MAX_CHAIN_STEPS + 1, 2000, 3_000_000):
            with pytest.raises(KernelAlgError) as exc:
                markov_chain(dirac(u, "a"), k, n)
            assert str(exc.value) == f"chain of {n} steps, above the limit of 64"
    steps, history = [], u
    for _ in range(MAX_CHAIN_STEPS + 1):
        steps.append(alg.const_kernel(history, dirac(u, "a")))
        history = Product(history, u)
    assert len(KernelChain(u, steps[:-1])) == MAX_CHAIN_STEPS
    with pytest.raises(KernelAlgError, match="chain of 65 steps, above the limit"):
        KernelChain(u, steps)


def chain_with_unit_and_empty_leaves(rng, length):
    """A chain over random leaves; an empty start allows empty outputs too."""
    start, *outs = genlib.random_leaves(rng, length + 1)
    if start.size:
        outs = [out if out.size else UNIT for out in outs]
    history, steps = start, []
    for out in outs:
        steps.append(random_markov_kernel(rng, history, out, zero_frac=0.3))
        history = Product(history, out)
    return KernelChain(start, steps)


def test_projection_consistency_matches_random_variable_route():
    rng = random.Random(47)
    for _ in range(12):
        chain = chain_with_unit_and_empty_leaves(rng, 4)
        for n in range(1, 5):
            big = traj_kernel(chain, n)
            for m in range(1, n + 1):
                projected = big
                for _ in range(n - m):
                    projected = alg.marginal_fst(projected)
                small = traj_kernel(chain, m)
                assert projected == genlib.rv_drop_last(big, small.codomain, n - m)
                assert projected == small
                assert projection_consistency(chain, n, m)
                assert genlib.rv_projection_consistency(chain, n, m)


def random_step(rng, dom, cod):
    """A Markov kernel dom -> cod, one time in three a map kernel."""
    if rng.random() < 1 / 3 and (cod.size or not dom.size):
        return alg.deterministic(genlib.random_rv(rng, dom, cod))
    return random_markov_kernel(rng, dom, cod, zero_frac=0.3)


def random_nested_space(rng):
    """One to three leaves of up to 2 atoms, some unit or empty, nested at random."""
    return genlib.random_bracketing(
        rng, genlib.random_leaves(rng, rng.randint(1, 3), max_atoms=2)
    )


def test_traj_kernel_matches_the_lifted_route():
    """traj_kernel reads each step's rows on start x (trajectory so far); the
    lifted route composes prod_mk_left lifts with rebracketings.  They agree
    exactly at every horizon: on history chains of 1-4 steps over nested
    products, on markov chains of 1-6 steps, with map-kernel steps, and over
    unit and empty spaces."""
    rng = random.Random(23)
    chains = []
    for _ in range(60):
        start, *outs = (random_nested_space(rng) for _ in range(rng.randint(2, 5)))
        if start.size:
            outs = [out if out.size else UNIT for out in outs]
        history, steps = start, []
        for out in outs:
            steps.append(random_step(rng, history, out))
            history = Product(history, out)
        chains.append(KernelChain(start, steps))
    for _ in range(60):
        s = random_nested_space(rng)
        k, n = random_step(rng, s, s), rng.randint(1, 6)
        if s.size:
            chains.append(markov_chain(random_probability(rng, s), k, n))
        else:
            chains.append(KernelChain._unchecked(s, (k,) * n, None))
    assert any(chain.start.size == 0 for chain in chains)
    assert any(chain.start is UNIT for chain in chains)
    assert any(step.index_map is not None for chain in chains for step in chain.steps[1:])
    for chain in chains:
        for n in range(1, len(chain) + 1):
            assert traj_kernel(chain, n) == genlib.lifted_traj_kernel(chain, n)


def test_trajectory_kernel_size_checked_before_building(monkeypatch):
    """traj_kernel refuses a history space above MAX_HISTORY_ATOMS before any
    pairing; the limit is lowered here so that a small chain reaches it."""
    w = Base(FiniteSpace("T", ["a", "b", "c"]))
    chain = markov_chain(uniform(w), alg.const_kernel(w, uniform(w)), 4)
    assert traj_kernel(chain, 3).codomain.size == 27
    with monkeypatch.context() as patch:
        patch.setattr(sequential, "MAX_HISTORY_ATOMS", 81)
        patch.setattr(sequential, "comp_prod", None)
        patch.setattr(sequential, "Kernel", None)
        assert traj_kernel(chain, 1).codomain.size == 3
        with pytest.raises(KernelAlgError) as exc:
            traj_kernel(chain, 4)
        assert str(exc.value) == (
            "history space after step 4 has 243 atoms, above the limit of 81"
        )
