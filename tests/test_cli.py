import itertools
import json
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from genlib import reference_sample
from kernelalg import cli, document, sequential
from kernelalg.cli import main
from kernelalg.document import Document, parse_document, serialize_document
from kernelalg.jsonio import dumps
from kernelalg.spaces import format_atom

DATA = Path(__file__).parent / "data"
DOCS = Path(__file__).parent.parent / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_weather_composition(capsys):
    code, out, err = run(
        capsys, "eval", str(DATA / "01_weather.kd"), "--expr", "comp(k,k)"
    )
    assert code == 0
    assert "18/25" in out


def test_eval_json_stable_across_runs(capsys):
    args = ["eval", str(DATA / "01_weather.kd"), "--expr", "comp(k,k)", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    parsed = json.loads(out1)
    assert parsed["rows"]["good"]["good"] == "18/25"


def test_eval_float_formatting(capsys):
    code, out, _ = run(
        capsys, "eval", str(DATA / "01_weather.kd"), "--expr", "entropy(mu)", "--json"
    )
    assert code == 0
    assert out.strip() == "0.69314718056"


def test_eval_log2_display(capsys):
    code, out, _ = run(
        capsys, "eval", str(DATA / "01_weather.kd"), "--expr", "entropy(mu)", "--log2"
    )
    assert code == 0
    assert abs(float(out) - 1.0) < 1e-12


def test_eval_type_error_exit_2(capsys):
    code, out, err = run(
        capsys, "eval", str(DATA / "01_weather.kd"), "--expr", "comp(k,mu)"
    )
    assert code == 2
    assert "expected a kernel" in err


def test_eval_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.kd"
    bad.write_text("space S { a a }")
    code, out, err = run(capsys, "eval", str(bad), "--expr", "kl(m,m)")
    assert code == 2
    assert "1:" in err


def test_deep_nesting_exit_2(capsys, tmp_path):
    expr = "fst(" * 400 + "mu" + ")" * 400
    code, out, err = run(capsys, "eval", str(DATA / "01_weather.kd"), "--expr", expr)
    assert code == 2
    assert err.startswith("error: 1:404: parentheses nested deeper than")
    deep = tmp_path / "deep.kd"
    atom = "(" * 2000 + "a" + ")" * 2000
    deep.write_text(f"space W {{ a }}\nmeasure m on W = {{ {atom}: 1 }}\n")
    code, out, err = run(capsys, "eval", str(deep), "--expr", "m")
    assert code == 2
    assert err.startswith("error: 2:")


def test_missing_file_exit_2(capsys):
    code, out, err = run(capsys, "eval", "nosuch.kd", "--expr", "x")
    assert code == 2


def test_check_all_laws(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "02_coin.kd"), "--laws", "all")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_check_each_suite(capsys):
    for suite in ("algebra", "disintegration", "bayes"):
        code, out, _ = run(
            capsys, "check", str(DATA / "08_nested.kd"), "--laws", suite
        )
        assert code == 0, out


def test_simulate_text_and_reproducibility(capsys):
    args = [
        "simulate", str(DATA / "06_three_state.kd"),
        "--chain", "walk", "-n", "3", "--seed", "11", "--count", "4",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert len(lines) == 4
    assert all(line.count("→") == 2 for line in lines)


def test_simulate_json(capsys):
    code, out, _ = run(
        capsys,
        "simulate", str(DATA / "06_three_state.kd"),
        "--chain", "walk", "-n", "2", "--seed", "3", "--count", "2", "--json",
    )
    assert code == 0
    trajs = json.loads(out)
    assert len(trajs) == 2 and all(len(t) == 2 for t in trajs)


def simulate_outputs(capsys, argv):
    """simulate's text and --json stdout for one argument list."""
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, as_json, _ = run(capsys, *argv, "--json")
    assert code == 0
    return text, as_json


def reference_outputs(chain, n, seed, count, initial=None):
    """The text and --json renderings of reference_sample's trajectories."""
    want = reference_sample(chain, n, seed, count, initial)
    text = "".join("→".join(map(format_atom, t)) + "\n" for t in want)
    return text, dumps([[format_atom(a) for a in t] for t in want]) + "\n"


def test_simulate_output_renders_reference_sampler(capsys):
    # Every chain in tests/data at every horizon, with its own initial if it
    # has one and every measure on its start space as an override.
    cases = 0
    for path in sorted(DATA.rglob("*.kd")):
        doc = parse_document(path.read_text(encoding="utf-8"))
        for name, chain in doc.chains.items():
            inits = [None] if chain.initial is not None else []
            inits += [m for m, mu in doc.measures.items() if mu.space == chain.start]
            for n, init, count in itertools.product(range(1, len(chain) + 1), inits, (0, 1, 5)):
                argv = ["simulate", str(path), "--chain", name, "-n", str(n),
                        "--seed", "7", "--count", str(count)]
                argv += ["--initial", init] if init else []
                initial = doc.measures[init] if init else None
                assert simulate_outputs(capsys, argv) == reference_outputs(
                    chain, n, 7, count, initial
                )
                cases += 1
    assert cases > 0


class Writes(list):
    """A stdout that keeps each write."""

    write = list.append


def test_simulate_output_spans_several_writes(capsys, monkeypatch):
    # three blocks of the sampler at n = 2, each written as it is drawn
    path = DATA / "06_three_state.kd"
    seed, count = (1 << 64) - 1, 2 * (sequential._CHUNK // 3) + 1
    argv = ["simulate", str(path), "--chain", "walk", "-n", "2",
            "--seed", str(seed), "--count", str(count)]
    chain = parse_document(path.read_text(encoding="utf-8")).chains["walk"]
    want = reference_outputs(chain, 2, seed, count)
    assert simulate_outputs(capsys, argv) == want
    for flags, expected in (([], want[0]), (["--json"], want[1])):
        writes = Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        assert main(argv + flags) == 0
        assert len(writes) > 2 and "".join(writes) == expected


def test_simulate_refusals_print_nothing(capsys, tmp_path):
    # Checked before any word is drawn, so --json never opens its array.
    doc = tmp_path / "other.kd"
    steps = (DATA / "10_steps_chain.kd").read_text()
    doc.write_text(steps + "measure m on T = { u: 1, v: 0, w: 0 }\n")
    walk = ["simulate", str(DATA / "06_three_state.kd"), "--chain", "walk", "--seed", "1"]
    for argv, message in (
        (walk + ["-n", "2", "--count", "-1"], "trajectory count must be nonnegative"),
        (walk + ["-n", "0", "--count", "3"], "horizon 0 outside 1..4"),
        (["simulate", str(doc), "--chain", "two", "-n", "2", "--seed", "1", "--count", "3",
          "--initial", "m"], "initial distribution on T, chain starts in S"),
    ):
        for flags in ([], ["--json"]):
            assert run(capsys, *argv, *flags) == (2, "", f"error: {message}\n")


class Discard:
    def write(self, text):
        return len(text)


def test_simulate_memory_does_not_grow_with_count(monkeypatch):
    # Each block is written as it is drawn, so ten times the trajectories
    # needs about the same peak memory.
    monkeypatch.setattr(sys, "stdout", Discard())
    argv = ["simulate", str(DATA / "06_three_state.kd"), "--chain", "walk", "-n", "4",
            "--seed", "5", "--count"]
    assert main(argv + ["1"]) == 0  # imports are done before anything is traced
    peaks = []
    for count in (10_000, 100_000):
        tracemalloc.start()
        try:
            assert main(argv + [str(count)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_simulate_steps_chain_needs_initial(capsys):
    code, out, err = run(
        capsys,
        "simulate", str(DATA / "10_steps_chain.kd"),
        "--chain", "two", "-n", "2", "--seed", "5", "--count", "3",
    )
    assert code == 2
    code, out, err = run(
        capsys,
        "simulate", str(DATA / "10_steps_chain.kd"),
        "--chain", "two", "-n", "2", "--seed", "5", "--count", "3",
        "--initial", "start",
    )
    assert code == 2  # no measure named start in that document


def test_certify_bounded(capsys):
    code, out, _ = run(
        capsys,
        "certify", str(DATA / "05_rademacher.kd"),
        "--rv", "X", "--measure", "fair", "--method", "bounded",
    )
    assert code == 0
    assert "c = 1" in out


def test_certify_grid_and_violation(capsys):
    code, out, _ = run(
        capsys,
        "certify", str(DATA / "05_rademacher.kd"),
        "--rv", "X", "--measure", "fair", "--method", "grid", "--c", "1",
        "--json",
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["verified"] is True and cert["constant"] == "1"
    code, out, err = run(
        capsys,
        "certify", str(DATA / "05_rademacher.kd"),
        "--rv", "X", "--measure", "fair", "--method", "grid", "--c", "1/2",
    )
    assert code == 1
    assert "violation" in err


def test_certify_grid_beyond_float_range(capsys, tmp_path):
    # exp(c t^2 / 2) and, for +-1000, mgf(t) itself overflow a float on the
    # default grid [-10, 10]
    code, out, _ = run(
        capsys,
        "certify", str(DOCS / "rademacher.kd"),
        "--rv", "X", "--measure", "mu", "--method", "grid", "--c", "81",
    )
    assert code == 0
    assert out == "certified: c = 81 via gridCheck (plainMeasure)\n"
    wide = tmp_path / "wide.kd"
    wide.write_text(
        "space S { plus minus }\n"
        "measure mu on S = { plus: 1/2, minus: 1/2 }\n"
        "realrv X on S = { plus: 1000, minus: -1000 }\n"
    )
    args = ["certify", str(wide), "--rv", "X", "--measure", "mu", "--method"]
    code, out, _ = run(capsys, *args, "bounded")
    assert code == 0
    assert out == "certified: c = 1000000 via boundedRange (plainMeasure)\n"
    code, out, _ = run(capsys, *args, "grid", "--c", "1000000")
    assert code == 0
    assert out == "certified: c = 1000000 via gridCheck (plainMeasure)\n"
    code, out, err = run(capsys, *args, "grid", "--c", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("violation: mgf bound violated at t = -10: mgf = inf > ")


def test_certify_grid_too_fine_exit_2(capsys):
    # 2 * 10^10 + 1 points; building them used to exhaust memory
    code, out, err = run(
        capsys,
        "certify", str(DOCS / "rademacher.kd"),
        "--rv", "X", "--measure", "mu", "--method", "grid", "--c", "1",
        "--grid-step", "1/1000000000",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: grid of 20000000001 points on [-10, 10] exceeds the limit of "
        "100000 points; use a larger step\n"
    )


KERNEL_SCOPE = (
    "space A { a b c }\n"
    "space S { lo mid hi }\n"
    "measure mu on A = { a: 1/3, b: 2/3, c: 0 }\n"
    "measure spread on S = { lo: 1/8, mid: 3/4, hi: 1/8 }\n"
    "kernel k : A -> S = {\n"
    "  a: { lo: 1/2, mid: 0, hi: 1/2 }\n"
    "  b: { lo: 1/8, mid: 3/4, hi: 1/8 }\n"
    "  c: { lo: 0, mid: 0, hi: 1 }\n"
    "}\n"
    "realrv X on S = { lo: -1, mid: 0, hi: 1 }\n"
)


def test_certify_kernel_scope(capsys, tmp_path):
    # the row at c has mean 1, but mu gives c no mass
    doc = tmp_path / "scope.kd"
    doc.write_text(KERNEL_SCOPE)
    args = ["certify", str(doc), "--rv", "X", "--measure", "mu", "--kernel", "k"]
    code, out, err = run(capsys, *args, "--method", "bounded")
    assert (code, out, err) == (0, "certified: c = 1 via boundedRange (kernelScope)\n", "")
    code, out, err = run(capsys, *args, "--method", "grid", "--c", "1", "--json")
    assert (code, err) == (0, "")
    assert out == (
        '{"constant":"1","scope":"kernelScope",'
        '"method":{"name":"gridCheck","T":"10","step":"1/100"},'
        '"verified":true,"integrability":"vacuous (finite sums)"}\n'
    )
    doc.write_text(KERNEL_SCOPE.replace("c: 0 }", "c: 1 }"))
    code, out, err = run(capsys, *args, "--method", "bounded")
    assert (code, out) == (1, "")
    assert "exact mean 1" in err


def test_hoeffding_refuses_a_law_too_large_to_convolve(capsys, tmp_path):
    code, out, err = run(
        capsys, "hoeffding", str(DOCS / "rademacher.kd"), "--rv", "X", "--measure", "mu",
        "-n", "1000000", "-t", "1",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: the 1000000-fold convolution visits up to 1000000999998 (sum, value) "
        "pairs of weights of up to 2000000 bits, 1000000999998 * (2000000 + 1600) "
        "= 2001602001595996800 pair-bits, above the limit of 34359738368\n"
    )
    # a span of 10^4299 lattice steps: the counts have more than 4300 digits
    span = 10**4299
    wide = tmp_path / "wide.kd"
    wide.write_text(
        "space S { a b c }\n"
        "measure mu on S = { a: 1/3, b: 1/3, c: 1/3 }\n"
        f"realrv X on S = {{ a: 0, b: 1, c: {span} }}\n"
    )
    code, out, err = run(
        capsys, "hoeffding", str(wide), "--rv", "X", "--measure", "mu",
        "-n", "3", "-t", "1", "--sigma2", "1",
    )
    pairs = 3 * (3 * span + 2)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the 3-fold convolution visits up to {Decimal(pairs)} (sum, value) "
        f"pairs of weights of up to 6 bits, {Decimal(pairs)} * (6 + 1600) "
        f"= {Decimal(pairs * 1606)} pair-bits, above the limit of 34359738368\n"
    )


def test_hoeffding_sigma2_below_the_range_constant(capsys, tmp_path):
    # spread has variance 1/4 and range constant 1; the grid certifies 1/2
    doc = tmp_path / "scope.kd"
    doc.write_text(KERNEL_SCOPE)
    args = ["hoeffding", str(doc), "--rv", "X", "--measure", "spread", "-n", "6", "-t", "3"]
    code, out, err = run(capsys, *args, "--sigma2", "1/2")
    assert (code, err) == (0, "")
    assert out == "exact tail 5083/262144 <= bound 0.223130160148: holds\n"
    code, out, err = run(capsys, *args, "--sigma2", "1/2", "--json")
    assert (code, err) == (0, "")
    assert out == '{"exactTail":"5083/262144","bound":0.223130160148,"holds":true}\n'
    code, out, err = run(capsys, *args, "--sigma2", "1/8")
    assert (code, out) == (1, "")
    assert "does not certify sub-Gaussian at 1/8" in err


def test_writers_format_each_label_once(capsys, monkeypatch):
    doc = parse_document((DATA / "08_nested.kd").read_text())
    calls = []

    def counting(atom):
        calls.append(atom)
        return format_atom(atom)

    for module in (cli, document):
        monkeypatch.setattr(module, "format_atom", counting)
    for name, k in doc.kernels.items():
        bound = k.domain.size + k.codomain.size
        calls.clear()
        cli._print_value(k, as_json=False)
        assert len(calls) <= bound, name
        single = Document()
        single.declare("kernel", name, k)
        calls.clear()
        serialize_document(single)
        assert len(calls) <= bound, name
    capsys.readouterr()


def test_hoeffding_json_matches_contract(capsys):
    code, out, _ = run(
        capsys,
        "hoeffding", str(DATA / "05_rademacher.kd"),
        "--rv", "X", "--measure", "fair", "-n", "10", "-t", "4", "--json",
    )
    assert code == 0
    assert out.strip() == '{"exactTail":"11/64","bound":0.449328964117,"holds":true}'


def test_hoeffding_bound_past_the_float_exponent_range(capsys):
    # t^2 / (2 n sigma^2) = 5e318 does not convert to a float; exp of it is 0
    args = ["hoeffding", str(DOCS / "rademacher.kd"), "--rv", "X", "--measure", "mu"]
    code, out, _ = run(capsys, *args, "-n", "10", "-t", "1e160")
    assert code == 0
    assert out == "exact tail 0 <= bound 0: holds\n"
    code, out, _ = run(capsys, *args, "-n", "10", "-t", "1e160", "--json")
    assert code == 0
    assert out == '{"exactTail":"0","bound":0,"holds":true}\n'


@pytest.mark.parametrize(
    "grid, exponent",
    [
        (["--c", "1" + "0" * 400], "5" + "0" * 401),
        (["--c", "1", "--grid-T", "1" + "0" * 200, "--grid-step", "1" + "0" * 199],
         "5" + "0" * 399),
    ],
    ids=["large-c", "large-T"],
)
def test_certify_grid_exponent_past_the_float_range_exit_2(capsys, grid, exponent):
    code, out, err = run(
        capsys,
        "certify", str(DOCS / "rademacher.kd"),
        "--rv", "X", "--measure", "mu", "--method", "grid", *grid,
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: grid exponent c T^2 / 2 = {exponent} is past the float range; "
        "use a smaller constant or grid radius\n"
    )


TINY_WEIGHT = (
    "space S { a b }\n"
    f"measure mu on S = {{ a: 1/1{'0' * 400}, b: {'9' * 400}/1{'0' * 400} }}\n"
    "measure nu on S = { a: 1, b: 0 }\n"
    "realrv X on S = { a: 1000, b: 0 }\n"
)


def test_weights_below_the_float_range(capsys, tmp_path):
    # 1/10^400 is a positive weight whose float is 0.0
    doc = tmp_path / "tiny.kd"
    doc.write_text(TINY_WEIGHT)
    for expr in ("kl(nu, mu)", "renyi(1/2, mu, nu)"):  # both 400 log 10
        code, out, err = run(capsys, "eval", str(doc), "--expr", expr)
        assert (code, out, err) == (0, "921.034037198\n", "")
    code, out, err = run(capsys, "eval", str(doc), "--expr", "entropy(mu)")
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run(
        capsys,
        "certify", str(doc), "--rv", "X", "--measure", "mu", "--method", "grid",
        "--c", "1000000", "--grid-T", "10", "--grid-step", "1",
    )
    assert (code, err) == (0, "")
    assert out == "certified: c = 1000000 via gridCheck (plainMeasure)\n"


def test_renyi_order_rounding_to_one_exit_2(capsys):
    order = f"{'9' * 400}/1{'0' * 400}"
    code, out, err = run(
        capsys, "eval", str(DOCS / "weather.kd"), "--expr", f"renyi({order}, mu, nu)"
    )
    assert (code, out) == (2, "")
    assert err == f"error: alpha {order} rounds to 1 in float64\n"


def test_hoeffding_not_certified_exit_1(capsys):
    code, out, err = run(
        capsys,
        "hoeffding", str(DATA / "04_rv_partition.kd"),
        "--rv", "f", "--measure", "u", "-n", "5", "-t", "1",
    )
    assert code == 1
    assert "not certified" in err


@pytest.mark.parametrize("n, t, message", [
    ("0", "1", "n must be at least 1"),
    ("5", "0", "threshold t must be positive"),
    ("1000000", "1",
     "the 1000000-fold convolution visits up to 5999997999996 (sum, value) pairs "
     "of weights of up to 3000000 bits, 5999997999996 * (3000000 + 1600) "
     "= 18009593996787993600 pair-bits, above the limit of 34359738368"),
], ids=["n", "t", "size"])
@pytest.mark.parametrize("sigma2", [[], ["--sigma2", "1"]], ids=["derived", "given"])
def test_hoeffding_checks_arguments_before_it_certifies(capsys, n, t, message, sigma2):
    # f has mean 5/2, so certifying it first would exit 1 with "not certified"
    code, out, err = run(
        capsys,
        "hoeffding", str(DATA / "04_rv_partition.kd"),
        "--rv", "f", "--measure", "u", "-n", n, "-t", t, *sigma2,
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_hoeffding_certifies_bounded_range_once(capsys, monkeypatch):
    from kernelalg import analytics

    calls = []
    certify = analytics.certify_bounded_range

    def counted(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(analytics, "certify_bounded_range", counted)
    code, out, err = run(
        capsys, "hoeffding", str(DOCS / "rademacher.kd"),
        "--rv", "X", "--measure", "mu", "-n", "10", "-t", "4",
    )
    assert (code, out, err) == (0, "exact tail 11/64 <= bound 0.449328964117: holds\n", "")
    assert len(calls) == 1


def test_long_chain_history_refused_exit_2(capsys, tmp_path):
    """A markov(...) chain holds its step, so 40 steps on 3 states simulate;
    traj(c, 40) would build the history space and is refused at the call."""
    doc = tmp_path / "long.kd"
    doc.write_text(
        "space S { a b c }\n"
        "measure mu on S = { a: 1, b: 0, c: 0 }\n"
        "kernel k : S -> S = {\n"
        "  a: { a: 0, b: 1, c: 0 }\n"
        "  b: { a: 0, b: 0, c: 1 }\n"
        "  c: { a: 1, b: 0, c: 0 }\n"
        "}\n"
        "chain c = markov(mu, k, 40)\n"
    )
    argv = ["simulate", str(doc), "--chain", "c", "-n", "40", "--seed", "1", "--count", "3"]
    chain = parse_document(doc.read_text(encoding="utf-8")).chains["c"]
    text, _ = want = reference_outputs(chain, 40, 1, 3)
    assert simulate_outputs(capsys, argv) == want
    # k is the cycle a -> b -> c -> a, so every trajectory from a is the same
    assert text == ("→".join((("b", "c", "a") * 14)[:40]) + "\n") * 3
    code, out, err = run(capsys, "eval", str(doc), "--expr", "traj(c, 40)")
    assert (code, out) == (2, "")
    assert err == (
        "error: history space after step 12 has 1594323 atoms, above the limit of 1048576\n"
    )


ONE_ATOM = "space U { a }\nmeasure mu on U = { a: 1 }\nkernel k : U -> U = { a: { a: 1 } }\n"


@pytest.mark.parametrize("n", [2000, 3_000_000])
def test_long_chain_on_one_atom_refused_exit_2(capsys, tmp_path, monkeypatch, n):
    """Refused before any history product is built."""
    doc = tmp_path / "long.kd"
    doc.write_text(ONE_ATOM + f"chain c = markov(mu, k, {n})\n")
    monkeypatch.setattr(sequential, "Product", None)
    code, out, err = run(capsys, "eval", str(doc), "--expr", "k")
    assert (code, out) == (2, "")
    assert err == f"error: 4:11: chain of {n} steps, above the limit of 64\n"


def test_chain_at_the_step_limit_builds(capsys, tmp_path):
    doc = tmp_path / "limit.kd"
    doc.write_text(ONE_ATOM + "chain c = markov(mu, k, 64)\n")
    code, out, _ = run(
        capsys, "simulate", str(doc), "--chain", "c", "-n", "64", "--seed", "1", "--count", "1"
    )
    assert (code, out) == (0, "→".join(["a"] * 64) + "\n")


def test_results_past_the_int_to_str_digit_limit_print_in_full(capsys, tmp_path):
    sevens, threes = "7" * 3000, "3" * 3000
    doc = tmp_path / "big.kd"
    doc.write_text(
        "space W { a b }\n"
        f"measure mu on W = {{ a: 1/{sevens}, b: 0 }}\n"
        f"measure nu on W = {{ a: 1/{threes}, b: 0 }}\n"
    )
    den = str(Decimal(int(sevens) * int(threes)))
    assert len(den) > 4300
    expr = "mcompProd(mu, const(W, nu))"
    code, out, err = run(capsys, "eval", str(doc), "--expr", expr)
    assert (code, err) == (0, "")
    assert out == (
        f"measure on (W x W) = {{ (a,a): 1/{den}, (a,b): 0, (b,a): 0, (b,b): 0 }}\n"
    )
    code, out, err = run(capsys, "eval", str(doc), "--expr", expr, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["weights"] == {
        "(a,a)": f"1/{den}", "(a,b)": "0", "(b,a)": "0", "(b,b)": "0"
    }
    # a density of d(mu) / d(big) = 1/(sevens * threes) at a, in both writers
    doc.write_text(doc.read_text() + f"measure big on W = {{ a: {threes}, b: 0 }}\n")
    expr = "rnDeriv(const(W, mu), const(W, big))"
    code, out, err = run(capsys, "eval", str(doc), "--expr", expr)
    assert (code, err) == (0, "")
    assert out == (
        f"density on (W x W) = {{ (a,a): 1/{den}, (a,b): 0, (b,a): 1/{den}, (b,b): 0 }}\n"
    )
    code, out, err = run(capsys, "eval", str(doc), "--expr", expr, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["values"] == {
        "(a,a)": f"1/{den}", "(a,b)": "0", "(b,a)": f"1/{den}", "(b,b)": "0"
    }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integer literals of any length",
)
def test_over_long_integer_literal_exit_2(capsys, tmp_path):
    big = "1" * (sys.get_int_max_str_digits() + 1)
    doc = tmp_path / "long.kd"
    doc.write_text(f"space W {{ a b }}\nmeasure mu on W = {{ a: {big}/{big}0, b: 9/10 }}\n")
    code, out, err = run(capsys, "eval", str(doc), "--expr", "mu")
    assert (code, out) == (2, "")
    assert err.startswith("error: 2:24: integer literal of")
    code, out, err = run(
        capsys, "eval", str(DATA / "01_weather.kd"), "--expr", f"renyi({big}, mu, mu)"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: 1:7: integer literal of")


def test_dense_result_above_the_limit_refused_exit_2(capsys, tmp_path):
    """parallel(k, k) on 40 atoms has 2.56e6 entries and is built; the outer
    parallel would have 4.1e9 and is refused before any row is built."""
    atoms = [f"s{i}" for i in range(40)]

    def row(i):
        return ", ".join(
            f"{a}: {'1/2' if j in (i, (i + 1) % 40) else '0'}" for j, a in enumerate(atoms)
        )

    doc = tmp_path / "forty.kd"
    doc.write_text(
        f"space S {{ {' '.join(atoms)} }}\n"
        "kernel k : S -> S = {\n"
        + "".join(f"  {a}: {{ {row(i)} }}\n" for i, a in enumerate(atoms))
        + "}\n"
    )
    code, out, err = run(capsys, "eval", str(doc), "--expr", "parallel(k, parallel(k, k))")
    assert (code, out) == (2, "")
    assert "parallel result of 64000 x 64000 = 4096000000 entries, above the limit of " \
        "16777216" in err


def test_compose_above_the_limit_refused_exit_2(capsys, tmp_path):
    """comp(g, f) through one atom asks for 5000 x 5000 entries, which neither
    operand holds, and is refused before any row is built."""
    atoms = [f"a{i}" for i in range(5000)]
    doc = tmp_path / "through_one.kd"
    doc.write_text(
        f"space A {{ {' '.join(atoms)} }}\n"
        "space U { u }\n"
        "kernel f : A -> U = {\n"
        + "".join(f"  {a}: {{ u: 1 }}\n" for a in atoms)
        + "}\n"
        "kernel g : U -> A = {\n"
        "  u: { " + ", ".join(f"{a}: 1/5000" for a in atoms) + " }\n"
        "}\n"
    )
    code, out, err = run(capsys, "eval", str(doc), "--expr", "comp(g, f)")
    assert (code, out) == (2, "")
    assert "compose result of 5000 x 5000 = 25000000 entries, above the limit of " \
        "16777216" in err


def _digits(q: Fraction) -> str:
    """`p/q` of a Fraction with every digit, past the int-to-str limit too."""
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def test_nonzero_mean_past_the_digit_limit_is_printed_in_full(capsys, tmp_path):
    p, q = 10**2999 + 7, 10**2999 + 9
    doc = tmp_path / "mean.kd"
    doc.write_text(
        "space S { a b }\n"
        f"measure mu on S = {{ a: 1/{p}, b: {p - 1}/{p} }}\n"
        f"realrv X on S = {{ a: 1/{q}, b: 0 }}\n"
    )
    mean = _digits(Fraction(1, p * q))
    assert len(mean) > 2 + 4300
    expected = f"not certified: in-scope row has exact mean {mean}, expected 0\n"
    for argv in (
        ["certify", str(doc), "--rv", "X", "--measure", "mu", "--method", "bounded"],
        ["hoeffding", str(doc), "--rv", "X", "--measure", "mu", "-n", "2", "-t", "1"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", expected)


def test_grid_violation_past_the_digit_limit_is_printed_in_full(capsys):
    radius = 10 + Fraction(1, 10**2500 + 3)
    step = Fraction(1, 100) + Fraction(1, 10**2500 + 7)
    # Rademacher's mgf cosh(t) first exceeds exp(9/10 t^2 / 2) at grid point
    # 916, t about -0.84; its denominator has about 5000 digits
    t = -radius + 916 * step
    assert len(str(Decimal(t.denominator))) > 4300
    code, out, err = run(
        capsys,
        "certify", str(DOCS / "rademacher.kd"),
        "--rv", "X", "--measure", "mu", "--method", "grid", "--c", "9/10",
        "--grid-T", _digits(radius), "--grid-step", _digits(step),
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"violation: mgf bound violated at t = {_digits(t)}: mgf = ")
    assert err.count("\n") == 1 and "Traceback" not in err
