import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kernelalg.document import MAX_NESTING, parse_document, serialize_document
from kernelalg.errors import (
    DocumentError,
    DuplicateName,
    KdSyntaxError,
    UnknownAtom,
    UnknownName,
    WeightCountMismatch,
)
from kernelalg.scalar import Scalar

DATA = Path(__file__).parent / "data"

WEATHER = """
# the two-state weather model
space W { good bad }
measure mu on W = { good: 1/2, bad: 1/2 }
kernel k : W -> W = {
  good: { good: 4/5, bad: 1/5 }
  bad: { good: 2/5, bad: 3/5 }
}
"""


def test_weather_document_parses_markov():
    doc = parse_document(WEATHER)
    k = doc.kernels["k"]
    assert k.is_markov()
    assert k.weight("good", "good") == Scalar(4, 5)
    assert doc.measures["mu"].is_probability()


def test_round_trip_preserves_document():
    doc = parse_document(WEATHER)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again) == text


def test_atom_order_is_preserved():
    doc = parse_document("space S { z y x }")
    assert doc.spaces["S"].atoms == ("z", "y", "x")
    text = serialize_document(doc)
    assert "space S { z y x }" in text


def test_corpus_round_trip_byte_stability():
    paths = sorted(DATA.glob("*.kd"))
    assert len(paths) >= 10
    for path in paths:
        doc = parse_document(path.read_text())
        once = serialize_document(doc)
        parsed = parse_document(once)
        assert parsed == doc, path.name
        assert serialize_document(parsed) == once, path.name


def test_kernel_round_trip_is_bit_exact():
    doc = parse_document(WEATHER)
    again = parse_document(serialize_document(doc))
    assert again.kernels["k"] == doc.kernels["k"]


def test_duplicate_name_per_sort():
    with pytest.raises(DuplicateName):
        parse_document("space S { a }\nspace S { b }")
    # same name in different sorts is allowed
    doc = parse_document("space S { a }\nmeasure S on S = { a: 1 }")
    assert "S" in doc.measures


def test_forward_references_rejected():
    with pytest.raises(UnknownName):
        parse_document("measure m on S = { a: 1 }")
    with pytest.raises(UnknownName):
        parse_document("space S { a }\nchain c = markov(m, k, 2)")


def test_unknown_atom_position():
    with pytest.raises(UnknownAtom) as exc:
        parse_document("space S { a b }\nmeasure m on S = { a: 1/2, q: 1/2 }")
    assert exc.value.line == 2


def test_weight_count_mismatch():
    with pytest.raises(WeightCountMismatch):
        parse_document("space S { a b }\nmeasure m on S = { a: 1 }")
    with pytest.raises(WeightCountMismatch):
        parse_document(
            "space S { a b }\nkernel k : S -> S = { a: { a: 1, b: 0 } }"
        )


def test_decimals_rejected():
    with pytest.raises(KdSyntaxError):
        parse_document("space S { a }\nmeasure m on S = { a: 0.5 }")


def test_negative_weight_rejected_for_measures():
    with pytest.raises(KdSyntaxError):
        parse_document("space S { a }\nmeasure m on S = { a: -1 }")


def _nested_space(depth):
    text = "W"
    for _ in range(depth):
        text = f"({text} x W)"
    return text


def _nested_atom(depth):
    return "(" * depth + "a" + ",a)" * depth


def test_space_expression_nesting_is_capped():
    doc = parse_document(
        f"space W {{ a }}\nmeasure m on {_nested_space(MAX_NESTING)} = "
        f"{{ {_nested_atom(MAX_NESTING)}: 1 }}"
    )
    assert doc.measures["m"].weights == (Scalar(1),)
    prefix = "measure m on "
    with pytest.raises(KdSyntaxError) as exc:
        parse_document(f"space W {{ a }}\n{prefix}{_nested_space(2000)} = {{}}")
    assert (exc.value.line, exc.value.column) == (2, len(prefix) + MAX_NESTING + 1)
    assert f"nested deeper than {MAX_NESTING}" in str(exc.value)


def test_atom_nesting_is_capped():
    prefix = "measure m on W = { "
    deep = "(" * 2000 + "a" + ")" * 2000
    with pytest.raises(KdSyntaxError) as exc:
        parse_document(f"space W {{ a }}\n{prefix}{deep}: 1 }}")
    assert (exc.value.line, exc.value.column) == (2, len(prefix) + MAX_NESTING + 1)


def test_signed_values_allowed_for_realrv():
    doc = parse_document("space S { a b }\nrealrv f on S = { a: -3/2, b: 2 }")
    from fractions import Fraction

    assert doc.realrvs["f"].values == (Fraction(-3, 2), Fraction(2))


def test_large_space_declaration_parses_in_linear_time():
    """Eight times the labels take about eight times as long, not 64 times as
    long; the best of five interleaved runs keeps load spikes out."""
    texts = {n: "space S { " + " ".join(f"a{i}" for i in range(n)) + " }" for n in (2500, 20000)}
    best = dict.fromkeys(texts, float("inf"))
    for _ in range(5):
        for n, text in texts.items():
            start = time.perf_counter()
            doc = parse_document(text)
            best[n] = min(best[n], time.perf_counter() - start)
    assert best[20000] < 24 * best[2500]
    assert doc.spaces["S"].atoms == tuple(f"a{i}" for i in range(20000))


def test_empty_space_parses():
    doc = parse_document("space E { }")
    assert doc.spaces["E"].size == 0
    assert parse_document(serialize_document(doc)) == doc


def test_product_space_declarations():
    text = (
        "space A { a b }\nspace B { 0 1 }\n"
        "measure joint on (A x B) = "
        "{ (a,0): 1/4, (a,1): 1/4, (b,0): 1/2, (b,1): 0 }"
    )
    doc = parse_document(text)
    joint = doc.measures["joint"]
    assert joint.weight(("b", "0")) == Scalar(1, 2)
    assert parse_document(serialize_document(doc)) == doc


def test_chain_declarations_validate():
    with pytest.raises(DocumentError):
        parse_document(
            "space S { a b }\n"
            "measure m on S = { a: 1/2, b: 1/2 }\n"
            "kernel k : S -> S = {\n"
            "  a: { a: 1, b: 1 }\n"
            "  b: { a: 0, b: 1 }\n"
            "}\n"
            "chain c = markov(m, k, 2)"
        )
    # `markov(...)` checks its step once, through the base kernel; each refusal
    # keeps its message and points at the chain form.
    head = (
        "space S { a b }\n"
        "space T { x y }\n"
        "measure m on S = { a: 1/2, b: 1/2 }\n"
        "measure t on T = { x: 1, y: 0 }\n"
        "kernel k : S -> S = { a: { a: 1, b: 0 }  b: { a: 1/2, b: 1/2 } }\n"
        "kernel bad : S -> S = { a: { a: 1, b: 1 }  b: { a: 0, b: 1 } }\n"
        "kernel r : S -> T = { a: { x: 1, y: 0 }  b: { x: 0, y: 1 } }\n"
    )
    cases = {
        "markov(m, r, 2)": "a Markov chain step must be square, got S -> T",
        "markov(m, bad, 2)": "kernel S -> S has non-probability rows",
        "markov(t, k, 2)": "initial distribution on T does not match state space S",
        "markov(m, k, 65)": "chain of 65 steps, above the limit of 64",
    }
    for form, message in cases.items():
        with pytest.raises(DocumentError) as exc:
            parse_document(head + "chain c = " + form)
        assert str(exc.value) == f"8:11: {message}"
        assert (exc.value.line, exc.value.column) == (8, 11)
    # the chain holds its step, so a history space of 2^21 atoms declares
    doc = parse_document(head + "chain c = markov(m, k, 20)")
    assert doc.chains["c"].steps == (doc.kernels["k"],) * 20


@given(
    st.lists(
        st.fractions(min_value=0, max_value=4, max_denominator=64),
        min_size=1,
        max_size=6,
    )
)
def test_any_exact_weights_survive_the_text_format(weights):
    atoms = " ".join(f"a{i}" for i in range(len(weights)))
    entries = ", ".join(f"a{i}: {w}" for i, w in enumerate(weights))
    doc = parse_document(f"space S {{ {atoms} }}\nmeasure m on S = {{ {entries} }}")
    assert [w.as_fraction() for w in doc.measures["m"].weights] == [
        Fraction(w) for w in weights
    ]
    again = parse_document(serialize_document(doc))
    assert again == doc


def test_partition_round_trip():
    text = "space S { a b c }\npartition G on S = { {c a} {b} }"
    doc = parse_document(text)
    # canonical form sorts atoms within a block by space order
    assert "{a c}" in serialize_document(doc)
    assert parse_document(serialize_document(doc)) == doc


# Python's int() refuses decimal strings longer than this (0: no limit).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python converts integer literals of any length"
)
def test_over_long_integer_literal_is_syntax_error():
    big = "1" * (DIGIT_LIMIT + 1)
    head = "space W { a }\nmeasure m on W = { a: 1 }\nkernel k : W -> W = { a: { a: 1 } }\n"
    cases = [
        ("measure n on W = { a: ", " }"),
        ("measure n on W = { a: 1/", " }"),
        ("realrv f on W = { a: -", "/2 }"),
        ("chain c = markov(m, k, ", ")"),
    ]
    for before, after in cases:
        with pytest.raises(KdSyntaxError) as exc:
            parse_document(head + before + big + after)
        assert (exc.value.line, exc.value.column) == (4, len(before) + 1)
        assert f"integer literal of {DIGIT_LIMIT + 1} digits is too long" in str(exc.value)
    # the limit itself still parses
    doc = parse_document(head + f"realrv f on W = {{ a: {big[1:]} }}")
    assert doc.realrvs["f"].values == (Fraction(int(big[1:])),)
