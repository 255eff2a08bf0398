"""Golden table of `.kd` parse errors.

Every error path of `parse_document` is raised by one document with a single
fault: the lexical errors, each syntax error, unknown and repeated names,
atoms, rows and map entries, missing weights, rows and map entries, and the
chain forms.  The recorded exception class, message and line:col must not
change.

Documents with more than one fault are kept out: which fault is reported
first is not part of the contract.

    PYTHONPATH=src python tests/test_document_golden.py

rewrites `data/document/golden.json` from the cases below.
"""

import json
from pathlib import Path

import pytest

from kernelalg.document import parse_document
from kernelalg.errors import KernelAlgError

GOLDEN_PATH = Path(__file__).parent / "data" / "document" / "golden.json"

# A valid prelude; each case appends one faulty declaration to it unless the
# fault is in the prelude's own kind of declaration.
PRELUDE = """\
space W { a b }
space U { u }
measure mu on W = { a: 1/2, b: 1/2 }
kernel k : W -> W = {
  a: { a: 1/3, b: 2/3 }
  b: { a: 1, b: 0 }
}
kernel h : W -> W = {
  a: { a: 1/2, b: 1/4 }
  b: { a: 1, b: 0 }
}
"""

LONG = "7" * 5000  # past the 4300-digit default limit of int()

CASES = {
    # lexical
    "unexpected character": "space W { a $ }",
    "unexpected character after a comment": "# note\n  space W { a }\n   @",
    "unexpected control character": "space W {\x0ba }",
    "decimal literal": PRELUDE + "measure nu on W = { a: 0.5, b: 1/2 }",
    "nesting past 100": PRELUDE + "measure nu on " + "(" * 101,
    "over-long numerator": PRELUDE + f"measure nu on W = {{ a: {LONG}, b: 1 }}",
    "over-long denominator": PRELUDE + f"measure nu on W = {{ a: 1/{LONG}, b: 1 }}",
    "over-long chain length": PRELUDE + f"chain c = markov(mu, k, {LONG})",
    "zero denominator": PRELUDE + "measure nu on W = { a: 1/0, b: 1 }",
    "negative measure weight": PRELUDE + "measure nu on W = { a: -1, b: 2 }",
    # declarations and names
    "unknown keyword": "spaces W { a }",
    "integer where a keyword belongs": "space W { a }\n1",
    "stray closing brace": "space W { a } }",
    "keyword as a name": "space measure { a }",
    "unit as a name": "space unit { a }",
    "integer as a name": "space 7 { a }",
    "name at end of input": "space",
    "missing opening brace": "space W a b }",
    "bad atom label": "space W { a ( }",
    "space block at end of input": "space W { a",
    "repeated label": "space W { a b a }",
    "repeated space name": PRELUDE + "space W { c }",
    "repeated measure name": PRELUDE + "measure mu on W = { a: 1, b: 0 }",
    "repeated kernel name": PRELUDE + "kernel k : U -> U = { u: { u: 1 } }",
    "repeated chain name": PRELUDE
    + "chain c = markov(mu, k, 2)\nchain c = markov(mu, k, 3)",
    "missing on": PRELUDE + "measure nu W = { a: 1, b: 0 }",
    "missing equals": PRELUDE + "measure nu on W { a: 1, b: 0 }",
    # space expressions
    "unknown space name": PRELUDE + "measure nu on V = { a: 1 }",
    "unknown space inside a product": PRELUDE + "measure nu on (W x V) = { }",
    "missing x": PRELUDE + "measure nu on (W y W) = { }",
    "integer for x": PRELUDE + "measure nu on (W 1 W) = { }",
    "unclosed product": PRELUDE + "measure nu on (W x W = { }",
    "space expression expected": PRELUDE + "measure nu on = { }",
    "space expression at end of input": PRELUDE + "measure nu on",
    # atoms
    "unknown atom in weights": PRELUDE + "measure nu on W = { a: 1/2, c: 1/2 }",
    "unknown product atom": PRELUDE
    + "measure nu on (W x U) = { (a,u): 1, (c,u): 0 }",
    "pair atom on a base space": PRELUDE + "measure nu on W = { (a,b): 1, b: 0 }",
    "unit atom on a base space": PRELUDE + "measure nu on W = { (): 1, b: 0 }",
    "missing comma in a pair atom": PRELUDE
    + "measure nu on (W x U) = { (a u): 1, (b,u): 0 }",
    "atom expected": PRELUDE + "measure nu on W = { : 1, b: 0 }",
    "atom expected at end of input": PRELUDE + "measure nu on W = {",
    "missing colon after an atom": PRELUDE + "measure nu on W = { a 1, b: 0 }",
    "weight expected": PRELUDE + "measure nu on W = { a: b, b: 0 }",
    # weights
    "repeated atom in weights": PRELUDE + "measure nu on W = { a: 1/2, a: 1/2 }",
    "missing weights": PRELUDE + "measure nu on W = { a: 1 }",
    "missing weights on a product": PRELUDE
    + "measure nu on (W x W) = { (a,b): 1, (b,a): 0 }",
    # kernels
    "missing arrow in a kernel type": PRELUDE
    + "kernel g : W W = { a: { a: 1, b: 0 }, b: { a: 0, b: 1 } }",
    "unknown atom in a row label": PRELUDE
    + "kernel g : W -> W = { a: { a: 1, b: 0 }, c: { a: 0, b: 1 } }",
    "unknown atom in a row": PRELUDE
    + "kernel g : W -> W = { a: { a: 1, c: 0 }, b: { a: 0, b: 1 } }",
    "repeated row": PRELUDE
    + "kernel g : W -> W = { a: { a: 1, b: 0 }, a: { a: 0, b: 1 } }",
    "repeated atom in a row": PRELUDE
    + "kernel g : W -> W = { a: { a: 1, a: 0 }, b: { a: 0, b: 1 } }",
    "missing rows": PRELUDE + "kernel g : W -> W = { a: { a: 1, b: 0 } }",
    "missing weights in a row": PRELUDE
    + "kernel g : W -> W = { a: { a: 1 }, b: { a: 0, b: 1 } }",
    "row block expected": PRELUDE + "kernel g : W -> W = { a: 1, b: { a: 0, b: 1 } }",
    # random variables
    "unknown atom as a map source": PRELUDE + "rv X : W -> W = { a -> b, c -> a }",
    "unknown atom as a map target": PRELUDE + "rv X : W -> W = { a -> b, b -> c }",
    "repeated map entry": PRELUDE + "rv X : W -> W = { a -> b, a -> a, b -> a }",
    "missing map entries": PRELUDE + "rv X : W -> W = { a -> b }",
    "colon for a map arrow": PRELUDE + "rv X : W -> W = { a: b, b -> a }",
    "repeated rv name": PRELUDE
    + "rv X : W -> W = { a -> b, b -> a }\nrv X : W -> W = { a -> a, b -> b }",
    "missing realrv values": PRELUDE + "realrv f on W = { a: -1 }",
    "repeated atom in realrv values": PRELUDE + "realrv f on W = { a: -1, a: 1 }",
    "double sign in realrv values": PRELUDE + "realrv f on W = { a: --1, b: 1 }",
    # partitions
    "unknown atom in a partition": PRELUDE + "partition G on W = { {a} {c} }",
    "overlapping partition blocks": PRELUDE + "partition G on W = { {a} {a b} }",
    "partition missing an atom": PRELUDE + "partition G on W = { {a} }",
    "partition block expected": PRELUDE + "partition G on W = { a b }",
    # chains
    "bad chain form": PRELUDE + "chain c = walk(mu, k, 2)",
    "chain form expected": PRELUDE + "chain c = (mu, k, 2)",
    "chain length zero": PRELUDE + "chain c = markov(mu, k, 0)",
    "chain length not an integer": PRELUDE + "chain c = markov(mu, k, n)",
    "chain length a fraction": PRELUDE + "chain c = markov(mu, k, 1/2)",
    "missing comma in markov": PRELUDE + "chain c = markov(mu, k 2)",
    "unknown measure name": PRELUDE + "chain c = markov(nu, k, 2)",
    "unknown kernel name": PRELUDE + "chain c = markov(mu, g, 2)",
    "unknown kernel name in steps": PRELUDE + "chain c = steps(k, g)",
    "kernel given as the initial measure": PRELUDE + "chain c = markov(k, k, 2)",
    "non-Markov step": PRELUDE + "chain c = markov(mu, h, 2)",
    "non-Markov step in steps": PRELUDE + "chain c = steps(h)",
    "non-square markov step": PRELUDE
    + "kernel g : W -> U = { a: { u: 1 }, b: { u: 1 } }\n"
    "chain c = markov(mu, g, 2)",
    "initial measure not a probability": PRELUDE
    + "measure m2 on W = { a: 1, b: 1 }\nchain c = markov(m2, k, 2)",
    "steps over the wrong history": PRELUDE + "chain c = steps(k, k)",
    "chain past the step limit": PRELUDE + "chain c = markov(mu, k, 65)",
    "empty steps": PRELUDE + "chain c = steps()",
}


def error_outcome(text):
    try:
        parse_document(text)
    except KernelAlgError as exc:
        return {
            "class": type(exc).__name__,
            "message": str(exc),
            "line": getattr(exc, "line", None),
            "col": getattr(exc, "column", None),
        }
    raise AssertionError(f"{text!r} raised no error")


def record():
    return {name: error_outcome(text) for name, text in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_exactly_the_cases(golden):
    assert list(golden) == list(CASES)


def test_prelude_parses():
    parse_document(PRELUDE)


@pytest.mark.parametrize("name", list(CASES))
def test_error_matches_golden(golden, name):
    assert error_outcome(CASES[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(record(), indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
