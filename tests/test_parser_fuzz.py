"""Fuzzing of the two parsers and the tokenizer they share.

Inputs are random token text and token-level mutations of the checked-in
documents and expressions.  Every input must either parse, and then
round-trip byte-stably, or raise DocumentError carrying a line and column;
no other exception may escape.  The tokenizer is compared with the earlier
match-loop tokenizer kept in genlib on random characters and character-level
mutations of every checked-in document.
"""

import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from genlib import reference_tokens
from kernelalg.document import Tokenizer, parse_document, serialize_document
from kernelalg.errors import DocumentError, KdSyntaxError
from kernelalg.exprlang import OPERATORS, Call, Name, RatArg, SpaceArg, parse_expr

DATA = Path(__file__).parent / "data"
DOCUMENTS = [path.read_text() for path in sorted(DATA.rglob("*.kd"))]
DOCS = Path(__file__).parent.parent / "docs"
ALL_DOCUMENTS = DOCUMENTS + [path.read_text() for path in sorted(DOCS.glob("*.kd"))]
EXPRESSIONS = sorted(
    expr
    for table in json.loads((DATA / "exprlang" / "golden.json").read_text()).values()
    for expr in table
)

# Whitespace and comments stay attached to the token before them, so a
# mutation never merges two tokens by accident.
_TOKEN = re.compile(r"->|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|#[^\n]*|\S")

POOL = sorted(
    {tok for text in DOCUMENTS + EXPRESSIONS for tok in _TOKEN.findall(text)}
    | set(OPERATORS)
    | {"unit", "x", "()", "0", "1/0", "00", "-", "->", "#", ".", "\n", "9" * 40}
    | {"9" * 5000}  # past the 4300-digit default limit of int()
)

FUZZ = settings(max_examples=300, deadline=None, derandomize=True)


def tokens(text):
    return _TOKEN.findall(text)


def random_text():
    return st.lists(st.sampled_from(POOL), max_size=40).map(" ".join)


@st.composite
def mutated(draw, corpus):
    toks = tokens(draw(st.sampled_from(corpus)))
    for _ in range(draw(st.integers(0, 4))):
        if not toks:
            break
        i = draw(st.integers(0, len(toks) - 1))
        action = draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if action == "delete":
            del toks[i]
        elif action == "duplicate":
            toks.insert(i, toks[i])
        elif action == "replace":
            toks[i] = draw(st.sampled_from(POOL))
        elif i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return " ".join(toks)


def assert_positioned(exc: DocumentError):
    assert exc.line is not None and exc.column is not None, repr(exc)


def check_document(text):
    try:
        doc = parse_document(text)
    except DocumentError as exc:
        assert_positioned(exc)
        return
    once = serialize_document(doc)
    again = parse_document(once)
    assert again == doc
    assert serialize_document(again) == once


def expr_text(node) -> str:
    """Canonical text of a parsed expression."""
    if isinstance(node, Call):
        return f"{node.op}({', '.join(expr_text(a) for a in node.args)})"
    if isinstance(node, RatArg):
        return str(node.value)
    if isinstance(node, SpaceArg):
        return expr_text(node.space)
    if isinstance(node, Name):
        return node.text
    if isinstance(node, tuple):
        return f"({expr_text(node[0])} x {expr_text(node[1])})"
    return str(node)  # unit


def check_expr(text):
    try:
        node = parse_expr(text)
    except DocumentError as exc:
        assert_positioned(exc)
        return
    once = expr_text(node)
    assert expr_text(parse_expr(once)) == once


def test_corpora_parse():
    assert len(DOCUMENTS) >= 10 and len(EXPRESSIONS) >= 100
    for text in DOCUMENTS:
        check_document(text)
    for text in EXPRESSIONS:
        check_expr(text)


@FUZZ
@given(st.one_of(random_text(), mutated(DOCUMENTS)))
def test_document_parser_fuzz(text):
    check_document(text)


@FUZZ
@given(st.one_of(random_text(), mutated(EXPRESSIONS), mutated(DOCUMENTS)))
def test_expression_parser_fuzz(text):
    check_expr(text)


# -- the tokenizer against the match-loop reference ----------------------------------

CHARS = "ab_xZ09 \t\r\n\x0b#(){}:,=/-<>.$é→"


def token_outcome(tokenize, text):
    try:
        return tokenize(text)
    except KdSyntaxError as exc:
        return (type(exc).__name__, str(exc), exc.line, exc.column)


def check_tokens(text):
    tokens = lambda t: [(k.kind, k.text, k.line, k.col) for k in Tokenizer(t).tokens]
    assert token_outcome(tokens, text) == token_outcome(reference_tokens, text)


@st.composite
def char_mutated(draw):
    chars = list(draw(st.sampled_from(ALL_DOCUMENTS)))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(chars)))
        if draw(st.booleans()) and i < len(chars):
            del chars[i]
        else:
            chars.insert(i, draw(st.sampled_from(CHARS)))
    return "".join(chars)


def test_tokenizer_matches_reference_on_every_document():
    assert len(ALL_DOCUMENTS) >= 12
    for text in ALL_DOCUMENTS + ["", "\n", "(" * 100 + ")" * 100, "(" * 101]:
        check_tokens(text)


@FUZZ
@given(st.one_of(st.text(CHARS, max_size=80), random_text(), char_mutated()))
def test_tokenizer_matches_reference(text):
    check_tokens(text)
