"""The .kd declarative text format.

A document is an ordered list of named declarations:

    space W { good bad }
    measure mu on W = { good: 1/2, bad: 1/2 }
    kernel k : W -> W = {
      good: { good: 4/5, bad: 1/5 }
      bad: { good: 2/5, bad: 3/5 }
    }
    rv X : W -> W = { good -> bad, bad -> good }
    realrv f on W = { good: 1, bad: -1 }
    partition G on W = { {good} {bad} }
    chain c = markov(mu, k, 3)

Space expressions are `name`, `unit` or `(S x T)`; product atoms are written
`(a,b)`, nested as needed, and `()` is the unit atom.  Weights are exact
rationals `p/q` or integers; decimal literals are rejected.  `#` starts a
line comment.  Measures and kernel rows must mention every atom exactly once,
so a parsed document is total by construction.  Forward references are
rejected: a declaration may only mention names declared above it.

Serialization is canonical (atom order follows the space, rationals in lowest
terms), so parse -> serialize -> parse is the identity and serialize is
byte-stable on its own output.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    DocumentError,
    DuplicateName,
    KdSyntaxError,
    KernelAlgError,
    UnknownAtom,
    UnknownName,
    WeightCountMismatch,
)
from .measures import Kernel, Measure
from .scalar import Scalar
from .sequential import KernelChain, markov_chain
from .spaces import UNIT, UNIT_ATOM, Base, FiniteSpace, Product, SpaceExpr, format_atom
from .variables import PartitionSigma, RandomVariable, RealRV

__all__ = ["Document", "parse_document", "serialize_document", "Tokenizer", "Token"]

_KEYWORDS = {"space", "measure", "kernel", "rv", "realrv", "partition", "chain"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[{}():,=/\-])
    """,
    re.VERBOSE,
)

MAX_NESTING = 100
"""Deepest parenthesis nesting the tokenizer accepts.

The parsers recurse once per `(` and the typechecker and evaluator once per
call node, so deeper input is refused with KdSyntaxError up front instead of
reaching Python's recursion limit."""


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


class Tokenizer:
    """Shared tokenizer for .kd documents and the expression language."""

    def __init__(self, text: str):
        self.tokens = []
        line, col = 1, 1
        pos = 0
        depth = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise KdSyntaxError(
                    f"unexpected character {text[pos]!r}", line, col
                )
            kind = m.lastgroup
            chunk = m.group()
            if kind not in ("ws", "comment"):
                label = chunk if kind == "punct" else kind
                if label == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise KdSyntaxError(
                            f"parentheses nested deeper than {MAX_NESTING}", line, col
                        )
                elif label == ")":
                    depth -= 1
                self.tokens.append(Token(label, chunk, line, col))
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
        self.tokens.append(Token("eof", "", line, col))
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise KdSyntaxError(
                f"expected {want!r}, got {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.next()

    def at(self, kind, text=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)


class Document:
    """Named declarations in order, with per-sort registries."""

    SORTS = ("space", "measure", "kernel", "rv", "realrv", "partition", "chain")

    def __init__(self):
        self.order = []  # (sort, name) in declaration order
        self.spaces: dict[str, SpaceExpr] = {}
        self.measures: dict[str, Measure] = {}
        self.kernels: dict[str, Kernel] = {}
        self.rvs: dict[str, RandomVariable] = {}
        self.realrvs: dict[str, RealRV] = {}
        self.partitions: dict[str, PartitionSigma] = {}
        self.chains: dict[str, KernelChain] = {}
        self.chain_specs: dict[str, tuple] = {}

    def registry(self, sort: str) -> dict:
        return {
            "space": self.spaces,
            "measure": self.measures,
            "kernel": self.kernels,
            "rv": self.rvs,
            "realrv": self.realrvs,
            "partition": self.partitions,
            "chain": self.chains,
        }[sort]

    def declare(self, sort, name, obj, tok=None):
        reg = self.registry(sort)
        if name in reg:
            raise DuplicateName(
                f"{sort} {name!r} already declared",
                tok.line if tok else None,
                tok.col if tok else None,
            )
        reg[name] = obj
        self.order.append((sort, name))

    def lookup(self, sort, name, tok=None):
        reg = self.registry(sort)
        if name not in reg:
            raise UnknownName(
                f"no {sort} named {name!r}",
                tok.line if tok else None,
                tok.col if tok else None,
            )
        return reg[name]

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        if self.order != other.order:
            return False
        for sort in self.SORTS:
            if self.registry(sort) != other.registry(sort):
                return False
        return True


# -- parsing ----------------------------------------------------------------------


def parse_document(text: str) -> Document:
    tz = Tokenizer(text)
    doc = Document()
    while not tz.at("eof"):
        tok = tz.peek()
        if tok.kind != "ident" or tok.text not in _KEYWORDS:
            raise KdSyntaxError(
                f"expected a declaration keyword, got {tok.text!r}",
                tok.line,
                tok.col,
            )
        _PARSERS[tok.text](tz, doc)
    return doc


def _parse_name(tz: Tokenizer) -> Token:
    tok = tz.peek()
    if tok.kind != "ident" or tok.text in _KEYWORDS or tok.text == "unit":
        raise KdSyntaxError(
            f"expected a name, got {tok.text or 'end of input'!r}", tok.line, tok.col
        )
    return tz.next()


def _parse_space_expr(tz: Tokenizer, doc: Document) -> SpaceExpr:
    tok = tz.peek()
    if tok.kind == "ident" and tok.text == "unit":
        tz.next()
        return UNIT
    if tok.kind == "(":
        tz.next()
        left = _parse_space_expr(tz, doc)
        x = tz.expect("ident")
        if x.text != "x":
            raise KdSyntaxError(
                f"expected 'x' between product factors, got {x.text!r}", x.line, x.col
            )
        right = _parse_space_expr(tz, doc)
        tz.expect(")")
        return Product(left, right)
    if tok.kind == "ident":
        tz.next()
        return doc.lookup("space", tok.text, tok)
    raise KdSyntaxError(
        f"expected a space expression, got {tok.text or 'end of input'!r}",
        tok.line,
        tok.col,
    )


def _parse_atom(tz: Tokenizer):
    tok = tz.peek()
    if tok.kind == "(":
        tz.next()
        if tz.at(")"):
            tz.next()
            return UNIT_ATOM
        left = _parse_atom(tz)
        tz.expect(",")
        right = _parse_atom(tz)
        tz.expect(")")
        return (left, right)
    if tok.kind in ("ident", "int"):
        tz.next()
        return tok.text
    raise KdSyntaxError(
        f"expected an atom, got {tok.text or 'end of input'!r}", tok.line, tok.col
    )


def _parse_checked_atom(tz: Tokenizer, space: SpaceExpr):
    tok = tz.peek()
    atom = _parse_atom(tz)
    if atom not in space:
        raise UnknownAtom(
            f"atom {format_atom(atom)} is not in space {space}", tok.line, tok.col
        )
    return atom


def _int_value(tok: Token) -> int:
    """The value of an int token; one past Python's int() digit limit is refused."""
    try:
        return int(tok.text)
    except ValueError:
        raise KdSyntaxError(
            f"integer literal of {len(tok.text)} digits is too long", tok.line, tok.col
        ) from None


def _parse_rational(tz: Tokenizer, signed=False) -> Fraction:
    negative = False
    if signed and tz.at("-"):
        tz.next()
        negative = True
    num = _int_value(tz.expect("int"))
    den = 1
    if tz.at("/"):
        tz.next()
        tok = tz.expect("int")
        den = _int_value(tok)
        if den == 0:
            raise KdSyntaxError("zero denominator", tok.line, tok.col)
    value = Fraction(num, den)
    return -value if negative else value


def _parse_weight_block(tz: Tokenizer, space: SpaceExpr, signed=False) -> dict:
    """Parse `{ atom: p/q, ... }` covering every atom of the space exactly once."""
    opener = tz.expect("{")
    seen = {}
    while not tz.at("}"):
        tok = tz.peek()
        atom = _parse_checked_atom(tz, space)
        if atom in seen:
            raise DuplicateName(
                f"atom {format_atom(atom)} listed twice", tok.line, tok.col
            )
        tz.expect(":")
        seen[atom] = _parse_rational(tz, signed=signed)
        if tz.at(","):
            tz.next()
    tz.expect("}")
    if len(seen) != space.size:
        missing = [a for a in space.atoms if a not in seen]
        raise WeightCountMismatch(
            f"{len(seen)} weights for {space.size} atoms of {space}; "
            "missing " + ", ".join(format_atom(a) for a in missing),
            opener.line,
            opener.col,
        )
    return seen


def _wrap_build(tok: Token, build):
    """Run a core constructor, attaching the source position to any failure."""
    try:
        return build()
    except DocumentError:
        raise
    except KernelAlgError as exc:
        raise DocumentError(str(exc), tok.line, tok.col) from exc


def _parse_space_decl(tz: Tokenizer, doc: Document):
    kw = tz.expect("ident", "space")
    name = _parse_name(tz)
    tz.expect("{")
    labels = []
    while not tz.at("}"):
        tok = tz.peek()
        if tok.kind not in ("ident", "int"):
            raise KdSyntaxError(
                f"expected an atom label, got {tok.text!r}", tok.line, tok.col
            )
        if tok.text in labels:
            raise DuplicateName(
                f"atom label {tok.text!r} repeated", tok.line, tok.col
            )
        labels.append(tz.next().text)
    tz.expect("}")
    space = _wrap_build(kw, lambda: Base(FiniteSpace(name.text, labels)))
    doc.declare("space", name.text, space, name)


def _parse_measure_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "measure")
    name = _parse_name(tz)
    tz.expect("ident", "on")
    space = _parse_space_expr(tz, doc)
    eq = tz.expect("=")
    weights = _parse_weight_block(tz, space)
    measure = _wrap_build(
        eq, lambda: Measure(space, [Scalar(weights[a]) for a in space.atoms])
    )
    doc.declare("measure", name.text, measure, name)


def _parse_kernel_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "kernel")
    name = _parse_name(tz)
    tz.expect(":")
    dom = _parse_space_expr(tz, doc)
    tz.expect("arrow")
    cod = _parse_space_expr(tz, doc)
    eq = tz.expect("=")
    tz.expect("{")
    rows = {}
    while not tz.at("}"):
        tok = tz.peek()
        atom = _parse_checked_atom(tz, dom)
        if atom in rows:
            raise DuplicateName(
                f"row for atom {format_atom(atom)} repeated", tok.line, tok.col
            )
        tz.expect(":")
        weights = _parse_weight_block(tz, cod)
        rows[atom] = Measure(cod, [Scalar(weights[a]) for a in cod.atoms])
        if tz.at(","):
            tz.next()
    tz.expect("}")
    if len(rows) != dom.size:
        missing = [a for a in dom.atoms if a not in rows]
        raise WeightCountMismatch(
            f"{len(rows)} rows for {dom.size} atoms of {dom}; missing "
            + ", ".join(format_atom(a) for a in missing),
            eq.line,
            eq.col,
        )
    kernel = _wrap_build(eq, lambda: Kernel(dom, cod, [rows[a] for a in dom.atoms]))
    doc.declare("kernel", name.text, kernel, name)


def _parse_rv_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "rv")
    name = _parse_name(tz)
    tz.expect(":")
    dom = _parse_space_expr(tz, doc)
    tz.expect("arrow")
    cod = _parse_space_expr(tz, doc)
    eq = tz.expect("=")
    tz.expect("{")
    table = {}
    while not tz.at("}"):
        tok = tz.peek()
        src = _parse_checked_atom(tz, dom)
        if src in table:
            raise DuplicateName(
                f"map entry for {format_atom(src)} repeated", tok.line, tok.col
            )
        tz.expect("arrow")
        table[src] = _parse_checked_atom(tz, cod)
        if tz.at(","):
            tz.next()
    tz.expect("}")
    rv = _wrap_build(eq, lambda: RandomVariable(dom, cod, table))
    doc.declare("rv", name.text, rv, name)


def _parse_realrv_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "realrv")
    name = _parse_name(tz)
    tz.expect("ident", "on")
    space = _parse_space_expr(tz, doc)
    eq = tz.expect("=")
    values = _parse_weight_block(tz, space, signed=True)
    rv = _wrap_build(eq, lambda: RealRV(space, [values[a] for a in space.atoms]))
    doc.declare("realrv", name.text, rv, name)


def _parse_partition_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "partition")
    name = _parse_name(tz)
    tz.expect("ident", "on")
    space = _parse_space_expr(tz, doc)
    eq = tz.expect("=")
    tz.expect("{")
    blocks = []
    while not tz.at("}"):
        tz.expect("{")
        block = []
        while not tz.at("}"):
            block.append(_parse_checked_atom(tz, space))
        tz.expect("}")
        blocks.append(block)
        if tz.at(","):
            tz.next()
    tz.expect("}")
    partition = _wrap_build(eq, lambda: PartitionSigma(space, blocks))
    doc.declare("partition", name.text, partition, name)


def _parse_chain_decl(tz: Tokenizer, doc: Document):
    tz.expect("ident", "chain")
    name = _parse_name(tz)
    tz.expect("=")
    form = tz.expect("ident")
    if form.text == "markov":
        tz.expect("(")
        mtok = _parse_name(tz)
        initial = doc.lookup("measure", mtok.text, mtok)
        tz.expect(",")
        ktok = _parse_name(tz)
        step = doc.lookup("kernel", ktok.text, ktok)
        tz.expect(",")
        ntok = tz.expect("int")
        n = _int_value(ntok)
        if n < 1:
            raise KdSyntaxError("chain length must be >= 1", ntok.line, ntok.col)
        tz.expect(")")
        chain = _wrap_build(form, lambda: markov_chain(initial, step, n))
        doc.chain_specs[name.text] = ("markov", mtok.text, ktok.text, n)
    elif form.text == "steps":
        tz.expect("(")
        step_names = []
        steps = []
        while True:
            ktok = _parse_name(tz)
            step_names.append(ktok.text)
            steps.append(doc.lookup("kernel", ktok.text, ktok))
            if tz.at(","):
                tz.next()
                continue
            break
        tz.expect(")")
        chain = _wrap_build(
            form, lambda: KernelChain(steps[0].domain, steps)
        )
        doc.chain_specs[name.text] = ("steps", tuple(step_names))
    else:
        raise KdSyntaxError(
            f"expected 'markov' or 'steps', got {form.text!r}", form.line, form.col
        )
    doc.declare("chain", name.text, chain, name)


_PARSERS = {
    "space": _parse_space_decl,
    "measure": _parse_measure_decl,
    "kernel": _parse_kernel_decl,
    "rv": _parse_rv_decl,
    "realrv": _parse_realrv_decl,
    "partition": _parse_partition_decl,
    "chain": _parse_chain_decl,
}


# -- serialization -----------------------------------------------------------------


def _weights_body(space, values) -> str:
    return (
        "{ "
        + ", ".join(
            f"{format_atom(a)}: {v}" for a, v in zip(space.atoms, values)
        )
        + " }"
    )


def serialize_document(doc: Document) -> str:
    chunks = []
    for sort, name in doc.order:
        obj = doc.registry(sort)[name]
        if sort == "space":
            labels = " ".join(obj.space.labels)
            chunks.append(f"space {name} {{ {labels} }}" if labels else f"space {name} {{ }}")
        elif sort == "measure":
            chunks.append(
                f"measure {name} on {obj.space} = "
                + _weights_body(obj.space, [str(w) for w in obj.weights])
            )
        elif sort == "kernel":
            lines = [f"kernel {name} : {obj.domain} -> {obj.codomain} = {{"]
            for atom, row in zip(obj.domain.atoms, obj.rows):
                lines.append(
                    f"  {format_atom(atom)}: "
                    + _weights_body(obj.codomain, [str(w) for w in row.weights])
                )
            lines.append("}")
            chunks.append("\n".join(lines))
        elif sort == "rv":
            body = ", ".join(
                f"{format_atom(a)} -> {format_atom(obj.table[a])}"
                for a in obj.domain.atoms
            )
            chunks.append(f"rv {name} : {obj.domain} -> {obj.codomain} = {{ {body} }}")
        elif sort == "realrv":
            chunks.append(
                f"realrv {name} on {obj.domain} = "
                + _weights_body(obj.domain, [str(v) for v in obj.values])
            )
        elif sort == "partition":
            blocks = " ".join(
                "{"
                + " ".join(
                    format_atom(a)
                    for a in sorted(block, key=obj.space.index_of)
                )
                + "}"
                for block in obj.blocks
            )
            chunks.append(f"partition {name} on {obj.space} = {{ {blocks} }}")
        elif sort == "chain":
            spec = doc.chain_specs[name]
            if spec[0] == "markov":
                chunks.append(f"chain {name} = markov({spec[1]}, {spec[2]}, {spec[3]})")
            else:
                chunks.append(f"chain {name} = steps({', '.join(spec[1])})")
    return "\n\n".join(chunks) + "\n"
