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
from .scalar import _format_rational
from .spaces import UNIT, UNIT_ATOM, Base, FiniteSpace, Product, SpaceExpr, format_atom
from .variables import PartitionSigma, RandomVariable, RealRV

__all__ = ["Document", "parse_document", "serialize_document", "Tokenizer", "Token"]

# One line at a time: whitespace and comments are the unnamed alternatives.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]+
  | \#.*
  | (?P<arrow>->)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>[{}():,=/\-])
  | (?P<bad>.)
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


def _expected(what: str, tok: Token) -> KdSyntaxError:
    """`expected <what>, got <token>` at the token, naming the end of input."""
    got = tok.text or "end of input"
    return KdSyntaxError(f"expected {what}, got {got!r}", tok.line, tok.col)


class Tokenizer:
    """Shared tokenizer for .kd documents and the expression language."""

    def __init__(self, text: str):
        tokens = []
        depth = 0
        lines = text.split("\n")
        for line, source in enumerate(lines, 1):
            for m in _TOKEN_RE.finditer(source):
                kind = m.lastgroup
                if kind is None:
                    continue
                chunk = m.group()
                col = m.start() + 1
                if kind == "bad":
                    raise KdSyntaxError(f"unexpected character {chunk!r}", line, col)
                if kind == "punct":
                    kind = chunk
                    if chunk == "(":
                        depth += 1
                        if depth > MAX_NESTING:
                            raise KdSyntaxError(
                                f"parentheses nested deeper than {MAX_NESTING}", line, col
                            )
                    elif chunk == ")":
                        depth -= 1
                tokens.append(Token(kind, chunk, line, col))
        tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
        self.tokens = tokens
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
            raise _expected(repr(text if text is not None else kind), tok)
        return self.next()

    def at(self, kind, text=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)


class Document:
    """Named declarations in order, with per-sort registries."""

    # The declaration sorts, which are also the document's keywords.
    SORTS = ("space", "measure", "kernel", "rv", "realrv", "partition", "chain")

    def __init__(self):
        self.order = []  # (sort, name) in declaration order
        # name -> object, one dict per sort; a chain is a sequential.KernelChain
        self.registries = {sort: {} for sort in self.SORTS}
        (self.spaces, self.measures, self.kernels, self.rvs, self.realrvs,
         self.partitions, self.chains) = self.registries.values()
        self.chain_specs: dict[str, tuple] = {}

    def declare(self, sort, name, obj, tok=None):
        reg = self.registries[sort]
        if name in reg:
            raise DuplicateName(
                f"{sort} {name!r} already declared",
                tok.line if tok else None,
                tok.col if tok else None,
            )
        reg[name] = obj
        self.order.append((sort, name))

    def lookup(self, sort, name, tok=None):
        reg = self.registries[sort]
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
        return self.order == other.order and self.registries == other.registries


# -- parsing ----------------------------------------------------------------------


def parse_document(text: str) -> Document:
    tz = Tokenizer(text)
    doc = Document()
    while not tz.at("eof"):
        kw = tz.next()
        if kw.kind != "ident" or kw.text not in Document.SORTS:
            raise _expected("a declaration keyword", kw)
        name = _parse_name(tz)
        doc.declare(kw.text, name.text, _PARSERS[kw.text](tz, doc, name.text), name)
    return doc


def _parse_name(tz: Tokenizer) -> Token:
    tok = tz.peek()
    if tok.kind != "ident" or tok.text in Document.SORTS or tok.text == "unit":
        raise _expected("a name", tok)
    return tz.next()


def _parse_space_expr(tz: Tokenizer, name, pair=Product):
    """`unit`, a name or `(S x T)`: the one space-expression grammar.

    `name` turns a name token into a factor and `pair` joins two factors, so
    a document resolves names as it reads them and an expression defers that
    to typechecking.
    """
    tok = tz.peek()
    if tok.kind == "ident" and tok.text == "unit":
        tz.next()
        return UNIT
    if tok.kind == "(":
        tz.next()
        left = _parse_space_expr(tz, name, pair)
        x = tz.expect("ident")
        if x.text != "x":
            raise _expected("'x' between product factors", x)
        right = _parse_space_expr(tz, name, pair)
        tz.expect(")")
        return pair(left, right)
    if tok.kind == "ident":
        return name(tz.next())
    raise _expected("a space expression", tok)


def _parse_space(tz: Tokenizer, doc: Document) -> SpaceExpr:
    return _parse_space_expr(tz, lambda tok: doc.lookup("space", tok.text, tok))


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
    raise _expected("an atom", tok)


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


def _parse_atom_block(tz: Tokenizer, space: SpaceExpr, sep, value, repeated) -> dict:
    """Parse `{ atom <sep> value, ... }` over `space`, each atom at most once.

    `value` parses one entry's value; `repeated` formats the message for an
    atom listed twice.
    """
    tz.expect("{")
    entries = {}
    while not tz.at("}"):
        tok = tz.peek()
        atom = _parse_checked_atom(tz, space)
        if atom in entries:
            raise DuplicateName(repeated.format(format_atom(atom)), tok.line, tok.col)
        tz.expect(sep)
        entries[atom] = value(tz)
        if tz.at(","):
            tz.next()
    tz.expect("}")
    return entries


def _in_atom_order(entries: dict, space: SpaceExpr, what, tok: Token) -> list:
    """The block's values in atom order; an atom left out is reported at tok."""
    if len(entries) != space.size:
        missing = [a for a in space.atoms if a not in entries]
        raise WeightCountMismatch(
            f"{len(entries)} {what} for {space.size} atoms of {space}; "
            "missing " + ", ".join(format_atom(a) for a in missing),
            tok.line,
            tok.col,
        )
    return [entries[a] for a in space.atoms]


def _parse_weights(tz: Tokenizer, space: SpaceExpr, signed=False) -> list:
    """Parse `{ atom: p/q, ... }` covering every atom of the space exactly once."""
    opener = tz.peek()
    weights = _parse_atom_block(
        tz, space, ":", lambda tz: _parse_rational(tz, signed), "atom {} listed twice"
    )
    return _in_atom_order(weights, space, "weights", opener)


def _wrap_build(tok: Token, build):
    """Run a core constructor, attaching the source position to any failure."""
    try:
        return build()
    except DocumentError:
        raise
    except KernelAlgError as exc:
        raise DocumentError(str(exc), tok.line, tok.col) from exc


def _parse_ref(tz: Tokenizer, doc: Document, sort):
    """A name declared above as `sort`: the name and the object."""
    tok = _parse_name(tz)
    return tok.text, doc.lookup(sort, tok.text, tok)


def _parse_on(tz: Tokenizer, doc: Document):
    """`on S =`: the space and the `=` token."""
    tz.expect("ident", "on")
    space = _parse_space(tz, doc)
    return space, tz.expect("=")


def _parse_signature(tz: Tokenizer, doc: Document):
    """`: S -> T =`: the two spaces and the `=` token."""
    tz.expect(":")
    dom = _parse_space(tz, doc)
    tz.expect("arrow")
    cod = _parse_space(tz, doc)
    return dom, cod, tz.expect("=")


def _parse_space_decl(tz: Tokenizer, doc: Document, name):
    tz.expect("{")
    labels = {}  # an ordered set
    while not tz.at("}"):
        tok = tz.next()
        if tok.kind not in ("ident", "int"):
            raise _expected("an atom label", tok)
        if tok.text in labels:
            raise DuplicateName(f"atom label {tok.text!r} repeated", tok.line, tok.col)
        labels[tok.text] = None
    tz.expect("}")
    return Base(FiniteSpace(name, labels))


def _parse_measure_decl(tz: Tokenizer, doc: Document, name):
    space, _ = _parse_on(tz, doc)
    return Measure(space, _parse_weights(tz, space))


def _parse_kernel_decl(tz: Tokenizer, doc: Document, name):
    dom, cod, eq = _parse_signature(tz, doc)
    rows = _parse_atom_block(
        tz,
        dom,
        ":",
        lambda tz: Measure(cod, _parse_weights(tz, cod)),
        "row for atom {} repeated",
    )
    return Kernel(dom, cod, _in_atom_order(rows, dom, "rows", eq))


def _parse_rv_decl(tz: Tokenizer, doc: Document, name):
    dom, cod, eq = _parse_signature(tz, doc)
    table = _parse_atom_block(
        tz,
        dom,
        "arrow",
        lambda tz: _parse_checked_atom(tz, cod),
        "map entry for {} repeated",
    )
    return _wrap_build(eq, lambda: RandomVariable(dom, cod, table))


def _parse_realrv_decl(tz: Tokenizer, doc: Document, name):
    space, _ = _parse_on(tz, doc)
    return RealRV(space, _parse_weights(tz, space, signed=True))


def _parse_partition_decl(tz: Tokenizer, doc: Document, name):
    space, eq = _parse_on(tz, doc)
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
    return _wrap_build(eq, lambda: PartitionSigma(space, blocks))


def _parse_chain_decl(tz: Tokenizer, doc: Document, name):
    # Only a document that declares a chain imports the chain module.
    from .sequential import KernelChain, markov_chain

    tz.expect("=")
    form = tz.expect("ident")
    if form.text not in ("markov", "steps"):
        raise _expected("'markov' or 'steps'", form)
    tz.expect("(")
    if form.text == "markov":
        mname, initial = _parse_ref(tz, doc, "measure")
        tz.expect(",")
        kname, step = _parse_ref(tz, doc, "kernel")
        tz.expect(",")
        ntok = tz.expect("int")
        n = _int_value(ntok)
        if n < 1:
            raise KdSyntaxError("chain length must be >= 1", ntok.line, ntok.col)
        doc.chain_specs[name] = ("markov", mname, kname, n)
        build = lambda: markov_chain(initial, step, n)  # noqa: E731
    else:
        refs = [_parse_ref(tz, doc, "kernel")]
        while tz.at(","):
            tz.next()
            refs.append(_parse_ref(tz, doc, "kernel"))
        names, steps = zip(*refs)
        doc.chain_specs[name] = ("steps", names)
        build = lambda: KernelChain(steps[0].domain, steps)  # noqa: E731
    tz.expect(")")
    return _wrap_build(form, build)


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


def _labels(space) -> list:
    """Every atom of the space as the writers print it, in atom order."""
    return [format_atom(a) for a in space.atoms]


def _weights_body(labels, texts) -> str:
    """`{ atom: p/q, ... }` of printed labels and rationals, paired in order."""
    body = ", ".join(f"{label}: {t}" for label, t in zip(labels, texts))
    return "{ " + body + " }"


def serialize_document(doc: Document) -> str:
    chunks = []
    for sort, name in doc.order:
        obj = doc.registries[sort][name]
        if sort == "space":
            labels = " ".join(obj.space.labels)
            chunks.append(f"space {name} {{ {labels} }}" if labels else f"space {name} {{ }}")
        elif sort == "measure":
            chunks.append(
                f"measure {name} on {obj.space} = "
                + _weights_body(_labels(obj.space), obj._texts())
            )
        elif sort == "kernel":
            lines = [f"kernel {name} : {obj.domain} -> {obj.codomain} = {{"]
            labels = _labels(obj.codomain)
            for label, row in zip(_labels(obj.domain), obj.rows):
                lines.append(f"  {label}: " + _weights_body(labels, row._texts()))
            lines.append("}")
            chunks.append("\n".join(lines))
        elif sort == "rv":
            cod = obj.codomain.atoms
            body = ", ".join(
                f"{format_atom(a)} -> {format_atom(cod[j])}"
                for a, j in zip(obj.domain.atoms, obj.index_map)
            )
            chunks.append(f"rv {name} : {obj.domain} -> {obj.codomain} = {{ {body} }}")
        elif sort == "realrv":
            chunks.append(
                f"realrv {name} on {obj.domain} = "
                + _weights_body(_labels(obj.domain), map(_format_rational, obj.values))
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
