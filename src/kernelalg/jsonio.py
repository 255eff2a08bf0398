"""Deterministic JSON emission.

The contract: rationals are "p/q" strings in lowest terms, finite floats are
numbers printed with 12 significant digits, infinity is the string "inf", and
key order is fixed by construction, so identical inputs and flags produce
byte-identical output.

A kernel, measure or density is written straight from its integer rows: each
atom label is JSON-encoded once per call, and each "p/q" text, which holds
only digits and "/", is quoted as it is.
"""

from __future__ import annotations

import json
import math

from .measures import Kernel, Measure
from .spaces import format_atom


def format_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"'
    return format(value, ".12g")


def dumps(value) -> str:
    """Serialize a kernel, measure or density, or a tree of dicts, lists,
    strings, bools and floats, preserving dict order."""
    if isinstance(value, Measure):
        return (
            f'{{"sort":"{value.sort}","space":{json.dumps(str(value.space))},'
            f'"{value.entries}":{_row(_keys(value.space), value)}}}'
        )
    if isinstance(value, Kernel):
        keys = _keys(value.codomain)
        rows = ",".join(
            f"{label}:{_row(keys, row)}" for label, row in zip(_keys(value.domain), value.rows)
        )
        return (
            f'{{"sort":"kernel","domain":{json.dumps(str(value.domain))},'
            f'"codomain":{json.dumps(str(value.codomain))},"rows":{{{rows}}}}}'
        )
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return json.dumps(value)


def _keys(space) -> list:
    """Every atom of the space as a JSON string, in atom order."""
    return [json.dumps(format_atom(a)) for a in space.atoms]


def _row(keys, row: Measure) -> str:
    """`{key:"p/q",...}` of a row's weights, paired with keys in atom order."""
    return "{" + ",".join(f'{k}:"{t}"' for k, t in zip(keys, row._texts())) + "}"
