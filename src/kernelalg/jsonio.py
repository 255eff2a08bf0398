"""Deterministic JSON emission.

The contract: rationals are "p/q" strings in lowest terms, finite floats are
numbers printed with 12 significant digits, infinity is the string "inf", and
key order is fixed by construction, so identical inputs and flags produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .measures import Kernel, Measure
from .scalar import _format_rational
from .spaces import format_atom


def format_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"'
    return format(value, ".12g")


def dumps(tree) -> str:
    """Serialize a tree of dicts/lists/scalars, preserving dict order."""
    if isinstance(tree, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in tree.items())
        return "{" + inner + "}"
    if isinstance(tree, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in tree) + "]"
    if isinstance(tree, bool):
        return "true" if tree else "false"
    if isinstance(tree, float):
        return format_float(tree)
    if isinstance(tree, int):
        return str(tree)
    if isinstance(tree, Fraction):
        return json.dumps(_format_rational(tree))
    if tree is None:
        return "null"
    return json.dumps(tree)


def render_value(value):
    """Turn a core value into a JSON-ready tree with stable key order."""
    if isinstance(value, Measure):
        return {
            "sort": "measure",
            "space": str(value.space),
            "weights": {
                format_atom(a): t for a, t in zip(value.space.atoms, value._texts())
            },
        }
    if isinstance(value, Kernel):
        labels = [format_atom(b) for b in value.codomain.atoms]
        return {
            "sort": "kernel",
            "domain": str(value.domain),
            "codomain": str(value.codomain),
            "rows": {
                format_atom(a): dict(zip(labels, row._texts()))
                for a, row in zip(value.domain.atoms, value.rows)
            },
        }
    if isinstance(value, (bool, float)):
        return value
    # a density table comes from `disintegration`, so that module is loaded by now
    from .disintegration import DensityTable

    if isinstance(value, DensityTable):
        return {
            "sort": "density",
            "space": str(value.domain),
            "values": {
                format_atom(a): _format_rational(v)
                for a, v in zip(value.domain.atoms, value.values)
            },
        }
    return value
