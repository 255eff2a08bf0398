"""Finite measurable spaces and their (non-associative) products.

A space expression is either a named base space with an ordered list of
distinct atom labels, the one-atom unit space, or a binary product of two
space expressions.  Products are kept as explicit binary trees: (A x B) x C
and A x (B x C) are different spaces, related only by an explicit rebracketing
kernel.  Equality is structural and atom order is part of a space's identity.

Atoms are plain Python values: strings for base-space atoms, the string "()"
for the unit atom, and nested pairs (left_atom, right_atom) for product atoms.
Product atoms are enumerated in row-major order, left index varying slowest,
so the index of a nested atom is the mixed-radix number of its leaf indices
over the leaf sizes, whatever the bracketing.
"""

from __future__ import annotations

from .errors import SpaceMismatch

__all__ = [
    "FiniteSpace",
    "SpaceExpr",
    "Base",
    "Product",
    "Unit",
    "UNIT",
    "product_space",
    "format_atom",
]

UNIT_ATOM = "()"


class FiniteSpace:
    """A named finite space: an ordered tuple of pairwise-distinct labels."""

    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise SpaceMismatch(f"space {name!r} has duplicate atom labels")
        self.name = name
        self.labels = labels

    def __repr__(self):
        return f"FiniteSpace({self.name!r}, {list(self.labels)!r})"


class SpaceExpr:
    """Base class for space expressions.  Instances are immutable.

    Every space has `size`, `atoms` (in order), `index_of` and membership.
    """

    __slots__ = ()

    def index_of(self, atom) -> int:
        i = self._find(atom)
        if i is None:
            raise SpaceMismatch(
                f"atom {format_atom(atom)} does not belong to space {self}"
            )
        return i

    def __contains__(self, atom) -> bool:
        return self._find(atom) is not None

    def _find(self, atom):
        """Index of `atom`, or None when it is not an atom of this space."""
        raise NotImplementedError

    def __hash__(self):
        return hash(self._key())

    def __eq__(self, other):
        if not isinstance(other, SpaceExpr):
            return NotImplemented
        return self._key() == other._key()

    def _key(self):
        raise NotImplementedError

    def leaves(self):
        """Ordered tuple of Base/Unit leaves of the product tree."""
        raise NotImplementedError


class _Leaf(SpaceExpr):
    """A space given by its atom tuple, with an atom -> index dict."""

    __slots__ = ("atoms", "size", "_index")

    def _finish(self, atoms):
        self.atoms = atoms
        self.size = len(atoms)
        self._index = {atom: i for i, atom in enumerate(atoms)}

    def _find(self, atom):
        return self._index.get(atom)

    def leaves(self):
        return (self,)


class Base(_Leaf):
    __slots__ = ("space",)

    def __init__(self, space: FiniteSpace):
        self.space = space
        self._finish(space.labels)

    def _key(self):
        return ("base", self.space.name, self.space.labels)

    def __str__(self):
        return self.space.name

    def __repr__(self):
        return f"Base({self.space!r})"


class Unit(_Leaf):
    __slots__ = ()

    def __init__(self):
        self._finish((UNIT_ATOM,))

    def _key(self):
        return ("unit",)

    def __str__(self):
        return "unit"

    def __repr__(self):
        return "Unit()"


UNIT = Unit()


class Product(SpaceExpr):
    """left x right, indexed row-major: (a, b) has index i(a) * |right| + i(b).

    The atom tuple is built on its first read and cached; size, index_of and
    membership are arithmetic on the factors and never build it.
    """

    __slots__ = ("left", "right", "size", "_atoms")

    def __init__(self, left: SpaceExpr, right: SpaceExpr):
        self.left = left
        self.right = right
        self.size = left.size * right.size
        self._atoms = None

    @property
    def atoms(self):
        atoms = self._atoms
        if atoms is None:
            right = self.right.atoms
            atoms = tuple((a, b) for a in self.left.atoms for b in right)
            self._atoms = atoms
        return atoms

    def _find(self, atom):
        if not isinstance(atom, tuple) or len(atom) != 2:
            return None
        i = self.left._find(atom[0])
        if i is None:
            return None
        j = self.right._find(atom[1])
        if j is None:
            return None
        return i * self.right.size + j

    def _key(self):
        return ("product", self.left._key(), self.right._key())

    def leaves(self):
        return self.left.leaves() + self.right.leaves()

    def __str__(self):
        return f"({self.left} x {self.right})"

    def __repr__(self):
        return f"Product({self.left!r}, {self.right!r})"


def product_space(a: SpaceExpr, b: SpaceExpr) -> Product:
    return Product(a, b)


def format_atom(atom) -> str:
    """Render an atom the way the .kd format writes it."""
    if isinstance(atom, tuple):
        return "(" + ",".join(format_atom(part) for part in atom) + ")"
    return atom
