"""Random variables, each the deterministic Kernel of its map; real-valued
observables; partition sigma-algebras."""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .errors import SpaceMismatch
from .measures import Kernel
from .spaces import Product, SpaceExpr, format_atom

__all__ = ["RandomVariable", "RealRV", "PartitionSigma", "pair_rv"]


class RandomVariable(Kernel):
    """A total map from domain atoms to codomain atoms, as the map Kernel of
    its index map: the Kernel's rows, equality, hash and `_from_map`."""

    __slots__ = ()

    def __init__(self, domain: SpaceExpr, codomain: SpaceExpr, table):
        table = dict(table)
        index_map = []
        for atom in domain.atoms:
            if atom not in table:
                raise SpaceMismatch(
                    f"map undefined on atom {format_atom(atom)} of {domain}"
                )
            j = codomain._find(table[atom])
            if j is None:
                raise SpaceMismatch(
                    f"image {format_atom(table[atom])} not an atom of {codomain}"
                )
            index_map.append(j)
        if len(table) != domain.size:
            extra = [a for a in table if a not in domain]
            raise SpaceMismatch(
                f"map defined on atoms outside {domain}: "
                + ", ".join(format_atom(a) for a in extra)
            )
        self.domain = domain
        self.codomain = codomain
        self.index_map = tuple(index_map)
        self._rows = None

    @classmethod
    def from_function(cls, domain, codomain, fn) -> "RandomVariable":
        return cls(domain, codomain, {a: fn(a) for a in domain.atoms})

    @classmethod
    def identity(cls, space: SpaceExpr) -> "RandomVariable":
        return cls._from_map(space, space, tuple(range(space.size)))

    @property
    def table(self):
        """Read-only atom -> atom dict, built on each read."""
        dom, cod = self.domain.atoms, self.codomain.atoms
        return MappingProxyType({a: cod[j] for a, j in zip(dom, self.index_map)})

    def __call__(self, atom):
        return self.codomain.atoms[self.index_map[self.domain.index_of(atom)]]

    def preimage(self, atoms) -> list:
        """Domain atoms mapped into the given set of codomain atoms."""
        wanted = set(map(self.codomain.index_of, atoms))
        return [a for a, j in zip(self.domain.atoms, self.index_map) if j in wanted]

    def __repr__(self):
        return f"RandomVariable({self.domain} -> {self.codomain})"


def pair_rv(x: RandomVariable, y: RandomVariable) -> RandomVariable:
    """The map omega -> (X(omega), Y(omega)) into the product codomain."""
    if x.domain != y.domain:
        raise SpaceMismatch(f"cannot pair maps on {x.domain} and {y.domain}")
    n = y.codomain.size
    index_map = tuple(i * n + j for i, j in zip(x.index_map, y.index_map))
    return RandomVariable._from_map(
        x.domain, Product(x.codomain, y.codomain), index_map
    )


class RealRV:
    """A real-valued observable: one exact signed rational per domain atom."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: SpaceExpr, values):
        values = tuple(values)
        for v in values:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"cannot interpret {v!r} as an exact value")
        values = tuple(map(Fraction, values))
        if len(values) != domain.size:
            raise SpaceMismatch(
                f"space {domain} has {domain.size} atoms, got {len(values)} values"
            )
        self.domain = domain
        self.values = values

    def value(self, atom) -> Fraction:
        return self.values[self.domain.index_of(atom)]

    def mean(self, measure) -> Fraction:
        """Exact expectation under a measure on the same space."""
        if measure.space != self.domain:
            raise SpaceMismatch(
                f"observable on {self.domain}, measure on {measure.space}"
            )
        total = sum((n * v for n, v in zip(measure.nums, self.values) if n), Fraction(0))
        return total / measure.den

    def __eq__(self, other):
        if not isinstance(other, RealRV):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __repr__(self):
        return f"RealRV({self.domain}, {len(self.values)} values)"


class PartitionSigma:
    """A sub-sigma-algebra of a finite space, given by its atom partition."""

    __slots__ = ("space", "blocks", "_block_of")

    def __init__(self, space: SpaceExpr, blocks):
        blocks = tuple(tuple(b) for b in blocks)
        seen = {}
        for bi, block in enumerate(blocks):
            if not block:
                raise SpaceMismatch("partition blocks must be nonempty")
            for atom in block:
                space.index_of(atom)  # membership check
                if atom in seen:
                    raise SpaceMismatch(
                        f"atom {format_atom(atom)} appears in two partition blocks"
                    )
                seen[atom] = bi
        if len(seen) != space.size:
            missing = [a for a in space.atoms if a not in seen]
            raise SpaceMismatch(
                "partition does not cover: "
                + ", ".join(format_atom(a) for a in missing)
            )
        self.space = space
        self.blocks = blocks
        self._block_of = seen

    @classmethod
    def trivial(cls, space: SpaceExpr) -> "PartitionSigma":
        return cls(space, [space.atoms] if space.size else [])

    @classmethod
    def discrete(cls, space: SpaceExpr) -> "PartitionSigma":
        return cls(space, [(a,) for a in space.atoms])

    @classmethod
    def generated_by(cls, rv: RandomVariable) -> "PartitionSigma":
        """Blocks are the nonempty fibers of the map, in codomain atom order."""
        fibers = {}
        for atom, j in zip(rv.domain.atoms, rv.index_map):
            fibers.setdefault(j, []).append(atom)
        return cls(rv.domain, [fibers[j] for j in sorted(fibers)])

    def block_index(self, atom) -> int:
        try:
            return self._block_of[atom]
        except KeyError:
            raise SpaceMismatch(
                f"atom {format_atom(atom)} not in partitioned space {self.space}"
            ) from None

    def block_of(self, atom) -> tuple:
        return self.blocks[self.block_index(atom)]

    def __eq__(self, other):
        if not isinstance(other, PartitionSigma):
            return NotImplemented
        return self.space == other.space and set(
            frozenset(b) for b in self.blocks
        ) == set(frozenset(b) for b in other.blocks)

    def __repr__(self):
        return f"PartitionSigma({self.space}, {len(self.blocks)} blocks)"
