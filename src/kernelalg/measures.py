"""Measures and transition kernels on finite space expressions.

A Measure is one finite nonnegative weight per atom of its space.  A Kernel
from a domain space to a codomain space is one Measure on the codomain per
domain atom (its rows).  Both are immutable; all derived quantities (totals,
Markov flags, bounds) are exact.

Equality is exact and structural: same space expression, same weights atom by
atom.  This is what makes the algebraic law suites meaningful, so no float
sneaks in anywhere here.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    NoMarkovIntoEmpty,
    NotAProbabilityMeasure,
    NotMarkov,
    SpaceMismatch,
)
from .scalar import ONE, ZERO, Scalar, as_scalar
from .spaces import SpaceExpr, format_atom

__all__ = ["Measure", "Kernel", "dirac", "uniform", "zero_measure"]


class Measure:
    """A finite measure on a space expression: one Scalar weight per atom."""

    __slots__ = ("space", "weights", "_total")

    def __init__(self, space: SpaceExpr, weights):
        weights = tuple(as_scalar(w) for w in weights)
        if len(weights) != space.size:
            raise DimensionMismatch(
                f"space {space} has {space.size} atoms, got {len(weights)} weights"
            )
        self.space = space
        self.weights = weights
        self._total = None

    @classmethod
    def from_dict(cls, space: SpaceExpr, mapping) -> "Measure":
        """Build from an atom->weight mapping; missing atoms get weight 0."""
        mapping = dict(mapping)
        weights = [mapping.pop(atom, ZERO) for atom in space.atoms]
        if mapping:
            stray = ", ".join(format_atom(a) for a in mapping)
            raise SpaceMismatch(f"atoms not in {space}: {stray}")
        return cls(space, weights)

    @classmethod
    def _unchecked(cls, space, weights) -> "Measure":
        m = object.__new__(cls)
        m.space = space
        m.weights = weights
        m._total = None
        return m

    # -- queries -----------------------------------------------------------

    def weight(self, atom) -> Scalar:
        return self.weights[self.space.index_of(atom)]

    def mass_of(self, atoms) -> Scalar:
        """Total weight of a set of atoms (exact, additive by construction)."""
        total = ZERO
        for atom in atoms:
            total = total + self.weights[self.space.index_of(atom)]
        return total

    def total(self) -> Scalar:
        if self._total is None:
            total = ZERO
            for w in self.weights:
                total = total + w
            self._total = total
        return self._total

    def is_probability(self) -> bool:
        return self.total() == ONE

    def require_probability(self) -> "Measure":
        if not self.is_probability():
            raise NotAProbabilityMeasure(
                f"measure on {self.space} has total {self.total()}, expected 1"
            )
        return self

    def support(self):
        """Indices of atoms with positive weight."""
        return [i for i, w in enumerate(self.weights) if not w.is_zero()]

    def items(self):
        return zip(self.space.atoms, self.weights)

    # -- constructions -------------------------------------------------------

    def normalize(self) -> "Measure":
        t = self.total()
        if t.is_zero():
            raise NotAProbabilityMeasure(f"cannot normalize the zero measure on {self.space}")
        if t == ONE:
            return self
        return Measure._unchecked(self.space, tuple(w / t for w in self.weights))

    def restrict(self, atoms) -> "Measure":
        """Keep the weight on the given atom set, zero elsewhere."""
        keep = {self.space.index_of(a) for a in atoms}
        return Measure._unchecked(
            self.space,
            tuple(w if i in keep else ZERO for i, w in enumerate(self.weights)),
        )

    def add(self, other: "Measure") -> "Measure":
        if self.space != other.space:
            raise SpaceMismatch(f"cannot add measures on {self.space} and {other.space}")
        return Measure._unchecked(
            self.space, tuple(a + b for a, b in zip(self.weights, other.weights))
        )

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return self.space == other.space and self.weights == other.weights

    def __hash__(self):
        return hash((self.space, self.weights))

    def __repr__(self):
        inner = ", ".join(f"{format_atom(a)}: {w}" for a, w in self.items())
        return f"Measure({self.space}, {{{inner}}})"


def dirac(space: SpaceExpr, atom) -> Measure:
    return _dirac_at(space, space.index_of(atom))


def _dirac_at(space: SpaceExpr, i: int) -> Measure:
    return Measure._unchecked(space, (ZERO,) * i + (ONE,) + (ZERO,) * (space.size - i - 1))


def uniform(space: SpaceExpr) -> Measure:
    if space.size == 0:
        raise NotAProbabilityMeasure(f"no uniform probability on the empty space {space}")
    w = ONE / Scalar(space.size)
    return Measure._unchecked(space, (w,) * space.size)


def zero_measure(space: SpaceExpr) -> Measure:
    return Measure._unchecked(space, (ZERO,) * space.size)


class Kernel:
    """A transition kernel: one Measure on the codomain per domain atom.

    A deterministic kernel is held as an index map instead: one codomain atom
    index per domain atom.  Its Dirac rows are built on the first read of
    `rows` and cached there, an idempotent write like `Measure._total`.
    Operations that special-case the map (compose, comp_measure) never build
    them.
    """

    __slots__ = ("domain", "codomain", "index_map", "_rows")

    def __init__(self, domain: SpaceExpr, codomain: SpaceExpr, rows):
        rows = tuple(rows)
        if len(rows) != domain.size:
            raise DimensionMismatch(
                f"domain {domain} has {domain.size} atoms, got {len(rows)} rows"
            )
        for row in rows:
            if row.space != codomain:
                raise SpaceMismatch(
                    f"kernel row lives on {row.space}, expected codomain {codomain}"
                )
        self.domain = domain
        self.codomain = codomain
        self.index_map = None
        self._rows = rows

    @classmethod
    def from_function(cls, domain, codomain, row_of) -> "Kernel":
        return cls(domain, codomain, [row_of(atom) for atom in domain.atoms])

    @classmethod
    def _unchecked(cls, domain, codomain, rows) -> "Kernel":
        k = object.__new__(cls)
        k.domain = domain
        k.codomain = codomain
        k.index_map = None
        k._rows = rows
        return k

    @classmethod
    def _from_map(cls, domain, codomain, index_map) -> "Kernel":
        """The deterministic kernel sending domain atom i to codomain atom index_map[i]."""
        k = object.__new__(cls)
        k.domain = domain
        k.codomain = codomain
        k.index_map = index_map
        k._rows = None
        return k

    @property
    def rows(self):
        rows = self._rows
        if rows is None:
            rows = tuple(_dirac_at(self.codomain, j) for j in self.index_map)
            self._rows = rows
        return rows

    # -- queries ---------------------------------------------------------------

    def row(self, atom) -> Measure:
        return self.rows[self.domain.index_of(atom)]

    def weight(self, atom, out_atom) -> Scalar:
        return self.rows[self.domain.index_of(atom)].weight(out_atom)

    def support_rows(self, mu: Measure):
        """(weight, row) at every domain atom of positive mu-mass, in atom order.

        Every mu-almost-everywhere statement about the rows ranges over this.
        """
        if mu.space != self.domain:
            raise SpaceMismatch(
                f"measure on {mu.space} does not match kernel domain {self.domain}"
            )
        return [(w, row) for w, row in zip(mu.weights, self.rows) if not w.is_zero()]

    def is_markov(self) -> bool:
        if self.index_map is not None:
            return True
        # a lifted kernel (prod_mk_left) repeats a few row objects many times
        distinct = {id(row): row for row in self.rows}.values()
        return all(row.total() == ONE for row in distinct)

    def require_markov(self) -> "Kernel":
        if not self.is_markov():
            if self.codomain.size == 0 and self.domain.size > 0:
                raise NoMarkovIntoEmpty(
                    f"no Markov kernel from {self.domain} into the empty space {self.codomain}"
                )
            raise NotMarkov(f"kernel {self.domain} -> {self.codomain} has non-probability rows")
        return self

    def finite_bound(self) -> Scalar:
        """Largest row total; 0 for a kernel from the empty space."""
        bound = ZERO
        for row in self.rows:
            t = row.total()
            if t > bound:
                bound = t
        return bound

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        if self.index_map is not None and other.index_map is not None:
            return self.index_map == other.index_map
        return all(a.weights == b.weights for a, b in zip(self.rows, other.rows))

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple(r.weights for r in self.rows)))

    def __repr__(self):
        return f"Kernel({self.domain} -> {self.codomain}, {self.domain.size} rows)"
