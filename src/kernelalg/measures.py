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

from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    NoMarkovIntoEmpty,
    NotAProbabilityMeasure,
    NotMarkov,
    SpaceMismatch,
)
from .scalar import ONE, ZERO, Scalar, _checked, _format_ratio, _format_rational, _ratio, _views
from .spaces import SpaceExpr, format_atom

__all__ = ["Measure", "Kernel", "dirac", "uniform", "zero_measure"]


class Measure:
    """A finite measure on a space expression: integer numerators over one
    denominator.

    `nums[i] / den` is the weight of atom i, and the pair is canonical:
    den >= 1 and gcd(den, *nums) == 1, so the zero measure has den 1.  Exact
    equality and hashing are tuple operations on it; a value equals only
    values of its own class, so a DensityTable never equals a Measure.
    `weights` is the same row as a tuple of Scalars, built on its first read
    and cached, an idempotent write.  The constructor takes ints and
    Fractions, refuses anything else with TypeError and a negative weight
    with NegativeScalar, and builds no Scalar.
    """

    __slots__ = ("space", "nums", "den", "_weights")
    # the writers' names for this sort and for its entries
    sort, entries = "measure", "weights"

    def __init__(self, space: SpaceExpr, weights):
        pairs = tuple(map(_checked, weights))
        if len(pairs) != space.size:
            raise DimensionMismatch(
                f"space {space} has {space.size} atoms, got {len(pairs)} weights"
            )
        # lowest-terms weights over the lcm of their denominators share no factor
        den = lcm(*(d for _, d in pairs))
        self.space = space
        self.nums = tuple(n * (den // d) for n, d in pairs)
        self.den = den
        self._weights = None

    @classmethod
    def from_dict(cls, space: SpaceExpr, mapping) -> "Measure":
        """Build from an atom->weight mapping; missing atoms get weight 0."""
        mapping = dict(mapping)
        weights = [mapping.pop(atom, 0) for atom in space.atoms]
        if mapping:
            stray = ", ".join(format_atom(a) for a in mapping)
            raise SpaceMismatch(f"atoms not in {space}: {stray}")
        return cls(space, weights)

    @classmethod
    def _of(cls, space, nums: tuple, den: int, weights=None) -> "Measure":
        """The measure nums / den, which must already be canonical."""
        m = object.__new__(cls)
        m.space = space
        m.nums = nums
        m.den = den
        m._weights = weights
        return m

    @classmethod
    def _reduce(cls, space, nums: tuple, den: int) -> "Measure":
        """The measure nums / den of nonnegative ints and den >= 1, made canonical."""
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(n // g for n in nums)
            den //= g
        return cls._of(space, nums, den)

    @property
    def weights(self) -> tuple:
        weights = self._weights
        if weights is None:
            weights = self._weights = _views(self.nums, self.den)
        return weights

    # -- queries -----------------------------------------------------------

    def weight(self, atom) -> Scalar:
        return self.weights[self.space.index_of(atom)]

    def mass_of(self, atoms) -> Scalar:
        """Total weight of a set of atoms (exact, additive by construction)."""
        nums, index_of = self.nums, self.space.index_of
        return _ratio(sum(nums[index_of(atom)] for atom in atoms), self.den)

    def total(self) -> Scalar:
        return _ratio(sum(self.nums), self.den)

    def is_probability(self) -> bool:
        return sum(self.nums) == self.den

    def require_probability(self) -> "Measure":
        if not self.is_probability():
            raise NotAProbabilityMeasure(
                f"measure on {self.space} has total "
                f"{_format_rational(self.total())}, expected 1"
            )
        return self

    def support(self):
        """Indices of atoms with positive weight."""
        return [i for i, n in enumerate(self.nums) if n]

    def items(self):
        return zip(self.space.atoms, self.weights)

    def _texts(self):
        """Each weight as the `.kd` and JSON writers print it, in atom order."""
        den = self.den
        for n in self.nums:
            g = gcd(n, den)
            yield _format_ratio(n // g, den // g)

    # -- constructions -------------------------------------------------------

    def normalize(self) -> "Measure":
        t = sum(self.nums)
        if t == 0:
            raise NotAProbabilityMeasure(f"cannot normalize the zero measure on {self.space}")
        if t == self.den:
            return self
        return Measure._reduce(self.space, self.nums, t)

    def restrict(self, atoms) -> "Measure":
        """Keep the weight on the given atom set, zero elsewhere."""
        keep = {self.space.index_of(a) for a in atoms}
        return Measure._reduce(
            self.space,
            tuple(n if i in keep else 0 for i, n in enumerate(self.nums)),
            self.den,
        )

    def add(self, other: "Measure") -> "Measure":
        if self.space != other.space:
            raise SpaceMismatch(f"cannot add measures on {self.space} and {other.space}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return Measure._reduce(
            self.space, tuple(a * fa + b * fb for a, b in zip(self.nums, other.nums)), den
        )

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums and self.space == other.space

    def __hash__(self):
        return hash((self.space, self.nums, self.den))

    def __repr__(self):
        texts = zip(self.space.atoms, self._texts())
        inner = ", ".join(f"{format_atom(a)}: {t}" for a, t in texts)
        return f"Measure({self.space}, {{{inner}}})"


def dirac(space: SpaceExpr, atom) -> Measure:
    i = space.index_of(atom)
    return _diracs(space, (i,))[i]


def _diracs(space: SpaceExpr, indices) -> dict:
    """The Dirac measure at each atom index in `indices`, keyed by index.

    Each row is a slice of one template of 2|space| - 1 entries with its 1 in
    the middle."""
    m = space.size
    nums = (0,) * (m - 1) + (1,) + (0,) * (m - 1)
    weights = (ZERO,) * (m - 1) + (ONE,) + (ZERO,) * (m - 1)
    cut = {i: slice(m - 1 - i, 2 * m - 1 - i) for i in indices}
    return {i: Measure._of(space, nums[s], 1, weights[s]) for i, s in cut.items()}


def uniform(space: SpaceExpr) -> Measure:
    if space.size == 0:
        raise NotAProbabilityMeasure(f"no uniform probability on the empty space {space}")
    return Measure._of(space, (1,) * space.size, space.size)


def zero_measure(space: SpaceExpr) -> Measure:
    return Measure._of(space, (0,) * space.size, 1, (ZERO,) * space.size)


class Kernel:
    """A transition kernel: one Measure on the codomain per domain atom.

    A deterministic kernel, such as a RandomVariable, is held as an index map
    instead: one codomain atom index per domain atom.  Its Dirac rows are built
    on the first read of `rows` and cached there, an idempotent write like
    `Measure.weights`.  compose, and so every operation built on it, applies
    the map without building them.
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
            diracs = _diracs(self.codomain, set(self.index_map))
            rows = self._rows = tuple(map(diracs.__getitem__, self.index_map))
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
        weights, rows = mu.weights, self.rows
        return [(weights[i], rows[i]) for i, n in enumerate(mu.nums) if n]

    def is_markov(self) -> bool:
        if self.index_map is not None:
            return True
        return all(row.is_probability() for row in self.rows)

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
        num, den = 0, 1
        for row in self.rows:
            t = sum(row.nums)
            if t * den > num * row.den:
                num, den = t, row.den
        return _ratio(num, den)

    # -- identity -----------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Kernel):
            return NotImplemented
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        if self.index_map is not None and other.index_map is not None:
            return self.index_map == other.index_map
        return all(a.den == b.den and a.nums == b.nums for a, b in zip(self.rows, other.rows))

    def __hash__(self):
        return hash((self.domain, self.codomain, tuple((r.nums, r.den) for r in self.rows)))

    def __repr__(self):
        return f"Kernel({self.domain} -> {self.codomain}, {self.domain.size} rows)"
