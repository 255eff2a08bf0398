"""Semantic exception hierarchy.

Every error raised on purpose by this package derives from KernelAlgError,
so callers can catch one type at the API boundary.  The CLI maps parse and
usage problems to exit code 2 and failed checks to exit code 1.
"""


class KernelAlgError(Exception):
    """Base class for all errors raised by kernelalg."""


# -- scalar arithmetic --------------------------------------------------------

class ScalarError(KernelAlgError):
    pass


class NegativeScalar(ScalarError):
    """Scalars are nonnegative; a negative construction is a logic error."""


# -- core data model ----------------------------------------------------------

class SpaceError(KernelAlgError):
    pass


class DimensionMismatch(SpaceError):
    """Weight or value count does not match the atom count of a space."""


class SpaceMismatch(SpaceError):
    """Two objects were combined whose spaces differ structurally."""


class NotAProductCodomain(SpaceError):
    """Marginals require a kernel whose codomain is a product space."""


class NoMarkovIntoEmpty(KernelAlgError):
    """No row into an empty space can have total mass 1."""


class NotMarkov(KernelAlgError):
    """An operation required a Markov kernel (all rows probability measures)."""


class NotAProbabilityMeasure(KernelAlgError):
    """An operation required a measure with total mass exactly 1."""


class EmptyCodomainZ(KernelAlgError):
    """Disintegration cannot produce Markov rows into an empty space."""


# -- sequential ---------------------------------------------------------------

class HorizonOutOfRange(KernelAlgError):
    """Requested horizon is outside 1..len(chain.steps)."""


# -- analytics ----------------------------------------------------------------

class AlphaOutOfRange(KernelAlgError):
    """Renyi order must lie strictly inside (0, 1)."""


class NonzeroMean(KernelAlgError):
    """Bounded-range certification requires exact mean zero per row."""


class GridViolation(KernelAlgError):
    """The MGF inequality failed at a grid point.

    The failing point is kept on the exception as a Fraction, and printed
    with every digit.
    """

    def __init__(self, t, mgf_value, bound):
        from .scalar import _format_rational  # scalar imports this module

        self.t = t
        self.mgf_value = mgf_value
        self.bound = bound
        super().__init__(
            f"mgf bound violated at t = {_format_rational(t)}: "
            f"mgf = {mgf_value!r} > bound = {bound!r}"
        )


class NotCertified(KernelAlgError):
    """A concentration bound was requested for an uncertified variable."""


class ScopeMismatch(KernelAlgError):
    """Certificate scopes do not chain."""


# -- frontend -----------------------------------------------------------------

class DocumentError(KernelAlgError):
    """Base for .kd parse and evaluation errors, with source position."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class KdSyntaxError(DocumentError):
    pass


class DuplicateName(DocumentError):
    pass


class UnknownAtom(DocumentError):
    pass


class WeightCountMismatch(DocumentError):
    pass


class UnknownName(DocumentError):
    pass


class ArityError(DocumentError):
    pass


class ExprTypeError(DocumentError):
    """Expression failed to typecheck; message shows the offending spaces."""
