"""Exception hierarchy shared by all mafre modules."""

from functools import cached_property


class MafreError(Exception):
    """Base class for all library errors."""


class GranularityMismatchError(MafreError):
    """Two values (or a value and an operator) live on different chains."""


class RangeError(MafreError, ValueError):
    """A numerator falls outside [0, n]."""


class UnknownTripleError(MafreError, KeyError):
    """Requested built-in triple name does not exist."""


class InvalidTripleError(MafreError):
    """An operator table fails the adjunction check.

    Carries the first witness (x, y, z) found, if any.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class IndexMismatchError(MafreError):
    """A fuzzy set is indexed by the wrong element names."""


class DimensionError(MafreError):
    """Matrix shapes do not line up."""


class NotAnExtentError(MafreError):
    """The queried fuzzy set is not an extent of the lattice."""


class InconsistentSetError(MafreError):
    """A restriction was requested over a non-consistent attribute set."""


class UnsolvableError(MafreError):
    """The equation admits no solution.

    ``gap_rows`` lists (row, column, stated, closed) for every entry where the
    right-hand side differs from its interior, with the values as numerators
    over ``granularity``; ``gap`` is the same list with GranularValues, built
    on first read by ``fre._gap_values``.
    """

    def __init__(self, message, gap_rows=(), granularity=None):
        super().__init__(message)
        self.gap_rows, self.granularity = tuple(gap_rows), granularity

    @cached_property
    def gap(self) -> tuple:
        from .fre import _gap_values  # fre imports this module

        return tuple(_gap_values(self.gap_rows, self.granularity))


class InfeasibleReductError(MafreError):
    """The reduct does not make the reduced equation solvable."""


class NotAReductError(MafreError):
    """The given attribute set is not a reduct of the associated context."""


class BudgetExceededError(MafreError):
    """Exhaustive enumeration would exceed the configured budget."""
