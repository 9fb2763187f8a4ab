"""Exception hierarchy shared by all mafre modules."""


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

    ``gap`` lists (row, column, stated_value, closed_value) for every entry
    where the right-hand side differs from its interior.
    """

    def __init__(self, message, gap=()):
        super().__init__(message)
        self.gap = tuple(gap)


class InfeasibleReductError(MafreError):
    """The reduct does not make the reduced equation solvable."""


class NotAReductError(MafreError):
    """The given attribute set is not a reduct of the associated context."""


class BudgetExceededError(MafreError):
    """Exhaustive enumeration would exceed the configured budget."""
