"""Exception hierarchy shared by all mafre modules."""

from functools import cached_property

import numpy as np


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

    ``gap_columns`` holds the entries where the right-hand side differs from
    its interior column by column: the list of their row names, the list of
    their column names, and the int64 arrays of their stated and closed
    numerators over ``granularity``.  ``gap_rows`` lists the same entries as
    (row, column, stated, closed) tuples and ``gap`` with GranularValues;
    both are built on first read.

    The error stores only ``_gap``, which the JSON writer (``io._Records``)
    reads: the same columns with each name column held as a pair (names,
    positions), a tuple of names and an int array of positions into it.
    The constructor builds the pairs from its name lists, and the solver
    passes them to ``_of`` as it gathers them; ``gap_columns`` reads the
    name lists off the pairs on first use.
    """

    def __init__(self, message, *, gap_columns=None, granularity=None):
        super().__init__(message)
        if gap_columns is None:
            no_values = np.zeros(0, dtype=np.int64)
            gap_columns = [], [], no_values, no_values
        gap_columns = tuple(gap_columns)
        kinds = tuple(map(type, gap_columns))
        if kinds != (list, list, np.ndarray, np.ndarray) or len({*map(len, gap_columns)}) > 1:
            raise TypeError(
                "gap_columns must be two name lists and two numerator arrays of one length"
            )
        rows, cols, stated, closed = gap_columns
        self._gap = _positions(rows), _positions(cols), stated, closed
        self.granularity = granularity

    @classmethod
    def _of(cls, message, gap: tuple, granularity: int) -> "UnsolvableError":
        """The error of ``gap``: the (names, positions) pairs of the row and
        the column names and the stated and closed numerator arrays, all of
        one length, as the solver gathers them."""
        exc = cls.__new__(cls)
        MafreError.__init__(exc, message)
        exc._gap, exc.granularity = gap, granularity
        return exc

    @cached_property
    def gap_columns(self) -> tuple:
        return _named(self._gap)

    @cached_property
    def gap_rows(self) -> tuple:
        rows, cols, stated, closed = self.gap_columns
        return tuple(zip(rows, cols, stated.tolist(), closed.tolist()))

    @cached_property
    def gap(self) -> tuple:
        from .fre import _gap_values  # fre imports this module

        return tuple(_gap_values(self.gap_columns, self.granularity))


def _positions(names: list) -> tuple:
    """The name list ``names`` as a pair (names, positions): its distinct
    names in order of first entry, and the position of each entry's name."""
    index = {}
    at = [index.setdefault(name, len(index)) for name in names]
    return tuple(index), np.array(at, dtype=np.intp)


def _named(gap: tuple) -> tuple:
    """The gap columns of ``gap``, as ``UnsolvableError._of`` takes it, with
    the names of each (names, positions) pair as a list, read off by one
    gather from an object array."""
    (row_names, rows), (col_names, cols), stated, closed = gap
    return tuple(
        np.fromiter(names, dtype=object, count=len(names)).take(at).tolist()
        for names, at in ((row_names, rows), (col_names, cols))
    ) + (stated, closed)


class InfeasibleReductError(MafreError):
    """The reduct does not make the reduced equation solvable."""


class NotAReductError(MafreError):
    """The given attribute set is not a reduct of the associated context."""


class BudgetExceededError(MafreError):
    """Exhaustive enumeration would exceed the configured budget."""
