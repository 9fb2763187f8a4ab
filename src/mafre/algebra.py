"""Exact granular truth values and adjoint triples.

All truth values are elements k/n of the chain ``{0, 1/n, ..., 1}`` and are
stored as an integer numerator with a shared denominator, so every lattice and
residuation computation is exact.  Adjoint triples are represented by their
full operator tables over the chain, which makes the adjunction property
checkable exhaustively and keeps downstream evaluation to table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    GranularityMismatchError,
    InvalidTripleError,
    RangeError,
    UnknownTripleError,
)

BUILTIN_TRIPLE_NAMES = ("sq-left", "sq-right", "godel")
# size of one chunk of a numpy sweep (grid rows, or cells of the adjunction
# cube), so that memory stays bounded however large the sweep is
_CHUNK = 200_000
# the most entries one array of a search that can grow exponentially may
# hold (a solution box, its minimal rows, the memo of a count, lattice
# extents and covers); 2^25 int64 entries are 256 MB
MAX_ENTRIES = 2**25
# built-in triples kept per process, as (name, n) keys: one triple at n = 512
# holds 6.3 MB of tables, so the cache is bounded
_BUILTIN_CACHE_SIZE = 16


@total_ordering
@dataclass(frozen=True)
class GranularValue:
    """An exact value k/n on the granular chain with n+1 elements."""

    numerator: int
    granularity: int

    def __post_init__(self):
        if self.granularity < 1:
            raise RangeError(f"granularity must be >= 1, got {self.granularity}")
        if not 0 <= self.numerator <= self.granularity:
            raise RangeError(
                f"numerator {self.numerator} outside [0, {self.granularity}]"
            )

    def _check(self, other: "GranularValue") -> None:
        if self.granularity != other.granularity:
            raise GranularityMismatchError(
                f"granularity {self.granularity} vs {other.granularity}"
            )

    def __lt__(self, other: "GranularValue") -> bool:
        self._check(other)
        return self.numerator < other.numerator

    def meet(self, other: "GranularValue") -> "GranularValue":
        self._check(other)
        return GranularValue(min(self.numerator, other.numerator), self.granularity)

    def join(self, other: "GranularValue") -> "GranularValue":
        self._check(other)
        return GranularValue(max(self.numerator, other.numerator), self.granularity)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.granularity)

    def __float__(self) -> float:
        return self.numerator / self.granularity

    def __str__(self) -> str:
        return f"{self.numerator}/{self.granularity}"

    def __repr__(self) -> str:
        return f"GranularValue({self.numerator}, {self.granularity})"


@dataclass(frozen=True)
class GranularLattice:
    """The finite chain [0,1]_n."""

    granularity: int

    def __post_init__(self):
        if self.granularity < 1:
            raise RangeError(f"granularity must be >= 1, got {self.granularity}")

    @property
    def bottom(self) -> GranularValue:
        return GranularValue(0, self.granularity)

    @property
    def top(self) -> GranularValue:
        return GranularValue(self.granularity, self.granularity)

    def value(self, k: int) -> GranularValue:
        return GranularValue(k, self.granularity)

    def __iter__(self):
        n = self.granularity
        return (GranularValue(k, n) for k in range(n + 1))

    def __len__(self) -> int:
        return self.granularity + 1


class AdjointTriple:
    """A conjunctor with its two residuated implications on [0,1]_n.

    Operator tables are indexed by numerators: ``conj_table[x][y]``,
    ``left_residuum_table[z][y]`` and ``right_residuum_table[z][x]``.  The
    same three tables are kept stacked as one read-only (3, n+1, n+1) integer
    array for numpy evaluation; the tuple forms are built on first use.
    A triple is immutable, so one that passed ``verify_adjoint_triple`` is
    marked ``_verified`` and is not checked again.
    """

    def __init__(self, name, granularity, conj_table, lres_table, rres_table):
        n = granularity
        arrays = [
            _table_array(label, table, n)
            for label, table in (
                ("conj", conj_table),
                ("left_residuum", lres_table),
                ("right_residuum", rres_table),
            )
        ]
        self.name = name
        self.granularity = n
        self._tables = np.stack(arrays)
        self._tables.flags.writeable = False
        self._verified = False
        self._opposite = None

    @cached_property
    def _tuples(self) -> tuple:
        return tuple(tuple(map(tuple, table)) for table in self._tables.tolist())

    conj_table = property(lambda self: self._tuples[0])
    left_residuum_table = property(lambda self: self._tuples[1])
    right_residuum_table = property(lambda self: self._tuples[2])

    def _in(self, v: GranularValue) -> int:
        if v.granularity != self.granularity:
            raise GranularityMismatchError(
                f"value on [0,1]_{v.granularity}, triple on [0,1]_{self.granularity}"
            )
        return v.numerator

    def conj(self, x: GranularValue, y: GranularValue) -> GranularValue:
        return GranularValue(self.conj_table[self._in(x)][self._in(y)], self.granularity)

    def left_residuum(self, z: GranularValue, y: GranularValue) -> GranularValue:
        return GranularValue(
            self.left_residuum_table[self._in(z)][self._in(y)], self.granularity
        )

    def right_residuum(self, z: GranularValue, x: GranularValue) -> GranularValue:
        return GranularValue(
            self.right_residuum_table[self._in(z)][self._in(x)], self.granularity
        )

    def opposite(self) -> "AdjointTriple":
        """The triple of y & x: conj table transposed, the two residua swapped.

        A dual equation X (.) S = T is the primal one S^T (.) X^T = T^T over
        the opposite triples.  It is built once; its opposite is this triple.
        """
        if self._opposite is None:
            conj, lres, rres = self._tables
            opposite = AdjointTriple(
                self.name[:-3] if self.name.endswith("^op") else self.name + "^op",
                self.granularity,
                conj.T,
                rres,
                lres,
            )
            opposite._opposite, self._opposite = self, opposite
        return self._opposite

    def __repr__(self):
        return f"AdjointTriple({self.name!r}, n={self.granularity})"


def _check_entries(entries: int, what: str) -> None:
    """Raise BudgetExceededError when ``what`` needs an array of more than
    ``MAX_ENTRIES`` entries; called before that array is allocated."""
    if entries > MAX_ENTRIES:
        raise BudgetExceededError(
            f"{what} needs {entries} entries, exceeds budget {MAX_ENTRIES}"
        )


def _int64(rows, n_rows: int, n_cols: int, n: int):
    """``rows`` as a new (n_rows, n_cols) int64 array when it is an int64
    array or a list of rows (lists or tuples) of exact ints, of that shape
    and with every entry in 0..n; else None.  One set of entry types (which
    rejects bool) and one numpy shape and range test, with no per-entry
    Python step."""
    if isinstance(rows, np.ndarray):
        if rows.dtype != np.int64:
            return None
        arr = np.array(rows)
    elif {*map(type, rows)} <= {list, tuple} and {*map(type, chain.from_iterable(rows))} <= {int}:
        try:
            arr = np.array(rows, dtype=np.int64)
        except (ValueError, OverflowError):  # ragged rows, an int beyond int64
            return None
    else:
        return None
    if arr.shape != (n_rows, n_cols) or ((arr < 0) | (arr > n)).any():
        return None
    return arr


def _table_array(label: str, table, n: int) -> np.ndarray:
    """``table`` as an (n+1) x (n+1) int64 array with entries in [0, n]: an
    int64 array or rows of exact ints, as ``_int64`` takes them; any other
    entry (a float, a bool, a string) raises RangeError."""
    arr = _int64(table if isinstance(table, np.ndarray) else list(table), n + 1, n + 1, n)
    if arr is None:
        raise RangeError(f"{label} table must be ({n+1})x({n+1}) integers in [0, {n}]")
    return arr


def _isqrt(v: np.ndarray) -> np.ndarray:
    """``math.isqrt`` of every entry of a non-negative int64 array.

    The float64 root is off by at most one, so one correction each way makes
    it exact; (r+1)^2 stays within int64 for every v below 2^62.
    """
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += (r + 1) * (r + 1) <= v
    return r


# typed: an np.int64 n gets a triple of its own, whose granularity never
# reaches a caller that passed an int
@lru_cache(maxsize=_BUILTIN_CACHE_SIZE, typed=True)
def builtin_triple(name: str, n: int) -> AdjointTriple:
    """Return one of the built-in adjoint triples on [0,1]_n.

    A triple is built once per (name, n) and shared by every caller in the
    process (it is immutable), so it is verified at most once.

    ``sq-left``:  x & y = ceil(n x^2 y)/n, ``sq-right``: x & y = ceil(n x y^2)/n,
    ``godel``:    x & y = min(x, y).  Residua clip at 1 and return 1 when the
    divisor argument is 0.  Tables are built with exact integer arithmetic:
    entry [a][b] of each comes from the numerators a (rows) and b (columns).
    """
    if n < 1:
        raise RangeError(f"granularity must be >= 1, got {n}")
    if n**4 >= 2**62:  # n^2 a b reaches n^4, and int64 arithmetic must not wrap
        raise RangeError(f"granularity {n} too large for exact built-in tables")
    k = np.arange(n + 1, dtype=np.int64)
    a, b = k[:, None], k[None, :]
    safe_b = np.maximum(b, 1)  # column b = 0 is overwritten with n below

    def sqrt_div():  # min(floor(sqrt(n^2 a b)) // b, n)
        return np.where(b == 0, n, np.minimum(_isqrt(n * n * a * b) // safe_b, n))

    def div_sq():  # min(a n^2 // b^2, n)
        return np.where(b == 0, n, np.minimum(a * n * n // (safe_b * safe_b), n))

    if name == "sq-left":
        conj, lres, rres = -(-(a * a * b) // (n * n)), sqrt_div(), div_sq()
    elif name == "sq-right":
        conj, lres, rres = -(-(a * b * b) // (n * n)), div_sq(), sqrt_div()
    elif name == "godel":
        conj = np.minimum(a, b)
        lres = rres = np.where(b <= a, n, a)
    else:
        raise UnknownTripleError(name)
    return AdjointTriple(name, n, conj, lres, rres)


@dataclass(frozen=True)
class AdjunctionReport:
    """Outcome of an exhaustive adjunction check."""

    passed: bool
    witness: Optional[tuple] = None  # (x, y, z) GranularValues on failure

    def __bool__(self):
        return self.passed


def verify_adjoint_triple(t: AdjointTriple, lattice: GranularLattice) -> AdjunctionReport:
    """Check x <= z<-y  iff  x&y <= z  iff  y <= z<-x over the whole chain.

    All (x, y, z) are tested at once with numpy, in slices of x holding at
    most ``_CHUNK`` cells.  On failure the witness is the first counterexample
    in lexicographic (x, y, z) order.  A triple that passes is marked
    ``_verified``.
    """
    if t.granularity != lattice.granularity:
        raise GranularityMismatchError(
            f"triple on [0,1]_{t.granularity}, lattice on [0,1]_{lattice.granularity}"
        )
    n = lattice.granularity
    conj, lres, rres = t._tables
    k = np.arange(n + 1)
    step = max(1, _CHUNK // (n + 1) ** 2)
    for start in range(0, n + 1, step):
        x = slice(start, start + step)
        # cell [x, y, z] of each test
        first = k[x, None, None] <= lres.T[None, :, :]
        second = conj[x, :, None] <= k[None, None, :]
        third = k[None, :, None] <= rres.T[x, None, :]
        bad = (first != second) | (second != third)
        if bad.any():
            i, y, z = np.unravel_index(np.argmax(bad), bad.shape)
            witness = tuple(GranularValue(int(v), n) for v in (start + i, y, z))
            return AdjunctionReport(False, witness)
    t._verified = True
    return AdjunctionReport(True, None)


class Frame:
    """A granular chain together with a family of verified adjoint triples.

    A triple that already passed the adjunction check is not checked again.
    """

    def __init__(self, lattice: GranularLattice, triples: Sequence[AdjointTriple]):
        if not triples:
            raise RangeError("a frame needs at least one adjoint triple")
        for t in triples:
            if t._verified and t.granularity == lattice.granularity:
                continue
            report = verify_adjoint_triple(t, lattice)
            if not report:
                raise InvalidTripleError(
                    f"triple {t.name!r} fails adjunction at "
                    f"(x, y, z) = {tuple(map(str, report.witness))}",
                    witness=report.witness,
                )
        self.lattice = lattice
        self.triples = tuple(triples)

    def opposite(self) -> "Frame":
        """The frame of the opposite triples, which are not verified again:
        the opposite triple's adjunction test at (x, y, z) is this one's at
        (y, x, z), with its first and third conditions swapped."""
        opposite = Frame.__new__(Frame)
        opposite.lattice = self.lattice
        opposite.triples = tuple(t.opposite() for t in self.triples)
        return opposite

    @property
    def granularity(self) -> int:
        return self.lattice.granularity

    def value(self, k: int) -> GranularValue:
        return self.lattice.value(k)

    def __repr__(self):
        names = ", ".join(t.name for t in self.triples)
        return f"Frame([0,1]_{self.granularity}; {names})"


def builtin_frame(names: Sequence[str], n: int) -> Frame:
    """Convenience constructor: a frame from built-in triple names."""
    return Frame(GranularLattice(n), [builtin_triple(name, n) for name in names])
