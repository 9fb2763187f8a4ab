"""Exact granular truth values and adjoint triples.

All truth values are elements k/n of the chain ``{0, 1/n, ..., 1}`` and are
stored as an integer numerator with a shared denominator, so every lattice and
residuation computation is exact.  Adjoint triples are represented by their
full operator tables over the chain, which makes the adjunction property
checkable exhaustively and keeps downstream evaluation to table lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import product
from typing import Callable, Optional, Sequence

from .errors import (
    GranularityMismatchError,
    InvalidTripleError,
    RangeError,
    UnknownTripleError,
)

BUILTIN_TRIPLE_NAMES = ("sq-left", "sq-right", "godel")


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


def make_granular(k: int, n: int) -> GranularValue:
    """Build the exact value k/n; rejects out-of-range numerators."""
    return GranularValue(k, n)


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


def _table_from_fn(n: int, fn: Callable[[int, int], int]):
    return tuple(tuple(fn(a, b) for b in range(n + 1)) for a in range(n + 1))


class AdjointTriple:
    """A conjunctor with its two residuated implications on [0,1]_n.

    Operator tables are indexed by numerators: ``conj_table[x][y]``,
    ``left_residuum_table[z][y]`` and ``right_residuum_table[z][x]``.
    """

    def __init__(self, name, granularity, conj_table, lres_table, rres_table):
        n = granularity
        for label, table in (
            ("conj", conj_table),
            ("left_residuum", lres_table),
            ("right_residuum", rres_table),
        ):
            if len(table) != n + 1 or any(len(row) != n + 1 for row in table):
                raise RangeError(f"{label} table must be ({n+1})x({n+1})")
            if any(not 0 <= v <= n for row in table for v in row):
                raise RangeError(f"{label} table entry outside [0, {n}]")
        self.name = name
        self.granularity = n
        self.conj_table = tuple(tuple(row) for row in conj_table)
        self.left_residuum_table = tuple(tuple(row) for row in lres_table)
        self.right_residuum_table = tuple(tuple(row) for row in rres_table)

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
        the opposite triples.
        """
        return AdjointTriple(
            self.name[:-3] if self.name.endswith("^op") else self.name + "^op",
            self.granularity,
            tuple(zip(*self.conj_table)),
            self.right_residuum_table,
            self.left_residuum_table,
        )

    def __repr__(self):
        return f"AdjointTriple({self.name!r}, n={self.granularity})"


def _ceil_div(p: int, q: int) -> int:
    return -(-p // q)


def _floor_sqrt_ratio(p: int, q: int) -> int:
    # floor(sqrt(p / q)) for non-negative integers, q > 0
    return math.isqrt(p * q) // q


def builtin_triple(name: str, n: int) -> AdjointTriple:
    """Return one of the built-in adjoint triples on [0,1]_n.

    ``sq-left``:  x & y = ceil(n x^2 y)/n, ``sq-right``: x & y = ceil(n x y^2)/n,
    ``godel``:    x & y = min(x, y).  Residua clip at 1 and return 1 when the
    divisor argument is 0.
    """
    if n < 1:
        raise RangeError(f"granularity must be >= 1, got {n}")
    if name == "sq-left":
        conj = _table_from_fn(n, lambda a, b: _ceil_div(a * a * b, n * n))
        lres = _table_from_fn(
            n,
            lambda c, b: n if b == 0 else min(math.isqrt(n * n * c * b) // b, n),
        )
        rres = _table_from_fn(
            n, lambda c, a: n if a == 0 else min(c * n * n // (a * a), n)
        )
    elif name == "sq-right":
        conj = _table_from_fn(n, lambda a, b: _ceil_div(a * b * b, n * n))
        lres = _table_from_fn(
            n, lambda c, b: n if b == 0 else min(c * n * n // (b * b), n)
        )
        rres = _table_from_fn(
            n,
            lambda c, a: n if a == 0 else min(math.isqrt(n * n * c * a) // a, n),
        )
    elif name == "godel":
        conj = _table_from_fn(n, min)
        lres = _table_from_fn(n, lambda c, b: n if b <= c else c)
        rres = _table_from_fn(n, lambda c, a: n if a <= c else c)
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

    Returns the first counterexample found, if any.
    """
    if t.granularity != lattice.granularity:
        raise GranularityMismatchError(
            f"triple on [0,1]_{t.granularity}, lattice on [0,1]_{lattice.granularity}"
        )
    n = lattice.granularity
    conj, lres, rres = t.conj_table, t.left_residuum_table, t.right_residuum_table
    for x, y, z in product(range(n + 1), repeat=3):
        first = x <= lres[z][y]
        second = conj[x][y] <= z
        third = y <= rres[z][x]
        if not (first == second == third):
            witness = tuple(GranularValue(k, n) for k in (x, y, z))
            return AdjunctionReport(False, witness)
    return AdjunctionReport(True, None)


class Frame:
    """A granular chain together with a family of verified adjoint triples."""

    def __init__(self, lattice: GranularLattice, triples: Sequence[AdjointTriple]):
        if not triples:
            raise RangeError("a frame needs at least one adjoint triple")
        for t in triples:
            report = verify_adjoint_triple(t, lattice)
            if not report:
                raise InvalidTripleError(
                    f"triple {t.name!r} fails adjunction at "
                    f"(x, y, z) = {tuple(map(str, report.witness))}",
                    witness=report.witness,
                )
        self.lattice = lattice
        self.triples = tuple(triples)

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
