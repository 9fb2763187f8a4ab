"""Fuzzy relation equations R (.) X = T with sup-composition.

Solvability, maximum solution and the complete solution set all come from the
closure operators of the associated context.  Column w is solvable iff T_w is
a fixpoint of the interior T_w^down^up; its maximum solution is the extent
T_w^down, and its solutions are the box below that maximum minus the
down-sets of the extent's lower covers in the property-oriented concept
lattice.  Those covers come from ``context._lower_covers`` without building
the lattice: with f = e^up, every extent x < e lies below one of the
extents e ^ (top except a:f(a) - 1)^down, f(a) > 0, so the lower covers are
the maximal ones among these |U| candidates.  A brute-force enumerator is
kept alongside as an independent oracle.

Each solver call makes one closure pass over all rhs columns; an unsolvable
instance raises UnsolvableError carrying the gap as numerators.  Columns with
the same maximum share its array, its predecessors and, when listed, its
solutions and minimal ones, read off one boolean grid over the box; the JSON
output writes each of those arrays once.  A count
alone sweeps no box: it splits the box on one unknown at a time, keeping the
maximal predecessors still active on the unknowns left (``_count``).  The
listing raises BudgetExceededError before allocating an array above
``algebra.MAX_ENTRIES`` entries, and the count before its memo holds that
many, at |V| entries per state.

An instance is its checked associated context plus one rhs numerator array.
Derived instances (reduced, repaired, the transposed primal of a dual one)
are built by ``FreInstance._on`` from slices of those checked arrays and are
not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import attrgetter, ge, mul
from typing import Iterable, Optional

import numpy as np

from .algebra import _CHUNK, Frame, _check_entries
from .context import (
    Context,
    FuzzySet,
    _conj_tables,
    _grid,
    _lower_covers,
    _matrix,
    _names,
    _nested,
    _restrict,
    _unique_rows,
    _values,
    is_consistent,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    InconsistentSetError,
    UnsolvableError,
)


class FreInstance:
    """R (.) X = T over U x V with per-unknown triple assignment.

    ``coeff[u][v]`` is R(u, v), ``rhs[u][w]`` is T(u, w) and ``sigma[v]`` is
    the 0-based triple index used by unknown v.  An instance is its checked
    associated context (U, V, R, sigma), which holds ``frame``, ``row_names``
    and ``var_names``, plus ``sigma``, ``col_names`` and the rhs numerator
    array ``_rhs_array`` (|U| x |W|); ``coeff`` and ``rhs`` are views.
    """

    def __init__(self, frame: Frame, row_names, var_names, col_names, coeff, sigma, rhs):
        var_names, col_names = tuple(var_names), _names(col_names, "columns")
        # no rows is the reduced instance of the empty reduct
        if not var_names or not col_names:
            raise DimensionError("variable and column sets must be non-empty")
        sigma = tuple(sigma)
        if len(sigma) != len(var_names) or _nested(sigma):
            raise DimensionError("sigma must assign one triple per unknown")
        ctx = Context(frame, row_names, var_names, coeff, sigma)
        rhs = _matrix(rhs, len(ctx.attributes), len(col_names), "rhs", frame.granularity)
        self._context, self.sigma, self.col_names, self._rhs_array = (
            ctx, sigma, col_names, rhs
        )

    @classmethod
    def _on(cls, ctx: Context, sigma: tuple, col_names: tuple, rhs: np.ndarray):
        """The instance over the checked context ``ctx`` with the checked rhs
        array ``rhs``; every derived instance (reduced, repaired, transposed
        dual) is built here, from slices of checked arrays, with no checks."""
        fre = cls.__new__(cls)
        fre._context, fre.sigma, fre.col_names, fre._rhs_array = (
            ctx, sigma, col_names, rhs
        )
        return fre

    def _with_rhs(self, rhs: np.ndarray) -> "FreInstance":
        """This instance with the checked rhs array ``rhs``, on the same context."""
        return FreInstance._on(self._context, self.sigma, self.col_names, rhs)

    frame = property(attrgetter("_context.frame"))
    row_names = property(attrgetter("_context.attributes"))
    var_names = property(attrgetter("_context.objects"))
    _coeff_array = property(attrgetter("_context._R"))

    @cached_property
    def coeff(self) -> tuple:
        return self._context.relation

    @cached_property
    def rhs(self) -> tuple:
        return _values(self._rhs_array, self.frame.granularity)

    def rhs_column(self, w) -> FuzzySet:
        if w not in self.col_names:
            raise KeyError(w)
        j = self.col_names.index(w)
        return FuzzySet.from_numerators(
            self.row_names, self._rhs_array[:, j].tolist(), self.frame.granularity
        )

    def __repr__(self):
        return (
            f"FreInstance({len(self.row_names)}x{len(self.var_names)}, "
            f"|W|={len(self.col_names)}, n={self.frame.granularity})"
        )


def associated_context(fre: FreInstance) -> Context:
    """The context (U, V, R, sigma) with the per-unknown sigma replicated."""
    return fre._context


def sup_compose(frame: Frame, R, X, sigma):
    """T(u, w) = sup_v R(u, v) & X(v, w), on GranularValues by definition.

    The solvers work on numerator arrays instead; this and ``inf_compose``
    remain as the readable definitions that the tests check them against.
    """
    R = tuple(tuple(r) for r in R)
    X = tuple(tuple(r) for r in X)
    if not R or not X or any(len(r) != len(X) for r in R):
        raise DimensionError("inner dimensions of R and X do not match")
    triples = [frame.triples[i] for i in sigma]
    if len(triples) != len(X):
        raise DimensionError("sigma must assign one triple per unknown")
    out = []
    for r_row in R:
        out_row = []
        for w in range(len(X[0])):
            acc = None
            for v, (rv, t) in enumerate(zip(r_row, triples)):
                term = t.conj(rv, X[v][w])
                acc = term if acc is None else acc.join(term)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def inf_compose(frame: Frame, T, R, sigma):
    """X(v, w) = inf_u T(u, w) <-(right) R(u, v); the maximum-solution formula."""
    T = tuple(tuple(r) for r in T)
    R = tuple(tuple(r) for r in R)
    if len(T) != len(R):
        raise DimensionError("T and R must have the same number of rows")
    triples = [frame.triples[i] for i in sigma]
    if not R or len(triples) != len(R[0]):
        raise DimensionError("sigma must assign one triple per unknown")
    out = []
    for v, t in enumerate(triples):
        out_row = []
        for w in range(len(T[0])):
            acc = None
            for u in range(len(T)):
                term = t.right_residuum(T[u][w], R[u][v])
                acc = term if acc is None else acc.meet(term)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def is_solution(fre: FreInstance, X) -> bool:
    """Membership test: the composition must reproduce T exactly."""
    n = fre.frame.granularity
    X = _values(_matrix(X, len(fre.var_names), len(fre.col_names), "X", n), n)
    return sup_compose(fre.frame, fre.coeff, X, fre.sigma) == fre.rhs


def _closures(fre: FreInstance):
    """(maxima, interiors) of every rhs column at once: row j holds column j's
    maximum candidate T_j^down over V and its interior T_j^down^up over U."""
    ctx = associated_context(fre)
    maxima = ctx.necessity_batch(fre._rhs_array.T)
    return maxima, ctx.possibility_batch(maxima)


def _gap_columns(fre: FreInstance, interiors: np.ndarray) -> tuple:
    """The entries where T differs from its interior, column by column as
    ``UnsolvableError.gap_columns`` holds them: row names, column names,
    stated and closed numerators; the entries are taken column-major, rows
    in order within a column."""
    cols, rows = np.nonzero(interiors != fre._rhs_array.T)
    return (
        list(map(fre.row_names.__getitem__, rows.tolist())),
        list(map(fre.col_names.__getitem__, cols.tolist())),
        fre._rhs_array[rows, cols],
        interiors[cols, rows],
    )


def _unsolvable(fre: FreInstance, interiors: np.ndarray, message: str) -> None:
    """Raise UnsolvableError with the gap when T is not its interior."""
    gap_columns = _gap_columns(fre, interiors)
    if gap_columns[0]:
        raise UnsolvableError(
            message, gap_columns=gap_columns, granularity=fre.frame.granularity
        )


def _gap_values(gap_columns: tuple, n: int) -> list:
    """Gap entries (u, w, stated, closed) from ``gap_columns``, with the
    numerator values as GranularValues over n."""
    rows, cols, stated, closed = gap_columns
    return list(zip(rows, cols, *_values(np.stack([stated, closed]), n)))


def solvability_gap(fre: FreInstance):
    """Entries (u, w, stated, closed) where T differs from its interior."""
    return _gap_values(_gap_columns(fre, _closures(fre)[1]), fre.frame.granularity)


def is_solvable(fre: FreInstance) -> bool:
    """True iff every rhs column is a fixpoint of the interior operator."""
    return np.array_equal(_closures(fre)[1], fre._rhs_array.T)


def max_solution(fre: FreInstance):
    """The greatest solution, column w given by T_w^down."""
    maxima, interiors = _closures(fre)
    _unsolvable(fre, interiors, "instance is unsolvable; rhs differs from its interior")
    return _values(maxima.T, fre.frame.granularity)


@dataclass(frozen=True, eq=False)
class ColumnSolutions:
    """Complete solution description for one rhs column.

    It is held as numerator arrays over the unknowns: the maximum solution,
    the predecessors whose down-sets are excluded and, when the box was swept,
    every solution and the minimal ones.  The FuzzySet views
    (``max_solution``, ``excluded_predecessors``, ``enumerated``,
    ``minimal``) are built on first use; ``solution_rows``, ``minimal_rows``,
    ``enumerated`` and ``minimal`` are None when the box was only counted.
    """

    column: object
    var_names: tuple
    granularity: int
    max_row: np.ndarray  # (|V|,)
    predecessor_rows: np.ndarray  # (predecessors, |V|)
    count: int
    solution_rows: Optional[np.ndarray] = None  # (count, |V|), lexicographic
    minimal_rows: Optional[np.ndarray] = None  # (minimal, |V|), lexicographic

    def _sets(self, rows) -> tuple:
        return tuple(
            FuzzySet.from_numerators(self.var_names, row, self.granularity)
            for row in rows.tolist()
        )

    @cached_property
    def max_solution(self) -> FuzzySet:
        return FuzzySet.from_numerators(self.var_names, self.max_row, self.granularity)

    @cached_property
    def excluded_predecessors(self) -> tuple:
        return self._sets(self.predecessor_rows)

    @cached_property
    def enumerated(self) -> Optional[tuple]:
        return None if self.solution_rows is None else self._sets(self.solution_rows)

    @cached_property
    def minimal(self) -> Optional[tuple]:
        return None if self.solution_rows is None else self._sets(self.minimal_rows)

    def to_json(self) -> dict:
        """The column's record, with lists of its own."""
        data = {
            "column": self.column,
            "max_solution": self.max_row.tolist(),
            "excluded_predecessors": self.predecessor_rows.tolist(),
            "count": self.count,
        }
        if self.solution_rows is not None:
            data["solutions"] = self.solution_rows.tolist()
            data["minimal"] = self.minimal_rows.tolist()
        return data


@dataclass(frozen=True)
class SolutionSet:
    """Per-column solution sets of a solvable instance."""

    granularity: int
    var_names: tuple
    columns: tuple  # of ColumnSolutions

    def column(self, w) -> ColumnSolutions:
        for c in self.columns:
            if c.column == w:
                return c
        raise KeyError(w)

    def to_json(self) -> dict:
        """The solution set as JSON values; every record holds lists of its
        own, also where columns share their arrays (as ``enumerate_solutions``
        shares them per distinct maximum).  ``solve --json`` prints this,
        written from the arrays by ``io._Records``."""
        return {
            "granularity": self.granularity,
            "variables": list(self.var_names),
            "columns": [c.to_json() for c in self.columns],
        }


def _box(max_row: np.ndarray, pred_rows: np.ndarray) -> tuple:
    """(free, grid): the coordinates where ``max_row`` is positive (the
    others are 0 below it) and a boolean grid, one axis per free coordinate,
    with each predecessor's down-set, a corner, cleared by one slice (slices
    clip: it need not lie below the maximum).  Budget: rows x |V| entries."""
    free = np.flatnonzero(max_row)
    sides = (max_row[free] + 1).tolist()
    rows, nv, k = math.prod(sides), len(max_row), len(pred_rows)
    _check_entries(
        rows * nv,
        f"sweeping a solution box of {rows} rows over {nv} unknowns and {k} predecessors",
    )
    grid = np.ones(sides, dtype=bool)
    for p in pred_rows[:, free].tolist():
        grid[tuple(slice(0, c + 1) for c in p)] = False
    return free, grid


def _listing(max_row: np.ndarray, pred_rows: np.ndarray) -> tuple:
    """(rows, minimal) below ``max_row`` and no predecessor, lexicographic
    (``np.flatnonzero`` walks the grid in C order).  The solutions are an
    up-set of the box: one is minimal iff no cell one step below it is one.
    Each free column is filled from the flat cell indices by division and
    modulo, last axis first, so nothing beside the listing holds more than
    one index per row; slabs of at most ``_CHUNK`` entries keep the strided
    column writes in cache."""
    free, grid = _box(max_row, pred_rows)
    lower = np.zeros_like(grid)
    for axis in range(grid.ndim):
        head = (slice(None),) * axis
        lower[head + (slice(1, None),)] |= grid[head + (slice(None, -1),)]

    def rows(cells):
        flat = np.flatnonzero(cells)
        out = np.zeros((len(flat), len(max_row)), dtype=np.int64)
        step = max(1, _CHUNK // len(max_row))
        for start in range(0, len(flat), step):
            index, slab = flat[start : start + step], out[start : start + step]
            for v, side in zip(free[::-1].tolist(), cells.shape[::-1]):
                np.divmod(index, side, out=(index, slab[:, v]))
        return out

    return rows(grid), rows(grid & ~lower)


def _maximal(rows) -> tuple:
    """The distinct maximal tuples of ``rows``, in descending lexicographic
    order; a row can lie only below rows that sort after it, kept before it."""
    kept = []
    for r in sorted(set(rows), reverse=True):
        for k in kept:
            if all(map(ge, k, r)):
                break
        else:
            kept.append(r)
    return tuple(kept)


def _count(max_row: np.ndarray, pred_rows: np.ndarray) -> int:
    """The number of vectors below ``max_row`` and below no predecessor, split
    on one unknown at a time, last first.  A state at level L is the set of
    maximal predecessors (clipped to the maximum) still active once x(L), ...
    are fixed, restricted to the first L unknowns: between consecutive distinct
    p(L - 1), x(L - 1) keeps active the rows whose p(L - 1) is at or above the
    interval's top.  A branch left with at most one row p counts its box less
    the box below p; equal states of a level are merged (the memo on (level,
    rows)).  Budget: memo states x |V| entries."""
    top = max_row.tolist()
    what = f"counting the solutions over {len(top)} unknowns and {len(pred_rows)} predecessors"
    sizes = [1, *accumulate((m + 1 for m in top), mul)]  # boxes of the first L unknowns
    level = {_maximal(tuple(map(min, p, top)) for p in pred_rows.tolist()): 1}
    count, held, v = 0, 0, len(top)
    while level:
        below = {}
        for rows, suffixes in level.items():
            cuts = sorted({r[-1] for r in rows} | {top[v - 1]})
            for low, c in zip([-1, *cuts], cuts):
                key = _maximal(r[:-1] for r in rows if r[-1] >= c)
                if len(key) < 2:
                    under = sum(math.prod(p + 1 for p in r) for r in key)
                    count += suffixes * (c - low) * (sizes[v - 1] - under)
                    continue
                if key not in below:
                    held += 1
                    _check_entries(held * len(top), what)
                below[key] = below.get(key, 0) + suffixes * (c - low)
        level, v = below, v - 1
    return count


def enumerate_solutions(fre: FreInstance, materialize: bool = True) -> SolutionSet:
    """The whole solution set: maximum plus excluded predecessor down-sets.

    One closure pass gives every column's maximum and interior; an unsolvable
    instance raises UnsolvableError with the gap.  Each column's maximum
    solution is an extent of the associated context, its interior is that
    extent's intent, and its excluded predecessors are that extent's lower
    covers, found for every column by one ``_lower_covers`` call; no concept
    lattice is built.  With ``materialize`` the box below the maximum is
    swept as one boolean grid, listing the solutions and their minimal
    elements; otherwise only the count is produced, by splitting the box on
    one unknown at a time (``_count``).  Columns with equal maxima share all
    of this: it is computed once per distinct maximum.  A grid or count memo
    above ``algebra.MAX_ENTRIES`` entries is not built: it raises
    BudgetExceededError.
    """
    maxima, interiors = _closures(fre)
    _unsolvable(fre, interiors, "cannot enumerate an unsolvable instance")
    candidates, covers = _lower_covers(associated_context(fre), maxima, interiors)
    n = fre.frame.granularity
    solved = {}  # maximum -> (maximum, predecessors, count, solutions, minimal)
    cols = []
    for j, (w, m) in enumerate(zip(fre.col_names, maxima)):
        key = m.tobytes()
        if key not in solved:
            preds = _unique_rows(candidates[j][covers[j]])
            if materialize:
                rows, minimal = _listing(m, preds)
                solved[key] = m, preds, len(rows), rows, minimal
            else:
                solved[key] = m, preds, _count(m, preds), None, None
        cols.append(ColumnSolutions(w, fre.var_names, n, *solved[key]))
    return SolutionSet(n, fre.var_names, tuple(cols))


def brute_force_solutions(fre: FreInstance, budget: int = 10_000_000):
    """Independent oracle: every X with R (.) X = T, by exhaustive search.

    Every candidate column x over V is composed with R by conj-table lookups
    in numpy, swept in chunks of the candidate grid; only the matches become
    GranularValues.  It uses neither the closure operators nor the lattice.
    """
    n = fre.frame.granularity
    nv, nw = len(fre.var_names), len(fre.col_names)
    if (n + 1) ** (nv * nw) > budget:
        raise BudgetExceededError(
            f"({n + 1})^{nv * nw} candidates exceed budget {budget}"
        )
    conj = _conj_tables(fre.frame)[list(fre.sigma)]  # [v, R(u, v), x(v)]
    R, T = fre._coeff_array, fre._rhs_array
    matches = [[] for _ in range(nw)]
    for X in _grid(n, nv):
        image = np.zeros((len(X), len(fre.row_names)), dtype=np.int64)
        for v in range(nv):
            np.maximum(image, conj[v][R[None, :, v], X[:, v, None]], out=image)
        for j in range(nw):
            matches[j].append(X[(image == T[:, j]).all(axis=1)])
    per_column = [_values(np.concatenate(rows), n) for rows in matches]
    return [
        tuple(tuple(combo[j][v] for j in range(nw)) for v in range(nv))
        for combo in product(*per_column)
    ]


def reduce_fre(fre: FreInstance, Y: Iterable, enforce_consistency: bool = True) -> FreInstance:
    """The Y-reduced instance: rows of R and T limited to Y.

    By default Y must be a consistent set of the associated context, which
    guarantees the solution set of a solvable instance is preserved; pass
    ``enforce_consistency=False`` to reduce anyway.  Y may be empty only when
    the empty set is consistent (the lattice is {top}); the result then has
    no equations.
    """
    wanted = set(Y)
    unknown = wanted - set(fre.row_names)
    if unknown:
        raise DimensionError(f"unknown rows: {sorted(unknown)}")
    ctx = associated_context(fre)
    keep = [i for i, u in enumerate(fre.row_names) if u in wanted]
    if not keep and not is_consistent(ctx, ()):
        raise DimensionError("cannot reduce to an empty row set")
    if enforce_consistency and not is_consistent(ctx, tuple(wanted)):
        raise InconsistentSetError(
            f"{sorted(wanted)} is not a consistent set; reduction would lose "
            "information (override with enforce_consistency=False)"
        )
    return FreInstance._on(
        _restrict(ctx, keep), fre.sigma, fre.col_names, fre._rhs_array[keep]
    )
