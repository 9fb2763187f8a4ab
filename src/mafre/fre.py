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
solutions and minimal ones; the JSON output writes each of those arrays
once.  The work is done once per call over the distinct maxima: one cover
search, one deduplication of all their predecessors, and one listing of all
their boxes, held back to back in one boolean buffer, so that each
maximum's rows are a slice of one array (``_listing``).  A count alone
sweeps no box: it splits each box on one unknown at a time, keeping the
maximal predecessors still active on the unknowns left (``_count``).  The
listing raises BudgetExceededError before allocating a box above
``algebra.MAX_ENTRIES`` entries, and lists boxes together only as far as
they fit that budget together; the count raises before its memo holds that
many entries, at |V| entries per state.

An instance is its checked associated context plus one rhs numerator array.
Derived instances (reduced, repaired, the transposed primal of a dual one)
are built by ``FreInstance._on`` from slices of those checked arrays and are
not checked again.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import attrgetter, ge, mul
from typing import Iterable, Optional

import numpy as np

from . import algebra
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
    _named,
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


def _gap(fre: FreInstance, interiors: np.ndarray) -> tuple:
    """The entries where T differs from its interior, column by column as
    ``UnsolvableError._gap`` holds them: (row names, positions), (column
    names, positions), stated and closed numerators; the entries are taken
    column-major, rows in order within a column."""
    cols, rows = np.nonzero(interiors != fre._rhs_array.T)
    return (
        (fre.row_names, rows),
        (fre.col_names, cols),
        fre._rhs_array[rows, cols],
        interiors[cols, rows],
    )


def _unsolvable(fre: FreInstance, interiors: np.ndarray, message: str) -> None:
    """Raise UnsolvableError with the gap when T is not its interior; the
    gap is gathered only then."""
    if (interiors != fre._rhs_array.T).any():
        raise UnsolvableError._of(message, _gap(fre, interiors), fre.frame.granularity)


def _gap_values(gap_columns: tuple, n: int) -> list:
    """Gap entries (u, w, stated, closed) from ``gap_columns``, with the
    numerator values as GranularValues over n."""
    rows, cols, stated, closed = gap_columns
    return list(zip(rows, cols, *_values(np.stack([stated, closed]), n)))


def solvability_gap(fre: FreInstance):
    """Entries (u, w, stated, closed) where T differs from its interior."""
    return _gap_values(_named(_gap(fre, _closures(fre)[1])), fre.frame.granularity)


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

    @classmethod
    def _of(cls, column, fields: dict) -> "ColumnSolutions":
        """The solutions of ``column`` with every other field from ``fields``,
        which columns with one maximum share; set in the instance's
        ``__dict__``, as the frozen ``__init__`` would set them one by one."""
        col = object.__new__(cls)
        col.__dict__.update(fields, column=column)
        return col

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


def _box(tops: list, preds: list) -> tuple:
    """(grids, cells, starts, columns) for the leading boxes of ``tops`` whose
    listing fits the budget together, at least the first.  ``tops`` holds
    maxima as lists of ints and ``preds`` one (k, |V|) predecessor array per
    maximum.  ``cells`` is one flat boolean buffer holding these boxes back
    to back from the offsets ``starts`` on (the last is its length);
    ``grids[i]`` is box i as a C-order view of it, one axis per unknown that
    the maximum frees (is positive on: the others are 0 below it), with each
    predecessor's down-set, a corner, cleared by one slice (slices clip: it
    need not lie below the maximum).  ``columns`` lists, last unknown first,
    each unknown that some box frees with its side in every box (1 where a
    box does not free it), or one int when every box has that side.
    Budget: each box alone holds rows x |V| entries, checked in order before
    anything is allocated, and the boxes taken hold at most
    ``algebra.MAX_ENTRIES`` together."""
    nv, starts, boxes = len(tops[0]), [0], []
    for top, p in zip(tops, preds):
        free = [v for v, m in enumerate(top) if m]
        rows = math.prod(top[v] + 1 for v in free)
        _check_entries(
            rows * nv,
            f"sweeping a solution box of {rows} rows over {nv} unknowns and {len(p)} predecessors",
        )
        if boxes and (starts[-1] + rows) * nv > algebra.MAX_ENTRIES:
            break
        boxes.append((free, [top[v] + 1 for v in free], p))
        starts.append(starts[-1] + rows)
    cells = np.ones(starts[-1], dtype=bool)
    grids, columns = [], {}
    for k, (free, sides, p) in enumerate(boxes):
        grid = cells[starts[k] : starts[k + 1]].reshape(sides)
        for row in p.tolist():
            grid[tuple(slice(0, row[v] + 1) for v in free)] = False
        grids.append(grid)
        for v, side in zip(free, sides):
            columns.setdefault(v, [1] * len(boxes))[k] = side
    columns = [
        (v, side if len(set(side)) > 1 else side[0])
        for v, side in sorted(columns.items(), reverse=True)
    ]
    return grids, cells, starts, columns


def _cell_rows(cells, starts: list, columns: list, nv: int) -> list:
    """The vectors over |V| unknowns of the true entries of the flat buffer
    ``cells``, laid out as ``_box`` lays out its boxes (``starts``,
    ``columns``): one (rows, |V|) array per box, each a contiguous slice of
    one array.  The columns are filled from the flat index, local to its box,
    by division and modulo, last unknown first, in slabs of at most
    ``_CHUNK`` entries: one division per unknown serves every box of a slab,
    and beside the listing only the flat index and one slab of divisors are
    held."""
    flat = cells.nonzero()[0]
    out = np.zeros((len(flat), nv), dtype=np.int64)
    many = len(starts) > 2
    bounds = np.searchsorted(flat, starts) if many else [0, len(flat)]
    step = max(1, _CHUNK // nv)
    for at in range(0, len(flat), step):
        index, slab = flat[at : at + step], out[at : at + step]
        if many:
            counts = np.diff(bounds.clip(at, at + len(index)))  # each box's rows in the slab
            index -= np.repeat(starts[:-1], counts)
        for v, side in columns:
            divisor = np.repeat(side, counts) if type(side) is list else side
            np.divmod(index, divisor, out=(index, slab[:, v]))
    bounds = bounds.tolist() if many else bounds
    return [out[low:high] for low, high in zip(bounds, bounds[1:])]


def _listing(tops: list, preds: list) -> list:
    """(rows, minimal) for each maximum of ``tops`` with its predecessors in
    ``preds`` (as ``_box`` takes them): the vectors below the maximum and no
    predecessor, and the minimal ones among them, lexicographic (the buffer
    holds each grid in C order).  The solutions are an up-set of the box: one
    is minimal iff no cell one step below it is one.  The boxes are listed in
    groups that fit the budget together (``_box``), one buffer each, so one
    ``nonzero`` gives a group's solutions and one its minimal cells
    (``_cell_rows``)."""
    listed, nv = [], len(tops[0])
    while len(listed) < len(tops):
        grids, cells, starts, columns = _box(tops[len(listed) :], preds[len(listed) :])
        lower = np.zeros(len(cells), dtype=bool)
        for grid, start in zip(grids, starts):
            below = lower[start : start + grid.size].reshape(grid.shape)
            for axis in range(grid.ndim):
                head = (slice(None),) * axis
                below[head + (slice(1, None),)] |= grid[head + (slice(None, -1),)]
        np.greater(cells, lower, out=lower)  # the minimal cells
        listed += zip(
            _cell_rows(cells, starts, columns, nv), _cell_rows(lower, starts, columns, nv)
        )
    return listed


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
    covers; no concept lattice is built.  Columns with equal maxima share all
    of this, and the work is done once per request over the distinct maxima,
    in the order of their first columns: one ``_lower_covers`` call, and one
    ``_unique_rows`` call over every covered candidate keyed by its maximum,
    so that each maximum's predecessors are one run of the result.  With
    ``materialize`` the boxes below the maxima are swept back to back in one
    boolean buffer (``_listing``), listing the solutions and their minimal
    elements; otherwise only the counts are produced, one maximum at a time,
    by splitting its box on one unknown at a time (``_count``).  A box or
    count memo above ``algebra.MAX_ENTRIES`` entries is not built: it raises
    BudgetExceededError, and boxes are swept together only as far as they fit
    that budget together.
    """
    maxima, interiors = _closures(fre)
    _unsolvable(fre, interiors, "cannot enumerate an unsolvable instance")
    # the distinct maxima in the order of their first columns
    raw, slots = maxima.tobytes(), {}
    width = len(raw) // len(maxima)
    slot = [slots.setdefault(raw[at : at + width], len(slots)) for at in range(0, len(raw), width)]
    if len(slots) < len(slot):
        first = [slot.index(k) for k in range(len(slots))]
        maxima, interiors = maxima[first], interiors[first]
    candidates, covers = _lower_covers(associated_context(fre), maxima, interiors)
    # every maximum's covered candidates deduplicated at once, keyed by the
    # maximum's slot first, so each maximum's predecessors are one run; one
    # maximum needs no key
    covered, radix = candidates[covers], max(len(maxima), fre.frame.granularity + 1)
    if len(maxima) == 1:
        preds = [_unique_rows(covered, radix)]
    else:
        keyed = np.concatenate((covers.nonzero()[0][:, None], covered), axis=1)
        keyed = _unique_rows(keyed, radix)
        lead = [row[0] for row in keyed.tolist()]
        bounds = [bisect_left(lead, k) for k in range(len(maxima) + 1)]
        preds = [keyed[low:high, 1:] for low, high in zip(bounds, bounds[1:])]
    if materialize:
        listed = _listing(maxima.tolist(), preds)
        solved = [(len(r), r, low) for r, low in listed]
    else:
        solved = [(_count(m, p), None, None) for m, p in zip(maxima, preds)]
    n, names = fre.frame.granularity, fre.var_names
    shared = [
        dict(
            var_names=names, granularity=n, max_row=m, predecessor_rows=p, count=count,
            solution_rows=rows, minimal_rows=minimal,
        )
        for m, p, (count, rows, minimal) in zip(maxima, preds, solved)
    ]
    cols = [ColumnSolutions._of(w, shared[k]) for w, k in zip(fre.col_names, slot)]
    return SolutionSet(n, names, tuple(cols))


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
