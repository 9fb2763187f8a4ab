"""Dual equations X (.) S = T: the unknown sits on the left of the composition.

A dual system is the primal system S^T (.)op X^T = T^T, in which every
adjoint triple is replaced by its opposite (conj table transposed, residua
swapped).  The dual context (V, W, S, sigma) is therefore the primal context
(W, V, S^T, sigma) over the opposite triples, and its connection reads

    t(w) = sup_v h(v) & S(v, w)        (variable side -> column side)
    h(v) = inf_w t(w) <-(left) S(v, w) (column side -> variable side)

Rows of the unknown are the rhs columns of the transposed primal, reduction
removes columns (elements of W, the attributes of the transposed context) and
the variable-side fixpoints are its extents.  A dual instance is its frame
plus that transposed primal, built once when the instance is constructed;
a reduced one slices the primal's checked arrays and is not checked again,
and a repair is the primal one with its array transposed.
The opposite frame is not verified again: the opposite triple's adjunction
test at (x, y, z) is the original's at (y, x, z).

A ``DualContext`` is a primal ``Context``, so ``possibility`` (h to t) and
``necessity`` (t to h) take it as it is; so do ``build_concept_lattice``,
whose extents are the variable-side fixpoints, and ``restrict``,
``is_consistent`` and ``enumerate_reducts``, on sets of columns.  This module
keeps what transposes something, plus ``dual_compose``, ``dual_is_solution``
and ``dual_brute_force``: independent of the primal solver, they are the
oracles that check the transposition.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from itertools import product
from operator import attrgetter
from typing import Iterable

import numpy as np

from .algebra import Frame
from .approx import ApproximationResult, approximate_by_reduct
from .context import (
    Context,
    FuzzySet,
    _context_names,
    _conj_tables,
    _grid,
    _matrix,
    _names,
    _nested,
    _restrict,
    _sigma,
    _values,
    is_consistent,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    InconsistentSetError,
    UnsolvableError,
)
from .fre import (
    FreInstance,
    SolutionSet,
    associated_context,
    enumerate_solutions,
    is_solvable,
    max_solution,
    solvability_gap,
)


class DualContext(Context):
    """The context (V, W, S, sigma) of a dual equation, sigma per variable.

    It is the primal context with attributes W, objects V and relation S^T
    over the opposite triples (``frame`` is the opposite frame): its objects
    are the variables and its attributes the columns.  The primal context
    functions take it: ``possibility`` and ``necessity`` are the dual
    connection, the lattice extents are the variable-side fixpoints, and
    ``restrict``, ``is_consistent`` and ``enumerate_reducts`` work on columns.
    """

    def __init__(self, frame: Frame, variables, columns, relation, sigma):
        variables, columns, sigma = tuple(variables), tuple(columns), tuple(sigma)
        S = _matrix(relation, len(variables), len(columns), "relation", frame.granularity)
        if len(sigma) != len(variables) or _nested(sigma):
            raise DimensionError("sigma must assign one triple per variable")
        columns, variables = _context_names(columns, variables)
        # S is checked: its transpose is the relation, with no second check
        SIG = _sigma(sigma, len(columns), len(variables), frame)
        self._build(frame.opposite(), columns, variables, S.T, SIG)


def _known_columns(ctx: DualContext, Y: Iterable) -> tuple:
    Y = tuple(Y)
    unknown = set(Y) - set(ctx.attributes)
    if unknown:
        raise DimensionError(f"unknown columns: {sorted(unknown)}")
    return Y


class DualFreInstance:
    """X (.) S = T with S over V x W, T over U x W and X over U x V unknown.

    A dual instance is its frame plus its transposed primal S^T (.)op X^T =
    T^T, built once here over the dual context: names, ``sigma`` and arrays
    are read from that primal, whose rows are W and rhs columns are U.
    """

    def __init__(self, frame: Frame, row_names, var_names, col_names, coeff, sigma, rhs):
        row_names, var_names = _names(row_names, "rows"), tuple(var_names)
        # no columns is the reduced instance of the empty reduct
        if not row_names or not var_names:
            raise DimensionError("row and variable sets must be non-empty")
        sigma = tuple(sigma)
        ctx = DualContext(frame, var_names, col_names, coeff, sigma)
        rhs = _matrix(rhs, len(row_names), len(ctx.attributes), "rhs", frame.granularity)
        self.frame = frame
        self._primal = FreInstance._on(ctx, sigma, row_names, rhs.T)

    @classmethod
    def _on(cls, frame: Frame, primal: FreInstance) -> "DualFreInstance":
        """The dual instance over ``frame`` whose transposed primal is ``primal``."""
        dfre = cls.__new__(cls)
        dfre.frame, dfre._primal = frame, primal
        return dfre

    def _with_rhs(self, rhs: np.ndarray) -> "DualFreInstance":
        """This instance with the checked rhs array ``rhs`` (U x W)."""
        return DualFreInstance._on(self.frame, self._primal._with_rhs(rhs.T))

    row_names = property(attrgetter("_primal.col_names"))
    var_names = property(attrgetter("_primal.var_names"))
    col_names = property(attrgetter("_primal.row_names"))
    sigma = property(attrgetter("_primal.sigma"))
    _coeff_array = property(attrgetter("_primal._coeff_array.T"))
    _rhs_array = property(attrgetter("_primal._rhs_array.T"))

    @cached_property
    def coeff(self) -> tuple:
        return _values(self._coeff_array, self.frame.granularity)

    @cached_property
    def rhs(self) -> tuple:
        return _values(self._rhs_array, self.frame.granularity)

    def rhs_row(self, u) -> FuzzySet:
        return self._primal.rhs_column(u)

    def transposed(self) -> FreInstance:
        """The primal system S^T (.)op X^T = T^T: its rows are the columns W
        and its rhs columns are the rows U, and its context is the dual one."""
        return self._primal


def dual_compose(frame: Frame, X, S, sigma):
    """T(u, w) = sup_v X(u, v) & S(v, w)."""
    X = tuple(tuple(r) for r in X)
    S = tuple(tuple(r) for r in S)
    if not X or any(len(r) != len(S) for r in X):
        raise DimensionError("inner dimensions of X and S do not match")
    triples = [frame.triples[i] for i in sigma]
    if len(triples) != len(S):
        raise DimensionError("sigma must assign one triple per variable")
    out = []
    for x_row in X:
        out_row = []
        for w in range(len(S[0])):
            acc = None
            for v, t in enumerate(triples):
                term = t.conj(x_row[v], S[v][w])
                acc = term if acc is None else acc.join(term)
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def dual_is_solution(dfre: DualFreInstance, X) -> bool:
    n = dfre.frame.granularity
    X = _values(_matrix(X, len(dfre.row_names), len(dfre.var_names), "X", n), n)
    return dual_compose(dfre.frame, X, dfre.coeff, dfre.sigma) == dfre.rhs


def _dual_unsolvable(exc: UnsolvableError, message: str) -> UnsolvableError:
    """``exc`` of the transposed primal, read as one of the dual instance:
    the primal's rows are the dual columns and its columns the dual rows."""
    cols, rows, stated, closed = exc._gap
    return UnsolvableError._of(message, (rows, cols, stated, closed), exc.granularity)


def dual_solvability_gap(dfre: DualFreInstance):
    """Entries (u, w, stated, closed) where T differs from its closure."""
    return [(u, w, old, new) for w, u, old, new in solvability_gap(dfre.transposed())]


def dual_is_solvable(dfre: DualFreInstance) -> bool:
    return is_solvable(dfre.transposed())


def dual_max_solution(dfre: DualFreInstance):
    """Greatest solution; row u is the necessity image of rhs row u."""
    try:
        return tuple(zip(*max_solution(dfre.transposed())))
    except UnsolvableError as exc:
        raise _dual_unsolvable(
            exc, "dual instance is unsolvable; rhs differs from its closure"
        ) from None


def dual_solutions(dfre: DualFreInstance, materialize: bool = True) -> SolutionSet:
    """Per-row solution sets: those of the rhs columns of the transposed primal."""
    try:
        return enumerate_solutions(dfre.transposed(), materialize=materialize)
    except UnsolvableError as exc:
        raise _dual_unsolvable(exc, "cannot enumerate an unsolvable dual instance") from None


def dual_brute_force(dfre: DualFreInstance, budget: int = 10_000_000):
    """Independent oracle: every X with X (.) S = T, by exhaustive search.

    Every candidate row x over V is composed with S by conj-table lookups in
    numpy, swept in chunks of the candidate grid; only the matches become
    GranularValues.  It uses neither the transposed primal nor the lattice.
    """
    n = dfre.frame.granularity
    nu, nv = len(dfre.row_names), len(dfre.var_names)
    if (n + 1) ** (nu * nv) > budget:
        raise BudgetExceededError(
            f"({n + 1})^{nu * nv} candidates exceed budget {budget}"
        )
    conj = _conj_tables(dfre.frame)[list(dfre.sigma)]  # [v, x(v), S(v, w)]
    S, T = dfre._coeff_array, dfre._rhs_array
    matches = [[] for _ in range(nu)]
    for X in _grid(n, nv):
        image = np.zeros((len(X), len(dfre.col_names)), dtype=np.int64)
        for v in range(nv):
            np.maximum(image, conj[v][X[:, v, None], S[None, v, :]], out=image)
        for i in range(nu):
            matches[i].append(X[(image == T[i]).all(axis=1)])
    per_row = [_values(np.concatenate(rows), n) for rows in matches]
    return [tuple(combo) for combo in product(*per_row)]


def dual_reduce(
    dfre: DualFreInstance, Y: Iterable, enforce_consistency: bool = True
) -> DualFreInstance:
    """Columns of S and T limited to Y.

    Y may be empty only when the empty set is consistent (the lattice is
    {top}); the result then has no columns.
    """
    ctx = associated_context(dfre.transposed())
    Y = set(_known_columns(ctx, Y))
    if not Y and not is_consistent(ctx, ()):
        raise DimensionError("cannot reduce to an empty column set")
    if enforce_consistency and not is_consistent(ctx, Y):
        raise InconsistentSetError(
            f"{sorted(Y)} is not a consistent column set (override with "
            "enforce_consistency=False)"
        )
    keep = [j for j, w in enumerate(dfre.col_names) if w in Y]
    primal = dfre.transposed()
    reduced = FreInstance._on(
        _restrict(ctx, keep), primal.sigma, primal.col_names, primal._rhs_array[keep]
    )
    return DualFreInstance._on(dfre.frame, reduced)


def _dual_result(result: ApproximationResult) -> ApproximationResult:
    """A repair of the transposed primal, read as one of the dual instance:
    T* transposed to U x W and the changed entries keyed (row, column)."""
    return replace(
        result,
        t_star_rows=result.t_star_rows.T,
        modified_rows={(u, w): v for (w, u), v in result.modified_rows.items()},
    )


def dual_approximate(dfre: DualFreInstance, Y) -> ApproximationResult:
    """Repair the rhs through a feasible column reduct Y.

    Every row of the repaired term is the restricted-necessity image of the
    reduced rhs row pushed back through the full dual possibility operator;
    columns in Y keep their original values.
    """
    return _dual_result(approximate_by_reduct(dfre.transposed(), Y))
