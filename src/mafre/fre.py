"""Fuzzy relation equations R (.) X = T with sup-composition.

Solvability, maximum solution and the complete solution set all come from the
property-oriented concept lattice of the associated context; a brute-force
enumerator is kept alongside as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

import numpy as np

from .algebra import Frame, GranularValue
from .context import (
    Context,
    FuzzySet,
    _check_matrix,
    build_concept_lattice,
    is_consistent,
    necessity,
    possibility,
)
from .errors import (
    BudgetExceededError,
    DimensionError,
    InconsistentSetError,
    RangeError,
    UnsolvableError,
)


class FreInstance:
    """R (.) X = T over U x V with per-unknown triple assignment.

    ``coeff[u][v]`` is R(u, v), ``rhs[u][w]`` is T(u, w) and ``sigma[v]`` is
    the 0-based triple index used by unknown v.
    """

    def __init__(self, frame: Frame, row_names, var_names, col_names, coeff, sigma, rhs):
        self.frame = frame
        self.row_names = tuple(row_names)
        self.var_names = tuple(var_names)
        self.col_names = tuple(col_names)
        if not self.row_names or not self.var_names or not self.col_names:
            raise DimensionError("row, variable and column sets must be non-empty")
        n = frame.granularity
        self.coeff = _check_matrix(coeff, len(self.row_names), len(self.var_names), n, "coeff")
        self.rhs = _check_matrix(rhs, len(self.row_names), len(self.col_names), n, "rhs")
        self.sigma = tuple(sigma)
        if len(self.sigma) != len(self.var_names):
            raise DimensionError("sigma must assign one triple per unknown")
        for i in self.sigma:
            if not 0 <= i < len(frame.triples):
                raise RangeError(f"sigma index {i} outside triple list")
        self._context = None

    @classmethod
    def from_numerators(cls, frame, row_names, var_names, col_names, coeff, sigma, rhs):
        n = frame.granularity
        mk = lambda rows: [[GranularValue(int(k), n) for k in row] for row in rows]
        return cls(frame, row_names, var_names, col_names, mk(coeff), sigma, mk(rhs))

    def rhs_column(self, w) -> FuzzySet:
        if w not in self.col_names:
            raise KeyError(w)
        j = self.col_names.index(w)
        return FuzzySet(self.row_names, tuple(row[j] for row in self.rhs))

    def __repr__(self):
        return (
            f"FreInstance({len(self.row_names)}x{len(self.var_names)}, "
            f"|W|={len(self.col_names)}, n={self.frame.granularity})"
        )


def associated_context(fre: FreInstance) -> Context:
    """The context (U, V, R, sigma) with the per-unknown sigma replicated."""
    if fre._context is None:
        fre._context = Context(
            fre.frame, fre.row_names, fre.var_names, fre.coeff, fre.sigma
        )
    return fre._context


def sup_compose(frame: Frame, R, X, sigma):
    """T(u, w) = sup_v R(u, v) & X(v, w)."""
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
    X = _check_matrix(
        X, len(fre.var_names), len(fre.col_names), fre.frame.granularity, "X"
    )
    return sup_compose(fre.frame, fre.coeff, X, fre.sigma) == fre.rhs


def solvability_gap(fre: FreInstance):
    """Entries (u, w, stated, closed) where T differs from its interior."""
    ctx = associated_context(fre)
    gap = []
    for w in fre.col_names:
        t = fre.rhs_column(w)
        closed = possibility(necessity(t, ctx), ctx)
        for u, old, new in zip(fre.row_names, t.values, closed.values):
            if old != new:
                gap.append((u, w, old, new))
    return gap


def is_solvable(fre: FreInstance) -> bool:
    """True iff every rhs column is a fixpoint of the interior operator."""
    return not solvability_gap(fre)


def max_solution(fre: FreInstance):
    """The greatest solution, column w given by T_w^down."""
    gap = solvability_gap(fre)
    if gap:
        raise UnsolvableError(
            "instance is unsolvable; rhs differs from its interior", gap=gap
        )
    return inf_compose(fre.frame, fre.rhs, fre.coeff, fre.sigma)


@dataclass(frozen=True)
class ColumnSolutions:
    """Complete solution description for one rhs column."""

    column: object
    max_solution: FuzzySet
    excluded_predecessors: tuple
    enumerated: Optional[tuple] = None
    count: Optional[int] = None
    minimal: Optional[tuple] = None

    def to_json(self):
        data = {
            "column": self.column,
            "max_solution": list(self.max_solution.numerators),
            "excluded_predecessors": [list(p.numerators) for p in self.excluded_predecessors],
            "count": self.count,
        }
        if self.enumerated is not None:
            data["solutions"] = [list(x.numerators) for x in self.enumerated]
            data["minimal"] = [list(x.numerators) for x in self.minimal]
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

    def to_json(self):
        return {
            "granularity": self.granularity,
            "variables": list(self.var_names),
            "columns": [c.to_json() for c in self.columns],
        }


def _box_and_filter(max_nums, pred_rows):
    """All numerator vectors below ``max_nums`` not below any predecessor."""
    axes = [np.arange(m + 1, dtype=np.int64) for m in max_nums]
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(max_nums))
    if pred_rows:
        P = np.array(pred_rows, dtype=np.int64)
        dominated = (box[:, None, :] <= P[None, :, :]).all(axis=2).any(axis=1)
        box = box[~dominated]
    return box


def _minimal_rows(rows: np.ndarray) -> np.ndarray:
    leq = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
    np.fill_diagonal(leq, False)
    # a row is minimal when no other row lies strictly below it
    return rows[~leq.any(axis=0)]


def enumerate_solutions(fre: FreInstance, materialize: bool = True) -> SolutionSet:
    """The whole solution set: maximum plus excluded predecessor down-sets.

    With ``materialize`` the box below the maximum is swept explicitly and the
    solutions (with their minimal elements) are listed; otherwise only the
    count is produced.
    """
    gap = solvability_gap(fre)
    if gap:
        raise UnsolvableError("cannot enumerate an unsolvable instance", gap=gap)
    ctx = associated_context(fre)
    lat = build_concept_lattice(ctx)
    n = fre.frame.granularity
    cols = []
    for w in fre.col_names:
        m = necessity(fre.rhs_column(w), ctx)
        preds = lat.predecessors_of(m)
        box = _box_and_filter(m.numerators, [p.numerators for p in preds])
        enumerated = minimal = None
        if materialize:
            enumerated = tuple(
                FuzzySet.from_numerators(fre.var_names, row, n) for row in box
            )
            minimal = tuple(
                FuzzySet.from_numerators(fre.var_names, row, n)
                for row in _minimal_rows(box)
            )
        cols.append(
            ColumnSolutions(
                column=w,
                max_solution=FuzzySet(fre.var_names, m.values),
                excluded_predecessors=tuple(FuzzySet(fre.var_names, p.values) for p in preds),
                enumerated=enumerated,
                count=int(box.shape[0]),
                minimal=minimal,
            )
        )
    return SolutionSet(n, fre.var_names, tuple(cols))


def brute_force_solutions(fre: FreInstance, budget: int = 10_000_000):
    """Independent oracle: every X with R (.) X = T, by exhaustive search."""
    n = fre.frame.granularity
    nv, nw = len(fre.var_names), len(fre.col_names)
    if (n + 1) ** (nv * nw) > budget:
        raise BudgetExceededError(
            f"({n + 1})^{nv * nw} candidates exceed budget {budget}"
        )
    per_column = []
    values = [fre.frame.value(k) for k in range(n + 1)]
    for j in range(nw):
        target = tuple(row[j] for row in fre.rhs)
        sols = []
        for cand in product(values, repeat=nv):
            col = tuple((x,) for x in cand)
            result = sup_compose(fre.frame, fre.coeff, col, fre.sigma)
            if tuple(r[0] for r in result) == target:
                sols.append(cand)
        per_column.append(sols)
    matrices = []
    for combo in product(*per_column):
        matrices.append(
            tuple(tuple(combo[j][v] for j in range(nw)) for v in range(nv))
        )
    return matrices


def reduce_fre(fre: FreInstance, Y: Iterable, enforce_consistency: bool = True) -> FreInstance:
    """The Y-reduced instance: rows of R and T limited to Y.

    By default Y must be a consistent set of the associated context, which
    guarantees the solution set of a solvable instance is preserved; pass
    ``enforce_consistency=False`` to reduce anyway.
    """
    wanted = set(Y)
    unknown = wanted - set(fre.row_names)
    if unknown:
        raise DimensionError(f"unknown rows: {sorted(unknown)}")
    keep = [i for i, u in enumerate(fre.row_names) if u in wanted]
    if not keep:
        raise DimensionError("cannot reduce to an empty row set")
    if enforce_consistency and not is_consistent(associated_context(fre), tuple(wanted)):
        raise InconsistentSetError(
            f"{sorted(wanted)} is not a consistent set; reduction would lose "
            "information (override with enforce_consistency=False)"
        )
    return FreInstance(
        fre.frame,
        [fre.row_names[i] for i in keep],
        fre.var_names,
        fre.col_names,
        [fre.coeff[i] for i in keep],
        fre.sigma,
        [fre.rhs[i] for i in keep],
    )
