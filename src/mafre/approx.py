"""Repairing unsolvable equations through feasible reducts.

A reduct of the associated context is feasible when the reduced equation is
solvable; each feasible reduct yields a repaired right-hand side that leaves
the reduct's rows untouched.  A repair is computed once, as one numerator
array, and its GranularValue matrix and solution summary are computed from it
when first read.  ``diagnose`` turns the row-by-row deviations into an
incoherence report and keeps the repair of every feasible reduct.  The
pessimistic closure repair (every column replaced by its interior) is
provided for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .context import _values, enumerate_reducts, is_consistent
from .errors import InfeasibleReductError, NotAReductError
from .fre import (
    FreInstance,
    SolutionSet,
    _closures,
    associated_context,
    enumerate_solutions,
    is_solvable,
)


def _require_reduct(fre: FreInstance, Y) -> tuple:
    """Y when it is consistent and no Y - {y} is: a reduct, no list built."""
    Y, ctx = tuple(Y), associated_context(fre)
    wanted = frozenset(Y)
    if not wanted <= set(ctx.attributes) or not is_consistent(ctx, wanted) or any(
        is_consistent(ctx, wanted - {y}) for y in wanted
    ):
        raise NotAReductError(f"{sorted(Y)} is not a reduct of the associated context")
    return Y


def _repair(fre: FreInstance, Y) -> tuple:
    """The rhs repaired through Y as numerators (U x W), and whether the
    Y-reduced instance is solvable.

    The necessity operator of the context restricted to Y is the full one
    applied with top outside Y (top <- x = top), and its possibility operator
    is the full one on the rows of Y.  So every column of the reduced rhs
    goes down and back up through the full context, and the reduced instance
    is solvable iff the rows of Y come back unchanged.  With Y empty the
    reduced instance has no equations: it is solvable, and every column is
    repaired to top^up.
    """
    ctx = associated_context(fre)
    keep = [fre.row_names.index(u) for u in Y]
    T = fre._rhs_array
    F = np.full((T.shape[1], T.shape[0]), fre.frame.granularity, dtype=np.int64)
    F[:, keep] = T[keep].T
    t_star = ctx.possibility_batch(ctx.necessity_batch(F)).T
    return t_star, bool((t_star[keep] == T[keep]).all())


def is_feasible_reduct(fre: FreInstance, Y) -> bool:
    """True when the Y-reduced instance is solvable (Y must be a reduct)."""
    return _repair(fre, _require_reduct(fre, Y))[1]


def find_feasible_reducts(fre: FreInstance):
    """All reducts whose reduced instance is solvable; may be empty."""
    return [Y for Y, result in _repairs(fre) if result is not None]


@dataclass(frozen=True, eq=False)
class ApproximationResult:
    """Outcome of a reduct-based repair: the rhs T* and what changed."""

    reduct: tuple
    modified_rows: dict  # (row, column) -> (old, new)
    t_star_rows: np.ndarray  # (|U|, |W|)
    _instance: FreInstance  # the repaired primal instance
    _materialize: bool

    @cached_property
    def t_star(self) -> tuple:  # matrix over U x W
        return _values(self.t_star_rows, self._instance.frame.granularity)

    @cached_property
    def solution_summary(self) -> SolutionSet:
        return enumerate_solutions(self._instance, materialize=self._materialize)

    def approximated_instance(self, fre):
        """``fre`` with rhs T*; only the rhs changed, so it is built on the
        associated context of ``fre`` (and shares its cached derived data).
        ``fre`` is the primal or dual instance the result was computed for."""
        return fre._with_rhs(self.t_star_rows)


def _result(fre: FreInstance, Y: tuple, repaired: np.ndarray, materialize: bool):
    """The result of the feasible repair ``repaired`` of ``fre`` through Y;
    ``modified_rows`` lists the changed entries row by row."""
    rows, cols = np.nonzero(repaired != fre._rhs_array)
    pairs = np.stack([fre._rhs_array[rows, cols], repaired[rows, cols]])
    changes = zip(rows.tolist(), cols.tolist(), zip(*_values(pairs, fre.frame.granularity)))
    modified = {(fre.row_names[i], fre.col_names[j]): c for i, j, c in changes}
    return ApproximationResult(Y, modified, repaired, fre._with_rhs(repaired), materialize)


def _repairs(fre: FreInstance):
    """``(Y, result)`` for every reduct Y of the associated context, in
    order: ``result`` is the ApproximationResult of Y when Y is feasible,
    else None.  Each reduct is repaired once."""
    for Y in enumerate_reducts(associated_context(fre)):
        repaired, feasible = _repair(fre, Y)
        yield Y, _result(fre, Y, repaired, False) if feasible else None


def approximate_by_reduct(
    fre: FreInstance, Y, *, materialize_solutions: bool = False
) -> ApproximationResult:
    """Repair the rhs through a feasible reduct Y.

    Column w of the repaired term is the restricted-necessity image of the
    reduced rhs pushed back up through the full possibility operator; rows in
    Y keep their original values.
    """
    Y = _require_reduct(fre, Y)
    repaired, feasible = _repair(fre, Y)
    if not feasible:
        raise InfeasibleReductError(f"{sorted(Y)} is not feasible for this instance")
    return _result(fre, Y, repaired, materialize_solutions)


def pessimistic_approximation(fre: FreInstance):
    """Columnwise interior of T: always solvable, never above T."""
    return _values(_closures(fre)[1].T, fre.frame.granularity)


@dataclass(frozen=True)
class DiagnosisReport:
    """Machine- and human-readable account of where an instance is incoherent."""

    solvable: bool
    results: tuple  # ApproximationResult per feasible reduct
    infeasible_reducts: tuple
    notable_threshold: int

    @cached_property
    def feasible(self) -> tuple:
        """Per feasible reduct, its changes as (row, column, old, new, steps,
        severity): notable above ``notable_threshold`` steps, else slight."""
        entries = []
        for r in self.results:
            modified = []
            for (row, col), (old, new) in r.modified_rows.items():
                steps = abs(old.numerator - new.numerator)
                severity = "notable" if steps > self.notable_threshold else "slight"
                modified.append((row, col, old, new, steps, severity))
            entries.append(
                {"reduct": r.reduct, "preserved_rows": r.reduct, "modified": modified}
            )
        return tuple(entries)

    def to_json(self) -> dict:
        return {
            "solvable": self.solvable,
            "notable_threshold": self.notable_threshold,
            "feasible_reducts": [
                {
                    "reduct": list(entry["reduct"]),
                    "preserved_rows": list(entry["preserved_rows"]),
                    "modified": [
                        {
                            "row": row,
                            "column": col,
                            "old": old.numerator,
                            "new": new.numerator,
                            "steps": steps,
                            "severity": severity,
                        }
                        for (row, col, old, new, steps, severity) in entry["modified"]
                    ],
                }
                for entry in self.feasible
            ],
            "infeasible_reducts": [list(Y) for Y in self.infeasible_reducts],
        }

    def render_text(self) -> str:
        if self.solvable:
            return "no incoherence: the instance is solvable as stated"
        lines = []
        if not self.feasible:
            lines.append("no reduct-based repair exists for this instance")
        for entry in self.feasible:
            kept = ", ".join(entry["preserved_rows"])
            kept = f"equations {kept} kept as stated" if kept else "no equations kept"
            lines.append("feasible reduct {%s}: %s" % (", ".join(entry["reduct"]), kept))
            for row, col, old, new, steps, severity in entry["modified"]:
                lines.append(
                    f"  {row}[{col}]: {old} -> {new} ({steps} granular step"
                    f"{'s' if steps != 1 else ''}; {severity})"
                )
        for Y in self.infeasible_reducts:
            lines.append(
                "reduct {%s} is infeasible: the instance stays unsolvable no "
                "matter how the right-hand sides outside it are changed" % ", ".join(Y)
            )
        return "\n".join(lines)


def diagnose(fre: FreInstance, notable_threshold: int = 1) -> DiagnosisReport:
    """Per-reduct deviation report; deviations above the threshold (in
    granular steps) are flagged as notable, the rest as slight."""
    if is_solvable(fre):
        return DiagnosisReport(True, (), (), notable_threshold)
    repairs = list(_repairs(fre))
    results = tuple(result for _, result in repairs if result is not None)
    infeasible = tuple(Y for Y, result in repairs if result is None)
    return DiagnosisReport(False, results, infeasible, notable_threshold)
