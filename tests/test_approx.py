import random

import pytest

from mafre import (
    DualFreInstance,
    FreInstance,
    approximate_by_reduct,
    associated_context,
    brute_force_solutions,
    builtin_frame,
    diagnose,
    dual_approximate,
    enumerate_reducts,
    enumerate_solutions,
    find_feasible_reducts,
    is_feasible_reduct,
    is_solvable,
    max_solution,
    pessimistic_approximation,
    reduce_fre,
    solvability_gap,
    sup_compose,
)
from mafre.errors import DimensionError, InfeasibleReductError, NotAReductError
from conftest import random_solvable_instance


def nums(matrix):
    return [[v.numerator for v in row] for row in matrix]


class TestFeasibility:
    def test_y1_feasible_y2_not(self, squares_unsolvable):
        assert is_feasible_reduct(squares_unsolvable, ("u1", "u2", "u3"))
        assert not is_feasible_reduct(squares_unsolvable, ("u2", "u3", "u4"))

    def test_find_feasible_reducts(self, squares_unsolvable):
        assert find_feasible_reducts(squares_unsolvable) == [("u1", "u2", "u3")]

    def test_non_reduct_rejected(self, squares_unsolvable):
        with pytest.raises(NotAReductError):
            is_feasible_reduct(squares_unsolvable, ("u1", "u2"))
        with pytest.raises(NotAReductError):
            approximate_by_reduct(squares_unsolvable, ("u1", "u2", "u3", "u4"))

    def test_reduct_checked_without_enumerating_reducts(self):
        # a 4 x 4 identity at n = 2 with each row repeated 6 times: 6^4 =
        # 1,296 reducts, more partial reducts than the search keeps; u4
        # repeats u0 with a lower rhs, so the instance is unsolvable
        from mafre.errors import BudgetExceededError

        rows = [f"u{i}" for i in range(24)]
        coeff = [[2 * (i % 4 == v) for v in range(4)] for i in range(24)]
        rhs = [[2]] * 24
        rhs[4] = [1]
        fre = FreInstance(
            builtin_frame(["godel"], 2), rows, ["v0", "v1", "v2", "v3"], ["w"],
            coeff, [0] * 4, rhs,
        )
        with pytest.raises(BudgetExceededError, match="exceeds 1000 partial reducts"):
            enumerate_reducts(associated_context(fre))
        def changes(Y):
            assert is_feasible_reduct(fre, Y)
            result = approximate_by_reduct(fre, Y)
            return {u: (a.numerator, b.numerator) for (u, _), (a, b) in result.modified_rows.items()}

        assert changes(("u0", "u1", "u2", "u3")) == {"u4": (1, 2)}
        assert changes(("u4", "u1", "u2", "u3")) == {
            u: (2, 1) for u in ("u0", "u8", "u12", "u16", "u20")
        }
        for other in (("u0", "u1", "u2"), ("u0", "u1", "u2", "u3", "u4"), ("u0", "u1", "u2", "x")):
            with pytest.raises(NotAReductError):
                is_feasible_reduct(fre, other)
            with pytest.raises(NotAReductError):
                approximate_by_reduct(fre, other)

    def test_infeasible_reduct_refused(self, squares_unsolvable):
        with pytest.raises(InfeasibleReductError):
            approximate_by_reduct(squares_unsolvable, ("u2", "u3", "u4"))

    def test_infeasible_reduct_image_differs(self, squares_unsolvable):
        # the Y2-restricted rhs (7, 3, 5) closes to (7, 3, 4): not a fixpoint
        reduced = reduce_fre(
            squares_unsolvable, ("u2", "u3", "u4"), enforce_consistency=False
        )
        gap = {(u, w): new.numerator for u, w, _, new in solvability_gap(reduced)}
        assert gap == {("u4", "w"): 4}


class TestRepair:
    def test_repaired_rhs(self, squares_unsolvable):
        result = approximate_by_reduct(squares_unsolvable, ("u1", "u2", "u3"))
        assert nums(result.t_star) == [[4], [7], [3], [4], [4]]
        assert result.reduct == ("u1", "u2", "u3")

    def test_reduct_rows_untouched(self, squares_unsolvable):
        result = approximate_by_reduct(squares_unsolvable, ("u1", "u2", "u3"))
        assert all(u not in ("u1", "u2", "u3") for (u, _) in result.modified_rows)
        changes = {u: (old.numerator, new.numerator)
                   for (u, _), (old, new) in result.modified_rows.items()}
        assert changes == {"u4": (5, 4), "u5": (1, 4)}

    def test_repaired_instance_is_solvable(self, squares_unsolvable):
        result = approximate_by_reduct(squares_unsolvable, ("u1", "u2", "u3"))
        approx = result.approximated_instance(squares_unsolvable)
        assert is_solvable(approx)
        top = max_solution(approx)
        assert [row[0].numerator for row in top] == [5, 8, 8, 8, 7]

    def test_repaired_solution_count(self, squares_unsolvable):
        result = approximate_by_reduct(squares_unsolvable, ("u1", "u2", "u3"))
        col = result.solution_summary.column("w")
        assert col.count == 4374
        assert col.max_solution.numerators == (5, 8, 8, 8, 7)

    def test_repaired_minimal_solution(self, squares_unsolvable):
        result = approximate_by_reduct(
            squares_unsolvable, ("u1", "u2", "u3"), materialize_solutions=True
        )
        col = result.solution_summary.column("w")
        assert {x.numerators for x in col.minimal} == {(0, 0, 0, 0, 7)}
        assert len(col.enumerated) == 4374

    def test_repair_agrees_with_restricted_solutions(self, squares_unsolvable):
        # the repaired instance has the same solutions as the reduced one
        result = approximate_by_reduct(
            squares_unsolvable, ("u1", "u2", "u3"), materialize_solutions=True
        )
        approx = result.approximated_instance(squares_unsolvable)
        reduced = reduce_fre(
            squares_unsolvable, ("u1", "u2", "u3"), enforce_consistency=False
        )
        lhs = {x.numerators for x in result.solution_summary.column("w").enumerated}
        rhs = {
            x.numerators
            for x in enumerate_solutions(reduced).column("w").enumerated
        }
        assert lhs == rhs
        assert is_solvable(approx)


class TestPessimistic:
    def test_columnwise_interior(self, squares_unsolvable):
        assert nums(pessimistic_approximation(squares_unsolvable)) == [
            [2], [5], [1], [2], [1]
        ]

    def test_always_solvable_and_below_rhs(self):
        rng = random.Random(13)
        frame = builtin_frame(["sq-left", "godel"], 6)
        n = frame.granularity
        for _ in range(25):
            fre = FreInstance(
                frame,
                [f"u{i}" for i in range(3)],
                [f"v{i}" for i in range(3)],
                ("w",),
                [[rng.randint(0, n) for _ in range(3)] for _ in range(3)],
                [rng.randrange(2) for _ in range(3)],
                [[rng.randint(0, n)] for _ in range(3)],
            )
            t_low = pessimistic_approximation(fre)
            for old_row, new_row in zip(fre.rhs, t_low):
                assert new_row[0] <= old_row[0]
            assert is_solvable(
                FreInstance(
                    frame, fre.row_names, fre.var_names, fre.col_names,
                    fre.coeff, fre.sigma, t_low,
                )
            )

    def test_fixpoint_on_solvable(self, squares_solvable):
        assert pessimistic_approximation(squares_solvable) == squares_solvable.rhs


class TestDiagnose:
    def test_solvable_report(self, squares_solvable):
        report = diagnose(squares_solvable)
        assert report.solvable
        assert "solvable as stated" in report.render_text()

    def test_unsolvable_report_contents(self, squares_unsolvable):
        report = diagnose(squares_unsolvable)
        assert not report.solvable
        assert report.infeasible_reducts == (("u2", "u3", "u4"),)
        (entry,) = report.feasible
        assert entry["reduct"] == ("u1", "u2", "u3")
        severities = {row: sev for row, _, _, _, _, sev in entry["modified"]}
        assert severities == {"u4": "slight", "u5": "notable"}

    def test_feasible_entries_built_once(self, squares_unsolvable):
        report = diagnose(squares_unsolvable)
        assert report.feasible is report.feasible
        report.render_text()
        assert report.to_json()["feasible_reducts"][0]["reduct"] == ["u1", "u2", "u3"]

    def test_threshold_moves_severity(self, squares_unsolvable):
        report = diagnose(squares_unsolvable, notable_threshold=3)
        (entry,) = report.feasible
        severities = {row: sev for row, _, _, _, _, sev in entry["modified"]}
        assert severities == {"u4": "slight", "u5": "slight"}

    def test_repair_after_diagnose_reuses_the_analysis(
        self, squares_unsolvable, monkeypatch
    ):
        # the repaired instance shares the context (lattice, reducts) of fre
        from mafre import approx as approx_mod
        from mafre import context as context_mod

        s = squares_unsolvable
        fre = FreInstance(
            s.frame, s.row_names, s.var_names, s.col_names, s.coeff, s.sigma, s.rhs
        )
        report = diagnose(fre)
        families = associated_context(fre)._families
        assert families is not None
        built, checked, read = [], [], []
        closure, consistent = context_mod._meet_closure, approx_mod.is_consistent
        _families = context_mod._families
        monkeypatch.setattr(
            context_mod, "_meet_closure", lambda *a: built.append(a) or closure(*a)
        )
        # approx binds is_consistent by name: the checks of _require_reduct
        monkeypatch.setattr(
            approx_mod,
            "is_consistent",
            lambda *a, **k: checked.append(a) or consistent(*a, **k),
        )
        monkeypatch.setattr(
            context_mod, "_families", lambda *a: read.append(_families(*a)) or read[-1]
        )
        for entry in report.feasible:
            result = approximate_by_reduct(fre, entry["reduct"])
            assert is_feasible_reduct(fre, entry["reduct"])
            repaired = result.approximated_instance(fre)
            assert associated_context(repaired) is associated_context(fre)
        # each call checks Y and every Y - {y}; no lattice is built and every
        # check reads the families cached by the diagnosis
        assert report.feasible and built == []
        assert len(checked) == 2 * sum(len(e["reduct"]) + 1 for e in report.feasible)
        assert len(read) == len(checked) and all(f is families for f in read)
        with pytest.raises(NotAReductError):
            is_feasible_reduct(fre, ("u1", "u2"))

    def test_render_and_json(self, squares_unsolvable):
        import json

        report = diagnose(squares_unsolvable)
        text = report.render_text()
        assert "u5[w]: 1/8 -> 4/8 (3 granular steps; notable)" in text
        assert "infeasible" in text
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["solvable"] is False
        assert payload["infeasible_reducts"] == [["u2", "u3", "u4"]]


def corrupted_instances(count, seed=77):
    """Unsolvable instances that still admit a feasible reduct.

    Start from a solvable system whose first two rows coincide (so a proper
    reduct Y excluding the duplicate exists), then bump a rhs entry of the
    duplicated row until the full system becomes unsolvable.
    """
    rng = random.Random(seed)
    frames = [
        builtin_frame(["godel"], 4),
        builtin_frame(["sq-left", "sq-right"], 4),
        builtin_frame(["sq-right", "godel"], 5),
    ]
    made = 0
    while made < count:
        frame = frames[made % len(frames)]
        n = frame.granularity
        n_vars = rng.randint(2, 3)
        base = random_solvable_instance(rng, frame, 3, n_vars)
        coeff = list(base.coeff)
        coeff[0] = coeff[1]
        rhs = sup_compose(
            frame,
            coeff,
            [[frame.value(rng.randint(0, n))] for _ in range(n_vars)],
            base.sigma,
        )
        # push row u0 away from row u1 so the duplicated pair disagrees
        k = rhs[1][0].numerator
        bumped = k + 1 if k < n else k - 1
        rhs = [[frame.value(bumped)], *rhs[1:]]
        fre = FreInstance(
            frame, base.row_names, base.var_names, base.col_names,
            coeff, base.sigma, rhs,
        )
        if is_solvable(fre):
            continue
        made += 1
        yield fre


class TestEmptyReduct:
    """All-zero coefficients: the lattice is {top}, so the empty set is the
    only reduct and its reduced instance has no equations."""

    def instance(self, rhs):
        frame = builtin_frame(["godel", "sq-left"], 4)
        return FreInstance(
            frame, ("u1", "u2"), ("v1", "v2", "v3"), ("w1", "w2"),
            [[0, 0, 0], [0, 0, 0]], (0, 1, 0), rhs,
        )

    def test_solvable(self):
        fre = self.instance([[0, 0], [0, 0]])
        assert enumerate_reducts(associated_context(fre)) == [()]
        assert diagnose(fre).solvable
        assert find_feasible_reducts(fre) == [()] and is_feasible_reduct(fre, ())
        reduced = reduce_fre(fre, ())
        assert reduced.row_names == () and is_solvable(reduced)
        for full, kept in zip(
            enumerate_solutions(fre).columns, enumerate_solutions(reduced).columns
        ):
            assert full.count == kept.count == 5**3
            assert full.max_row.tolist() == kept.max_row.tolist() == [4, 4, 4]

    def test_unsolvable_repaired_through_the_empty_reduct(self):
        fre = self.instance([[0, 3], [2, 0]])
        assert not is_solvable(fre)
        assert find_feasible_reducts(fre) == [()] and is_feasible_reduct(fre, ())
        result = approximate_by_reduct(fre, ())
        # every column is top^up, which is 0 when every coefficient is 0
        assert nums(result.t_star) == [[0, 0], [0, 0]]
        assert result.reduct == ()
        assert sorted(result.modified_rows) == [("u1", "w2"), ("u2", "w1")]
        assert [c.count for c in result.solution_summary.columns] == [125, 125]
        report = diagnose(fre)
        (entry,) = report.feasible
        assert entry["reduct"] == () and report.infeasible_reducts == ()
        lines = report.render_text().splitlines()
        assert lines[0] == "feasible reduct {}: no equations kept"
        assert report.to_json()["feasible_reducts"][0]["reduct"] == []

    def test_empty_reduction_refused_on_a_proper_lattice(self, squares_unsolvable):
        for enforce in (True, False):
            with pytest.raises(DimensionError):
                reduce_fre(squares_unsolvable, (), enforce_consistency=enforce)
        with pytest.raises(NotAReductError):
            approximate_by_reduct(squares_unsolvable, ())


class TestRandomRepairs:
    N_INSTANCES = 55

    def test_constructed_unsolvable_instances(self):
        repaired = 0
        for fre in corrupted_instances(self.N_INSTANCES):
            assert not is_solvable(fre)
            feasible = find_feasible_reducts(fre)
            for Y in feasible:
                result = approximate_by_reduct(fre, Y)
                approx = result.approximated_instance(fre)
                # repaired system is solvable and keeps Y's rows verbatim
                assert is_solvable(approx)
                kept = set(Y)
                for i, u in enumerate(fre.row_names):
                    if u in kept:
                        assert approx.rhs[i] == fre.rhs[i]
                # its solutions solve the reduced system exactly
                expected = {
                    tuple(tuple(v.numerator for v in row) for row in m)
                    for m in brute_force_solutions(
                        reduce_fre(fre, Y, enforce_consistency=False)
                    )
                }
                got = {
                    tuple(tuple(v.numerator for v in row) for row in m)
                    for m in brute_force_solutions(approx)
                }
                assert got == expected
                repaired += 1
        assert repaired >= self.N_INSTANCES // 2

    def test_diagnose_consistent_with_feasibility(self):
        for fre in corrupted_instances(20, seed=123):
            report = diagnose(fre)
            feasible = {tuple(e["reduct"]) for e in report.feasible}
            assert feasible == set(find_feasible_reducts(fre))
            # a repair is an interior fixpoint, so it changes T somewhere
            assert all(e["modified"] for e in report.feasible)
            for Y in report.infeasible_reducts:
                assert not is_solvable(reduce_fre(fre, Y, enforce_consistency=False))


class TestRepairComputedOnce:
    """A repair is one numerator array; its GranularValue matrix and its
    solution summary are read from it later and equal a direct computation."""

    def test_both_orientations(self):
        repairs = 0
        for fre in corrupted_instances(15, seed=909):
            # the dual instance whose transposed primal has the arrays of fre
            dfre = DualFreInstance(
                fre.frame.opposite(), fre.col_names, fre.var_names, fre.row_names,
                fre._coeff_array.T.tolist(), fre.sigma, fre._rhs_array.T.tolist(),
            )
            for p in (fre, dfre.transposed()):
                report = diagnose(p)
                assert [r.reduct for r in report.results] == [
                    e["reduct"] for e in report.feasible
                ]
                for Y in find_feasible_reducts(p):
                    for materialize in (False, True):
                        result = approximate_by_reduct(p, Y, materialize_solutions=materialize)
                        direct = enumerate_solutions(
                            result.approximated_instance(p), materialize=materialize
                        )
                        assert result.solution_summary.to_json() == direct.to_json()
                    repairs += 1
            for Y in find_feasible_reducts(dfre.transposed()):
                primal = approximate_by_reduct(dfre.transposed(), Y)
                dual = dual_approximate(dfre, Y)
                assert dual.t_star == tuple(zip(*primal.t_star))
                assert dual.modified_rows == {
                    (u, w): change for (w, u), change in primal.modified_rows.items()
                }
        assert repairs >= 15
