import json
import random
from collections import deque
from itertools import product

import numpy as np
import pytest

from mafre import (
    DualContext,
    DualFreInstance,
    associated_context,
    build_concept_lattice,
    builtin_frame,
    dual_approximate,
    dual_brute_force,
    dual_is_solvable,
    dual_max_solution,
    dual_reduce,
    dual_solutions,
    enumerate_reducts,
    find_feasible_reducts,
    is_consistent,
    necessity,
    possibility,
    restrict,
)
from mafre.context import FuzzySet
from mafre.dual import (
    dual_compose,
    dual_is_solution,
    dual_solvability_gap,
)
from mafre.errors import (
    DimensionError,
    InconsistentSetError,
    IndexMismatchError,
    InfeasibleReductError,
    NotAReductError,
    UnsolvableError,
)
from mafre.io import parse_problem
from test_cli_golden import EXAMPLES, transpose


def random_dual_solvable(rng, frame, n_rows, n_vars, n_cols):
    """S and X at random; T defined as their composition, hence solvable."""
    n = frame.granularity
    coeff = [
        [frame.value(rng.randint(0, n)) for _ in range(n_cols)]
        for _ in range(n_vars)
    ]
    sigma = [rng.randrange(len(frame.triples)) for _ in range(n_vars)]
    x = [
        [frame.value(rng.randint(0, n)) for _ in range(n_vars)]
        for _ in range(n_rows)
    ]
    rhs = dual_compose(frame, x, coeff, sigma)
    return DualFreInstance(
        frame,
        [f"u{i}" for i in range(n_rows)],
        [f"v{i}" for i in range(n_vars)],
        [f"w{i}" for i in range(n_cols)],
        coeff,
        sigma,
        rhs,
    )


def random_dual_instance(rng, frame, n_rows, n_vars, n_cols):
    n = frame.granularity
    return DualFreInstance(
        frame,
        [f"u{i}" for i in range(n_rows)],
        [f"v{i}" for i in range(n_vars)],
        [f"w{i}" for i in range(n_cols)],
        [[rng.randint(0, n) for _ in range(n_cols)] for _ in range(n_vars)],
        [rng.randrange(len(frame.triples)) for _ in range(n_vars)],
        [[rng.randint(0, n) for _ in range(n_cols)] for _ in range(n_rows)],
    )


class TestDualOperators:
    def test_possibility_necessity_galois(self):
        rng = random.Random(5)
        frame = builtin_frame(["sq-left", "sq-right"], 5)
        for _ in range(60):
            ctx = DualContext(
                frame,
                ("v0", "v1", "v2"),
                ("w0", "w1"),
                [[frame.value(rng.randint(0, 5)) for _ in range(2)] for _ in range(3)],
                [rng.randrange(2) for _ in range(3)],
            )
            h = FuzzySet.from_numerators(
                ctx.objects, [rng.randint(0, 5) for _ in range(3)], 5
            )
            t = FuzzySet.from_numerators(
                ctx.attributes, [rng.randint(0, 5) for _ in range(2)], 5
            )
            # h <= t^nec  iff  h^pos <= t
            assert h.leq(necessity(t, ctx)) == possibility(h, ctx).leq(t)

    def test_possibility_is_composition_row(self):
        rng = random.Random(9)
        frame = builtin_frame(["godel", "sq-left"], 4)
        for _ in range(20):
            dfre = random_dual_solvable(rng, frame, 1, 3, 2)
            ctx = associated_context(dfre.transposed())
            h = FuzzySet.from_numerators(
                dfre.var_names, [rng.randint(0, 4) for _ in range(3)], 4
            )
            direct = dual_compose(
                frame, ([v for v in h.values],), dfre.coeff, dfre.sigma
            )[0]
            assert possibility(h, ctx).values == direct

    def test_necessity_is_its_definition(self):
        # h(v) = inf_w t(w) <-(left) S(v, w), from the original triples'
        # left residua on the untransposed S
        rng = random.Random(11)
        for n in (1, 3, 5):
            frame = builtin_frame(["sq-left", "sq-right", "godel"], n)
            for _ in range(20):
                nv, nw = rng.randint(1, 4), rng.randint(1, 3)
                S = [[rng.randint(0, n) for _ in range(nw)] for _ in range(nv)]
                sigma = [rng.randrange(3) for _ in range(nv)]
                ctx = DualContext(
                    frame, [f"v{i}" for i in range(nv)], [f"w{j}" for j in range(nw)], S, sigma
                )
                t = FuzzySet.from_numerators(ctx.attributes, [rng.randint(0, n) for _ in range(nw)], n)
                expected = [
                    min(
                        frame.triples[sigma[v]].left_residuum_table[t.numerators[w]][S[v][w]]
                        for w in range(nw)
                    )
                    for v in range(nv)
                ]
                assert necessity(t, ctx).numerators == tuple(expected)

    def test_index_checks(self):
        frame = builtin_frame(["godel"], 4)
        ctx = DualContext(frame, ("v0",), ("w0",), [[frame.value(2)]], [0])
        with pytest.raises(IndexMismatchError):
            possibility(FuzzySet.from_numerators(("x",), (1,), 4), ctx)
        with pytest.raises(IndexMismatchError):
            necessity(FuzzySet.from_numerators(("x",), (1,), 4), ctx)


class TestDualSolving:
    N_TOYS = 55

    def test_random_toys_match_brute_force(self):
        rng = random.Random(303)
        frames = [
            builtin_frame(["sq-left", "sq-right"], 3),
            builtin_frame(["godel", "sq-right"], 4),
            builtin_frame(["sq-left"], 5),
        ]
        solvable_seen = 0
        for i in range(self.N_TOYS):
            frame = frames[i % len(frames)]
            # mix guaranteed-solvable with arbitrary instances
            if i % 2:
                dfre = random_dual_solvable(rng, frame, 2, 2, 2)
            else:
                dfre = random_dual_instance(rng, frame, 2, 2, 2)
            expected = {
                tuple(tuple(v.numerator for v in row) for row in m)
                for m in dual_brute_force(dfre)
            }
            if not dual_is_solvable(dfre):
                assert expected == set()
                with pytest.raises(UnsolvableError):
                    dual_solutions(dfre)
                continue
            solvable_seen += 1
            sols = dual_solutions(dfre)
            from itertools import product

            per_row = [
                [x.numerators for x in sols.column(u).enumerated]
                for u in dfre.row_names
            ]
            got = {tuple(combo) for combo in product(*per_row)}
            assert got == expected, (dfre.coeff, dfre.sigma, dfre.rhs)
        assert solvable_seen >= self.N_TOYS // 3

    def test_solutions_build_no_lattice(self, monkeypatch):
        from mafre import context as context_mod

        built = []
        lattice = context_mod.ConceptLattice
        monkeypatch.setattr(
            context_mod, "ConceptLattice", lambda *a: built.append(a) or lattice(*a)
        )
        rng = random.Random(47)
        frame = builtin_frame(["godel", "sq-left", "sq-right"], 4)
        for materialize in (True, False):
            dfre = random_dual_solvable(rng, frame, 2, 3, 3)
            sols = dual_solutions(dfre, materialize=materialize)
            assert all(col.count >= 1 for col in sols.columns)
        assert built == []

    def test_max_solution_is_greatest(self):
        rng = random.Random(21)
        frame = builtin_frame(["sq-right", "godel"], 4)
        for _ in range(15):
            dfre = random_dual_solvable(rng, frame, 2, 3, 2)
            top = dual_max_solution(dfre)
            assert dual_is_solution(dfre, top)
            for m in dual_brute_force(dfre):
                for r_top, r in zip(top, m):
                    assert all(b <= a for a, b in zip(r_top, r))

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_brute_force_equals_per_candidate_sweep(self, chunk, monkeypatch):
        import mafre.context

        if chunk is not None:
            monkeypatch.setattr(mafre.context, "_CHUNK", chunk)
        rng = random.Random(32)
        frame = builtin_frame(["sq-left", "godel"], 3)
        values = [frame.value(k) for k in range(4)]
        solvable = 0
        for i in range(20):
            make = random_dual_solvable if i % 2 else random_dual_instance
            dfre = make(rng, frame, 2, rng.randint(1, 3), 2)
            per_row = [
                [
                    cand
                    for cand in product(values, repeat=len(dfre.var_names))
                    if dual_compose(frame, (cand,), dfre.coeff, dfre.sigma)[0] == target
                ]
                for target in dfre.rhs
            ]
            expected = [tuple(combo) for combo in product(*per_row)]
            solvable += bool(expected)
            assert dual_brute_force(dfre) == expected
        assert 10 <= solvable < 20

    def test_gap_empty_iff_solvable(self):
        rng = random.Random(31)
        frame = builtin_frame(["sq-left"], 4)
        for _ in range(30):
            dfre = random_dual_instance(rng, frame, 2, 2, 2)
            assert dual_is_solvable(dfre) == (not dual_solvability_gap(dfre))
            assert dual_is_solvable(dfre) == bool(dual_brute_force(dfre))

    def test_error_gap_is_the_dual_solvability_gap(self):
        rng = random.Random(19)
        frame = builtin_frame(["sq-left", "godel"], 4)
        unsolvable = 0
        for _ in range(30):
            dfre = random_dual_instance(rng, frame, 3, 2, 3)
            gap = dual_solvability_gap(dfre)
            if not gap:
                continue
            unsolvable += 1
            for solve in (dual_solutions, dual_max_solution):
                with pytest.raises(UnsolvableError) as exc:
                    solve(dfre)
                assert exc.value.gap == tuple(gap)  # GranularValues, same order
                assert exc.value.gap_rows == tuple(
                    (u, w, old.numerator, new.numerator) for u, w, old, new in gap
                )
        assert unsolvable > 10

    def test_is_solvable_builds_no_granular_values(self, monkeypatch):
        from mafre.algebra import GranularValue

        rng = random.Random(31)
        frame = builtin_frame(["sq-left"], 4)
        instances = [random_dual_instance(rng, frame, 2, 2, 2) for _ in range(10)]
        expected = [not dual_solvability_gap(dfre) for dfre in instances]
        assert any(expected) and not all(expected)

        def refuse(self):
            raise AssertionError("GranularValue built")

        monkeypatch.setattr(GranularValue, "__post_init__", refuse)
        assert [dual_is_solvable(dfre) for dfre in instances] == expected

    def test_godel_transposition_correspondence(self):
        # with a commutative conjunctor, a dual system transposes into a
        # primal one and the two solution sets coincide rowwise
        from mafre import FreInstance, enumerate_solutions

        rng = random.Random(404)
        frame = builtin_frame(["godel"], 4)
        checked = 0
        while checked < 50:
            dfre = random_dual_solvable(rng, frame, 2, 3, 2)
            if not dual_is_solvable(dfre):
                continue
            primal = FreInstance(
                frame,
                dfre.col_names,
                dfre.var_names,
                dfre.row_names,
                tuple(zip(*dfre.coeff)),  # S transposed: W x V
                dfre.sigma,
                tuple(zip(*dfre.rhs)),  # T transposed: W x U
            )
            psols = enumerate_solutions(primal)
            dsols = dual_solutions(dfre)
            for u in dfre.row_names:
                assert {x.numerators for x in dsols.column(u).enumerated} == {
                    x.numerators for x in psols.column(u).enumerated
                }
            checked += 1


class TestDualLattice:
    def test_members_built_on_first_use(self):
        rng = random.Random(60)
        frame = builtin_frame(["sq-left", "godel"], 4)
        ctx = associated_context(random_dual_solvable(rng, frame, 2, 3, 2).transposed())
        lat = build_concept_lattice(ctx)
        assert len(lat) > 1
        # the extents are the variable-side sets, built without the concepts
        extents = lat.extents()
        assert "concepts" not in vars(lat)
        assert all(h.index_set == ctx.objects for h in extents)
        assert [h.numerators for h in extents] == [
            tuple(r) for r in lat.extent_rows.tolist()
        ]

    def test_members_are_fixpoints(self):
        rng = random.Random(61)
        frame = builtin_frame(["sq-left", "godel"], 4)
        dfre = random_dual_solvable(rng, frame, 2, 3, 2)
        ctx = associated_context(dfre.transposed())
        lat = build_concept_lattice(ctx)
        for h in lat.extents():
            again = necessity(possibility(h, ctx), ctx)
            assert again == h

    def test_max_solution_rows_are_members(self):
        rng = random.Random(62)
        frame = builtin_frame(["sq-right"], 4)
        dfre = random_dual_solvable(rng, frame, 2, 2, 2)
        ctx = associated_context(dfre.transposed())
        lat = build_concept_lattice(ctx)
        for row in dual_max_solution(dfre):
            assert tuple(v.numerator for v in row) in lat.extent_set()

    def test_covers_are_strict_and_immediate(self):
        rng = random.Random(63)
        frame = builtin_frame(["godel", "sq-left"], 4)
        dfre = random_dual_solvable(rng, frame, 2, 2, 2)
        lat = build_concept_lattice(associated_context(dfre.transposed()))
        members = [m.numerators for m in lat.extents()]
        for i, j in lat.covers():
            low, high = members[i], members[j]
            assert low != high and all(a <= b for a, b in zip(low, high))
            for k, mid in enumerate(members):
                if k in (i, j):
                    continue
                between = all(a <= b for a, b in zip(low, mid)) and all(
                    a <= b for a, b in zip(mid, high)
                )
                assert not between


class TestDualReduction:
    def _context_with_duplicate_column(self, rng, frame, n_vars=3):
        n = frame.granularity
        col = [frame.value(rng.randint(0, n)) for _ in range(n_vars)]
        other = [frame.value(rng.randint(0, n)) for _ in range(n_vars)]
        rel = [[col[v], other[v], col[v]] for v in range(n_vars)]
        sigma = [rng.randrange(len(frame.triples)) for _ in range(n_vars)]
        return DualContext(
            frame, [f"v{i}" for i in range(n_vars)], ("w0", "w1", "w2"), rel, sigma
        )

    def test_duplicate_column_is_redundant(self):
        rng = random.Random(71)
        frame = builtin_frame(["sq-left", "godel"], 4)
        for _ in range(10):
            ctx = self._context_with_duplicate_column(rng, frame)
            assert is_consistent(ctx, ("w0", "w1"))
            for Y in enumerate_reducts(ctx):
                assert not ("w0" in Y and "w2" in Y)

    def test_full_column_set_always_consistent(self):
        rng = random.Random(72)
        frame = builtin_frame(["sq-right"], 4)
        dfre = random_dual_solvable(rng, frame, 2, 2, 3)
        ctx = associated_context(dfre.transposed())
        assert is_consistent(ctx, ctx.attributes)

    def test_reduce_consistent_preserves_solutions(self):
        rng = random.Random(73)
        frame = builtin_frame(["godel", "sq-left"], 4)
        checked = 0
        while checked < 15:
            dfre = random_dual_solvable(rng, frame, 2, 2, 3)
            ctx = associated_context(dfre.transposed())
            proper = [
                Y for Y in enumerate_reducts(ctx) if len(Y) < len(ctx.attributes)
            ]
            if not proper or not dual_is_solvable(dfre):
                continue
            full = dual_solutions(dfre)
            for Y in proper:
                reduced = dual_solutions(dual_reduce(dfre, Y))
                for u in dfre.row_names:
                    assert {x.numerators for x in reduced.column(u).enumerated} == {
                        x.numerators for x in full.column(u).enumerated
                    }
            checked += 1

    def test_inconsistent_reduction_rejected(self):
        rng = random.Random(74)
        frame = builtin_frame(["sq-left"], 4)
        while True:
            dfre = random_dual_solvable(rng, frame, 2, 2, 3)
            ctx = associated_context(dfre.transposed())
            bad = next(
                (
                    (w,)
                    for w in ctx.attributes
                    if not is_consistent(ctx, (w,))
                ),
                None,
            )
            if bad is None:
                continue
            with pytest.raises(InconsistentSetError):
                dual_reduce(dfre, bad)
            break

    def test_sigma_rows_are_refused(self):
        frame = builtin_frame(["godel"], 4)
        for row in ([0], np.array([0]), range(1), deque([0])):
            with pytest.raises(DimensionError, match="one triple per variable"):
                DualContext(frame, ("v0", "v1"), ("w0",), [[1], [2]], [0, row])

    def test_restrict_errors(self):
        frame = builtin_frame(["godel"], 4)
        ctx = DualContext(frame, ("v0",), ("w0",), [[frame.value(1)]], [0])
        assert restrict(ctx, ("w0",)).attributes == ("w0",)
        with pytest.raises(DimensionError):
            restrict(ctx, ())
        with pytest.raises(IndexMismatchError):
            restrict(ctx, ("nope",))


class TestDualEmptyReduct:
    def test_all_zero_coefficients(self):
        # the lattice is {top}: the empty column set is the only reduct
        frame = builtin_frame(["godel", "sq-left"], 4)
        for rhs, solvable in (([[0, 0], [0, 0]], True), ([[0, 3], [2, 0]], False)):
            dfre = DualFreInstance(
                frame, ("u1", "u2"), ("v1", "v2", "v3"), ("w1", "w2"),
                [[0, 0]] * 3, (0, 1, 0), rhs,
            )
            ctx = associated_context(dfre.transposed())
            assert enumerate_reducts(ctx) == [()]
            assert is_consistent(ctx, ()) and is_consistent(ctx, ("w2",))
            assert dual_is_solvable(dfre) == solvable
            assert find_feasible_reducts(dfre.transposed()) == [()]
            result = dual_approximate(dfre, ())
            assert [[v.numerator for v in r] for r in result.t_star] == [[0, 0]] * 2
            assert len(result.modified_rows) == (0 if solvable else 2)
            reduced = dual_reduce(dfre, ())
            assert reduced.col_names == () and dual_is_solvable(reduced)
            assert [c.count for c in dual_solutions(reduced).columns] == [125, 125]

    def test_empty_reduction_refused_on_a_proper_lattice(self):
        dfre = random_dual_solvable(random.Random(83), builtin_frame(["godel"], 4), 1, 2, 2)
        assert enumerate_reducts(associated_context(dfre.transposed())) != [()]
        with pytest.raises(DimensionError):
            dual_reduce(dfre, (), enforce_consistency=False)


class TestDualRepair:
    def _unsolvable_with_duplicate(self, rng, frame):
        """Duplicate column w2 of w0, then corrupt T on w2 only."""
        n = frame.granularity
        n_vars = 2
        coeff = [
            [frame.value(rng.randint(0, n)) for _ in range(2)] for _ in range(n_vars)
        ]
        coeff = [[row[0], row[1], row[0]] for row in coeff]
        sigma = [rng.randrange(len(frame.triples)) for _ in range(n_vars)]
        x = [[frame.value(rng.randint(0, n)) for _ in range(n_vars)]]
        rhs = [list(r) for r in dual_compose(frame, x, coeff, sigma)]
        k = rhs[0][2].numerator
        rhs[0][2] = frame.value(k + 1 if k < n else k - 1)
        return DualFreInstance(
            frame, ("u0",), ("v0", "v1"), ("w0", "w1", "w2"), coeff, sigma, rhs
        )

    def test_feasible_reduct_repair(self):
        rng = random.Random(81)
        frame = builtin_frame(["sq-left", "godel"], 4)
        repaired = 0
        attempts = 0
        while repaired < 10 and attempts < 400:
            attempts += 1
            dfre = self._unsolvable_with_duplicate(rng, frame)
            if dual_is_solvable(dfre):
                continue
            for Y in find_feasible_reducts(dfre.transposed()):
                result = dual_approximate(dfre, Y)
                kept = set(Y)
                for j, w in enumerate(dfre.col_names):
                    if w in kept:
                        assert result.t_star[0][j] == dfre.rhs[0][j]
                fixed = DualFreInstance(
                    frame,
                    dfre.row_names,
                    dfre.var_names,
                    dfre.col_names,
                    dfre.coeff,
                    dfre.sigma,
                    result.t_star,
                )
                assert dual_is_solvable(fixed)
                assert result.approximated_instance(dfre).rhs == fixed.rhs
                repaired += 1
        assert repaired >= 10

    def test_approximated_instance_is_the_repaired_dual(self):
        data = json.loads((EXAMPLES / "squares_unsolvable.json").read_text())
        dfre = parse_problem(transpose(data)).to_instance()
        assert not dual_is_solvable(dfre)
        feasible = find_feasible_reducts(dfre.transposed())
        assert feasible
        for Y in feasible:
            result = dual_approximate(dfre, Y)
            fixed = result.approximated_instance(dfre)
            assert isinstance(fixed, DualFreInstance)
            assert dual_is_solvable(fixed)
            assert (fixed._rhs_array == result.t_star_rows).all()
            assert fixed.rhs == result.t_star
            assert (fixed.row_names, fixed.var_names, fixed.col_names, fixed.sigma) == (
                dfre.row_names, dfre.var_names, dfre.col_names, dfre.sigma
            )
            primal, repaired = fixed.transposed(), result._instance
            assert (primal.row_names, primal.var_names, primal.col_names, primal.sigma) == (
                repaired.row_names, repaired.var_names, repaired.col_names, repaired.sigma
            )
            assert (primal._coeff_array == repaired._coeff_array).all()
            assert (primal._rhs_array == repaired._rhs_array).all()

    def test_non_reduct_and_infeasible_errors(self):
        rng = random.Random(82)
        frame = builtin_frame(["godel"], 4)
        dfre = random_dual_solvable(rng, frame, 1, 2, 2)
        with pytest.raises(NotAReductError):
            dual_approximate(dfre, ("w0", "definitely-not",))
        # craft an infeasible reduct: make the instance unsolvable everywhere
        while True:
            cand = random_dual_instance(rng, frame, 1, 2, 2)
            ctx = associated_context(cand.transposed())
            if dual_is_solvable(cand):
                continue
            reducts = enumerate_reducts(ctx)
            bad = [
                Y
                for Y in reducts
                if not dual_is_solvable(dual_reduce(cand, Y, enforce_consistency=False))
            ]
            if not bad:
                continue
            with pytest.raises(InfeasibleReductError):
                dual_approximate(cand, bad[0])
            break
