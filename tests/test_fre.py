import json
import math
import os
import random
import tempfile
from collections import deque
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafre import (
    FreInstance,
    FuzzySet,
    associated_context,
    brute_force_solutions,
    builtin_frame,
    enumerate_reducts,
    enumerate_solutions,
    inf_compose,
    is_solution,
    is_solvable,
    max_solution,
    necessity,
    possibility,
    reduce_fre,
    solvability_gap,
    sup_compose,
)
from mafre.errors import (
    BudgetExceededError,
    DimensionError,
    InconsistentSetError,
    UnsolvableError,
)
from conftest import SQUARES_VARS, identity_problem, random_solvable_instance


class TestComposition:
    def test_sup_compose_reproduces_rhs(self, squares_solvable):
        fre = squares_solvable
        x = [[fre.frame.value(k)] for k in (0, 0, 0, 7, 0)]
        out = sup_compose(fre.frame, fre.coeff, x, fre.sigma)
        assert out == fre.rhs

    def test_inf_compose_is_max_candidate(self, squares_solvable):
        fre = squares_solvable
        top = inf_compose(fre.frame, fre.rhs, fre.coeff, fre.sigma)
        assert [row[0].numerator for row in top] == [0, 0, 0, 7, 0]

    def test_residuated_pair_galois(self, squares_frame):
        # sup_compose(R, X) <= T  iff  X <= inf_compose(T, R), columnwise
        rng = random.Random(7)
        n = squares_frame.granularity
        for _ in range(40):
            fre = random_solvable_instance(rng, squares_frame, 3, 3)
            x = [[squares_frame.value(rng.randint(0, n))] for _ in range(3)]
            t = [[squares_frame.value(rng.randint(0, n))] for _ in range(3)]
            lhs = sup_compose(squares_frame, fre.coeff, x, fre.sigma)
            rhs = inf_compose(squares_frame, t, fre.coeff, fre.sigma)
            left = all(a[0] <= b[0] for a, b in zip(lhs, t))
            right = all(a[0] <= b[0] for a, b in zip(x, rhs))
            assert left == right


class TestSolvability:
    def test_solvable_instance(self, squares_solvable):
        assert is_solvable(squares_solvable)
        assert solvability_gap(squares_solvable) == []

    def test_max_solution_value(self, squares_solvable):
        top = max_solution(squares_solvable)
        assert [row[0].numerator for row in top] == [0, 0, 0, 7, 0]
        assert is_solution(squares_solvable, top)

    def test_unsolvable_instance_gap(self, squares_unsolvable):
        gap = solvability_gap(squares_unsolvable)
        assert not is_solvable(squares_unsolvable)
        got = {(u, w): (old.numerator, new.numerator) for u, w, old, new in gap}
        # stated rhs vs its interior (2, 5, 1, 2, 1); u5 already coincides
        assert got == {
            ("u1", "w"): (4, 2),
            ("u2", "w"): (7, 5),
            ("u3", "w"): (3, 1),
            ("u4", "w"): (5, 2),
        }

    def test_max_solution_raises_with_gap(self, squares_unsolvable):
        with pytest.raises(UnsolvableError) as exc:
            max_solution(squares_unsolvable)
        assert exc.value.gap

    def test_is_solution_rejects_non_solutions(self, squares_solvable):
        zero = [[squares_solvable.frame.value(0)] for _ in range(5)]
        assert not is_solution(squares_solvable, zero)

    def test_maxmin_solvable(self, maxmin_solvable):
        top = max_solution(maxmin_solvable)
        assert [row[0].numerator for row in top] == [8, 3, 3, 3, 3]


class TestGap:
    def test_entries_column_major_then_row(self):
        # the per-column definition: T_w against its interior, row by row
        rng = random.Random(8)
        frame = builtin_frame(["sq-left", "godel"], 4)
        seen = 0
        for _ in range(30):
            fre = FreInstance(
                frame,
                [f"u{i}" for i in range(4)],
                ["v0", "v1"],
                ["w0", "w1", "w2"],
                [[rng.randint(0, 4) for _ in range(2)] for _ in range(4)],
                [0, 1],
                [[rng.randint(0, 4) for _ in range(3)] for _ in range(4)],
            )
            ctx = associated_context(fre)
            expected = []
            for w in fre.col_names:
                t = fre.rhs_column(w)
                closed = possibility(necessity(t, ctx), ctx)
                expected += [
                    (u, w, old, new)
                    for u, old, new in zip(fre.row_names, t.values, closed.values)
                    if old != new
                ]
            assert solvability_gap(fre) == expected
            seen += len({w for _, w, _, _ in expected}) > 1
        assert seen > 10  # most instances have gaps in several columns

    def test_error_gap_is_the_solvability_gap(self):
        rng = random.Random(9)
        frame = builtin_frame(["sq-right", "godel"], 4)
        unsolvable = 0
        for _ in range(30):
            fre = FreInstance(
                frame,
                [f"u{i}" for i in range(4)],
                ["v0", "v1"],
                ["w0", "w1", "w2"],
                [[rng.randint(0, 4) for _ in range(2)] for _ in range(4)],
                [0, 1],
                [[rng.randint(0, 4) for _ in range(3)] for _ in range(4)],
            )
            gap = solvability_gap(fre)
            assert is_solvable(fre) == (not gap)
            if not gap:
                continue
            unsolvable += 1
            for solve in (enumerate_solutions, max_solution):
                with pytest.raises(UnsolvableError) as exc:
                    solve(fre)
                assert exc.value.gap == tuple(gap)  # GranularValues, same order
                assert exc.value.granularity == 4
                assert exc.value.gap_rows == tuple(
                    (u, w, old.numerator, new.numerator) for u, w, old, new in gap
                )
        assert unsolvable > 10

    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(st.integers(0, 2**32))
    def test_gap_columns_order(self, seed):
        # the error's gap columns against the per-column definition: entries
        # column-major, rows in order within a column; the dual transpose's
        # error holds the same entries with rows and columns swapped
        from mafre.dual import dual_solutions
        from mafre.io import parse_problem, problem_from_instance
        from test_cli_golden import transpose

        rng = random.Random(seed)
        n = rng.randint(1, 6)
        names = rng.sample(["sq-left", "sq-right", "godel"], rng.randint(1, 3))
        frame = builtin_frame(names, n)
        nu, nv, nw = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 5)
        fre = FreInstance(
            frame,
            [f"u{i}" for i in range(nu)],
            [f"v{k}" for k in range(nv)],
            [f"w{j}" for j in range(nw)],
            [[rng.randint(0, n) for _ in range(nv)] for _ in range(nu)],
            [rng.randrange(len(frame.triples)) for _ in range(nv)],
            [[rng.randint(0, n) for _ in range(nw)] for _ in range(nu)],
        )
        ctx = associated_context(fre)
        expected = []
        for w in fre.col_names:
            t = fre.rhs_column(w)
            closed = possibility(necessity(t, ctx), ctx)
            expected += [
                (u, w, old.numerator, new.numerator)
                for u, old, new in zip(fre.row_names, t.values, closed.values)
                if old != new
            ]
        if not expected:
            assert is_solvable(fre)
            return
        dfre = parse_problem(transpose(problem_from_instance(fre).to_json())).to_instance()
        for solve, entries in (
            (enumerate_solutions, expected),
            (dual_solutions, [(w, u, old, new) for u, w, old, new in expected]),
        ):
            with pytest.raises(UnsolvableError) as exc:
                solve(fre if solve is enumerate_solutions else dfre, materialize=False)
            rows, cols, stated, closed = exc.value.gap_columns
            assert type(rows) is list and type(cols) is list
            assert stated.dtype == closed.dtype == np.int64
            assert list(zip(rows, cols, stated.tolist(), closed.tolist())) == entries
            assert exc.value.gap_rows == tuple(entries)

    def test_is_solvable_builds_no_granular_values(
        self, squares_solvable, squares_unsolvable, monkeypatch
    ):
        from mafre.algebra import GranularValue

        def refuse(self):
            raise AssertionError("GranularValue built")

        monkeypatch.setattr(GranularValue, "__post_init__", refuse)
        assert is_solvable(squares_solvable)
        assert not is_solvable(squares_unsolvable)
        with pytest.raises(UnsolvableError) as exc:
            enumerate_solutions(squares_unsolvable)
        assert exc.value.gap_rows[0] == ("u1", "w", 4, 2)


class TestEnumeration:
    def test_squares_two_solutions(self, squares_solvable):
        sols = enumerate_solutions(squares_solvable)
        col = sols.column("w")
        assert col.count == 2
        assert col.max_solution.numerators == (0, 0, 0, 7, 0)
        assert [p.numerators for p in col.excluded_predecessors] == [(0, 0, 0, 5, 0)]
        got = {x.numerators for x in col.enumerated}
        assert got == {(0, 0, 0, 7, 0), (0, 0, 0, 6, 0)}
        assert {x.numerators for x in col.minimal} == {(0, 0, 0, 6, 0)}

    def test_count_only_mode(self, squares_solvable):
        sols = enumerate_solutions(squares_solvable, materialize=False)
        col = sols.column("w")
        assert col.count == 2
        assert col.enumerated is None and col.minimal is None

    def test_maxmin_solution_count(self, maxmin_solvable):
        col = enumerate_solutions(maxmin_solvable, materialize=False).column("w")
        assert col.count == 875
        assert col.max_solution.numerators == (8, 3, 3, 3, 3)

    def test_maxmin_minimal_solutions(self, maxmin_solvable):
        col = enumerate_solutions(maxmin_solvable).column("w")
        assert len(col.minimal) == 4
        for x in col.minimal:
            assert x.numerators[0] == 4  # every minimal solution pins v1 at 0.5
            assert is_solution(maxmin_solvable, [[v] for v in x.values])

    def test_every_enumerated_vector_is_a_solution(self, squares_solvable):
        col = enumerate_solutions(squares_solvable).column("w")
        for x in col.enumerated:
            assert is_solution(squares_solvable, [[v] for v in x.values])

    def test_unsolvable_refuses(self, squares_unsolvable):
        with pytest.raises(UnsolvableError):
            enumerate_solutions(squares_unsolvable)

    def test_minimal_rows_are_the_pairwise_minimal_solutions(self):
        rng = random.Random(12)
        frame = builtin_frame(["sq-left", "sq-right", "godel"], 5)
        for _ in range(40):
            fre = random_solvable_instance(rng, frame, rng.randint(1, 4), rng.randint(1, 4), 2)
            for col in enumerate_solutions(fre).columns:
                rows = col.solution_rows
                minimal = {
                    tuple(x)
                    for x in rows.tolist()
                    if not any(y != x and all(b <= a for a, b in zip(x, y))
                               for y in rows.tolist())
                }
                assert {tuple(x) for x in col.minimal_rows.tolist()} == minimal

    def test_solutions_build_no_lattice(self, monkeypatch):
        from mafre import context as context_mod
        from conftest import SQUARES_COEFF, SQUARES_ROWS, SQUARES_SIGMA

        built = []
        lattice = context_mod.ConceptLattice
        monkeypatch.setattr(
            context_mod, "ConceptLattice", lambda *a: built.append(a) or lattice(*a)
        )
        frame = builtin_frame(["sq-left", "sq-right"], 8)
        for materialize in (True, False):
            # a fresh instance each time: a cached lattice would hide a build
            fre = FreInstance(
                frame, SQUARES_ROWS, SQUARES_VARS, ("w",), SQUARES_COEFF,
                SQUARES_SIGMA, [[2], [4], [0], [2], [0]],
            )
            col = enumerate_solutions(fre, materialize=materialize).column("w")
            assert col.count == 2
            assert col.predecessor_rows.tolist() == [[0, 0, 0, 5, 0]]
        assert built == []

    def test_equal_maxima_are_swept_once(self, squares_frame, monkeypatch):
        from mafre import fre as fre_mod
        from conftest import SQUARES_COEFF, SQUARES_ROWS, SQUARES_SIGMA

        sweeps, listings = [], []
        box, listing = fre_mod._box, fre_mod._listing
        monkeypatch.setattr(fre_mod, "_box", lambda *a: sweeps.append(a) or box(*a))
        monkeypatch.setattr(
            fre_mod, "_listing", lambda *a: listings.append(a) or listing(*a)
        )
        rhs = [[2, 0, 2], [4, 0, 4], [0, 0, 0], [2, 0, 2], [0, 0, 0]]
        fre = FreInstance(
            squares_frame, SQUARES_ROWS, SQUARES_VARS, ("w1", "w2", "w3"),
            SQUARES_COEFF, SQUARES_SIGMA, rhs,
        )
        cols = enumerate_solutions(fre).columns
        # the minimal rows come with the listing, once per distinct maximum
        assert len(sweeps) == len(listings) == 2
        assert cols[0].to_json() | {"column": "w3"} == cols[2].to_json()
        assert len(listings) == 2  # rendering computes nothing more
        assert cols[0].count == 2 and cols[1].count == 1
        assert cols[1].solution_rows.tolist() == [[0, 0, 0, 0, 0]]
        for col in cols:
            fresh = listing(col.max_row, col.predecessor_rows)[1]
            assert col.minimal_rows.tolist() == fresh.tolist()

    def test_equal_maxima_share_minimal_rows(self, squares_frame):
        from conftest import SQUARES_COEFF, SQUARES_ROWS, SQUARES_SIGMA

        rhs = [[2, 0, 2], [4, 0, 4], [0, 0, 0], [2, 0, 2], [0, 0, 0]]
        fre = FreInstance(
            squares_frame, SQUARES_ROWS, SQUARES_VARS, ("w1", "w2", "w3"),
            SQUARES_COEFF, SQUARES_SIGMA, rhs,
        )
        first, second, third = enumerate_solutions(fre).columns
        assert first.minimal_rows is third.minimal_rows
        assert first.solution_rows is third.solution_rows
        assert second.minimal_rows is not first.minimal_rows
        assert first.minimal_rows.tolist() == [[0, 0, 0, 6, 0]]
        assert second.minimal_rows.tolist() == [[0, 0, 0, 0, 0]]

    def test_solutions_held_as_arrays(self, maxmin_solvable):
        col = enumerate_solutions(maxmin_solvable).column("w")
        data = col.to_json()
        assert len(data["solutions"]) == 875 and len(data["minimal"]) == 4
        # no FuzzySet view was built for the JSON form
        assert not {"enumerated", "minimal", "max_solution"} & set(vars(col))
        assert col.enumerated[0].numerators == tuple(data["solutions"][0])
        assert [x.numerators for x in col.minimal] == [tuple(r) for r in data["minimal"]]

    def test_json_round_trip_shape(self, squares_solvable):
        import json

        data = enumerate_solutions(squares_solvable).to_json()
        text = json.dumps(data)
        back = json.loads(text)
        assert back["granularity"] == 8
        assert back["columns"][0]["count"] == 2


class _CountedRows(np.ndarray):
    """A view of an array that counts, in ``calls[0]``, the ``tolist`` calls
    on it and on the views taken of it (a ``ravel``, say)."""

    def __array_finalize__(self, obj):
        self.calls = getattr(obj, "calls", None)

    def tolist(self):
        self.calls[0] += 1
        return super().tolist()


def _repeated_parts(seed: int, dual: bool):
    """A seeded solvable instance whose five unknown parts (columns of a
    primal X, rows of a dual one) repeat one to three distinct vectors, so
    that several parts have the same maximum."""
    from mafre import DualFreInstance
    from mafre.dual import dual_compose

    rng = random.Random(seed)
    n = rng.randint(1, 4)
    frame = builtin_frame(rng.sample(["godel", "sq-left", "sq-right"], rng.randint(1, 3)), n)
    nv, ne = rng.randint(1, 3), rng.randint(1, 3)
    sigma = [rng.randrange(len(frame.triples)) for _ in range(nv)]
    coeff = [[frame.value(rng.randint(0, n)) for _ in range(nv)] for _ in range(ne)]
    vectors = [[frame.value(rng.randint(0, n)) for _ in range(nv)] for _ in range(rng.randint(1, 3))]
    parts = [rng.choice(vectors) for _ in range(5)]
    equations = [f"e{i}" for i in range(ne)]
    variables, part_names = [f"v{i}" for i in range(nv)], [f"p{i}" for i in range(5)]
    if not dual:
        rhs = sup_compose(frame, coeff, list(zip(*parts)), sigma)
        return FreInstance(frame, equations, variables, part_names, coeff, sigma, rhs)
    # X (.) S = T with the parts as the rows of X and the equations as columns
    S = list(zip(*coeff))
    rhs = dual_compose(frame, parts, S, sigma)
    return DualFreInstance(frame, part_names, variables, equations, S, sigma, rhs)


class TestSharedJson:
    """``solve --json`` writes the arrays that columns share per distinct
    maximum once each; ``SolutionSet.to_json`` gives every record its own
    lists."""

    @settings(max_examples=max(100, settings().max_examples), deadline=None)
    @given(st.integers(0, 2**32), st.booleans(), st.booleans())
    def test_one_body_per_maximum(self, seed, dual, materialize):
        import mafre.dual
        import mafre.fre
        from mafre.io import problem_from_instance
        from test_cli_golden import run

        instance = _repeated_parts(seed, dual)
        module = mafre.dual if dual else mafre.fre
        name = "dual_solutions" if dual else "enumerate_solutions"
        solve, solved, views = getattr(module, name), [], {}

        def counted(instance, materialize):
            # every array of the solution set counts the tolist calls on it
            solutions = solve(instance, materialize=materialize)
            for c in solutions.columns:
                for field in ("max_row", "predecessor_rows", "solution_rows", "minimal_rows"):
                    rows = getattr(c, field)
                    if rows is not None:
                        if id(rows) not in views:
                            views[id(rows)] = rows.view(_CountedRows)
                            views[id(rows)].calls = [0]
                        object.__setattr__(c, field, views[id(rows)])
            solved.append(solutions)
            return solutions

        argv = ["--json", *(["--enumerate"] if materialize else [])]
        with tempfile.TemporaryDirectory() as directory, mock.patch.object(module, name, counted):
            path = os.path.join(directory, "problem.json")
            with open(path, "w") as fh:
                fh.write(problem_from_instance(instance).dumps())
            printed = run(["solve", path, *argv])
        (solutions,) = solved
        maxima = [c.max_row.tobytes() for c in solutions.columns]
        assert len(set(maxima)) < len(solutions.columns)  # some parts share their maximum
        assert len(views) == len(set(maxima)) * (4 if materialize else 2)
        # an array without rows is written as [] and read not at all
        assert all(view.calls == [int(len(view) > 0)] for view in views.values())
        data = solutions.to_json()
        expected = json.dumps({"solvable": True, "solutions": data}, indent=2)
        assert printed == (0, expected + "\n", "")
        # no two records hold one list object
        lists = [id(v) for rec in data["columns"] for v in rec.values() if isinstance(v, list)]
        assert len(set(lists)) == len(lists)

    def test_unshared_columns_render_their_own_arrays(self):
        # two hand-built columns with one maximum but arrays of their own
        from mafre.fre import ColumnSolutions, SolutionSet

        rows = lambda *r: np.array(r, dtype=np.int64).reshape(len(r), 2)
        top = np.array([1, 1], dtype=np.int64)
        first = ColumnSolutions(
            "w1", ("v1", "v2"), 1, top, rows([0, 1]), 2, rows([1, 0], [1, 1]),
            rows([1, 0]),
        )
        second = ColumnSolutions(
            "w2", ("v1", "v2"), 1, top.copy(), rows(), 4,
            rows([0, 0], [0, 1], [1, 0], [1, 1]), rows([0, 0]),
        )
        for cols in ((first, second), (second, first)):
            data = SolutionSet(1, ("v1", "v2"), cols).to_json()["columns"]
            assert data == [c.to_json() for c in cols]
            assert data[0]["solutions"] != data[1]["solutions"]
        counted = SolutionSet(
            1, ("v1", "v2"),
            (
                ColumnSolutions("w1", ("v1", "v2"), 1, top, rows(), 4),
                ColumnSolutions("w2", ("v1", "v2"), 1, top.copy(), rows([0, 0]), 3),
            ),
        ).to_json()["columns"]
        assert [(c["excluded_predecessors"], c["count"]) for c in counted] == [
            ([], 4), ([[0, 0]], 3),
        ]


# a maximum over 1 to 4 unknowns and up to 6 rows to exclude, which may lie
# anywhere, also not below the maximum
_BOX_CASES = st.integers(1, 4).flatmap(
    lambda nv: st.tuples(
        st.lists(st.integers(0, 4), min_size=nv, max_size=nv),
        st.lists(st.lists(st.integers(0, 5), min_size=nv, max_size=nv), max_size=6),
    )
)


class TestCount:
    """Count-only mode: the box is split on one unknown at a time, keeping
    the maximal predecessors still active, and never swept."""

    @staticmethod
    def _sweeps(monkeypatch):
        """The arguments of every ``_box`` call, and a count of the cells
        that a sweep of the box keeps, which records no call."""
        from mafre import fre as fre_mod

        sweeps, box = [], fre_mod._box
        monkeypatch.setattr(fre_mod, "_box", lambda *a: sweeps.append(a) or box(*a))
        return sweeps, lambda *a: np.count_nonzero(box(*a)[1])

    def test_count_equals_the_sweep_and_brute_force(self, monkeypatch):
        sweeps, sweep = self._sweeps(monkeypatch)
        rng = random.Random(31)
        frames = [
            builtin_frame(["godel"], 4),
            builtin_frame(["sq-left", "sq-right"], 4),
            builtin_frame(["sq-right", "godel"], 5),
        ]
        predecessors = set()
        for i in range(90):
            fre = random_solvable_instance(
                rng, frames[i % 3], rng.randint(1, 4), rng.randint(1, 3)
            )
            col = enumerate_solutions(fre, materialize=False).columns[0]
            assert sweeps == []
            listed = enumerate_solutions(fre).columns[0]
            assert col.count == sweep(col.max_row, col.predecessor_rows)
            assert col.count == listed.count == len(brute_force_solutions(fre))
            predecessors.add(min(len(col.predecessor_rows), 2))
            sweeps.clear()
        assert predecessors == {0, 1, 2}

    @settings(max_examples=max(200, settings().max_examples), deadline=None)
    @given(st.integers(0, 2**32))
    def test_count_matches_brute_force_property(self, seed):
        # seeded systems over all three triples with mixed sigma, up to 6
        # equations: the count of every column equals the listing's length,
        # and their product the number of solutions found exhaustively
        from mafre.fre import _count

        rng = random.Random(seed)
        frame = builtin_frame(["godel", "sq-left", "sq-right"], rng.randint(1, 4))
        fre = random_solvable_instance(
            rng, frame, rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 2)
        )
        listed = enumerate_solutions(fre).columns
        counts = [_count(c.max_row, c.predecessor_rows) for c in listed]
        assert counts == [len(c.solution_rows) for c in listed]
        assert counts == [c.count for c in enumerate_solutions(fre, materialize=False).columns]
        assert math.prod(counts) == len(brute_force_solutions(fre))

    @pytest.mark.parametrize("n, nv", [(1, 12), (3, 8)])
    def test_many_predecessors_hold_no_more_than_the_box(self, monkeypatch, n, nv):
        # every vector is an extent, so the top has nv lower covers; the
        # count holds a small fraction of the box and sweeps none
        import tracemalloc

        from mafre.io import parse_problem

        sweeps, sweep = self._sweeps(monkeypatch)
        fre = parse_problem(identity_problem(n, nv)).to_instance()
        box_bytes = (n + 1) ** nv * nv * 8
        tracemalloc.start()
        try:
            col = enumerate_solutions(fre, materialize=False).columns[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(col.predecessor_rows) == nv
        assert sweeps == []
        assert col.count == 1 == sweep(col.max_row, col.predecessor_rows)
        assert peak < box_bytes // 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_count_budget(self, n, monkeypatch):
        # the identity system over 40 unknowns keeps one memo state of L - 1
        # rows per level L = 40, ..., 3 (a branch of one row is counted at
        # once): 38 states of 40 entries; one entry less of budget and the
        # count raises before it finishes
        from mafre import algebra
        from mafre.io import parse_problem

        fre = parse_problem(identity_problem(n, 40)).to_instance()
        entries = 38 * 40
        monkeypatch.setattr(algebra, "MAX_ENTRIES", entries)
        assert enumerate_solutions(fre, materialize=False).columns[0].count == 1
        monkeypatch.setattr(algebra, "MAX_ENTRIES", entries - 1)
        with pytest.raises(
            BudgetExceededError,
            match=f"^counting the solutions over 40 unknowns and 40 predecessors needs"
            f" {entries} entries, exceeds budget {entries - 1}$",
        ):
            enumerate_solutions(fre, materialize=False)

    def test_count_only_sweeps_no_box(self, monkeypatch):
        from conftest import SQUARES_COEFF, SQUARES_ROWS, SQUARES_SIGMA

        sweeps, _ = self._sweeps(monkeypatch)
        frame = builtin_frame(["sq-left", "sq-right"], 8)
        rhs = [[2, 0, 2], [4, 0, 4], [0, 0, 0], [2, 0, 2], [0, 0, 0]]
        fre = FreInstance(
            frame, SQUARES_ROWS, SQUARES_VARS, ("w1", "w2", "w3"),
            SQUARES_COEFF, SQUARES_SIGMA, rhs,
        )
        counted = enumerate_solutions(fre, materialize=False).columns
        assert sweeps == []
        assert [c.count for c in counted] == [2, 1, 2]
        assert all(c.solution_rows is None and c.minimal_rows is None for c in counted)
        enumerate_solutions(fre)
        assert len(sweeps) == 2  # materialized: one sweep per distinct maximum

    def test_count_beyond_int64(self, monkeypatch):
        # one equation max_v min(1, x_v) = 1 over 16 unknowns at n = 15: the
        # extents are the constant vectors, so the maximum (all 15) has one
        # predecessor (all 14) and a box of 16^16 = 2^64 rows
        sweeps, _ = self._sweeps(monkeypatch)
        nv = 16
        fre = FreInstance(
            builtin_frame(["godel"], 15), ["u"], [f"v{i}" for i in range(nv)],
            ["w"], [[15] * nv], [0] * nv, [[15]],
        )
        col = enumerate_solutions(fre, materialize=False).columns[0]
        assert col.max_row.tolist() == [15] * nv
        assert col.predecessor_rows.tolist() == [[14] * nv]
        assert col.count == 16**nv - 15**nv > 2**63
        assert sweeps == []

    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(_BOX_CASES)
    def test_count_property(self, case):
        from mafre import fre as fre_mod

        top, preds = case
        max_row = np.array(top, dtype=np.int64)
        pred_rows = np.array(preds, dtype=np.int64).reshape(len(preds), len(top))
        solutions = [
            x
            for x in product(*(range(m + 1) for m in top))
            if not any(all(a <= b for a, b in zip(x, p)) for p in preds)
        ]
        minimal = [
            x
            for x in solutions
            if not any(y != x and all(b <= a for a, b in zip(x, y)) for y in solutions)
        ]
        expected = len(solutions)
        assert fre_mod._count(max_row, pred_rows) == expected
        assert np.count_nonzero(fre_mod._box(max_row, pred_rows)[1]) == expected
        rows, minimal_rows = fre_mod._listing(max_row, pred_rows)
        assert rows.shape == (expected, len(top))
        assert rows.tolist() == [list(x) for x in solutions]
        assert minimal_rows.tolist() == [list(x) for x in minimal]

    @settings(max_examples=max(300, settings().max_examples), deadline=None)
    @given(_BOX_CASES, st.integers(0, 16_000))
    def test_budget_property(self, case, budget):
        # each checked function raises iff its largest array is over budget
        from mafre import algebra, fre as fre_mod

        top, preds = case
        nv, k = len(top), len(preds)
        max_row = np.array(top, dtype=np.int64)
        pred_rows = np.array(preds, dtype=np.int64).reshape(k, nv)
        checks = [
            (fre_mod._box, max_row, math.prod(m + 1 for m in top) * nv),
            (fre_mod._listing, max_row, math.prod(m + 1 for m in top) * nv),
        ]
        with pytest.MonkeyPatch.context() as patch:
            for function, rows, entries in checks:
                for limit in (budget, entries - 1, entries):
                    patch.setattr(algebra, "MAX_ENTRIES", limit)
                    if entries > limit:
                        message = f" needs {entries} entries, exceeds budget {limit}$"
                        with pytest.raises(BudgetExceededError, match=message):
                            function(rows, pred_rows)
                    else:
                        function(rows, pred_rows)

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_listing_in_slabs_changes_nothing(self, chunk, monkeypatch):
        # the free columns are filled in slabs of _CHUNK entries; any slab
        # size lists the rows of the definition, in lexicographic order
        from mafre import fre as fre_mod

        monkeypatch.setattr(fre_mod, "_CHUNK", chunk)
        rng = random.Random(chunk)
        for nv in (1, 2, 3, 5):
            top = [rng.randint(0, 3) for _ in range(nv)]
            preds = [[rng.randint(0, m) for m in top] for _ in range(rng.randint(0, 3))]
            rows, _ = fre_mod._listing(
                np.array(top, dtype=np.int64), np.array(preds, dtype=np.int64).reshape(-1, nv)
            )
            assert rows.tolist() == [
                list(x)
                for x in product(*(range(m + 1) for m in top))
                if not any(all(a <= b for a, b in zip(x, p)) for p in preds)
            ]

    def test_listing_holds_no_index_array_beside_the_rows(self):
        # 2^14 rows of 14 free unknowns: the columns come from one flat index
        # per row, with no (rows, free) index array beside the listing
        import tracemalloc

        from mafre import fre as fre_mod

        max_row, pred_rows = np.ones(14, dtype=np.int64), np.zeros((0, 14), dtype=np.int64)
        tracemalloc.start()
        try:
            rows, minimal_rows = fre_mod._listing(max_row, pred_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (2**14, 14) and minimal_rows.tolist() == [[0] * 14]
        assert peak < 1.25 * rows.nbytes


class TestOracleEquivalence:
    """Lattice-based enumeration vs exhaustive search on random instances."""

    N_INSTANCES = 110

    def test_random_solvable_instances_match_brute_force(self):
        rng = random.Random(99)
        frames = [
            builtin_frame(["godel"], 4),
            builtin_frame(["sq-left", "sq-right"], 4),
            builtin_frame(["sq-right", "godel"], 5),
        ]
        for i in range(self.N_INSTANCES):
            frame = frames[i % len(frames)]
            fre = random_solvable_instance(
                rng, frame, rng.randint(1, 4), rng.randint(1, 3)
            )
            expected = {
                tuple(tuple(v.numerator for v in row) for row in m)
                for m in brute_force_solutions(fre)
            }
            sols = enumerate_solutions(fre)
            per_col = [
                [x.numerators for x in sols.column(w).enumerated]
                for w in fre.col_names
            ]
            from itertools import product

            got = {
                tuple(tuple(combo[j][v] for j in range(len(fre.col_names)))
                      for v in range(len(fre.var_names)))
                for combo in product(*per_col)
            }
            assert got == expected, (fre.coeff, fre.sigma, fre.rhs)

    def test_multi_column_counts_multiply(self):
        rng = random.Random(41)
        frame = builtin_frame(["godel", "sq-left"], 4)
        for _ in range(10):
            fre = random_solvable_instance(rng, frame, 3, 2, n_cols=2)
            sols = enumerate_solutions(fre, materialize=False)
            total = 1
            for c in sols.columns:
                total *= c.count
            assert total == len(brute_force_solutions(fre))

    def test_budget_guard(self, squares_solvable):
        with pytest.raises(BudgetExceededError):
            brute_force_solutions(squares_solvable, budget=100)

    @staticmethod
    def _sweep(fre):
        """Every solution matrix by one sup_compose per candidate column."""
        values = [fre.frame.value(k) for k in range(fre.frame.granularity + 1)]
        per_column = []
        for j in range(len(fre.col_names)):
            target = tuple(row[j] for row in fre.rhs)
            per_column.append(
                [
                    cand
                    for cand in product(values, repeat=len(fre.var_names))
                    if tuple(
                        r[0]
                        for r in sup_compose(
                            fre.frame, fre.coeff, [(x,) for x in cand], fre.sigma
                        )
                    )
                    == target
                ]
            )
        return [
            tuple(tuple(combo[j][v] for j in range(len(fre.col_names)))
                  for v in range(len(fre.var_names)))
            for combo in product(*per_column)
        ]

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    def test_brute_force_equals_per_candidate_sweep(self, chunk, monkeypatch):
        import mafre.context

        if chunk is not None:
            monkeypatch.setattr(mafre.context, "_CHUNK", chunk)
        rng = random.Random(17)
        frames = [builtin_frame(["sq-left", "godel"], 3), builtin_frame(["sq-right"], 4)]
        solvable = 0
        for i in range(24):
            frame = frames[i % 2]
            fre = random_solvable_instance(rng, frame, rng.randint(1, 3), rng.randint(1, 3), 2)
            if i % 3 == 0:  # an arbitrary rhs, usually unsolvable
                n = frame.granularity
                fre = FreInstance(
                    frame, fre.row_names, fre.var_names, fre.col_names,
                    [[v.numerator for v in row] for row in fre.coeff], fre.sigma,
                    [[rng.randint(0, n) for _ in fre.col_names] for _ in fre.row_names],
                )
            expected = self._sweep(fre)
            solvable += bool(expected)
            assert brute_force_solutions(fre) == expected
        assert 8 <= solvable < 24


class TestReduction:
    def test_reduce_to_consistent_set_preserves_solutions(self, squares_solvable):
        reduced = reduce_fre(squares_solvable, ("u1", "u2", "u3"))
        assert reduced.row_names == ("u1", "u2", "u3")
        full = enumerate_solutions(squares_solvable).column("w")
        part = enumerate_solutions(reduced).column("w")
        assert {x.numerators for x in full.enumerated} == {
            x.numerators for x in part.enumerated
        }

    def test_both_reducts_preserve_solutions(self, squares_solvable):
        full = {
            x.numerators
            for x in enumerate_solutions(squares_solvable).column("w").enumerated
        }
        for Y in enumerate_reducts(associated_context(squares_solvable)):
            part = enumerate_solutions(reduce_fre(squares_solvable, Y)).column("w")
            assert {x.numerators for x in part.enumerated} == full

    def test_inconsistent_set_rejected(self, squares_solvable):
        with pytest.raises(InconsistentSetError):
            reduce_fre(squares_solvable, ("u3", "u4"))

    def test_inconsistent_set_gains_spurious_solutions(self, squares_solvable):
        # dropping to a non-consistent row set enlarges the solution set
        forced = reduce_fre(squares_solvable, ("u3", "u4"), enforce_consistency=False)
        col = enumerate_solutions(forced).column("w")
        assert col.count == 4
        assert col.max_solution.numerators == (0, 0, 0, 8, 0)
        full = {
            x.numerators
            for x in enumerate_solutions(squares_solvable).column("w").enumerated
        }
        spurious = {x.numerators for x in col.enumerated} - full
        assert len(spurious) == 2
        for x in spurious:
            assert not is_solution(
                squares_solvable, [[squares_solvable.frame.value(k)] for k in x]
            )

    def test_reduce_errors(self, squares_solvable):
        with pytest.raises(DimensionError):
            reduce_fre(squares_solvable, ("u9",))
        with pytest.raises(DimensionError):
            reduce_fre(squares_solvable, ())

    def test_random_consistent_reductions_preserve_solution_sets(self):
        # consistent-set reductions must not change the solution set
        rng = random.Random(55)
        frames = [
            builtin_frame(["godel"], 4),
            builtin_frame(["sq-left", "sq-right"], 4),
        ]
        checked = 0
        while checked < 55:
            frame = frames[checked % len(frames)]
            fre = random_solvable_instance(rng, frame, rng.randint(2, 4), rng.randint(1, 3))
            reducts = enumerate_reducts(associated_context(fre))
            proper = [Y for Y in reducts if len(Y) < len(fre.row_names)]
            if not proper:
                continue
            full = {
                w: {x.numerators for x in enumerate_solutions(fre).column(w).enumerated}
                for w in fre.col_names
            }
            for Y in proper:
                reduced = enumerate_solutions(reduce_fre(fre, Y))
                for w in fre.col_names:
                    got = {x.numerators for x in reduced.column(w).enumerated}
                    assert got == full[w], (fre.coeff, fre.sigma, fre.rhs, Y)
            checked += 1


class TestConstruction:
    def test_constructor_shape_checks(self, squares_frame):
        with pytest.raises(DimensionError):
            FreInstance(
                squares_frame, ("u1",), ("v1", "v2"), ("w",), [[1]], (0, 0), [[1]]
            )

    def test_sigma_rows_are_refused(self, squares_frame):
        # any entry numpy reads as an array is a row, not a triple index
        make = lambda sigma: FreInstance(
            squares_frame, ("u1",), ("v1", "v2"), ("w",), [[1, 2]], sigma, [[1]]
        )
        for row in ((0, 1), [0, 1], np.array([0, 1]), range(2), deque([0, 1])):
            with pytest.raises(DimensionError, match="one triple per unknown"):
                make((0, row))
        assert make((np.int64(1), 0)).sigma == (1, 0)

    def test_unsolvable_error_checks_its_gap_columns(self):
        stated = np.array([1, 2], dtype=np.int64)
        for args, kwargs in (
            ((["u", "v"],), {}),  # the gap is passed by keyword only
            ((), {"gap_columns": [("u", "w", 1, 2)] * 4}),
            ((), {"gap_columns": (["u"], ["w"], stated)}),
            ((), {"gap_columns": (["u"], ["w"], stated, stated)}),
        ):
            with pytest.raises(TypeError):
                UnsolvableError("no solution", *args, **kwargs)
        exc = UnsolvableError("no solution", gap_columns=(["u"] * 2, ["w", "x"], stated, stated))
        assert exc.gap_rows == (("u", "w", 1, 1), ("u", "x", 2, 2))
        assert UnsolvableError("no solution").gap_rows == ()

    def test_rhs_column_accessor(self, squares_solvable):
        col = squares_solvable.rhs_column("w")
        assert isinstance(col, FuzzySet)
        assert col.numerators == (2, 4, 0, 2, 0)
        with pytest.raises(KeyError):
            squares_solvable.rhs_column("nope")

    def test_associated_context_matches_coefficients(self, squares_solvable):
        ctx = associated_context(squares_solvable)
        assert ctx.attributes == squares_solvable.row_names
        assert ctx.objects == SQUARES_VARS
        assert ctx.relation == squares_solvable.coeff
