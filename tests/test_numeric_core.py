"""The numeric core: an instance is its context plus a rhs numerator array.

The coefficients and sigma of an instance are held only by its (dual)
associated context, as int64 arrays, and the rhs only as ``_rhs_array``;
``coeff``, ``rhs``, ``relation`` and ``sigma`` are GranularValue views.
These tests check that the GranularValue and numerator constructors agree,
that rebuilt instances and contexts hold their parent's arrays sliced or
transposed, that every entry is validated with the documented errors, and
that loading a problem file builds no GranularValue at all.
"""

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

from mafre import (
    Context,
    DualContext,
    DualFreInstance,
    FreInstance,
    GranularValue,
    approximate_by_reduct,
    associated_context,
    build_concept_lattice,
    builtin_frame,
    dual_reduce,
    enumerate_solutions,
    find_feasible_reducts,
    is_consistent,
    load_problem,
    predecessors,
    problem_from_instance,
    reduce_fre,
    restrict,
    solvability_gap,
)
from mafre.context import _generators
from mafre.io import ProblemFileError, _int_matrix, parse_problem
from mafre.errors import (
    DimensionError,
    GranularityMismatchError,
    InvalidTripleError,
    RangeError,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_data"
TRIPLES = ("godel", "sq-left", "sq-right")


def _gv(frame, rows):
    return [[frame.value(k) for k in row] for row in rows]


def _random_pairs(seed):
    """(built from GranularValues, built from numerators, coeff, sigma, rhs)
    for seeded random primal and dual instances, n = 1..6, all three triples."""
    rng = random.Random(seed)
    for n in range(1, 7):
        frame = builtin_frame(TRIPLES, n)
        for _ in range(4):
            nu, nv, nw = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            names = (
                [f"u{i}" for i in range(nu)],
                [f"v{i}" for i in range(nv)],
                [f"w{i}" for i in range(nw)],
            )
            sigma = [rng.randrange(len(TRIPLES)) for _ in range(nv)]
            rhs = [[rng.randint(0, n) for _ in range(nw)] for _ in range(nu)]
            for cls, shape in ((FreInstance, (nu, nv)), (DualFreInstance, (nv, nw))):
                coeff = [[rng.randint(0, n) for _ in range(shape[1])] for _ in range(shape[0])]
                yield (
                    cls(frame, *names, _gv(frame, coeff), sigma, _gv(frame, rhs)),
                    cls(frame, *names, coeff, sigma, rhs),
                    coeff,
                    sigma,
                    rhs,
                )


def _context(instance):
    if isinstance(instance, FreInstance):
        return associated_context(instance)
    return associated_context(instance.transposed())


class TestRoundTrip:
    def test_constructors_agree(self):
        for from_values, from_nums, coeff, sigma, rhs in _random_pairs(701):
            frame = from_nums.frame
            for x in (from_values, from_nums):
                assert x._coeff_array.tolist() == coeff
                assert x._rhs_array.tolist() == rhs
                assert x._coeff_array.dtype == x._rhs_array.dtype == np.int64
                assert x.coeff == tuple(map(tuple, _gv(frame, coeff)))
                assert x.rhs == tuple(map(tuple, _gv(frame, rhs)))
                assert x.sigma == tuple(sigma)
            ctx, other = _context(from_values), _context(from_nums)
            assert ctx.relation == other.relation and ctx.sigma == other.sigma
            if isinstance(from_nums, FreInstance):
                assert ctx.relation == from_nums.coeff
            else:
                assert ctx.relation == tuple(zip(*from_nums.coeff))
            assert ctx.sigma == (tuple(sigma),) * len(ctx.attributes)

    def test_problem_file_round_trip(self):
        for _, x, coeff, sigma, rhs in _random_pairs(702):
            back = problem_from_instance(x).to_instance()
            assert type(back) is type(x)
            assert (back.row_names, back.var_names, back.col_names) == (
                x.row_names,
                x.var_names,
                x.col_names,
            )
            assert back.sigma == x.sigma
            assert np.array_equal(back._coeff_array, x._coeff_array)
            assert np.array_equal(back._rhs_array, x._rhs_array)
            assert back.coeff == x.coeff and back.rhs == x.rhs

    def test_rebuilt_instances_slice_the_parent_arrays(self):
        rng = random.Random(703)
        for _, x, *_ in _random_pairs(703):
            ctx = _context(x)
            names = ctx.attributes
            keep = sorted(rng.sample(range(len(names)), rng.randint(1, len(names))))
            Y = [names[i] for i in keep]
            sub = restrict(ctx, Y)
            assert np.array_equal(sub._R, ctx._R[keep])
            assert np.array_equal(sub._SIG, ctx._SIG[keep])
            assert sub.relation == tuple(ctx.relation[i] for i in keep)
            if isinstance(x, FreInstance):
                reduced = reduce_fre(x, Y, enforce_consistency=False)
                assert np.array_equal(reduced._coeff_array, x._coeff_array[keep])
                assert np.array_equal(reduced._rhs_array, x._rhs_array[keep])
            else:
                reduced = dual_reduce(x, Y, enforce_consistency=False)
                assert np.array_equal(reduced._coeff_array, x._coeff_array[:, keep])
                assert np.array_equal(reduced._rhs_array, x._rhs_array[:, keep])
                primal = x.transposed()
                assert np.array_equal(primal._coeff_array, x._coeff_array.T)
                assert np.array_equal(primal._rhs_array, x._rhs_array.T)
                assert associated_context(primal) is ctx
            assert reduced.sigma == x.sigma


class TestValidation:
    @pytest.fixture(params=[FreInstance, DualFreInstance])
    def build(self, request):
        """A 2x2x2 instance of the class with one argument replaced."""
        frame = builtin_frame(["godel", "sq-left"], 4)
        cls = request.param

        def build(**changes):
            args = {
                "frame": frame,
                "row_names": ("u1", "u2"),
                "var_names": ("v1", "v2"),
                "col_names": ("w1", "w2"),
                "coeff": [[1, 2], [3, 4]],
                "sigma": [0, 1],
                "rhs": [[0, 1], [2, 3]],
            }
            args.update(changes)
            return cls(**args)

        return build

    def test_valid_inputs(self, build):
        assert build().rhs[1][1] == GranularValue(3, 4)
        numpy_ints = build(coeff=np.array([[1, 2], [3, 4]]), rhs=[[np.int64(0)] * 2] * 2)
        assert numpy_ints._coeff_array.tolist() == [[1, 2], [3, 4]]
        mixed = build(coeff=[[GranularValue(1, 4), 2], [3, GranularValue(4, 4)]])
        assert mixed._coeff_array.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize(
        "changes",
        [
            {"coeff": [[1, 2], [3]]},
            {"coeff": [[1, 2]]},
            {"rhs": [[0, 1], [2, 3, 4]]},
            {"rhs": np.zeros((2, 3), dtype=np.int64)},
            {"sigma": [0]},
            {"sigma": [[0, 1], [0, 1]]},
        ],
    )
    def test_wrong_shapes(self, build, changes):
        with pytest.raises(DimensionError):
            build(**changes)

    @pytest.mark.parametrize("key", ["coeff", "rhs"])
    def test_wrong_granularity(self, build, key):
        with pytest.raises(GranularityMismatchError):
            build(**{key: [[GranularValue(1, 5), 0], [0, 0]]})

    @pytest.mark.parametrize("bad", [5, -1, 1.7, 2.9, 2.0, True, "1", None])
    @pytest.mark.parametrize("key", ["coeff", "rhs"])
    def test_out_of_range_or_not_an_integer(self, build, key, bad):
        # a fractional numerator is an error, never truncated
        with pytest.raises(RangeError):
            build(**{key: [[0, bad], [0, 0]]})
        with pytest.raises(RangeError):
            build(**{key: np.array([[0.0, 1.5], [0.0, 0.0]])})

    @pytest.mark.parametrize("sigma", [[0, 2], [-1, 0], [0, 0.5]])
    def test_sigma_outside_triple_list(self, build, sigma):
        with pytest.raises(RangeError):
            build(sigma=sigma)

    def test_sigma_checked_without_equations(self):
        frame = builtin_frame(["godel"], 3)
        with pytest.raises(RangeError):
            FreInstance(frame, [], ["v"], ["w"], [], [1], [])
        with pytest.raises(RangeError):
            DualFreInstance(frame, ["u"], ["v"], [], [[]], [1], [[]])

    @pytest.mark.parametrize("key", ["row_names", "var_names", "col_names"])
    def test_duplicate_names(self, build, key):
        with pytest.raises(DimensionError):
            build(**{key: ("x", "x")})

    def test_fractional_numerators_are_rejected(self):
        frame = builtin_frame(["sq-left"], 4)
        with pytest.raises(RangeError):
            FreInstance(frame, ["u1"], ["v1"], ["w1"], [[1.7]], [0], [[1]])
        with pytest.raises(RangeError):
            DualFreInstance(frame, ["u1"], ["v1"], ["w1"], [[2.9]], [0], [[1]])

    def test_unknown_rhs_names(self, build):
        x = build()
        accessor = x.rhs_column if isinstance(x, FreInstance) else x.rhs_row
        with pytest.raises(KeyError):
            accessor("nope")

    def test_context_validation(self):
        frame = builtin_frame(["godel", "sq-left"], 4)
        rel = [[1, 2], [3, 4]]
        assert Context(frame, ["a", "b"], ["c", "d"], rel, [0, 1]).relation[1][0] == (
            GranularValue(3, 4)
        )
        with pytest.raises(DimensionError):
            Context(frame, ["a", "a"], ["b", "c"], rel, [0, 1])
        with pytest.raises(DimensionError):
            Context(frame, ["a", "b"], ["c", "c"], rel, [0, 1])
        with pytest.raises(DimensionError):
            Context(frame, ["a", "b"], ["c", "d"], [[1, 2], [3]], [0, 1])
        with pytest.raises(GranularityMismatchError):
            Context(frame, ["a"], ["c"], [[GranularValue(1, 2)]], [0])
        with pytest.raises(RangeError):
            Context(frame, ["a"], ["c"], [[0.5]], [0])
        with pytest.raises(RangeError):
            Context(frame, ["a"], ["c"], [[1]], [[2]])
        with pytest.raises(DimensionError):
            DualContext(frame, ["v", "v"], ["w"], [[1], [2]], [0, 0])
        with pytest.raises(DimensionError):
            DualContext(frame, ["v"], ["w", "w"], [[1, 2]], [0])
        with pytest.raises(DimensionError):
            DualContext(frame, ["v", "x"], ["w", "y"], [[1, 2], [3]], [0, 0])


def _loop_numerator(v, n, what):
    if isinstance(v, GranularValue):
        if v.granularity != n:
            raise GranularityMismatchError(f"{what} value {v} on a [0,1]_{n} frame")
        return v.numerator
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise RangeError(f"{what} entry {v!r} is not an integer")
    if not 0 <= v <= n:
        raise RangeError(f"{what} entry {v} outside [0, {n}]")
    return v


def _loop_matrix(rows, n_rows, n_cols, what, n):
    """The entry-by-entry check of instance matrices, the reference for the
    vectorised ``context._matrix``."""
    rows = [[_loop_numerator(v, n, what) for v in row] for row in rows]
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise DimensionError(f"{what} must be {n_rows}x{n_cols}")
    return np.array(rows, dtype=np.int64).reshape(n_rows, n_cols)


def _loop_int_matrix(data, n_rows, n_cols, n, what):
    """The entry-by-entry check of file matrices, the reference for the
    vectorised ``io._int_matrix``."""
    if not (isinstance(data, list) and len(data) == n_rows):
        raise ProblemFileError(f"{what} must have {n_rows} rows")
    for row in data:
        if not (isinstance(row, list) and len(row) == n_cols):
            raise ProblemFileError(f"{what} rows must have {n_cols} entries")
        for v in row:
            if not (isinstance(v, int) and not isinstance(v, bool)):
                raise ProblemFileError(f"{what} entries must be integers")
            if not 0 <= v <= n:
                raise ProblemFileError(f"{what} entry {v} outside [0, {n}]")
    return [list(row) for row in data]


def _outcome(fn):
    """The class and message of what ``fn()`` raises, or None."""
    try:
        fn()
    except Exception as exc:  # every error is compared, whatever its class
        return type(exc), str(exc)
    return None


# 2x2 matrices on [0,1]_4; the first bad entry in row-major order names the error
MATRICES = [
    [[True, 1], [0, 2]],
    [[1, 2], [0, False]],
    [[1.0, 1], [0, 2]],
    [[2.5, 1], [0, 2]],
    [["1", 1], [0, 2]],
    [[[1], 1], [0, 2]],
    [[None, 1], [0, 2]],
    [[-1, 1], [0, 2]],
    [[1, 5], [0, 2]],
    [[1, 2**70], [0, 2]],
    [[1, -(2**70)], [0, 2]],
    [[1, 2], [3]],
    [[1, 2, 3], [0, 1]],
    [[9, 2], [3]],
    [[1, 2]],
    [[1, 2], [0, 1], [0, 1]],
    [],
    [[1, 2], 3],
    [[1, 2], "ab"],
    [[1, 2], (3, 4)],
    [[9, "a"], [0, 1]],
    [["a", 9], [0, 1]],
    [[1, 9], [True, 0]],
    [[1, True], [9, 0]],
    [[GranularValue(1, 4), 1], [0, 2]],
    [[GranularValue(1, 5), 1], [0, 2]],
    [[np.int64(1), np.int64(2)], [np.int64(3), np.int64(4)]],
    [[np.int64(1), 5], [0, 2]],
    [[1, 2], [3, 4]],
]
ARRAYS = [
    np.array([[1, 2], [3, 4]]),
    np.array([[1, 2], [3, 4]], dtype=np.int32),
    np.array([[1, 5], [0, 2]]),
    np.array([[-1, 1], [0, 2]]),
    np.array([[0.0, 1.5], [0.0, 0.0]]),
    np.array([[True, False], [False, True]]),
    np.zeros((2, 3), dtype=np.int64),
    np.zeros((2, 2, 1), dtype=np.int64),
    np.zeros(4, dtype=np.int64),
]


class TestVectorisedChecks:
    """The vectorised entry checks raise what the entry-by-entry loops raised."""

    @pytest.mark.parametrize("matrix", MATRICES, ids=range(len(MATRICES)))
    @pytest.mark.parametrize("key", ["coefficients", "rhs"])
    def test_problem_file(self, key, matrix):
        data = {
            "granularity": 4,
            "triples": ["godel"],
            "rows": ["u1", "u2"],
            "variables": ["v1", "v2"],
            "columns": ["w1", "w2"],
            "coefficients": [[1, 2], [3, 4]],
            "sigma": [1, 1],
            "rhs": [[0, 1], [2, 3]],
        }
        expected = _outcome(lambda: _loop_int_matrix(matrix, 2, 2, 4, key))
        got = _outcome(lambda: parse_problem(dict(data, **{key: matrix})))
        assert got == expected

    @pytest.mark.parametrize("matrix", MATRICES + ARRAYS, ids=range(len(MATRICES + ARRAYS)))
    @pytest.mark.parametrize("key", ["coeff", "rhs"])
    @pytest.mark.parametrize("cls", [FreInstance, DualFreInstance])
    def test_instance(self, cls, key, matrix):
        frame = builtin_frame(["godel", "sq-left"], 4)
        args = {"coeff": [[1, 2], [3, 4]], "rhs": [[0, 1], [2, 3]], key: matrix}
        what = "relation" if key == "coeff" else "rhs"

        def build():
            return cls(
                frame, ("u1", "u2"), ("v1", "v2"), ("w1", "w2"), args["coeff"], [0, 1],
                args["rhs"],
            )

        expected = _outcome(lambda: _loop_matrix(matrix, 2, 2, what, 4))
        assert _outcome(build) == expected
        if expected is None:
            array = build()._coeff_array if key == "coeff" else build()._rhs_array
            assert array.tolist() == _loop_matrix(matrix, 2, 2, what, 4).tolist()

    def test_first_bad_entry_names_the_error(self):
        with pytest.raises(ProblemFileError, match=r"^rhs entry 9 outside \[0, 4\]$"):
            _int_matrix([[9, "a"]], 1, 2, 4, "rhs")
        with pytest.raises(ProblemFileError, match="^rhs entries must be integers$"):
            _int_matrix([["a", 9]], 1, 2, 4, "rhs")
        frame = builtin_frame(["godel"], 4)
        with pytest.raises(GranularityMismatchError):
            FreInstance(
                frame, ["u"], ["v"], ["w"], [[GranularValue(1, 5)]], [0], [[0]]
            )

    def test_accepted_inputs(self):
        frame = builtin_frame(["godel", "sq-left"], 4)
        expected = [[1, 2], [3, 4]]
        for coeff in (
            [[np.int64(k) for k in row] for row in expected],
            np.array(expected, dtype=np.int64),
            _gv(frame, expected),
            tuple(map(tuple, expected)),
        ):
            for cls in (FreInstance, DualFreInstance):
                fre = cls(
                    frame, ("u1", "u2"), ("v1", "v2"), ("w1", "w2"), coeff, [0, 1], coeff
                )
                assert fre._coeff_array.tolist() == expected
                assert fre._rhs_array.tolist() == expected

    def test_a_checked_array_is_a_copy(self):
        frame = builtin_frame(["godel"], 4)
        coeff = np.array([[1, 2], [3, 4]], dtype=np.int64)
        fre = FreInstance(
            frame, ["u1", "u2"], ["v1", "v2"], ["w"], coeff, [0, 0], [[1], [2]]
        )
        coeff[0, 0] = 4
        assert fre._coeff_array.tolist() == [[1, 2], [3, 4]]


class TestNoValuesOnLoad:
    @pytest.fixture()
    def built(self, monkeypatch):
        """Counts GranularValue constructions."""
        count = []
        post_init = GranularValue.__post_init__
        monkeypatch.setattr(
            GranularValue, "__post_init__", lambda v: count.append(v) or post_init(v)
        )
        return count

    def test_primal_file(self, built):
        for name in ("squares_solvable", "squares_unsolvable", "maxmin_solvable"):
            fre = load_problem(EXAMPLES / f"{name}.json").to_instance()
            associated_context(fre)._R
        assert built == []

    def test_dual_file(self, built, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(
            json.dumps(
                {
                    "granularity": 4,
                    "triples": ["godel", "sq-left"],
                    "orientation": "dual",
                    "rows": ["u1", "u2"],
                    "variables": ["v1", "v2", "v3"],
                    "columns": ["w1", "w2"],
                    "coefficients": [[3, 1], [2, 4], [0, 2]],
                    "sigma": [1, 2, 1],
                    "rhs": [[2, 3], [1, 2]],
                }
            )
        )
        dfre = load_problem(path).to_instance()
        associated_context(dfre.transposed())._R
        dfre.transposed()
        assert built == []
        rhs = dfre.rhs  # the view is built on first read, once
        assert len(built) == 4 and dfre.rhs is rhs and len(built) == 4
        assert [[v.numerator for v in row] for row in rhs] == [[2, 3], [1, 2]]


class TestGeneratorsOnce:
    def test_generators_are_cached_on_the_context(self):
        # the generators are gathered once per context: every later use,
        # by the solver, the lattice build and predecessors, gets the same
        # arrays back
        fre = load_problem(EXAMPLES / "squares_solvable.json").to_instance()
        ctx = associated_context(fre)
        assert ctx._gens is None
        first = enumerate_solutions(fre).columns[0]
        gens = ctx._gens
        assert gens is not None
        enumerate_solutions(fre)
        lattice = build_concept_lattice(ctx)
        predecessors(lattice, first.max_solution)
        assert _generators(ctx) is gens
        # restrict drops every cache: its generators are its own
        sub = restrict(ctx, ctx.attributes[:2])
        assert sub._gens is None
        rebuilt = Context(fre.frame, sub.attributes, sub.objects, sub.relation, sub.sigma)
        for got, expected in zip(_generators(sub), _generators(rebuilt)):
            assert np.array_equal(got, expected)

    def test_distinct_generators_are_sorted_for_the_families_alone(self):
        # the solver, the lattice build and predecessors read the chains;
        # only a consistency test or a reduct search sorts the distinct rows
        fre = load_problem(EXAMPLES / "squares_solvable.json").to_instance()
        ctx = associated_context(fre)
        enumerate_solutions(fre, materialize=True)
        lattice = build_concept_lattice(ctx)
        predecessors(lattice, lattice.extents()[-1])
        chains = ctx._gens[0]
        assert ctx._gens[1] is None
        assert is_consistent(ctx, ctx.attributes)
        assert _generators(ctx) is ctx._gens and ctx._gens[0] is chains
        nb, n = len(ctx.objects), fre.frame.granularity
        top = np.full((1, nb), n, dtype=np.int64)
        expected = np.unique(np.concatenate([chains.reshape(-1, nb), top]), axis=0)
        assert np.array_equal(ctx._gens[1], expected)

    def test_contexts_of_one_frame_share_its_stacked_tables(self):
        import mafre.algebra as algebra

        # the stacks are keyed on the triple objects: two loads of a file of
        # built-in triples share them, a new triple gets its own
        first, second = (
            associated_context(load_problem(EXAMPLES / "squares_solvable.json").to_instance())
            for _ in range(2)
        )
        for name in ("_CT", "_RT"):
            assert np.shares_memory(getattr(first, name), getattr(second, name))
            assert not getattr(first, name).flags.writeable
        algebra.builtin_triple.cache_clear()
        third = associated_context(load_problem(EXAMPLES / "squares_solvable.json").to_instance())
        assert not np.shares_memory(first._CT, third._CT)
        assert np.array_equal(first._CT, third._CT) and np.array_equal(first._RT, third._RT)


def _solved(fre):
    """The gap of a primal instance and, when it is solvable, every column's
    maximum, predecessors, count and solutions as lists."""
    gap = solvability_gap(fre)
    if gap:
        return gap, None
    return gap, [
        (c.column, c.max_row.tolist(), c.predecessor_rows.tolist(), c.count,
         c.solution_rows.tolist())
        for c in enumerate_solutions(fre).columns
    ]


def _summary(solutions):
    return [
        (c.column, c.max_row.tolist(), c.predecessor_rows.tolist(), c.count)
        for c in solutions.columns
    ]


@pytest.fixture()
def context_inits(monkeypatch):
    """Counts ``Context.__init__`` runs, a DualContext's included."""
    calls = []
    init = Context.__init__
    monkeypatch.setattr(
        Context, "__init__", lambda ctx, *args: calls.append(ctx) or init(ctx, *args)
    )
    return calls


class TestDerivedInstances:
    """Reduced, transposed and repaired instances are built on the checked
    arrays of their parent, without constructing a context, and solve exactly
    like instances built from the same arrays through the public constructors."""

    def test_reduced_and_transposed(self, context_inits):
        rng = random.Random(704)
        reduced_to_none = 0
        for _, x, *_ in _random_pairs(704):
            ctx = _context(x)
            names = ctx.attributes
            keep = sorted(rng.sample(range(len(names)), rng.randint(0, len(names))))
            if not keep and not is_consistent(ctx, ()):
                keep = [0]
            reduced_to_none += not keep
            Y = [names[i] for i in keep]
            before = len(context_inits)
            if isinstance(x, FreInstance):
                reduced = reduce_fre(x, Y, enforce_consistency=False)
                assert len(context_inits) == before
                public = FreInstance(
                    x.frame, Y, x.var_names, x.col_names,
                    x._coeff_array[keep].tolist(), x.sigma, x._rhs_array[keep].tolist(),
                )
                assert _solved(reduced) == _solved(public)
                continue
            primal = x.transposed()
            reduced = dual_reduce(x, Y, enforce_consistency=False)
            reduced_primal = reduced.transposed()
            assert len(context_inits) == before
            assert primal is x.transposed()
            primal_ctx = associated_context(primal)
            assert np.array_equal(primal_ctx._R, x._coeff_array.T)
            assert primal_ctx.attributes == x.col_names
            assert primal_ctx.frame.triples == tuple(t.opposite() for t in x.frame.triples)
            public = FreInstance(
                ctx.frame, x.col_names, x.var_names, x.row_names,
                x._coeff_array.T.tolist(), x.sigma, x._rhs_array.T.tolist(),
            )
            assert _solved(primal) == _solved(public)
            public = DualFreInstance(
                x.frame, x.row_names, x.var_names, Y,
                x._coeff_array[:, keep].tolist(), x.sigma, x._rhs_array[:, keep].tolist(),
            )
            assert (reduced.row_names, reduced.col_names) == (x.row_names, tuple(Y))
            assert _solved(reduced_primal) == _solved(public.transposed())
        assert reduced_to_none > 0

    def test_repaired(self, context_inits):
        repairs = 0
        for _, x, *_ in _random_pairs(705):
            fre = x if isinstance(x, FreInstance) else x.transposed()
            for Y in find_feasible_reducts(fre):
                before = len(context_inits)
                result = approximate_by_reduct(fre, Y, materialize_solutions=True)
                repaired = result.approximated_instance(fre)
                assert len(context_inits) == before
                assert associated_context(repaired) is associated_context(fre)
                public = FreInstance(
                    fre.frame, fre.row_names, fre.var_names, fre.col_names,
                    fre._coeff_array.tolist(), fre.sigma, result.t_star,
                )
                solved = _solved(public)
                assert not solved[0] and _solved(repaired) == solved
                assert _summary(result.solution_summary) == _summary(
                    enumerate_solutions(public)
                )
                repairs += 1
        assert repairs > 20


class TestVerifiedOnce:
    def test_dual_load_verifies_each_triple_once(self, monkeypatch, tmp_path):
        import mafre.algebra as algebra

        calls = []
        verify = algebra.verify_adjoint_triple
        spy = lambda t, lattice: calls.append(t.name) or verify(t, lattice)
        monkeypatch.setattr(algebra, "verify_adjoint_triple", spy)
        algebra.builtin_triple.cache_clear()
        data = {
            "granularity": 4,
            "triples": list(TRIPLES),
            "orientation": "dual",
            "rows": ["u1", "u2"],
            "variables": ["v1", "v2", "v3"],
            "columns": ["w1", "w2"],
            "coefficients": [[3, 1], [2, 4], [0, 2]],
            "sigma": [1, 2, 3],
            "rhs": [[2, 3], [1, 2]],
        }
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(data))
        dfre = load_problem(path).to_instance()
        assert calls == list(TRIPLES)
        dual_reduce(dfre, ["w1"], enforce_consistency=False).transposed()
        assert calls == list(TRIPLES)
        # the built-in triples of a second load are the verified ones
        load_problem(path).to_instance()
        assert calls == list(TRIPLES)
        # a triple given by its tables is a new triple on every load
        godel = algebra.builtin_triple("godel", 4)
        data["triples"][0] = {
            "name": "custom",
            "conj": [list(r) for r in godel.conj_table],
            "left_residuum": [list(r) for r in godel.left_residuum_table],
            "right_residuum": [list(r) for r in godel.right_residuum_table],
        }
        path.write_text(json.dumps(data))
        for _ in range(2):
            load_problem(path).to_instance()
        assert calls == [*TRIPLES, "custom", "custom"]
        # a triple that fails is marked nowhere, so it fails on every load
        data["triples"][0]["name"] = "broken"
        data["triples"][0]["conj"][4][4] = 0
        path.write_text(json.dumps(data))
        for _ in range(2):
            with pytest.raises(InvalidTripleError, match="'broken' fails adjunction"):
                load_problem(path).to_instance()
        assert calls[len(TRIPLES) + 2 :] == ["broken", "broken"]

    def test_dual_load_checks_the_relation_once(self, monkeypatch):
        # the dual context checks S and keeps its transpose as the relation
        import mafre.context as context_mod

        calls = []
        check = context_mod._int64
        monkeypatch.setattr(
            context_mod, "_int64", lambda rows, *a: calls.append(a) or check(rows, *a)
        )
        from test_cli_golden import transpose

        primal = json.loads((EXAMPLES / "squares_unsolvable.json").read_text())
        counts = []
        for data in (primal, transpose(primal)):
            calls.clear()
            instance = parse_problem(data).to_instance()
            counts.append(len(calls))
        assert counts[0] == counts[1] == 3  # relation, sigma, rhs
        assert instance.transposed()._coeff_array.tolist() == primal["coefficients"]

    @pytest.mark.parametrize("orientation", ["primal", "dual"])
    def test_instance_follows_edited_lists(self, orientation, tmp_path):
        # the lists are the only stored form of a loaded file's matrices
        coeff = [[3, 1, 0], [2, 4, 1]] if orientation == "primal" else [
            [3, 1, 0, 2], [2, 4, 1, 0], [0, 2, 4, 4]
        ]
        rhs = [[2, 3, 0, 1], [1, 2, 4, 0]]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "granularity": 4, "triples": list(TRIPLES), "orientation": orientation,
            "rows": ["u1", "u2"], "variables": ["v1", "v2", "v3"],
            "columns": ["w1", "w2", "w3", "w4"], "coefficients": coeff,
            "sigma": [1, 2, 3], "rhs": rhs,
        }))
        problem = load_problem(path)
        instance = problem.to_instance()
        assert instance._coeff_array.tolist() == coeff == problem.coefficients
        assert instance._rhs_array.tolist() == rhs == problem.rhs
        problem.rhs[0][0] = 4
        problem.coefficients[1][2] = 0
        instance = problem.to_instance()
        assert instance._rhs_array[0, 0] == 4 and instance._coeff_array[1, 2] == 0
        problem.rhs = [[0] * 4, [1] * 4]
        assert problem.to_instance()._rhs_array.tolist() == [[0] * 4, [1] * 4]
        edited = dataclasses.replace(problem, coefficients=[[0] * len(r) for r in coeff])
        assert not edited.to_instance()._coeff_array.any()
        problem.rhs[1][3] = 5  # outside [0, 4]: checked again on every build
        with pytest.raises(RangeError):
            problem.to_instance()
