import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mafre import (
    FuzzySet,
    GranularValue,
    associated_context,
    attribute_interior,
    build_concept_lattice,
    builtin_frame,
    enumerate_reducts,
    is_consistent,
    lattice_to_dot,
    necessity,
    object_closure,
    possibility,
    predecessors,
    restrict,
)
from mafre.algebra import (
    BUILTIN_TRIPLE_NAMES,
    AdjointTriple,
    Frame,
    GranularLattice,
    builtin_triple,
)
from mafre.context import (
    ConceptLattice,
    Context,
    _families,
    _generators,
    _key_meet,
    _leq,
    _lower_covers,
    _meet_closure,
    _restrict,
    _row_covers,
    _row_keys,
    _unique_rows,
)
from mafre.dual import DualContext
from mafre.errors import (
    BudgetExceededError,
    DimensionError,
    GranularityMismatchError,
    IndexMismatchError,
    NotAnExtentError,
    RangeError,
)
from conftest import (
    SQUARES_ROWS,
    SQUARES_VARS,
    exhaustive_lattice,
    random_context,
    reference_dot,
    reference_lower_covers,
)


def fs(names, nums, n=8):
    return FuzzySet.from_numerators(names, nums, n)


class TestFuzzySetFromNumerators:
    def test_entries_are_checked(self):
        assert fs(("x", "y"), (np.int64(3), GranularValue(4, 4)), 4).numerators == (3, 4)
        for bad in (1.7, True, "2", 5, -1):
            with pytest.raises(RangeError):
                fs(("x",), (bad,), 4)
        with pytest.raises(GranularityMismatchError):
            fs(("x",), (GranularValue(1, 2),), 4)


class TestOperators:
    def test_possibility_of_max_solution(self, squares_context):
        g = fs(SQUARES_VARS, (0, 0, 0, 7, 0))
        assert possibility(g, squares_context).numerators == (2, 4, 0, 2, 0)

    def test_possibility_of_zero(self, squares_context):
        g = fs(SQUARES_VARS, (0,) * 5)
        assert possibility(g, squares_context).numerators == (0,) * 5

    def test_possibility_matches_maxmin_evaluator(self):
        # independent max-min evaluation on a random Goedel context
        rng = random.Random(11)
        frame = builtin_frame(["godel"], 6)
        ctx = random_context(rng, frame, 3, 3)
        for _ in range(20):
            g = fs(ctx.objects, [rng.randint(0, 6) for _ in range(3)], 6)
            expected = tuple(
                max(
                    min(ctx.relation[a][b].numerator, g.values[b].numerator)
                    for b in range(3)
                )
                for a in range(3)
            )
            assert possibility(g, ctx).numerators == expected

    def test_necessity_of_rhs_column(self, squares_context):
        f = fs(SQUARES_ROWS, (2, 4, 0, 2, 0))
        assert necessity(f, squares_context).numerators == (0, 0, 0, 7, 0)

    def test_necessity_second_rhs(self, squares_context):
        f = fs(SQUARES_ROWS, (4, 7, 3, 5, 1))
        assert necessity(f, squares_context).numerators == (1, 4, 8, 8, 4)

    def test_necessity_of_ones_is_ones(self):
        rng = random.Random(3)
        for names in (["sq-left"], ["sq-right"], ["godel"]):
            frame = builtin_frame(names, 5)
            ctx = random_context(rng, frame, 3, 4)
            f = fs(ctx.attributes, (5, 5, 5), 5)
            assert necessity(f, ctx).numerators == (5, 5, 5, 5)

    def test_index_mismatch_rejected(self, squares_context):
        with pytest.raises(IndexMismatchError):
            possibility(fs(("x", "y"), (0, 0)), squares_context)
        with pytest.raises(IndexMismatchError):
            necessity(fs(SQUARES_VARS, (0,) * 5), squares_context)

    def test_values_on_another_chain_rejected(self, squares_solvable):
        # on [0,1]_8, 4/16 is not read as 4/8, and 16/16 is no table index
        ctx = associated_context(squares_solvable)
        for k in (4, 16):
            g, f = fs(SQUARES_VARS, (k,) * 5, 16), fs(SQUARES_ROWS, (k,) * 5, 16)
            for op, arg in (
                (possibility, g), (object_closure, g), (necessity, f), (attribute_interior, f)
            ):
                with pytest.raises(GranularityMismatchError):
                    op(arg, ctx)

    def test_interior_of_infeasible_rhs(self, squares_context):
        f = fs(SQUARES_ROWS, (4, 7, 3, 5, 1))
        assert attribute_interior(f, squares_context).numerators == (2, 5, 1, 2, 1)

    def test_closure_fixpoint_on_extents(self, squares_context):
        lat = build_concept_lattice(squares_context)
        for concept in list(lat)[::7]:
            assert object_closure(concept.extent, squares_context) == concept.extent


class TestGaloisLaws:
    N_CONTEXTS = 110

    def _contexts(self):
        rng = random.Random(2024)
        frames = [
            builtin_frame(["godel"], 4),
            builtin_frame(["sq-left", "sq-right"], 5),
            builtin_frame(["sq-left", "godel"], 6),
        ]
        for i in range(self.N_CONTEXTS):
            frame = frames[i % len(frames)]
            yield rng, random_context(
                rng, frame, rng.randint(1, 4), rng.randint(1, 4)
            )

    def test_galois_connection_and_idempotence(self):
        for rng, ctx in self._contexts():
            n = ctx.frame.granularity
            g = fs(ctx.objects, [rng.randint(0, n) for _ in ctx.objects], n)
            f = fs(ctx.attributes, [rng.randint(0, n) for _ in ctx.attributes], n)
            # g <= f^down  iff  g^up <= f
            assert g.leq(necessity(f, ctx)) == possibility(g, ctx).leq(f)
            # closure inflationary + idempotent; interior deflationary + idempotent
            cg = object_closure(g, ctx)
            assert g.leq(cg) and object_closure(cg, ctx) == cg
            intf = attribute_interior(f, ctx)
            assert intf.leq(f) and attribute_interior(intf, ctx) == intf
            # down-up-down collapses to down
            assert necessity(possibility(necessity(f, ctx), ctx), ctx) == necessity(f, ctx)
            assert possibility(necessity(possibility(g, ctx), ctx), ctx) == possibility(g, ctx)

    def test_restriction_commutes_with_possibility_on_kept_rows(self):
        for rng, ctx in self._contexts():
            if len(ctx.attributes) < 2:
                continue
            n = ctx.frame.granularity
            keep = list(ctx.attributes[:-1])
            sub = restrict(ctx, keep)
            g = fs(ctx.objects, [rng.randint(0, n) for _ in ctx.objects], n)
            full = possibility(g, ctx)
            part = possibility(fs(ctx.objects, g.numerators, n), sub)
            for y in keep:
                assert full(y) == part(y)


class TestLattice:
    def test_forty_concepts_on_reduced_context(self, squares_context):
        lat = build_concept_lattice(restrict(squares_context, ["u1", "u2", "u3"]))
        assert len(lat) == 40

    def test_full_and_reduced_extents_agree(self, squares_context):
        full = build_concept_lattice(squares_context)
        reduced = build_concept_lattice(restrict(squares_context, ["u1", "u2", "u3"]))
        assert full.extent_set() == reduced.extent_set()

    def test_degenerate_1x1(self):
        for name in ("godel", "sq-left"):
            frame = builtin_frame([name], 4)
            ctx = Context(frame, ["a"], ["b"], [[frame.value(2)]], [0])
            lat = build_concept_lattice(ctx)
            top_closure = object_closure(fs(["b"], [4], 4), ctx)
            assert tuple(top_closure.numerators) in lat.extent_set()
            for c in lat:
                assert object_closure(c.extent, ctx) == c.extent

    def test_concepts_are_fixpoint_pairs(self, squares_context):
        lat = build_concept_lattice(squares_context)
        for c in lat:
            assert possibility(c.extent, squares_context) == c.intent
            assert necessity(c.intent, squares_context) == c.extent

    def test_meets_closed_joins_close_up(self, squares_context):
        sub = restrict(squares_context, ["u1", "u2", "u3"])
        lat = build_concept_lattice(sub)
        extents = list(lat.extent_set())
        rng = random.Random(5)
        for _ in range(50):
            e1, e2 = rng.choice(extents), rng.choice(extents)
            meet = tuple(min(a, b) for a, b in zip(e1, e2))
            join = tuple(max(a, b) for a, b in zip(e1, e2))
            # extents form a closure system: pointwise meets stay inside,
            # joins are recovered by closing the pointwise join
            assert meet in lat.extent_set()
            closed = object_closure(fs(SQUARES_VARS, join), sub)
            assert tuple(closed.numerators) in lat.extent_set()
            assert all(a <= b for a, b in zip(join, closed.numerators))

    def test_predecessor_of_max_extent(self, squares_context):
        lat = build_concept_lattice(restrict(squares_context, ["u1", "u2", "u3"]))
        preds = predecessors(lat, fs(SQUARES_VARS, (0, 0, 0, 7, 0)))
        assert [p.numerators for p in preds] == [(0, 0, 0, 5, 0)]

    def test_bottom_has_no_predecessors(self, squares_context):
        lat = build_concept_lattice(squares_context)
        bottom = min(lat.extents(), key=lambda e: e.numerators)
        assert predecessors(lat, bottom) == []

    def test_predecessors_match_brute_force(self):
        rng = random.Random(17)
        frame = builtin_frame(["sq-left", "godel"], 4)
        for _ in range(5):
            ctx = random_context(rng, frame, 3, 3)
            lat = build_concept_lattice(ctx)
            extents = [c.extent.numerators for c in lat]
            for e in extents:
                below = [
                    x
                    for x in extents
                    if x != e and all(a <= b for a, b in zip(x, e))
                ]
                expected = {
                    x
                    for x in below
                    if not any(
                        y != x
                        and all(a <= b for a, b in zip(x, y))
                        and all(a <= b for a, b in zip(y, e))
                        for y in below
                    )
                }
                got = {
                    p.numerators
                    for p in predecessors(lat, fs(ctx.objects, e, 4))
                }
                assert got == expected

    def test_lookup_reads_the_set_on_the_lattice(self, squares_solvable):
        # top is concept 39, with 2 lower covers; 8/16 everywhere and a set
        # over other names have top's numerators but are not that extent
        lat = build_concept_lattice(associated_context(squares_solvable))
        top = fs(SQUARES_VARS, (8,) * 5)
        assert lat.index_of(top) == 39 and len(predecessors(lat, top)) == 2
        for probe, error in (
            (fs(SQUARES_VARS, (8,) * 5, 16), GranularityMismatchError),
            (fs(tuple("abcde"), (8,) * 5), IndexMismatchError),
        ):
            with pytest.raises(error):
                lat.index_of(probe)
            with pytest.raises(error):
                predecessors(lat, probe)

    def test_not_an_extent_raises(self, squares_context):
        lat = build_concept_lattice(squares_context)
        probe = fs(SQUARES_VARS, (1, 1, 1, 1, 1))
        if tuple(probe.numerators) not in lat.extent_set():
            with pytest.raises(NotAnExtentError):
                predecessors(lat, probe)

    def test_constructor_refuses_rows_that_are_no_lattice(self):
        # entries that are no numerators in 0..n, rows of the wrong width,
        # rows that are no closure fixpoints and rows without top are refused
        frame = builtin_frame(["godel"], 4)
        ctx = Context(frame, ["a"], ["b1", "b2"], [[frame.value(2), frame.value(3)]], [0, 0])
        lat = build_concept_lattice(ctx)
        assert lat.extent_rows.tolist() == [[0, 0], [1, 1], [4, 2], [4, 4]]
        for rows, error in (
            ([[1.7, 9.0], [-3, 2]], RangeError),
            ([[0, 4], [-3, 2]], RangeError),
            ([[4, 4, 4]], DimensionError),
            ([[1, 2], [4, 4]], NotAnExtentError),
            (lat.extent_rows[:-1], NotAnExtentError),
            ([], NotAnExtentError),
        ):
            with pytest.raises(error):
                ConceptLattice(ctx, rows)
        assert ConceptLattice(ctx, lat.extent_rows[::-1].tolist()).covers() == lat.covers()

    @pytest.mark.parametrize("n, nb", [(4, 2), (1, 64), (2, 5)])
    def test_covers_refuse_rows_missing_a_lower_cover(self, n, nb):
        # extents holding top but not every lower cover of their members are
        # no lattice: the covers name the missing row instead of a self-loop
        # (3 x 2 at n = 4 and 3 x 5 at n = 2 take guard-bit words, 3 x 64 at
        # n = 1 rows), the first by extent, then by attribute, of the row
        # kernel's covers; at (2, 5) another row is first by attribute
        ctx = random_context(random.Random(nb), builtin_frame(["godel"], n), 3, nb)
        rows = build_concept_lattice(ctx).extent_rows
        assert len(rows) > 2
        part = ConceptLattice(ctx, rows[-2:])
        assert (part._words is None) == (nb == 64)
        candidates, covers = _row_covers(ctx, part.extent_rows, part.intent_rows)
        kept = set(map(tuple, part.extent_rows.tolist()))
        row = next(r for r in candidates[covers].tolist() if tuple(r) not in kept)
        message = f"the lower cover {row} of an extent is not in the lattice"
        with pytest.raises(NotAnExtentError) as raised:
            part.covers()
        assert str(raised.value) == message

    def test_exhaustive_oracle_gives_the_same_extents(self, squares_context):
        default = build_concept_lattice(squares_context)
        assert exhaustive_lattice(squares_context).extent_set() == default.extent_set()

    def test_dot_export_counts(self, squares_context):
        lat = build_concept_lattice(restrict(squares_context, ["u1", "u2", "u3"]))
        dot = lattice_to_dot(lat)
        assert dot.count("[label=") == 40
        assert dot.count("->") == len(lat.covers())
        assert "rankdir=BT" in dot


@st.composite
def key_rows(draw):
    """(w, a, b): two row arrays of one shape whose entries fit w - 1
    bits, mostly at 0 or at the top, 2^(w-1) - 1, with |B| w <= 63 (often
    exactly 63)."""
    w = draw(st.integers(2, 63))
    nb = draw(st.one_of(st.just(63 // w), st.integers(1, 63 // w)))
    top = (1 << (w - 1)) - 1
    entries = st.one_of(st.just(0), st.just(top), st.integers(0, top))
    shape = (draw(st.integers(1, 6)), nb)
    rows = hnp.arrays(np.int64, shape, elements=entries)
    return w, draw(rows), draw(rows)


class TestLatticeEngine:
    """The default engine closes the generator extents under meets; the
    object-side sweep ``exhaustive_lattice`` is its oracle."""

    def test_build_keeps_the_closure_rows(self, monkeypatch):
        # the closure's rows are distinct and sorted, so the lattice holds
        # them as they are; the constructor normalizes rows from elsewhere
        from mafre import context as context_mod

        found = []
        spy = lambda *a: found.append(_meet_closure(*a)) or found[-1]
        monkeypatch.setattr(context_mod, "_meet_closure", spy)
        frame = builtin_frame(["godel", "sq-left"], 4)
        for seed in range(5):
            ctx = random_context(random.Random(seed), frame, 3, 3)
            lat = build_concept_lattice(ctx)
            assert lat.extent_rows is found[-1][0]
            assert np.array_equal(lat.extent_rows, exhaustive_lattice(ctx).extent_rows)
            unsorted = np.concatenate([lat.extent_rows[::-1], lat.extent_rows[:2]])
            again = ConceptLattice(ctx, unsorted.tolist())
            assert np.array_equal(again.extent_rows, lat.extent_rows)

    # (n, |B|): guard-bit words of 3 x 5 = 15 bits, of 64 x 2 bits (bytes)
    @pytest.mark.parametrize("n, nb", [(4, 5), (1, 64)])
    def test_build_hands_its_words_to_the_lattice(self, n, nb, monkeypatch):
        # the lattice keeps the closure's words, and one built from its rows
        # derives equal words (None where the rows take the row path)
        from mafre import context as context_mod

        found = []
        spy = lambda *a: found.append(_meet_closure(*a)) or found[-1]
        monkeypatch.setattr(context_mod, "_meet_closure", spy)
        ctx = random_context(random.Random(nb), builtin_frame(["godel"], n), 3, nb)
        lat = build_concept_lattice(ctx)
        rows, words = found[-1]
        assert lat._words is words
        assert (words is None) == (nb * (n.bit_length() + 1) > 63)
        again = ConceptLattice(ctx, rows[::-1])
        if words is None:
            assert again._words is None
        else:
            assert np.array_equal(again._words, words)
            assert np.array_equal(again._words, _row_keys(rows, 1 << n.bit_length() + 1))

    @pytest.mark.parametrize(
        "n_attrs, n_objs", [(1, 1), (1, 3), (3, 1), (2, 4), (3, 3), (4, 2)]
    )
    def test_matches_object_sweep(self, n_attrs, n_objs, monkeypatch):
        from mafre import context as context_mod

        grid = context_mod._grid
        sweeps = []
        monkeypatch.setattr(
            context_mod, "_grid", lambda *args: sweeps.append(args) or grid(*args)
        )
        rng = random.Random(100 * n_attrs + n_objs)
        for n in range(1, 7):
            frame = builtin_frame(["sq-left", "sq-right", "godel"], n)
            for _ in range(3):
                ctx = random_context(rng, frame, n_attrs, n_objs)
                keep = rng.sample(ctx.attributes, rng.randint(1, n_attrs))
                for c in (ctx, restrict(ctx, keep)):
                    got = build_concept_lattice(c)
                    assert sweeps == []  # the default build sweeps no grid
                    expected = exhaustive_lattice(c)
                    assert sweeps  # the oracle does
                    sweeps.clear()
                    assert np.array_equal(got.extent_rows, expected.extent_rows)
                    assert got.covers() == expected.covers()

    def test_unique_rows_equals_numpy_unique(self):
        rng = np.random.default_rng(3)
        # (count, width, high, low, keyed): the rows are drawn from low..high-1;
        # they are keyed by an int64 in base radix = max + 1 when
        # radix^width <= 2^63 and no entry is negative, else by their bytes
        cases = (
            (300, 1, 2, 0, True),  # one column
            (300, 3, 4, 0, True),
            (300, 10, 101, 0, False),  # radix^width far beyond 2^63
            (300, 39, 3, 0, True),  # 3^39 just below 2^63
            (300, 40, 3, 0, False),  # 3^40 just above
            (300, 63, 2, 0, True),  # 2^63: the largest key is 2^63 - 1
            (300, 64, 2, 0, False),
            (2, 3, 5, 0, True),  # 2 rows
            (300, 4, 3, -1, False),  # negative entries
        )
        for count, width, high, low, keyed in cases:
            rows = rng.integers(low, high, size=(count, width))
            rows[0, 0], rows[-1, -1] = high - 1, low  # the radix and sign of the case
            assert np.array_equal(_unique_rows(rows), np.unique(rows, axis=0))
            assert _row_keys(rows).dtype.kind == ("i" if keyed else "V")
        # no rows, one row, all rows equal, no columns
        for shape in ((0, 2), (1, 3), (50, 4), (4, 0)):
            rows = np.full(shape, 7)
            assert np.array_equal(_unique_rows(rows), np.unique(rows, axis=0))

    @settings(deadline=None)
    @given(
        hnp.arrays(
            np.int64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=40),
            elements=st.one_of(st.integers(0, 12), st.integers(-(2**63), 2**63 - 1)),
        )
    )
    def test_unique_rows_property(self, rows):
        from mafre.context import _unique_rows

        assert np.array_equal(_unique_rows(rows), np.unique(rows, axis=0))

    def test_all_zero_coefficients_give_top_alone(self):
        for names in (["godel"], ["sq-left", "sq-right"]):
            frame = builtin_frame(names, 5)
            zeros = [[frame.value(0)] * 3 for _ in range(2)]
            sigma = [0, 0, len(names) - 1]
            ctx = Context(frame, ["a0", "a1"], ["b0", "b1", "b2"], zeros, sigma)
            for lat in (build_concept_lattice(ctx), exhaustive_lattice(ctx)):
                assert lat.extent_rows.tolist() == [[5, 5, 5]]
                assert lat.covers() == []

    def test_large_context_matches_exhaustive_lattice_and_cover_oracle(self):
        ctx = random_context(
            random.Random(61), builtin_frame(["sq-left", "sq-right", "godel"], 9), 6, 4
        )
        lat = build_concept_lattice(ctx)
        assert len(lat) > 250
        assert np.array_equal(lat.extent_rows, exhaustive_lattice(ctx).extent_rows)
        assert lat.covers() == _cover_oracle(lat.extent_rows)

    def test_rows_sorted_and_concepts_built_on_demand(self):
        rng = random.Random(8)
        frame = builtin_frame(["sq-left", "godel"], 4)
        for _ in range(10):
            lat = build_concept_lattice(random_context(rng, frame, 3, 3))
            rows = [tuple(e) for e in lat.extent_rows.tolist()]
            assert len(lat) == len(rows)
            for lazy in ("concepts", "intent_rows", "_index"):
                assert lazy not in vars(lat)
            assert np.array_equal(
                lat.intent_rows, lat.context.possibility_batch(lat.extent_rows)
            )
            assert lat._index == {e: i for i, e in enumerate(rows)}
            assert all(a < b for a, b in zip(rows, rows[1:]))
            assert [c.extent.numerators for c in lat] == rows
            assert [c.intent.numerators for c in lat] == [
                tuple(f) for f in lat.intent_rows.tolist()
            ]

    def test_dot_matches_line_by_line_rendering(self):
        rng = random.Random(12)
        frame = builtin_frame(["sq-left", "sq-right", "godel"], 4)
        contexts = [random_context(rng, frame, na, nb) for na, nb in ((3, 3), (2, 4), (4, 2))]
        contexts += [random_context(rng, frame, 3, 1) for _ in range(3)]  # label (k,)
        contexts += [restrict(c, ["a1"]) for c in contexts[:3]]  # intent (k,)
        contexts.append(_restrict(contexts[0], []))  # intent ()
        zeros = [[frame.value(0)] * 3 for _ in range(2)]
        contexts.append(Context(frame, ["a0", "a1"], ["b0", "b1", "b2"], zeros, [0, 1, 2]))
        contexts.append(
            random_context(
                random.Random(61), builtin_frame(["sq-left", "sq-right", "godel"], 9), 6, 4
            )
        )
        for ctx in contexts:
            lat = build_concept_lattice(ctx)
            for include_intents in (False, True):
                dot = lattice_to_dot(lat, include_intents=include_intents)
                assert dot == reference_dot(lat, include_intents)
        top_only = lattice_to_dot(build_concept_lattice(contexts[-2]))
        assert top_only.count("[label=") == 1 and "->" not in top_only
        assert len(lat) > 250

    @settings(deadline=None)
    @given(data=st.data(), include_intents=st.booleans())
    def test_dot_property(self, data, include_intents):
        # every built-in triple and a table triple, n up to 512 (the lattice
        # is kept small by fewer attributes at large n), labels (k,) at
        # |B| = 1 and intents of width 1 and 0, primal and dual
        n = data.draw(st.sampled_from([1, 2, 3, 4, 9, 64, 512]), label="n")
        kind = data.draw(st.sampled_from(["primal", "restricted", "none", "dual"]), label="kind")
        na = data.draw(st.integers(1, 4 if n < 64 else 2 if n == 64 else 1), label="na")
        nb = data.draw(st.integers(1, 4), label="nb")
        frame = _table_frame(n)
        triple = st.integers(0, len(frame.triples) - 1)

        def matrix(cell):
            row = st.lists(cell, min_size=nb, max_size=nb)
            return data.draw(st.lists(row, min_size=na, max_size=na))

        relation = matrix(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
        names = [f"a{i}" for i in range(na)], [f"b{i}" for i in range(nb)]
        if kind == "dual":
            sigma = data.draw(st.lists(triple, min_size=na, max_size=na))
            ctx = DualContext(frame, *names, relation, sigma)
        else:
            ctx = Context(frame, *names, relation, matrix(triple))
            if kind == "restricted":
                ctx = restrict(ctx, data.draw(st.sets(st.sampled_from(ctx.attributes), min_size=1)))
            elif kind == "none":
                ctx = _restrict(ctx, [])
        lat = build_concept_lattice(ctx)
        dot = lattice_to_dot(lat, include_intents=include_intents)
        assert dot == reference_dot(lat, include_intents)

    @pytest.mark.parametrize("include_intents", [False, True])
    def test_large_lattice_dot_peak(self, large_lattice, include_intents):
        """The DOT text of 7,035 concepts peaks below 8 times its length
        under tracemalloc (the cover pairs are computed before)."""
        large_lattice.covers()
        tracemalloc.start()
        try:
            dot = lattice_to_dot(large_lattice, include_intents=include_intents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dot == reference_dot(large_lattice, include_intents)
        assert peak < 8 * len(dot)

    def test_covers_computed_on_first_request(self):
        rng = random.Random(9)
        frame = builtin_frame(["sq-left", "godel"], 4)
        for render in (ConceptLattice.covers, lattice_to_dot):
            lat = build_concept_lattice(random_context(rng, frame, 3, 3))
            assert len(lat) > 1
            assert "_cover_pairs" not in vars(lat)
            render(lat)
            assert "_cover_pairs" in vars(lat)

    def test_lattice_budget(self, monkeypatch):
        # N extents hold N x |B| entries and their cover candidates
        # N x |A| x max(|A|, |B|); a lattice exactly at either budget builds
        from mafre import algebra

        rng = random.Random(13)
        frame = builtin_frame(["sq-left", "godel"], 4)
        for na, nb in ((4, 2), (2, 4), (3, 3)):
            ctx = random_context(rng, frame, na, nb)
            size = len(build_concept_lattice(_restrict(ctx, list(range(na)))))
            extents, covers = size * nb, size * na * max(na, nb)
            assert size > 1 and extents < covers
            monkeypatch.setattr(algebra, "MAX_ENTRIES", extents - 1)
            with pytest.raises(
                BudgetExceededError,
                match=f"^a concept lattice of at least \\d+ extents over {nb} objects"
                f" needs \\d+ entries, exceeds budget {extents - 1}$",
            ):
                build_concept_lattice(ctx)
            monkeypatch.setattr(algebra, "MAX_ENTRIES", extents)
            lat = build_concept_lattice(ctx)
            assert len(lat) == size
            monkeypatch.setattr(algebra, "MAX_ENTRIES", covers - 1)
            with pytest.raises(
                BudgetExceededError,
                match=f"^the covers of {size} concepts over {na} attributes and {nb}"
                f" objects needs {covers} entries, exceeds budget {covers - 1}$",
            ):
                lat.covers()
            monkeypatch.setattr(algebra, "MAX_ENTRIES", covers)
            assert lat.covers() == _cover_oracle(lat.extent_rows)
            monkeypatch.undo()


    # (n, |B|, keyed): a row of |B| entries in 0..n is keyed iff (n+1)^|B| <= 2^63
    KEY_BOUNDARY = [(1, 63, True), (1, 64, False), (2, 39, True), (2, 40, False)]

    @pytest.mark.parametrize("n, nb, keyed", KEY_BOUNDARY)
    def test_key_boundary(self, n, nb, keyed):
        # keyed rows are int64 keys, rows beyond int64 byte keys; the closure
        # and the cover map run the same code on both
        rng = random.Random(100 * n + nb)
        frame = builtin_frame(["godel"], n)
        for na in (1, 2, 3, 3):
            ctx = random_context(rng, frame, na, nb)
            chains, gens = _generators(ctx)
            assert _row_keys(gens).dtype.kind == ("i" if keyed else "V")
            extents = _meet_closure(chains)[0]
            expected = _subset_meets(gens)
            assert len(extents) == len(expected)
            assert np.array_equal(extents, expected)
            lat = ConceptLattice(ctx, extents)
            assert lat.covers() == _cover_oracle(lat.extent_rows)
            assert "_index" not in vars(lat)

    @settings(deadline=None)
    @given(
        st.one_of(st.integers(1, 9), st.integers(10, 300)).flatmap(
            lambda n: hnp.arrays(
                np.int64,
                st.tuples(st.integers(1, 8), st.integers(1, 70)),
                elements=st.integers(0, n),
            )
        )
    )
    def test_meet_closure_property(self, gens):
        # widths up to 70 cross the int64 key boundary at every n <= 9, and
        # the guard-bit key boundary |B| (bit_length(n) + 1) <= 63 at every
        # digit width up to n = 300; the chains [g, colmax] meet to the meets
        # of gens and colmax
        colmax = gens.max(axis=0)
        chains = np.stack([gens, np.broadcast_to(colmax, gens.shape)], axis=1)
        extents, words = _meet_closure(chains)
        expected = _subset_meets(np.concatenate([gens, colmax[None, :]]))
        assert len(extents) == len(expected)
        assert np.array_equal(extents, expected)
        w = int(max(gens.max(), 1)).bit_length() + 1
        if gens.shape[1] * w > 63:
            assert words is None
        else:
            assert np.array_equal(words, _row_keys(expected, 1 << w))

    @settings(deadline=None)
    @given(key_rows())
    def test_key_meet_is_the_minimum_property(self, drawn):
        # the meet of two guard-bit keys is the key of the entrywise minimum,
        # for every pair of rows (broadcast) and at the widest keys
        w, a, b = drawn
        nb = a.shape[1]
        guards = np.int64(sum(1 << (w * j + w - 1) for j in range(nb)))
        ka, kb = _row_keys(a, 1 << w), _row_keys(b, 1 << w)
        assert ka.dtype == np.int64
        expected = _row_keys(np.minimum(a[:, None, :], b).reshape(-1, nb), 1 << w)
        assert np.array_equal(_key_meet(kb, ka[:, None], guards, w).ravel(), expected)
        assert np.array_equal(_key_meet(ka, kb, guards, w), _row_keys(np.minimum(a, b), 1 << w))

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunk_size_changes_nothing(self, chunk, monkeypatch):
        # one chunk of meets holds at most _CHUNK entries, or one row's meets
        # with a chain, at most |gens| x |B|: entries of rows, or keys (one
        # per row) where the rows meet as guard-bit keys; the closure and the
        # families do not depend on it
        from mafre import context as context_mod

        rng = random.Random(17)
        contexts = [
            random_context(rng, builtin_frame(names, n), na, nb)
            for names, n, na, nb in (
                (["sq-left", "sq-right", "godel"], 4, 3, 3),
                (["sq-left", "godel"], 6, 4, 2),
                (["godel"], 5, 5, 1),
                (["sq-right", "godel"], 3, 2, 4),
                (["godel"], 1, 3, 70),
            )
        ]
        expected = [(_meet_closure(_generators(c)[0])[0], _families(c)) for c in contexts]
        sizes = []
        minimum, key_meet = np.minimum, context_mod._key_meet
        monkeypatch.setattr(context_mod, "_CHUNK", chunk)
        monkeypatch.setattr(
            context_mod.np,
            "minimum",
            lambda *args: sizes.append(np.broadcast(*args).size) or minimum(*args),
        )
        monkeypatch.setattr(
            context_mod,
            "_key_meet",
            lambda a, b, *args: sizes.append(np.broadcast(a, b).size) or key_meet(a, b, *args),
        )
        for ctx, (extents, families) in zip(contexts, expected):
            chains, gens = _generators(ctx)
            sizes.clear()
            got = _meet_closure(chains)[0]
            assert max(sizes) <= max(chunk, gens.size)
            assert len(got) == len(extents)
            assert np.array_equal(got, extents)
            assert _families(_restrict(ctx, list(range(len(ctx.attributes))))) == families

    def test_overflow_lattice_budget(self, monkeypatch):
        # rows of 64 Boolean entries have no int64 key: the closure checks
        # the same budget on rows keyed by their bytes
        from mafre import algebra

        ctx = random_context(random.Random(14), builtin_frame(["godel"], 1), 3, 64)
        assert _row_keys(_generators(ctx)[1]).dtype.kind == "V"
        size = len(build_concept_lattice(_restrict(ctx, [0, 1, 2])))
        assert size > 1
        monkeypatch.setattr(algebra, "MAX_ENTRIES", size * 64 - 1)
        with pytest.raises(
            BudgetExceededError,
            match=f"^a concept lattice of at least {size} extents over 64 objects"
            f" needs {size * 64} entries, exceeds budget {size * 64 - 1}$",
        ):
            build_concept_lattice(ctx)
        monkeypatch.setattr(algebra, "MAX_ENTRIES", size * 64)
        assert len(build_concept_lattice(ctx)) == size

    def test_families_hold_no_generator_cube(self):
        # 776 generators over 10 objects: the minima above each generator are
        # taken in chunks, below one |gens|^2 x |B| bool array (taken at once,
        # they filled an int64 array of that shape)
        ctx = random_context(random.Random(15), builtin_frame(["godel"], 99), 10, 10)
        gens = _generators(ctx)[1]
        assert len(gens) == 776
        tracemalloc.start()
        try:
            families = _families(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gens.size * len(gens)
        assert families and all(families)


def _cover_oracle(rows):
    """The cover pairs (lower, upper) of the extent order, ascending, as
    ``less & ~reach2`` from an int64 matrix product."""
    less = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
    np.fill_diagonal(less, False)
    reach2 = (less.astype(np.int64) @ less.astype(np.int64)) > 0
    i, j = np.nonzero(less & ~reach2)
    return list(zip(i.tolist(), j.tolist()))


def _subset_meets(gens):
    """The componentwise minima of every non-empty subset of ``gens``,
    distinct and sorted: the oracle of ``_meet_closure``."""
    subsets = range(1, 2 ** len(gens))
    meets = [gens[[i for i in range(len(gens)) if s >> i & 1]].min(axis=0) for s in subsets]
    return np.unique(np.array(meets), axis=0)


def _unchecked_frame(n):
    """The frame of the three built-in triples at ``n`` without the
    adjunction check, which test_algebra makes and which at n = 300 takes
    longer than a whole cover check."""
    frame = Frame.__new__(Frame)
    frame.lattice = GranularLattice(n)
    frame.triples = tuple(builtin_triple(name, n) for name in BUILTIN_TRIPLE_NAMES)
    return frame


def _boundary_context(rng, frame, na, nb):
    """A seeded context with relation entries in 0..r, r = n, 16 or 6 for
    one, two or three attributes.  The residuum k <- R(a, b) is top from
    k = R(a, b) on, so each generator chain has at most r + 1 distinct rows
    and the lattice at most (r + 1)^|A| extents, at any n."""
    n = frame.granularity
    r = min(n, (n, 16, 6)[na - 1])
    relation = [[rng.randint(0, r) for _ in range(nb)] for _ in range(na)]
    sigma = [rng.randrange(len(frame.triples)) for _ in range(nb)]
    names = [f"a{i}" for i in range(na)], [f"b{i}" for i in range(nb)]
    return Context(frame, *names, relation, sigma)


def _some_context(rng, frame, kind, na, nb):
    """A seeded random context of one of four kinds: ``primal``,
    ``restricted`` (a random non-empty subset of its attributes), ``none``
    (no attributes) and ``dual`` (a DualContext with na columns and nb
    variables)."""
    if kind == "dual":
        n = frame.granularity
        relation = [[rng.randint(0, n) for _ in range(na)] for _ in range(nb)]
        sigma = [rng.randrange(len(frame.triples)) for _ in range(nb)]
        names = [f"v{i}" for i in range(nb)], [f"w{i}" for i in range(na)]
        return DualContext(frame, *names, relation, sigma)
    ctx = random_context(rng, frame, na, nb)
    if kind == "restricted":
        return restrict(ctx, rng.sample(ctx.attributes, rng.randint(1, na)))
    if kind == "none":
        return _restrict(ctx, [])
    return ctx


def _lukasiewicz(n):
    """The Lukasiewicz triple, given by its tables: no built-in name covers
    it.  It is commutative, so both residua are min(n, n - y + z)."""
    z, y = np.ogrid[: n + 1, : n + 1]
    residuum = np.minimum(n - y + z, n)
    return AdjointTriple("lukasiewicz", n, np.maximum(z + y - n, 0), residuum, residuum)


@functools.lru_cache(maxsize=None)
def _table_frame(n):
    """The built-in triples and the Lukasiewicz table triple on [0,1]_n, one
    frame per n, so each triple's adjunction is checked once."""
    triples = [builtin_triple(t, n) for t in BUILTIN_TRIPLE_NAMES] + [_lukasiewicz(n)]
    return Frame(GranularLattice(n), triples)


def _closure_oracle(ctx, rows, kind):
    """``possibility`` or ``necessity`` of each row of ``rows`` (lists), entry
    by entry from the definitions: the sup of conjunctor lookups
    R(a, b) & g(b), or the inf of residuum lookups f(a) <- R(a, b), top over
    no attributes."""
    n, triples = ctx.frame.granularity, ctx.frame.triples
    R, S = ctx._R.tolist(), ctx.sigma
    A, B = range(len(ctx.attributes)), range(len(ctx.objects))
    if kind == "possibility":
        return [
            [max(triples[S[a][b]].conj_table[R[a][b]][g[b]] for b in B) for a in A]
            for g in rows
        ]
    return [
        [
            min((triples[S[a][b]].right_residuum_table[f[a]][R[a][b]] for a in A), default=n)
            for b in B
        ]
        for f in rows
    ]


class _Gathers(np.ndarray):
    """A triple table that records the size of every gather from it."""

    sizes = []

    def take(self, indices, *args, **kwargs):
        _Gathers.sizes.append(np.size(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


class TestClosureKernels:
    """``possibility_batch``, ``necessity_batch`` and ``_generators``, each
    one gather from the stacked triple tables, against the operators'
    definitions."""

    @staticmethod
    def _context(seed, kind):
        """A seeded random context over the built-in triples and the
        Lukasiewicz table triple, of one of ``_some_context``'s kinds; a
        primal one has a sigma per cell."""
        rng = random.Random(seed)
        n = rng.choice([1, 2, 3, 4, 9])
        frame = _table_frame(n)
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        if kind == "dual":
            return _some_context(rng, frame, kind, na, nb)
        relation = [[rng.randint(0, n) for _ in range(nb)] for _ in range(na)]
        sigma = [[rng.randrange(len(frame.triples)) for _ in range(nb)] for _ in range(na)]
        names = [f"a{i}" for i in range(na)], [f"b{i}" for i in range(nb)]
        ctx = Context(frame, *names, relation, sigma)
        if kind == "restricted":
            return restrict(ctx, rng.sample(ctx.attributes, rng.randint(1, na)))
        return _restrict(ctx, []) if kind == "none" else ctx

    def test_lukasiewicz_is_an_adjoint_triple(self):
        from mafre.algebra import verify_adjoint_triple

        for n in (1, 2, 3, 4, 9):
            assert verify_adjoint_triple(_lukasiewicz(n), GranularLattice(n))

    @pytest.mark.parametrize("chunk", [1, 7, None])
    @pytest.mark.parametrize("kind", ["primal", "restricted", "none", "dual"])
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 6))
    def test_kernels_match_their_definitions(self, chunk, kind, seed, k):
        from mafre import context as context_mod

        ctx = self._context(seed, kind)
        n, na, nb = ctx.frame.granularity, len(ctx.attributes), len(ctx.objects)
        rng = random.Random(~seed)
        G = np.array([[rng.randint(0, n) for _ in range(nb)] for _ in range(k)], dtype=np.int64)
        F = np.array([[rng.randint(0, n) for _ in range(na)] for _ in range(k)], dtype=np.int64)
        G, F = G.reshape(k, nb), F.reshape(k, na)
        ctx._CT, ctx._RT = ctx._CT.view(_Gathers), ctx._RT.view(_Gathers)
        _Gathers.sizes.clear()
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(context_mod, "_CHUNK", chunk)
            intents, extents = ctx.possibility_batch(G), ctx.necessity_batch(F)
            # a gather holds at most _CHUNK entries, or one row's |A| x |B|
            assert max(_Gathers.sizes, default=0) <= max(context_mod._CHUNK, na * nb)
            rows, gens = _generators(ctx)
        assert intents.tolist() == _closure_oracle(ctx, G.tolist(), "possibility")
        assert extents.tolist() == _closure_oracle(ctx, F.tolist(), "necessity")
        # the generator rows are the extents (top except a:k)^down
        tops = np.full((na, n + 1, na), n, dtype=np.int64)
        tops[np.arange(na), :, np.arange(na)] = np.arange(n + 1)
        expected = ctx.necessity_batch(tops.reshape(na * (n + 1), na))
        assert np.array_equal(rows, expected.reshape(na, n + 1, nb))
        top = np.full((1, nb), n, dtype=np.int64)
        assert np.array_equal(gens, np.unique(np.concatenate([expected, top]), axis=0))

    @pytest.mark.parametrize("kind", ["primal", "dual"])
    @pytest.mark.parametrize("batch", ["possibility_batch", "necessity_batch"])
    @pytest.mark.parametrize("entry", [-1, "n + 1", 0.5])
    def test_batches_refuse_entries_outside_the_chain(self, squares_solvable, kind, batch, entry):
        # -1 would wrap to top, n + 1 read a neighbouring table row
        ctx = associated_context(squares_solvable)
        if kind == "dual":
            ctx = _some_context(random.Random(1), squares_solvable.frame, kind, 3, 4)
        n = ctx.frame.granularity
        width = len(ctx.objects if batch == "possibility_batch" else ctx.attributes)
        row = np.zeros((2, width), dtype=np.float64 if entry == 0.5 else np.int64)
        row[1, 0] = n + 1 if entry == "n + 1" else entry
        with pytest.raises(RangeError):
            getattr(ctx, batch)(row)

    @pytest.mark.parametrize("batch", ["possibility_batch", "necessity_batch"])
    def test_batches_read_every_integer_dtype(self, squares_solvable, batch):
        ctx = associated_context(squares_solvable)
        rows = np.array([[0, 8, 3, 1, 5], [8, 8, 8, 8, 8]])
        expected = getattr(ctx, batch)(rows)
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.uint64):
            assert np.array_equal(getattr(ctx, batch)(rows.astype(dtype)), expected)
            assert getattr(ctx, batch)(rows.astype(dtype)).dtype == np.int64
        for bad in (np.array([[2**64 - 1] + [0] * 4], dtype=np.uint64), -rows.astype(np.int8)):
            with pytest.raises(RangeError):
                getattr(ctx, batch)(bad)
        for bad in (rows[:, :4], rows[0], rows[None]):
            with pytest.raises(DimensionError):
                getattr(ctx, batch)(bad)
        with pytest.raises(RangeError):
            getattr(ctx, batch)(rows.tolist())


class TestLowerCovers:
    """``_lower_covers``, the one cover rule behind ``covers()``,
    ``predecessors`` and the solver, against the cover relation of the whole
    lattice, ``less & ~reach2``, kept here as the oracle."""

    @staticmethod
    def _check(ctx):
        """Check ``covers()``, ``predecessors`` and the kernel's rows for every
        extent of the lattice of ``ctx``; return the extents and pairs."""
        lat = build_concept_lattice(ctx)
        rows = lat.extent_rows
        pairs = _cover_oracle(rows)
        assert lat.covers() == pairs
        candidates, covers = _lower_covers(ctx, rows, lat.intent_rows)
        for j in range(len(rows)):
            expected = rows[[i for i, k in pairs if k == j]]
            assert np.array_equal(_unique_rows(candidates[j][covers[j]]), expected)
            got = [p.numerators for p in predecessors(lat, lat._extent(j))]
            assert got == list(map(tuple, expected.tolist()))
        return rows, pairs

    def test_matches_cover_relation(self):
        rng = random.Random(43)
        sizes = 0
        for n in range(1, 7):
            frame = builtin_frame(["sq-left", "sq-right", "godel"], n)
            for _ in range(8):
                ctx = random_context(rng, frame, rng.randint(1, 4), rng.randint(1, 4))
                rows, pairs = self._check(ctx)
                sizes += len(rows)
                # rows[0] is the bottom: lexicographically least, covers nothing
                assert all(j != 0 for _, j in pairs)
        assert sizes > 500

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        kind=st.sampled_from(["primal", "restricted", "none", "dual"]),
        na=st.integers(1, 4),
        nb=st.integers(1, 4),
    )
    def test_covers_property(self, seed, n, kind, na, nb):
        frame = builtin_frame(["sq-left", "sq-right", "godel"], n)
        self._check(_some_context(random.Random(seed), frame, kind, na, nb))

    @staticmethod
    def _check_boundary(ctx):
        """``covers()`` against ``_cover_oracle``, and ``_lower_covers``
        against the row kernel for every extent; whether the rows took
        guard-bit words."""
        lat = build_concept_lattice(ctx)
        rows, intents = lat.extent_rows, lat.intent_rows
        assert lat.covers() == _cover_oracle(rows)
        candidates, covers = _lower_covers(ctx, rows, intents)
        row_candidates, row_covers = _row_covers(ctx, rows, intents)
        assert np.array_equal(covers, row_covers)
        assert np.array_equal(candidates[covers], row_candidates[row_covers])
        return lat._words is not None

    # (n, |B|): |B| (bit_length(n) + 1) is 62 / 64, 60 / 65 and 60 / 70 bits
    GUARD_BOUNDARY = [(1, 31, True), (1, 32, False), (9, 12, True), (9, 13, False),
                      (256, 6, True), (256, 7, False)]

    @pytest.mark.parametrize("n, nb, words", GUARD_BOUNDARY)
    def test_guard_bit_boundary(self, n, nb, words):
        rng = random.Random(1000 * n + nb)
        frame = builtin_frame(["sq-left", "sq-right", "godel"], n)
        for na in (1, 2, 3):
            ctx = _boundary_context(rng, frame, na, nb)
            assert self._check_boundary(ctx) == words

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(st.integers(1, 9), st.integers(10, 300)),
        wider=st.booleans(),
        na=st.integers(1, 3),
    )
    def test_covers_across_the_guard_bit_boundary_property(self, seed, n, wider, na):
        # |B| is the widest that fits one word at n, or one more, so the
        # cover relation runs on guard-bit words or on rows, at every digit
        # width up to n = 300
        nb = 63 // (n.bit_length() + 1) + wider
        ctx = _boundary_context(random.Random(seed), _unchecked_frame(n), na, nb)
        assert self._check_boundary(ctx) != wider

    def test_trivial_lattices(self):
        frame = builtin_frame(["godel", "sq-right"], 5)
        zeros = [[frame.value(0)] * 3 for _ in range(2)]
        objs = ["b0", "b1", "b2"]
        all_zero = Context(frame, ["a0", "a1"], objs, zeros, [0, 1, 1])
        no_attrs = Context(frame, [], objs, [], [0, 1, 0])
        for ctx in (all_zero, no_attrs):
            rows, pairs = self._check(ctx)
            assert rows.tolist() == [[5, 5, 5]] and pairs == []

    def test_large_lattice_matches_generator_meets(self, large_lattice):
        """7,035 concepts: every extent's covers, mapped to indices, are those
        of the generator-meet search."""
        lat = large_lattice
        assert len(lat) == 7035
        gens = _generators(lat.context)[1]
        expected = sorted(
            (lat._index[tuple(row)], j)
            for j, e in enumerate(lat.extent_rows)
            for row in reference_lower_covers(e, gens).tolist()
        )
        assert lat.covers() == expected

    def test_large_lattice_covers_hold_no_square_array(self, large_lattice):
        """The cover pairs of 7,035 concepts, intents included, peak below
        one N x N bool array under tracemalloc."""
        fresh = ConceptLattice(large_lattice.context, large_lattice.extent_rows)
        tracemalloc.start()
        try:
            fresh.covers()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(fresh) ** 2

    def test_leq_matches_broadcast(self):
        rng = np.random.default_rng(11)
        shapes = (
            ((), 0, 3, 2), ((), 3, 0, 2), ((), 0, 0, 4), ((), 1, 1, 1),
            ((), 7, 5, 3), ((), 40, 30, 6), ((4,), 6, 6, 3), ((0,), 2, 3, 2),
            ((3,), 5, 2, 0), ((2, 3), 4, 7, 5),
        )
        for batch, na, nb, width in shapes:
            a = rng.integers(0, 4, size=(*batch, na, width))
            b = rng.integers(0, 4, size=(*batch, nb, width))
            expected = (a[..., :, None, :] <= b[..., None, :, :]).all(axis=-1)
            got = _leq(a, b)
            assert got.shape == (*batch, na, nb)
            assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def large_lattice():
    """The lattice of a seeded uniform random context with |A| = 10,
    |B| = 7, n = 9 and all three triples: 7,035 concepts."""
    frame = builtin_frame(["sq-left", "sq-right", "godel"], 9)
    return build_concept_lattice(random_context(random.Random(1), frame, 10, 7))


class TestRestriction:
    def test_restrict_to_y1_matrix(self, squares_context):
        sub = restrict(squares_context, ["u1", "u2", "u3"])
        assert sub.attributes == ("u1", "u2", "u3")
        assert [[v.numerator for v in row] for row in sub.relation] == [
            [6, 4, 0, 4, 4],
            [4, 2, 2, 6, 8],
            [6, 4, 1, 0, 3],
        ]

    def test_restrict_identity(self, squares_context):
        sub = restrict(squares_context, SQUARES_ROWS)
        assert sub.attributes == squares_context.attributes
        assert sub.relation == squares_context.relation

    def test_restrict_composes(self, squares_context):
        twice = restrict(restrict(squares_context, ["u1", "u2", "u3"]), ["u2", "u3"])
        once = restrict(squares_context, ["u2", "u3"])
        assert twice.attributes == once.attributes
        assert twice.relation == once.relation

    def test_restrict_errors(self, squares_context):
        with pytest.raises(DimensionError):
            restrict(squares_context, [])
        with pytest.raises(IndexMismatchError):
            restrict(squares_context, ["nope"])


class TestConsistencyAndReducts:
    def test_y1_consistent(self, squares_context):
        assert is_consistent(squares_context, ("u1", "u2", "u3"))

    def test_all_attributes_consistent(self, squares_context):
        assert is_consistent(squares_context, SQUARES_ROWS)

    def test_y3_not_consistent(self, squares_context):
        assert not is_consistent(squares_context, ("u3", "u4"))

    def test_squares_reducts(self, squares_context):
        assert enumerate_reducts(squares_context) == [
            ("u1", "u2", "u3"),
            ("u2", "u3", "u4"),
        ]

    def test_maxmin_reducts(self, maxmin_solvable):
        from mafre import associated_context

        assert enumerate_reducts(associated_context(maxmin_solvable)) == [
            ("u1", "u2", "u3"),
            ("u1", "u3", "u4"),
        ]

    def test_reducts_are_minimal_consistent(self, squares_context):
        for Y in enumerate_reducts(squares_context):
            assert is_consistent(squares_context, Y)
            for a in Y:
                assert not is_consistent(
                    squares_context, tuple(x for x in Y if x != a)
                )

    def test_restricted_extents_are_full_extents(self):
        # extend a restricted attribute set by top outside Y: top <- x = top
        rng = random.Random(37)
        frame = builtin_frame(["sq-left", "sq-right", "godel"], 4)
        for _ in range(40):
            ctx = random_context(rng, frame, rng.randint(2, 5), rng.randint(1, 3))
            Y = rng.sample(ctx.attributes, rng.randint(1, len(ctx.attributes)))
            full = build_concept_lattice(ctx).extent_set()
            assert build_concept_lattice(restrict(ctx, Y)).extent_set() <= full

    def test_reducts_searched_once_per_context(self, monkeypatch):
        from mafre import context as context_mod

        ctx = random_context(random.Random(41), builtin_frame(["godel"], 3), 3, 2)
        checked = []  # one entry per search: each reads the families once
        families = context_mod._families
        monkeypatch.setattr(
            context_mod, "_families", lambda *a: checked.append(a) or families(*a)
        )
        first = enumerate_reducts(ctx)
        searched = len(checked)
        second = enumerate_reducts(ctx)
        assert searched and len(checked) == searched
        assert second == first and second is not first
        second.append(("extra",))
        assert enumerate_reducts(ctx) == first
        # a restricted context is a copy without the cache
        assert enumerate_reducts(restrict(ctx, ctx.attributes)) == first
        assert len(checked) > searched

    def test_generator_test_matches_restricted_lattices(self):
        # oracle: Y is consistent iff every full extent is an extent of the
        # context restricted to Y (the empty Y: iff the lattice is {top}); on
        # primal contexts and on dual ones, whose attributes are the columns
        from itertools import combinations

        def contexts():
            rng = random.Random(43)
            for i in range(240):
                n = 1 + i % 6
                frame = builtin_frame(["godel", "sq-left", "sq-right"], n)
                ctx = random_context(rng, frame, rng.randint(1, 5), rng.randint(1, 3))
                if i % 8 == 0:  # all-zero coefficients: the lattice is {top}
                    zero = [[frame.value(0)] * len(ctx.objects)] * len(ctx.attributes)
                    ctx = Context(frame, ctx.attributes, ctx.objects, zero, ctx.sigma)
                yield ctx
            rng = random.Random(44)
            for i in range(120):
                n = 1 + i % 6
                frame = builtin_frame(["godel", "sq-left", "sq-right"], n)
                nv, nw = rng.randint(1, 3), rng.randint(1, 5)
                S = [[rng.randint(0, n) for _ in range(nw)] for _ in range(nv)]
                if i % 8 == 0:  # S all zero: the lattice is {top}
                    S = [[0] * nw] * nv
                sigma = [rng.randrange(3) for _ in range(nv)]
                variables = [f"v{k}" for k in range(nv)]
                yield DualContext(frame, variables, [f"w{k}" for k in range(nw)], S, sigma)

        for ctx in contexts():
            n = ctx.frame.granularity
            full = build_concept_lattice(ctx).extent_set()
            oracle = {(): full == {(n,) * len(ctx.objects)}}
            subsets = [
                Y
                for size in range(len(ctx.attributes) + 1)
                for Y in combinations(ctx.attributes, size)
            ]
            for Y in subsets[1:]:
                restricted = build_concept_lattice(restrict(ctx, Y)).extent_set()
                oracle[Y] = full <= restricted
            assert {Y: is_consistent(ctx, Y) for Y in subsets} == oracle
            minimal = [
                Y
                for Y in subsets
                if oracle[Y]
                and not any(oracle[tuple(a for a in Y if a != d)] for d in Y)
            ]
            assert enumerate_reducts(ctx) == minimal

    def test_trivial_lattice_has_the_empty_reduct(self):
        frame = builtin_frame(["sq-left", "sq-right"], 5)
        zeros = [[frame.value(0)] * 3 for _ in range(2)]
        ctx = Context(frame, ["a0", "a1"], ["b0", "b1", "b2"], zeros, [0, 1, 0])
        assert enumerate_reducts(ctx) == [()]
        assert is_consistent(ctx, ()) and is_consistent(ctx, ["a1"])
        # a context with no attributes is the restriction to the empty reduct
        empty = Context(frame, [], ctx.objects, [], [0, 1, 0])
        assert build_concept_lattice(empty).extent_rows.tolist() == [[5, 5, 5]]
        assert enumerate_reducts(empty) == [()]

    def test_empty_set_is_inconsistent_on_a_proper_lattice(self, squares_context):
        assert not is_consistent(squares_context, ())
        with pytest.raises(IndexMismatchError, match=r"unknown attributes: \['nope'\]"):
            is_consistent(squares_context, ("u1", "nope"))

    def test_consistency_builds_no_lattice(self, squares_unsolvable, monkeypatch):
        from mafre import associated_context
        from mafre import context as context_mod
        from mafre.fre import FreInstance

        s = squares_unsolvable
        fre = FreInstance(
            s.frame, s.row_names, s.var_names, s.col_names, s.coeff, s.sigma, s.rhs
        )
        built = []
        lattice = context_mod.ConceptLattice
        monkeypatch.setattr(
            context_mod, "ConceptLattice", lambda *a: built.append(a) or lattice(*a)
        )
        ctx = associated_context(fre)
        assert enumerate_reducts(ctx) == [("u1", "u2", "u3"), ("u2", "u3", "u4")]
        assert is_consistent(ctx, ("u1", "u2", "u3"))
        assert not is_consistent(ctx, ("u3", "u4"))
        assert built == []

    def test_duplicate_rows_never_share_a_reduct(self):
        rng = random.Random(29)
        frame = builtin_frame(["godel", "sq-right"], 4)
        for _ in range(10):
            ctx = random_context(rng, frame, 3, 3)
            dup = Context(
                frame,
                list(ctx.attributes) + ["a_dup"],
                ctx.objects,
                list(ctx.relation) + [ctx.relation[0]],
                list(ctx.sigma) + [ctx.sigma[0]],
            )
            for Y in enumerate_reducts(dup):
                assert not ("a0" in Y and "a_dup" in Y)

    def test_reducts_by_brute_subset_scan(self):
        # definition-level cross-check: scan every subset, the empty one too
        from itertools import combinations

        rng = random.Random(31)
        frame = builtin_frame(["sq-left", "godel"], 4)
        contexts = [random_context(rng, frame, k, 2) for k in range(3, 11)]
        ctx = contexts[0]
        contexts.append(  # a duplicated row
            Context(
                frame,
                [*ctx.attributes, "a_dup"],
                ctx.objects,
                [*ctx.relation, ctx.relation[1]],
                [*ctx.sigma, ctx.sigma[1]],
            )
        )
        zero = [[frame.value(0)] * 2] * 4  # the lattice is {top}
        contexts.append(Context(frame, ["a0", "a1", "a2", "a3"], ["b0", "b1"], zero, [0, 1]))
        for ctx in contexts:
            consistent = {
                Y: is_consistent(ctx, Y)
                for size in range(len(ctx.attributes) + 1)
                for Y in combinations(ctx.attributes, size)
            }
            expected = [
                Y
                for Y, ok in consistent.items()
                if ok and not any(consistent[tuple(a for a in Y if a != d)] for d in Y)
            ]
            assert enumerate_reducts(ctx) == expected
        assert enumerate_reducts(contexts[-1]) == [()]
