import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafre import (
    AdjointTriple,
    GranularLattice,
    GranularValue,
    builtin_frame,
    builtin_triple,
    verify_adjoint_triple,
)
from mafre.errors import (
    GranularityMismatchError,
    InvalidTripleError,
    RangeError,
    UnknownTripleError,
)
from mafre.algebra import BUILTIN_TRIPLE_NAMES, Frame


def _table_from_fn(n: int, fn):
    """The (n+1)x(n+1) table of ``fn`` over the numerators, one call per cell."""
    return tuple(tuple(fn(a, b) for b in range(n + 1)) for a in range(n + 1))


def test_granular_value_basic():
    v = GranularValue(7, 8)
    assert v.fraction == Fraction(7, 8)
    assert float(v) == 0.875
    assert GranularValue(0, 8) == GranularLattice(8).bottom


def test_granular_value_out_of_range():
    with pytest.raises(RangeError):
        GranularValue(9, 8)
    with pytest.raises(RangeError):
        GranularValue(-1, 8)
    with pytest.raises(RangeError):
        GranularValue(0, 0)


def test_order_and_lattice_ops():
    a, b = GranularValue(2, 8), GranularValue(5, 8)
    assert a < b and a <= b and b > a
    assert a.meet(b) == a and a.join(b) == b
    with pytest.raises(GranularityMismatchError):
        a.meet(GranularValue(1, 4))


def test_roundtrip_value_rational_value():
    for n in (1, 4, 8):
        for k in range(n + 1):
            v = GranularValue(k, n)
            f = v.fraction
            assert GranularValue(f.numerator * (n // f.denominator), n) == v


def test_builtin_sq_left_values():
    t = builtin_triple("sq-left", 8)
    # ceil(8 * 0.75^2 * 0.875) = ceil(3.9375) = 4
    assert t.conj(GranularValue(6, 8), GranularValue(7, 8)) == GranularValue(4, 8)
    # floor(8 * 0.25 / 0.75^2) = floor(3.55..) = 3
    assert t.right_residuum(GranularValue(2, 8), GranularValue(6, 8)) == GranularValue(3, 8)
    assert t.right_residuum(GranularValue(0, 8), GranularValue(6, 8)) == GranularValue(0, 8)


def test_builtin_godel_values():
    t = builtin_triple("godel", 8)
    assert t.conj(GranularValue(4, 8), GranularValue(7, 8)) == GranularValue(4, 8)
    assert t.conj(GranularValue(8, 8), GranularValue(3, 8)) == GranularValue(3, 8)


def test_residua_return_top_at_zero_divisor():
    for name in ("sq-left", "sq-right", "godel"):
        t = builtin_triple(name, 8)
        for k in range(9):
            assert t.right_residuum(GranularValue(k, 8), GranularValue(0, 8)).numerator == 8
            assert t.left_residuum(GranularValue(k, 8), GranularValue(0, 8)).numerator == 8


def test_builtin_tables_refuse_granularities_that_overflow_int64():
    with pytest.raises(RangeError):
        builtin_triple("sq-left", 46341)


def test_unknown_triple_name():
    with pytest.raises(UnknownTripleError):
        builtin_triple("product", 8)


@pytest.mark.parametrize("name", ["sq-left", "sq-right", "godel"])
@pytest.mark.parametrize("n", list(range(1, 17)))
def test_adjunction_exhaustive(name, n):
    report = verify_adjoint_triple(builtin_triple(name, n), GranularLattice(n))
    assert report.passed, report.witness


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_opposite_triples(n):
    def tables(t):
        return t.conj_table, t.left_residuum_table, t.right_residuum_table

    left, right, godel = (builtin_triple(name, n) for name in ("sq-left", "sq-right", "godel"))
    assert tables(left.opposite()) == tables(right)
    assert tables(godel.opposite()) == tables(godel)
    for t in (left, right, godel):
        back = t.opposite().opposite()
        assert (back.name, tables(back)) == (t.name, tables(t))
        assert verify_adjoint_triple(t.opposite(), GranularLattice(n))


def test_adjunction_failure_reports_witness():
    g = builtin_triple("godel", 4)
    bad = AdjointTriple(
        "max-with-godel-residua",
        4,
        _table_from_fn(4, max),
        g.left_residuum_table,
        g.right_residuum_table,
    )
    report = verify_adjoint_triple(bad, GranularLattice(4))
    assert not report.passed
    x, y, z = report.witness
    conj = bad.conj(x, y)
    first = x <= bad.left_residuum(z, y)
    second = conj <= z
    third = y <= bad.right_residuum(z, x)
    assert not (first == second == third)


def test_frame_rejects_bad_triple():
    g = builtin_triple("godel", 4)
    bad = AdjointTriple("bad", 4, _table_from_fn(4, max), g.left_residuum_table, g.right_residuum_table)
    with pytest.raises(InvalidTripleError) as exc:
        Frame(GranularLattice(4), [bad])
    assert exc.value.witness is not None


def test_triple_tables_must_hold_integers():
    """A float, bool or str entry is refused, not truncated or read as 1;
    int lists, tuple tables and int64 arrays build the same triple."""
    g = builtin_triple("godel", 2)
    conj, lres, rres = (list(map(list, table)) for table in g._tuples)

    def build(table):
        return AdjointTriple("t", 2, table, lres, rres)

    bad_tables = [
        [[0, 0, 0], [0, 1, 1], [0, 1, 0.7]],  # truncated to 0 before
        np.array(conj, dtype=float),
        [[0, 0, 0], [0, True, 1], [0, 1, 2]],  # read as 1 before
        [[0, 0, 0], [0, "1", 1], [0, 1, 2]],
        np.array(conj, dtype=bool),
    ]
    for table in bad_tables:
        with pytest.raises(RangeError):
            build(table)
    for table in (conj, g.conj_table, np.array(conj, dtype=np.int64)):
        assert build(table).conj_table == g.conj_table


def test_mixed_granularity_rejected():
    t = builtin_triple("godel", 8)
    with pytest.raises(GranularityMismatchError):
        t.conj(GranularValue(1, 4), GranularValue(1, 8))


@pytest.mark.parametrize("name", ["sq-left", "sq-right", "godel"])
@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_monotonicity_consequences(name, n):
    # conjunctor order-preserving in both args; residua order-preserving in
    # the first and order-reversing in the second
    t = builtin_triple(name, n)
    rng = range(n + 1)
    for a, b in product(rng, repeat=2):
        if a > 0:
            assert t.conj_table[a][b] >= t.conj_table[a - 1][b]
            assert t.conj_table[b][a] >= t.conj_table[b][a - 1]
            assert t.left_residuum_table[a][b] >= t.left_residuum_table[a - 1][b]
            assert t.left_residuum_table[b][a] <= t.left_residuum_table[b][a - 1]
            assert t.right_residuum_table[a][b] >= t.right_residuum_table[a - 1][b]
            assert t.right_residuum_table[b][a] <= t.right_residuum_table[b][a - 1]


@pytest.mark.parametrize("name", ["sq-left", "sq-right", "godel"])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_builtins_annihilate_at_bottom(name, n):
    # a property of these particular operators, not of adjoint triples at large
    t = builtin_triple(name, n)
    for k in range(n + 1):
        assert t.conj_table[0][k] == 0
        assert t.conj_table[k][0] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_adjunction_pointwise_random(n, data):
    name = data.draw(st.sampled_from(["sq-left", "sq-right", "godel"]))
    t = builtin_triple(name, n)
    x = data.draw(st.integers(0, n))
    y = data.draw(st.integers(0, n))
    z = data.draw(st.integers(0, n))
    first = x <= t.left_residuum_table[z][y]
    second = t.conj_table[x][y] <= z
    third = y <= t.right_residuum_table[z][x]
    assert first == second == third


def _closed_form_tables(name, n):
    """The built-in tables from their closed forms, one Python call per cell."""
    ceil = lambda p, q: -(-p // q)
    sqrt_div = lambda c, d: n if d == 0 else min(math.isqrt(n * n * c * d) // d, n)
    div_sq = lambda c, d: n if d == 0 else min(c * n * n // (d * d), n)
    if name == "sq-left":
        fns = (lambda a, b: ceil(a * a * b, n * n), sqrt_div, div_sq)
    elif name == "sq-right":
        fns = (lambda a, b: ceil(a * b * b, n * n), div_sq, sqrt_div)
    else:
        godel_res = lambda c, d: n if d <= c else c
        fns = (min, godel_res, godel_res)
    return tuple(_table_from_fn(n, fn) for fn in fns)


@pytest.mark.parametrize("name", ["sq-left", "sq-right", "godel"])
def test_builtin_tables_equal_closed_forms(name):
    for n in range(1, 65):
        t = builtin_triple(name, n)
        tables = (t.conj_table, t.left_residuum_table, t.right_residuum_table)
        assert tables == _closed_form_tables(name, n), n


def _loop_witness(t, n):
    """The first (x, y, z) breaking the adjunction, by the loop definition."""
    for x, y, z in product(range(n + 1), repeat=3):
        first = x <= t.left_residuum_table[z][y]
        second = t.conj_table[x][y] <= z
        third = y <= t.right_residuum_table[z][x]
        if not (first == second == third):
            return (x, y, z)
    return None


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_adjunction_witness_matches_loop_on_corrupted_tables(chunk, monkeypatch):
    import mafre.algebra as algebra

    if chunk is not None:
        monkeypatch.setattr(algebra, "_CHUNK", chunk)
    rng = random.Random(4)
    failures = 0
    for n in range(1, 9):
        for name in ("sq-left", "sq-right", "godel"):
            for _ in range(12):
                tables = [
                    [list(row) for row in table]
                    for table in _closed_form_tables(name, n)
                ]
                for _ in range(rng.randint(1, 3)):
                    rng.choice(tables)[rng.randint(0, n)][rng.randint(0, n)] = rng.randint(0, n)
                t = AdjointTriple("corrupted", n, *tables)
                report = verify_adjoint_triple(t, GranularLattice(n))
                expected = _loop_witness(t, n)
                assert report.passed == (expected is None)
                if expected is not None:
                    failures += 1
                    assert tuple(v.numerator for v in report.witness) == expected
    assert failures > 100  # most corruptions do break the adjunction


def _failures(t, n) -> np.ndarray:
    """``out[x, y, z]``: the three adjunction conditions disagree at (x, y, z)."""
    conj, lres, rres = t._tables
    k = np.arange(n + 1)
    x, y, z = k[:, None, None], k[None, :, None], k[None, None, :]
    first = x <= lres[z, y]
    second = conj[x, y] <= z
    third = y <= rres[z, x]
    return (first != second) | (second != third)


@pytest.mark.parametrize("n", list(range(1, 17)))
def test_opposite_verifies_as_the_original_builtins(n):
    lattice = GranularLattice(n)
    for name in BUILTIN_TRIPLE_NAMES:
        t = builtin_triple(name, n)
        report = verify_adjoint_triple(t, lattice)
        assert report.passed and verify_adjoint_triple(t.opposite(), lattice) == report


def test_opposite_verifies_as_the_original_on_corrupted_tables():
    """One corrupted entry: the opposite triple passes iff the original does,
    and fails at (x, y, z) exactly where the original fails at (y, x, z)."""
    rng = random.Random(5)
    failures = 0
    for n in range(1, 9):
        lattice = GranularLattice(n)
        for name in BUILTIN_TRIPLE_NAMES:
            for _ in range(12):
                tables = [
                    [list(row) for row in table]
                    for table in _closed_form_tables(name, n)
                ]
                rng.choice(tables)[rng.randint(0, n)][rng.randint(0, n)] = rng.randint(0, n)
                t = AdjointTriple("corrupted", n, *tables)
                report = verify_adjoint_triple(t, lattice)
                opposite = verify_adjoint_triple(t.opposite(), lattice)
                assert opposite.passed == report.passed
                failing = _failures(t, n)
                assert np.array_equal(_failures(t.opposite(), n), failing.transpose(1, 0, 2))
                if not report.passed:
                    failures += 1
                    x, y, z = (v.numerator for v in opposite.witness)
                    assert failing[y, x, z]
    assert failures > 50  # most corruptions do break the adjunction


def test_opposite_frame_is_not_verified_again(monkeypatch):
    import mafre.algebra as algebra

    frame = builtin_frame(BUILTIN_TRIPLE_NAMES, 6)
    calls = []
    verify = algebra.verify_adjoint_triple
    monkeypatch.setattr(
        algebra, "verify_adjoint_triple", lambda t, lat: calls.append(t) or verify(t, lat)
    )
    opposite = frame.opposite()
    assert calls == []
    assert opposite.lattice == frame.lattice
    assert [t.name for t in opposite.triples] == [t.name + "^op" for t in frame.triples]
    for t, o in zip(frame.triples, opposite.triples):
        assert np.array_equal(o._tables, t.opposite()._tables)
    for t, back in zip(frame.triples, opposite.opposite().triples):
        assert (back.name, back.conj_table) == (t.name, t.conj_table)


def test_builtin_triples_are_shared_and_read_only():
    t = builtin_triple("sq-left", 5)
    assert builtin_triple("sq-left", 5) is t
    with pytest.raises(ValueError):
        t._tables[0, 1, 1] = 0
    with pytest.raises(ValueError):
        t.opposite()._tables[1][2, 3] = 5
    custom = AdjointTriple("custom", 5, t.conj_table, t.left_residuum_table, t.right_residuum_table)
    with pytest.raises(ValueError):
        custom._tables[2, 0, 0] = 1


def test_builtin_triple_cache_is_bounded():
    maxsize = builtin_triple.cache_info().maxsize
    assert maxsize is not None and maxsize > len(BUILTIN_TRIPLE_NAMES)
    for n in range(1, maxsize + 2):
        builtin_triple("godel", n)
    assert builtin_triple.cache_info().currsize == maxsize


def test_opposite_is_built_once():
    t = builtin_triple("sq-right", 4)
    custom = AdjointTriple("custom", 4, t.conj_table, t.left_residuum_table, t.right_residuum_table)
    for triple in (t, custom):
        assert triple.opposite() is triple.opposite()
        assert triple.opposite().opposite() is triple


def test_a_verified_triple_still_needs_its_granularity():
    t = builtin_triple("godel", 5)
    Frame(GranularLattice(5), [t])
    assert t._verified
    with pytest.raises(GranularityMismatchError):
        Frame(GranularLattice(6), [t])


def test_isqrt_is_exact_near_squares():
    from mafre.algebra import _isqrt

    rng = random.Random(5)
    roots = [rng.randint(1, 2**31 - 2) for _ in range(300)] + [2**31 - 2, 94906265]
    values = [v for r in roots for v in (r * r - 1, r * r, r * r + 1)]
    got = _isqrt(np.array(values, dtype=np.int64)).tolist()
    assert got == [math.isqrt(v) for v in values]
