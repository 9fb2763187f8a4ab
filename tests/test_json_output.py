"""JSON output: ``io._dumps`` prints exactly what ``json.dumps(obj, indent=2)``
prints, on generated values, on fixed edge cases, on columnar ``_Records``,
on problem files and on CLI output larger than the golden file reaches."""

import copy
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_solvable_instance
from mafre import builtin_frame
from mafre.context import build_concept_lattice
from mafre.approx import diagnose, find_feasible_reducts, pessimistic_approximation
from mafre.dual import dual_approximate, dual_solutions, dual_solvability_gap
from mafre.errors import UnsolvableError
from mafre.fre import FreInstance, associated_context, enumerate_solutions, solvability_gap
from mafre.io import (
    MAX_GRANULARITY,
    _dumps,
    _Records,
    load_problem,
    parse_problem,
    problem_from_instance,
)
from test_cli_golden import EXAMPLES, NAMES, run, transpose

ints = st.integers(min_value=-(10**20), max_value=10**20)
# non-ASCII and control characters, quotes and backslashes
texts = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF), max_size=6)
scalars = st.one_of(st.none(), st.booleans(), ints, st.floats(), texts)
int_rows = st.lists(ints, min_size=1, max_size=5)
# matrices of one width, and ragged ones: each row is written on its own
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda width: st.lists(st.lists(ints, min_size=width, max_size=width), max_size=6)
)
ragged = st.lists(st.lists(ints, max_size=4), max_size=6)
# a bool, None or float among the ints of a row
mixed_rows = st.lists(st.one_of(ints, st.booleans(), st.none(), st.floats()), min_size=1)
keys = st.one_of(texts, ints, st.booleans(), st.none(), st.floats())


@st.composite
def records(draw):
    """Dicts with one sequence of str keys, each key's values all ints, all
    strs or all int rows (lists or tuples) of one width: one template each."""
    names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    columns = [
        draw(
            st.one_of(
                st.just(ints),
                st.just(texts),
                st.integers(1, 5).map(
                    lambda w: st.lists(ints, min_size=w, max_size=w).flatmap(
                        lambda row: st.sampled_from([row, tuple(row)])
                    )
                ),
            )
        )
        for _ in names
    ]
    count = draw(st.integers(1, 5))
    return [{k: draw(column) for k, column in zip(names, columns)} for _ in range(count)]


values = st.recursive(
    st.one_of(scalars, int_rows, matrices, ragged, mixed_rows, records()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=30,
)


# 300 examples, or more under a profile that asks for more (CI's ``ci``)
@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(values)
def test_dumps_equals_json_dumps_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2)


FIXED = [
    {"a": {"b": [{"c": [[1, 2], [3, 4]]}, []]}},
    [],
    {},
    [[]],
    [[], []],
    [[1, 2, 3], [4], [], [5, 6]],
    [[1, True]],
    [[1, 2], [True, 3]],
    [[1, None], [2.5, 3]],
    [1, None, 2.0, float("nan"), float("inf"), -float("inf")],
    (1, 2),
    ((1, 2), (3, 4)),
    [(1, 2), [3, 4]],
    {"éé☃": "\x00\x1f\n\t\"\\ 😀 \U0001f600"},
    {1: "a", -2: [1], 10**30: {}},
    {1.5: 1, True: 2, None: 3},
    [[-(10**30), 0], [7, 10**30]],
    [{"a": 1}, [1]],
]
# lists of records, with % signs, non-ASCII text and rows among their keys
# and values, written value by value
RECORDS = [
    [{"row": "u1", "column": "w", "stated": 4, "closed": 2}] * 3,
    [{"extent": [1, 2], "intent": (3,)}, {"extent": (4, 5), "intent": [6]}],
    [{"%": 1, "a%d": "%d", "%s%%": [2]}, {"%": 3, "a%d": "%s", "%s%%": [4]}],
    [{"s": "éé☃\"\\\x00\x1f\n 😀", "n": 1}, {"s": "%s %d %%", "n": 2}],
]
# and lists of dicts that differ in their keys, key order or value types
NEAR_MISSES = [
    [{}, {}],
    [{1: 2}, {True: 3}],
    [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
    [{"a": 1}, {"a": 2, "b": 3}],
    [{"a": 1}, {"a": True}],
    [{"a": []}, {"a": []}],
    [{"a": [1]}, {"a": []}],
    [{"a": [1, 2]}, {"a": [3]}],
    [{"a": [1, 2]}, {"a": [3, True]}],
    [{"a": 1}, {"a": 1.5}],
    [{"a": 1}, {"a": "1"}],
    [{"a": {"b": 1}}, {"a": {"b": 2}}],
    [{"m": [[1, 2]]}, {"m": [[1, 2], [3, 4]]}],
]
# and the constants beside the numbers equal to them
CONSTANTS = [[True, 1.0, 1, False, 0.0, 0, None, {"ok": True, "no": False, "none": None}]]
FIXED += RECORDS + NEAR_MISSES + CONSTANTS


@pytest.mark.parametrize("value", FIXED, ids=range(len(FIXED)))
def test_dumps_fixed_cases(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@st.composite
def aliased(draw):
    """Values that hold the same list and tuple objects at several places,
    at equal and at different indentations, among equal but distinct copies:
    shared int rows, matrices, ragged rows, records and empty sequences, and
    shared lists of those."""
    pool = draw(
        st.lists(
            st.one_of(int_rows, int_rows.map(tuple), matrices, ragged, records(), st.just([])),
            min_size=1,
            max_size=3,
        )
    )
    pool += draw(st.lists(st.lists(st.sampled_from(pool), max_size=3), max_size=2))
    shared = st.sampled_from(pool)
    leaves = st.one_of(shared, shared.map(copy.deepcopy), scalars)
    return draw(
        st.recursive(
            leaves,
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=4).map(tuple),
                st.dictionaries(texts, inner, max_size=4),
            ),
            max_leaves=12,
        )
    )


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(aliased())
def test_dumps_of_shared_lists_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_dumps_rejects_what_json_rejects():
    for value in ({(1,): 2}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _dumps(value)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("orientation", ["primal", "dual"])
def test_problem_file_dumps(name, orientation):
    data = json.loads((EXAMPLES / f"{name}.json").read_text())
    pf = parse_problem(data if orientation == "primal" else transpose(data))
    assert pf.dumps() == json.dumps(pf.to_json(), indent=2)
    reread = problem_from_instance(pf.to_instance(), triples=pf.triples)
    assert reread.dumps() == json.dumps(reread.to_json(), indent=2)


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """A seeded primal instance with 2272 solutions over two columns and 207
    concepts, and its dual transpose, as problem files."""
    frame = builtin_frame(["sq-left", "sq-right", "godel"], 8)
    fre = random_solvable_instance(random.Random(2), frame, 4, 5, n_cols=2)
    directory = tmp_path_factory.mktemp("large")
    primal = problem_from_instance(fre).to_json()
    paths = {}
    for key, problem in (("primal", primal), ("dual", transpose(primal))):
        paths[key] = directory / f"{key}.json"
        paths[key].write_text(json.dumps(problem))
    return paths


def test_large_solve_enumerate_json(large_files):
    fre = load_problem(large_files["primal"]).to_instance()
    solutions = enumerate_solutions(fre, materialize=True)
    assert sum(c.count for c in solutions.columns) >= 500
    dfre = load_problem(large_files["dual"]).to_instance()
    for path, solved in (
        (large_files["primal"], solutions),
        (large_files["dual"], dual_solutions(dfre, materialize=True)),
    ):
        payload = {"solvable": True, "solutions": solved.to_json()}
        assert run(["solve", str(path), "--enumerate", "--json"]) == (
            0, json.dumps(payload, indent=2) + "\n", ""
        )


def test_large_lattice_json(large_files):
    fre = load_problem(large_files["primal"]).to_instance()
    lat = build_concept_lattice(associated_context(fre))
    assert len(lat) >= 100
    payload = {
        "concepts": [
            {"extent": e, "intent": i}
            for e, i in zip(lat.extent_rows.tolist(), lat.intent_rows.tolist())
        ]
    }
    assert run(["lattice", str(large_files["primal"]), "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )
    dfre = load_problem(large_files["dual"]).to_instance()
    dual = build_concept_lattice(associated_context(dfre.transposed()))
    payload = {"members": dual.extent_rows.tolist()}
    assert run(["lattice", str(large_files["dual"]), "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )


# -- columnar records -------------------------------------------------------

INT_DTYPES = (
    np.int64, np.int32, np.int16, np.int8, np.uint64, np.uint32, np.uint16, np.uint8,
)
# keys and values with format characters, quotes and non-ASCII characters
record_texts = st.one_of(texts, st.text("%ds\"\\é☃😀", max_size=5))


@st.composite
def int_arrays(draw, shape):
    """An integer array of ``shape`` over the whole range of its dtype."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    entries = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def record_arrays(draw):
    """One record's array: 1-D, or 2-D with 0..4 rows of width 0..4, at
    times a non-contiguous view (every other entry of each row, or the
    transpose)."""
    sides = st.integers(0, 4)
    shape = draw(st.one_of(st.tuples(sides), st.tuples(sides, sides)))
    view = draw(st.sampled_from(["whole", "strided", "transposed"]))
    if view == "strided":
        a = draw(int_arrays(shape[:-1] + (2 * shape[-1],)))
        return a[..., ::2]
    a = draw(int_arrays(shape[::-1]))
    return a.T if view == "transposed" else a


@st.composite
def record_lists(draw):
    """A ``_Records`` of 0..5 records: distinct str keys, each with a 1-D
    integer array, a 2-D integer array of width 0..4, a list of str, a list
    of ints, a list of arrays, one per record, drawn from a pool of up to
    three, so that records share them, or a (names, positions) pair."""
    keys = draw(st.lists(record_texts, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["1-D", "2-D", "str", "int", "arrays", "pair"]))
        if kind == "pair":
            names = tuple(draw(st.lists(record_texts, min_size=1, max_size=4)))
            at = st.integers(0, len(names) - 1)
            positions = draw(st.lists(at, min_size=count, max_size=count))
            dtype = draw(st.sampled_from([np.intp, np.int8, np.uint16]))
            columns.append((names, np.array(positions, dtype=dtype)))
        elif kind == "str":
            columns.append(draw(st.lists(record_texts, min_size=count, max_size=count)))
        elif kind == "int":
            columns.append(draw(st.lists(ints, min_size=count, max_size=count)))
        elif kind == "arrays":
            pool = draw(st.lists(record_arrays(), min_size=1, max_size=3))
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count)))
        else:
            shape = (count,) if kind == "1-D" else (count, draw(st.integers(0, 4)))
            columns.append(draw(int_arrays(shape)))
    return _Records(keys, columns)


def plain(value):
    """``value`` with every ``_Records`` replaced by its list of dicts and
    every array by its nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, _Records):
        columns = [
            c.tolist() if isinstance(c, np.ndarray)
            else [c[0][i] for i in c[1].tolist()] if type(c) is tuple
            else [x.tolist() if isinstance(x, np.ndarray) else x for x in c]
            for c in value.columns
        ]
        return [dict(zip(value.keys, entry)) for entry in zip(*columns)]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(plain, value))
    return value


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(record_lists())
def test_records_dump_as_their_dicts(records):
    assert _dumps(records) == json.dumps(plain(records), indent=2)


# _Records and integer arrays among plain values, at any depth
nested_records = st.recursive(
    st.one_of(scalars, int_rows, records(), record_lists(), record_arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(record_texts, inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(nested_records)
def test_nested_records_dump_as_their_dicts(value):
    assert _dumps(value) == json.dumps(plain(value), indent=2)


def test_records_edge_cases():
    empty = np.zeros((0, 3), dtype=np.int64)
    assert _dumps(_Records(("a", "b"), (empty, []))) == "[]"
    assert _dumps(_Records((), ())) == "[]"
    assert _dumps({"x": [_Records(("a",), ([],))]}) == json.dumps({"x": [[]]}, indent=2)
    # a row of width 0 is [] in every record, which no row template writes
    rows = _Records(("a%", "m"), (np.zeros((2, 0), dtype=np.int64), ["%s", "é"]))
    assert _dumps(rows) == json.dumps(plain(rows), indent=2)
    assert '"a%": []' in _dumps(rows)


@st.composite
def table_columns(draw, count):
    """A 1-D or 2-D record column of ``count`` records as the numeral table
    writes it: entries mostly in 0..MAX_GRANULARITY, with the values at and
    past both ends of the table and of the dtype (negative ones, ones above
    MAX_GRANULARITY), in any integer dtype, signed or unsigned, 2-D ones of
    width 0..4 (0 and 1 included)."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    top = MAX_GRANULARITY
    edges = [v for v in (0, -1, top, top + 1, info.min, info.max) if info.min <= v <= info.max]
    inside = st.integers(0, min(top, int(info.max)))
    entries = st.one_of(inside, inside, inside, st.sampled_from(edges))
    shape = draw(st.sampled_from([(count,), (count, draw(st.integers(0, 4)))]))
    values = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def table_records(draw):
    """One to three table columns of 0..5 records (mostly some; with none,
    every column is empty), under str keys, at a nesting depth of 0..2."""
    count = draw(st.sampled_from([0, 1, 2, 3, 5]))
    keys = draw(st.lists(record_texts, min_size=1, max_size=3, unique=True))
    value = _Records(keys, [draw(table_columns(count)) for _ in keys])
    for _ in range(draw(st.integers(0, 2))):
        value = {"a": value}
    return value


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(table_records())
def test_table_columns_dump_as_their_dicts(value):
    assert _dumps(value) == json.dumps(plain(value), indent=2)


UINT64_MAX = np.iinfo(np.uint64).max
TABLE_COLUMNS = [
    np.array([0, -1, MAX_GRANULARITY, MAX_GRANULARITY + 1, 2**40]),
    np.array([UINT64_MAX, 3, 600], dtype=np.uint64),
    np.array([255, 0, 7], dtype=np.uint8),
    np.array([-128, 127], dtype=np.int8),
    np.zeros(0, dtype=np.uint16),
    np.array([[0, MAX_GRANULARITY], [MAX_GRANULARITY + 1, 7]]),
    np.array([[MAX_GRANULARITY + 1, -1, 2**40]]),
    np.array([[-1], [5]], dtype=np.int8),
    np.array([[127, -128, 0]], dtype=np.int8),
    np.array([[UINT64_MAX, 0, UINT64_MAX], [3, UINT64_MAX, 9]], dtype=np.uint64),
    np.array([[np.iinfo(np.int64).min, MAX_GRANULARITY]]),
    np.array([[600, 1], [2, 65535]], dtype=np.uint16),
    np.zeros((0, 3), dtype=np.int64),
    np.zeros((3, 0), dtype=np.int64),
    np.arange(5).reshape(5, 1),
    np.arange(12, dtype=np.int32).reshape(3, 4).T,
]


@pytest.mark.parametrize("column", TABLE_COLUMNS, ids=lambda a: f"{a.dtype}{a.tolist()}")
def test_table_column_edge_cases(column):
    # entries the table holds, entries past it written in place, widths 0
    # and 1, zero rows and a transposed view, beside a second table column
    records = _Records(("e", "i"), (column, column[::-1]))
    for value in (records, {"x": [records]}):
        assert _dumps(value) == json.dumps(plain(value), indent=2)


CELL_COLUMNS = [
    np.zeros((3, 0), dtype=np.int64),
    np.array([[-1], [MAX_GRANULARITY + 1], [7]]),
    np.array([[0, -1, MAX_GRANULARITY], [MAX_GRANULARITY + 1, 2**40, 3], [5, 6, 7]]),
    np.array([[255, 0], [1, 2], [3, 4]], dtype=np.uint8),
]


@pytest.mark.parametrize("column", CELL_COLUMNS, ids=lambda a: f"{a.dtype}{a.tolist()}")
@pytest.mark.parametrize("at", [0, 2, 5])
def test_cell_columns_among_other_columns(column, at):
    # a 2-D column written cell by cell (none, one or several cells per
    # record, entries inside and outside the numeral table), first, inside
    # or last among a 1-D, a pair, a str, an int and an arrays column
    others = [
        np.array([-3, MAX_GRANULARITY + 1, 0]),
        (("x", "y"), np.array([1, 0, 1])),
        ["a", "é", "%s"],
        [1, -2, 2**70],
        [np.arange(2), np.arange(2), np.zeros((1, 2), dtype=np.int64)],
    ]
    columns = others[:at] + [column] + others[at:]
    records = _Records([f"k{i}" for i in range(len(columns))], columns)
    for value in (records, {"x": [records]}):
        assert _dumps(value) == json.dumps(plain(value), indent=2)


@pytest.mark.parametrize(
    "column",
    [
        np.array([True, False]),
        np.array([1.0, 2.0]),
        np.zeros((2, 1, 1), dtype=np.int64),
        np.array(["a", "b"]),
        np.int64(3),
        [1, True],
        ("a", "b"),
        (("a", "b"), np.array([[0, 1]])),
        (["a", "b"], np.array([0, 1])),
        (("a", "b"), np.array([0.0, 1.0])),
        ["a", None],
        [np.str_("a"), "b"],
    ],
    ids=repr,
)
def test_records_refuse_other_columns(column):
    with pytest.raises(TypeError):
        _dumps(_Records(("a",), (column,)))


@pytest.mark.parametrize(
    "array",
    [
        np.array([True, False]),
        np.array([[1.0, 2.0]]),
        np.int64(3),
        np.array(3),
        np.zeros((1, 1, 1), dtype=np.int64),
        [1, 2],
    ],
    ids=repr,
)
def test_records_refuse_other_arrays(array):
    # a column of per-record arrays holding one that is not a 1-D or 2-D
    # integer array, beside good ones
    good = np.arange(2)
    with pytest.raises(TypeError):
        _dumps(_Records(("a",), ([good, array, good],)))


def test_records_write_each_array_once(monkeypatch):
    import mafre.io

    written, arrays_text = [], mafre.io._arrays_text
    monkeypatch.setattr(
        mafre.io, "_arrays_text", lambda arrays, nl: written.extend(arrays) or arrays_text(arrays, nl)
    )
    a, b = np.arange(6).reshape(3, 2), np.arange(3)
    records = _Records(("x", "y", "n"), ([a, a, b], [b, a.copy(), a], [1, 2, 2**64]))
    assert _dumps(records) == json.dumps(plain(records), indent=2)
    # a and b, held by several records and both array columns, are written
    # once each; the copy of a is an array of its own
    assert [id(x) for x in written] == [id(a), id(b), id(records.columns[1][1])]



def test_records_gather_arrays_of_one_shape(monkeypatch):
    # the distinct arrays of a column with one dtype, number of dimensions
    # and row length are written from one gather, arrays without rows and
    # entries past the numeral table among them; a lone array of its shape
    # is written by its own template
    import mafre.io

    gathered, alone = [], []
    cells, rows_text = mafre.io._cells, mafre.io._rows_text
    monkeypatch.setattr(
        mafre.io, "_cells", lambda a, sep, close: gathered.append(a.shape) or cells(a, sep, close)
    )
    monkeypatch.setattr(
        mafre.io, "_rows_text", lambda a, nl: alone.append(a) or rows_text(a, nl)
    )
    a, past = np.arange(6).reshape(3, 2), np.array([[1, 10**6], [-3, 4]])
    empty, pair, small = np.zeros((0, 2), dtype=np.int64), np.arange(2), np.array([7, 600])
    narrow = np.arange(4, dtype=np.uint8).reshape(2, 2)
    records = _Records(("x",), ([a, empty, past, a, pair, small, narrow, past],))
    assert _dumps(records) == json.dumps(plain(records), indent=2)
    assert gathered == [(5, 2), (2, 2)]
    assert len(alone) == 1 and alone[0] is narrow

ARRAYS = [
    np.zeros((0, 3), dtype=np.int64),
    np.zeros((2, 0), dtype=np.uint8),
    np.zeros(0, dtype=np.int32),
    np.arange(12, dtype=np.int16).reshape(3, 4)[:, ::2],
    np.arange(12, dtype=np.int64).reshape(3, 4).T,
    np.arange(10, dtype=np.uint16)[::3],
    np.array([[np.iinfo(np.uint64).max, 0]], dtype=np.uint64),
    np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
]


@pytest.mark.parametrize("array", ARRAYS, ids=lambda a: f"{a.dtype}{a.shape}")
def test_dumps_writes_arrays_as_their_lists(array):
    for value in (array, {"a": [array, 1]}, [{"a": array}]):
        assert _dumps(value) == json.dumps(plain(value), indent=2)


@pytest.mark.parametrize(
    "array",
    [
        np.array([True, False]),
        np.array([[1.0, 2.0]]),
        np.zeros((1, 1, 1), dtype=np.int64),
        np.array(3),
    ],
    ids=repr,
)
def test_dumps_refuses_other_arrays(array):
    with pytest.raises(TypeError):
        _dumps(array)
    with pytest.raises(TypeError):
        _dumps({"a": [array]})


def test_records_refuse_other_keys():
    with pytest.raises(TypeError):
        _Records((1,), (np.arange(2),))
    with pytest.raises(ValueError):
        _Records(("a", "a"), (np.arange(2), np.arange(2)))
    with pytest.raises(ValueError):
        _Records(("a", "b"), (np.arange(2), np.arange(3)))


# -- the CLI's record lists -------------------------------------------------


@pytest.fixture(scope="module")
def gap_files(tmp_path_factory):
    """A seeded unsolvable primal system whose gap holds at least 150
    entries, its dual transpose, a seeded 6 x 4 system at n = 9, and a
    seeded unsolvable 6 x 3 system over 40 columns with feasible reducts
    (its first two equations share their coefficients but not their rhs)
    and its dual transpose."""
    rng = random.Random(23)
    frame = builtin_frame(["godel", "sq-left", "sq-right"], 9)
    draw = lambda rows, cols: [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)]
    unsolvable = FreInstance(
        frame, [f"u{i}%" for i in range(6)], ["v0", "v1", "v2"],
        [f"w{j}" for j in range(40)], draw(6, 3), [0, 1, 2], draw(6, 40),
    )
    lattice = FreInstance(
        frame, [f"u{i}" for i in range(6)], [f"v{k}" for k in range(4)], ["w"],
        draw(6, 4), [0, 1, 2, 0], draw(6, 1),
    )
    coeff = draw(6, 3)
    coeff[1] = coeff[0]
    repairable = FreInstance(
        frame, [f"u{i}" for i in range(6)], ["v0", "v1", "v2"],
        [f"w{j}" for j in range(40)], coeff, [0, 1, 2], draw(6, 40),
    )
    # the interior of every column is solvable; moving the first equation
    # off it makes the system unsolvable, and every reduct without it feasible
    rhs = _numerators(pessimistic_approximation(repairable))
    rhs[0] = [k + 1 if k < 9 else k - 1 for k in rhs[0]]
    repairable = repairable._with_rhs(np.array(rhs))
    directory = tmp_path_factory.mktemp("gap")
    primal = problem_from_instance(unsolvable).to_json()
    repair = problem_from_instance(repairable).to_json()
    paths = {}
    for key, problem in (
        ("primal", primal),
        ("dual", transpose(primal)),
        ("lattice", problem_from_instance(lattice).to_json()),
        ("repair", repair),
        ("repair_dual", transpose(repair)),
    ):
        paths[key] = directory / f"{key}.json"
        paths[key].write_text(json.dumps(problem))
    return paths


def gap_payload(gap) -> dict:
    """The ``solve --json`` payload of an unsolvable system, as dicts."""
    return {
        "solvable": False,
        "gap": [
            {"row": u, "column": w, "stated": old.numerator, "closed": new.numerator}
            for u, w, old, new in gap
        ],
    }


@pytest.mark.parametrize("orientation", ["primal", "dual"])
def test_unsolvable_solve_json_equals_the_dict_payload(gap_files, orientation):
    instance = load_problem(gap_files[orientation]).to_instance()
    gap = (solvability_gap if orientation == "primal" else dual_solvability_gap)(instance)
    assert len(gap) >= 150
    expected = json.dumps(gap_payload(gap), indent=2) + "\n"
    for flags in ([], ["--enumerate"]):
        argv = ["solve", str(gap_files[orientation]), "--json", *flags]
        assert run(argv) == (1, expected, "")


def test_lattice_json_equals_the_dict_payload(gap_files):
    fre = load_problem(gap_files["lattice"]).to_instance()
    lat = build_concept_lattice(associated_context(fre))
    assert len(lat) >= 100
    payload = {
        "concepts": [
            {"extent": e, "intent": i}
            for e, i in zip(lat.extent_rows.tolist(), lat.intent_rows.tolist())
        ]
    }
    assert run(["lattice", str(gap_files["lattice"]), "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )


def _numerators(matrix) -> list:
    return [[v.numerator for v in row] for row in matrix]


def test_approximate_json_equals_the_list_payload(gap_files, monkeypatch):
    import mafre.io

    shapes, rows_text = [], mafre.io._rows_text
    monkeypatch.setattr(
        mafre.io, "_rows_text", lambda a, nl: shapes.append(a.shape) or rows_text(a, nl)
    )
    repaired = 0
    for key in ("primal", "repair"):
        path, fre = str(gap_files[key]), load_problem(gap_files[key]).to_instance()
        payload = {"pessimistic_rhs": _numerators(pessimistic_approximation(fre))}
        assert run(["approximate", path, "--pessimistic", "--json"]) == (
            0, json.dumps(payload, indent=2) + "\n", ""
        )
        report = diagnose(fre)
        payload = {
            "diagnosis": report.to_json(),
            "approximations": [
                {
                    "reduct": list(r.reduct),
                    "t_star": _numerators(r.t_star),
                    "solution_counts": {c.column: c.count for c in r.solution_summary.columns},
                }
                for r in report.results
            ],
        }
        assert run(["approximate", path, "--json"]) == (0, json.dumps(payload, indent=2) + "\n", "")
        repaired += len(report.results)
    dfre = load_problem(gap_files["repair_dual"]).to_instance()
    results = [dual_approximate(dfre, Y) for Y in find_feasible_reducts(dfre.transposed())]
    payload = {
        "solvable": False,
        "feasible_reducts": [list(r.reduct) for r in results],
        "approximations": [
            {
                "reduct": list(r.reduct),
                "t_star": _numerators(r.t_star),
                "modified": {
                    f"{u}[{w}]": [old.numerator, new.numerator]
                    for (u, w), (old, new) in sorted(r.modified_rows.items())
                },
            }
            for r in results
        ],
    }
    assert run(["approximate", str(gap_files["repair_dual"]), "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )
    # the pessimistic rhs and every repaired rhs reach the writer as arrays
    assert repaired > 0 and results
    assert shapes == [(6, 40)] * (2 + repaired) + [(40, 6)] * len(results)


@pytest.mark.parametrize("orientation", ["primal", "dual"])
def test_counts_beyond_int64(tmp_path, orientation):
    # 0 = sup of 0 & x_v over 64 unknowns: every x of the 2^64 in [0,1]_1^64
    # solves each of the two columns
    primal = {
        "granularity": 1, "triples": ["godel"], "rows": ["u"],
        "variables": [f"v{i}" for i in range(64)], "columns": ["w1", "w2"],
        "coefficients": [[0] * 64], "sigma": [1] * 64, "rhs": [[0, 0]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(primal if orientation == "primal" else transpose(primal)))
    rc, text, _ = run(["solve", str(path)])
    assert rc == 0 and text.count("\n  18446744073709551616 solution") == 2
    rc, out, _ = run(["solve", str(path), "--json"])
    assert rc == 0 and out.count('"count": 18446744073709551616\n') == 2
    assert [c["count"] for c in json.loads(out)["solutions"]["columns"]] == [2**64] * 2


def test_json_record_lists_build_no_dicts(gap_files, monkeypatch):
    written, read = [], []
    text = _Records._text
    monkeypatch.setattr(
        _Records, "_text", lambda self, nl: written.append(self.keys) or text(self, nl)
    )
    gap_rows = UnsolvableError.gap_rows
    spy = property(lambda exc: read.append(exc) or gap_rows.func(exc))
    monkeypatch.setattr(UnsolvableError, "gap_rows", spy)
    for key in ("primal", "dual"):
        assert run(["solve", str(gap_files[key]), "--json"])[0] == 1
    assert run(["lattice", str(gap_files["lattice"]), "--json"])[0] == 0
    # the two gaps and the concept list reach the columnar writer
    gap = ("row", "column", "stated", "closed")
    assert written == [gap, gap, ("extent", "intent")] and read == []
    # the text output reads the entries
    assert run(["solve", str(gap_files["primal"])])[0] == 1
    assert len(read) == 1
