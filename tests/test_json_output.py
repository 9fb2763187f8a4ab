"""JSON output: ``io._dumps`` prints exactly what ``json.dumps(obj, indent=2)``
prints, on generated values, on fixed edge cases, on columnar ``_Records``,
on problem files and on CLI output larger than the golden file reaches."""

import copy
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_solvable_instance
from mafre import builtin_frame
from mafre.context import build_concept_lattice
from mafre.dual import dual_associated_context, dual_solutions, dual_solvability_gap
from mafre.errors import UnsolvableError
from mafre.fre import FreInstance, associated_context, enumerate_solutions, solvability_gap
from mafre.io import (
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
# equal-length rows go through the matrix template, ragged ones row by row
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
FIXED += RECORDS + NEAR_MISSES


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


def test_shared_list_written_once_per_indentation(monkeypatch):
    import mafre.io

    templates, template = [], mafre.io._row_template
    monkeypatch.setattr(
        mafre.io, "_row_template", lambda *a: templates.append(a) or template(*a)
    )
    m = [[1, 2], [3, 4]]
    columns = [{"column": w, "m": m, "p": [[5, 6]]} for w in "abc"]
    value = {"columns": columns, "again": m}
    assert _dumps(value) == json.dumps(value, indent=2)
    # each row template is opened one step past its matrix: m once inside
    # the records and once at the top, each of the three distinct p once
    assert sorted(templates) == [(2, "\n" + " " * 4)] + [(2, "\n" + " " * 8)] * 4


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
    dual = build_concept_lattice(dual_associated_context(dfre))
    payload = {"members": dual.extent_rows.tolist()}
    assert run(["lattice", str(large_files["dual"]), "--json"]) == (
        0, json.dumps(payload, indent=2) + "\n", ""
    )


# -- columnar records -------------------------------------------------------

INT_DTYPES = (np.int64, np.int32, np.int8, np.uint8, np.uint64)
# keys and values with format characters, quotes and non-ASCII characters
record_texts = st.one_of(texts, st.text("%ds\"\\é☃😀", max_size=5))


@st.composite
def record_lists(draw):
    """A ``_Records`` of 0..5 records: distinct str keys, each with a 1-D
    integer array, a 2-D integer array of width 0..4 or a list of str."""
    keys = draw(st.lists(record_texts, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 5))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["1-D", "2-D", "str"]))
        if kind == "str":
            columns.append(draw(st.lists(record_texts, min_size=count, max_size=count)))
            continue
        dtype = draw(st.sampled_from(INT_DTYPES))
        shape = (count,) if kind == "1-D" else (count, draw(st.integers(0, 4)))
        info = np.iinfo(dtype)
        size = int(np.prod(shape))
        entries = st.integers(int(info.min), int(info.max))
        values = draw(st.lists(entries, min_size=size, max_size=size))
        columns.append(np.array(values, dtype=dtype).reshape(shape))
    return _Records(keys, columns)


def plain(value):
    """``value`` with every ``_Records`` replaced by its list of dicts."""
    if isinstance(value, _Records):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in value.columns]
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


# _Records among plain values, at any depth
nested_records = st.recursive(
    st.one_of(scalars, int_rows, records(), record_lists()),
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


@pytest.mark.parametrize(
    "column",
    [
        np.array([True, False]),
        np.array([1.0, 2.0]),
        np.zeros((2, 1, 1), dtype=np.int64),
        np.array(["a", "b"]),
        np.int64(3),
        [1, 2],
        ("a", "b"),
        ["a", None],
        [np.str_("a"), "b"],
    ],
    ids=repr,
)
def test_records_refuse_other_columns(column):
    with pytest.raises(TypeError):
        _dumps(_Records(("a",), (column,)))


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
    entries, its dual transpose, and a seeded 6 x 4 system at n = 9."""
    rng = random.Random(23)
    frame = builtin_frame(["godel", "sq-left", "sq-right"], 9)
    draw = lambda rows, cols: [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)]
    unsolvable = FreInstance.from_numerators(
        frame, [f"u{i}%" for i in range(6)], ["v0", "v1", "v2"],
        [f"w{j}" for j in range(40)], draw(6, 3), [0, 1, 2], draw(6, 40),
    )
    lattice = FreInstance.from_numerators(
        frame, [f"u{i}" for i in range(6)], [f"v{k}" for k in range(4)], ["w"],
        draw(6, 4), [0, 1, 2, 0], draw(6, 1),
    )
    directory = tmp_path_factory.mktemp("gap")
    primal = problem_from_instance(unsolvable).to_json()
    paths = {}
    for key, problem in (
        ("primal", primal),
        ("dual", transpose(primal)),
        ("lattice", problem_from_instance(lattice).to_json()),
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
