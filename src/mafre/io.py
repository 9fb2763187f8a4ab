"""JSON problem files, and the JSON encoder of every output.

All values are integer numerators over a single granularity, so files are
exact by construction; decimal rendering happens only in human-facing output.
Triples are given by built-in name or as explicit operator tables, and sigma
uses 1-based indices into the triple list.  Every command reads its file
through ``load_instance``: the file is checked once, by ``_parse``, which
turns each matrix into an int64 array with one ``algebra._int64`` test, and
the instance is built from those arrays with no second check.
``load_problem`` and ``parse_problem`` give the ``ProblemFile`` of lists;
its ``to_instance`` hands the lists, which may have been edited, to the
instance constructors, which check them again.

``_dumps`` prints what ``json.dumps(obj, indent=2)`` prints, with a 1-D or
2-D integer array written as the nested lists it holds: a list of ints and
an integer array are one format operation each.  The large record lists
(the concepts of a lattice, the gap of an unsolvable system, the columns of
a solution set) reach it as ``_Records``, numerator arrays, int lists, str
lists and (names, positions) pairs held column by column, and are written
as one join of their values' texts with no dict built.  1-D and 2-D
columns (the gap's numerators, the extents and intents of a lattice) go
through a numeral table, the cached texts of 0..MAX_GRANULARITY with their
separators; a 2-D column is written cell by cell, each entry's text one
part of that join.  A pair (the gap's row and column names) goes through
the texts of its names, and a column of per-record arrays (the solution
arrays that columns share per distinct maximum) with each distinct array
once, the distinct arrays of one dtype and shape from one gather of that
table when there are several.  Any other list of dicts is written value by value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _str
from typing import List, Union

import numpy as np

from .algebra import (
    AdjointTriple,
    BUILTIN_TRIPLE_NAMES,
    Frame,
    GranularLattice,
    _int64,
    builtin_triple,
)
from .context import Context, _table_cells
from .dual import DualContext, DualFreInstance
from .errors import MafreError
from .fre import FreInstance


# the adjunction check of a triple grows as (n+1)^3 and its tables as (n+1)^2
MAX_GRANULARITY = 512


# json's own encoder for the leaves written neither inline nor by a template:
# bool, None, float, int and str subclasses (a float repr is exactly json's)
_scalar = json.JSONEncoder().encode
_intstr = int.__repr__
# the texts of the constants, looked up only for a bool or None (1.0 == True)
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _block(parts, nl: str, brackets: str = "[]") -> str:
    """``parts`` one per line, indented one step past ``nl`` (a newline plus
    the indentation of the line the block opens on), between ``brackets``."""
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]


@functools.lru_cache(maxsize=256)
def _row_template(length: int, nl: str) -> str:
    """The %-template of a row of ``length`` integers opened after ``nl``."""
    return _block(["%d"] * length, nl) if length else "[]"


def _cells(a: np.ndarray, sep: str, close: str) -> np.ndarray:
    """The texts of the entries of the 2-D integer array ``a`` (at least one
    column), as an object array of its shape, from one gather of a numeral
    table (``context._table_cells``): an entry is followed by ``sep``, and a
    row's last entry by ``close``.  An entry that the table does not hold
    (only a caller's array has one) is written in place by ``int.__repr__``."""
    top = MAX_GRANULARITY
    cells = _table_cells(a, top, sep, close)
    entries = a.astype(np.int64, copy=False).view(np.uint64)  # a negative is past top
    if entries.max(initial=0) > top:
        for i, j in zip(*np.nonzero(entries > top)):
            cells[i, j] = _intstr(int(a[i, j])) + (close if j == a.shape[1] - 1 else sep)
    return cells


def _split(cells: np.ndarray, opening: str) -> list:
    """The texts that the NULs in the join of ``cells`` (at least one)
    delimit, with ``opening`` before the first; the piece after the last NUL
    (the opening of a text after the last) is dropped."""
    cells[0, 0] = opening + cells[0, 0]
    text = "".join(cells.ravel().tolist())
    del cells  # before the texts are split off the joined one
    texts = text.split("\0")
    texts.pop()
    return texts


def _table_rows(a: np.ndarray, field: str) -> list:
    """The texts of the rows of the 2-D integer array ``a``, each opened
    after ``field``, from the cells of ``_cells`` split at the NULs: a row's
    last entry is followed by the row's closing, a NUL and the opening of
    the next row."""
    if not a.shape[1]:
        return ["[]"] * len(a)
    if not len(a):
        return []
    inner = field + "  "
    return _split(_cells(a, "," + inner, field + "]\0[" + inner), "[" + inner)


def _arrays_text(arrays: list, nl: str) -> list:
    """The texts of integer arrays of one dtype, number of dimensions and
    row length, each as ``_rows_text`` writes it opened after ``nl``.  A
    lone array is written by ``_rows_text`` (one %-format costs less than a
    gather for one array); several come from one gather of ``_cells``: 1-D
    arrays are the rows of ``_table_rows``, and the rows of 2-D arrays are
    written back to back, the last row of each array closed by the array's
    own closing, a NUL and the opening of the next array (one slice of that
    entry's text per array), and split only there.  Arrays that hold no
    entry at all are each written by ``_rows_text``."""
    if len(arrays) == 1:
        return [_rows_text(arrays[0], nl)]
    table = np.concatenate(arrays)
    if arrays[0].ndim == 1:
        return _table_rows(table.reshape(len(arrays), len(arrays[0])), nl)
    if not table.size:
        return [_rows_text(a, nl) for a in arrays]
    field, inner = nl + "  ", nl + "    "
    opening, close = "[" + field + "[" + inner, field + "]," + field + "[" + inner
    cells, end = _cells(table, "," + inner, close), field + "]" + nl + "]\0" + opening
    last = cells[:, -1]
    for i in accumulate(len(a) for a in arrays if len(a)):
        last[i - 1] = last[i - 1][: -len(close)] + end
    texts = iter(_split(cells, opening))
    return [next(texts) if len(a) else "[]" for a in arrays]


def _key(k) -> str:
    if isinstance(k, str):
        return _str(k)
    if isinstance(k, (int, float)) or k is None:  # bool is an int
        return _str(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _check_array(a) -> None:
    if not isinstance(a, np.ndarray) or a.dtype.kind not in "iu" or a.ndim not in (1, 2):
        raise TypeError(f"an array must be a 1-D or 2-D integer array, not {a!r:.60}")


def _rows_text(a, nl: str) -> str:
    """The text of the integer array ``a`` opened after ``nl``: a 1-D array
    is one row, a 2-D array a list of rows."""
    _check_array(a)
    if a.ndim == 1:
        return _row_template(len(a), nl) % tuple(a.tolist())
    if not len(a):
        return "[]"
    row = _row_template(a.shape[1], nl + "  ")
    return _block([row] * len(a), nl) % tuple(a.ravel().tolist())


class _Records:
    """A list of records held column by column, for ``_dumps``: record i
    holds, under each str key of ``keys``, entry i of that key's column.

    A column is a 1-D integer array (one int per record), a 2-D integer
    array (one row of ints per record), a list of exact strs, a list of
    exact ints (bool is refused), a list of integer arrays, one per record,
    each written as ``_rows_text`` writes it, or a pair (names, positions)
    of a tuple of strs and a 1-D integer array, record i holding
    ``names[positions[i]]``.  ``_dumps`` prints what ``json.dumps`` prints
    for the list of dicts, with no walk over the entries of an array: its
    dtype proves they are ints.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys, self.columns = tuple(keys), tuple(columns)
        if {*map(type, self.keys)} - {str}:
            raise TypeError("record keys must be str")
        if len(self.keys) != len(self.columns) or len(set(self.keys)) != len(self.keys):
            raise ValueError("records need one column per key and distinct keys")
        if len({*map(_count, self.columns)}) > 1:
            raise ValueError("record columns must have one length")

    def _text(self, nl: str) -> str:
        """The text of the records for ``_dumps``, opened after ``nl``.

        Each column becomes the texts of its values: a 1-D array's entries
        from one gather of the numeral table (``_cells``), a pair's entries
        from one gather of its names' texts, and a per-record array's text
        once per distinct array object, keyed by ``id`` (the columns hold
        every array for the whole call, so no id is reused), the new arrays
        of a column that share dtype, number of dimensions and row length
        written together by ``_arrays_text``.  A 2-D array with at least one
        column is written cell by cell: its row's opening ends the key's
        piece, and the texts of its entries from ``_cells``, the last one
        with the row's closing, fill one part each.  The texts and the
        literal pieces between them fill one object array, joined once,
        which sizes the output once.
        """
        count = _count(self.columns[0]) if self.columns else 0
        inner, field, entry = nl + "  ", nl + "    ", nl + "      "
        # the entries each record holds of a 2-D integer column, else 0
        cells = [col.shape[1] if _is_table(col) and col.ndim == 2 else 0 for col in self.columns]
        width, texts, at = sum(1 + max(cell, 1) for cell in cells), {}, 0
        # ``width`` parts per record, then the closing of the list
        parts = np.empty(width * count + 1, dtype=object)
        records = parts[:-1].reshape(count, width)
        for i, (key, col, cell) in enumerate(zip(self.keys, self.columns, cells)):
            head = ("," if i else inner + "}," + inner + "{") + field + _str(key) + ": "
            head_at, at = at, at + 1 + max(cell, 1)
            records[:, head_at] = head + "[" + entry if cell else head
            if _is_table(col):
                if cell:
                    records[:, head_at + 1 : at] = _cells(col, "," + entry, field + "]")
                elif col.ndim == 2:  # rows of width 0
                    records[:, head_at + 1] = "[]"
                else:
                    records[:, head_at + 1] = _cells(col[:, None], "", "")[:, 0]
                continue
            if _is_pair(col):
                names, positions = col
                texts_of = np.fromiter(map(_str, names), dtype=object, count=len(names))
                records[:, head_at + 1] = texts_of.take(positions)
                continue
            if type(col) is not list:
                raise TypeError(
                    "a record column must be a 1-D or 2-D integer array or a list "
                    f"of str, int or integer arrays, not {col!r:.60}"
                )
            kinds = {*map(type, col)}
            if kinds <= {str}:
                records[:, head_at + 1] = list(map(_str, col))
            elif kinds <= {int}:
                records[:, head_at + 1] = list(map(_intstr, col))
            else:
                ids, batches = list(map(id, col)), {}
                for a in dict(zip(ids, col)).values():
                    if id(a) not in texts:
                        _check_array(a)
                        batches.setdefault((a.ndim, a.shape[-1], a.dtype), []).append(a)
                for arrays in batches.values():
                    texts.update(zip(map(id, arrays), _arrays_text(arrays, field)))
                records[:, head_at + 1] = list(map(texts.__getitem__, ids))
        if not count:
            return "[]"
        records[0, 0] = "[" + records[0, 0][len(inner) + 2 :]  # no "}," before the first
        parts[-1] = inner + "}" + nl + "]"
        return "".join(parts.tolist())


def _is_table(col) -> bool:
    """Whether the record column ``col`` is a 1-D or 2-D integer array."""
    return isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.ndim in (1, 2)


def _is_pair(col) -> bool:
    """Whether the record column ``col`` is a (names, positions) pair."""
    return (
        type(col) is tuple
        and len(col) == 2
        and type(col[0]) is tuple
        and isinstance(col[1], np.ndarray)
        and col[1].dtype.kind in "iu"
        and col[1].ndim == 1
    )


def _count(col) -> int:
    """The number of records of the record column ``col``."""
    return len(col[1]) if _is_pair(col) else len(col)


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, of ``obj`` with its
    integer arrays as nested lists; ``nl`` is a newline plus the indentation
    of the line ``obj`` starts on.

    A list of exact ints is one %-format of a cached row template, a 1-D or
    2-D integer array is written by ``_rows_text`` and a ``_Records`` by its
    ``_text``; true, false and null come from a table of their texts.  A dict is one join of its keys' and values' texts, so a long
    value is copied once.
    """
    t = type(obj)
    if t is int:
        return _intstr(obj)
    if t is str:
        return _str(obj)
    if t is bool or obj is None:
        return _CONSTANTS[obj]
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if {*map(type, obj)} == {int}:
            return _row_template(len(obj), nl) % tuple(obj)
        return _block([_dumps(v, nl + "  ") for v in obj], nl)
    if t is np.ndarray:
        return _rows_text(obj, nl)
    if t is _Records:
        return obj._text(nl)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner, parts = nl + "  ", []
        for k, v in obj.items():
            parts += ",", inner, _key(k), ": ", _dumps(v, inner)
        parts[0] = "{"
        parts += nl, "}"
        return "".join(parts)
    return _scalar(obj)


class ProblemFileError(MafreError):
    """The problem file is malformed."""


@dataclass
class ProblemFile:
    """Parsed problem description, convertible to a solver instance."""

    granularity: int
    triples: list  # names (str) or dicts with explicit tables
    orientation: str  # "primal" | "dual"
    rows: List[str]
    variables: List[str]
    columns: List[str]
    coefficients: List[List[int]]
    sigma: List[int]  # 1-based triple index per variable
    rhs: List[List[int]]

    def frame(self) -> Frame:
        n = self.granularity
        return _frame(
            n,
            [
                spec if isinstance(spec, str)
                else AdjointTriple(spec.get("name", "custom"), n, *(spec[key] for key in _TABLES))
                for spec in self.triples
            ],
        )

    def to_instance(self) -> Union[FreInstance, DualFreInstance]:
        frame = self.frame()
        sigma0 = [i - 1 for i in self.sigma]
        cls = FreInstance if self.orientation == "primal" else DualFreInstance
        return cls(
            frame,
            self.rows,
            self.variables,
            self.columns,
            self.coefficients,
            sigma0,
            self.rhs,
        )

    def to_json(self) -> dict:
        return {
            "granularity": self.granularity,
            "triples": self.triples,
            "orientation": self.orientation,
            "rows": list(self.rows),
            "variables": list(self.variables),
            "columns": list(self.columns),
            "coefficients": [list(r) for r in self.coefficients],
            "sigma": list(self.sigma),
            "rhs": [list(r) for r in self.rhs],
        }

    def dumps(self) -> str:
        return _dumps(self.to_json())


_TABLES = ("conj", "left_residuum", "right_residuum")


def _frame(n: int, triples: list) -> Frame:
    """The frame on [0,1]_n of ``triples``, built-in names and
    ``AdjointTriple``s; it verifies every triple not verified yet."""
    return Frame(
        GranularLattice(n), [builtin_triple(t, n) if isinstance(t, str) else t for t in triples]
    )


def _expect(cond, message):
    if not cond:
        raise ProblemFileError(message)


def _is_int(v) -> bool:
    """True for a JSON integer; JSON booleans decode to bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_matrix(data, n_rows, n_cols, n, what) -> np.ndarray:
    """``data``, a list of ``n_rows`` lists of ``n_cols`` integers in [0, n],
    as an int64 array.

    A list of lists is checked whole by ``algebra._int64`` (one set of entry
    types, one numpy range test); only a matrix it rejects is walked row by
    row to its first bad row or entry, which names the error.
    """
    _expect(isinstance(data, list) and len(data) == n_rows, f"{what} must have {n_rows} rows")
    if {*map(type, data)} <= {list}:
        arr = _int64(data, n_rows, n_cols, n)
        if arr is not None:
            return arr
    for row in data:
        _expect(isinstance(row, list) and len(row) == n_cols, f"{what} rows must have {n_cols} entries")
        for v in row:
            _expect(_is_int(v), f"{what} entries must be integers")
            _expect(0 <= v <= n, f"{what} entry {v} outside [0, {n}]")
    return np.array(data, dtype=np.int64).reshape(n_rows, n_cols)


def _parse(data) -> tuple:
    """``(problem, triples, coefficients, rhs)`` of the decoded problem file
    ``data``, checked once, with every ProblemFileError of a malformed file:
    the ProblemFile holding the lists of ``data`` themselves, its triples as
    built-in names and ``AdjointTriple``s of their checked tables, and its
    matrices as checked int64 arrays."""
    _expect(isinstance(data, dict), "problem file must be a JSON object")
    n = data.get("granularity")
    _expect(_is_int(n) and n >= 1, "granularity must be an integer >= 1")
    _expect(n <= MAX_GRANULARITY, f"granularity {n} exceeds {MAX_GRANULARITY}")
    triples = data.get("triples")
    _expect(isinstance(triples, list) and triples, "triples must be a non-empty list")
    built = []
    for spec in triples:
        if isinstance(spec, str):
            _expect(
                spec in BUILTIN_TRIPLE_NAMES,
                f"unknown built-in triple {spec!r}; choose from {BUILTIN_TRIPLE_NAMES}",
            )
            built.append(spec)
            continue
        _expect(isinstance(spec, dict), "each triple must be a name or a table object")
        _expect(isinstance(spec.get("name", ""), str), "custom triple name must be a string")
        tables = []
        for key in _TABLES:
            _expect(key in spec, f"custom triple missing {key!r} table")
            tables.append(_int_matrix(spec[key], n + 1, n + 1, n, key))
        built.append(AdjointTriple._of(spec.get("name", "custom"), n, np.stack(tables)))
    orientation = data.get("orientation", "primal")
    _expect(orientation in ("primal", "dual"), "orientation must be 'primal' or 'dual'")
    names = {}
    for key in ("rows", "variables", "columns"):
        value = data.get(key)
        _expect(
            isinstance(value, list) and value and all(isinstance(x, str) for x in value),
            f"{key} must be a non-empty list of names",
        )
        _expect(len(set(value)) == len(value), f"{key} contains duplicates")
        names[key] = value
    sigma = data.get("sigma")
    _expect(
        isinstance(sigma, list) and len(sigma) == len(names["variables"]),
        "sigma must list one triple index per variable",
    )
    for i in sigma:
        _expect(_is_int(i) and 1 <= i <= len(triples), f"sigma index {i} outside 1..{len(triples)}")
    if orientation == "primal":
        shape = len(names["rows"]), len(names["variables"])
    else:
        shape = len(names["variables"]), len(names["columns"])
    coeff = _int_matrix(data.get("coefficients"), *shape, n, "coefficients")
    rhs = _int_matrix(data.get("rhs"), len(names["rows"]), len(names["columns"]), n, "rhs")
    problem = ProblemFile(
        granularity=n,
        triples=triples,
        orientation=orientation,
        rows=names["rows"],
        variables=names["variables"],
        columns=names["columns"],
        coefficients=data["coefficients"],
        sigma=sigma,
        rhs=data["rhs"],
    )
    return problem, built, coeff, rhs


def parse_problem(data: dict) -> ProblemFile:
    """Validate a decoded JSON object and build a ProblemFile, whose
    matrices are copies of the rows of ``data``."""
    problem = _parse(data)[0]
    problem.coefficients = [list(row) for row in problem.coefficients]
    problem.rhs = [list(row) for row in problem.rhs]
    return problem


def _read(path):
    """The JSON value in the file at ``path``; a file that cannot be read or
    decoded raises ProblemFileError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc


def load_problem(path) -> ProblemFile:
    return parse_problem(_read(path))


def load_instance(path) -> tuple:
    """``(problem, instance)`` of the problem file at ``path``, as every
    command reads it: the file is checked once, by ``_parse``, and the
    instance is built from the checked arrays with no second check, its
    context set up by ``Context._of`` (a dual one is that of the transposed
    primal, over the opposite frame).  The ProblemFile holds the decoded
    lists themselves."""
    problem, triples, coeff, rhs = _parse(_read(path))
    rows, variables, columns = map(tuple, (problem.rows, problem.variables, problem.columns))
    sigma = tuple(i - 1 for i in problem.sigma)
    frame = _frame(problem.granularity, triples)
    if problem.orientation == "primal":
        ctx = Context._of(frame, rows, variables, coeff, sigma)
        return problem, FreInstance._on(ctx, sigma, columns, rhs)
    ctx = DualContext._of(frame.opposite(), columns, variables, coeff.T, sigma)
    return problem, DualFreInstance._on(frame, FreInstance._on(ctx, sigma, rows, rhs.T))


def problem_from_instance(instance, triples=None) -> ProblemFile:
    """Serialize a solver instance back to a ProblemFile.

    ``triples`` may override the triple specs (names or tables); by default
    a triple serializes by name when its tables are those of the built-in
    triple of that name, and by explicit tables otherwise.
    """
    if triples is None:
        triples = []
        n = instance.frame.granularity
        for t in instance.frame.triples:
            if (
                t.name in BUILTIN_TRIPLE_NAMES
                and (t._tables == builtin_triple(t.name, n)._tables).all()
            ):
                triples.append(t.name)
            else:
                triples.append(
                    {
                        "name": t.name,
                        "conj": [list(r) for r in t.conj_table],
                        "left_residuum": [list(r) for r in t.left_residuum_table],
                        "right_residuum": [list(r) for r in t.right_residuum_table],
                    }
                )
    orientation = "primal" if isinstance(instance, FreInstance) else "dual"
    return ProblemFile(
        granularity=instance.frame.granularity,
        triples=triples,
        orientation=orientation,
        rows=list(instance.row_names),
        variables=list(instance.var_names),
        columns=list(instance.col_names),
        coefficients=instance._coeff_array.tolist(),
        sigma=[i + 1 for i in instance.sigma],
        rhs=instance._rhs_array.tolist(),
    )
