"""JSON problem files, and the JSON encoder of every output.

All values are integer numerators over a single granularity, so files are
exact by construction; decimal rendering happens only in human-facing output.
Triples are given by built-in name or as explicit operator tables, and sigma
uses 1-based indices into the triple list.  ``_dumps`` prints what
``json.dumps(obj, indent=2)`` prints, writing rows and matrices of integers
with one format operation each, and a list that the output holds at several
places at one indentation once per call (a memo keyed by object id).  The
large record lists (the concepts of a lattice, the gap of an unsolvable
system) reach it as ``_Records``, numerator arrays and str lists held column
by column, and are written as one format operation with no dict built and
no entry walked; any other list of dicts is written value by value.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import chain
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
from .dual import DualFreInstance
from .errors import MafreError
from .fre import FreInstance


# the adjunction check of a triple grows as (n+1)^3 and its tables as (n+1)^2
MAX_GRANULARITY = 512


# json's own encoder for the leaves written neither inline nor by a template:
# bool, None, float, int and str subclasses (a float repr is exactly json's)
_scalar = json.JSONEncoder().encode
_intstr = int.__repr__


def _block(parts, nl: str, brackets: str = "[]") -> str:
    """``parts`` one per line, indented one step past ``nl`` (a newline plus
    the indentation of the line the block opens on), between ``brackets``."""
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]


@functools.lru_cache(maxsize=256)
def _row_template(length: int, nl: str) -> str:
    """The %-template of a row of ``length`` integers opened after ``nl``."""
    return _block(["%d"] * length, nl)


def _key(k) -> str:
    if isinstance(k, str):
        return _str(k)
    if isinstance(k, (int, float)) or k is None:  # bool is an int
        return _str(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


class _Records:
    """A list of records held column by column, for ``_dumps``: record i
    holds, under each str key of ``keys``, entry i of that key's column.

    A column is a 1-D integer array (one int per record), a 2-D integer
    array (one row of ints per record) or a list of exact strs.  ``_dumps``
    prints what ``json.dumps`` prints for the list of dicts, with no walk
    over the entries: the dtype proves they are ints.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys, columns):
        self.keys, self.columns = tuple(keys), tuple(columns)
        if {*map(type, self.keys)} - {str}:
            raise TypeError("record keys must be str")
        if len(self.keys) != len(self.columns) or len(set(self.keys)) != len(self.keys):
            raise ValueError("records need one column per key and distinct keys")
        if len({len(c) for c in self.columns}) > 1:
            raise ValueError("record columns must have one length")

    def _text(self, nl: str) -> str:
        """The text of the records for ``_dumps``, opened after ``nl``.

        Each key's value is written into its %-slot of one record template,
        repeated once per record.  Each column becomes a block of one row per
        record, and the blocks side by side one object array (integers become
        Python ints), which read row by row gives the values of the slots in
        order.  A ``%`` in a key is doubled in the template.
        """
        field = nl + "    "
        slots, blocks = [], []
        for col in self.columns:
            if type(col) is list and {*map(type, col)} <= {str}:
                slots.append("%s")
                blocks.append(np.array([*map(_str, col)], dtype=object)[:, None])
            elif isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.ndim == 1:
                slots.append("%d")
                blocks.append(col[:, None])
            elif isinstance(col, np.ndarray) and col.dtype.kind in "iu" and col.ndim == 2:
                width = col.shape[1]
                slots.append(_row_template(width, field) if width else "[]")
                blocks.append(col)
            else:
                raise TypeError(
                    "a record column must be a 1-D or 2-D integer array or a list "
                    f"of str, not {col!r:.60}"
                )
        count = len(self.columns[0]) if self.columns else 0
        if not count:
            return "[]"
        record = _block(
            [_str(k).replace("%", "%%") + ": " + slot for k, slot in zip(self.keys, slots)],
            nl + "  ",
            "{}",
        )
        cells = np.concatenate([b.astype(object) for b in blocks], axis=1)
        return _block([record] * count, nl) % tuple(cells.ravel().tolist())


def _dumps(obj, nl: str = "\n", seen: dict = None) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte; ``nl`` is a newline plus
    the indentation of the line ``obj`` starts on.

    A list of exact ints is one %-format of a cached row template, a list of
    equal-length such rows one %-format over the flattened matrix, and a
    ``_Records`` one %-format over its columns' values.
    ``seen`` memoizes, for one call, the text of every list and tuple by
    ``(id, nl)``: an object that the payload holds at several places at one
    indentation (the bodies that solution columns share per maximum) is
    written once.  An id cannot be reused within the call, because every
    keyed object is part of ``obj`` and nothing is encoded from a temporary.
    """
    t = type(obj)
    if t is int:
        return _intstr(obj)
    if t is str:
        return _str(obj)
    if seen is None:
        seen = {}
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        key = id(obj), nl
        if key not in seen:
            seen[key] = _list(obj, nl, seen)
        return seen[key]
    if t is _Records:
        return obj._text(nl)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        return _block(
            [_key(k) + ": " + _dumps(v, inner, seen) for k, v in obj.items()], nl, "{}"
        )
    return _scalar(obj)


def _list(obj, nl: str, seen: dict) -> str:
    """The text of the non-empty list or tuple ``obj`` for ``_dumps``."""
    inner = nl + "  "
    kinds = {*map(type, obj)}
    if kinds == {int}:
        return _row_template(len(obj), nl) % tuple(obj)
    if kinds <= {list, tuple}:
        widths = {*map(len, obj)}
        if len(widths) == 1 and 0 not in widths:
            flat = list(chain.from_iterable(obj))
            if {*map(type, flat)} == {int}:
                row = _row_template(len(obj[0]), inner)
                return _block([row] * len(obj), nl) % tuple(flat)
    return _block([_dumps(v, inner, seen) for v in obj], nl)


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
        lattice = GranularLattice(self.granularity)
        built = []
        for spec in self.triples:
            if isinstance(spec, str):
                built.append(builtin_triple(spec, self.granularity))
            else:
                built.append(
                    AdjointTriple(
                        spec.get("name", "custom"),
                        self.granularity,
                        spec["conj"],
                        spec["left_residuum"],
                        spec["right_residuum"],
                    )
                )
        return Frame(lattice, built)

    def to_instance(self) -> Union[FreInstance, DualFreInstance]:
        frame = self.frame()
        sigma0 = [i - 1 for i in self.sigma]
        cls = FreInstance if self.orientation == "primal" else DualFreInstance
        return cls.from_numerators(
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


def _expect(cond, message):
    if not cond:
        raise ProblemFileError(message)


def _is_int(v) -> bool:
    """True for a JSON integer; JSON booleans decode to bool, a subclass of int."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_matrix(data, n_rows, n_cols, n, what):
    """``data`` as a list of ``n_rows`` lists of ``n_cols`` integers in [0, n].

    A list of lists is checked whole by ``algebra._int64`` (one set of entry
    types, one numpy range test); only a matrix it rejects is walked row by
    row to its first bad row or entry, which names the error.
    """
    _expect(isinstance(data, list) and len(data) == n_rows, f"{what} must have {n_rows} rows")
    if {*map(type, data)} <= {list} and _int64(data, n_rows, n_cols, n) is not None:
        return [list(row) for row in data]
    for row in data:
        _expect(isinstance(row, list) and len(row) == n_cols, f"{what} rows must have {n_cols} entries")
        for v in row:
            _expect(_is_int(v), f"{what} entries must be integers")
            _expect(0 <= v <= n, f"{what} entry {v} outside [0, {n}]")
    return [list(row) for row in data]


def parse_problem(data: dict) -> ProblemFile:
    """Validate a decoded JSON object and build a ProblemFile."""
    _expect(isinstance(data, dict), "problem file must be a JSON object")
    n = data.get("granularity")
    _expect(_is_int(n) and n >= 1, "granularity must be an integer >= 1")
    _expect(n <= MAX_GRANULARITY, f"granularity {n} exceeds {MAX_GRANULARITY}")
    triples = data.get("triples")
    _expect(isinstance(triples, list) and triples, "triples must be a non-empty list")
    for spec in triples:
        if isinstance(spec, str):
            _expect(
                spec in BUILTIN_TRIPLE_NAMES,
                f"unknown built-in triple {spec!r}; choose from {BUILTIN_TRIPLE_NAMES}",
            )
        else:
            _expect(isinstance(spec, dict), "each triple must be a name or a table object")
            _expect(isinstance(spec.get("name", ""), str), "custom triple name must be a string")
            for key in ("conj", "left_residuum", "right_residuum"):
                _expect(key in spec, f"custom triple missing {key!r} table")
                _int_matrix(spec[key], n + 1, n + 1, n, key)
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
        coeff = _int_matrix(
            data.get("coefficients"), len(names["rows"]), len(names["variables"]), n, "coefficients"
        )
    else:
        coeff = _int_matrix(
            data.get("coefficients"), len(names["variables"]), len(names["columns"]), n, "coefficients"
        )
    rhs = _int_matrix(data.get("rhs"), len(names["rows"]), len(names["columns"]), n, "rhs")
    return ProblemFile(
        granularity=n,
        triples=triples,
        orientation=orientation,
        rows=names["rows"],
        variables=names["variables"],
        columns=names["columns"],
        coefficients=coeff,
        sigma=sigma,
        rhs=rhs,
    )


def load_problem(path) -> ProblemFile:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    return parse_problem(data)


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
