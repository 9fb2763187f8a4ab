"""Contexts, the isotone Galois connection and property-oriented concept lattices.

The possibility/necessity operators and the lattice construction work in
numerator space: every adjoint triple is compiled to integer lookup tables, so
batched numpy evaluation stays exact.  The lattice engine sorts, deduplicates
and looks up extent rows through one sortable key per row, ``_row_keys``: an
int64 in base n + 1 where it fits, else the row's bytes.  The meet closure
is an attribute-by-attribute product of the generator chains, and the cover
relation numbers each cover by binary search among the extent keys.  Every
lower cover, of the Hasse diagram, of ``predecessors`` and of the solver,
comes from one rule, ``_lower_covers``: |A| candidate meets per extent, the
maximal ones kept.  A lattice build stops with BudgetExceededError once its
extents hold more than ``algebra.MAX_ENTRIES`` entries, and so does the
cover relation when its candidate arrays would.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .algebra import _CHUNK, Frame, GranularValue, _check_entries, _int64
from .errors import (
    BudgetExceededError,
    DimensionError,
    GranularityMismatchError,
    IndexMismatchError,
    NotAnExtentError,
    RangeError,
)


@dataclass(frozen=True)
class FuzzySet:
    """A fuzzy subset over a finite index set, ordered componentwise."""

    index_set: tuple
    values: tuple

    def __post_init__(self):
        if len(self.index_set) != len(self.values):
            raise IndexMismatchError(
                f"{len(self.values)} values for {len(self.index_set)} elements"
            )

    @classmethod
    def from_numerators(cls, index_set, numerators, n) -> "FuzzySet":
        nums = (_numerator(k, n, "fuzzy set") for k in numerators)
        return cls(tuple(index_set), tuple(GranularValue(int(k), n) for k in nums))

    @property
    def numerators(self) -> tuple:
        return tuple(v.numerator for v in self.values)

    def __call__(self, name) -> GranularValue:
        return self.values[self.index_set.index(name)]

    def leq(self, other: "FuzzySet") -> bool:
        if self.index_set != other.index_set:
            raise IndexMismatchError("fuzzy sets over different index sets")
        return all(a <= b for a, b in zip(self.values, other.values))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def _numerator(v, n: int, what: str):
    if isinstance(v, GranularValue):
        if v.granularity != n:
            raise GranularityMismatchError(f"{what} value {v} on a [0,1]_{n} frame")
        return v.numerator
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise RangeError(f"{what} entry {v!r} is not an integer")
    if not 0 <= v <= n:
        raise RangeError(f"{what} entry {v} outside [0, {n}]")
    return v


def _matrix(rows, n_rows: int, n_cols: int, what: str, n: int) -> np.ndarray:
    """``rows`` as an (n_rows, n_cols) int64 array.  Every entry must be an
    integer in 0..n or a GranularValue on [0,1]_n: a wrong shape raises
    DimensionError, another granularity GranularityMismatchError and any
    other entry RangeError.

    Input that ``_int64`` accepts needs nothing more; other input
    (GranularValue or numpy-scalar entries), and input it rejects, goes
    entry by entry, which also finds the error to raise."""
    if not isinstance(rows, np.ndarray):
        rows = list(rows)
    arr = _int64(rows, n_rows, n_cols, n)
    if arr is not None:
        return arr
    rows = [[_numerator(v, n, what) for v in row] for row in rows]
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise DimensionError(f"{what} must be {n_rows}x{n_cols}")
    return np.array(rows, dtype=np.int64).reshape(n_rows, n_cols)


def _values(rows: np.ndarray, n: int) -> tuple:
    """A 2-D numerator array as a matrix (tuple of tuples) of GranularValues."""
    return tuple(tuple(GranularValue(k, n) for k in row) for row in rows.tolist())


def _sigma(sigma, n_rows: int, n_cols: int, frame: Frame) -> np.ndarray:
    """Triple indices as an (n_rows, n_cols) array; a flat ``sigma`` has one
    per column, checked even when it is replicated over no rows."""
    sigma, last = list(sigma), len(frame.triples) - 1
    if sigma and not isinstance(sigma[0], (tuple, list, np.ndarray)):
        if len(sigma) != n_cols:
            raise DimensionError("per-object sigma must have one entry per object")
        return np.repeat(_matrix([sigma], 1, n_cols, "sigma", last), n_rows, axis=0)
    return _matrix(sigma, n_rows, n_cols, "sigma", last)


def _nested(sigma) -> bool:
    """Whether an entry of a per-object ``sigma`` is a row (anything numpy
    reads as an array) rather than one triple index; a ``sigma`` of plain
    ints, the usual one, is told apart by one test per entry type."""
    return not {*map(type, sigma)} <= {int} and any(map(np.ndim, sigma))


def _names(names, what: str) -> tuple:
    """``names`` as a tuple; duplicates would make name lookups ambiguous."""
    names = tuple(names)
    if len(set(names)) != len(names):
        raise DimensionError(f"{what} contain duplicates")
    return names


def _context_names(attributes, objects) -> tuple:
    """The attribute and object names of a context, checked; a context
    needs at least one object."""
    attributes, objects = _names(attributes, "attributes"), _names(objects, "objects")
    if not objects:
        raise DimensionError("objects must be non-empty")
    return attributes, objects


def _conj_tables(frame: Frame) -> np.ndarray:
    """The conjunctor tables of the frame's triples, stacked: [triple, x, y]."""
    return np.stack([t._tables[0] for t in frame.triples])


class Context:
    """A multi-adjoint context (A, B, R, sigma).

    ``relation[a][b]`` holds R(a, b); ``sigma`` assigns a 0-based triple index
    to every (a, b) cell and may be given either per cell (matrix) or per
    object (flat sequence of length |B|, replicated across rows).  Both are
    stored as the int64 arrays ``_R`` and ``_SIG`` and read back as views.
    The attribute set may be empty (the Y-reduced context of the empty
    reduct); its lattice is {top}.
    """

    def __init__(self, frame: Frame, attributes, objects, relation, sigma):
        attributes, objects = _context_names(attributes, objects)
        R = _matrix(relation, len(attributes), len(objects), "relation", frame.granularity)
        self._build(frame, attributes, objects, R, sigma)

    def _build(self, frame: Frame, attributes: tuple, objects: tuple, R: np.ndarray, sigma):
        """Set the context up from checked names and the checked relation
        array ``R``; ``sigma`` is checked here."""
        self.frame, self.attributes, self.objects, self._R = frame, attributes, objects, R
        self._SIG = _sigma(sigma, len(attributes), len(objects), frame)
        self._CT = _conj_tables(frame)
        self._RT = np.stack([t._tables[2] for t in frame.triples])
        self._gens = self._lattice = self._families = self._reducts = None

    @property
    def relation(self) -> tuple:
        return _values(self._R, self.frame.granularity)

    @property
    def sigma(self) -> tuple:
        return tuple(map(tuple, self._SIG.tolist()))

    def possibility_batch(self, G: np.ndarray) -> np.ndarray:
        """Map a (k, |B|) array of object-set numerators to (k, |A|) intents."""
        R, SIG, CT = self._R, self._SIG, self._CT
        out = np.empty((G.shape[0], len(self.attributes)), dtype=np.int64)
        for a in range(len(self.attributes)):
            vals = CT[SIG[a][None, :], R[a][None, :], G]
            out[:, a] = vals.max(axis=1)
        return out

    def necessity_batch(self, F: np.ndarray) -> np.ndarray:
        """Map a (k, |A|) array of attribute-set numerators to (k, |B|) extents."""
        R, SIG, RT = self._R, self._SIG, self._RT
        n = self.frame.granularity
        out = np.empty((F.shape[0], len(self.objects)), dtype=np.int64)
        for b in range(len(self.objects)):
            vals = RT[SIG[:, b][None, :], F, R[:, b][None, :]]
            out[:, b] = vals.min(axis=1, initial=n)  # top with no attributes
        return out

    # -- fuzzy-set level wrappers ------------------------------------------

    def _object_set(self, nums) -> FuzzySet:
        return FuzzySet.from_numerators(self.objects, nums, self.frame.granularity)

    def _attribute_set(self, nums) -> FuzzySet:
        return FuzzySet.from_numerators(self.attributes, nums, self.frame.granularity)


def possibility(g: FuzzySet, ctx: Context) -> FuzzySet:
    """g^up: the componentwise sup of conjunctions R(a, b) & g(b)."""
    if g.index_set != ctx.objects:
        raise IndexMismatchError("argument must be indexed by the context objects")
    row = np.array([g.numerators], dtype=np.int64)
    return ctx._attribute_set(ctx.possibility_batch(row)[0])


def necessity(f: FuzzySet, ctx: Context) -> FuzzySet:
    """f^down: the componentwise inf of residuations f(a) <- R(a, b)."""
    if f.index_set != ctx.attributes:
        raise IndexMismatchError("argument must be indexed by the context attributes")
    row = np.array([f.numerators], dtype=np.int64)
    return ctx._object_set(ctx.necessity_batch(row)[0])


def object_closure(g: FuzzySet, ctx: Context) -> FuzzySet:
    """The closure operator on object sets (inflationary, idempotent, isotone)."""
    return necessity(possibility(g, ctx), ctx)


def attribute_interior(f: FuzzySet, ctx: Context) -> FuzzySet:
    """The interior operator on attribute sets (deflationary, idempotent, isotone)."""
    return possibility(necessity(f, ctx), ctx)


@dataclass(frozen=True)
class Concept:
    """A fixpoint pair (extent, intent) of the Galois connection."""

    extent: FuzzySet
    intent: FuzzySet


def _row_keys(rows: np.ndarray, radix: int | None = None) -> np.ndarray:
    """One sortable key per row of a non-empty 2-D int64 array: equal keys
    are equal rows, and the keys order as the rows do lexicographically, so
    ``np.sort``, ``np.argsort`` and ``np.searchsorted`` act on rows through
    them.  This is the only place that decides how a row becomes a key.

    The key is an int64 in base ``radix``, first column most significant,
    where no entry is negative and the largest key, radix^k - 1 (k columns),
    fits.  ``radix`` is max + 1 unless the caller knows a bound (then every
    entry must lie in 0..radix-1).  Otherwise it is a ``np.void`` over the
    row's big-endian bytes: two per entry in 0..65535, else eight per entry
    with the sign bit flipped, so the bytes compare as the signed entries do.
    """
    k = rows.shape[1]
    low, high = (int(rows.min()), int(rows.max())) if radix is None else (0, radix - 1)
    radix = high + 1
    if low >= 0 and radix**k <= 2**63:
        return rows @ np.array([radix**e for e in range(k - 1, -1, -1)], dtype=np.int64)
    if low >= 0 and high <= 0xFFFF:
        raw = rows.astype(">u2", order="C")
    else:
        raw = (rows.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8", order="C")
    return raw.view(np.dtype((np.void, raw.itemsize * k))).ravel()


def _unique_rows(rows: np.ndarray, radix: int | None = None) -> np.ndarray:
    """The distinct rows of a 2-D int64 array in lexicographic order, equal
    to ``np.unique(rows, axis=0)``: the rows ordered by their ``_row_keys``
    (``radix`` as there), and those whose key differs from the one before.
    Equal keys are equal rows, so any sort kind gives the same result.
    """
    if len(rows) < 2 or not rows.shape[1]:
        return rows[:1]
    keys = _row_keys(rows, radix)
    order = np.argsort(keys)
    keys = keys[order]
    fresh = np.empty(len(rows), dtype=bool)
    fresh[0] = True
    fresh[1:] = keys[1:] != keys[:-1]  # no void loop for np.not_equal(out=)
    return rows.take(order[fresh], axis=0)


def _grid(n: int, k: int):
    """The grid {0..n}^k in lexicographic order (first column slowest), as
    (rows, k) arrays of at most ``_CHUNK`` rows, so memory stays bounded
    however large the grid is."""
    total = (n + 1) ** k
    place = (n + 1) ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        yield idx[:, None] // place % (n + 1)


def _generators(ctx: Context) -> tuple:
    """``(rows, gens)``: ``rows[a, k]`` is the extent (top except a:k)^down
    for attribute a and k in 0..n, an (|A|, n+1, |B|) array (k = n gives
    top, since top <- x = top); ``gens`` holds the distinct extents among
    them and top (the empty meet, also with no attributes), sorted.  Cached
    on the context."""
    if ctx._gens is None:
        n, na, nb = ctx.frame.granularity, len(ctx.attributes), len(ctx.objects)
        F = np.full((na, n + 1, na), n, dtype=np.int64)
        F[np.arange(na), :, np.arange(na)] = np.arange(n + 1)
        rows = ctx.necessity_batch(F.reshape(na * (n + 1), na))
        top = np.full((1, nb), n, dtype=np.int64)
        gens = _unique_rows(np.concatenate([rows, top]))
        ctx._gens = rows.reshape(na, n + 1, nb), gens
    return ctx._gens


def _leq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[..., i, j]`` is True when row ``a[..., i, :]`` <= row
    ``b[..., j, :]`` componentwise; leading axes are batch axes, the same
    in ``a`` and ``b``.

    Built one column at a time: the (..., len_a, len_b) result is and-ed
    with each column's comparison, which avoids a broadcast reduced over its
    short trailing axis.
    """
    out = np.ones(a.shape[:-1] + b.shape[-2:-1], dtype=bool)
    for k in range(a.shape[-1]):
        out &= a[..., :, None, k] <= b[..., None, :, k]
    return out


def _lower_covers(ctx: Context, extents: np.ndarray, intents: np.ndarray) -> tuple:
    """``(candidates, covers)`` for a (c, |B|) array of extents and their
    (c, |A|) intents: ``candidates[i, a]`` is ``extents[i]`` met with the
    generator (top except a:f(a) - 1)^down, f = ``intents[i]``, and the
    (c, |A|) mask ``covers`` marks the lower covers of ``extents[i]`` among
    them (an extent may be marked more than once).

    Each candidate with f(a) > 0 is an extent whose intent at a is at most
    f(a) - 1, so it lies strictly below e.  Every extent x < e has x^up < f,
    so x^up(a) <= f(a) - 1 for some a, and by the Galois connection x lies
    below that candidate.  So the lower covers of e are the maximal
    candidates, |A| rows per extent, and no lattice is needed.
    """
    rows = _generators(ctx)[0]
    marked = intents > 0
    steps = rows[np.arange(intents.shape[1]), np.maximum(intents - 1, 0)]
    candidates = np.minimum(extents[:, None, :], steps)  # [extent, a]
    below = _leq(candidates, candidates)  # [extent, a, a']
    above = below & ~below.transpose(0, 2, 1) & marked[:, None, :]
    return candidates, marked & ~above.any(axis=2)


def _meet_closure(chains: np.ndarray) -> np.ndarray:
    """The extents, sorted, from the (|A|, n+1, |B|) generator rows of
    ``_generators``.

    Each attribute's rows (top except a:k)^down, k = 0..n, form a chain: they
    increase with k up to top, so equal rows adjoin and the distinct ones are
    sorted.  Every extent is the meet of one row per attribute, so the
    closure is an attribute-by-attribute product: L_1 holds the distinct rows
    of chain 1 (L_0 = {top} with no attributes), and L_a the distinct meets
    of the rows of L_(a-1) with those of chain a, found in chunks of at most
    ``_CHUNK`` meet entries.  That is |A| rounds with no lookup against the
    rows found before.  Each chunk is deduplicated on its own, and the rows
    found in a round again whenever they have doubled since the last time,
    and at its end.  L_a is the extent set of the context restricted to its
    first a attributes, never larger than the lattice, so once a
    deduplication leaves more than ``MAX_ENTRIES`` entries the lattice has
    as many: BudgetExceededError.  The keys have radix n + 1, one more than
    the largest entry (top's).
    """
    nb = chains.shape[2]
    radix = int(chains.max(initial=chains.shape[1] - 1)) + 1
    distinct = np.ones(chains.shape[:2], dtype=bool)
    distinct[:, :-1] = (chains[:, 1:] != chains[:, :-1]).any(axis=2)
    rounds = [chain[keep] for chain, keep in zip(chains, distinct)]
    found = rounds[0] if rounds else np.full((1, nb), radix - 1, dtype=np.int64)
    for chain in rounds[1:]:
        step = max(1, _CHUNK // chain.size)
        parts, pending, kept = [], 0, len(found)
        for start in range(0, len(found), step):
            meets = np.minimum(found[start : start + step, None, :], chain)
            parts.append(_unique_rows(meets.reshape(-1, nb), radix))
            pending += len(parts[-1])
            if pending >= 2 * kept or start + step >= len(found):
                if len(parts) > 1:
                    parts = [np.concatenate(parts)]  # frees the chunks before the sort
                    parts = [_unique_rows(parts[0], radix)]
                pending = kept = len(parts[0])
                _check_extents(kept, nb)
        found = parts[0]
    return found


def _check_extents(count: int, nb: int) -> None:
    _check_entries(
        count * nb, f"a concept lattice of at least {count} extents over {nb} objects"
    )


class ConceptLattice:
    """The complete lattice of concepts, with its cover (Hasse) relation.

    The lattice is held as the numerator array ``extent_rows`` (distinct, in
    lexicographic order, so the result does not depend on how candidates were
    generated), row i being concept i.  Everything else is built on first
    use: ``intent_rows``, the extent index behind ``index_of`` and
    ``extent_set``, the ``concepts`` (``Concept`` and ``FuzzySet`` objects;
    ``extents`` and ``predecessors`` build only the sets they return) and
    the cover pairs, from ``_lower_covers``.

    The constructor takes the rows as ``_matrix`` does (RangeError,
    DimensionError) and raises NotAnExtentError for a row that is not a
    closure fixpoint and for rows without top.  Every extent lies on a chain
    of lower covers down from top, so rows that hold top and every lower
    cover of their members are the whole lattice; the cover pairs raise
    NotAnExtentError at the first lower cover missing from the rows.
    """

    def __init__(self, context: Context, extent_rows: np.ndarray):
        n, nb = context.frame.granularity, len(context.objects)
        if not isinstance(extent_rows, np.ndarray):
            extent_rows = list(extent_rows)
        rows = _unique_rows(_matrix(extent_rows, len(extent_rows), nb, "extent", n))
        if not len(rows) or (rows[-1] != n).any():
            raise NotAnExtentError("the extents of a concept lattice include top")
        closed = context.necessity_batch(context.possibility_batch(rows))
        open_rows = np.flatnonzero((closed != rows).any(axis=1))
        if len(open_rows):
            raise NotAnExtentError(f"{rows[open_rows[0]].tolist()} is not an extent")
        self.context, self.extent_rows = context, rows

    @classmethod
    def _of_closure(cls, context: Context, extent_rows: np.ndarray) -> "ConceptLattice":
        """The lattice of the int64 rows ``extent_rows`` of ``_meet_closure``,
        which are distinct and sorted already, held as they are."""
        lat = cls.__new__(cls)
        lat.context, lat.extent_rows = context, extent_rows
        return lat

    @cached_property
    def intent_rows(self) -> np.ndarray:
        return self.context.possibility_batch(self.extent_rows)

    @cached_property
    def _index(self) -> dict:
        return {tuple(e): i for i, e in enumerate(self.extent_rows.tolist())}

    @cached_property
    def _cover_pairs(self) -> np.ndarray:
        """The (lower, upper) concept indices of every cover pair, ascending.

        ``_lower_covers`` gives each extent's covers as rows.  The extents
        and those rows are keyed by ``_row_keys`` with the same radix, n + 1,
        so both get the same encoding, and each row's concept index is found
        by ``np.searchsorted`` among the sorted extent keys (a row not found
        there raises NotAnExtentError); the pairs are deduplicated as rows.
        The candidates and their comparisons hold
        N x |A| x max(|A|, |B|) entries.
        """
        rows = self.extent_rows
        na, nb = len(self.context.attributes), len(self.context.objects)
        _check_entries(
            len(rows) * na * max(na, nb),
            f"the covers of {len(rows)} concepts over {na} attributes and {nb} objects",
        )
        candidates, covers = _lower_covers(self.context, rows, self.intent_rows)
        upper = np.nonzero(covers)[0]
        radix = self.context.frame.granularity + 1
        lows = candidates[covers]
        keys, found = _row_keys(rows, radix), _row_keys(lows, radix)
        lower = np.searchsorted(keys, found)
        missing = np.flatnonzero(keys.take(lower, mode="clip") != found)
        if len(missing):
            row = lows[missing[0]].tolist()
            raise NotAnExtentError(f"the lower cover {row} of an extent is not in the lattice")
        return _unique_rows(np.stack([lower, upper], axis=1), len(rows))

    def __len__(self):
        return len(self.extent_rows)

    def __iter__(self):
        return iter(self.concepts)

    @cached_property
    def concepts(self) -> tuple:
        objects, attributes = self.context.objects, self.context.attributes
        n = self.context.frame.granularity
        return tuple(
            Concept(
                FuzzySet.from_numerators(objects, e, n),
                FuzzySet.from_numerators(attributes, f, n),
            )
            for e, f in zip(self.extent_rows.tolist(), self.intent_rows.tolist())
        )

    def _extent(self, i: int) -> FuzzySet:
        return self.context._object_set(self.extent_rows[i])

    def extent_set(self) -> frozenset:
        return frozenset(self._index)

    def extents(self):
        return [self._extent(i) for i in range(len(self))]

    def index_of(self, extent: FuzzySet) -> int:
        key = tuple(extent.numerators)
        if key not in self._index:
            raise NotAnExtentError(f"{extent} is not an extent of this lattice")
        return self._index[key]

    def covers(self):
        """All cover pairs (lower, upper) as concept indices."""
        return list(map(tuple, self._cover_pairs.tolist()))


def build_concept_lattice(ctx: Context) -> ConceptLattice:
    """Build the full concept lattice of a finite context.

    The necessity operator preserves infima, and every attribute set f is the
    meet over a of (top except a:f(a)).  So the extents are exactly the
    meet-closure of the |A|(n+1) generator extents (top except a:k)^down,
    which include top; ``_meet_closure`` takes it one attribute's chain at a
    time and costs time in proportion to the number of extents times the
    n + 1 rows of a chain, not to the (n+1)^|B| object sets.  The result is
    cached on the context.
    """
    if ctx._lattice is None:
        ctx._lattice = ConceptLattice._of_closure(ctx, _meet_closure(_generators(ctx)[0]))
    return ctx._lattice


def predecessors(lat: ConceptLattice, e: FuzzySet):
    """The extents immediately below the extent ``e``, in lexicographic order."""
    ctx, row = lat.context, lat.extent_rows[lat.index_of(e)][None, :]
    candidates, covers = _lower_covers(ctx, row, ctx.possibility_batch(row))
    return [ctx._object_set(p) for p in _unique_rows(candidates[covers])]


def _indices(ctx: Context, attributes: Iterable) -> list:
    """The positions of the named attributes, in context order."""
    wanted = set(attributes)
    unknown = wanted - set(ctx.attributes)
    if unknown:
        raise IndexMismatchError(f"unknown attributes: {sorted(unknown)}")
    return [i for i, a in enumerate(ctx.attributes) if a in wanted]


def restrict(ctx: Context, attributes: Iterable) -> Context:
    """The context limited to a subset of attributes, keeping input order.

    The result is a copy of ``ctx`` (of the same class) without its caches.
    """
    keep = _indices(ctx, attributes)
    if not keep:
        raise DimensionError("cannot restrict to an empty attribute set")
    return _restrict(ctx, keep)


def _restrict(ctx: Context, keep: list) -> Context:
    """``ctx`` limited to the attributes at the positions ``keep``, which may
    be none (the context of the empty reduct): a copy of the same class that
    slices the checked arrays and drops every cache."""
    sub = copy.copy(ctx)
    sub.attributes = tuple(ctx.attributes[i] for i in keep)
    sub._R, sub._SIG = ctx._R[keep], ctx._SIG[keep]
    sub._gens = sub._lattice = sub._families = sub._reducts = None
    return sub


def _families(ctx: Context) -> tuple:
    """One attribute bitmask per meet-irreducible extent: bit i is set when
    attribute i has that extent among its generators.  Cached on the context.

    Every extent is a meet of generators, so a meet-irreducible extent is a
    generator.  The extents strictly above a generator g are meets of the
    generators strictly above it, so g is meet-irreducible iff their
    componentwise minimum is not g (top, with none above, never is).  The
    minima are taken over chunks of generators of at most ``_CHUNK``
    entries; each generator row of each attribute is then looked up among
    the irreducible rows.
    """
    if ctx._families is None:
        rows, gens = _generators(ctx)
        top, step = ctx.frame.granularity, max(1, _CHUNK // gens.size)
        irreducible = []
        for start in range(0, len(gens), step):
            chunk = gens[start : start + step]
            above = _leq(chunk, gens)
            at = np.arange(len(chunk))
            above[at, start + at] = False  # the rows are distinct
            meet_above = np.where(above[:, :, None], gens, top).min(axis=1)
            irreducible += map(tuple, chunk[(meet_above != chunk).any(axis=1)].tolist())
        masks = dict.fromkeys(irreducible, 0)
        for a, block in enumerate(rows.tolist()):
            for row in map(tuple, block):
                if row in masks:
                    masks[row] |= 1 << a
        ctx._families = tuple(masks.values())
    return ctx._families


def is_consistent(ctx: Context, Y: Iterable) -> bool:
    """True when restricting to Y preserves the extent set of the lattice.

    The extents of the restriction to Y are the meets of the generators of
    the attributes in Y (extend a restricted attribute set by top outside Y;
    top <- x = top), and every extent is the meet of the meet-irreducible
    extents above it.  So Y is consistent iff every meet-irreducible extent
    is a meet of Y-generators, that is (being meet-irreducible) iff it is a
    generator of some attribute in Y: Y meets every family of ``_families``.
    No lattice is built.  The empty Y is consistent iff there is no
    meet-irreducible extent, i.e. the lattice is {top}.
    """
    mask = sum(1 << i for i in _indices(ctx, Y))
    return all(mask & family for family in _families(ctx))


# the most minimal transversals that ``enumerate_reducts`` keeps after any
# family (the reducts are the last of them): their number can grow
# exponentially, and minimizing the next list costs its square
MAX_REDUCTS = 1_000


def _minimal(masks) -> list:
    """The inclusion-minimal ones among ``masks``, each once, by popcount
    (a strict subset has fewer bits, so it is kept before its supersets)."""
    kept = []
    for m in sorted(set(masks), key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    return kept


def enumerate_reducts(ctx: Context):
    """All minimal consistent attribute subsets, ordered by size and then by
    their attribute positions.

    Y is consistent iff it meets every family of ``_families``, so the
    reducts are the minimal transversals of those families.  Berge's
    algorithm adds the minimal families one at a time: the minimal
    transversals so far, each extended by one attribute of the new family,
    minimized again.  With no family (the lattice is {top})
    the empty set is the only reduct.  More than ``MAX_REDUCTS`` transversals
    after any family raise BudgetExceededError.  The search runs once per
    context and is cached on it; every call returns a new list.
    """
    if ctx._reducts is None:
        bits = [1 << i for i in range(len(ctx.attributes))]
        transversals = [0]
        for family in _minimal(_families(ctx)):
            transversals = _minimal(t | b for t in transversals for b in bits if b & family)
            if len(transversals) > MAX_REDUCTS:
                raise BudgetExceededError(
                    f"reduct search exceeds {MAX_REDUCTS} partial reducts"
                )
        reducts = [[i for i, b in enumerate(bits) if t & b] for t in transversals]
        reducts.sort(key=lambda idxs: (len(idxs), idxs))
        ctx._reducts = tuple(tuple(ctx.attributes[i] for i in idxs) for idxs in reducts)
    return list(ctx._reducts)


def _tuple_template(width: int) -> str:
    """The %-template of ``str(tuple(row))`` for a row of ``width`` ints."""
    if width == 1:
        return "(%d,)"
    return "(" + ", ".join(["%d"] * width) + ")"


def lattice_to_dot(lat: ConceptLattice, *, include_intents: bool = False) -> str:
    """Render the Hasse diagram as DOT, drawn bottom-up.

    Nodes are labeled with extent numerator tuples (plus intents on request).
    All node lines are one %-format over the concept numbers and rows, and
    all edge lines one over the cover pairs.
    """
    label = _tuple_template(lat.extent_rows.shape[1])
    columns = [np.arange(len(lat))[:, None], lat.extent_rows]
    if include_intents:
        label += "\\n" + _tuple_template(lat.intent_rows.shape[1])
        columns.append(lat.intent_rows)
    nodes = ('\n  c%d [label="' + label + '"];') * len(lat)
    pairs = lat._cover_pairs
    edges = "\n  c%d -> c%d;" * len(pairs)
    return (
        "digraph concept_lattice {\n  rankdir=BT;\n  node [shape=box];"
        + nodes % tuple(np.hstack(columns).ravel().tolist())
        + edges % tuple(pairs.ravel().tolist())
        + "\n}"
    )
