"""Independent reference answers for the benchmark's generated problems.

Everything here is written from the definitions with numpy and brute force,
without importing mafre, so that a wrong answer from the program under test
cannot also be the expected one.  Problems are the decoded JSON problem files
(numerators over one granularity n, built-in triples only).

Primal system R (.) X = T:  T(u, w) = max_v conj_{sigma(v)}(R(u, v), X(v, w)).
"""

from __future__ import annotations

import numpy as np


def conj_table(name: str, n: int) -> np.ndarray:
    """The conjunctor of a built-in triple as an (n+1)x(n+1) numerator table."""
    a = np.arange(n + 1, dtype=np.int64)[:, None]
    b = np.arange(n + 1, dtype=np.int64)[None, :]
    if name == "sq-left":  # ceil(n * x^2 * y) / n
        return -((-a * a * b) // (n * n))
    if name == "sq-right":  # ceil(n * x * y^2) / n
        return -((-a * b * b) // (n * n))
    if name == "godel":
        return np.minimum(a, b)
    raise ValueError(f"unknown built-in triple {name!r}")


def right_residuum_table(conj: np.ndarray) -> np.ndarray:
    """rres[z, x] = max{y : conj[x, y] <= z}, straight from the adjunction."""
    n = conj.shape[0] - 1
    z = np.arange(n + 1)[:, None, None]
    ok = conj[None, :, :] <= z  # [z, x, y]
    # conj is isotone in y, so the admissible y form a prefix; y = 0 always fits
    return ok.sum(axis=2) - 1


class Primal:
    """A primal problem in numerator arrays, with brute-force answers."""

    def __init__(self, problem: dict):
        if problem.get("orientation", "primal") != "primal":
            raise ValueError("the oracle handles primal problems")
        self.problem = problem
        self.n = n = problem["granularity"]
        self.R = np.array(problem["coefficients"], dtype=np.int64)  # U x V
        self.T = np.array(problem["rhs"], dtype=np.int64)  # U x W
        self.sigma = [i - 1 for i in problem["sigma"]]
        conj = [conj_table(name, n) for name in problem["triples"]]
        self.conj = np.stack([conj[s] for s in self.sigma])  # V x (n+1) x (n+1)
        self.rres = np.stack([right_residuum_table(conj[s]) for s in self.sigma])
        self.nv = self.R.shape[1]
        self._grid = None
        self._images = None
        self._extents = None

    # -- the two operators, batched over rows of candidate vectors -----------

    def compose(self, X: np.ndarray) -> np.ndarray:
        """(k, V) unknown columns -> (k, U) images sup_v R(u, v) & x(v)."""
        v = np.arange(self.nv)
        vals = self.conj[v[None, None, :], self.R[None, :, :], X[:, None, :]]
        return vals.max(axis=2)

    def down(self, F: np.ndarray) -> np.ndarray:
        """(k, U) rows -> (k, V) greatest x with compose(x) <= f."""
        v = np.arange(self.nv)
        vals = self.rres[v[None, None, :], F[:, :, None], self.R[None, :, :]]
        return vals.min(axis=1)

    def grid(self) -> np.ndarray:
        """Every candidate unknown column, in lexicographic order."""
        if self._grid is None:
            axes = [np.arange(self.n + 1, dtype=np.int64)] * self.nv
            self._grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, self.nv)
        return self._grid

    # -- answers ---------------------------------------------------------------

    def interior(self) -> np.ndarray:
        """U x W matrix of the columnwise interiors compose(down(T_w))."""
        return self.compose(self.down(self.T.T)).T

    def images(self) -> np.ndarray:
        """compose() of every candidate in grid(), computed once."""
        if self._images is None:
            # over the lexicographic grid, compose() is an outer maximum of one
            # (n+1) x U table per unknown, which broadcasting builds directly
            out = np.zeros(1, dtype=np.int64)
            for v in range(self.nv):
                shape = [1] * self.nv + [len(self.R)]
                shape[v] = self.n + 1
                out = np.maximum(out, self.conj[v][self.R[:, v]].T.reshape(shape))
            self._images = out.reshape(-1, len(self.R))
        return self._images

    def solutions(self, w: int) -> np.ndarray:
        """All x with compose(x) == T_w, by exhaustive search."""
        return self.grid()[(self.images() == self.T[:, w][None, :]).all(axis=1)]

    def extents(self) -> np.ndarray:
        """Every fixpoint of x -> down(compose(x)), sorted lexicographically."""
        if self._extents is None:
            # rows as base-(n+1) numbers: marking them sorts and dedupes at once
            weights = (self.n + 1) ** np.arange(self.nv - 1, -1, -1)
            seen = np.zeros((self.n + 1) ** self.nv, dtype=bool)
            seen[self.down(self.images()) @ weights] = True
            self._extents = self.grid()[seen]
        return self._extents

    def covers(self):
        """Cover pairs (lower, upper) of the extent order, as index pairs."""
        E = self.extents()
        less = (E[:, None, :] <= E[None, :, :]).all(axis=2)
        np.fill_diagonal(less, False)
        two_steps = (less.astype(np.float32) @ less.astype(np.float32)) > 0
        i, j = np.nonzero(less & ~two_steps)
        return list(zip(i.tolist(), j.tolist()))

    def lower_covers(self, m: np.ndarray) -> list:
        """Extents directly below m."""
        E = self.extents()
        below = E[(E <= m).all(axis=1) & (E != m).any(axis=1)]
        dominated = (below[:, None, :] <= below[None, :, :]).all(axis=2)
        np.fill_diagonal(dominated, False)
        return below[~dominated.any(axis=1)].tolist()


def minimal_rows(rows: np.ndarray) -> np.ndarray:
    leq = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
    np.fill_diagonal(leq, False)
    return rows[~leq.any(axis=0)]


# -- expected CLI payloads ------------------------------------------------------


def expect_check(problem: dict) -> dict:
    return {
        "valid": True,
        "granularity": problem["granularity"],
        "orientation": problem.get("orientation", "primal"),
        "triples": [{"name": t, "adjoint": True} for t in problem["triples"]],
        "shape": {
            "rows": len(problem["rows"]),
            "variables": len(problem["variables"]),
            "columns": len(problem["columns"]),
        },
    }


def expect_solve(p: Primal, enumerate_all: bool):
    """(exit code, payload) of ``solve --json`` with or without --enumerate."""
    rows, cols = p.problem["rows"], p.problem["columns"]
    interior = p.interior()
    gap = [
        {"row": rows[i], "column": cols[j], "stated": int(p.T[i, j]), "closed": int(interior[i, j])}
        for j in range(len(cols))
        for i in range(len(rows))
        if interior[i, j] != p.T[i, j]
    ]
    if gap:
        return 1, {"solvable": False, "gap": gap}
    columns = []
    for j, w in enumerate(cols):
        sols = p.solutions(j)
        top = sols.max(axis=0)
        if not (sols == top).all(axis=1).any() or not (top == p.down(p.T[:, j][None, :])[0]).all():
            raise AssertionError(f"oracle: column {w} has no greatest solution")
        preds = p.lower_covers(top)
        # the solution set is the box below the maximum minus the predecessor
        # down-sets; checked here so both descriptions must agree
        box = p.grid()[(p.grid() <= top).all(axis=1)]
        if preds:
            P = np.array(preds)
            box = box[~(box[:, None, :] <= P[None, :, :]).all(axis=2).any(axis=1)]
        if box.shape != sols.shape or not (box == sols).all():
            raise AssertionError(f"oracle: column {w} solution set disagrees with its lattice")
        col = {
            "column": w,
            "max_solution": top.tolist(),
            "excluded_predecessors": preds,
            "count": int(sols.shape[0]),
        }
        if enumerate_all:
            col["solutions"] = sols.tolist()
            col["minimal"] = minimal_rows(sols).tolist()
        columns.append(col)
    return 0, {
        "solvable": True,
        "solutions": {"granularity": p.n, "variables": list(p.problem["variables"]), "columns": columns},
    }


def expect_pessimistic(p: Primal) -> dict:
    return {"pessimistic_rhs": p.interior().tolist()}


def expect_oracle(p: Primal) -> dict:
    count = 1
    for j in range(p.T.shape[1]):
        count *= int(p.solutions(j).shape[0])
    return {"match": True, "count": count}


def expect_lattice(p: Primal) -> dict:
    E = p.extents()
    intents = p.compose(E)
    return {
        "concepts": [{"extent": e, "intent": f} for e, f in zip(E.tolist(), intents.tolist())]
    }


def expect_dot(p: Primal) -> dict:
    """Hasse diagram as node labels and labelled cover pairs (see check.parse_dot)."""
    E = [tuple(e) for e in p.extents().tolist()]
    return {
        "nodes": sorted(list(e) for e in E),
        "edges": sorted([list(E[i]), list(E[j])] for i, j in p.covers()),
    }

