"""Seeded workloads: problem files plus the requests issued against them.

Every workload is a list of problem files (decoded JSON) and a list of
requests.  A request is one ``mafre`` command line with the exit code and the
output it must produce.  Expected outputs come from two places:

* ``reference``: the three ``examples_data/`` problems, whose primal answers
  were recorded once in ``expected/reference.json`` (see ``record.py``), and
  their dual transposes, whose answers are derived here from the primal ones;
* ``many-rhs`` and ``big-lattice``: random instances answered by the brute-force
  ``oracle`` module while they are generated.

The seed fixes the instances and the order of the requests.  The size mix of
every workload is the same for all seeds, so that runs with different seeds
measure the same amount of work.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = ("squares_solvable", "squares_unsolvable", "maxmin_solvable")
OPPOSITE = {"sq-left": "sq-right", "sq-right": "sq-left", "godel": "godel"}
TRIPLE_MIXES = (
    ("sq-left",),
    ("sq-right",),
    ("godel",),
    ("sq-left", "sq-right"),
    ("sq-left", "godel"),
    ("sq-right", "godel"),
    ("sq-left", "sq-right", "godel"),
)
# the command lines run on every reference problem; <reduct> is its first reduct
REFERENCE_COMMANDS = (
    ("check", []),
    ("solve", []),
    ("solve", ["--enumerate"]),
    ("reducts", []),
    ("reducts", ["--set", "<reduct>"]),
    ("reduce", ["--set", "<reduct>"]),
    ("approximate", []),
    ("approximate", ["--pessimistic"]),
    ("lattice", []),
    ("lattice", ["--dot"]),
)


def request(rid: str, problem: str, cmd: str, flags: list, rc: int, expect) -> dict:
    """A request on ``problem``; ``expect`` is a JSON payload or DOT summary."""
    kind = "dot" if "--dot" in flags else "json"
    return {
        "id": rid,
        "problem": problem,
        "cmd": cmd,
        "flags": flags,
        "expect": {"rc": rc, "kind": kind, "value": expect},
    }


def transpose(problem: dict) -> dict:
    """The dual problem X (.) S = T' with S = R^T and T' = T^T.

    Rows and columns swap roles, every triple is replaced by its opposite
    (sq-left and sq-right swap, godel stays), and sigma is kept.
    """
    return {
        "granularity": problem["granularity"],
        "triples": [OPPOSITE[t] for t in problem["triples"]],
        "orientation": "dual",
        "rows": list(problem["columns"]),
        "variables": list(problem["variables"]),
        "columns": list(problem["rows"]),
        "coefficients": [list(r) for r in zip(*problem["coefficients"])],
        "sigma": list(problem["sigma"]),
        "rhs": [list(r) for r in zip(*problem["rhs"])],
    }


# -- reference ------------------------------------------------------------------


def _dual_expectation(cmd: str, flags: list, primal: dict, answers: dict):
    """(rc, payload) the dual transpose must give, from the primal answers."""
    rc, out = answers[key(cmd, flags)]["rc"], answers[key(cmd, flags)]["out"]
    if cmd == "check":
        dual = dict(out, orientation="dual")
        dual["triples"] = [dict(t, name=OPPOSITE[t["name"]]) for t in out["triples"]]
        dual["shape"] = dict(out["shape"], rows=out["shape"]["columns"], columns=out["shape"]["rows"])
        return rc, dual
    if cmd == "solve" and not out["solvable"]:
        gap = [dict(g, row=g["column"], column=g["row"]) for g in out["gap"]]
        return rc, {"solvable": False, "gap": gap}
    if cmd in ("solve", "reducts"):
        return rc, out
    if cmd == "reduce":
        return rc, transpose(out)
    if cmd == "approximate":
        # the dual command lists every feasible reduct with its repaired rhs,
        # with or without --pessimistic
        diagnosis = answers[key("approximate", [])]["out"]["diagnosis"]
        if diagnosis["solvable"]:
            reducts = answers[key("reducts", [])]["out"]["reducts"]
            repairs = [(Y, primal["rhs"], {}) for Y in reducts]
        else:
            t_star = {
                tuple(a["reduct"]): a["t_star"]
                for a in answers[key("approximate", [])]["out"]["approximations"]
            }
            repairs = [
                (
                    e["reduct"],
                    t_star[tuple(e["reduct"])],
                    {f"{m['column']}[{m['row']}]": [m["old"], m["new"]] for m in e["modified"]},
                )
                for e in diagnosis["feasible_reducts"]
            ]
        return rc, {
            "solvable": diagnosis["solvable"],
            "feasible_reducts": [list(Y) for Y, _, _ in repairs],
            "approximations": [
                {"reduct": list(Y), "t_star": [list(r) for r in zip(*t)], "modified": mod}
                for Y, t, mod in repairs
            ],
        }
    if cmd == "lattice" and "--dot" in flags:
        return rc, out
    if cmd == "lattice":
        return rc, {"members": [c["extent"] for c in out["concepts"]]}
    raise ValueError(cmd)


def key(cmd: str, flags: list) -> str:
    """Name of a command line; ``<reduct>`` stands for the problem's first reduct."""
    return " ".join([cmd] + flags)


def reference(seed: int, root: str):
    """The three worked examples and their dual transposes, 10 commands each."""
    with open(os.path.join(HERE, "expected", "reference.json")) as fh:
        recorded = json.load(fh)
    problems, requests = {}, []
    for name in EXAMPLES:
        with open(os.path.join(root, "examples_data", f"{name}.json")) as fh:
            primal = json.load(fh)
        answers = recorded[name]
        first_reduct = ",".join(answers["reducts"]["out"]["reducts"][0])
        problems[name] = primal
        problems[f"{name}_dual"] = transpose(primal)
        for cmd, template in REFERENCE_COMMANDS:
            flags = [first_reduct if f == "<reduct>" else f for f in template]
            entry = answers[key(cmd, template)]
            requests.append(
                request(f"{name}:{key(cmd, template)}", name, cmd, flags, entry["rc"], entry["out"])
            )
            rc, out = _dual_expectation(cmd, template, primal, answers)
            requests.append(
                request(f"{name}_dual:{key(cmd, template)}", f"{name}_dual", cmd, flags, rc, out)
            )
    random.Random(f"reference/{seed}").shuffle(requests)
    return problems, requests


# -- random primal instances ------------------------------------------------------


def _problem(n, triples, rows, cols, R, sigma, T) -> dict:
    return {
        "granularity": n,
        "triples": list(triples),
        "orientation": "primal",
        "rows": [f"u{i + 1}" for i in range(rows)],
        "variables": [f"v{i + 1}" for i in range(len(sigma))],
        "columns": [f"w{j + 1}" for j in range(cols)],
        "coefficients": R,
        "sigma": [s + 1 for s in sigma],
        "rhs": T,
    }


def _context(rng, n, triples, rows, nv, low):
    """Random coefficients in [low, n] with a per-unknown triple choice."""
    sigma = [rng.randrange(len(triples)) for _ in range(nv)]
    R = [[rng.randint(low, n) for _ in range(nv)] for _ in range(rows)]
    return R, sigma


def _solvable_columns(rng, p: oracle.Primal, k: int, solutions=(1, None), max_box=None):
    """k rhs columns T_w = R (.) x, each with a number of solutions in the
    closed range ``solutions`` and a solution box of at most ``max_box`` rows;
    None when no column qualifies.

    The solutions of T_w are the candidates x with the same image, so counting
    equal images over all candidates gives every column's count at once.
    """
    images = p.images()
    keys = images @ ((p.n + 1) ** np.arange(images.shape[1], dtype=np.int64))
    _, inverse, multiplicity = np.unique(keys, return_inverse=True, return_counts=True)
    count = multiplicity[inverse.ravel()]
    box = np.prod(p.down(images) + 1, axis=1)
    lo, hi = solutions
    ok = (count >= lo) & (count <= (hi or count.max())) & (box <= (max_box or box.max()))
    choices = np.flatnonzero(ok)
    if not len(choices):
        return None
    return [images[choices[rng.randrange(len(choices))]].tolist() for _ in range(k)]


MANY_RHS_INSTANCES = 32
MANY_RHS_ORACLE_INSTANCES = 2
MANY_RHS_N = 16
MANY_RHS_COLUMNS = 32
MANY_RHS_MAX_CONCEPTS = 128
MANY_RHS_MAX_BOX = 1000
MANY_RHS_SOLUTIONS = (48, 96)


def many_rhs(seed: int):
    """|V| = 3 systems with many rhs columns; small lattices, bounded boxes.

    Every instance has n = MANY_RHS_N, the low end of the workload's 16..24,
    so that each lattice closes only 17^3 object sets, and MANY_RHS_COLUMNS
    columns, the high end of 16..32, so that per-column work outweighs the one
    lattice build of a request.  Instance i has 6..8 equations and a mix of
    two or three triples on a fixed schedule; even instances are solvable
    (T = R (.) X), odd ones get a random T.  Coefficients are drawn from
    [3n/4, n] and contexts with more than MANY_RHS_MAX_CONCEPTS concepts are
    redrawn.  Each solvable column has 48..96 solutions and a solution box of
    at most MANY_RHS_MAX_BOX rows, so every seed enumerates about as many
    solutions.  Two more single-column solvable instances run ``oracle``.
    """
    rng = random.Random(f"many-rhs/{seed}")
    mixes = [m for m in TRIPLE_MIXES if len(m) > 1]
    problems, requests = {}, []
    n = MANY_RHS_N
    for i in range(MANY_RHS_INSTANCES + MANY_RHS_ORACLE_INSTANCES):
        single = i >= MANY_RHS_INSTANCES
        rows = 6 + i % 3
        cols = 1 if single else MANY_RHS_COLUMNS
        triples = mixes[i % len(mixes)]
        while True:
            R, sigma = _context(rng, n, triples, rows, 3, (3 * n) // 4)
            p = oracle.Primal(_problem(n, triples, rows, 1, R, sigma, [[0]] * rows))
            if len(p.extents()) > MANY_RHS_MAX_CONCEPTS:
                continue
            if not (single or i % 2 == 0):
                T = [[rng.randint(0, n) for _ in range(cols)] for _ in range(rows)]
                break
            columns = _solvable_columns(rng, p, cols, MANY_RHS_SOLUTIONS, MANY_RHS_MAX_BOX)
            if columns is not None:
                T = [list(r) for r in zip(*columns)]
                break
        name = f"mr{i:02d}"
        prob = _problem(n, triples, rows, cols, R, sigma, T)
        problems[name] = prob
        p = oracle.Primal(prob)
        if single:
            requests.append(request(f"{name}:oracle", name, "oracle", [], 0, oracle.expect_oracle(p)))
            continue
        requests.append(request(f"{name}:check", name, "check", [], 0, oracle.expect_check(prob)))
        for flags in ([], ["--enumerate"]):
            rc, out = oracle.expect_solve(p, enumerate_all=bool(flags))
            requests.append(request(f"{name}:{key('solve', flags)}", name, "solve", flags, rc, out))
        requests.append(
            request(f"{name}:approximate --pessimistic", name, "approximate", ["--pessimistic"], 0,
                    oracle.expect_pessimistic(p))
        )
    rng.shuffle(requests)
    return problems, requests


BIG_LATTICE_INSTANCES = 24
BIG_LATTICE_CONCEPTS = 300
BIG_LATTICE_TOLERANCE = 0.03
BIG_LATTICE_ROWS = 6
BIG_LATTICE_N = 9


def big_lattice(seed: int):
    """Two dozen |A| = 6, |B| = 4, n = 9 contexts of about 300 concepts each.

    Each context is redrawn until its lattice has 300 +- 3% concepts, so every
    seed builds lattices of the same size.  The speed of the int64 cover
    product depends on the exact size (matrix sides that are multiples of 32
    run up to 2x slower per element on a 2-core x86 host), so a pass builds
    many lattices of sizes spread over the window, which averages that out,
    and stays short enough to be repeated within one run.  One solvable rhs
    column each.
    """
    rng = random.Random(f"big-lattice/{seed}")
    problems, requests = {}, []
    n, rows, target = BIG_LATTICE_N, BIG_LATTICE_ROWS, BIG_LATTICE_CONCEPTS
    for i in range(BIG_LATTICE_INSTANCES):
        triples = TRIPLE_MIXES[rng.randrange(len(TRIPLE_MIXES))]
        while True:
            R, sigma = _context(rng, n, triples, rows, 4, 0)
            p = oracle.Primal(_problem(n, triples, rows, 1, R, sigma, [[0]] * rows))
            if abs(len(p.extents()) - target) <= BIG_LATTICE_TOLERANCE * target:
                break
        T = [[v] for v in _solvable_columns(rng, p, 1)[0]]
        name = f"bl{i:02d}"
        prob = _problem(n, triples, rows, 1, R, sigma, T)
        problems[name] = prob
        p = oracle.Primal(prob)
        requests.append(request(f"{name}:lattice", name, "lattice", [], 0, oracle.expect_lattice(p)))
        requests.append(request(f"{name}:lattice --dot", name, "lattice", ["--dot"], 0, oracle.expect_dot(p)))
        rc, out = oracle.expect_solve(p, enumerate_all=False)
        requests.append(request(f"{name}:solve", name, "solve", [], rc, out))
    rng.shuffle(requests)
    return problems, requests


WORKLOADS = ("reference", "many-rhs", "big-lattice")
# Nominal time of one pass, measured at the first baseline on a 2-core x86-64
# host.  A run makes --seconds / PASS_SECONDS passes, so the number of samples
# is the same for every version of the program, however fast it is.
PASS_SECONDS = {"reference": 30.0, "many-rhs": 4.0, "big-lattice": 5.0}


def passes(workload: str, seconds: float) -> int:
    """Number of untraced passes a run of ``seconds`` makes on ``workload``."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def build(workload: str, seed: int, root: str):
    """(problems by name, requests) of a workload; ``root`` is the checkout."""
    if workload == "reference":
        return reference(seed, root)
    if workload == "many-rhs":
        return many_rhs(seed)
    return big_lattice(seed)
