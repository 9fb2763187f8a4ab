"""Records the expected answers of the reference workload.

Usage, from the root of a mafre checkout:

    python3 perfbench/record.py

Runs the ten reference command lines on the three ``examples_data/`` problems
through ``mafre.cli.main`` and writes their exit codes and outputs to
``perfbench/expected/reference.json``.  Before writing, every answer is
checked against the exact values pinned by the acceptance criteria and, where
the brute-force oracle covers the command, against the oracle.  Run it again
only when the reference problems or the recorded command lines change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SQUARES_REDUCTS = [["u1", "u2", "u3"], ["u2", "u3", "u4"]]


def run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return int(rc), out.getvalue()


def expect(cond, what):
    if not cond:
        raise SystemExit(f"record: {what}")


def acceptance(name: str, answers: dict) -> None:
    """The values the acceptance criteria pin for the worked examples."""
    reducts = answers["reducts"]["out"]["reducts"]
    solve = answers["solve --enumerate"]
    if name == "squares_solvable":
        expect(reducts == SQUARES_REDUCTS, "criterion 02 reducts")
        col = solve["out"]["solutions"]["columns"][0]
        expect(col["max_solution"] == [0, 0, 0, 7, 0], "criterion 01 necessity image")
        expect(sorted(col["solutions"]) == [[0, 0, 0, 6, 0], [0, 0, 0, 7, 0]], "criterion 04 solutions")
    elif name == "squares_unsolvable":
        expect(reducts == SQUARES_REDUCTS, "criterion 02 reducts")
        expect(solve["rc"] == 1, "unsolvable instance solves")
        pessimistic = answers["approximate --pessimistic"]["out"]["pessimistic_rhs"]
        expect(pessimistic == [[2], [5], [1], [2], [1]], "criterion 06 interior")
        out = answers["approximate"]["out"]
        diagnosis = out["diagnosis"]
        expect([e["reduct"] for e in diagnosis["feasible_reducts"]] == [SQUARES_REDUCTS[0]],
               "criterion 06 feasible reduct")
        expect(diagnosis["infeasible_reducts"] == [SQUARES_REDUCTS[1]], "criterion 06 infeasible reduct")
        repair = out["approximations"][0]
        expect(repair["t_star"] == [[4], [7], [3], [4], [4]], "criterion 06 repaired rhs")
        expect(repair["solution_counts"] == {"w": 4374}, "criterion 06 solution count")
    elif name == "maxmin_solvable":
        expect(reducts == [["u1", "u2", "u3"], ["u1", "u3", "u4"]], "criterion 07 reducts")
        col = solve["out"]["solutions"]["columns"][0]
        expect(col["count"] == 875 and col["max_solution"] == [8, 3, 3, 3, 3], "criterion 07 count")
        minimal = col["minimal"]
        expect(len(minimal) == 4 and all(x[0] == 4 and sorted(x[1:]) == [0, 0, 0, 3] for x in minimal),
               "criterion 07 minimal solutions")


def agrees_with_oracle(problem: dict, answers: dict) -> None:
    p = oracle.Primal(problem)
    cases = {
        "check": (0, oracle.expect_check(problem)),
        "solve": oracle.expect_solve(p, enumerate_all=False),
        "solve --enumerate": oracle.expect_solve(p, enumerate_all=True),
        "approximate --pessimistic": (0, oracle.expect_pessimistic(p)),
        "lattice": (0, oracle.expect_lattice(p)),
        "lattice --dot": (0, oracle.expect_dot(p)),
    }
    for key, (rc, value) in cases.items():
        got = answers[key]
        cmd = key.split()[0]
        expect(got["rc"] == rc and check.canonical(cmd, got["out"]) == check.canonical(cmd, value),
               f"{problem['rows']} {key} disagrees with the oracle")


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from mafre.cli import main as mafre_main

    recorded = {}
    for name in workloads.EXAMPLES:
        path = os.path.join(root, "examples_data", f"{name}.json")
        with open(path) as fh:
            problem = json.load(fh)
        answers = {}
        for cmd, template in workloads.REFERENCE_COMMANDS:
            reduct = answers.get("reducts", {}).get("out", {}).get("reducts", [[]])[0]
            flags = [",".join(reduct) if f == "<reduct>" else f for f in template]
            kind = "dot" if "--dot" in flags else "json"
            json_flag = [] if kind == "dot" else ["--json"]
            rc, stdout = run(mafre_main, [cmd, path, *json_flag, *flags])
            answers[workloads.key(cmd, template)] = {"rc": rc, "out": check.decode(kind, stdout)}
        acceptance(name, answers)
        agrees_with_oracle(problem, answers)
        reduced = answers["reduce --set <reduct>"]["out"]
        keep = [problem["rows"].index(u) for u in answers["reducts"]["out"]["reducts"][0]]
        expect(reduced["rhs"] == [problem["rhs"][i] for i in keep]
               and reduced["coefficients"] == [problem["coefficients"][i] for i in keep],
               f"{name} reduce keeps other rows")
        recorded[name] = answers
        print(f"recorded {name}: {len(answers)} command lines")
    target = os.path.join(HERE, "expected", "reference.json")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "w") as fh:
        json.dump(recorded, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
