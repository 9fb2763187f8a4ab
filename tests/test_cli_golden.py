"""Golden CLI behaviour: exit code, stdout and stderr of every command.

Every command line in ``golden_cli.json`` runs on the three ``examples_data/``
files and on their dual transposes, in text and JSON form, and must give
exactly the recorded exit code, stdout and stderr.  The file was recorded once
from a known-good version; to record it again from the current code, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mafre.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_cli.json"
EXAMPLES = HERE.parent / "examples_data"
NAMES = ("squares_solvable", "squares_unsolvable", "maxmin_solvable")
OPPOSITE = {"sq-left": "sq-right", "sq-right": "sq-left", "godel": "godel"}
# "<reduct>" is the first reduct of the file's context
COMMANDS = (
    ["check"],
    ["solve"],
    ["solve", "--enumerate"],
    ["solve", "--enumerate", "--max-count", "3"],
    ["reducts"],
    ["reducts", "--set", "<reduct>"],
    ["reducts", "--set", "u3,u4"],
    ["reduce", "--set", "<reduct>"],
    ["reduce", "--set", "u3,u4"],
    ["approximate"],
    ["approximate", "--pessimistic"],
    ["lattice"],
    ["lattice", "--dot"],
    ["lattice", "--dot", "--intents"],
    ["oracle"],
)


def transpose(problem: dict) -> dict:
    """The dual problem X (.) R^T = T^T over the opposite triples."""
    return dict(
        problem,
        triples=[OPPOSITE[t] for t in problem["triples"]],
        orientation="dual",
        rows=problem["columns"],
        columns=problem["rows"],
        coefficients=[list(r) for r in zip(*problem["coefficients"])],
        rhs=[list(r) for r in zip(*problem["rhs"])],
    )


def write_problems(directory: Path) -> dict:
    """Every example and its dual transpose as files in ``directory``."""
    paths = {}
    for name in NAMES:
        primal = json.loads((EXAMPLES / f"{name}.json").read_text())
        for key, problem in ((name, primal), (f"{name}_dual", transpose(primal))):
            paths[key] = directory / f"{key}.json"
            paths[key].write_text(json.dumps(problem))
    return paths


def run(argv):
    """(exit code, stdout, stderr) of one command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _load_cases():
    if not GOLDEN.exists():
        return []
    return json.loads(GOLDEN.read_text())


CASES = _load_cases()


@pytest.fixture(scope="module")
def problem_paths(tmp_path_factory):
    return write_problems(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{c['file']}:{' '.join(c['args'])}" for c in CASES]
)
def test_cli_matches_golden(case, problem_paths):
    args = case["args"]
    rc, out, err = run([args[0], str(problem_paths[case["file"]]), *args[1:]])
    assert (rc, out, err) == (case["rc"], case["stdout"], case["stderr"])


def test_golden_covers_every_command():
    seen = {(c["file"], c["template"], "--json" in c["args"]) for c in CASES}
    files = [*NAMES, *(f"{name}_dual" for name in NAMES)]
    assert seen == {
        (f, " ".join(cmd), js) for f in files for cmd in COMMANDS for js in (False, True)
    }


def record() -> None:
    """Run every command line with the current code and rewrite GOLDEN."""
    import tempfile

    from mafre.cli import _context
    from mafre.context import enumerate_reducts
    from mafre.io import load_problem

    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for key, path in write_problems(Path(tmp)).items():
            problem = load_problem(path)
            reduct = ",".join(enumerate_reducts(_context(problem.to_instance()))[0])
            for template in COMMANDS:
                for form in ([], ["--json"]):
                    args = [reduct if a == "<reduct>" else a for a in template] + form
                    rc, out, err = run([args[0], str(path), *args[1:]])
                    cases.append(
                        {
                            "file": key,
                            "template": " ".join(template),
                            "args": args,
                            "rc": int(rc),
                            "stdout": out,
                            "stderr": err,
                        }
                    )
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    record()
