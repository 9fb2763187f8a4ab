import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mafre import (
    AdjointTriple,
    Frame,
    FreInstance,
    GranularLattice,
    builtin_frame,
    builtin_triple,
    diagnose,
)
from mafre.cli import main
from mafre.dual import DualFreInstance, dual_compose
from mafre.io import (
    MAX_GRANULARITY,
    ProblemFile,
    ProblemFileError,
    load_problem,
    parse_problem,
    problem_from_instance,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples_data"
SOLVABLE = str(EXAMPLES / "squares_solvable.json")
UNSOLVABLE = str(EXAMPLES / "squares_unsolvable.json")
MAXMIN = str(EXAMPLES / "maxmin_solvable.json")


@pytest.fixture()
def dual_file(tmp_path):
    frame = builtin_frame(["godel", "sq-left"], 4)
    coeff = [
        [frame.value(k) for k in row] for row in ((3, 1), (2, 4), (0, 2))
    ]
    sigma = (0, 1, 0)
    x = [[frame.value(k) for k in row] for row in ((2, 3, 1), (4, 0, 2))]
    rhs = dual_compose(frame, x, coeff, sigma)
    dfre = DualFreInstance(
        frame, ("u1", "u2"), ("v1", "v2", "v3"), ("w1", "w2"), coeff, sigma, rhs
    )
    path = tmp_path / "dual.json"
    path.write_text(problem_from_instance(dfre).dumps())
    return str(path)


class TestProblemFiles:
    def test_load_and_convert(self):
        problem = load_problem(SOLVABLE)
        assert problem.granularity == 8
        assert problem.orientation == "primal"
        fre = problem.to_instance()
        assert fre.row_names == ("u1", "u2", "u3", "u4", "u5")
        assert fre.sigma == (0, 0, 1, 0, 1)  # 1-based in the file

    def test_round_trip(self):
        problem = load_problem(MAXMIN)
        again = parse_problem(json.loads(problem.dumps()))
        assert again == problem

    def test_instance_round_trip(self):
        fre = load_problem(SOLVABLE).to_instance()
        back = problem_from_instance(fre)
        assert back.coefficients == load_problem(SOLVABLE).coefficients
        assert back.sigma == [1, 1, 2, 1, 2]
        assert back.to_instance().rhs == fre.rhs

    def test_custom_table_triple_round_trip(self, tmp_path):
        t = builtin_triple("godel", 3)
        problem = parse_problem(
            {
                "granularity": 3,
                "triples": [
                    {
                        "name": "table-min",
                        "conj": [list(r) for r in t.conj_table],
                        "left_residuum": [list(r) for r in t.left_residuum_table],
                        "right_residuum": [list(r) for r in t.right_residuum_table],
                    }
                ],
                "orientation": "primal",
                "rows": ["u1"],
                "variables": ["v1"],
                "columns": ["w1"],
                "coefficients": [[2]],
                "sigma": [1],
                "rhs": [[1]],
            }
        )
        fre = problem.to_instance()
        assert fre.frame.triples[0].conj_table == t.conj_table
        path = tmp_path / "p.json"
        path.write_text(problem.dumps())
        assert load_problem(path) == problem

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(granularity=0),
            lambda d: d.update(granularity="8"),
            lambda d: d.update(triples=[]),
            lambda d: d.update(triples=["lukasiewicz"]),
            lambda d: d.update(orientation="sideways"),
            lambda d: d.update(rows=[]),
            lambda d: d.update(rows=["u1", "u1", "u3", "u4", "u5"]),
            lambda d: d.update(sigma=[1, 1, 2, 1]),
            lambda d: d.update(sigma=[1, 1, 3, 1, 2]),
            lambda d: d.update(sigma=[0, 1, 2, 1, 2]),
            lambda d: d.update(rhs=[[9], [4], [0], [2], [0]]),
            lambda d: d.update(rhs=[[2.5], [4], [0], [2], [0]]),
            lambda d: d.update(coefficients=[[6, 4, 0, 4]] * 5),
        ],
    )
    def test_rejects_malformed(self, mutate):
        with open(SOLVABLE) as fh:
            data = json.load(fh)
        mutate(data)
        with pytest.raises(ProblemFileError):
            parse_problem(data)

    def test_custom_triple_missing_table(self):
        with pytest.raises(ProblemFileError):
            parse_problem(
                {
                    "granularity": 2,
                    "triples": [{"conj": [[0, 0, 0]] * 3}],
                    "orientation": "primal",
                    "rows": ["u"],
                    "variables": ["v"],
                    "columns": ["w"],
                    "coefficients": [[1]],
                    "sigma": [1],
                    "rhs": [[1]],
                }
            )

    @pytest.mark.parametrize("orientation", ["primal", "dual"])
    def test_custom_triple_name_must_be_a_string(self, orientation, tmp_path, capsys):
        # a dual file names the opposite triple after the original's name
        t = builtin_triple("godel", 2)
        data = {
            "granularity": 2,
            "triples": [
                {
                    "name": 5,
                    "conj": [list(r) for r in t.conj_table],
                    "left_residuum": [list(r) for r in t.left_residuum_table],
                    "right_residuum": [list(r) for r in t.right_residuum_table],
                }
            ],
            "orientation": orientation,
            "rows": ["u"],
            "variables": ["v"],
            "columns": ["w"],
            "coefficients": [[1]],
            "sigma": [1],
            "rhs": [[1]],
        }
        with pytest.raises(ProblemFileError, match="custom triple name must be a string"):
            parse_problem(data)
        path = tmp_path / "named.json"
        for command in ("check", "solve"):
            path.write_text(json.dumps(data))
            assert main([command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "error: custom triple name must be a string\n"
        data["triples"][0]["name"] = "min"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 0

    def test_table_triple_named_as_a_builtin_round_trip(self):
        # a triple called "godel" with the sq-left tables is written as tables
        n, sq_left = 4, builtin_triple("sq-left", 4)
        renamed = AdjointTriple(
            "godel", n, sq_left.conj_table, sq_left.left_residuum_table,
            sq_left.right_residuum_table,
        )
        frame = Frame(GranularLattice(n), [renamed, builtin_triple("godel", n)])
        fre = FreInstance(
            frame, ["u1", "u2"], ["v1", "v2"], ["w"], [[3, 1], [2, 4]], [0, 1], [[2], [1]]
        )
        problem = problem_from_instance(fre)
        assert problem.triples[1] == "godel"
        assert problem.triples[0]["name"] == "godel"
        assert problem.triples[0]["conj"] == [list(r) for r in sq_left.conj_table]
        back = parse_problem(json.loads(problem.dumps())).to_instance()
        assert [t.conj_table for t in back.frame.triples] == [
            sq_left.conj_table, builtin_triple("godel", n).conj_table,
        ]
        assert back.rhs == fre.rhs and back.coeff == fre.coeff

    def test_granularity_cap(self, tmp_path, capsys, monkeypatch):
        import mafre.io

        with open(SOLVABLE) as fh:
            data = json.load(fh)
        data["granularity"] = MAX_GRANULARITY
        assert parse_problem(data).granularity == 512
        built = []
        monkeypatch.setattr(
            mafre.io, "builtin_triple", lambda *a: built.append(a) or builtin_triple(*a)
        )
        data["granularity"] = MAX_GRANULARITY + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: granularity 513 exceeds 512\n"
        assert built == []

    def test_dual_file_orientation(self, dual_file):
        problem = load_problem(dual_file)
        assert problem.orientation == "dual"
        assert isinstance(problem.to_instance(), DualFreInstance)


class TestCliSolve:
    def test_check_ok(self, capsys):
        assert main(["check", SOLVABLE]) == 0
        assert "valid" in capsys.readouterr().out

    def test_check_json(self, capsys):
        assert main(["check", SOLVABLE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] and payload["granularity"] == 8
        assert all(t["adjoint"] for t in payload["triples"])

    def test_check_verifies_each_triple_once(self, capsys, monkeypatch, tmp_path):
        import mafre.algebra

        calls = []
        verify = mafre.algebra.verify_adjoint_triple
        monkeypatch.setattr(
            mafre.algebra,
            "verify_adjoint_triple",
            lambda t, lattice: calls.append(t.name) or verify(t, lattice),
        )
        mafre.algebra.builtin_triple.cache_clear()
        assert main(["check", SOLVABLE]) == 0
        assert calls == ["sq-left", "sq-right"]
        # the built-in triples of a second load are the verified ones
        assert main(["check", SOLVABLE]) == 0
        assert calls == ["sq-left", "sq-right"]
        # a triple given by its tables is a new triple on every load
        with open(SOLVABLE) as fh:
            data = json.load(fh)
        sq_right = builtin_triple("sq-right", 8)
        data["triples"][1] = {
            "name": "custom",
            "conj": [list(r) for r in sq_right.conj_table],
            "left_residuum": [list(r) for r in sq_right.left_residuum_table],
            "right_residuum": [list(r) for r in sq_right.right_residuum_table],
        }
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps(data))
        for _ in range(2):
            assert main(["check", str(custom)]) == 0
        assert calls == ["sq-left", "sq-right", "custom", "custom"]
        capsys.readouterr()
        # a triple that fails is marked nowhere, so it fails on every load
        data["triples"][1]["name"] = "broken"
        data["triples"][1]["conj"][8][8] = 0
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        for _ in range(2):
            assert main(["check", str(broken)]) == 2
            assert "triple 'broken' fails adjunction" in capsys.readouterr().err
        assert calls[4:] == ["broken", "broken"]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        import mafre.cli

        builds = []
        build = mafre.cli.build_parser
        monkeypatch.setattr(mafre.cli, "build_parser", lambda: builds.append(1) or build())
        mafre.cli._parser.cache_clear()
        try:
            assert main(["solve", SOLVABLE, "--json"]) == 0
            first = capsys.readouterr().out
            with pytest.raises(SystemExit) as exc:  # a rejected line leaves no state
                main(["solve", SOLVABLE, "--max-count", "x"])
            assert exc.value.code == 2
            capsys.readouterr()
            assert main(["check", MAXMIN]) == 0
            assert "valid" in capsys.readouterr().out
            assert main(["solve", SOLVABLE, "--json"]) == 0
            assert capsys.readouterr().out == first
            assert builds == [1]
        finally:
            mafre.cli._parser.cache_clear()

    @pytest.mark.parametrize(
        "argv",
        [["solve", MAXMIN, "--enumerate"], ["approximate", UNSOLVABLE], ["reducts", MAXMIN]],
    )
    def test_only_the_printed_format_is_built(self, argv, capsys, monkeypatch):
        import mafre.cli
        from mafre.approx import DiagnosisReport

        def refuse(*args, **kwargs):
            raise AssertionError("built a format that is not printed")

        with monkeypatch.context() as patch:  # --json renders no text
            patch.setattr(mafre.cli, "_vec", refuse)
            patch.setattr(DiagnosisReport, "render_text", refuse)
            assert main(argv + ["--json"]) == 0
            json.loads(capsys.readouterr().out)
        with monkeypatch.context() as patch:  # text encodes no JSON
            patch.setattr(mafre.cli, "_dumps", refuse)
            assert main(argv) == 0
            assert capsys.readouterr().out

    def test_solve_solvable(self, capsys):
        assert main(["solve", SOLVABLE]) == 0
        out = capsys.readouterr().out
        assert "solvable" in out
        assert "(0, 0, 0, 0.875, 0)" in out
        assert "2 solution(s)" in out

    def test_solve_enumerate_json(self, capsys):
        assert main(["solve", MAXMIN, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solvable"]
        assert payload["solutions"]["columns"][0]["count"] == 875

    def test_solve_unsolvable_exit_1(self, capsys):
        assert main(["solve", UNSOLVABLE]) == 1
        assert "unsolvable" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [[], ["--enumerate"]])
    def test_solve_closes_the_rhs_once(self, flags, tmp_path, capsys, monkeypatch):
        import mafre.fre
        from test_cli_golden import write_problems

        closures = []
        closure = mafre.fre._closures
        monkeypatch.setattr(
            mafre.fre, "_closures", lambda fre: closures.append(fre) or closure(fre)
        )
        codes = {}
        for name, path in write_problems(tmp_path).items():
            for json_flag in ([], ["--json"]):
                closures.clear()
                codes[name] = main(["solve", str(path), *flags, *json_flag])
                assert len(closures) == 1, (name, json_flag)
        capsys.readouterr()
        assert len(codes) == 6  # both exit codes are covered, in both orientations
        assert all(rc == ("unsolvable" in name) for name, rc in codes.items())

    def test_solve_max_count_caps_listing(self, capsys):
        assert main(["solve", MAXMIN, "--enumerate", "--max-count", "3"]) == 0
        out = capsys.readouterr().out
        assert "... (872 more)" in out

    def test_solve_max_count_zero_lists_none(self, capsys):
        assert main(["solve", MAXMIN, "--enumerate", "--max-count", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["  875 solution(s)", "  ... (875 more)"]

    def test_solve_negative_max_count_exit_2(self, capsys):
        assert main(["solve", MAXMIN, "--enumerate", "--max-count", "-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max-count" in captured.err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["oracle", MAXMIN, "--budget", "-1"], "--budget"),
            (["approximate", UNSOLVABLE, "--notable-threshold", "-5"], "--notable-threshold"),
            (["approximate", SOLVABLE, "--notable-threshold", "-1"], "--notable-threshold"),
        ],
    )
    def test_negative_integer_options_exit_2(self, argv, option, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and option in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", MAXMIN, "--enumerate"],
            ["solve", MAXMIN, "--json"],
            ["lattice", MAXMIN, "--dot"],
            ["reduce", SOLVABLE, "--set", "u1,u2,u3"],
            ["solve", UNSOLVABLE],
        ],
    )
    def test_closed_stdout_is_not_an_error(self, argv):
        """A reader that is gone before the command writes (``| head``) costs
        neither a traceback nor the command's exit code."""
        code = "import sys; from mafre.cli import main; sys.exit(main())"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == (1 if argv[1] == UNSOLVABLE else 0)
        assert err == ""

    def test_missing_file_exit_2(self, capsys):
        assert main(["solve", "/nonexistent.json"]) == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2

    def test_failed_adjunction_exit_2(self, tmp_path, capsys):
        # a "conjunctor" with no adjoint residua must be refused at check time
        t = builtin_triple("godel", 2)
        data = {
            "granularity": 2,
            "triples": [
                {
                    "name": "max-disguised",
                    "conj": [[max(a, b) for b in range(3)] for a in range(3)],
                    "left_residuum": [list(r) for r in t.left_residuum_table],
                    "right_residuum": [list(r) for r in t.right_residuum_table],
                }
            ],
            "orientation": "primal",
            "rows": ["u"],
            "variables": ["v"],
            "columns": ["w"],
            "coefficients": [[1]],
            "sigma": [1],
            "rhs": [[1]],
        }
        path = tmp_path / "bad_triple.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("granularity", True, "granularity must be an integer >= 1"),
            ("sigma", [True], "sigma index True outside 1..1"),
        ],
    )
    def test_json_boolean_exit_2(self, field, value, message, tmp_path, capsys):
        # JSON true decodes to a bool, which isinstance(..., int) accepts
        data = {
            "granularity": 1,
            "triples": ["godel"],
            "rows": ["u"],
            "variables": ["v"],
            "columns": ["w"],
            "coefficients": [[1]],
            "sigma": [1],
            "rhs": [[1]],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--json"]) == 0
        data[field] = value
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check", str(path), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


class TestCliReductsAndReduce:
    def test_reducts_listing(self, capsys):
        assert main(["reducts", SOLVABLE]) == 0
        out = capsys.readouterr().out
        assert "{u1, u2, u3}" in out and "{u2, u3, u4}" in out

    def test_reducts_set_check(self, capsys):
        assert main(["reducts", SOLVABLE, "--set", "u3,u4"]) == 0
        assert "NOT consistent" in capsys.readouterr().out

    def test_reducts_json(self, capsys):
        assert main(["reducts", MAXMIN, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reducts"] == [["u1", "u2", "u3"], ["u1", "u3", "u4"]]

    def test_reduce_writes_solvable_file(self, tmp_path, capsys):
        out_path = tmp_path / "reduced.json"
        assert main(["reduce", SOLVABLE, "--set", "u1,u2,u3", "-o", str(out_path)]) == 0
        reduced = load_problem(out_path)
        assert reduced.rows == ["u1", "u2", "u3"]
        assert main(["solve", str(out_path)]) == 0

    def test_reduce_inconsistent_refused(self, capsys):
        assert main(["reduce", SOLVABLE, "--set", "u3,u4"]) == 2

    def test_reduce_force(self, tmp_path, capsys):
        out_path = tmp_path / "forced.json"
        assert (
            main(["reduce", SOLVABLE, "--set", "u3,u4", "--force", "-o", str(out_path)])
            == 0
        )
        assert load_problem(out_path).rows == ["u3", "u4"]

    def test_reduce_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "out.json"
        assert main(["reduce", SOLVABLE, "--set", "u1,u2,u3", "-o", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: cannot write {out_path}: ")

    def test_reduce_stdout(self, capsys):
        assert main(["reduce", MAXMIN, "--set", "u1,u2,u3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == ["u1", "u2", "u3"]


class TestCliApproximate:
    def test_approximate_unsolvable(self, capsys):
        assert main(["approximate", UNSOLVABLE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not payload["diagnosis"]["solvable"]
        (entry,) = payload["approximations"]
        assert entry["reduct"] == ["u1", "u2", "u3"]
        assert entry["t_star"] == [[4], [7], [3], [4], [4]]
        assert entry["solution_counts"] == {"w": 4374}

    def test_approximate_text_severities(self, capsys):
        assert main(["approximate", UNSOLVABLE]) == 0
        out = capsys.readouterr().out
        assert "slight" in out and "notable" in out

    def test_approximate_solvable(self, capsys):
        assert main(["approximate", SOLVABLE]) == 0
        assert "solvable as stated" in capsys.readouterr().out

    def test_no_feasible_reduct(self, tmp_path, capsys):
        # Godel n = 1: the only reduct, {u1, u2}, is infeasible
        fre = FreInstance(
            builtin_frame(["godel"], 1), ["u1", "u2"], ["v1", "v2"], ["w"],
            [[0, 1], [1, 1]], [0, 0], [[1], [0]],
        )
        path = tmp_path / "none.json"
        path.write_text(problem_from_instance(fre).dumps())
        text = (
            "no reduct-based repair exists for this instance\n"
            "reduct {u1, u2} is infeasible: the instance stays unsolvable no "
            "matter how the right-hand sides outside it are changed"
        )
        assert diagnose(fre).render_text() == text
        assert main(["approximate", str(path)]) == 0
        assert capsys.readouterr().out == text + "\n"
        assert main(["approximate", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnosis"]["feasible_reducts"] == []
        assert payload["diagnosis"]["infeasible_reducts"] == [["u1", "u2"]]
        assert payload["approximations"] == []

    def test_pessimistic(self, capsys):
        assert main(["approximate", UNSOLVABLE, "--pessimistic", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pessimistic_rhs"] == [[2], [5], [1], [2], [1]]

    def test_each_repair_computed_once(self, tmp_path, capsys, monkeypatch):
        # approximate repairs every reduct once where it lists repairs (each
        # dual file and the unsolvable primal; a solvable primal is answered
        # without any); the JSON output reads the same results, and only a
        # printed solution count sweeps a solution box
        import mafre.approx as approx
        from mafre.cli import _context
        from mafre.context import enumerate_reducts
        from test_cli_golden import write_problems

        calls = {}

        def spy(name):
            real = getattr(approx, name)
            return lambda *a, **k: calls.update({name: calls[name] + 1}) or real(*a, **k)

        for name in ("_repair", "approximate_by_reduct", "enumerate_solutions"):
            monkeypatch.setattr(approx, name, spy(name))

        def counted(*argv):
            calls.update(_repair=0, approximate_by_reduct=0, enumerate_solutions=0)
            assert main(["approximate", *argv]) == 0
            capsys.readouterr()
            return tuple(calls.values())  # repairs, approximate_by_reduct, sweeps

        assert counted(UNSOLVABLE, "--json") == (2, 0, 1)
        assert counted(UNSOLVABLE)[2] == 0
        for name, path in write_problems(tmp_path).items():
            reducts = enumerate_reducts(_context(load_problem(path).to_instance()))
            dual = name.endswith("_dual")
            listed = dual or name == "squares_unsolvable"
            for form in ([], ["--json"]):
                repairs, _, sweeps = counted(str(path), *form)
                assert repairs == (len(reducts) if listed else 0), (name, form)
                assert not (dual and sweeps)


class TestCliLatticeAndOracle:
    def test_lattice_dot_node_count(self, capsys):
        assert main(["lattice", SOLVABLE, "--dot"]) == 0
        dot = capsys.readouterr().out
        assert dot.count("[label=") == 40
        assert dot.startswith("digraph")

    def test_lattice_summary(self, capsys):
        assert main(["lattice", SOLVABLE]) == 0
        assert "40 concepts" in capsys.readouterr().out

    def test_oracle_match(self, capsys):
        assert main(["oracle", MAXMIN]) == 0
        assert "MATCH (875 solutions)" in capsys.readouterr().out

    def test_lattice_budget_exit_3(self, capsys, monkeypatch):
        import mafre.algebra

        # 40 concepts over 5 attributes and 5 objects: 200 extent entries,
        # 1000 cover candidate entries
        lattice, dot = ["lattice", SOLVABLE], ["lattice", SOLVABLE, "--dot"]
        for budget, codes in ((199, (3, 3)), (200, (0, 3)), (1000, (0, 0))):
            monkeypatch.setattr(mafre.algebra, "MAX_ENTRIES", budget)
            for argv, code in zip((lattice, dot), codes):
                assert main(argv) == code
                out, err = capsys.readouterr()
                if code:
                    assert out == "" and err.count("\n") == 1
                    assert err.startswith("error: ")
                    assert err.endswith(f" entries, exceeds budget {budget}\n")
                else:
                    assert out and err == ""

    def test_oracle_budget_exit_3(self, capsys):
        assert main(["oracle", MAXMIN, "--budget", "10"]) == 3

    def test_reduct_budget_exit_3(self, capsys, monkeypatch):
        import mafre.context
        from mafre import associated_context, enumerate_reducts
        from mafre.errors import BudgetExceededError

        # squares_unsolvable has two reducts, {u1, u2, u3} and {u2, u3, u4}
        monkeypatch.setattr(mafre.context, "MAX_REDUCTS", 1)
        ctx = associated_context(load_problem(UNSOLVABLE).to_instance())
        with pytest.raises(BudgetExceededError, match="exceeds 1 partial reducts"):
            enumerate_reducts(ctx)
        for argv in (["reducts", UNSOLVABLE], ["approximate", UNSOLVABLE], ["reducts", MAXMIN]):
            assert main(argv) == 3
            assert capsys.readouterr().err == "error: reduct search exceeds 1 partial reducts\n"
        monkeypatch.setattr(mafre.context, "MAX_REDUCTS", 2)
        assert len(enumerate_reducts(ctx)) == 2
        assert main(["reducts", UNSOLVABLE]) == 0
        assert capsys.readouterr().out.startswith("2 reduct(s):")

    @pytest.mark.parametrize("orientation", ["primal", "dual"])
    def test_solution_box_budget_exit_3(self, orientation, tmp_path, capsys):
        # every coefficient and rhs entry 0: each part's maximum is top, a
        # box of 10^12 rows over 12 unknowns at n = 9
        names = {"rows": ["u1", "u2", "u3"], "columns": ["w1", "w2"]}
        names["variables"] = [f"v{i}" for i in range(12)]
        coeff = [[0] * 12] * 3 if orientation == "primal" else [[0] * 2] * 12
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "granularity": 9, "triples": ["godel"], "orientation": orientation,
            **names, "coefficients": coeff, "sigma": [1] * 12, "rhs": [[0] * 2] * 3,
        }))
        for flags in (["--max-count", "2"], ["--json"]):
            assert main(["solve", str(path), "--enumerate", *flags]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == (
                "error: sweeping a solution box of 1000000000000 rows over 12 unknowns"
                " and 0 predecessors needs 12000000000000 entries, exceeds budget"
                " 33554432\n"
            )
        # counting needs no box
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.count("\n  1000000000000 solution") == (
            2 if orientation == "primal" else 3
        )

    def test_largest_listed_box(self, tmp_path, capsys, monkeypatch):
        import mafre.algebra
        from mafre import enumerate_solutions
        from mafre.errors import BudgetExceededError

        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "granularity": 2, "triples": ["godel"], "rows": ["u1"],
            "variables": ["v1", "v2", "v3"], "columns": ["w"],
            "coefficients": [[0, 0, 0]], "sigma": [1, 1, 1], "rhs": [[0]],
        }))
        fre = load_problem(path).to_instance()
        # 3^3 rows over 3 unknowns, no predecessors: the listing holds
        # 27 x 3 entries, and its minimal rows need no more
        monkeypatch.setattr(mafre.algebra, "MAX_ENTRIES", 81)
        assert enumerate_solutions(fre).column("w").solution_rows.shape == (27, 3)
        assert main(["solve", str(path), "--enumerate", "--max-count", "0"]) == 0
        assert capsys.readouterr().out.endswith("  27 solution(s)\n  ... (27 more)\n")
        monkeypatch.setattr(mafre.algebra, "MAX_ENTRIES", 80)
        with pytest.raises(
            BudgetExceededError,
            match="^sweeping a solution box of 27 rows over 3 unknowns and 0"
            " predecessors needs 81 entries, exceeds budget 80$",
        ):
            enumerate_solutions(fre)
        assert enumerate_solutions(fre, materialize=False).column("w").count == 27

    @pytest.mark.parametrize("n_vars, n_free", [(70, 3), (60, 19)])
    def test_many_unknowns_small_box(self, n_vars, n_free, tmp_path, capsys):
        # u = 0 with coefficient 0 on the first n_free unknowns and 1 on the
        # rest: the maximum is 1 on the former and 0 on the latter, a box of
        # 2^n_free rows with no predecessors (2^19 x 60 entries, within the
        # budget), whose one minimal row is zero
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "granularity": 1, "triples": ["godel"], "rows": ["u"],
            "variables": [f"v{i}" for i in range(n_vars)], "columns": ["w"],
            "coefficients": [[0] * n_free + [1] * (n_vars - n_free)],
            "sigma": [1] * n_vars, "rhs": [[0]],
        }))
        rows = 2**n_free
        code = main(["solve", str(path), "--enumerate", "--max-count", "1"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        zero = "(" + ", ".join(["0"] * n_vars) + ")"
        assert f"  {rows} solution(s)\n  {zero}\n  ... ({rows - 1} more)\n" in out
        assert main(["solve", str(path)]) == 0
        assert f"  {rows} solution(s)\n" in capsys.readouterr().out

    @staticmethod
    def _identity(path, n, nv, orientation):
        """``conftest.identity_problem`` as a file at ``path``."""
        from conftest import identity_problem
        from test_cli_golden import transpose

        problem = identity_problem(n, nv)
        path.write_text(json.dumps(transpose(problem) if orientation == "dual" else problem))
        return str(path)

    @pytest.mark.parametrize("orientation", ["primal", "dual"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_count_budget_exit_3(self, n, orientation, tmp_path, capsys, monkeypatch):
        # a box of (n + 1)^40 rows below 40 predecessors: the count splits it
        # into 38 memo states of 40 entries and finds the one solution; one
        # entry less of budget and it exits 3
        import mafre.algebra

        path = self._identity(tmp_path / "identity.json", n, 40, orientation)
        one = "  1 solution row(s)\n" if orientation == "dual" else "  1 solution(s)\n"
        assert main(["solve", path]) == 0
        assert capsys.readouterr().out.endswith(one)
        assert main(["solve", path, "--json"]) == 0
        counts = json.loads(capsys.readouterr().out)["solutions"]["columns"]
        assert [c["count"] for c in counts] == [1]
        monkeypatch.setattr(mafre.algebra, "MAX_ENTRIES", 38 * 40 - 1)
        error = (
            "counting the solutions over 40 unknowns and 40 predecessors needs 1520"
            " entries, exceeds budget 1519"
        )
        for form in ([], ["--json"]):
            assert main(["solve", path, *form]) == 3
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_list_under_budget(self, tmp_path, capsys):
        # 2^20 box rows over 20 unknowns and 20 predecessors: the box is within
        # the budget, and its one solution has one minimal row
        path = self._identity(tmp_path / "identity.json", 1, 20, "primal")
        assert main(["solve", path, "--enumerate"]) == 0
        one = "(" + ", ".join(["1"] * 20) + ")"
        assert capsys.readouterr().out == (
            f"solvable\ncolumn w: maximum {one}\n  1 solution(s)\n  {one}\n"
        )


class TestCliDual:
    def test_dual_check_and_solve(self, dual_file, capsys):
        assert main(["check", dual_file]) == 0
        assert "orientation dual" in capsys.readouterr().out
        assert main(["solve", dual_file]) == 0
        assert "solvable" in capsys.readouterr().out

    def test_dual_oracle(self, dual_file, capsys):
        assert main(["oracle", dual_file]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_dual_reducts_and_lattice(self, dual_file, capsys):
        assert main(["reducts", dual_file]) == 0
        capsys.readouterr()
        assert main(["lattice", dual_file, "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dual_lattice_dot_intents(self, dual_file, capsys):
        assert main(["lattice", dual_file, "--dot"]) == 0
        plain = [l for l in capsys.readouterr().out.splitlines() if "[label=" in l]
        assert main(["lattice", dual_file, "--dot", "--intents"]) == 0
        labelled = [l for l in capsys.readouterr().out.splitlines() if "[label=" in l]
        assert len(labelled) == len(plain) > 1
        # every node carries the extent, then the column-side intent
        for before, after in zip(plain, labelled):
            assert after.startswith(before[: -len('"];')] + "\\n(")

    def test_dual_unsolvable_exit_1(self, dual_file, tmp_path, capsys):
        problem = load_problem(dual_file)
        problem.rhs[0][0] = (problem.rhs[0][0] + 1) % (problem.granularity + 1)
        path = tmp_path / "dual_bad.json"
        path.write_text(problem.dumps())
        code = main(["solve", str(path)])
        assert code in (0, 1)
        if code == 1:
            assert "unsolvable" in capsys.readouterr().out


def _all_zero_file(tmp_path, orientation, rhs):
    """All coefficients 0: the lattice is {top} and {} is the only reduct."""
    n_coeff = (2, 3) if orientation == "primal" else (3, 2)
    data = {
        "granularity": 4,
        "triples": ["godel", "sq-left"],
        "orientation": orientation,
        "rows": ["u1", "u2"],
        "variables": ["v1", "v2", "v3"],
        "columns": ["w1", "w2"],
        "coefficients": [[0] * n_coeff[1]] * n_coeff[0],
        "sigma": [1, 2, 1],
        "rhs": rhs,
    }
    path = tmp_path / f"zero_{orientation}.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestCliEmptyReduct:
    SOLVABLE_RHS = [[0, 0], [0, 0]]
    UNSOLVABLE_RHS = [[0, 3], [2, 0]]

    @pytest.mark.parametrize("orientation, name", [("primal", "u1"), ("dual", "w1")])
    def test_reducts(self, orientation, name, tmp_path, capsys):
        path = _all_zero_file(tmp_path, orientation, self.UNSOLVABLE_RHS)
        assert main(["reducts", path, "--set", name]) == 0
        out = capsys.readouterr().out
        assert out == f"1 reduct(s):\n  {{}}\nset {{{name}}} is consistent\n"
        assert main(["reducts", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"reducts": [[]]}

    def test_primal_approximate(self, tmp_path, capsys):
        path = _all_zero_file(tmp_path, "primal", self.UNSOLVABLE_RHS)
        assert main(["approximate", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "feasible reduct {}: no equations kept",
            "  u1[w2]: 3/4 -> 0/4 (3 granular steps; notable)",
            "  u2[w1]: 2/4 -> 0/4 (2 granular steps; notable)",
        ]
        assert main(["approximate", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["approximations"]
        assert entry == {
            "reduct": [],
            "t_star": [[0, 0], [0, 0]],
            "solution_counts": {"w1": 125, "w2": 125},
        }
        solvable = _all_zero_file(tmp_path, "primal", self.SOLVABLE_RHS)
        assert main(["approximate", solvable]) == 0
        assert "solvable as stated" in capsys.readouterr().out

    @pytest.mark.parametrize("rhs", [SOLVABLE_RHS, UNSOLVABLE_RHS])
    def test_dual_approximate(self, rhs, tmp_path, capsys):
        path = _all_zero_file(tmp_path, "dual", rhs)
        assert main(["approximate", path]) == 0
        assert capsys.readouterr().out == (
            "1 feasible column reduct(s)\nreduct {}:\n  (0, 0)\n  (0, 0)\n"
        )
        assert main(["approximate", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible_reducts"] == [[]]
        assert payload["approximations"][0]["t_star"] == [[0, 0], [0, 0]]

    @pytest.mark.parametrize("orientation", ["primal", "dual"])
    def test_reduce_to_empty_set_exit_2(self, orientation, tmp_path, capsys):
        path = _all_zero_file(tmp_path, orientation, self.SOLVABLE_RHS)
        for raw in ("", ","):
            assert main(["reduce", path, "--set", raw]) == 2
            assert "--set must name at least one element" in capsys.readouterr().err
