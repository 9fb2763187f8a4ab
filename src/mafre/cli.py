"""Command-line interface.

Every command reads a JSON problem file and supports ``--json`` for
machine-readable output.  All JSON output, that of ``--json`` and the problem
file of ``reduce``, is printed by ``io._dumps``.  Exit codes: 0 success,
1 unsolvable (solve), 2 malformed input, 3 budget exceeded.

Every command and option is one entry of ``_COMMANDS``.  ``_read`` reads a
well-formed line straight from that table; argparse, whose parser
``build_parser`` builds from the same table, reads every other line: help,
usage errors, abbreviations.
"""

from __future__ import annotations

import enum
import functools
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import approx, dual as dual_mod, fre as fre_mod
from .context import (
    build_concept_lattice,
    enumerate_reducts,
    is_consistent,
    lattice_to_dot,
)
from .errors import BudgetExceededError, MafreError, UnsolvableError
from .io import ProblemFileError, _dumps, _Records, load_instance, problem_from_instance


class ExitStatus(enum.IntEnum):
    OK = 0
    UNSOLVABLE = 1
    INPUT_ERROR = 2
    BUDGET_EXCEEDED = 3


@functools.lru_cache(maxsize=16)
def _decimals(n: int) -> tuple:
    """The decimal text of every numerator k/n, indexed by k."""
    return tuple(f"{k / n:g}" for k in range(n + 1))


def _vec(numerators, n: int) -> str:
    dec = _decimals(n)
    return "(" + ", ".join([dec[k] for k in numerators]) + ")"


def _print(text: str) -> None:
    """Print ``text`` to stdout.  A reader that has stopped reading (as
    ``| head`` does) is not an error: stdout is then pointed at devnull, so
    the flush at exit cannot fail again, and the command keeps its exit code."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, payload, text) -> None:
    """Print ``payload()`` as JSON with --json, else ``text()``; only the
    printed one is built."""
    _print(_dumps(payload()) if args.json else text())


def _non_negative(value, option: str) -> None:
    """Refuse a negative value of an integer option (exit 2)."""
    if value is not None and value < 0:
        raise ProblemFileError(f"{option} must be >= 0")


def _split_set(raw: str):
    names = [s for s in (part.strip() for part in raw.split(",")) if s]
    if not names:
        raise ProblemFileError("--set must name at least one element")
    return names


def cmd_check(args) -> int:
    # loading checks the file and builds its frame, which verifies every triple
    problem, instance = load_instance(args.file)
    triples = instance.frame.triples
    payload = lambda: {
        "valid": True,
        "granularity": problem.granularity,
        "orientation": problem.orientation,
        "triples": [{"name": t.name, "adjoint": True} for t in triples],
        "shape": {
            "rows": len(problem.rows),
            "variables": len(problem.variables),
            "columns": len(problem.columns),
        },
    }
    text = lambda: (
        f"valid: {len(triples)} triple(s) verified on [0,1]_{problem.granularity}; "
        f"{len(problem.rows)} row(s) x {len(problem.variables)} unknown(s), "
        f"{len(problem.columns)} rhs column(s), orientation {problem.orientation}"
    )
    _emit(args, payload, text)
    return ExitStatus.OK


def _solve(args, instance, solutions_of, closure, part, counted) -> int:
    """Solve through the orientation's ``solutions_of``, which reports an
    unsolvable instance by raising UnsolvableError with its gap.

    ``closure``, ``part`` and ``counted`` are its words for the fixpoint the
    rhs is compared with, for one solved part of the unknown and for the
    solutions of a part.
    """
    _non_negative(args.max_count, "--max-count")
    n = instance.frame.granularity
    try:
        solutions = solutions_of(instance, materialize=args.enumerate)
    except UnsolvableError as exc:
        # the JSON gap is written from the error's columns, the names from
        # their positions; only the text reads them as entries
        payload = lambda: {
            "solvable": False,
            "gap": _Records(("row", "column", "stated", "closed"), exc._gap),
        }

        def text():
            dec = _decimals(n)
            return f"unsolvable; rhs vs {closure}:\n" + "\n".join(
                f"  {u}[{w}]: {dec[old]} -> {dec[new]}"
                for u, w, old, new in exc.gap_rows
            )

        _emit(args, payload, text)
        return ExitStatus.UNSOLVABLE

    def text():
        lines = ["solvable"]
        for col in solutions.columns:
            lines.append(f"{part} {col.column}: maximum {_vec(col.max_row.tolist(), n)}")
            lines.append(f"  {col.count} {counted}")
            if col.solution_rows is not None:
                listed = col.solution_rows[: args.max_count].tolist()
                lines.extend(f"  {_vec(x, n)}" for x in listed)
                if len(listed) < col.count:
                    lines.append(f"  ... ({col.count - len(listed)} more)")
        return "\n".join(lines)

    def payload():
        # what SolutionSet.to_json() holds, written from the arrays: one
        # column of values per record field, under its JSON key
        fields = {
            "column": "column",
            "max_solution": "max_row",
            "excluded_predecessors": "predecessor_rows",
            "count": "count",
        }
        if args.enumerate:
            fields.update(solutions="solution_rows", minimal="minimal_rows")
        cols = solutions.columns
        records = _Records(fields, [[getattr(c, f) for c in cols] for f in fields.values()])
        return {
            "solvable": True,
            "solutions": {
                "granularity": solutions.granularity,
                "variables": list(solutions.var_names),
                "columns": records,
            },
        }

    _emit(args, payload, text)
    return ExitStatus.OK


def cmd_solve(args) -> int:
    problem, instance = load_instance(args.file)
    if problem.orientation == "primal":
        solutions_of = fre_mod.enumerate_solutions
        words = ("interior", "column", "solution(s)")
    else:
        solutions_of = dual_mod.dual_solutions
        words = ("closure", "row", "solution row(s)")
    return _solve(args, instance, solutions_of, *words)


def _context(instance):
    """The associated context; a dual one is that of the transposed primal."""
    if isinstance(instance, dual_mod.DualFreInstance):
        instance = instance.transposed()
    return fre_mod.associated_context(instance)


def cmd_reducts(args) -> int:
    ctx = _context(load_instance(args.file)[1])
    reducts = [list(Y) for Y in enumerate_reducts(ctx)]
    Y = _split_set(args.set) if args.set else None
    checked = is_consistent(ctx, Y) if Y else None

    def payload():
        data = {"reducts": reducts}
        if args.set:
            data["set"] = Y
            data["consistent"] = checked
        return data

    def text():
        lines = [f"{len(reducts)} reduct(s):"]
        lines.extend("  {" + ", ".join(Y) + "}" for Y in reducts)
        if args.set:
            verdict = "consistent" if checked else "NOT consistent"
            lines.append(f"set {{{args.set}}} is {verdict}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return ExitStatus.OK


def cmd_reduce(args) -> int:
    problem, instance = load_instance(args.file)
    Y = _split_set(args.set)
    if problem.orientation == "primal":
        reduced = fre_mod.reduce_fre(instance, Y, enforce_consistency=not args.force)
    else:
        reduced = dual_mod.dual_reduce(instance, Y, enforce_consistency=not args.force)
    out = problem_from_instance(reduced, triples=problem.triples).dumps()
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise ProblemFileError(f"cannot write {args.output}: {exc}") from exc
    else:
        _print(out)
    return ExitStatus.OK


def cmd_approximate(args) -> int:
    _non_negative(args.notable_threshold, "--notable-threshold")
    problem, instance = load_instance(args.file)
    n = instance.frame.granularity
    if problem.orientation == "dual":
        repairs = approx._repairs(instance.transposed())
        results = [dual_mod._dual_result(r) for _, r in repairs if r is not None]
        payload = lambda: {
            "solvable": dual_mod.dual_is_solvable(instance),
            "feasible_reducts": [list(r.reduct) for r in results],
            "approximations": [
                {
                    "reduct": list(r.reduct),
                    "t_star": r.t_star_rows,
                    "modified": {
                        f"{u}[{w}]": [old.numerator, new.numerator]
                        for (u, w), (old, new) in sorted(r.modified_rows.items())
                    },
                }
                for r in results
            ],
        }

        def text():
            lines = [f"{len(results)} feasible column reduct(s)"]
            for r in results:
                lines.append("reduct {" + ", ".join(r.reduct) + "}:")
                lines.extend("  " + _vec(row, n) for row in r.t_star_rows.tolist())
            return "\n".join(lines)

        _emit(args, payload, text)
        return ExitStatus.OK
    if args.pessimistic:
        # the pessimistic rhs replaces every column by its interior
        t_star = fre_mod._closures(instance)[1].T
        payload = lambda: {"pessimistic_rhs": t_star}
        text = lambda: "pessimistic rhs:\n" + "\n".join(
            "  " + _vec(row, n) for row in t_star.tolist()
        )
        _emit(args, payload, text)
        return ExitStatus.OK
    report = approx.diagnose(instance, notable_threshold=args.notable_threshold)

    def payload():
        data = {"diagnosis": report.to_json()}
        if not report.solvable:
            data["approximations"] = [
                {
                    "reduct": list(r.reduct),
                    "t_star": r.t_star_rows,
                    "solution_counts": {
                        c.column: c.count for c in r.solution_summary.columns
                    },
                }
                for r in report.results
            ]
        return data

    _emit(args, payload, report.render_text)
    return ExitStatus.OK


def cmd_lattice(args) -> int:
    problem, instance = load_instance(args.file)
    lat = build_concept_lattice(_context(instance))
    if args.dot:
        _print(lattice_to_dot(lat, include_intents=args.intents))
    elif problem.orientation == "primal":
        payload = lambda: {
            "concepts": _Records(("extent", "intent"), (lat.extent_rows, lat.intent_rows))
        }
        _emit(args, payload, lambda: f"{len(lat)} concepts")
    else:
        payload = lambda: {"members": lat.extent_rows}
        _emit(args, payload, lambda: f"{len(lat)} variable-side fixpoints")
    return ExitStatus.OK


def cmd_oracle(args) -> int:
    _non_negative(args.budget, "--budget")
    problem, instance = load_instance(args.file)
    # both orientations compare per-part solution rows over V: those of a
    # dual X (U x V) are its rows, those of a primal X (V x W) its columns
    if problem.orientation == "primal":
        brute = fre_mod.brute_force_solutions(instance, budget=args.budget)
        brute = [tuple(zip(*X)) for X in brute]
        analytic = fre_mod.enumerate_solutions(instance, materialize=True)
    else:
        brute = dual_mod.dual_brute_force(instance, budget=args.budget)
        analytic = dual_mod.dual_solutions(instance, materialize=True)
    match = all(
        frozenset(map(tuple, col.solution_rows.tolist()))
        == frozenset(tuple(v.numerator for v in X[i]) for X in brute)
        for i, col in enumerate(analytic.columns)
    )
    count = len(brute)
    _emit(
        args,
        lambda: {"match": match, "count": count},
        lambda: f"{'MATCH' if match else 'MISMATCH'} ({count} solutions)",
    )
    return ExitStatus.OK if match else ExitStatus.INPUT_ERROR


class _Option(NamedTuple):
    """An option as argparse takes it; a ``bool`` one is a store_true flag."""

    flags: tuple
    dest: str
    type: type
    default: object
    required: bool
    help: str


# every command: its handler, its help and its options after the file
_JSON = _Option(("--json",), "json", bool, False, False, "machine-readable output")
_COMMANDS = {
    "check": (cmd_check, "validate the file and verify the adjoint triples", (_JSON,)),
    "solve": (cmd_solve, "solvability, maximum solution, solution count", (
        _JSON,
        _Option(("--enumerate",), "enumerate", bool, False, False, "list every solution"),
        _Option(("--max-count",), "max_count", int, None, False, "cap listed solutions"),
    )),
    "reducts": (cmd_reducts, "list reducts of the associated context", (
        _JSON,
        _Option(("--set",), "set", str, None, False,
                "also check this comma-separated set for consistency"),
    )),
    "reduce": (cmd_reduce, "emit the Y-reduced problem file", (
        _JSON,
        _Option(("--set",), "set", str, None, True, "comma-separated names to keep"),
        _Option(("--force",), "force", bool, False, False, "allow non-consistent sets"),
        _Option(("-o", "--output"), "output", str, None, False, "write the reduced file here"),
    )),
    "approximate": (cmd_approximate, "feasible reducts, repaired rhs, diagnosis", (
        _JSON,
        _Option(("--pessimistic",), "pessimistic", bool, False, False,
                "closure-based repair instead"),
        _Option(("--notable-threshold",), "notable_threshold", int, 1, False,
                "granular steps above which a deviation is notable"),
    )),
    "lattice": (cmd_lattice, "export the associated concept lattice", (
        _JSON,
        _Option(("--dot",), "dot", bool, False, False, "emit DOT instead of a summary"),
        _Option(("--intents",), "intents", bool, False, False, "include intents in labels"),
    )),
    "oracle": (cmd_oracle, "brute-force solve and diff against the solver", (
        _JSON,
        _Option(("--budget",), "budget", int, 10_000_000, False, "candidate cap"),
    )),
}


def build_parser():
    """The argparse parser of every command, built from ``_COMMANDS``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mafre",
        description="Solve, reduce and repair fuzzy relation equations over "
        "granular truth-value chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON problem file")
        for opt in options:
            kind = {"action": "store_true"} if opt.type is bool else {"type": opt.type}
            p.add_argument(
                *opt.flags,
                dest=opt.dest,
                default=opt.default,
                required=opt.required,
                help=opt.help,
                **kind,
            )
        p.set_defaults(fn=fn)
    return parser


@functools.cache
def _parser():
    # only the lines _read refuses (help, usage errors, abbreviations) reach
    # argparse; importing it and building the parser cost a fresh process
    # 5-7 ms, so it is done once, on the first such line, and shared after
    return build_parser()


def _read(argv):
    """What ``build_parser().parse_args(argv)`` returns, read straight from a
    line of a command, one file and that command's exact option strings, each
    value option followed by a value its type takes; None for any other
    line, which is left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fn, _, options = _COMMANDS[argv[0]]
    by_flag = {flag: opt for opt in options for flag in opt.flags}
    values = {opt.dest: opt.default for opt in options}
    seen, files = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        opt = by_flag.get(token)
        if opt is None:
            return None
        seen.add(opt.dest)
        if opt.type is bool:
            values[opt.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            values[opt.dest] = opt.type(value)
        except ValueError:
            return None
    if len(files) != 1 or any(o.required and o.dest not in seen for o in options):
        return None
    return SimpleNamespace(command=argv[0], fn=fn, file=files[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or _parser().parse_args(argv)
    try:
        return int(args.fn(args))
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.BUDGET_EXCEEDED
    except UnsolvableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.UNSOLVABLE
    except MafreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
