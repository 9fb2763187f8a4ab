import random

import numpy as np
import pytest
from hypothesis import settings

from mafre import Context, FreInstance, builtin_frame

# ``pytest --hypothesis-profile=ci``: the long property runs of CI
settings.register_profile("ci", max_examples=3000, deadline=None)


@pytest.fixture(scope="session")
def squares_frame():
    return builtin_frame(["sq-left", "sq-right"], 8)


SQUARES_ROWS = ("u1", "u2", "u3", "u4", "u5")
SQUARES_VARS = ("v1", "v2", "v3", "v4", "v5")
SQUARES_COEFF = (
    (6, 4, 0, 4, 4),
    (4, 2, 2, 6, 8),
    (6, 4, 1, 0, 3),
    (6, 4, 0, 4, 4),
    (6, 4, 1, 0, 4),
)
SQUARES_SIGMA = (0, 0, 1, 0, 1)


@pytest.fixture(scope="session")
def squares_context(squares_frame):
    n = squares_frame.granularity
    rel = [[squares_frame.value(k) for k in row] for row in SQUARES_COEFF]
    return Context(squares_frame, SQUARES_ROWS, SQUARES_VARS, rel, SQUARES_SIGMA)


@pytest.fixture(scope="session")
def squares_solvable(squares_frame):
    return FreInstance(
        squares_frame,
        SQUARES_ROWS,
        SQUARES_VARS,
        ("w",),
        SQUARES_COEFF,
        SQUARES_SIGMA,
        [[2], [4], [0], [2], [0]],
    )


@pytest.fixture(scope="session")
def squares_unsolvable(squares_frame):
    return FreInstance(
        squares_frame,
        SQUARES_ROWS,
        SQUARES_VARS,
        ("w",),
        SQUARES_COEFF,
        SQUARES_SIGMA,
        [[4], [7], [3], [5], [1]],
    )


MAXMIN_COEFF = (
    (4, 2, 6, 5, 2),
    (2, 4, 6, 4, 3),
    (1, 4, 6, 4, 4),
    (2, 4, 4, 4, 3),
    (4, 2, 6, 4, 2),
)


@pytest.fixture(scope="session")
def maxmin_frame():
    return builtin_frame(["godel"], 8)


@pytest.fixture(scope="session")
def maxmin_solvable(maxmin_frame):
    return FreInstance(
        maxmin_frame,
        SQUARES_ROWS,
        SQUARES_VARS,
        ("w",),
        MAXMIN_COEFF,
        (0,) * 5,
        [[4], [3], [3], [3], [4]],
    )


def random_context(rng: random.Random, frame, n_attrs, n_objs):
    n = frame.granularity
    rel = [
        [frame.value(rng.randint(0, n)) for _ in range(n_objs)] for _ in range(n_attrs)
    ]
    sigma = [rng.randrange(len(frame.triples)) for _ in range(n_objs)]
    attrs = [f"a{i}" for i in range(n_attrs)]
    objs = [f"b{i}" for i in range(n_objs)]
    return Context(frame, attrs, objs, rel, sigma)


def exhaustive_lattice(ctx):
    """The concept lattice of ``ctx`` from the definition, the oracle of the
    default engine: every fuzzy object set in {0..n}^|B| is closed, and the
    distinct intents give the extents.  Costs (n+1)^|B| batched evaluations."""
    from mafre import context

    n, nb = ctx.frame.granularity, len(ctx.objects)
    seen = [context._unique_rows(ctx.possibility_batch(G)) for G in context._grid(n, nb)]
    intents = context._unique_rows(np.concatenate(seen, axis=0))
    return context.ConceptLattice(ctx, ctx.necessity_batch(intents))


def reference_dot(lat, include_intents):
    """``lattice_to_dot`` written line by line, its oracle: one f-string per
    node and per cover pair."""
    lines = ["digraph concept_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    rows = zip(lat.extent_rows.tolist(), lat.intent_rows.tolist())
    for i, (extent, intent) in enumerate(rows):
        label = str(tuple(extent))
        if include_intents:
            label += f"\\n{tuple(intent)}"
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in lat.covers():
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines)


def reference_lower_covers(e, gens):
    """The extents directly below the extent ``e``, in lexicographic order,
    from generator meets: the reference of ``context._lower_covers``.

    ``gens`` is ``context._generators(ctx)[1]``.  An extent x < e is the meet
    of the generators above it, and not all of them are above e; so
    x <= e ^ g < e for some generator g.  The lower covers of e are therefore
    the maximal elements of {e ^ g : g in gens, e ^ g != e}.
    """
    from mafre import context

    meets = context._unique_rows(np.minimum(e[None, :], gens))
    meets = meets[(meets != e).any(axis=1)]
    below = context._leq(meets, meets)
    np.fill_diagonal(below, False)  # the rows are distinct
    return meets[~below.any(axis=1)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            failed = getattr(rep, "outcome", "passed") == "failed"
            outcomes[name] = outcomes.get(name, False) or failed
    if not outcomes:
        return
    from test_acceptance import CRITERIA

    terminalreporter.section("acceptance criteria")
    for name, (num, summary) in sorted(CRITERIA.items(), key=lambda kv: kv[1][0]):
        if name not in outcomes:
            continue
        status = "FAIL" if outcomes[name] else "PASS"
        terminalreporter.write_line(f"ACCEPTANCE {num:02d} {status}: {summary}")


def random_solvable_instance(rng: random.Random, frame, n_rows, n_vars, n_cols=1):
    """R and X drawn at random, T defined as their composition."""
    from mafre import sup_compose

    n = frame.granularity
    coeff = [
        [frame.value(rng.randint(0, n)) for _ in range(n_vars)] for _ in range(n_rows)
    ]
    sigma = [rng.randrange(len(frame.triples)) for _ in range(n_vars)]
    x = [[frame.value(rng.randint(0, n)) for _ in range(n_cols)] for _ in range(n_vars)]
    rhs = sup_compose(frame, coeff, x, sigma)
    return FreInstance(
        frame,
        [f"u{i}" for i in range(n_rows)],
        [f"v{i}" for i in range(n_vars)],
        [f"w{i}" for i in range(n_cols)],
        coeff,
        sigma,
        rhs,
    )


def identity_problem(n: int, nv: int) -> dict:
    """x_v = n for every v over godel with identity coefficients, as a
    problem file's JSON: every vector is an extent, so the maximum (all n)
    has nv lower covers and a box of (n + 1)^nv rows, and is the only
    solution."""
    return {
        "granularity": n, "triples": ["godel"],
        "rows": [f"u{i}" for i in range(nv)],
        "variables": [f"v{i}" for i in range(nv)], "columns": ["w"],
        "coefficients": [[n * (u == v) for v in range(nv)] for u in range(nv)],
        "sigma": [1] * nv, "rhs": [[n]] * nv,
    }
