"""Per-layer spans recorded from outside the program.

``install`` wraps the public functions and methods of the mafre modules
(the layers) so that every call records a span: name, start, end, parent span,
request id and, for a few calls, a size (rows passed in, concepts built,
candidates tried).  Modules bind each other's functions with ``from .x import
name``, so every mafre module namespace that holds a wrapped function is
patched, not only the one that defines it.  Spans stay in memory until the
run writes them out; ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("algebra", "io", "context", "fre", "approx", "dual", "cli")
# value objects whose methods run per element; wrapping them would time the
# wrapper rather than the layer
VALUE_CLASSES = {
    "GranularValue",
    "GranularLattice",
    "AdjointTriple",
    "AdjunctionReport",
    "FuzzySet",
    "Concept",
    "ColumnSolutions",
    "SolutionSet",
    "ApproximationResult",
    "DiagnosisReport",
    "ExitStatus",
}
# constructors that are counted
TRACED_INITS = {"ConceptLattice", "DualLattice"}


def _rows(args, result):
    return int(args[1].shape[0])


def _concepts(args, result):
    return len(args[0])


def _boxes(args, result):
    """[box rows swept, solutions] summed over the columns of a SolutionSet."""
    rows = solutions = 0
    for col in result.columns:
        box = 1
        for k in col.max_solution.numerators:
            box *= k + 1
        rows += box
        solutions += col.count
    return [rows, solutions]


def _candidates(args, result):
    fre = args[0]
    return (fre.frame.granularity + 1) ** len(fre.var_names) * len(fre.col_names)


SIZES = {
    "context.Context.possibility_batch": _rows,
    "context.Context.necessity_batch": _rows,
    "context.ConceptLattice.__init__": _concepts,
    "fre.enumerate_solutions": _boxes,
    "fre.brute_force_solutions": _candidates,
    "dual.DualContext.possibility_batch": _rows,
    "dual.DualContext.necessity_batch": _rows,
    "dual.DualLattice.__init__": _concepts,
    "dual.dual_solutions": _boxes,
}


class Tracer:
    """Span store.  A span is [name, start, end, parent index, request, size]."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, size = self.spans, self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and methods."""
    import mafre

    modules = {layer: importlib.import_module(f"mafre.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj) and attr not in VALUE_CLASSES and not issubclass(obj, Exception):
                for name, member in list(vars(obj).items()):
                    if name.startswith("_") and not (name == "__init__" and attr in TRACED_INITS):
                        continue
                    span = f"{layer}.{attr}.{name}"
                    if isinstance(member, (classmethod, staticmethod)):
                        setattr(obj, name, type(member)(tracer.wrap(span, member.__func__)))
                    elif inspect.isfunction(member):
                        setattr(obj, name, tracer.wrap(span, member))
    for namespace in [mafre, *modules.values()]:
        for attr, obj in list(vars(namespace).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(namespace, attr, entry[1])


# -- summary ----------------------------------------------------------------------

CLOSURE = ("context.Context.possibility_batch", "context.Context.necessity_batch")
DUAL_CLOSURE = ("dual.DualContext.possibility_batch", "dual.DualContext.necessity_batch")
LATTICE_BUILD = (
    "context.build_concept_lattice",
    "context.exhaustive_intents",
    "context.ConceptLattice.__init__",
)
# metric -> span names whose inclusive time it sums (outermost calls only)
INCLUSIVE = {
    "context.consistency_s": ("context.is_consistent",),
    "context.reducts_s": ("context.enumerate_reducts",),
    "fre.gap_s": ("fre.solvability_gap",),
    "fre.solutions_s": ("fre.enumerate_solutions",),
    "fre.compose_s": ("fre.sup_compose", "fre.inf_compose"),
    "fre.oracle_s": ("fre.brute_force_solutions",),
    "approx.diagnose_s": ("approx.diagnose",),
    "approx.repair_s": ("approx.approximate_by_reduct",),
    "dual.reducts_s": ("dual.dual_enumerate_reducts",),
    "dual.solutions_s": ("dual.dual_solutions",),
    "dual.repair_s": ("dual.dual_approximate",),
}


def summarize(spans, commands: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``commands`` maps each request id to its command name.  Times are self
    times (a span's duration minus its children's) except the INCLUSIVE ones,
    which are whole-call times of the named functions.
    """
    count = len(spans)
    own = [s[2] - s[1] for s in spans]
    self_time = list(own)
    for s, d in zip(spans, own):
        if s[3] >= 0:
            self_time[s[3]] -= d
    names = [s[0] for s in spans]

    def total(which):
        return sum(v for name, v in zip(names, self_time) if name in which)

    def calls(name):
        return names.count(name)

    def sizes(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    # outermost occurrence of each INCLUSIVE group, so recursion or nesting of
    # the same function is not counted twice
    inside = {}
    for metric, group in INCLUSIVE.items():
        flags = [False] * count
        value = 0.0
        for i, s in enumerate(spans):
            parent_inside = s[3] >= 0 and flags[s[3]]
            flags[i] = parent_inside or s[0] in group
            if s[0] in group and not parent_inside:
                value += own[i]
        inside[metric] = value

    in_build = [False] * count
    for i, s in enumerate(spans):
        in_build[i] = s[0] == "context.build_concept_lattice" or (s[3] >= 0 and in_build[s[3]])
    build_rows = sum(s[5] for s, b in zip(spans, in_build) if b and s[0] in CLOSURE)
    concepts = sizes("context.ConceptLattice.__init__")
    boxes = sizes("fre.enumerate_solutions")
    box_rows = sum(b[0] for b in boxes)
    approximate_requests = sum(1 for c in commands.values() if c == "approximate")
    reduct_passes_in_approximate = sum(
        1 for s in spans if s[0] == "context.enumerate_reducts" and commands.get(s[4]) == "approximate"
    )

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, v in zip(names, self_time):
        layer_self[name.split(".", 1)[0]] += v
    all_self = sum(layer_self.values()) or 1.0

    metrics = {
        "algebra.verify_s": total(("algebra.verify_adjoint_triple",)),
        "algebra.verify_calls": calls("algebra.verify_adjoint_triple"),
        "io.load_s": layer_self["io"],
        "context.closure_s": total(CLOSURE),
        "context.closure_rows": sum(sizes(CLOSURE[0])) + sum(sizes(CLOSURE[1])),
        "context.lattice_requests": calls("context.build_concept_lattice"),
        "context.lattice_builds": calls("context.ConceptLattice.__init__"),
        "context.closure_yield": sum(concepts) / build_rows if build_rows else 0.0,
        "context.lattice_s": total(LATTICE_BUILD),
        "context.cover_ops": sum(k**3 for k in concepts),
        "context.consistency_calls": calls("context.is_consistent"),
        "context.reducts_calls": calls("context.enumerate_reducts"),
        "fre.box_rows": box_rows,
        "fre.box_yield": sum(b[1] for b in boxes) / box_rows if box_rows else 0.0,
        "fre.oracle_candidates": sum(sizes("fre.brute_force_solutions")),
        "approx.reduct_passes": (
            reduct_passes_in_approximate / approximate_requests if approximate_requests else 0.0
        ),
        "dual.closure_s": total(DUAL_CLOSURE),
        "dual.closure_rows": sum(sizes(DUAL_CLOSURE[0])) + sum(sizes(DUAL_CLOSURE[1])),
        "dual.lattice_builds": calls("dual.DualLattice.__init__"),
        "dual.consistency_calls": calls("dual.dual_is_consistent"),
        "cli.self_s": layer_self["cli"],
        "trace.spans": count,
    }
    metrics.update(inside)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.self_share"] = layer_self[layer] / all_self
    return metrics


def request_counts(spans, request_id) -> dict:
    """Call and row counts of one request, for checking against known values."""
    mine = [s for s in spans if s[4] == request_id]
    return {
        "enumerate_reducts": sum(1 for s in mine if s[0] == "context.enumerate_reducts"),
        "build_concept_lattice": sum(1 for s in mine if s[0] == "context.build_concept_lattice"),
        "ConceptLattice": sum(1 for s in mine if s[0] == "context.ConceptLattice.__init__"),
        "possibility_batch_rows": sum(
            s[5] for s in mine if s[0] == "context.Context.possibility_batch"
        ),
    }
