"""mafre: solving, reducing and repairing fuzzy relation equations.

Truth values live on an exact granular chain {0, 1/n, ..., 1}; equations are
analyzed through the property-oriented concept lattice of their associated
context, which yields solvability tests, complete solution sets, redundancy
removal via reducts, and reduct-based repair of unsolvable systems.
"""

from .algebra import (
    AdjointTriple,
    AdjunctionReport,
    Frame,
    GranularLattice,
    GranularValue,
    builtin_frame,
    builtin_triple,
    verify_adjoint_triple,
)
from .approx import (
    ApproximationResult,
    DiagnosisReport,
    approximate_by_reduct,
    diagnose,
    find_feasible_reducts,
    is_feasible_reduct,
    pessimistic_approximation,
)
from .context import (
    Concept,
    ConceptLattice,
    Context,
    FuzzySet,
    attribute_interior,
    build_concept_lattice,
    enumerate_reducts,
    is_consistent,
    lattice_to_dot,
    necessity,
    object_closure,
    possibility,
    predecessors,
    restrict,
)
from .dual import (
    DualContext,
    DualFreInstance,
    dual_approximate,
    dual_brute_force,
    dual_is_solvable,
    dual_max_solution,
    dual_reduce,
    dual_solutions,
)
from .fre import (
    FreInstance,
    SolutionSet,
    associated_context,
    brute_force_solutions,
    enumerate_solutions,
    inf_compose,
    is_solution,
    is_solvable,
    max_solution,
    reduce_fre,
    solvability_gap,
    sup_compose,
)
from .io import ProblemFile, load_problem, parse_problem, problem_from_instance

__version__ = "0.1.0"
