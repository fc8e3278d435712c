"""Path-addition analysis for transport networks.

Solves constant-cost capacitated routing (mc), system-optimal (so) and
user-equilibrium (ue) flows, evaluates the design objectives over subsets
of candidate path additions, and checks monotonicity and supermodularity
of those objectives with explicit witnesses.
"""

import os

# The Newton step's dense products add in an order that depends on the BLAS
# thread count, and λ's last bits with them; one thread fixes that order.
# BLAS reads these variables when numpy loads, so this runs before any
# import of numpy, and a caller that imports numpy first sets them itself.
# The setting is process-wide: later OpenMP and MKL users and every child
# process inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .costs import (
    Affine,
    BPR,
    Constant,
    Greenshields,
    beckmann_integral,
    derivative,
    evaluate,
    marginal,
    marginal_model,
)
from .design import (
    DOUBLE_PRIME,
    GENERAL,
    HOLDS,
    MONOTONE,
    PRIME,
    SUPERMODULAR,
    VIOLATED,
    CandidateSet,
    DesignState,
    GreedyDesign,
    LambdaEvaluation,
    LambdaEvaluator,
    PropertyReport,
    RestrictionReport,
    Witness,
    candidate_set_from_json,
    candidate_set_to_json,
    check_monotonicity,
    check_restriction,
    check_supermodularity,
    greedy_designer,
    lambda_eval,
    parallel_mc_value,
    parallel_uniform_value,
)
from .errors import (
    BadParams,
    CapacitySaturation,
    DomainError,
    FormatError,
    Infeasible,
    NetdesignError,
    NotConverged,
    PathLimitExceeded,
    SolverError,
    TemplateConsistencyError,
    UncertifiedValue,
    UnknownScenario,
    Unreachable,
)
from .network import (
    DEFAULT_PATH_LIMIT,
    Edge,
    Network,
    Path,
    PathSet,
    TemplateGraph,
    Trip,
    TripPathGraph,
    TripSpanningTree,
    Violation,
    ViolationList,
    added_paths,
    build_grid_template,
    enumerate_trip_paths,
    graph_union,
    subgraph_issues,
    validate_trip_path_graph,
    validate_trip_spanning_tree,
)
from .routing import (
    MC,
    SO,
    UE,
    BridgeComparison,
    FlowAssignment,
    Instance,
    MCDuals,
    OptimalityCertificate,
    SolveResult,
    SolverConfig,
    price_of_anarchy,
    so_ue_bridge,
    solve_mc,
    solve_so,
    solve_ue,
    total_cost_under,
    verify_certificate,
)
from .scenarios import (
    SCENARIO_NAMES,
    ParallelFamily,
    Scenario,
    materialize,
    random_candidate_set,
    random_parallel_family,
    scenario_descriptions,
)

__version__ = "0.1.0"
