"""Bus factor analysis of person-task bipartite graphs."""

from .coverage import (
    CoverageReport,
    coverage_report,
    mcs_exact,
    mcs_greedy,
    mrs_exact,
    mrs_greedy,
    normalize_delta,
)
from .errors import BusFactorError, DegenerateError, InfeasibleError, ParseError
from .generators import (
    CheckpointSeries,
    GeneratorConfig,
    SweepTable,
    add_duplicates,
    add_singletons,
    densify,
    disjoint_union,
    generate_powerlaw,
    run_sweep,
    sparsify,
)
from .graph import ProjectGraph
from .io import load_edge_list, parse_edge_list, render_edge_list, save_edge_list
from .optimize import (
    AnnealingConfig,
    NullModelConfig,
    PermutationTestResult,
    anneal,
    anneal_restarts,
    calibrate_pvalues,
    compare_decay,
    null_sample,
    permutation_test,
)
from .robustness import (
    DecayCurve,
    RobustnessResult,
    bus_factor_exact,
    bus_factor_greedy,
    decay_curve,
    robustness,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealingConfig",
    "BusFactorError",
    "CheckpointSeries",
    "CoverageReport",
    "DecayCurve",
    "DegenerateError",
    "GeneratorConfig",
    "InfeasibleError",
    "NullModelConfig",
    "ParseError",
    "PermutationTestResult",
    "ProjectGraph",
    "RobustnessResult",
    "SweepTable",
    "add_duplicates",
    "add_singletons",
    "anneal",
    "anneal_restarts",
    "bus_factor_exact",
    "bus_factor_greedy",
    "calibrate_pvalues",
    "compare_decay",
    "coverage_report",
    "decay_curve",
    "densify",
    "disjoint_union",
    "generate_powerlaw",
    "load_edge_list",
    "mcs_exact",
    "mcs_greedy",
    "mrs_exact",
    "mrs_greedy",
    "normalize_delta",
    "null_sample",
    "parse_edge_list",
    "permutation_test",
    "render_edge_list",
    "robustness",
    "run_sweep",
    "save_edge_list",
    "sparsify",
]
