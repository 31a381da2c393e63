"""Bus factor analysis of person-task bipartite graphs.

``import busfactor`` loads no submodule: each public name is read from its
module on every access, so no second binding here can go stale.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {  # module -> the public names it defines
    "coverage": ("CoverageReport", "coverage_report", "mcs_exact", "mcs_greedy", "mrs_exact",
                 "mrs_greedy", "normalize_delta"),
    "errors": ("BusFactorError", "DegenerateError", "InfeasibleError", "ParseError"),
    "generators": ("GeneratorConfig", "SweepTable", "disjoint_union", "generate_powerlaw",
                   "run_sweep"),
    "graph": ("ProjectGraph",),
    "io": ("load_edge_list", "parse_edge_list", "render_edge_list", "save_edge_list"),
    "optimize": ("AnnealingConfig", "NullModelConfig", "PermutationTestResult", "anneal",
                 "anneal_restarts", "calibrate_pvalues", "null_sample", "permutation_test"),
    "robustness": ("RobustnessResult", "bus_factor_exact", "bus_factor_greedy", "decay_curve"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
