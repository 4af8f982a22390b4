"""Distributionally robust computation offloading for aerial access networks."""

__version__ = "0.1.0"

from .ambiguity import (
    AmbiguitySet,
    Distribution,
    SampleSpace,
    tolerance_from_confidence,
)
from .geometry import (
    ComputeParams,
    EnergyParams,
    RadioParams,
    Scenario,
    ScenarioConfig,
    generate_scenario,
)
from .config import RunConfig, default_config, load_config, parse_config
from .evaluation import EvaluationReport, compare_methods, sweep
from .lp import LinearProgram, LpSolution, LpStatus, check_solution, solve_lp
from .mdrloa import SolveResult, do_solve, exhaustive_solve, mdrloa_solve, ro_solve
from .model import OffloadDecision, build_p2, worst_case_means

__all__ = [
    "EvaluationReport",
    "OffloadDecision",
    "RunConfig",
    "SolveResult",
    "build_p2",
    "compare_methods",
    "default_config",
    "do_solve",
    "exhaustive_solve",
    "load_config",
    "mdrloa_solve",
    "parse_config",
    "ro_solve",
    "sweep",
    "worst_case_means",
    "AmbiguitySet",
    "ComputeParams",
    "Distribution",
    "EnergyParams",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "RadioParams",
    "SampleSpace",
    "Scenario",
    "ScenarioConfig",
    "check_solution",
    "generate_scenario",
    "solve_lp",
    "tolerance_from_confidence",
]
