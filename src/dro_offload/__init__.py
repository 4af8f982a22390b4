"""Distributionally robust computation offloading for aerial access networks."""

__version__ = "0.1.0"

from .ambiguity import (
    AmbiguitySet,
    Distribution,
    SampleSpace,
    empirical_distribution,
    tolerance_from_confidence,
    worst_case_mean_distribution,
)
from .geometry import (
    ComputeParams,
    EnergyParams,
    Position3D,
    RadioParams,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    per_bit_coefficients,
)
from .config import RunConfig, default_config, load_config, parse_config
from .evaluation import EvaluationReport, compare_methods, sweep
from .lp import LinearProgram, LpSolution, LpStatus, check_solution, solve_lp
from .mdrloa import SolveResult, do_solve, exhaustive_solve, mdrloa_solve, ro_solve
from .model import OffloadDecision, build_p2, worst_case_distributions

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
    "worst_case_distributions",
    "AmbiguitySet",
    "ComputeParams",
    "Distribution",
    "EnergyParams",
    "LinearProgram",
    "LpSolution",
    "LpStatus",
    "Position3D",
    "RadioParams",
    "SampleSpace",
    "Scenario",
    "ScenarioConfig",
    "check_solution",
    "empirical_distribution",
    "generate_scenario",
    "per_bit_coefficients",
    "solve_lp",
    "tolerance_from_confidence",
    "worst_case_mean_distribution",
]
