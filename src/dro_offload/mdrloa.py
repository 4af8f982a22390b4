"""Dive-and-fix latency optimization plus deterministic/robust baselines.

The main routine follows the greedy scheme of the source algorithm: fix
the worst-case distributions, solve the LP relaxation, then repeatedly
branch on the most fractional access variable, keep the cheaper child,
and never backtrack; afterwards repeat for the compute variables. The
root LP starts from the slack basis; each child differs from the LP it
branches from by its fixings only, so it starts from that LP's final
basis, which stays dual feasible. The decision is read from the last LP, whose x is
integral. Because the dive is greedy, optimality is measured against the
exhaustive oracle rather than assumed: it enumerates the integral points
of the same P2 and keeps the cheapest one that meets every row. Both
report P2's objective at their integral point, so the model's latency
and energy formulas live in `build_p2` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .ambiguity import AmbiguitySet, SampleSpace
from .errors import InfeasibleProblemError, SizeError, SolverError
from .geometry import Scenario
from .lp import Basis, LinearProgram, LpSolution, LpStatus, solve_lp
from .model import (
    INTEGRALITY_TOL,
    OffloadDecision,
    build_p2,
    meets_rows,
    worst_case_distributions,
)

METHOD_MDRLOA = "MDRLOA"
METHOD_DO = "DO"
METHOD_RO = "RO"
METHOD_EXHAUSTIVE = "EXHAUSTIVE"

EXHAUSTIVE_MAX_TDS = 6
EXHAUSTIVE_MAX_UAVS = 3


@dataclass(frozen=True)
class SolveResult:
    decision: OffloadDecision
    worst_case_expected_latency: float
    relaxation_bound: float
    lp_solve_count: int
    method: str

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "worst_case_expected_latency_s": self.worst_case_expected_latency,
            "relaxation_bound_s": self.relaxation_bound,
            "lp_solve_count": self.lp_solve_count,
            "decision": self.decision.to_dict(),
        }


def select_branch(matrix: np.ndarray):
    """Index of the entry farthest from integrality, or None if all integral.

    Ties break to the lexicographically smallest (i, j).
    """
    scores = np.minimum(matrix, 1.0 - matrix)
    if scores.max(initial=0.0) <= INTEGRALITY_TOL:
        return None
    flat = int(np.argmax(scores))
    return tuple(int(v) for v in np.unravel_index(flat, matrix.shape))


def _solve_fixed(
    base: LinearProgram, fixed: dict[int, float], start: Basis | None = None
) -> LpSolution:
    """Solve `base` with each fixed column's bounds pinned to its value, from the
    basis `start` when one is given.

    Raises SolverError when an optimal answer fails its certificate, so that
    a wrong LP never becomes a decision.
    """
    lower, upper = base.lower.copy(), base.upper.copy()
    for col, value in fixed.items():
        lower[col] = upper[col] = value
    solution = solve_lp(replace(base, lower=lower, upper=upper), start=start)
    if solution.status is LpStatus.OPTIMAL and not solution.certificate.ok():
        raise SolverError(
            f"LP with {len(fixed)} fixed columns fails its certificate: "
            + "; ".join(solution.certificate.failures())
        )
    return solution


def _solve(scenario: Scenario, means: np.ndarray, method: str) -> SolveResult:
    """Dive on P2 for one per-TD mean-size vector; dro, do and ro all end here.

    Branch on the access block until it is integral, keep it fixed, then
    branch on the compute block; the decision is the last LP's rounded x,
    scored by P2's objective.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    ij = i * j
    base = build_p2(scenario, means)
    fixed: dict[int, float] = {}
    current = _solve_fixed(base, fixed)
    count = 1
    if current.status is not LpStatus.OPTIMAL:
        raise InfeasibleProblemError(
            f"root relaxation is {current.status.value} "
            f"(I={i}, J={j}, N_u={scenario.quota_uav}, N_H={scenario.quota_hap})"
        )
    bound = current.objective_value

    for offset in (0, ij):  # access block first, then compute block
        while (pick := select_branch(current.x[offset : offset + ij].reshape(i, j))) is not None:
            col = offset + pick[0] * j + pick[1]
            children = [
                _solve_fixed(base, {**fixed, col: value}, current.basis) for value in (0.0, 1.0)
            ]
            count += 2
            lat0, lat1 = (
                c.objective_value if c.status is LpStatus.OPTIMAL else np.inf for c in children
            )
            if not np.isfinite(lat0) and not np.isfinite(lat1):
                raise InfeasibleProblemError(
                    f"both children infeasible after fixings {sorted(fixed.items())} "
                    f"at variable column {col}"
                )
            # objectives within 1e-12 relative tie, and ties go to 1
            chosen = 1 if lat1 <= lat0 + 1e-12 * max(1.0, abs(lat0)) else 0
            fixed[col] = float(chosen)
            current = children[chosen]
        # every later child keeps the block at its integral values
        block = np.rint(current.x[offset : offset + ij]).tolist()
        fixed.update(zip(range(offset, offset + ij), block))

    decision = OffloadDecision(*np.rint(current.x).astype(int).reshape(3, i, j))
    decision.validate(scenario)
    return SolveResult(
        decision=decision,
        worst_case_expected_latency=float(base.objective @ decision.vector()),
        relaxation_bound=bound,
        lp_solve_count=count,
        method=method,
    )


def mdrloa_solve(scenario: Scenario, ambiguity_sets: list[AmbiguitySet]) -> SolveResult:
    """Distributionally robust solve: means of the worst-case distributions."""
    return _solve(scenario, worst_case_distributions(ambiguity_sets)[1], METHOD_MDRLOA)


def do_solve(scenario: Scenario, space: SampleSpace) -> SolveResult:
    """Deterministic baseline: every task size estimated at the average atom."""
    return _solve(scenario, np.full(scenario.num_tds, float(np.mean(space.atoms))), METHOD_DO)


def ro_solve(scenario: Scenario, space: SampleSpace) -> SolveResult:
    """Robust baseline: every task size estimated at the largest atom."""
    return _solve(scenario, np.full(scenario.num_tds, float(max(space.atoms))), METHOD_RO)


def exhaustive_solve(scenario: Scenario, mean_sizes: np.ndarray) -> SolveResult:
    """Enumerate P2's integral points and keep the cheapest one that meets every row.

    The points are every access choice (J^I) times every relay-or-compute
    choice (2^I), in that order, laid out [x, y, z] like P2's columns, and
    each is held to `meets_rows`. The first point within 1e-12 relative of
    the least objective wins, as in the dive. Optimality oracle for small
    cases.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    if i > EXHAUSTIVE_MAX_TDS or j > EXHAUSTIVE_MAX_UAVS:
        raise SizeError(
            f"exhaustive search limited to I <= {EXHAUSTIVE_MAX_TDS}, "
            f"J <= {EXHAUSTIVE_MAX_UAVS}; got I={i}, J={j}"
        )
    lp = build_p2(scenario, mean_sizes)
    access = np.eye(j)[np.array(list(itertools.product(range(j), repeat=i)))]
    relay = np.array(list(itertools.product((0, 1), repeat=i)))[:, :, None]
    x = np.repeat(access, len(relay), axis=0)  # (J^I * 2^I, I, J)
    z = x * np.tile(relay, (len(access), 1, 1))
    points = np.concatenate([m.reshape(len(x), -1) for m in (x, x - z, z)], axis=1)
    objective = np.where(meets_rows(lp, points), points @ lp.objective, np.inf)
    least = objective.min()
    if not np.isfinite(least):
        raise InfeasibleProblemError("no feasible decision exists for this instance")
    k = int(np.argmax(objective <= least + 1e-12 * abs(least)))
    decision = OffloadDecision(*points[k].astype(int).reshape(3, i, j))
    decision.validate(scenario)
    latency = float(objective[k])
    return SolveResult(
        decision=decision,
        worst_case_expected_latency=latency,
        relaxation_bound=latency,
        lp_solve_count=0,
        method=METHOD_EXHAUSTIVE,
    )
