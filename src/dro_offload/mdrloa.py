"""Dive-and-fix latency optimization plus deterministic/robust baselines.

The main routine follows the greedy scheme of the source algorithm: fix
the worst-case distributions, solve the LP relaxation, then repeatedly
branch on the most fractional access entry x = y + z, keep the cheaper
child, and never backtrack; afterwards repeat for the compute variables y.
The choice rule: objectives within 1e-12 relative tie, and a tie goes to
child 1 (x = 1, or y = 1). Child 1 is solved first. No child beats the LP
it branches from, so a child 1 that ties with that LP is kept without
solving child 0; otherwise child 0 is solved too and the rule picks.
Every node of the dive is P2 with narrower bounds: the x = 0 child closes
the link (upper bound 0 on its y and z), the x = 1 child the TD's other
links, the y = 0 child sets y's upper bound to 0 and the y = 1 child its
lower bound to 1, and once the access phase ends every link with x = 0
stays closed. The root LP is P2 itself and starts from P2's crash basis,
each TD's cheapest link already basic in its access row (`crash_basis`);
each child differs from the LP it branches from by its bounds only, so it
is `base.derive(lower=..., upper=...)`, sharing P2's standard form, built
once per dive, and starts from that LP's final basis, loading through the
inverse that LP's certify step computed. Both starts are dual feasible.
Because the dive is greedy, optimality is measured against the exhaustive
oracle rather than assumed: it enumerates the integral points of the same
P2 and keeps the cheapest one that meets every row, ties as in the dive.
Both read their decision out of an integral [y, z] point of P2 in
`_result` and report P2's objective there, so the model's latency and
energy formulas live in `build_p2` alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySet, SampleSpace
from .errors import InfeasibleProblemError, SizeError
from .geometry import Scenario
from .lp import LinearProgram, LpSolution, LpStatus, solve_lp
from .model import (
    INTEGRALITY_TOL,
    OffloadDecision,
    build_p2,
    crash_basis,
    meets_rows,
    worst_case_means,
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


def _tie_limit(objective: float) -> float:
    """The largest objective that ties with `objective`: within 1e-12 relative."""
    return objective + 1e-12 * max(1.0, abs(objective))


def _solve_child(
    base: LinearProgram, bounds: np.ndarray, parent: LpSolution
) -> tuple[float, LpSolution]:
    """P2 `base` with `bounds` ([lower/upper, y/z block, TD, UAV]) solved warm from
    `parent`'s final basis, and its objective (+inf unless it is optimal)."""
    lo, hi = bounds
    child = solve_lp(base.derive(lower=lo.ravel(), upper=hi.ravel()), start=parent.basis)
    return child.objective_value if child.status is LpStatus.OPTIMAL else np.inf, child


def _result(
    scenario: Scenario, point: np.ndarray, latency: float, bound: float, count: int, method: str
) -> SolveResult:
    """The validated decision at P2's integral `point`, reported at `latency`."""
    y, z = np.rint(point).astype(int).reshape(2, scenario.num_tds, scenario.num_uavs)
    decision = OffloadDecision(y=y, z=z)
    decision.validate(scenario)
    return SolveResult(decision, latency, bound, count, method)


def _solve(scenario: Scenario, means: np.ndarray, method: str) -> SolveResult:
    """Dive on P2 for one per-TD mean-size vector; dro, do and ro all end here.

    The decision is the last LP's rounded [y, z], scored by P2's objective. A
    root LP with nothing to branch on in x = y + z and then nothing in y, the
    first test of each phase of `_dive`, is that last LP: it is read out as it
    is. `lp_solve_count` counts the LPs solved: the root, then one or two per
    branching.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    base = build_p2(scenario, means)
    root = solve_lp(base, start=crash_basis(base, i))
    if root.status is not LpStatus.OPTIMAL:
        raise InfeasibleProblemError(
            "root relaxation is infeasible "
            f"(I={i}, J={j}, N_u={scenario.quota_uav}, N_H={scenario.quota_hap})"
        )
    current, count = root, 1
    blocks = root.x.reshape(2, i, j)
    if select_branch(blocks.sum(axis=0)) is not None or select_branch(blocks[0]) is not None:
        current, count = _dive(base, root, i, j)
    point = np.rint(current.x)
    return _result(
        scenario, point, float(base.objective @ point), root.objective_value, count, method
    )


def _dive(base: LinearProgram, current: LpSolution, i: int, j: int) -> tuple[LpSolution, int]:
    """The dive from P2 `base`'s optimal root LP `current`: its last LP and the number
    of LPs solved, the root included.

    Branch on x = y + z until it is integral, keep it fixed, then branch on
    y. Each branching solves child 1 and keeps it if it ties with the current LP;
    otherwise it solves child 0 and keeps child 1 on a tie, child 0 if it is
    cheaper. Both children infeasible is a dead end, InfeasibleProblemError: the
    dive found no feasible decision, which does not prove that none exists.
    """
    count = 1
    # the current LP's bounds, indexed [lower/upper, y/z block, TD, UAV]
    bounds = np.stack([base.lower, base.upper]).reshape(2, 2, i, j)

    # the access phase branches on x = y + z, the sum of both blocks; compute on y
    for phase, blocks in (("access", 2), ("compute", 1)):
        while (pick := select_branch(current.x.reshape(2, i, j)[:blocks].sum(axis=0))) is not None:
            td, uav = pick
            narrowed = (bounds.copy(), bounds.copy())
            if phase == "compute":  # y = 0, then y = 1
                narrowed[0][1, 0, td, uav] = 0.0
                narrowed[1][0, 0, td, uav] = 1.0
            else:  # x = 0 closes the link (y = z = 0), x = 1 the TD's other links
                narrowed[0][1, :, td, uav] = 0.0
                narrowed[1][1, :, td, np.arange(j) != uav] = 0.0
            lat1, child = _solve_child(base, narrowed[1], current)
            count += 1
            chosen = 1
            # no child beats the LP it branches from, and ties go to child 1: one tied
            # with that LP is kept without solving child 0
            if lat1 > _tie_limit(current.objective_value):
                lat0, child0 = _solve_child(base, narrowed[0], current)
                count += 1
                if not np.isfinite(lat0) and not np.isfinite(lat1):
                    raise InfeasibleProblemError(
                        f"no feasible decision found: both children infeasible in the {phase} "
                        f"phase at TD {td}, UAV {uav}, "
                        f"with {int((bounds[0] == bounds[1]).sum())} fixed columns"
                    )
                if lat1 > _tie_limit(lat0):
                    chosen, child = 0, child0
            bounds, current = narrowed[chosen], child
        # every later child keeps x at its integral values: the unused links stay closed
        x = np.rint(current.x.reshape(2, i, j).sum(axis=0))
        bounds[1, :, x == 0] = 0.0
    return current, count


def mdrloa_solve(scenario: Scenario, ambiguity: AmbiguitySet) -> SolveResult:
    """Distributionally robust solve: means of the worst-case distributions."""
    return _solve(scenario, worst_case_means(ambiguity), METHOD_MDRLOA)


def do_solve(scenario: Scenario, space: SampleSpace) -> SolveResult:
    """Deterministic baseline: every task size estimated at the average atom."""
    return _solve(scenario, np.full(scenario.num_tds, float(np.mean(space.atoms))), METHOD_DO)


def ro_solve(scenario: Scenario, space: SampleSpace) -> SolveResult:
    """Robust baseline: every task size estimated at the largest atom."""
    return _solve(scenario, np.full(scenario.num_tds, float(max(space.atoms))), METHOD_RO)


def exhaustive_solve(scenario: Scenario, mean_sizes: np.ndarray) -> SolveResult:
    """Enumerate P2's integral points and keep the cheapest one that meets every row.

    The points are every access choice (J^I) times every relay-or-compute
    choice (2^I), in that order, laid out [y, z] like P2's columns, and
    each is held to `meets_rows`. The first point that ties with the least
    objective wins, by the dive's `_tie_limit`, and its latency is P2's
    objective dotted with it, as the dive reports its decision. Optimality
    oracle for small cases.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    if i > EXHAUSTIVE_MAX_TDS or j > EXHAUSTIVE_MAX_UAVS:
        raise SizeError(
            f"exhaustive search limited to I <= {EXHAUSTIVE_MAX_TDS}, "
            f"J <= {EXHAUSTIVE_MAX_UAVS}; got I={i}, J={j}"
        )
    lp = build_p2(scenario, mean_sizes)
    access = np.eye(j)[np.array(list(itertools.product(range(j), repeat=i)))][:, None]
    relay = np.array(list(itertools.product((0, 1), repeat=i)))[:, :, None]
    # [access choice, relay choice, y/z block, TD, UAV]
    points = np.stack([access * (1 - relay), access * relay], axis=2).reshape(-1, 2 * i * j)
    objective = np.where(meets_rows(lp, points), points @ lp.objective, np.inf)
    least = objective.min()
    if not np.isfinite(least):
        raise InfeasibleProblemError("no feasible decision exists for this instance")
    k = int(np.argmax(objective <= _tie_limit(least)))
    # a row of the matrix product may differ from the dot product in the last bit
    latency = float(lp.objective @ points[k])
    return _result(scenario, points[k], latency, latency, 0, METHOD_EXHAUSTIVE)
