"""Reference helpers that only the tests need: an LP built from rows, the
explicit LP dual, the inverse confidence map, L1 distance and membership
for distributions, expected latency and energy written from the per-bit
costs independently of P2, P2 as it was before x was substituted out, a
brute force over offloading decisions, and pinned instances whose dive
meets an infeasible child or dead-ends."""

import dataclasses
import itertools
import math

import numpy as np

from dro_offload.ambiguity import PROB_TOL, AmbiguitySet, Distribution
from dro_offload.config import parse_config
from dro_offload.errors import ConfigError, ShapeError
from dro_offload.lp import EQ, GE, LE, LinearProgram
from dro_offload.geometry import per_bit_coefficients
from dro_offload.model import OffloadDecision


def lp_from_rows(objective, rows=(), **kwargs) -> LinearProgram:
    """LinearProgram from a list of (coefficients, relation, rhs) rows."""
    coeffs, relations, rhs = zip(*rows) if rows else ((), (), ())
    matrix = np.reshape(np.asarray(coeffs, dtype=float), (len(rows), len(objective)))
    return LinearProgram(objective, matrix, relations, rhs, **kwargs)


def dual_of(lp: LinearProgram) -> LinearProgram:
    """Explicit dual of a minimization program.

    Finite upper bounds are first materialized as `x_j <= u` rows so the
    primal has only `x >= 0` or free variables. The dual is a
    maximization whose inequality-row multipliers are nonnegative
    variables; strong duality makes its optimum equal the primal's.
    """
    if lp.sense != "min":
        raise ConfigError("dual_of expects a minimization program")
    free = ~np.isfinite(lp.lower)
    if (lp.lower[~free] != 0.0).any():
        raise ConfigError("dual_of supports lower bounds of 0 or -inf only")
    bounded = np.flatnonzero(np.isfinite(lp.upper))
    a = np.vstack([lp.row_matrix(), np.eye(lp.num_vars)[bounded]])
    rhs = np.concatenate([lp.rhs_vector(), lp.upper[bounded]])
    relations = np.concatenate([lp.relations, np.full(bounded.size, LE)])

    m = len(relations)
    obj = np.empty(m)
    lower = np.empty(m)
    col_sign = np.empty(m)
    for r, rel in enumerate(relations):
        if rel == LE:
            obj[r], lower[r], col_sign[r] = -rhs[r], 0.0, -1.0
        elif rel == GE:
            obj[r], lower[r], col_sign[r] = rhs[r], 0.0, 1.0
        else:
            obj[r], lower[r], col_sign[r] = rhs[r], -np.inf, 1.0

    coeff = a * col_sign[:, None]  # signed multiplier enters stationarity
    # one row per primal variable j: coeff[:, j] @ y (= if j is free, else <=) c_j
    return LinearProgram(
        obj, coeff.T, np.where(free, EQ, LE), lp.objective, lower=lower, sense="max"
    )


def confidence_from_tolerance(num_atoms: int, num_samples: int, radius: float) -> float:
    """Inverse of the radius map: confidence = 1 - 2K * exp(-2Q*eps/K)."""
    if num_atoms < 1 or num_samples < 1:
        raise ConfigError("num_atoms and num_samples must be >= 1")
    if radius < 0:
        raise ConfigError(f"radius must be >= 0, got {radius}")
    return 1.0 - 2.0 * num_atoms * math.exp(-2.0 * num_samples * radius / num_atoms)


def l1_distance(a: Distribution, b: Distribution) -> float:
    if a.num_atoms != b.num_atoms:
        raise ShapeError("distributions have different lengths")
    return float(np.abs(a.as_array() - b.as_array()).sum())


def in_ball(amb: AmbiguitySet, dist: Distribution, tol: float = PROB_TOL) -> bool:
    """Whether `dist` lies in the L1 ball of `amb`."""
    return l1_distance(amb.reference, dist) <= amb.radius + tol


def point_mass(num_atoms: int, index: int) -> Distribution:
    probs = [0.0] * num_atoms
    probs[index] = 1.0
    return Distribution(probs=tuple(probs))


def expected_latency(decision, scenario, mean_sizes) -> float:
    """Total expected delay in seconds of a decision; mean_sizes[i] is E[phi_i] in bits."""
    coeffs = per_bit_coefficients(scenario)
    per_td = (
        decision.x * coeffs.access_delay
        + decision.y * coeffs.uav_compute_delay
        + decision.z * coeffs.relay_path_delay
    ).sum(axis=1)
    return float(np.asarray(mean_sizes, dtype=float) @ per_td)


def expected_energy(decision, scenario, mean_sizes) -> tuple[np.ndarray, float]:
    """Expected energy (per-UAV vector, HAP total) in joules, basics included."""
    coeffs = per_bit_coefficients(scenario)
    en = scenario.energy
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    weighted_y = mean_sizes[:, None] * decision.y
    weighted_z = mean_sizes[:, None] * decision.z
    uav = (
        en.uav_basic
        + weighted_z.sum(axis=0) * coeffs.uav_relay_energy
        + weighted_y.sum(axis=0) * coeffs.uav_compute_energy
    )
    hap = en.hap_basic + weighted_z.sum() * coeffs.hap_compute_energy
    return uav, float(hap)


def build_p2_with_flow(scenario, mean_sizes) -> LinearProgram:
    """P2 with its access columns x kept: columns [x, y, z], I(J + 1) + 2J + 2 rows.

    Six row blocks, in order: access on x, UAV quotas on x, the HAP quota,
    flow conservation y + z = x, the UAV energy budgets and the HAP energy
    budget. Its optimum over any bounds on y and z equals `build_p2`'s.
    """
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    coeffs = per_bit_coefficients(scenario)
    i, j = scenario.num_tds, scenario.num_uavs
    ij = i * j
    n = 3 * ij

    delays = (coeffs.access_delay, coeffs.uav_compute_delay, coeffs.relay_path_delay)
    objective = np.concatenate([(mean_sizes[:, None] * delay).ravel() for delay in delays])

    def none(rows):
        return np.zeros((rows, ij))

    eye_ij = np.eye(ij)
    size_on_uav = np.kron(mean_sizes, np.eye(j))
    en = scenario.energy
    blocks = (  # (x, y, z) coefficients, relation, rhs
        (np.kron(np.eye(i), np.ones(j)), none(i), none(i), EQ, 1.0),
        (np.kron(np.ones(i), np.eye(j)), none(j), none(j), LE, float(scenario.quota_uav)),
        (none(1), none(1), np.ones((1, ij)), LE, float(scenario.quota_hap)),
        # flow; -I written with +0.0, not -0.0, off the diagonal
        (np.diag(np.full(ij, -1.0)), eye_ij, eye_ij, EQ, 0.0),
        (
            none(j),
            size_on_uav * coeffs.uav_compute_energy[:, None],
            size_on_uav * coeffs.uav_relay_energy[:, None],
            LE,
            en.uav_budget - en.uav_basic,
        ),
        (
            none(1),
            none(1),
            np.repeat(mean_sizes * coeffs.hap_compute_energy, j)[None, :],
            LE,
            en.hap_budget - en.hap_basic,
        ),
    )
    x, y, z, relations, rhs = zip(*blocks)
    rows = [len(block) for block in x]
    return LinearProgram(
        objective,
        np.hstack([np.vstack(x), np.vstack(y), np.vstack(z)]),
        np.repeat(relations, rows),
        np.repeat(rhs, rows),
        lower=np.zeros(n),
        upper=np.ones(n),
    )


def with_flow_bounds(p2: LinearProgram, flow: LinearProgram) -> LinearProgram:
    """`flow` (from `build_p2_with_flow`) with the y and z bounds of `p2` (from `build_p2`)
    and x bounded by them: lo_y + lo_z <= x <= min(1, up_y + up_z)."""
    (lo_y, lo_z), (up_y, up_z) = np.split(p2.lower, 2), np.split(p2.upper, 2)
    lower = np.concatenate([lo_y + lo_z, p2.lower])
    upper = np.concatenate([np.minimum(1.0, up_y + up_z), p2.upper])
    return dataclasses.replace(flow, lower=lower, upper=upper)


def feasible_decisions(scenario, mean_sizes):
    """Every decision that passes `validate` and keeps `expected_energy` within both
    budgets (1e-9 J slack), with its `expected_latency`.

    The order is `exhaustive_solve`'s: each access choice, then each set of relayed TDs.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    en = scenario.energy
    for access in itertools.product(range(j), repeat=i):
        x = np.eye(j, dtype=int)[list(access)]
        for relay in itertools.product((0, 1), repeat=i):
            z = x * np.array(relay)[:, None]
            decision = OffloadDecision(x=x, y=x - z, z=z)
            try:
                decision.validate(scenario)
            except ShapeError:
                continue
            uav, hap = expected_energy(decision, scenario, mean_sizes)
            if (uav <= en.uav_budget + 1e-9).all() and hap <= en.hap_budget + 1e-9:
                yield decision, expected_latency(decision, scenario, mean_sizes)


# all three TDs on UAV 2 need 25.08 J of a 25 J budget; phase 1 once called that child
# LP feasible and the dive returned it, below its own relaxation bound. Its dive sets
# x of TDs 1 and 2 at UAV 0 to 0, then meets that child by setting x of TD 0 there to 0.
INFEASIBLE_CHILD_REPORTED_OPTIMAL = (
    parse_config(
        {
            "scenario": {
                "num_tds": 3,
                "num_uavs": 2,
                "quota_uav": 3,
                "quota_hap": 0,
                "energy": {"uav_budget_j": 25, "uav_chip_coeff": 2e-28},
            },
            "ambiguity": {"history_len": 30, "epsilon": 0.5},
        }
    ),
    415,
)


# the dive fixes the access of TDs 0, 2, 3 and 4, then finds both children of its
# branching on TD 1 infeasible; no integral point of P2 meets every row either
DIVE_DEAD_END = {
    "scenario": {
        "num_tds": 5,
        "num_uavs": 2,
        "quota_uav": 3,
        "quota_hap": 1,
        "radio": {"ref_gain_uav_hap_db": -10},
        "energy": {"uav_budget_j": 10},
    },
    "ambiguity": {"per_device_history": True, "history_len": 30},
    "experiment": {"seeds": [34]},
}
