"""Offloading decision model: expected costs and the LP relaxation P2.

Decision variables per (TD i, UAV j): x (access), y (compute on the
UAV), z (relay to the HAP). The LP relaxation P2 stacks them as
[x..., y..., z...] in row-major (i, j) order, 3*I*J variables total.

The worst-case distributions are computed by per-device decomposition:
every coefficient multiplying a task size in the objective and in the
energy constraints is nonnegative, so the adversarial distribution for
each device simply maximizes that device's expected size, independently
of the decision. The brute-force grid test in the acceptance suite
certifies this decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySet, Distribution, worst_case_mean_distribution
from .errors import ShapeError
from .geometry import Scenario, per_bit_coefficients
from .lp import EQ, LE, LinearProgram

INTEGRALITY_TOL = 1e-6


@dataclass(frozen=True)
class OffloadDecision:
    """Binary access/compute/relay matrices, all I x J."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.z.shape) or self.x.ndim != 2:
            raise ShapeError("x, y, z must share one I x J shape")
        for name, mat in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not np.isin(mat, (0, 1)).all():
                raise ShapeError(f"{name} entries must be 0 or 1")

    def validate(self, scenario: Scenario) -> None:
        """Check the flow and quota constraints; raises on violation."""
        if self.x.shape != (scenario.num_tds, scenario.num_uavs):
            raise ShapeError("decision shape does not match scenario")
        if not (self.x.sum(axis=1) == 1).all():
            raise ShapeError("every TD must access exactly one UAV")
        if (self.x.sum(axis=0) > scenario.quota_uav).any():
            raise ShapeError("a UAV exceeds its access quota")
        if self.z.sum() > scenario.quota_hap:
            raise ShapeError("HAP quota exceeded")
        if not (self.y + self.z == self.x).all():
            raise ShapeError("flow conservation y + z = x violated")

    def to_dict(self) -> dict:
        return {
            "x": self.x.astype(int).tolist(),
            "y": self.y.astype(int).tolist(),
            "z": self.z.astype(int).tolist(),
        }


def _path_cost_matrices(scenario: Scenario):
    coeffs = per_bit_coefficients(scenario)
    i, j = scenario.num_tds, scenario.num_uavs
    access = coeffs.access_delay  # I x J
    uav_cp = np.broadcast_to(coeffs.uav_compute_delay, (i, j))
    relay = np.broadcast_to(coeffs.relay_path_delay, (i, j))
    return coeffs, access, uav_cp, relay


def expected_latency(
    decision, scenario: Scenario, mean_sizes: np.ndarray
) -> float:
    """Total expected delay in seconds for an (possibly relaxed) decision.

    mean_sizes[i] is E[phi_i] in bits; with point masses this is exactly
    the realized latency.
    """
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    if mean_sizes.shape != (scenario.num_tds,):
        raise ShapeError("mean_sizes must have one entry per TD")
    _, access, uav_cp, relay = _path_cost_matrices(scenario)
    per_td = (decision.x * access + decision.y * uav_cp + decision.z * relay).sum(axis=1)
    return float(mean_sizes @ per_td)


def expected_energy(
    decision, scenario: Scenario, mean_sizes: np.ndarray
) -> tuple[np.ndarray, float]:
    """Expected energy (per-UAV vector, HAP total) in joules, basics included."""
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    if mean_sizes.shape != (scenario.num_tds,):
        raise ShapeError("mean_sizes must have one entry per TD")
    coeffs = per_bit_coefficients(scenario)
    en = scenario.energy
    weighted_y = mean_sizes[:, None] * decision.y
    weighted_z = mean_sizes[:, None] * decision.z
    uav = (
        en.uav_basic
        + weighted_z.sum(axis=0) * coeffs.uav_relay_energy
        + weighted_y.sum(axis=0) * coeffs.uav_compute_energy
    )
    hap = en.hap_basic + weighted_z.sum() * coeffs.hap_compute_energy
    return uav, float(hap)


def build_p2(scenario: Scenario, mean_sizes: np.ndarray) -> LinearProgram:
    """LP relaxation of the offloading problem for fixed expected sizes.

    Six row blocks, in order: one access link per TD, the UAV access
    quotas, the HAP quota, flow conservation y + z = x, the UAV energy
    budgets and the HAP energy budget.
    """
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    if mean_sizes.shape != (scenario.num_tds,):
        raise ShapeError("mean_sizes must have one entry per TD")
    coeffs, access, uav_cp, relay = _path_cost_matrices(scenario)
    i, j = scenario.num_tds, scenario.num_uavs
    ij = i * j
    n = 3 * ij

    objective = np.concatenate(
        [
            (mean_sizes[:, None] * access).ravel(),
            (mean_sizes[:, None] * uav_cp).ravel(),
            (mean_sizes[:, None] * relay).ravel(),
        ]
    )

    def none(rows):
        return np.zeros((rows, ij))

    eye_ij = np.eye(ij)
    # row j, column (i, j'): E[phi_i] when j' == j, else 0
    size_on_uav = np.kron(mean_sizes, np.eye(j))
    en = scenario.energy
    blocks = (  # (x, y, z) coefficients, relation, rhs
        (np.kron(np.eye(i), np.ones(j)), none(i), none(i), EQ, 1.0),  # access
        (np.kron(np.ones(i), np.eye(j)), none(j), none(j), LE, float(scenario.quota_uav)),
        (none(1), none(1), np.ones((1, ij)), LE, float(scenario.quota_hap)),
        # flow; -I written with +0.0, not -0.0, off the diagonal
        (np.diag(np.full(ij, -1.0)), eye_ij, eye_ij, EQ, 0.0),
        (  # UAV energy
            none(j),
            size_on_uav * coeffs.uav_compute_energy[:, None],
            size_on_uav * coeffs.uav_relay_energy[:, None],
            LE,
            en.uav_budget - en.uav_basic,
        ),
        (  # HAP energy
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


def worst_case_distributions(
    ambiguity_sets: list[AmbiguitySet],
) -> tuple[list[Distribution], np.ndarray]:
    """Per-TD adversarial distributions and their means (bits).

    Exact for every decision with nonnegative size coefficients, which
    covers the latency objective and both energy constraint families.
    """
    dists = []
    means = []
    for amb in ambiguity_sets:
        dist, mean = worst_case_mean_distribution(amb)
        dists.append(dist)
        means.append(mean)
    return dists, np.asarray(means)
