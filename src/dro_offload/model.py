"""Offloading decision model: expected costs, LP relaxation, and its dual.

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
from .lp import EQ, GE, LE, LinearProgram, dual_of

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


@dataclass(frozen=True)
class RelaxedDecision:
    """Fractional decision in [0, 1], as returned by the LP relaxation."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @classmethod
    def from_lp_vector(cls, values: np.ndarray, num_tds: int, num_uavs: int) -> "RelaxedDecision":
        ij = num_tds * num_uavs
        if values.shape != (3 * ij,):
            raise ShapeError("LP vector has wrong length")
        shape = (num_tds, num_uavs)
        return cls(
            x=values[:ij].reshape(shape),
            y=values[ij : 2 * ij].reshape(shape),
            z=values[2 * ij :].reshape(shape),
        )


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
    """LP relaxation of the offloading problem for fixed expected sizes."""
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
    lp = LinearProgram(objective, sense="min", lower=np.zeros(n), upper=np.ones(n))

    def x_col(ii, jj):
        return ii * j + jj

    # single access link per TD
    for ii in range(i):
        row = np.zeros(n)
        row[[x_col(ii, jj) for jj in range(j)]] = 1.0
        lp.add_constraint(row, EQ, 1.0)
    # UAV access quota
    for jj in range(j):
        row = np.zeros(n)
        row[[x_col(ii, jj) for ii in range(i)]] = 1.0
        lp.add_constraint(row, LE, float(scenario.quota_uav))
    # HAP quota (one global row)
    row = np.zeros(n)
    row[2 * ij :] = 1.0
    lp.add_constraint(row, LE, float(scenario.quota_hap))
    # flow conservation y + z = x
    for ii in range(i):
        for jj in range(j):
            row = np.zeros(n)
            row[x_col(ii, jj)] = -1.0
            row[ij + x_col(ii, jj)] = 1.0
            row[2 * ij + x_col(ii, jj)] = 1.0
            lp.add_constraint(row, EQ, 0.0)
    # per-UAV energy budget: relay transmissions plus on-board compute
    en = scenario.energy
    for jj in range(j):
        row = np.zeros(n)
        for ii in range(i):
            row[ij + x_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_compute_energy[jj]
            row[2 * ij + x_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_relay_energy[jj]
        lp.add_constraint(row, LE, en.uav_budget - en.uav_basic)
    # HAP energy budget (one global row)
    row = np.zeros(n)
    row[2 * ij :] = (mean_sizes[:, None] * np.full((i, j), coeffs.hap_compute_energy)).ravel()
    lp.add_constraint(row, LE, en.hap_budget - en.hap_basic)
    return lp


def build_p3(scenario: Scenario, mean_sizes: np.ndarray) -> LinearProgram:
    """Dual of the relaxation, derived mechanically from build_p2.

    Inequality multipliers are nonnegative variables; the multiplier of
    the per-TD access equality is unrestricted. Strong duality against
    build_p2 is enforced by the test suite rather than assumed.
    """
    return dual_of(build_p2(scenario, mean_sizes))


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
