"""Offloading decision model: the LP relaxation P2, the program's one cost model.

Decision variables per (TD i, UAV j): x (access), y (compute on the
UAV), z (relay to the HAP). P2 stacks them as [x..., y..., z...] in
row-major (i, j) order, 3*I*J columns total (`OffloadDecision.vector`).
Every decision is scored on P2 itself: its objective is the expected
latency, its last J + 1 rows give the expected energy above the basic
costs (`energy_use`), and `meets_rows` is the one rule for meeting its rows.

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
ROW_TOL = 1e-9


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

    def vector(self) -> np.ndarray:
        """The decision as P2's columns: [x, y, z], each in row-major (i, j) order."""
        return np.concatenate([self.x.ravel(), self.y.ravel(), self.z.ravel()]).astype(float)

    def to_dict(self) -> dict:
        return {
            "x": self.x.astype(int).tolist(),
            "y": self.y.astype(int).tolist(),
            "z": self.z.astype(int).tolist(),
        }


def build_p2(scenario: Scenario, mean_sizes: np.ndarray) -> LinearProgram:
    """LP relaxation of the offloading problem for fixed expected sizes.

    The objective is the expected latency in seconds: per bit, access
    delay on x, UAV compute delay on y and relay-plus-HAP delay on z. Six
    row blocks, in order: one access link per TD, the UAV access quotas,
    the HAP quota, flow conservation y + z = x, the UAV energy budgets
    and the HAP energy budget, both net of the basic costs.
    """
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    if mean_sizes.shape != (scenario.num_tds,):
        raise ShapeError("mean_sizes must have one entry per TD")
    coeffs = per_bit_coefficients(scenario)
    i, j = scenario.num_tds, scenario.num_uavs
    ij = i * j
    n = 3 * ij

    delays = (coeffs.access_delay, coeffs.uav_compute_delay, coeffs.relay_path_delay)
    objective = np.concatenate([(mean_sizes[:, None] * delay).ravel() for delay in delays])

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


def energy_use(p2: LinearProgram, decision: OffloadDecision) -> tuple[np.ndarray, float]:
    """Activity of P2's energy rows, its last J + 1, at the decision: expected joules
    above the basic costs, per UAV and at the HAP."""
    activity = p2.matrix[-(decision.x.shape[1] + 1) :] @ decision.vector()
    return activity[:-1], float(activity[-1])


def meets_rows(p2: LinearProgram, points: np.ndarray) -> np.ndarray:
    """Whether each point (P2's columns along the last axis) meets every row of P2:
    an EQ row within ROW_TOL of its rhs, an LE row at most ROW_TOL above it."""
    excess = points @ p2.matrix.T - p2.rhs
    return (np.where(p2.relations == EQ, np.abs(excess), excess) <= ROW_TOL).all(axis=-1)


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
