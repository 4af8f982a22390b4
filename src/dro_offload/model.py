"""Offloading decision model: the LP relaxation P2, the program's one cost model.

Decision variables per (TD i, UAV j): x (access), y (compute on the
UAV), z (relay to the HAP), with y + z = x. P2 substitutes x out: its
columns are [y..., z...] in row-major (i, j) order, 2*I*J in total, and
every row that x enters carries y + z. A decision is one integral point of
those columns (`OffloadDecision.vector`), and its x is the sum y + z.
Every decision is scored on P2 itself: its objective is the expected
latency, its last J + 1 rows give the expected energy above the basic
costs (`energy_use`), and `meets_rows` is the one rule for meeting its rows.
Only the objective and the energy rows, with their rhs, depend on the task
sizes: the rest of P2 (the access, quota and HAP-quota rows with their rhs,
the relations and the [0, 1] bounds) is built and validated once per shape,
I, J, the two quotas and the two energy caps, and every P2 of that shape
shares it read-only; a build validates only the objective, the matrix and
the rhs it writes.

The worst-case distributions are computed by per-device decomposition:
every coefficient multiplying a task size in the objective and in the
energy constraints is nonnegative, so the adversarial distribution for
each device simply maximizes that device's expected size, independently
of the decision. The brute-force grid test in the acceptance suite
certifies this decomposition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySet, worst_case_rows
from .errors import ShapeError
from .geometry import Scenario
from .lp import EQ, LE, Basis, LinearProgram

INTEGRALITY_TOL = 1e-6
ROW_TOL = 1e-9


@dataclass(frozen=True)
class OffloadDecision:
    """Binary compute and relay matrices, both I x J: P2's [y, z] at one integral point."""

    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        if self.y.shape != self.z.shape or self.y.ndim != 2:
            raise ShapeError("y and z must share one I x J shape")
        for name, mat in (("y", self.y), ("z", self.z)):
            if not ((mat == 0) | (mat == 1)).all():
                raise ShapeError(f"{name} entries must be 0 or 1")

    @property
    def x(self) -> np.ndarray:
        """The access matrix, y + z."""
        return self.y + self.z

    def validate(self, scenario: Scenario) -> None:
        """Check the access and quota constraints; raises on violation."""
        x = self.x
        if x.shape != (scenario.num_tds, scenario.num_uavs):
            raise ShapeError("decision shape does not match scenario")
        if not (x.sum(axis=1) == 1).all():
            raise ShapeError("every TD must access exactly one UAV")
        if (x.sum(axis=0) > scenario.quota_uav).any():
            raise ShapeError("a UAV exceeds its access quota")
        if self.z.sum() > scenario.quota_hap:
            raise ShapeError("HAP quota exceeded")

    def vector(self) -> np.ndarray:
        """The decision as P2's columns: [y, z], each in row-major (i, j) order."""
        return np.concatenate([self.y.ravel(), self.z.ravel()]).astype(float)

    def to_dict(self) -> dict:
        return {
            "x": self.x.astype(int).tolist(),
            "y": self.y.astype(int).tolist(),
            "z": self.z.astype(int).tolist(),
        }


@functools.lru_cache(maxsize=16)
def _p2_template(
    i: int, j: int, quota_uav: float, quota_hap: float, uav_cap: float, hap_cap: float
) -> LinearProgram:
    """P2's size-free part for one shape, as a program validated once: a zero
    objective, the matrix with its access, quota and HAP-quota rows filled and its
    J + 1 energy rows zero, the relations, the rhs and the [0, 1] bounds. Every P2 of
    that shape derives from it."""
    ij = i * j
    matrix = np.zeros((i + 2 * j + 2, 2, ij))  # [row, y/z block, (TD, UAV)]
    matrix[:i] = np.repeat(np.eye(i), j, axis=1)[:, None]  # access: one link per TD
    matrix[i : i + j] = np.tile(np.eye(j), i)[:, None]  # UAV access quotas
    matrix[i + j, 1] = 1.0  # HAP quota: z only
    relations = np.repeat([EQ, LE], [i, 2 * j + 2])
    rhs = np.repeat([1.0, quota_uav, quota_hap, uav_cap, hap_cap], [i, j, 1, j, 1])
    return LinearProgram(
        np.zeros(2 * ij),
        matrix.reshape(len(rhs), 2 * ij),
        relations,
        rhs,
        lower=np.zeros(2 * ij),
        upper=np.ones(2 * ij),
    )


def build_p2(scenario: Scenario, mean_sizes: np.ndarray) -> LinearProgram:
    """LP relaxation of the offloading problem for fixed expected sizes.

    The objective is the expected latency in seconds: per bit, access plus
    UAV compute delay on y and access plus relay-and-HAP delay on z. Five
    row blocks, in order: one access link per TD, the UAV access quotas
    (both on y + z), the HAP quota, the UAV energy budgets and the HAP
    energy budget, both net of the basic costs. An energy row's rhs is
    lowered to the row's largest activity over the [0, 1] box when that is
    smaller: the row cannot bind either way, so the optimum is the same. Only
    the objective and the energy rows depend on the sizes: the rest comes
    from `_p2_template`, built and validated once per shape, and each call
    copies the template matrix and rhs, writes those J + 1 rows into them and
    validates only the objective, that matrix and that rhs (ConfigError if
    any is not finite).
    """
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    if mean_sizes.shape != (scenario.num_tds,):
        raise ShapeError("mean_sizes must have one entry per TD")
    coeffs = scenario.coeffs
    i, j = scenario.num_tds, scenario.num_uavs
    sized = mean_sizes[:, None]
    # both blocks in one broadcast over [y/z block, TD, UAV], entry by entry as
    # sized * access delay + sized * the block's delay
    delays = np.array((coeffs.uav_compute_delay, coeffs.relay_path_delay))[:, None]
    objective = (sized * coeffs.access_delay + sized * delays).ravel()

    en = scenario.energy
    caps = (en.uav_budget - en.uav_basic, en.hap_budget - en.hap_basic)
    template = _p2_template(i, j, float(scenario.quota_uav), float(scenario.quota_hap), *caps)
    matrix = template.matrix.copy()
    # UAV energy row j, column (i, j) of each block: E[phi_i] times UAV j's energy per bit
    energy = matrix[i + j + 1 :].reshape(j + 1, 2, i, j)
    uavs = np.arange(j)
    for block, per_bit in enumerate((coeffs.uav_compute_energy, coeffs.uav_relay_energy)):
        energy[uavs, block, :, uavs] = np.multiply.outer(per_bit, mean_sizes)
    # HAP energy: every z of TD i carries E[phi_i] times the HAP's energy per bit
    energy[-1, 1] = (mean_sizes * coeffs.hap_compute_energy)[:, None]
    # an energy row's rhs is at most its largest activity over the box, beyond which the
    # row cannot bind (Andersen and Andersen 1995): a budget of 1e17 J beside entries
    # of at most 1e4 J once put roundoff of that size into the tableau
    rhs = template.rhs.copy()
    reach = np.maximum(matrix[i + j + 1 :], 0.0).sum(axis=1)  # every upper bound is 1
    rhs[i + j + 1 :] = np.minimum(rhs[i + j + 1 :], reach)
    # read-only arrays are kept as they are, not copied again
    for array in (objective, matrix, rhs):
        array.setflags(write=False)
    return template.derive(objective=objective, matrix=matrix, rhs=rhs)


def crash_basis(p2: LinearProgram, num_tds: int) -> Basis:
    """A dual feasible starting basis of P2: each TD's cheapest link basic in its access row.

    Row i's basic column is the argmin of P2's objective over [y_i., z_i.], ties
    to the lowest column id; every other row keeps its slack, and no column sits
    at its upper bound. P2's costs are >= 0 and its access rows come first, so this
    is the basis a dual simplex from the slack basis holds after its first I pivots.
    It is the slack basis of P2's standard form with each TD's cheapest column in
    place of its access row's artificial, so it is tied to that form: `solve_lp`
    takes it as a start on P2 and on every program `derive` makes from P2 with new
    bounds alone, and rejects it on any other.
    """
    i, ij = num_tds, p2.num_vars // 2
    j = ij // i
    links = p2.objective.reshape(2, i, j).transpose(1, 0, 2).reshape(i, 2 * j).argmin(axis=1)
    form = p2._standard_form()
    basic, at_upper = form.basis.copy(), form.basis[:0]
    # link k of TD i is y_ik for k < J, else z_i(k-J)
    basic[:i] = np.arange(i) * j + links + np.where(links < j, 0, ij - j)
    basic.setflags(write=False)  # tied to the form, it must stay the basis built for it
    return Basis(basic=basic, at_upper=at_upper, _factor=(form,))


def energy_use(p2: LinearProgram, point: np.ndarray, num_uavs: int) -> tuple[np.ndarray, float]:
    """Activity of P2's energy rows, its last J + 1, at a decision's `point` (P2's
    columns, as `OffloadDecision.vector` gives them): expected joules above the basic
    costs, per UAV and at the HAP."""
    activity = p2.matrix[-(num_uavs + 1) :] @ point
    return activity[:-1], float(activity[-1])


def meets_rows(p2: LinearProgram, points: np.ndarray) -> np.ndarray:
    """Whether each point (P2's columns along the last axis) meets every row of P2:
    an EQ row within ROW_TOL of its rhs, an LE row at most ROW_TOL above it."""
    excess = points @ p2.matrix.T - p2.rhs
    return (np.where(p2.relations == EQ, np.abs(excess), excess) <= ROW_TOL).all(axis=-1)


def worst_case_means(ambiguity: AmbiguitySet) -> np.ndarray:
    """Per-TD means (bits) of the adversarial distributions: each row of the set's
    references after the greedy shift of `worst_case_rows`, dotted with the atoms.

    Exact for every decision with nonnegative size coefficients, which
    covers the latency objective and both energy constraint families.
    """
    worst = worst_case_rows(ambiguity.references, ambiguity.radius)
    atoms = np.asarray(ambiguity.space.atoms)
    # one dot per row: a matrix-vector product differs from it in the last bit
    return np.array([np.dot(row, atoms) for row in worst])
