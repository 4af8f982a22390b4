"""Reference helpers that only the tests need: an LP built from rows, a
program as plain arrays in any class SciPy's HiGHS takes and HiGHS's
solution of it, the explicit dual of a boxed min program (P3, when the
program is P2) as such arrays, the inverse confidence map, L1 distance and
L1-ball membership for distributions, the per-stream history sampler and
its histogram over midpoint bins, the one-row worst-case shift, the
per-link rates and P2's arrays by their earlier formulas, which the array
passes must match bit for bit, expected latency and energy written from the
per-bit costs independently of P2, P2 as it was before x was substituted
out, a brute force over offloading decisions, pinned instances whose dive
meets an infeasible child or dead-ends, and earlier versions of the dive
and of the simplex kernels that the current ones must match."""

import collections
import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from dro_offload import lp as lp_module
from dro_offload.ambiguity import PROB_TOL, Distribution, SampleSpace
from dro_offload.config import parse_config
from dro_offload.errors import (
    ConfigError,
    DataError,
    InfeasibleProblemError,
    ShapeError,
    SolverError,
)
from dro_offload.lp import EQ, GE, LE, LinearProgram, LpStatus, solve_lp
from dro_offload.geometry import per_bit_coefficients
from dro_offload.mdrloa import SolveResult, select_branch
from dro_offload.model import OffloadDecision, _p2_template, build_p2, crash_basis


def lp_from_rows(objective, rows=(), **kwargs) -> LinearProgram:
    """LinearProgram from a list of (coefficients, relation, rhs) rows."""
    coeffs, relations, rhs = zip(*rows) if rows else ((), (), ())
    matrix = np.reshape(np.asarray(coeffs, dtype=float), (len(rows), len(objective)))
    return LinearProgram(objective, matrix, relations, rhs, **kwargs)


# a program as plain arrays: `sense` "min" or "max", LE, EQ or GE rows, bounds that may
# be infinite; `LinearProgram` takes only the boxed min programs over LE and EQ rows
ArrayLp = collections.namedtuple("ArrayLp", "objective matrix relations rhs lower upper sense")


def highs_solve(lp):
    """SciPy's HiGHS on `lp`, a `LinearProgram` or an `ArrayLp`, with `fun` in `lp`'s
    own sense."""
    a, b, rel = np.asarray(lp.matrix, float), np.asarray(lp.rhs, float), np.asarray(lp.relations)
    sign = 1.0 if lp.sense == "min" else -1.0
    a_ub = np.vstack([a[rel == LE], -a[rel == GE]])
    b_ub = np.concatenate([b[rel == LE], -b[rel == GE]])
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(lp.lower, lp.upper)
    ]
    res = linprog(
        sign * np.asarray(lp.objective, float),
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a[rel == EQ] if (rel == EQ).any() else None,
        b_eq=b[rel == EQ] if (rel == EQ).any() else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 0:
        res.fun *= sign
    return res


def dual_of(lp: LinearProgram) -> ArrayLp:
    """Explicit dual of `lp`, P3 when `lp` is P2: a maximization with free multipliers
    on EQ rows, which `LinearProgram` does not take, for `highs_solve`.

    The bounds are first materialized as rows, `x_j <= upper_j` for every j and
    `x_j >= lower_j` where lower_j != 0, so the primal has only `x >= 0` or free
    variables. The dual's multipliers of LE and GE rows are nonnegative variables;
    strong duality makes its optimum equal the primal's.
    """
    free = lp.lower != 0.0
    eye = np.eye(lp.num_vars)
    a = np.vstack([lp.row_matrix(), eye[free], eye])
    rhs = np.concatenate([lp.rhs_vector(), lp.lower[free], lp.upper])
    relations = np.concatenate([lp.relations, np.full(free.sum(), GE), np.full(lp.num_vars, LE)])
    # the signed multiplier enters stationarity: -y on an LE row, +y on the others
    sign = np.where(relations == LE, -1.0, 1.0)
    lower = np.where(relations == EQ, -np.inf, 0.0)
    # one row per primal variable j: (sign * a)[:, j] @ y (= if j is free, else <=) c_j
    return ArrayLp(
        sign * rhs,
        (a * sign[:, None]).T,
        np.where(free, EQ, LE),
        lp.objective,
        lower,
        np.full(rhs.size, np.inf),
        "max",
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


def in_ball(reference, radius: float, probs, tol: float = PROB_TOL) -> bool:
    """Whether `probs` lies in the L1 ball of `radius` around `reference`."""
    return float(np.abs(np.asarray(reference) - np.asarray(probs)).sum()) <= radius + tol


def point_mass(num_atoms: int, index: int) -> Distribution:
    probs = [0.0] * num_atoms
    probs[index] = 1.0
    return Distribution(probs=tuple(probs))


def midpoint_edges(atoms) -> np.ndarray:
    """Histogram bin edges for ascending atoms: 0, the midpoint between each pair of
    neighbors, then +inf. Each atom lies in its own right-open bin."""
    atoms = np.asarray(atoms, dtype=float)
    return np.concatenate([[0.0], (atoms[:-1] + atoms[1:]) / 2.0, [math.inf]])


def empirical_distribution(samples, space: SampleSpace) -> Distribution:
    """Histogram of the history (task sizes in bits) over the midpoint bins of the
    space's atoms, normalized by Q: the per-history reference, binning by edges rather
    than by atom index, before the references of all streams were built in one array
    pass."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1:
        raise DataError("history must contain at least one sample")
    bins = np.searchsorted(midpoint_edges(space.atoms), samples, side="right") - 1
    outside = (bins < 0) | (bins >= space.num_atoms)  # NaN sorts past the last edge
    if outside.any():
        raise DataError(f"history sample {samples[outside][0]} falls outside every bin")
    counts = np.bincount(bins, minlength=space.num_atoms)
    return Distribution(probs=tuple(counts / samples.size))


def choice_history(truth: Distribution, space: SampleSpace, num_samples: int, seed):
    """num_samples atoms drawn by `Generator.choice` on stream `seed`: the reference for
    the array sampler."""
    rng = np.random.default_rng(seed)
    return rng.choice(np.asarray(space.atoms), size=num_samples, p=truth.as_array())


def worst_case_mean_loop(reference, radius: float, atoms) -> tuple[tuple, float]:
    """The greedy mass shift on one reference row, one atom at a time, and the mean of
    the shifted distribution over the atoms: the reference for `worst_case_rows` and
    `worst_case_means`."""
    p = np.array(reference, dtype=float)
    k_top = len(p) - 1
    budget = min(radius / 2.0, 1.0 - p[k_top])
    moved = 0.0
    for k in range(k_top):
        if moved >= budget:
            break
        take = min(p[k], budget - moved)
        p[k] -= take
        moved += take
    p[k_top] += moved
    dist = Distribution(probs=tuple(p))
    return dist.probs, float(np.dot(dist.probs, atoms))


def link_rates_per_link(config, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The TD-UAV and UAV-HAP rates of `generate_scenario(config, seed)`, link by link
    from points whose x and y are NumPy scalars, each a distance, then an inverse-square
    gain, then a Shannon rate: the reference for its one pass over Python floats."""
    rng = np.random.default_rng([int(seed), 0x6E0])
    td_xy = rng.uniform(0.0, config.area_size, size=(config.num_tds, 2))
    uav_xy = rng.uniform(0.0, config.area_size, size=(config.num_uavs, 2))
    tds = [(x, y, 0.0) for x, y in td_xy]
    uavs = [(x, y, config.uav_altitude) for x, y in uav_xy]
    radio = config.radio

    def rate(a, b, ref_gain, bandwidth, power):
        distance = math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)
        gain = ref_gain / (distance * distance)
        return bandwidth * math.log2(1.0 + power * gain / radio.noise_power)

    td_uav = (radio.ref_gain_td_uav, radio.bandwidth_td_uav, radio.tx_power_td)
    uav_hap = (radio.ref_gain_uav_hap, radio.bandwidth_uav_hap, radio.tx_power_uav)
    return (
        np.array([[rate(td, uav, *td_uav) for uav in uavs] for td in tds]),
        np.array([rate(uav, config.hap_position, *uav_hap) for uav in uavs]),
    )


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


def build_p2_arrays(scenario, mean_sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P2's objective, matrix and rhs by the formulas `model.build_p2` used before the
    per-bit costs were kept on the scenario: the costs computed afresh, on a copy of
    the scenario that holds none, each objective block in its own broadcast, and each
    energy row's reach weighted by the template's upper bounds. The byte-identity
    reference for `build_p2`."""
    mean_sizes = np.asarray(mean_sizes, dtype=float)
    coeffs = per_bit_coefficients(dataclasses.replace(scenario))
    i, j = scenario.num_tds, scenario.num_uavs
    sized = mean_sizes[:, None]
    access = sized * coeffs.access_delay
    delays = (coeffs.uav_compute_delay, coeffs.relay_path_delay)
    objective = np.concatenate([(access + sized * delay).ravel() for delay in delays])
    en = scenario.energy
    caps = (en.uav_budget - en.uav_basic, en.hap_budget - en.hap_basic)
    template = _p2_template(i, j, float(scenario.quota_uav), float(scenario.quota_hap), *caps)
    matrix = template.matrix.copy()
    energy = matrix[i + j + 1 :].reshape(j + 1, 2, i, j)
    uavs = np.arange(j)
    for block, per_bit in enumerate((coeffs.uav_compute_energy, coeffs.uav_relay_energy)):
        energy[uavs, block, :, uavs] = np.multiply.outer(per_bit, mean_sizes)
    energy[-1, 1] = (mean_sizes * coeffs.hap_compute_energy)[:, None]
    rhs = template.rhs.copy()
    reach = (np.maximum(matrix[i + j + 1 :], 0.0) * template.upper).sum(axis=1)
    rhs[i + j + 1 :] = np.minimum(rhs[i + j + 1 :], reach)
    return objective, matrix, rhs


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
            decision = OffloadDecision(y=x - z, z=z)
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


def dive_with_both_children(scenario, means, method):
    """`mdrloa._solve` as it was when every branching solved both children: the reference
    for the dive that skips child 0 once child 1 ties with the LP it branches from.

    Returns the `SolveResult` and the number of branchings in which child 1 is optimal
    and within 1e-12 relative of that LP, the child 0s the skipping dive leaves unsolved.
    """
    i, j = scenario.num_tds, scenario.num_uavs
    base = build_p2(scenario, means)
    current = solve_lp(base, start=crash_basis(base, i))
    count, decided = 1, 0
    if current.status is not LpStatus.OPTIMAL:
        raise InfeasibleProblemError(
            "root relaxation is infeasible "
            f"(I={i}, J={j}, N_u={scenario.quota_uav}, N_H={scenario.quota_hap})"
        )
    bound = current.objective_value
    bounds = np.stack([base.lower, base.upper]).reshape(2, 2, i, j)
    for phase, blocks in (("access", 2), ("compute", 1)):
        while (pick := select_branch(current.x.reshape(2, i, j)[:blocks].sum(axis=0))) is not None:
            td, uav = pick
            narrowed = (bounds.copy(), bounds.copy())
            if phase == "compute":
                narrowed[0][1, 0, td, uav] = 0.0
                narrowed[1][0, 0, td, uav] = 1.0
            else:
                narrowed[0][1, :, td, uav] = 0.0
                narrowed[1][1, :, td, np.arange(j) != uav] = 0.0
            children = [
                solve_lp(base.derive(lower=lo.ravel(), upper=hi.ravel()), start=current.basis)
                for lo, hi in narrowed
            ]
            count += 2
            lat0, lat1 = (
                c.objective_value if c.status is LpStatus.OPTIMAL else np.inf for c in children
            )
            if not np.isfinite(lat0) and not np.isfinite(lat1):
                raise InfeasibleProblemError(
                    f"no feasible decision found: both children infeasible in the {phase} "
                    f"phase at TD {td}, UAV {uav}, "
                    f"with {int((bounds[0] == bounds[1]).sum())} fixed columns"
                )
            parent = current.objective_value
            decided += bool(lat1 <= parent + 1e-12 * max(1.0, abs(parent)))
            chosen = 1 if lat1 <= lat0 + 1e-12 * max(1.0, abs(lat0)) else 0
            bounds = narrowed[chosen]
            current = children[chosen]
        x = np.rint(current.x.reshape(2, i, j).sum(axis=0))
        bounds[1, :, x == 0] = 0.0

    y, z = np.rint(current.x).astype(int).reshape(2, i, j)
    decision = OffloadDecision(y=y, z=z)
    decision.validate(scenario)
    result = SolveResult(
        decision=decision,
        worst_case_expected_latency=float(base.objective @ decision.vector()),
        relaxation_bound=bound,
        lp_solve_count=count,
        method=method,
    )
    return result, decided


def pivot_with_outer(tableau, basis, row, col):
    """`lp._pivot` as it was with `np.flatnonzero` and `np.outer`: the byte-identity
    reference for the pivot."""
    tableau[row] /= tableau[row, col]
    rows = np.flatnonzero(tableau[:, col])
    rows = rows[rows != row]
    tableau[rows] -= np.outer(tableau[rows, col], tableau[row])
    tableau[rows, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def dual_simplex_per_call(tableau, basis, ub, flipped, max_iter):
    """`lp._dual_simplex` as it was, slicing x_B and the cost row and calling
    `np.flatnonzero`, `np.argmax` and `np.argmin` each iteration: the byte-identity
    reference for the dual simplex."""
    if not basis.size:
        return True
    priced = ub > 0.0
    ub_basic = ub[basis]
    for _ in range(max_iter):
        xb = tableau[:-1, -1]
        violation = np.maximum(-xb, xb - ub_basic) / np.maximum(1.0, np.abs(xb))
        row = int(np.argmax(violation))
        if violation[row] <= lp_module._FEAS_TOL:
            return True
        if xb[row] > ub_basic[row]:
            lp_module._flip_basic(tableau, basis, ub, flipped, row)
        alpha = tableau[row, :-1]
        eligible = np.flatnonzero(priced & (alpha < -lp_module._PIVOT_TOL))
        if not eligible.size:
            return False
        ratios = np.maximum(tableau[-1, eligible], 0.0) / -alpha[eligible]
        entering = int(eligible[np.argmin(ratios)])
        lp_module._pivot(tableau, basis, row, entering)
        ub_basic[row] = ub[entering]
    raise SolverError(f"dual simplex exceeded {max_iter} iterations")
