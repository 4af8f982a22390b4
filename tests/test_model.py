import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dro_offload.ambiguity import AmbiguitySet, Distribution, SampleSpace
from dro_offload.config import default_config, load_config
from dro_offload.errors import ShapeError
from dro_offload.evaluation import build_ambiguity_sets
from dro_offload.geometry import generate_scenario, per_bit_coefficients
from dro_offload.lp import EQ, LE, LinearProgram, LpStatus, solve_lp
from dro_offload.model import (
    OffloadDecision,
    build_p2,
    expected_energy,
    expected_latency,
    worst_case_distributions,
)
from helpers import dual_of, lp_from_rows

SPACE = SampleSpace.with_midpoint_edges([3e6, 9e6, 15e6, 21e6, 27e6])


def _scenario(seed=1, **overrides):
    cfg = default_config().scenario
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return generate_scenario(cfg, seed)


def _all_local(i, j):
    x = np.zeros((i, j), dtype=int)
    x[:, 0] = 1
    return OffloadDecision(x=x, y=x.copy(), z=np.zeros((i, j), dtype=int))


class TestOffloadDecision:
    def test_binary_enforced(self):
        m = np.array([[0.5]])
        with pytest.raises(ShapeError):
            OffloadDecision(x=m, y=m, z=np.zeros((1, 1)))

    def test_flow_violation(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        x = np.array([[1, 0], [0, 1]])
        bad = OffloadDecision(x=x, y=np.zeros_like(x), z=np.zeros_like(x))
        with pytest.raises(ShapeError):
            bad.validate(sc)

    def test_quota_violation(self):
        sc = _scenario(num_tds=3, num_uavs=2, quota_uav=1)
        d = _all_local(3, 2)
        with pytest.raises(ShapeError):
            d.validate(sc)

    def test_hap_quota_violation(self):
        sc = _scenario(num_tds=3, num_uavs=2, quota_uav=3, quota_hap=1)
        x = np.zeros((3, 2), dtype=int)
        x[:, 0] = 1
        d = OffloadDecision(x=x, y=np.zeros_like(x), z=x.copy())
        with pytest.raises(ShapeError):
            d.validate(sc)

    def test_round_trip(self):
        d = _all_local(2, 2)
        again = OffloadDecision(**{k: np.asarray(v) for k, v in d.to_dict().items()})
        np.testing.assert_array_equal(d.x, again.x)
        np.testing.assert_array_equal(d.y, again.y)


class TestExpectedCosts:
    def test_latency_hand_value(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        coeffs = per_bit_coefficients(sc)
        sizes = np.array([1e6, 2e6])
        d = _all_local(2, 2)
        expected = float(
            sizes
            @ (1.0 / sc.rate_td_uav[:, 0] + coeffs.uav_compute_delay[0] * np.ones(2))
        )
        assert expected_latency(d, sc, sizes) == pytest.approx(expected, rel=1e-12)

    def test_relay_latency_uses_relay_path(self):
        sc = _scenario(num_tds=1, num_uavs=1, quota_uav=1)
        coeffs = per_bit_coefficients(sc)
        x = np.array([[1]])
        relay = OffloadDecision(x=x, y=np.zeros_like(x), z=x.copy())
        local = OffloadDecision(x=x, y=x.copy(), z=np.zeros_like(x))
        sizes = np.array([1e6])
        gap = expected_latency(relay, sc, sizes) - expected_latency(local, sc, sizes)
        assert gap == pytest.approx(
            1e6 * (coeffs.relay_path_delay[0] - coeffs.uav_compute_delay[0]), rel=1e-12
        )

    def test_energy_hand_value(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        coeffs = per_bit_coefficients(sc)
        sizes = np.array([1e6, 2e6])
        d = _all_local(2, 2)
        uav, hap = expected_energy(d, sc, sizes)
        assert uav[0] == pytest.approx(3e6 * coeffs.uav_compute_energy[0], rel=1e-12)
        assert uav[1] == pytest.approx(0.0, abs=1e-15)
        assert hap == pytest.approx(0.0, abs=1e-15)


class TestP2:
    def test_dimensions(self):
        lp = build_p2(_scenario(), np.ones(10))
        assert lp.num_vars == 90  # 3IJ
        assert lp.num_constraints == 48  # I + J + 1 + IJ + J + 1

    def test_relaxation_bounds_every_decision(self):
        sc = _scenario(num_tds=3, num_uavs=2, quota_uav=2, seed=4)
        sizes = np.full(3, 15e6)
        sol = solve_lp(build_p2(sc, sizes))
        assert sol.status is LpStatus.OPTIMAL
        # enumerate a few feasible binary decisions; the LP bound must hold
        import itertools

        for assign in itertools.product(range(2), repeat=3):
            x = np.zeros((3, 2), dtype=int)
            for i, j in enumerate(assign):
                x[i, j] = 1
            if (x.sum(axis=0) > sc.quota_uav).any():
                continue
            d = OffloadDecision(x=x, y=x.copy(), z=np.zeros_like(x))
            assert sol.objective_value <= expected_latency(d, sc, sizes) + 1e-9

    def test_solution_is_feasible_relaxation(self):
        sc = _scenario()
        sizes = np.full(10, 18.6e6)
        sol = solve_lp(build_p2(sc, sizes))
        assert sol.status is LpStatus.OPTIMAL
        x, y, z = sol.x.reshape(3, 10, 3)
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-8)
        np.testing.assert_allclose(y + z, x, atol=1e-8)
        assert (x.sum(axis=0) <= sc.quota_uav + 1e-8).all()
        assert sol.certificate.ok()


def _build_p2_loops(scenario, mean_sizes) -> LinearProgram:
    """P2 built one zero-filled row at a time: the reference for build_p2's row blocks."""
    coeffs = per_bit_coefficients(scenario)
    access = coeffs.access_delay
    i, j = scenario.num_tds, scenario.num_uavs
    uav_cp = np.broadcast_to(coeffs.uav_compute_delay, (i, j))
    relay = np.broadcast_to(coeffs.relay_path_delay, (i, j))
    ij = i * j
    n = 3 * ij
    objective = np.concatenate(
        [
            (mean_sizes[:, None] * access).ravel(),
            (mean_sizes[:, None] * uav_cp).ravel(),
            (mean_sizes[:, None] * relay).ravel(),
        ]
    )
    rows = []

    def x_col(ii, jj):
        return ii * j + jj

    for ii in range(i):
        row = np.zeros(n)
        row[[x_col(ii, jj) for jj in range(j)]] = 1.0
        rows.append((row, EQ, 1.0))
    for jj in range(j):
        row = np.zeros(n)
        row[[x_col(ii, jj) for ii in range(i)]] = 1.0
        rows.append((row, LE, float(scenario.quota_uav)))
    row = np.zeros(n)
    row[2 * ij :] = 1.0
    rows.append((row, LE, float(scenario.quota_hap)))
    for ii in range(i):
        for jj in range(j):
            row = np.zeros(n)
            row[x_col(ii, jj)] = -1.0
            row[ij + x_col(ii, jj)] = 1.0
            row[2 * ij + x_col(ii, jj)] = 1.0
            rows.append((row, EQ, 0.0))
    en = scenario.energy
    for jj in range(j):
        row = np.zeros(n)
        for ii in range(i):
            row[ij + x_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_compute_energy[jj]
            row[2 * ij + x_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_relay_energy[jj]
        rows.append((row, LE, en.uav_budget - en.uav_basic))
    row = np.zeros(n)
    row[2 * ij :] = (mean_sizes[:, None] * np.full((i, j), coeffs.hap_compute_energy)).ravel()
    rows.append((row, LE, en.hap_budget - en.hap_basic))
    return lp_from_rows(objective, rows, lower=np.zeros(n), upper=np.ones(n))


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_p2_row_blocks_match_row_loops(name):
    cfg = load_config(PERFBENCH_CONFIGS / f"{name}.json")
    for seed in (1, 2, 3):
        scenario = generate_scenario(cfg.scenario, seed)
        _, wc_means = worst_case_distributions(build_ambiguity_sets(cfg, seed))
        atoms = cfg.ambiguity.sample_space().atoms
        for means in (wc_means, np.full(scenario.num_tds, max(atoms))):
            ours, ref = build_p2(scenario, means), _build_p2_loops(scenario, means)
            for got, want in [
                (ours.row_matrix(), ref.row_matrix()),
                (ours.rhs_vector(), ref.rhs_vector()),
                (ours.objective, ref.objective),
                (ours.lower, ref.lower),
                (ours.upper, ref.upper),
            ]:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert ours.relations.tolist() == ref.relations.tolist()


class TestP3:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_strong_duality(self, seed):
        sc = _scenario(seed=seed)
        sizes = np.full(10, 18.6e6)
        p = solve_lp(build_p2(sc, sizes))
        d = solve_lp(dual_of(build_p2(sc, sizes)))
        assert p.status is LpStatus.OPTIMAL and d.status is LpStatus.OPTIMAL
        scale = max(1.0, abs(p.objective_value))
        assert abs(p.objective_value - d.objective_value) / scale < 1e-8

    def test_dual_is_maximization(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        assert dual_of(build_p2(sc, np.full(2, 1e6))).sense == "max"


class TestWorstCaseDistributions:
    def test_matches_single_set_calls(self):
        ref = Distribution.uniform(5)
        sets = [AmbiguitySet(SPACE, ref, 0.3) for _ in range(4)]
        dists, means = worst_case_distributions(sets)
        assert len(dists) == 4
        np.testing.assert_allclose(means, 18.6e6, rtol=1e-12)
