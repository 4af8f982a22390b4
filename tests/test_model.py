import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dro_offload.ambiguity import AmbiguitySet, Distribution, SampleSpace
from dro_offload.config import default_config, load_config, parse_config
from dro_offload.errors import ConfigError, ShapeError
from dro_offload.evaluation import build_ambiguity_sets
from dro_offload.geometry import generate_scenario
from dro_offload.lp import EQ, LE, LinearProgram, LpStatus, solve_lp
from dro_offload.model import (
    OffloadDecision,
    build_p2,
    energy_use,
    meets_rows,
    worst_case_means,
)
from helpers import (
    build_p2_arrays,
    build_p2_with_flow,
    dual_of,
    expected_energy,
    expected_latency,
    feasible_decisions,
    highs_solve,
    lp_from_rows,
)

SPACE = SampleSpace(atoms=(3e6, 9e6, 15e6, 21e6, 27e6))


def _scenario(seed=1, **overrides):
    cfg = default_config().scenario
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return generate_scenario(cfg, seed)


def _all_local(i, j):
    x = np.zeros((i, j), dtype=int)
    x[:, 0] = 1
    return OffloadDecision(y=x, z=np.zeros((i, j), dtype=int))


class TestOffloadDecision:
    def test_binary_enforced(self):
        for value in (0.5, 2.0, -1.0, np.nan):
            m = np.array([[value]])
            with pytest.raises(ShapeError, match="entries must be 0 or 1"):
                OffloadDecision(y=m, z=np.zeros((1, 1)))

    def test_access_is_y_plus_z(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        y, z = np.array([[1, 0], [0, 0]]), np.array([[0, 0], [0, 1]])
        np.testing.assert_array_equal(OffloadDecision(y=y, z=z).x, np.eye(2))
        # a link both computed and relayed counts twice toward its TD's one access
        with pytest.raises(ShapeError, match="exactly one UAV"):
            OffloadDecision(y=y, z=y).validate(sc)
        with pytest.raises(ShapeError, match="exactly one UAV"):
            OffloadDecision(y=np.zeros_like(y), z=np.zeros_like(z)).validate(sc)

    def test_quota_violation(self):
        sc = _scenario(num_tds=3, num_uavs=2, quota_uav=1)
        d = _all_local(3, 2)
        with pytest.raises(ShapeError):
            d.validate(sc)

    def test_hap_quota_violation(self):
        sc = _scenario(num_tds=3, num_uavs=2, quota_uav=3, quota_hap=1)
        x = np.zeros((3, 2), dtype=int)
        x[:, 0] = 1
        d = OffloadDecision(y=np.zeros_like(x), z=x)
        with pytest.raises(ShapeError):
            d.validate(sc)

    def test_round_trip(self):
        d = _all_local(2, 2)
        data = d.to_dict()
        assert list(data) == ["x", "y", "z"] and data["x"] == d.x.tolist()
        again = OffloadDecision(y=np.asarray(data["y"]), z=np.asarray(data["z"]))
        np.testing.assert_array_equal(d.y, again.y)
        np.testing.assert_array_equal(d.z, again.z)


class TestExpectedCosts:
    """Hand values of P2's objective (expected latency) and energy rows."""

    def test_latency_hand_value(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        coeffs = sc.coeffs
        sizes = np.array([1e6, 2e6])
        d = _all_local(2, 2)
        expected = float(
            sizes
            @ (1.0 / sc.rate_td_uav[:, 0] + coeffs.uav_compute_delay[0] * np.ones(2))
        )
        assert build_p2(sc, sizes).objective @ d.vector() == pytest.approx(expected, rel=1e-12)

    def test_relay_latency_uses_relay_path(self):
        sc = _scenario(num_tds=1, num_uavs=1, quota_uav=1)
        coeffs = sc.coeffs
        x = np.array([[1]])
        relay = OffloadDecision(y=np.zeros_like(x), z=x)
        local = OffloadDecision(y=x, z=np.zeros_like(x))
        objective = build_p2(sc, np.array([1e6])).objective
        gap = objective @ relay.vector() - objective @ local.vector()
        assert gap == pytest.approx(
            1e6 * (coeffs.relay_path_delay[0] - coeffs.uav_compute_delay[0]), rel=1e-12
        )

    def test_energy_hand_value(self):
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        coeffs = sc.coeffs
        sizes = np.array([1e6, 2e6])
        uav, hap = energy_use(build_p2(sc, sizes), _all_local(2, 2).vector(), 2)
        assert uav[0] == pytest.approx(3e6 * coeffs.uav_compute_energy[0], rel=1e-12)
        assert uav[1] == pytest.approx(0.0, abs=1e-15)
        assert hap == pytest.approx(0.0, abs=1e-15)

    def test_relay_energy_hand_value(self):
        # TD 1 relays through UAV 1: the UAV pays for the relay link, the HAP computes
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2, quota_hap=1)
        coeffs = sc.coeffs
        sizes = np.array([1e6, 2e6])
        x = np.eye(2, dtype=int)
        z = np.array([[0, 0], [0, 1]])
        uav, hap = energy_use(build_p2(sc, sizes), OffloadDecision(y=x - z, z=z).vector(), 2)
        assert uav[0] == pytest.approx(1e6 * coeffs.uav_compute_energy[0], rel=1e-12)
        assert uav[1] == pytest.approx(2e6 * coeffs.uav_relay_energy[1], rel=1e-12)
        assert hap == pytest.approx(2e6 * coeffs.hap_compute_energy, rel=1e-12)

    def test_p2_agrees_with_the_formulas_on_every_decision(self):
        sc = _scenario(num_tds=4, num_uavs=2, quota_uav=4, quota_hap=4, seed=7)
        sizes = np.array([3e6, 27e6, 9e6, 21e6])
        p2 = build_p2(sc, sizes)
        en = sc.energy
        decisions = list(feasible_decisions(sc, sizes))
        assert len(decisions) == 2**4 * 2**4
        for d, latency in decisions:
            assert p2.objective @ d.vector() == pytest.approx(latency, rel=1e-12)
            uav, hap = energy_use(p2, d.vector(), sc.num_uavs)
            want_uav, want_hap = expected_energy(d, sc, sizes)
            np.testing.assert_allclose(uav, want_uav - en.uav_basic, rtol=1e-12, atol=0)
            assert hap == pytest.approx(want_hap - en.hap_basic, rel=1e-12, abs=0)


class TestP2:
    def test_dimensions(self):
        lp = build_p2(_scenario(), np.ones(10))
        assert lp.num_vars == 60  # 2IJ: y and z
        assert lp.num_constraints == 18  # I + J + 1 + J + 1

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
            d = OffloadDecision(y=x, z=np.zeros_like(x))
            assert sol.objective_value <= expected_latency(d, sc, sizes) + 1e-9

    def test_solution_is_feasible_relaxation(self):
        sc = _scenario()
        sizes = np.full(10, 18.6e6)
        sol = solve_lp(build_p2(sc, sizes))
        assert sol.status is LpStatus.OPTIMAL
        y, z = sol.x.reshape(2, 10, 3)
        x = y + z
        np.testing.assert_allclose(x.sum(axis=1), 1.0, atol=1e-8)
        assert (x.sum(axis=0) <= sc.quota_uav + 1e-8).all()
        # [x, y, z] meets every row of P2 with flow rows y + z = x, within 1e-9
        assert meets_rows(build_p2_with_flow(sc, sizes), np.concatenate([x.ravel(), sol.x]))
        assert sol.certificate.ok()


def _build_p2_loops(scenario, mean_sizes) -> LinearProgram:
    """P2 built one zero-filled row at a time: the reference for build_p2's row blocks.
    Each energy row's rhs is at most the row's largest activity over the [0, 1] box, the
    sum of its positive entries."""
    coeffs = scenario.coeffs
    access = coeffs.access_delay
    i, j = scenario.num_tds, scenario.num_uavs
    uav_cp = np.broadcast_to(coeffs.uav_compute_delay, (i, j))
    relay = np.broadcast_to(coeffs.relay_path_delay, (i, j))
    ij = i * j
    n = 2 * ij
    sized = mean_sizes[:, None]
    objective = np.concatenate(
        [
            (sized * access + sized * uav_cp).ravel(),
            (sized * access + sized * relay).ravel(),
        ]
    )
    rows = []

    def y_col(ii, jj):
        return ii * j + jj

    def z_col(ii, jj):
        return ij + ii * j + jj

    for ii in range(i):
        row = np.zeros(n)
        row[[y_col(ii, jj) for jj in range(j)]] = 1.0
        row[[z_col(ii, jj) for jj in range(j)]] = 1.0
        rows.append((row, EQ, 1.0))
    for jj in range(j):
        row = np.zeros(n)
        row[[y_col(ii, jj) for ii in range(i)]] = 1.0
        row[[z_col(ii, jj) for ii in range(i)]] = 1.0
        rows.append((row, LE, float(scenario.quota_uav)))
    row = np.zeros(n)
    row[ij:] = 1.0
    rows.append((row, LE, float(scenario.quota_hap)))
    en = scenario.energy
    for jj in range(j):
        row = np.zeros(n)
        for ii in range(i):
            row[y_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_compute_energy[jj]
            row[z_col(ii, jj)] = mean_sizes[ii] * coeffs.uav_relay_energy[jj]
        rows.append((row, LE, min(en.uav_budget - en.uav_basic, np.maximum(row, 0.0).sum())))
    row = np.zeros(n)
    row[ij:] = (mean_sizes[:, None] * np.full((i, j), coeffs.hap_compute_energy)).ravel()
    rows.append((row, LE, min(en.hap_budget - en.hap_basic, np.maximum(row, 0.0).sum())))
    return lp_from_rows(objective, rows, lower=np.zeros(n), upper=np.ones(n))


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_p2_row_blocks_match_row_loops(name):
    cfg = load_config(PERFBENCH_CONFIGS / f"{name}.json")
    for seed in (1, 2, 3):
        scenario = generate_scenario(cfg.scenario, seed)
        wc_means = worst_case_means(build_ambiguity_sets(cfg, seed))
        atoms = cfg.ambiguity.space.atoms
        for means in (wc_means, np.full(scenario.num_tds, max(atoms))):
            ours, ref = build_p2(scenario, means), _build_p2_loops(scenario, means)
            for got, want in [
                (ours.matrix, ref.matrix),
                (ours.rhs, ref.rhs),
                (ours.objective, ref.objective),
                (ours.lower, ref.lower),
                (ours.upper, ref.upper),
            ]:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert ours.relations.tolist() == ref.relations.tolist()

    # one I x J, its size-free rows changed one field at a time, in an order that returns
    # to earlier values: a build that reused a stale or wrongly keyed template differs
    scenario = generate_scenario(cfg.scenario, 1)
    sizes = np.linspace(3e6, 27e6, scenario.num_tds)
    base = (scenario.quota_uav, scenario.quota_hap, 25.0, 1e6)
    changes = [(0, base[0] + 1), (1, base[1] + 2), (2, 31.5), (3, 2e6), (0, base[0] + 2)]
    settings = [base]
    for field, value in changes * 2:
        settings += [base[:field] + (value,) + base[field + 1 :], base]
    for quota_uav, quota_hap, uav_budget, hap_budget in settings:
        energy = dataclasses.replace(scenario.energy, uav_budget=uav_budget, hap_budget=hap_budget)
        varied = dataclasses.replace(
            scenario, quota_uav=quota_uav, quota_hap=quota_hap, energy=energy
        )
        ours, ref = build_p2(varied, sizes), _build_p2_loops(varied, sizes)
        for attr in ("objective", "matrix", "rhs", "lower", "upper"):
            got, want = getattr(ours, attr), getattr(ref, attr)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), attr
        assert ours.relations.tolist() == ref.relations.tolist()
        for attr in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            assert not getattr(ours, attr).flags.writeable, attr


@pytest.mark.parametrize("overflows", ["objective", "matrix"])
def test_sizes_that_overflow_p2_are_a_config_error(overflows):
    # each build checks the objective and the energy rows it writes, not only the template
    scenario = _scenario()
    if overflows == "objective":  # 2.7e8 s per bit of UAV compute
        compute = dataclasses.replace(scenario.compute, uav_capability=1e-6)
        scenario = dataclasses.replace(scenario, compute=compute)
    else:  # 2.4e11 J per bit of UAV compute
        energy = dataclasses.replace(scenario.energy, uav_chip_coeff=1e-10)
        scenario = dataclasses.replace(scenario, energy=energy)
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ConfigError, match="must be finite"):
            build_p2(scenario, np.full(scenario.num_tds, 1e301))


class TestP3:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_strong_duality(self, seed):
        sc = _scenario(seed=seed)
        sizes = np.full(10, 18.6e6)
        p = solve_lp(build_p2(sc, sizes))
        d = highs_solve(dual_of(build_p2(sc, sizes)))  # P3, solved by an independent solver
        assert p.status is LpStatus.OPTIMAL and d.status == 0
        scale = max(1.0, abs(p.objective_value))
        assert abs(p.objective_value - d.fun) / scale < 1e-8

    def test_dual_is_maximization(self):
        # P2 at I = J = 2: 8 columns and 8 rows, its bounds x <= 1 8 more rows
        sc = _scenario(num_tds=2, num_uavs=2, quota_uav=2)
        p2 = build_p2(sc, np.full(2, 1e6))
        p3 = dual_of(p2)
        assert p3.sense == "max" and p3.matrix.shape == (8, 16)
        np.testing.assert_array_equal(p3.relations, [LE] * 8)  # x >= 0: no free variable
        assert p3.rhs is p2.objective and p3.objective.shape == p3.upper.shape == (16,)
        # the two access rows' multipliers are free, the LE rows' nonnegative
        np.testing.assert_array_equal(p3.lower, [-np.inf] * 2 + [0.0] * 14)
        assert np.isinf(p3.upper).all()


class TestWorstCaseDistributions:
    def test_matches_single_set_calls(self):
        amb = AmbiguitySet(SPACE, np.broadcast_to(Distribution.uniform(5).as_array(), (4, 5)), 0.3)
        means = worst_case_means(amb)
        assert means.shape == (4,)
        np.testing.assert_allclose(means, 18.6e6, rtol=1e-12)


@st.composite
def _scenarios_with_sizes(draw):
    """A valid scenario of up to 8 TDs and 4 UAVs, with energy budgets and chip
    coefficients that bind or not, and any finite mean size per TD."""
    i, j = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    cfg = parse_config(
        {
            "scenario": {
                "num_tds": i,
                "num_uavs": j,
                "quota_uav": draw(st.integers(0, i)),
                "quota_hap": draw(st.integers(0, i)),
                "radio": {"ref_gain_uav_hap_db": draw(st.floats(-80.0, 0.0))},
                "energy": {
                    "uav_budget_j": draw(st.floats(1e-3, 1e7)),
                    "hap_budget_j": draw(st.floats(1e-3, 1e9)),
                    "uav_chip_coeff": draw(st.floats(0.0, 1e-26)),
                    "hap_chip_coeff": draw(st.floats(0.0, 1e-26)),
                    "uav_relay_power_w": draw(st.floats(1e-3, 1e3)),
                },
            }
        }
    )
    sizes = draw(st.lists(st.floats(-1e9, 1e9), min_size=i, max_size=i))
    return generate_scenario(cfg.scenario, draw(st.integers(0, 2**32 - 1))), np.array(sizes)


@settings(max_examples=200, deadline=None)
@given(_scenarios_with_sizes())
def test_build_p2_matches_its_earlier_formulas_bit_for_bit(instance):
    scenario, sizes = instance
    p2 = build_p2(scenario, sizes)
    for got, want in zip((p2.objective, p2.matrix, p2.rhs), build_p2_arrays(scenario, sizes)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
