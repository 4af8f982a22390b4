"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Criterion 5 is known to fail under the default parameter set: the relay
path is slower per bit than local UAV compute and the energy budgets
never bind, so every method reaches the identical decision and the mean
gaps are exactly zero rather than strictly positive. The check is kept
faithful instead of being weakened to a tie.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from dro_offload.ambiguity import (
    AmbiguitySet,
    Distribution,
    SampleSpace,
    reference_sets,
    tolerance_from_confidence,
)
from dro_offload.cli import main as cli_main
from dro_offload.config import default_config, parse_config
from dro_offload.errors import InfeasibleProblemError, SolverError
from dro_offload.evaluation import compare_methods, sweep
from dro_offload.geometry import generate_scenario, per_bit_coefficients
from dro_offload.lp import LpStatus, solve_lp
from dro_offload.mdrloa import exhaustive_solve, mdrloa_solve
from dro_offload.model import OffloadDecision, build_p2, worst_case_means
from helpers import confidence_from_tolerance, dual_of, highs_solve

SPACE5 = SampleSpace(atoms=(3e6, 9e6, 15e6, 21e6, 27e6))


def _uniform_set(num_tds: int) -> AmbiguitySet:
    return AmbiguitySet(SPACE5, np.full((num_tds, 5), 0.2), 0.3)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _scenario(seed=1, **overrides):
    cfg = default_config().scenario
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return generate_scenario(cfg, seed)


def _monotone_with_slack(means, direction: str, rel_slack: float = 0.02) -> bool:
    """Monotone trend allowing one adjacent-pair violation within rel_slack."""
    violations = 0
    for a, b in zip(means, means[1:]):
        diff = b - a if direction == "non-increasing" else a - b
        if diff > 1e-12:
            if diff / max(abs(a), 1e-300) > rel_slack:
                return False
            violations += 1
    return violations <= 1


def test_criterion_01_strong_duality():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(50):
        i = int(rng.integers(2, 7))
        j = int(rng.integers(2, 4))
        sc = _scenario(seed=1000 + k, num_tds=i, num_uavs=j, quota_uav=i)
        sizes = rng.uniform(3e6, 27e6, size=i)
        p = solve_lp(build_p2(sc, sizes))
        d = highs_solve(dual_of(build_p2(sc, sizes)))  # P3, solved by an independent solver
        assert p.status is LpStatus.OPTIMAL and d.status == 0
        gap = abs(p.objective_value - d.fun) / max(1.0, abs(p.objective_value))
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    _verdict(
        1,
        worst <= 1e-6 and elapsed <= 30,
        f"P2/P3 duality gap <= 1e-6 on 50 instances (worst {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_inner_maximization_exact():
    start = time.monotonic()
    atoms = np.array([3e6, 15e6, 27e6])
    space = SampleSpace(atoms=tuple(atoms.tolist()))
    step = 0.02
    # every grid point of the K=3 simplex with 0.02 spacing
    grid = []
    for a in range(51):
        for b in range(51 - a):
            grid.append((a * step, b * step, 1.0 - (a + b) * step))
    grid = np.array(grid)

    sc = _scenario(seed=7)
    coeffs = per_bit_coefficients(sc)
    rng = np.random.default_rng(202)
    worst_low, worst_high = 0.0, 0.0
    for eps in (0.1, 0.3):
        # Q=50 histories keep every reference on the 0.02 grid
        amb = reference_sets(
            Distribution.uniform(3), space, 50, [[500 + i, 9] for i in range(10)], eps, 10
        )
        wc_means = worst_case_means(amb)
        for _ in range(10):
            # random feasible decision under the quotas
            assign = rng.permutation(np.repeat(np.arange(3), 4))[:10]
            relay = rng.random(10) < 0.3
            while relay.sum() > sc.quota_hap:
                relay[int(np.argmax(relay))] = False
            x = np.zeros((10, 3), dtype=int)
            x[np.arange(10), assign] = 1
            z = x * relay[:, None]
            decision = OffloadDecision(y=x - z, z=z)
            decision.validate(sc)
            cost = (
                decision.x * coeffs.access_delay
                + decision.y * coeffs.uav_compute_delay
                + decision.z * coeffs.relay_path_delay
            ).sum(axis=1)

            deco_total, grid_total, bound = 0.0, 0.0, 0.0
            for i in range(10):
                in_ball = np.abs(grid - amb.references[i]).sum(axis=1) <= eps + 1e-12
                grid_mean = float((grid[in_ball] @ atoms).max())
                deco_total += cost[i] * wc_means[i]
                grid_total += cost[i] * grid_mean
                bound += cost[i] * (atoms[-1] - atoms[0]) * step
            diff = deco_total - grid_total
            worst_low = min(worst_low, diff)
            worst_high = max(worst_high, diff / bound)
            assert -1e-9 <= diff <= bound
    elapsed = time.monotonic() - start
    _verdict(
        2,
        elapsed <= 60,
        "decomposition matches simplex grid search within one-step Lipschitz bound "
        f"(max {worst_high:.2f}x bound, {elapsed:.1f}s)",
    )


def test_criterion_03_optimality_gap():
    start = time.monotonic()
    worst_ratio = 0.0
    for k in range(30):
        i = 2 + k % 3  # I in {2, 3, 4}
        sc = _scenario(seed=3000 + k, num_tds=i, num_uavs=2, quota_uav=i)
        amb = _uniform_set(i)
        means = worst_case_means(amb)
        dive = mdrloa_solve(sc, amb)
        opt = exhaustive_solve(sc, means)
        ratio = dive.worst_case_expected_latency / opt.worst_case_expected_latency
        worst_ratio = max(worst_ratio, ratio)
        assert dive.worst_case_expected_latency >= dive.relaxation_bound - 1e-6
        assert ratio <= 1.10
    elapsed = time.monotonic() - start
    _verdict(
        3,
        elapsed <= 60,
        f"dive within 1.10x of exhaustive on 30 instances (worst {worst_ratio:.4f}x, "
        f"{elapsed:.1f}s)",
    )


@pytest.fixture(scope="module")
def desk_scale_run():
    cfg = default_config()
    report = compare_methods(cfg)
    agg = report.aggregates()[("", None)]
    return agg


def test_criterion_04_method_orderings(desk_scale_run):
    start = time.monotonic()
    agg = desk_scale_run
    lat = {m: agg[m]["mean_latency_s"] for m in ("MDRLOA", "DO", "RO")}
    energy = {
        m: agg[m]["mean_max_uav_energy_J"] + agg[m]["mean_hap_energy_J"]
        for m in ("MDRLOA", "DO", "RO")
    }
    tol = 1e-9
    lat_ok = lat["RO"] <= lat["MDRLOA"] + tol and lat["MDRLOA"] <= lat["DO"] + tol
    en_ok = (
        energy["DO"] <= energy["MDRLOA"] + tol and energy["MDRLOA"] <= energy["RO"] + tol
    )
    elapsed = time.monotonic() - start
    _verdict(
        4,
        lat_ok and en_ok and elapsed <= 180,
        f"RO<=MDRLOA<=DO latency and DO<=MDRLOA<=RO energy over 20 seeds "
        f"(lat {lat['RO']:.0f}/{lat['MDRLOA']:.0f}/{lat['DO']:.0f}s)",
    )


def test_criterion_05_headline_gaps_strictly_positive(desk_scale_run):
    agg = desk_scale_run
    lat_gap = agg["DO"]["mean_latency_s"] - agg["MDRLOA"]["mean_latency_s"]
    en_ro = agg["RO"]["mean_max_uav_energy_J"] + agg["RO"]["mean_hap_energy_J"]
    en_main = agg["MDRLOA"]["mean_max_uav_energy_J"] + agg["MDRLOA"]["mean_hap_energy_J"]
    en_gap = en_ro - en_main
    lat_pct = 100.0 * lat_gap / agg["DO"]["mean_latency_s"]
    en_pct = 100.0 * en_gap / en_ro if en_ro > 0 else 0.0
    _verdict(
        5,
        lat_gap > 0 and en_gap > 0,
        f"MDRLOA mean gaps vs DO/RO strictly positive (latency {lat_pct:+.2f}%, "
        f"energy {en_pct:+.2f}%)",
    )


def test_criterion_06_history_and_radius_trends():
    start = time.monotonic()
    base = default_config()
    cfg = dataclasses.replace(
        base,
        ambiguity=dataclasses.replace(base.ambiguity, epsilon=None, confidence=0.95),
        experiment=dataclasses.replace(base.experiment, methods=("dro",)),
    )
    q_values = [50, 100, 200, 400]
    report = sweep(cfg, "Q", q_values)
    agg = report.aggregates()
    q_means = [agg[("Q", float(q))]["MDRLOA"]["mean_latency_s"] for q in q_values]
    q_ok = _monotone_with_slack(q_means, "non-increasing")

    cfg_eps = dataclasses.replace(
        base, experiment=dataclasses.replace(base.experiment, methods=("dro",))
    )
    eps_values = [0.1, 0.3, 0.5]
    agg = sweep(cfg_eps, "eps", eps_values).aggregates()
    e_means = [agg[("eps", v)]["MDRLOA"]["mean_latency_s"] for v in eps_values]
    e_ok = _monotone_with_slack(e_means, "non-decreasing")
    elapsed = time.monotonic() - start
    _verdict(
        6,
        q_ok and e_ok and elapsed <= 300,
        f"latency non-increasing in Q {['%.0f' % m for m in q_means]} and "
        f"non-decreasing in eps {['%.0f' % m for m in e_means]} ({elapsed:.1f}s)",
    )


def test_criterion_07_quota_trends():
    start = time.monotonic()
    base = default_config()
    cfg = dataclasses.replace(
        base, experiment=dataclasses.replace(base.experiment, methods=("dro",))
    )
    hap_values = [2, 4, 6]
    agg = sweep(cfg, "quota-hap", hap_values).aggregates()
    h_means = [agg[("quota-hap", float(v))]["MDRLOA"]["mean_latency_s"] for v in hap_values]
    h_ok = _monotone_with_slack(h_means, "non-increasing")

    # N_u = 3 with ten TDs and three UAVs cannot host everyone (3*3 < 10),
    # so the access-quota trend is measured at eight TDs
    cfg8 = dataclasses.replace(
        cfg, scenario=dataclasses.replace(cfg.scenario, num_tds=8)
    )
    uav_values = [3, 4, 5]
    agg = sweep(cfg8, "quota-uav", uav_values).aggregates()
    u_means = [agg[("quota-uav", float(v))]["MDRLOA"]["mean_latency_s"] for v in uav_values]
    u_ok = _monotone_with_slack(u_means, "non-increasing")
    elapsed = time.monotonic() - start
    _verdict(
        7,
        h_ok and u_ok and elapsed <= 300,
        f"latency non-increasing in N_H {['%.0f' % m for m in h_means]} and in "
        f"N_u {['%.0f' % m for m in u_means]} ({elapsed:.1f}s)",
    )


def test_criterion_08_radius_spot_values():
    a = tolerance_from_confidence(5, 200, 0.9)
    b = tolerance_from_confidence(5, 200, 0.95)
    spot_ok = abs(a - 0.05756) <= 1e-5 and abs(b - 0.06623) <= 1e-5
    rt_ok = all(
        abs(tolerance_from_confidence(5, 200, confidence_from_tolerance(5, 200, eps)) - eps)
        <= 1e-12
        for eps in (a, b)
    )
    _verdict(8, spot_ok and rt_ok, f"radius spot values {a:.5f}/{b:.5f} and 1e-12 round trip")


def test_criterion_09_lp_certification_fuzz():
    from test_lp import _random_lp

    rng = np.random.default_rng(909)
    false_statuses = 0
    certified = 0
    for _ in range(200):
        lp = _random_lp(rng, force_feasible=True)
        try:
            sol = solve_lp(lp)
        except SolverError:  # an optimum that fails its certificate
            false_statuses += 1
            continue
        # built around a known feasible point: Infeasible is always wrong
        if sol.status is LpStatus.INFEASIBLE:
            false_statuses += 1
            continue
        ref = highs_solve(lp)
        if ref.status == 0 and sol.status is not LpStatus.OPTIMAL:
            false_statuses += 1
        if sol.status is LpStatus.OPTIMAL:
            assert sol.certificate is not None
            if sol.certificate.ok():
                certified += 1
            else:
                false_statuses += 1
    _verdict(
        9,
        false_statuses == 0,
        f"200 fuzz LPs: zero false statuses, {certified} optimal solves certified",
    )


def test_criterion_10_byte_identical_sweeps(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"experiment": {"seeds": [1, 2, 3], "methods": ["dro", "do", "ro"]}}),
        encoding="utf-8",
    )
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            ["sweep", "--config", str(cfg_path), "--param", "eps",
             "--values", "0.1", "0.3", "--out", str(out)]
        )
        assert code == 0
        blobs.append((out / "results.csv").read_bytes())
    _verdict(10, blobs[0] == blobs[1], "consecutive sweep runs produce byte-identical CSVs")


def test_infeasible_rows_do_not_abort_runs():
    # supporting check for the row-level failure contract used above
    cfg = parse_config(
        {
            "scenario": {"num_tds": 3, "num_uavs": 1, "quota_uav": 2},
            "experiment": {"seeds": [1]},
        }
    )
    report = compare_methods(cfg)
    assert len(report.rows) == 3
    assert not any(r.feasible for r in report.rows)
    with pytest.raises(InfeasibleProblemError):
        mdrloa_solve(generate_scenario(cfg.scenario, 1), _uniform_set(3))
