import numpy as np
import pytest

from dro_offload.errors import ConfigError
from dro_offload.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    LpStatus,
    check_solution,
    dual_of,
    solve_lp,
)

scipy_opt = pytest.importorskip("scipy.optimize")


def _scipy_solve(lp: LinearProgram):
    c = lp.objective if lp.sense == "min" else -lp.objective
    a = lp.row_matrix()
    rhs = lp.rhs_vector()
    rels = lp.relations
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for r, rel in enumerate(rels):
        if rel == LE:
            a_ub.append(a[r])
            b_ub.append(rhs[r])
        elif rel == GE:
            a_ub.append(-a[r])
            b_ub.append(-rhs[r])
        else:
            a_eq.append(a[r])
            b_eq.append(rhs[r])
    bounds = [
        (lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
        for lo, hi in zip(lp.lower, lp.upper)
    ]
    res = scipy_opt.linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    return res


class TestKnownSolutions:
    def test_two_var_max(self):
        # max 3x + 2y st x + y <= 4, x <= 2 -> x=2, y=2, obj 10
        lp = LinearProgram([3.0, 2.0], sense="max", lower=[0, 0])
        lp.add_constraint([1, 1], LE, 4)
        lp.add_constraint([1, 0], LE, 2)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(10.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)
        assert sol.certificate.ok()

    def test_equality_and_ge(self):
        # min x + 2y st x + y = 3, x >= 1 -> x=3? no: y free to 0 => x=3,obj 3
        lp = LinearProgram([1.0, 2.0], sense="min", lower=[0, 0])
        lp.add_constraint([1, 1], EQ, 3)
        lp.add_constraint([1, 0], GE, 1)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variable(self):
        # min x st x >= -5 with x free below: use lower=-inf, constraint x >= -5
        lp = LinearProgram([1.0], sense="min", lower=[-np.inf])
        lp.add_constraint([1.0], GE, -5.0)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram([1.0], sense="min", lower=[0])
        lp.add_constraint([1.0], LE, -1.0)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram([-1.0], sense="min", lower=[0])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        lp = LinearProgram([-1.0, -1.0], sense="min", lower=[0, 0], upper=[0.5, 0.25])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(-0.75, abs=1e-9)

    def test_bad_relation_rejected(self):
        lp = LinearProgram([1.0])
        with pytest.raises(ConfigError):
            lp.add_constraint([1.0], "<", 1.0)


class TestDualConvention:
    def test_le_duals_nonnegative_and_tight(self):
        lp = LinearProgram([3.0, 2.0], sense="max", lower=[0, 0])
        lp.add_constraint([1, 1], LE, 4)
        lp.add_constraint([1, 0], LE, 2)
        sol = solve_lp(lp)
        assert (sol.duals >= -1e-9).all()
        # shadow prices: relaxing row 0 by 1 gains 2, row 1 gains 1
        assert sol.duals[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.duals[1] == pytest.approx(1.0, abs=1e-9)

    def test_inactive_constraint_zero_dual(self):
        lp = LinearProgram([1.0], sense="min", lower=[0])
        lp.add_constraint([1.0], LE, 100.0)
        lp.add_constraint([1.0], GE, 2.0)
        sol = solve_lp(lp)
        assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)


def _random_lp(rng, force_feasible=True, force_min=False):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    sense = "min" if force_min or rng.random() < 0.5 else "max"
    c = rng.normal(size=n)
    lower = np.where(rng.random(n) < 0.8, 0.0, -np.inf)
    upper = np.where(rng.random(n) < 0.6, rng.uniform(0.5, 5.0, n), np.inf)
    lp = LinearProgram(c, sense=sense, lower=lower, upper=upper)
    # build rows around a known interior point so feasibility is guaranteed
    x0 = np.empty(n)
    for k in range(n):
        if np.isfinite(lower[k]) and np.isfinite(upper[k]):
            x0[k] = (lower[k] + upper[k]) / 2.0
        elif np.isfinite(lower[k]):
            x0[k] = lower[k] + abs(rng.normal())
        elif np.isfinite(upper[k]):
            x0[k] = upper[k] - abs(rng.normal())
        else:
            x0[k] = rng.normal()
    for _ in range(m):
        a = rng.normal(size=n)
        v = float(a @ x0)
        kind = rng.random()
        if not force_feasible:
            v += rng.normal()
        if kind < 0.4:
            lp.add_constraint(a, LE, v + abs(rng.normal()))
        elif kind < 0.8:
            lp.add_constraint(a, GE, v - abs(rng.normal()))
        else:
            lp.add_constraint(a, EQ, v)
    return lp


class TestFuzzAgainstScipy:
    def test_feasible_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            lp = _random_lp(rng)
            sol = solve_lp(lp)
            ref = _scipy_solve(lp)
            if ref.status == 0:
                assert sol.status is LpStatus.OPTIMAL
                ref_obj = ref.fun if lp.sense == "min" else -ref.fun
                scale = max(1.0, abs(ref_obj))
                assert abs(sol.objective_value - ref_obj) / scale < 1e-7
                assert sol.certificate.ok()
            elif ref.status == 3:
                assert sol.status is LpStatus.UNBOUNDED
            elif ref.status == 2:
                assert sol.status is LpStatus.INFEASIBLE

    def test_arbitrary_instances(self):
        rng = np.random.default_rng(777)
        for _ in range(80):
            lp = _random_lp(rng, force_feasible=False)
            sol = solve_lp(lp)
            ref = _scipy_solve(lp)
            status_map = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
            if ref.status in status_map:
                assert sol.status is status_map[ref.status]


class TestCertification:
    def test_corrupted_solution_flagged(self):
        lp = LinearProgram([1.0, 1.0], sense="min", lower=[0, 0])
        lp.add_constraint([1, 1], GE, 2)
        sol = solve_lp(lp)
        import dataclasses

        bad = dataclasses.replace(sol, x=sol.x + 1.0)
        report = check_solution(lp, bad)
        assert not report.ok()

    def test_report_fields_finite(self):
        lp = LinearProgram([1.0, 2.0], sense="min", lower=[0, 0])
        lp.add_constraint([1, 1], GE, 1)
        sol = solve_lp(lp)
        r = sol.certificate
        for v in (
            r.max_primal_residual,
            r.max_dual_residual,
            r.max_complementarity,
            r.duality_gap_rel,
        ):
            assert np.isfinite(v) and v >= 0


class TestDualOf:
    def test_strong_duality_random(self):
        rng = np.random.default_rng(55)
        done = 0
        while done < 40:
            lp = _random_lp(rng, force_min=True)
            primal = solve_lp(lp)
            if primal.status is not LpStatus.OPTIMAL:
                continue
            dual = solve_lp(dual_of(lp))
            assert dual.status is LpStatus.OPTIMAL
            scale = max(1.0, abs(primal.objective_value))
            assert abs(primal.objective_value - dual.objective_value) / scale < 1e-7
            done += 1

    def test_unbounded_primal_infeasible_dual(self):
        lp = LinearProgram([-1.0], sense="min", lower=[0])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED
        assert solve_lp(dual_of(lp)).status is LpStatus.INFEASIBLE
