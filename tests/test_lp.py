import collections
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dro_offload import evaluation, mdrloa
from dro_offload import lp as lp_module
from dro_offload.config import default_config, load_config, parse_config
from dro_offload.errors import ConfigError, ShapeError, SolverError
from dro_offload.evaluation import build_ambiguity_sets
from dro_offload.geometry import generate_scenario
from dro_offload.lp import (
    _BOUND_TOL,
    EQ,
    GE,
    LE,
    Basis,
    LinearProgram,
    LpStatus,
    check_solution,
    solve_lp,
)
from dro_offload.model import build_p2, worst_case_distributions
from helpers import (
    INFEASIBLE_CHILD_REPORTED_OPTIMAL,
    dual_of,
    dual_simplex_per_call,
    lp_from_rows,
    pivot_with_outer,
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
        lp = lp_from_rows([3.0, 2.0], [([1, 1], LE, 4), ([1, 0], LE, 2)], sense="max")
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(10.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)
        assert sol.certificate.ok()

    def test_equality_and_ge(self):
        # min x + 2y st x + y = 3, x >= 1 -> x=3? no: y free to 0 => x=3,obj 3
        lp = lp_from_rows([1.0, 2.0], [([1, 1], EQ, 3), ([1, 0], GE, 1)])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variable(self):
        # min x st x >= -5 with x free below: use lower=-inf, constraint x >= -5
        lp = lp_from_rows([1.0], [([1.0], GE, -5.0)], lower=[-np.inf])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        lp = lp_from_rows([1.0], [([1.0], LE, -1.0)])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_infeasible_beside_a_large_rhs(self):
        # x = 1 and x <= 0.99 leave a row 0.01 short; a row with rhs 1e6 must
        # not scale the infeasibility threshold past that
        lp = lp_from_rows(
            [1.0, 0.0], [([1.0, 0.0], EQ, 1.0), ([1.0, 0.0], LE, 0.99), ([1.0, 1.0], LE, 1e6)]
        )
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_every_variable_fixed_and_no_rows(self):
        sol = solve_lp(LinearProgram([2.0], lower=[1.5], upper=[1.5]))
        assert sol.status is LpStatus.OPTIMAL and sol.objective_value == 3.0
        assert sol.certificate.ok()

    def test_unbounded(self):
        lp = LinearProgram([-1.0], sense="min", lower=[0])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_upper_bounds_respected(self):
        lp = LinearProgram([-1.0, -1.0], sense="min", lower=[0, 0], upper=[0.5, 0.25])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(-0.75, abs=1e-9)

    def test_bad_relation_rejected(self):
        with pytest.raises(ConfigError, match="'<'"):
            LinearProgram([1.0], [[1.0]], ["<"], [1.0])

    def test_constraint_block_is_its_rows(self):
        rows = lp_from_rows([1.0, 2.0], [([1.0, 0.0], LE, 3.0), ([0.0, 1.0], LE, 3.0)])
        block = LinearProgram([1.0, 2.0], np.eye(2), [LE, LE], [3.0, 3.0])
        assert block.relations.tolist() == rows.relations.tolist() == [LE, LE]
        np.testing.assert_array_equal(block.row_matrix(), rows.row_matrix())
        np.testing.assert_array_equal(block.rhs_vector(), rows.rhs_vector())
        assert block.row_matrix() is block.matrix and block.num_constraints == 2
        with pytest.raises(ShapeError):
            LinearProgram([1.0, 2.0], np.ones(2), [LE], [1.0])


class TestConstruction:
    @pytest.mark.parametrize(
        "matrix, relations, rhs",
        [
            (np.ones((1, 3)), [LE], [1.0]),  # three coefficients for two variables
            (np.eye(2), [LE], [3.0, 3.0]),  # one relation for two rows
            (np.eye(2), [LE, LE], [3.0]),  # one rhs for two rows
            (np.eye(2), [LE, LE], 3.0),  # a scalar rhs is not broadcast
        ],
    )
    def test_mismatched_shapes_rejected(self, matrix, relations, rhs):
        with pytest.raises(ShapeError):
            LinearProgram([1.0, 2.0], matrix, relations, rhs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"objective": [[1.0, 2.0]]}, {"lower": [0.0]}, {"upper": [1.0, 1.0, 1.0]}],
    )
    def test_objective_and_bounds_are_vectors_of_one_length(self, kwargs):
        with pytest.raises(ShapeError):
            LinearProgram(**{"objective": [1.0, 2.0], **kwargs})

    @pytest.mark.parametrize(
        "objective, matrix, rhs",
        [
            ([np.nan, 1.0], np.eye(2), [1.0, 1.0]),
            ([1.0, 1.0], [[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([1.0, 1.0], np.eye(2), [1.0, -np.inf]),
        ],
    )
    def test_non_finite_data_rejected(self, objective, matrix, rhs):
        with pytest.raises(ConfigError):
            LinearProgram(objective, matrix, [LE, GE], rhs)

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([np.nan, 0.0], [1.0, 1.0]),  # read as no bound: min x was unbounded
            ([0.0, 0.0], [np.nan, 1.0]),  # read as no bound: silently ignored
            ([np.inf, 0.0], [np.inf, 1.0]),  # read as a free variable
            ([-np.inf, 0.0], [-np.inf, 1.0]),  # read as a free variable
        ],
    )
    def test_nan_and_wrong_infinite_bounds_rejected(self, lower, upper):
        with pytest.raises(ConfigError, match="lower bounds must be numbers below"):
            LinearProgram([1.0, 1.0], lower=lower, upper=upper)
        with pytest.raises(ConfigError, match="lower bounds must be numbers below"):
            LinearProgram([1.0, 1.0]).with_bounds(lower, upper)

    def test_empty_bound_interval_rejected(self):
        message = r"variable 1 has empty bound interval \[2.0, 1.0\]"
        with pytest.raises(ConfigError, match=message):
            LinearProgram([1.0, 1.0], lower=[0.0, 2.0], upper=[1.0, 1.0])
        with pytest.raises(ConfigError, match=message):
            LinearProgram([1.0, 1.0]).with_bounds([0.0, 2.0], [1.0, 1.0])
        with pytest.raises(ShapeError):
            LinearProgram([1.0, 1.0]).with_bounds([0.0], [1.0])

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"objective": None}, ShapeError, "objective must be a vector of numbers, got None"),
            ({"objective": ["a"]}, ConfigError, "objective must be an array of numbers"),
            ({"objective": [[1.0, 2.0], [1.0]]}, ConfigError, "objective must be an array of"),
            ({"objective": [1.0], "matrix": [["x"]], "relations": [LE], "rhs": [1.0]},
             ConfigError, "matrix must be an array of numbers"),
            ({"objective": [1.0], "lower": [object()]}, ConfigError, "lower must be an array of"),
        ],
    )
    def test_objective_none_or_not_numbers_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            LinearProgram(**kwargs)

    def test_bad_sense_rejected(self):
        with pytest.raises(ConfigError):
            LinearProgram([1.0], sense="maximize")

    def test_defaults_no_rows_and_nonnegative_variables(self):
        lp = LinearProgram([1.0, 2.0])
        assert (lp.num_vars, lp.num_constraints) == (2, 0)
        assert lp.row_matrix().shape == (0, 2) and lp.rhs_vector().shape == (0,)
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        np.testing.assert_array_equal(lp.upper, [np.inf, np.inf])

    def test_immutable(self):
        coeffs = np.eye(2)
        lp = LinearProgram([1.0, 2.0], coeffs, [LE, GE], [3.0, 1.0], upper=[5.0, 5.0])
        coeffs[0, 0] = 7.0  # the program keeps its own copy
        assert lp.matrix[0, 0] == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.upper = np.ones(2)
        for name in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            array = getattr(lp, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]

    def test_replace_shares_what_it_does_not_change(self):
        lp = LinearProgram([1.0, 2.0], np.eye(2), [LE, GE], [3.0, 1.0])
        child = dataclasses.replace(lp, lower=[1.0, 0.0], upper=[1.0, np.inf])
        assert child.matrix is lp.matrix and child.relations is lp.relations
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        assert solve_lp(child).objective_value == pytest.approx(3.0, abs=1e-12)

    def test_with_bounds_shares_the_program_and_its_standard_form(self):
        lp = LinearProgram([1.0, 2.0], np.eye(2), [LE, GE], [3.0, 1.0], upper=[4.0, 4.0])
        child = lp.with_bounds([1.0, 0.0], [1.0, 2.0])
        for name in ("objective", "matrix", "relations", "rhs", "sense"):
            assert getattr(child, name) is getattr(lp, name)
        assert child._form is lp._form is not None
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        np.testing.assert_array_equal(lp.upper, [4.0, 4.0])
        with pytest.raises(ValueError, match="read-only"):
            child.lower[0] = 0.0
        assert solve_lp(child).objective_value == pytest.approx(3.0, abs=1e-12)
        # x1 loses its upper bound: another column layout's ub, so its own form
        free = lp.with_bounds([1.0, 0.0], [1.0, np.inf])
        assert free._form is None
        assert free._standard_form() is not lp._form
        assert solve_lp(free).objective_value == pytest.approx(3.0, abs=1e-12)


class TestDualConvention:
    def test_le_duals_nonnegative_and_tight(self):
        lp = lp_from_rows([3.0, 2.0], [([1, 1], LE, 4), ([1, 0], LE, 2)], sense="max")
        sol = solve_lp(lp)
        assert (sol.duals >= -1e-9).all()
        # shadow prices: relaxing row 0 by 1 gains 2, row 1 gains 1
        assert sol.duals[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.duals[1] == pytest.approx(1.0, abs=1e-9)

    def test_inactive_constraint_zero_dual(self):
        lp = lp_from_rows([1.0], [([1.0], LE, 100.0), ([1.0], GE, 2.0)])
        sol = solve_lp(lp)
        assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)


def _random_lp(rng, force_feasible=True, force_min=False):
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    sense = "min" if force_min or rng.random() < 0.5 else "max"
    c = rng.normal(size=n)
    lower = np.where(rng.random(n) < 0.8, 0.0, -np.inf)
    upper = np.where(rng.random(n) < 0.6, rng.uniform(0.5, 5.0, n), np.inf)
    rows = []
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
            rows.append((a, LE, v + abs(rng.normal())))
        elif kind < 0.8:
            rows.append((a, GE, v - abs(rng.normal())))
        else:
            rows.append((a, EQ, v))
    return lp_from_rows(c, rows, sense=sense, lower=lower, upper=upper)


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


def _bounded_lp(rng):
    """Random LP mixing fixed, shifted-box, (-inf, hi], free and [0, inf) variables."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 8))
    # fixed, shifted box, (-inf, hi], free, [0, inf)
    kind = rng.choice(5, size=n, p=[0.2, 0.35, 0.15, 0.1, 0.2])
    base = rng.uniform(-3.0, 3.0, n)
    width = rng.uniform(0.5, 4.0, n)
    lower = np.select([kind <= 1, kind == 4], [base, 0.0], -np.inf)
    upper = np.select([kind == 0, kind == 1, kind == 2], [base, base + width, base], np.inf)
    x0 = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 4],
        [base, base + width / 2.0, base - width / 2.0, width / 2.0],
        rng.normal(size=n),
    )
    c = rng.normal(size=n)
    sense = str(rng.choice(["min", "max"]))
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        v = float(a @ x0)
        rel = rng.choice([LE, GE, EQ], p=[0.45, 0.45, 0.1])
        rows.append((a, rel, v + {LE: 1.0, GE: -1.0, EQ: 0.0}[rel] * abs(rng.normal())))
    return lp_from_rows(c, rows, sense=sense, lower=lower, upper=upper)


class TestBoundedVariables:
    def test_fuzz_against_highs(self):
        rng = np.random.default_rng(4242)
        optimal = at_upper = 0
        for _ in range(150):
            lp = _bounded_lp(rng)
            sol = solve_lp(lp)
            ref = _scipy_solve(lp)
            status_map = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
            assert sol.status is status_map[ref.status]
            if ref.status != 0:
                continue
            ref_obj = ref.fun if lp.sense == "min" else -ref.fun
            assert abs(sol.objective_value - ref_obj) / max(1.0, abs(ref_obj)) < 1e-7
            assert sol.certificate.ok()
            fixed = lp.lower == lp.upper
            np.testing.assert_array_equal(sol.x[fixed], lp.lower[fixed])
            optimal += 1
            boxed = np.isfinite(lp.upper) & (lp.lower < lp.upper)
            at_upper += int((boxed & (np.abs(sol.x - lp.upper) < 1e-9)).any())
        # the instances exercise the bound flips, not only the interior
        assert optimal >= 100 and at_upper >= 50

    def test_all_variables_fixed(self):
        rows = [([1.0, 1.0], LE, 1.0), ([1.0, -1.0], EQ, 2.5)]
        bounds = {"lower": [1.5, -1.0], "upper": [1.5, -1.0]}
        sol = solve_lp(lp_from_rows([1.0, -2.0], rows, **bounds))
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_array_equal(sol.x, [1.5, -1.0])
        assert sol.objective_value == pytest.approx(3.5, abs=1e-12)
        assert sol.certificate.ok()
        lp = lp_from_rows([1.0, -2.0], [*rows, ([1.0, 0.0], GE, 2.0)], **bounds)
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_p2_with_dive_fixings_at_30x5(self):
        cfg = dataclasses.replace(default_config().scenario, num_tds=30, num_uavs=5, quota_uav=8)
        scenario = generate_scenario(cfg, 1)
        p2 = build_p2(scenario, np.linspace(3e6, 27e6, 30))
        ij = 30 * 5
        # TDs 0-11 access UAV 2i mod 5: y and z of their other links pinned at 0
        others = [i * 5 + k for i in range(12) for k in range(5) if k != (2 * i) % 5]
        fixings = dict.fromkeys(others + [ij + c for c in others], 0.0)
        # TDs 12-19 do not access UAV i mod 5
        fixings.update({c: 0.0 for i in range(12, 20) for c in (i * 5 + i % 5, ij + i * 5 + i % 5)})
        fixings.update({i * 5 + (2 * i) % 5: 0.0 for i in range(3)})  # TDs 0-2 relay
        fixings.update({i * 5 + (2 * i) % 5: 1.0 for i in range(3, 8)})  # TDs 3-7 compute
        lower, upper = p2.lower.copy(), p2.upper.copy()
        for col, value in fixings.items():
            lower[col] = upper[col] = value
        lp = dataclasses.replace(p2, lower=lower, upper=upper)
        sol = solve_lp(lp)
        ref = _scipy_solve(lp)
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert abs(sol.objective_value - ref.fun) / abs(ref.fun) < 1e-9
        assert sol.certificate.ok()


def _binding_p2(seed, sizes=(3e6, 27e6)):
    binding = {"radio": {"ref_gain_uav_hap_db": -10}, "energy": {"uav_budget_j": 25}}
    scenario = generate_scenario(parse_config({"scenario": binding}).scenario, seed)
    return build_p2(scenario, np.linspace(*sizes, scenario.num_tds))


def _assert_matches_highs(lp, sol):
    ref = _scipy_solve(lp)
    assert sol.status is LpStatus.OPTIMAL and ref.status == 0
    assert abs(sol.objective_value - ref.fun) / max(1.0, abs(ref.fun)) < 1e-9
    assert sol.certificate.ok()


class TestPhaseTwo:
    def test_a_stopped_phase_two_is_finished_from_the_certified_basis(self, monkeypatch):
        calls = []
        run = lp_module._run_simplex

        def stop_first_phase_two(*args):
            calls.append(args)
            if len(calls) != 1:
                return run(*args)
            try:
                return run(*args[:-1], 2)  # max_iter 2: stops after three pivots
            except SolverError:
                return "optimal"

        monkeypatch.setattr(lp_module, "_run_simplex", stop_first_phase_two)
        # P2's negated latency over unboxed columns: the start prices every column at 0,
        # so phase 2 has pivots left to make
        lp = _binding_p2(1)
        lp = dataclasses.replace(lp, objective=-lp.objective, upper=np.full(lp.num_vars, np.inf))
        sol = solve_lp(lp)
        assert len(calls) == 2  # the stopped phase 2, the retry
        _assert_matches_highs(lp, sol)

    def test_a_row_folded_to_zero_keeps_its_artificial(self):
        # every access column of TD 0 fixed: its access row reads 0 = 0, and
        # the row's artificial stays basic at its bound 0 throughout
        lp = _binding_p2(2)
        lower, upper = lp.lower.copy(), lp.upper.copy()
        lower[:3] = upper[:3] = [0.0, 1.0, 0.0]
        lp = dataclasses.replace(lp, lower=lower, upper=upper)
        sol = solve_lp(lp)
        _assert_matches_highs(lp, sol)
        assert sol.duals[0] == 0.0


def _with_bounds(lp, cols, lower, upper):
    lo, hi = lp.lower.copy(), lp.upper.copy()
    lo[cols], hi[cols] = lower, upper
    return lp.with_bounds(lo, hi)


def _counted(monkeypatch, calls, module, name):
    """Count the calls to `module.name` in `calls[name]`."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _solution_bytes(sol):
    if sol.status is not LpStatus.OPTIMAL:
        return [sol.status]
    arrays = (sol.x, sol.duals, sol.reduced_costs, sol.basis.basic, sol.basis.at_upper)
    return [sol.status, repr(sol.objective_value), *(np.asarray(a).tobytes() for a in arrays)]


def _assert_status_and_objective_match_highs(lp, sol):
    ref = _scipy_solve(lp)
    assert sol.status is {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}[ref.status]
    if sol.status is LpStatus.OPTIMAL:
        ref_obj = ref.fun if lp.sense == "min" else -ref.fun
        assert abs(sol.objective_value - ref_obj) / max(1.0, abs(ref_obj)) < 1e-9
        assert sol.certificate.ok()


class TestWarmStart:
    def test_tightened_bound_against_highs(self):
        rng = np.random.default_rng(2024)  # the LPs of TestFuzzAgainstScipy
        tighten = np.random.default_rng(1)
        statuses = []
        for _ in range(120):
            lp = _random_lp(rng)
            parent = solve_lp(lp)
            boxed = np.flatnonzero(np.isfinite(lp.lower) & np.isfinite(lp.upper))
            if parent.status is not LpStatus.OPTIMAL or not boxed.size:
                continue
            j = int(tighten.choice(boxed))
            lo, hi = np.sort(tighten.uniform(lp.lower[j], lp.upper[j], 2))
            if tighten.random() < 0.5:  # fix the variable at a value inside its box
                lo = hi
            child = _with_bounds(lp, j, lo, hi)
            warm, cold, ref = solve_lp(child, start=parent.basis), solve_lp(child), _scipy_solve(child)
            status = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}[ref.status]
            assert warm.status is cold.status is status
            statuses.append(status)
            if status is LpStatus.OPTIMAL:
                ref_obj = ref.fun if lp.sense == "min" else -ref.fun
                for sol in (warm, cold):
                    assert abs(sol.objective_value - ref_obj) / max(1.0, abs(ref_obj)) < 1e-9
                assert warm.certificate.ok()
        assert statuses.count(LpStatus.OPTIMAL) >= 50 and LpStatus.INFEASIBLE in statuses

    def test_pinned_infeasible_child_from_its_parents_basis(self):
        cfg, seed = INFEASIBLE_CHILD_REPORTED_OPTIMAL
        scenario = generate_scenario(cfg.scenario, seed)
        p2 = build_p2(scenario, worst_case_distributions(build_ambiguity_sets(cfg, seed))[1])
        parent = solve_lp(_with_bounds(p2, [2, 4], 0.0, 0.0))
        assert parent.status is LpStatus.OPTIMAL
        child = _with_bounds(p2, [0, 2, 4], 0.0, 0.0)
        assert solve_lp(child, start=parent.basis).status is LpStatus.INFEASIBLE
        assert _scipy_solve(child).status == 2

    def test_across_a_row_whose_rhs_changes_sign(self):
        # the child's fixing turns row 0 to x0 >= 0 with rhs 0 - 1 < 0
        lp = lp_from_rows([1.0, 2.0], [([1.0, 0.0], GE, 0.0), ([1.0, 1.0], EQ, 1.0)])
        parent = solve_lp(_with_bounds(lp, [0, 1], [0.0, 1.0], [0.0, 1.0]))
        child = solve_lp(_with_bounds(lp, [0, 1], [1.0, 0.0], [1.0, 0.0]), start=parent.basis)
        assert child.status is LpStatus.OPTIMAL and child.certificate.ok()
        np.testing.assert_array_equal(child.x, [1.0, 0.0])

    def test_start_at_an_infinite_upper_bound_rejected(self):
        # columns: x in [0, 2], y in [0, inf), the row's slack
        lp = lp_from_rows([1.0, -1.0], [([1.0, 1.0], LE, 3.0)], upper=[2.0, np.inf])
        assert solve_lp(lp, start=Basis(np.array([2]), np.array([0]))).objective_value == -3.0
        with pytest.raises(ConfigError, match="column 1 at an infinite upper bound"):
            solve_lp(lp, start=Basis(np.array([2]), np.array([1])))

    def test_start_that_does_not_fit_rejected(self):
        # columns: x in [0, 2], y in [0, 1], the row's slack
        lp = lp_from_rows([1.0, -1.0], [([1.0, 1.0], LE, 3.0)], upper=[2.0, 1.0])
        for basic, at_upper in (([2, 0], []), ([3], []), ([2], [2]), ([2], [0, 0]), ([-1], [])):
            start = Basis(np.array(basic), np.array(at_upper, dtype=int))
            with pytest.raises(ConfigError, match="does not fit"):
                solve_lp(lp, start=start)

    def test_cold_start_is_the_slack_basis_loaded_like_any_start(self):
        rng = np.random.default_rng(2024)
        scenarios = [
            generate_scenario(dataclasses.replace(default_config().scenario, **size), 1)
            for size in ({}, {"num_tds": 30, "num_uavs": 5, "quota_uav": 8})
        ]
        p2s = [build_p2(s, np.linspace(3e6, 27e6, s.num_tds)) for s in scenarios]
        for lp in [*(_random_lp(rng) for _ in range(60)), *p2s]:
            slack = Basis(lp._standard_form().basis, [])
            cold, loaded = solve_lp(lp), solve_lp(lp, start=slack)
            assert cold.status is loaded.status
            if cold.status is LpStatus.OPTIMAL:
                for name in ("x", "duals", "reduced_costs"):
                    assert getattr(cold, name).tobytes() == getattr(loaded, name).tobytes()
                np.testing.assert_array_equal(cold.basis.basic, loaded.basis.basic)
                np.testing.assert_array_equal(cold.basis.at_upper, loaded.basis.at_upper)

    def test_warm_child_inverts_once_and_solves_nothing(self, monkeypatch):
        calls = {"inv": 0, "solve": 0, "_run_simplex": 0}
        lp = _binding_p2(1)
        parent = solve_lp(lp)
        ij = lp.num_vars // 2
        link = int(np.argmax(parent.x)) % ij  # a link the parent uses, closed: y = z = 0
        child = _with_bounds(lp, [link, link + ij], 0.0, 0.0)
        _counted(monkeypatch, calls, np.linalg, "inv")
        _counted(monkeypatch, calls, np.linalg, "solve")
        _counted(monkeypatch, calls, lp_module, "_run_simplex")
        sol = solve_lp(child, start=parent.basis)
        _assert_matches_highs(child, sol)
        # inv: the certify step alone; the start loads through the parent's inverse
        assert calls == {"inv": 1, "solve": 0, "_run_simplex": 1}

    def test_a_start_from_another_program_is_inverted(self, monkeypatch):
        lp = _binding_p2(1)
        parent = solve_lp(lp)
        for ids in (parent.basis.basic, parent.basis.at_upper):
            assert not ids.flags.writeable  # the carried inverse stays that of these ids
        ij = lp.num_vars // 2
        link = int(np.argmax(parent.x)) % ij
        other_means = _binding_p2(1, sizes=(27e6, 3e6))
        matrix = lp.matrix.copy()
        matrix[-1] *= 1.5  # the HAP's energy row
        # a column the parent holds at its lower bound loses its upper bound
        at_lower = np.setdiff1d(np.arange(lp.num_vars), parent.basis.basic)
        at_lower = np.setdiff1d(at_lower, parent.basis.at_upper)[0]
        unbounded = lp.upper.copy()
        unbounded[at_lower] = np.inf
        others = [
            _with_bounds(other_means, [link, link + ij], 0.0, 0.0),
            _with_bounds(dataclasses.replace(lp, matrix=matrix), [link, link + ij], 0.0, 0.0),
            _with_bounds(lp.with_bounds(lp.lower, unbounded), [link, link + ij], 0.0, 0.0),
        ]
        assert all(other._standard_form() is not lp._form for other in others)
        for other in others:
            fresh = solve_lp(other, start=Basis(parent.basis.basic, parent.basis.at_upper))
            factors = []

            def load(*args, factor=None, real=lp_module._load_tableau):
                factors.append(args[6] if len(args) > 6 else factor)
                return real(*args)

            with monkeypatch.context() as patch:
                patch.setattr(lp_module, "_load_tableau", load)
                carried = solve_lp(other, start=parent.basis)
            assert len(factors) >= 2 and factors == [None] * len(factors)  # every load inverts
            assert _solution_bytes(carried) == _solution_bytes(fresh)
            _assert_matches_highs(other, carried)

    def test_chains_of_children_match_the_replace_path(self):
        rng = np.random.default_rng(2024)
        narrow = np.random.default_rng(5)
        programs = [*(_random_lp(rng) for _ in range(40)), _binding_p2(1), _binding_p2(2)]
        depths = []
        for root in programs:
            boxed = np.flatnonzero(np.isfinite(root.lower) & np.isfinite(root.upper))
            shared = replaced = root
            sol = solve_lp(root)
            old = sol
            depth = 0
            while sol.status is LpStatus.OPTIMAL and boxed.size and depth < 6:
                j = int(narrow.choice(boxed))
                lo, hi = shared.lower.copy(), shared.upper.copy()
                if narrow.random() < 0.5:  # fix the variable at one end of its box
                    lo[j] = hi[j] = (lo[j], hi[j])[int(narrow.integers(2))]
                else:  # halve the box around its current value
                    mid = (lo[j] + hi[j]) / 2.0
                    lo[j], hi[j] = (lo[j], mid) if sol.x[j] <= mid else (mid, hi[j])
                shared = shared.with_bounds(lo, hi)  # a child of the last child
                replaced = dataclasses.replace(replaced, lower=lo, upper=hi)
                assert shared._form is root._form
                sol = solve_lp(shared, start=sol.basis)
                old = solve_lp(replaced, start=old.basis)
                assert _solution_bytes(sol) == _solution_bytes(old)
                _assert_status_and_objective_match_highs(shared, sol)
                depth += 1
            depths.append(depth)
        assert depths.count(6) >= 10 and depths[-2:] == [6, 6]

    def test_singular_start_raises(self):
        # columns: x, y, then the two rows' slacks; x and y have one column in both rows
        rows = [([1.0, 1.0], LE, 2.0), ([1.0, 1.0], LE, 3.0)]
        lp = lp_from_rows([1.0, 1.0], rows, upper=[1.0, 1.0])
        with pytest.raises(SolverError, match="singular basis matrix"):
            solve_lp(lp, start=Basis(np.array([0, 1]), np.zeros(0, dtype=int)))


def _permutation_cases():
    """P2 on default and binding seeds, then LPs from the fuzz generators."""
    binding = {"radio": {"ref_gain_uav_hap_db": -10}, "energy": {"uav_budget_j": 25}}
    for scenario_cfg in (default_config().scenario, parse_config({"scenario": binding}).scenario):
        for seed in (1, 2, 3):
            scenario = generate_scenario(scenario_cfg, seed)
            yield build_p2(scenario, np.linspace(3e6, 27e6, scenario.num_tds))
            yield build_p2(scenario, np.full(scenario.num_tds, 27e6))
    rng = np.random.default_rng(31)
    for k in range(150):
        yield (_random_lp(rng), _random_lp(rng, force_feasible=False), _bounded_lp(rng))[k % 3]


class TestRowPermutation:
    def test_permuted_rows_give_the_same_result(self):
        rng = np.random.default_rng(5)
        statuses = []
        for lp in _permutation_cases():
            perm = rng.permutation(lp.relations.size)
            permuted = dataclasses.replace(
                lp, matrix=lp.matrix[perm], relations=lp.relations[perm], rhs=lp.rhs[perm]
            )
            want, got = solve_lp(lp), solve_lp(permuted)
            assert got.status is want.status
            statuses.append(got.status)
            if got.status is LpStatus.OPTIMAL:
                scale = max(1.0, abs(want.objective_value))
                assert abs(got.objective_value - want.objective_value) / scale <= 1e-9
                assert got.certificate.ok() and want.certificate.ok()
        # x and the duals may differ at alternative optima, so only these are compared
        assert statuses.count(LpStatus.OPTIMAL) >= 100
        assert LpStatus.INFEASIBLE in statuses


def _check_solution_loops(lp, solution):
    """Per-row and per-variable loops that check_solution's array form must reproduce."""
    x = solution.x
    a = lp.row_matrix()
    rhs = lp.rhs_vector()
    relations = lp.relations
    ax = a @ x
    primal = 0.0
    for r, rel in enumerate(relations):
        if rel == LE:
            primal = max(primal, ax[r] - rhs[r])
        elif rel == GE:
            primal = max(primal, rhs[r] - ax[r])
        else:
            primal = max(primal, abs(ax[r] - rhs[r]))
    for j in range(lp.num_vars):
        if np.isfinite(lp.lower[j]):
            primal = max(primal, lp.lower[j] - x[j])
        if np.isfinite(lp.upper[j]):
            primal = max(primal, x[j] - lp.upper[j])
    c_min = lp.objective if lp.sense == "min" else -lp.objective
    duals = solution.duals
    eq_sign = 1.0 if lp.sense == "min" else -1.0
    y_signed = np.array([{LE: -1.0, GE: 1.0}.get(rel, eq_sign) for rel in relations]) * duals
    reduced = solution.reduced_costs if lp.sense == "min" else -solution.reduced_costs
    dual = 0.0
    for r, rel in enumerate(relations):
        if rel != EQ:
            dual = max(dual, -duals[r])
    for j in range(lp.num_vars):
        at_lo = np.isfinite(lp.lower[j]) and x[j] <= lp.lower[j] + _BOUND_TOL
        at_hi = np.isfinite(lp.upper[j]) and x[j] >= lp.upper[j] - _BOUND_TOL
        if at_lo and at_hi:
            continue
        if at_lo:
            dual = max(dual, -reduced[j])
        elif at_hi:
            dual = max(dual, reduced[j])
        else:
            dual = max(dual, abs(reduced[j]))
    comp = 0.0
    for r, rel in enumerate(relations):
        if rel == LE:
            comp = max(comp, abs(duals[r] * (rhs[r] - ax[r])))
        elif rel == GE:
            comp = max(comp, abs(duals[r] * (ax[r] - rhs[r])))
    dual_obj = float(y_signed @ rhs)
    for j in range(lp.num_vars):
        if reduced[j] > 0 and np.isfinite(lp.lower[j]):
            comp = max(comp, reduced[j] * abs(x[j] - lp.lower[j]))
            dual_obj += reduced[j] * lp.lower[j]
        elif reduced[j] < 0 and np.isfinite(lp.upper[j]):
            comp = max(comp, -reduced[j] * abs(lp.upper[j] - x[j]))
            dual_obj += reduced[j] * lp.upper[j]
    primal_obj = float(c_min @ x)
    gap = abs(primal_obj - dual_obj) / max(1.0, abs(primal_obj))
    return primal, dual, comp, gap


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def _dive_lps(
    monkeypatch, names=("eval-default", "eval-binding", "ladder-30x5"), seeds=(1, 2, 3, 4, 5)
):
    """(LP, solution) of every LP the dro, do and ro dives solve on the perfbench
    configs `names` at `seeds`."""
    solved = []

    def capture(lp, **kwargs):
        solution = lp_module.solve_lp(lp, **kwargs)
        solved.append((lp, solution))
        return solution

    monkeypatch.setattr(mdrloa, "solve_lp", capture)
    for name in names:
        cfg = load_config(PERFBENCH_CONFIGS / f"{name}.json")
        experiment = dataclasses.replace(cfg.experiment, seeds=seeds, methods=("dro", "do", "ro"))
        evaluation.compare_methods(dataclasses.replace(cfg, experiment=experiment))
    return solved


def test_kernels_match_their_per_call_references_byte_for_byte(monkeypatch):
    """`_pivot` and `_dual_simplex` give every LP of perfbench's eval-binding at `--seed`
    1-3 (seeds 1-22) the bytes that the versions kept in `helpers` give it."""

    def outputs():
        solved = _dive_lps(monkeypatch, names=("eval-binding",), seeds=tuple(range(1, 23)))
        return [
            (sol.status, *(sol.basis.basic.tobytes(), sol.basis.at_upper.tobytes()))
            + tuple(getattr(sol, name).tobytes() for name in ("x", "duals", "reduced_costs"))
            + (float(sol.objective_value).hex(),)
            if sol.status is LpStatus.OPTIMAL
            else (sol.status,)
            for _, sol in solved
        ]

    current = outputs()
    monkeypatch.setattr(lp_module, "_pivot", pivot_with_outer)
    monkeypatch.setattr(lp_module, "_dual_simplex", dual_simplex_per_call)
    assert outputs() == current
    statuses = collections.Counter(out[0] for out in current)
    assert statuses[LpStatus.OPTIMAL] > 100 and statuses[LpStatus.INFEASIBLE] > 0


class TestCertification:
    @staticmethod
    def _assert_matches_loops(lp, sol, rng):
        # perturb the point so that every residual is nonzero somewhere
        noisy = dataclasses.replace(
            sol,
            x=sol.x + 1e-6 * rng.normal(size=sol.x.size),
            duals=sol.duals + 1e-6 * rng.normal(size=sol.duals.size),
        )
        for solution in (sol, noisy):
            report = check_solution(lp, solution)
            primal, dual, comp, gap = _check_solution_loops(lp, solution)
            assert report.max_primal_residual == primal
            assert report.max_dual_residual == dual
            assert report.max_complementarity == comp
            assert report.duality_gap_rel == pytest.approx(gap, rel=1e-9, abs=1e-12)

    def test_matches_loop_reference(self, monkeypatch):
        rng = np.random.default_rng(9)
        checked = 0
        for k in range(120):
            lp = _random_lp(rng) if k % 2 else _bounded_lp(rng)
            sol = solve_lp(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            self._assert_matches_loops(lp, sol, rng)
            checked += 1
        assert checked >= 80
        # the programs the certificate serves: every LP of the dives, fixed columns included
        dives = [(lp, sol) for lp, sol in _dive_lps(monkeypatch) if sol.status is LpStatus.OPTIMAL]
        assert len(dives) >= 30
        assert sum(bool((lp.lower == lp.upper).any()) for lp, _ in dives) >= 8
        for lp, sol in dives:
            self._assert_matches_loops(lp, sol, rng)


    def test_corrupted_solution_flagged(self):
        lp = lp_from_rows([1.0, 1.0], [([1, 1], GE, 2)])
        sol = solve_lp(lp)
        bad = dataclasses.replace(sol, x=sol.x + 1.0)
        report = check_solution(lp, bad)
        assert not report.ok()
        # a NaN anywhere fails: a residual that reads it is NaN, never 0
        for name in ("x", "duals", "reduced_costs"):
            values = getattr(sol, name).copy()
            values[0] = np.nan
            assert not check_solution(lp, dataclasses.replace(sol, **{name: values})).ok(), name

    def test_failing_certificate_raises_naming_the_residual(self, monkeypatch):
        check = lp_module.check_solution

        def failing(lp, solution):
            return dataclasses.replace(check(lp, solution), duality_gap_rel=1e-3)

        monkeypatch.setattr(lp_module, "check_solution", failing)
        with pytest.raises(SolverError, match="fails its certificate") as info:
            solve_lp(lp_from_rows([1.0, 1.0], [([1, 1], GE, 2)]))
        assert str(info.value).endswith(": duality_gap_rel = 0.001 > 1e-07")

    def test_report_fields_finite(self):
        lp = lp_from_rows([1.0, 2.0], [([1, 1], GE, 1)])
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
