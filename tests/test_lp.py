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
from dro_offload.model import build_p2, crash_basis, worst_case_means
from helpers import (
    INFEASIBLE_CHILD_REPORTED_OPTIMAL,
    ArrayLp,
    dual_of,
    dual_simplex_per_call,
    highs_solve,
    lp_from_rows,
    pivot_with_outer,
)

_STATUS = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE}  # HiGHS's status codes


class TestKnownSolutions:
    def test_two_var_max(self):
        # max 3x + 2y st x + y <= 4, x <= 2 is min -3x - 2y: x=2, y=2, obj -10
        lp = lp_from_rows([-3.0, -2.0], [([1, 1], LE, 4), ([1, 0], LE, 2)], upper=[9.0, 9.0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-10.0, abs=1e-9)
        np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)
        assert sol.certificate.ok()
        # the sense is "min", a class attribute: no program takes another
        assert LinearProgram.sense == lp.sense == "min"
        with pytest.raises(TypeError, match="sense"):
            lp_from_rows([3.0, 2.0], [([1, 1], LE, 4)], upper=[9.0, 9.0], sense="max")
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.sense = "max"

    def test_equality_and_ge(self):
        # min x + 2y st x + y = 3, x >= 1 (as -x <= -1) -> x=3, y=0, obj 3
        rows = [([1, 1], EQ, 3), ([-1, 0], LE, -1)]
        sol = solve_lp(lp_from_rows([1.0, 2.0], rows, upper=[5.0, 5.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        with pytest.raises(ConfigError, match=r"negated LE row\), got \['>='\]"):
            lp_from_rows([1.0, 2.0], [([1, 1], EQ, 3), ([1, 0], GE, 1)], upper=[5.0, 5.0])

    def test_free_variable(self):
        # min x st x >= -5 over a free x: no box, so the program is rejected
        with pytest.raises(ConfigError, match="every variable needs a box"):
            lp_from_rows([1.0], [([-1.0], LE, 5.0)], lower=[-np.inf], upper=[np.inf])

    def test_infeasible(self):
        lp = lp_from_rows([1.0], [([1.0], LE, -1.0)], upper=[1.0])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_infeasible_beside_a_large_rhs(self):
        # x = 1 and x <= 0.99 leave a row 0.01 short; a row with rhs 1e6 must
        # not scale the infeasibility threshold past that
        lp = lp_from_rows(
            [1.0, 0.0],
            [([1.0, 0.0], EQ, 1.0), ([1.0, 0.0], LE, 0.99), ([1.0, 1.0], LE, 1e6)],
            upper=[2e6, 2e6],
        )
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_every_variable_fixed_and_no_rows(self):
        sol = solve_lp(LinearProgram([2.0], lower=[1.5], upper=[1.5]))
        assert sol.status is LpStatus.OPTIMAL and sol.objective_value == 3.0
        assert sol.certificate.ok()

    def test_unbounded(self):
        # min -x over x >= 0 was unbounded: without an upper bound it is rejected
        with pytest.raises(ConfigError, match="upper is required"):
            LinearProgram([-1.0], lower=[0])
        with pytest.raises(ConfigError, match="every variable needs a box"):
            LinearProgram([-1.0], lower=[0], upper=[np.inf])

    def test_upper_bounds_respected(self):
        lp = LinearProgram([-1.0, -1.0], lower=[0, 0], upper=[0.5, 0.25])
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(-0.75, abs=1e-9)

    def test_bad_relation_rejected(self):
        with pytest.raises(ConfigError, match="'<'"):
            LinearProgram([1.0], [[1.0]], ["<"], [1.0], upper=[1.0])

    def test_constraint_block_is_its_rows(self):
        rows = [([1.0, 0.0], LE, 3.0), ([0.0, 1.0], LE, 3.0)]
        rows = lp_from_rows([1.0, 2.0], rows, upper=[4.0, 4.0])
        block = LinearProgram([1.0, 2.0], np.eye(2), [LE, LE], [3.0, 3.0], upper=[4.0, 4.0])
        assert block.relations.tolist() == rows.relations.tolist() == [LE, LE]
        np.testing.assert_array_equal(block.row_matrix(), rows.row_matrix())
        np.testing.assert_array_equal(block.rhs_vector(), rows.rhs_vector())
        assert block.row_matrix() is block.matrix and block.num_constraints == 2
        with pytest.raises(ShapeError):
            LinearProgram([1.0, 2.0], np.ones(2), [LE], [1.0], upper=[4.0, 4.0])


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
            LinearProgram([1.0, 2.0], matrix, relations, rhs, upper=[1.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [{"objective": [[1.0, 2.0]]}, {"lower": [0.0]}, {"upper": [1.0, 1.0, 1.0]}],
    )
    def test_objective_and_bounds_are_vectors_of_one_length(self, kwargs):
        with pytest.raises(ShapeError):
            LinearProgram(**{"objective": [1.0, 2.0], "upper": [1.0, 1.0], **kwargs})

    @pytest.mark.parametrize(
        "objective, matrix, rhs",
        [
            ([np.nan, 1.0], np.eye(2), [1.0, 1.0]),
            ([1.0, 1.0], [[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([1.0, 1.0], np.eye(2), [1.0, -np.inf]),
        ],
    )
    def test_non_finite_data_rejected(self, objective, matrix, rhs):
        with pytest.raises(ConfigError, match="must be finite"):
            LinearProgram(objective, matrix, [LE, EQ], rhs, upper=[1.0, 1.0])

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ([np.nan, 0.0], [1.0, 1.0]),
            ([0.0, 0.0], [np.nan, 1.0]),
            ([np.inf, 0.0], [np.inf, 1.0]),
            ([-np.inf, 0.0], [-np.inf, 1.0]),
            ([-np.inf, 0.0], [1.0, 1.0]),  # upper-only
            ([0.0, 0.0], [np.inf, 1.0]),  # lower-only, the former default
            ([-np.inf, 0.0], [np.inf, 1.0]),  # free
        ],
    )
    def test_nan_and_wrong_infinite_bounds_rejected(self, lower, upper):
        with pytest.raises(ConfigError, match="bounds must be finite numbers"):
            LinearProgram([1.0, 1.0], lower=lower, upper=upper)
        with pytest.raises(ConfigError, match="bounds must be finite numbers"):
            LinearProgram([1.0, 1.0], upper=[1.0, 1.0]).derive(lower=lower, upper=upper)

    def test_empty_bound_interval_rejected(self):
        message = r"variable 1 has empty bound interval \[2.0, 1.0\]"
        lp = LinearProgram([1.0, 1.0], upper=[1.0, 1.0])
        with pytest.raises(ConfigError, match=message):
            LinearProgram([1.0, 1.0], lower=[0.0, 2.0], upper=[1.0, 1.0])
        with pytest.raises(ConfigError, match=message):
            lp.derive(lower=[0.0, 2.0], upper=[1.0, 1.0])
        with pytest.raises(ShapeError):
            lp.derive(lower=[0.0], upper=[1.0])

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"objective": None}, ShapeError, "objective must be a vector of numbers, got None"),
            ({"objective": ["a"]}, ConfigError, "objective must be an array of numbers"),
            ({"objective": [[1.0, 2.0], [1.0]]}, ConfigError, "objective must be an array of"),
            ({"objective": [1.0], "matrix": [["x"]], "relations": [LE], "rhs": [1.0]},
             ConfigError, "matrix must be an array of numbers"),
            ({"objective": [1.0], "lower": [object()]}, ConfigError, "lower must be an array of"),
            ({"objective": [1.0], "upper": [object()]}, ConfigError, "upper must be an array of"),
        ],
    )
    def test_objective_none_or_not_numbers_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            LinearProgram(**kwargs)

    def test_bad_sense_rejected(self):
        with pytest.raises(TypeError, match="sense"):
            LinearProgram([1.0], upper=[1.0], sense="maximize")

    def test_defaults_no_rows_and_nonnegative_variables(self):
        lp = LinearProgram([1.0, 2.0], upper=[3.0, 4.0])
        assert (lp.num_vars, lp.num_constraints) == (2, 0)
        assert lp.row_matrix().shape == (0, 2) and lp.rhs_vector().shape == (0,)
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        # upper has no default: omitting it is omitting the box
        with pytest.raises(ConfigError, match="upper is required"):
            LinearProgram([1.0, 2.0])

    def test_immutable(self):
        coeffs = np.eye(2)
        lp = LinearProgram([1.0, 2.0], coeffs, [LE, EQ], [3.0, 1.0], upper=[5.0, 5.0])
        coeffs[0, 0] = 7.0  # the program keeps its own copy
        assert lp.matrix[0, 0] == 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            lp.upper = np.ones(2)
        for name in ("objective", "matrix", "relations", "rhs", "lower", "upper"):
            array = getattr(lp, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]

    def test_replace_shares_what_it_does_not_change(self):
        # x0 <= 3 and x1 >= 1, the latter as -x1 <= -1
        lp = LinearProgram([1.0, 2.0], np.diag([1.0, -1.0]), [LE, LE], [3.0, -1.0], upper=[4, 4])
        child = dataclasses.replace(lp, lower=[1.0, 0.0], upper=[1.0, 9.0])
        assert child.matrix is lp.matrix and child.relations is lp.relations
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        assert solve_lp(child).objective_value == pytest.approx(3.0, abs=1e-12)

    def test_derived_bounds_share_the_program_and_its_standard_form(self):
        lp = LinearProgram([1.0, 2.0], np.diag([1.0, -1.0]), [LE, LE], [3.0, -1.0], upper=[4, 4])
        child = lp.derive(lower=[1.0, 0.0], upper=[1.0, 2.0])
        for name in ("objective", "matrix", "relations", "rhs", "sense"):
            assert getattr(child, name) is getattr(lp, name)
        assert child._form is lp._form is not None
        np.testing.assert_array_equal(lp.lower, [0.0, 0.0])
        np.testing.assert_array_equal(lp.upper, [4.0, 4.0])
        with pytest.raises(ValueError, match="read-only"):
            child.lower[0] = 0.0
        assert solve_lp(child).objective_value == pytest.approx(3.0, abs=1e-12)
        # every child shares the form, a child of a child too
        grandchild = child.derive(lower=[1.0, 1.0], upper=[1.0, 1.0])
        assert grandchild._form is lp._form
        assert solve_lp(grandchild).objective_value == pytest.approx(3.0, abs=1e-12)

    def test_a_derived_objective_is_checked_and_builds_its_own_form(self):
        lp = LinearProgram([1.0, 2.0], np.diag([1.0, -1.0]), [LE, LE], [3.0, -1.0], upper=[4, 4])
        solve_lp(lp)
        child = lp.derive(objective=[2.0, 1.0])
        assert child.matrix is lp.matrix and child.lower is lp.lower
        assert child._form is None and lp._form is not None
        assert solve_lp(child).objective_value == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ShapeError, match="keep the program's shapes"):
            lp.derive(rhs=[3.0])
        with pytest.raises(ConfigError, match="must be finite"):
            lp.derive(objective=[np.nan, 1.0])


class TestDualConvention:
    def test_le_duals_nonnegative_and_tight(self):
        lp = lp_from_rows([-3.0, -2.0], [([1, 1], LE, 4), ([1, 0], LE, 2)], upper=[9.0, 9.0])
        sol = solve_lp(lp)
        assert (sol.duals >= -1e-9).all()
        # multipliers: relaxing row 0 by 1 lowers the optimum by 2, row 1 by 1
        assert sol.duals[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.duals[1] == pytest.approx(1.0, abs=1e-9)

    def test_inactive_constraint_zero_dual(self):
        lp = lp_from_rows([1.0], [([1.0], LE, 100.0), ([-1.0], LE, -2.0)], upper=[200.0])
        sol = solve_lp(lp)
        assert sol.duals[0] == pytest.approx(0.0, abs=1e-9)


def _boxed(c, rows, lower, upper, sense):
    """The fuzz program `sense` c'x over `rows` and [lower, upper] in the class that
    `LinearProgram` takes: a max becomes a min, a GE row its negated LE row, and each
    infinite bound one 10 (1 + |x_j|) from HiGHS's optimum x of the original (from 0
    without one), so HiGHS's answer does not change; an unbounded original becomes
    bounded."""
    c = np.asarray(c) if sense == "min" else -np.asarray(c)
    rows = [(-a, LE, -v) if rel == GE else (a, rel, v) for a, rel, v in rows]
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        coeffs, relations, rhs = zip(*rows)
        original = ArrayLp(c, np.array(coeffs), np.array(relations), rhs, lower, upper, "min")
        ref = highs_solve(original)
        x = ref.x if ref.status == 0 else np.zeros(c.size)
        reach = 10.0 * (1.0 + np.abs(x))
        lower = np.where(np.isfinite(lower), lower, x - reach)
        upper = np.where(np.isfinite(upper), upper, x + reach)
    return lp_from_rows(c, rows, lower=lower, upper=upper)


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
    return _boxed(c, rows, lower, upper, sense)


class TestFuzzAgainstScipy:
    def test_feasible_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            lp = _random_lp(rng)
            sol = solve_lp(lp)
            ref = highs_solve(lp)
            if ref.status == 0:
                assert sol.status is LpStatus.OPTIMAL
                scale = max(1.0, abs(ref.fun))
                assert abs(sol.objective_value - ref.fun) / scale < 1e-7
                assert sol.certificate.ok()
            elif ref.status == 2:
                assert sol.status is LpStatus.INFEASIBLE

    def test_arbitrary_instances(self):
        rng = np.random.default_rng(777)
        for _ in range(80):
            lp = _random_lp(rng, force_feasible=False)
            sol = solve_lp(lp)
            ref = highs_solve(lp)
            if ref.status in _STATUS:
                assert sol.status is _STATUS[ref.status]


def _bounded_lp(rng):
    """Random LP mixing fixed, shifted-box, (-inf, hi], free and [0, inf) variables, then
    `_boxed`."""
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
    return _boxed(c, rows, lower, upper, sense)


class TestBoundedVariables:
    def test_fuzz_against_highs(self):
        rng = np.random.default_rng(4242)
        optimal = at_upper = 0
        for _ in range(150):
            lp = _bounded_lp(rng)
            sol = solve_lp(lp)
            ref = highs_solve(lp)
            assert sol.status is _STATUS[ref.status]
            if ref.status != 0:
                continue
            assert abs(sol.objective_value - ref.fun) / max(1.0, abs(ref.fun)) < 1e-7
            assert sol.certificate.ok()
            fixed = lp.lower == lp.upper
            np.testing.assert_array_equal(sol.x[fixed], lp.lower[fixed])
            optimal += 1
            boxed = lp.lower < lp.upper
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
        lp = lp_from_rows([1.0, -2.0], [*rows, ([-1.0, 0.0], LE, -2.0)], **bounds)
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
        ref = highs_solve(lp)
        assert sol.status is LpStatus.OPTIMAL and ref.status == 0
        assert abs(sol.objective_value - ref.fun) / abs(ref.fun) < 1e-9
        assert sol.certificate.ok()


def _binding_p2(seed, sizes=(3e6, 27e6)):
    binding = {"radio": {"ref_gain_uav_hap_db": -10}, "energy": {"uav_budget_j": 25}}
    scenario = generate_scenario(parse_config({"scenario": binding}).scenario, seed)
    return build_p2(scenario, np.linspace(*sizes, scenario.num_tds))


def _assert_matches_highs(lp, sol):
    ref = highs_solve(lp)
    assert sol.status is LpStatus.OPTIMAL and ref.status == 0
    assert abs(sol.objective_value - ref.fun) / max(1.0, abs(ref.fun)) < 1e-9
    assert sol.certificate.ok()


def _one_row_lp():
    # columns: x in [0, 2], y in [0, 1], the row's slack, which has no upper bound
    return lp_from_rows([1.0, -1.0], [([1.0, 1.0], LE, 3.0)], upper=[2.0, 1.0])


def _by_hand(basic, at_upper=()):
    return lambda: (_one_row_lp(), Basis(np.array(basic), np.array(at_upper, dtype=int)))


def _slack_basis_by_hand():
    lp = _one_row_lp()
    return lp, Basis(lp._standard_form().basis, [])


def _slack_priced_below_zero():
    # min sum(x) over x_k <= 1, with each x_k basic at 1: primal feasible, but each
    # slack, with no upper bound to move to, is priced at -1
    lp = LinearProgram(np.ones(4), np.eye(4), [LE] * 4, np.ones(4), upper=np.full(4, 10.0))
    return lp, Basis(np.arange(4), np.zeros(0, dtype=int))


def _another_programs_solution():
    return _binding_p2(1, sizes=(27e6, 3e6)), solve_lp(_binding_p2(1)).basis


def _a_replaced_copys_solution():
    lp = _binding_p2(1)  # the same numbers, built again: a form of its own
    return lp, solve_lp(dataclasses.replace(lp, upper=lp.upper.copy())).basis


def _crash_basis_at_other_sizes():
    other = _binding_p2(1, sizes=(27e6, 3e6))
    return _binding_p2(1), crash_basis(other, 10)  # the default 10 TDs


class TestStartAndCertifyRetry:
    def test_a_column_priced_below_zero_at_the_certify_reload_is_flipped(self, monkeypatch):
        # min -x0 - x1 over x0 + x1 <= 1.5 in [0, 1]^2. The start's load hides x0's price,
        # so the flips move x1 alone to its bound, and the dual simplex, with nothing to
        # repair, stops at x = (0, 1). The certify reload prices x0 at -1: it is flipped
        # and the dual simplex runs again from the reloaded tableau.
        lp = lp_from_rows([-1.0, -1.0], [([1.0, 1.0], LE, 1.5)], upper=[1.0, 1.0])
        loads, flips, calls = [], [], collections.Counter()

        def load(tableau, *args, real=lp_module._load_tableau):
            loaded = real(tableau, *args)
            loads.append(tableau[-1, 0])
            if len(loads) == 1:
                tableau[-1, 0] = 1.0
            return loaded

        def flip(tableau, ub, flipped, col, real=lp_module._flip):
            flips.append((calls["_dual_simplex"], col))
            return real(tableau, ub, flipped, col)

        monkeypatch.setattr(lp_module, "_load_tableau", load)
        monkeypatch.setattr(lp_module, "_flip", flip)
        _counted(monkeypatch, calls, lp_module, "_dual_simplex")
        sol = solve_lp(lp)
        assert loads[:2] == [-1.0, -1.0] and len(loads) == 3  # start, two certify reloads
        assert flips == [(0, 1), (1, 0)]  # x1 before the first run, x0 before the second
        assert calls == {"_dual_simplex": 2}
        _assert_matches_highs(lp, sol)
        assert sol.objective_value == pytest.approx(-1.5, abs=1e-12)


def test_a_row_folded_to_zero_keeps_its_artificial():
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
    return lp.derive(lower=lo, upper=hi)


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
    ref = highs_solve(lp)
    assert sol.status is _STATUS[ref.status]
    if sol.status is LpStatus.OPTIMAL:
        assert abs(sol.objective_value - ref.fun) / max(1.0, abs(ref.fun)) < 1e-9
        assert sol.certificate.ok()


class TestWarmStart:
    def test_tightened_bound_against_highs(self):
        rng = np.random.default_rng(2024)  # the LPs of TestFuzzAgainstScipy
        tighten = np.random.default_rng(1)
        statuses = []
        for _ in range(120):
            lp = _random_lp(rng)
            parent = solve_lp(lp)
            if parent.status is not LpStatus.OPTIMAL:
                continue
            j = int(tighten.integers(lp.num_vars))
            lo, hi = np.sort(tighten.uniform(lp.lower[j], lp.upper[j], 2))
            if tighten.random() < 0.5:  # fix the variable at a value inside its box
                lo = hi
            child = _with_bounds(lp, j, lo, hi)
            warm, cold = solve_lp(child, start=parent.basis), solve_lp(child)
            ref = highs_solve(child)
            status = _STATUS[ref.status]
            assert warm.status is cold.status is status
            statuses.append(status)
            if status is LpStatus.OPTIMAL:
                for sol in (warm, cold):
                    assert abs(sol.objective_value - ref.fun) / max(1.0, abs(ref.fun)) < 1e-9
                assert warm.certificate.ok()
        assert statuses.count(LpStatus.OPTIMAL) >= 50 and LpStatus.INFEASIBLE in statuses

    def test_pinned_infeasible_child_from_its_parents_basis(self):
        cfg, seed = INFEASIBLE_CHILD_REPORTED_OPTIMAL
        scenario = generate_scenario(cfg.scenario, seed)
        p2 = build_p2(scenario, worst_case_means(build_ambiguity_sets(cfg, seed)))
        parent = solve_lp(_with_bounds(p2, [2, 4], 0.0, 0.0))
        assert parent.status is LpStatus.OPTIMAL
        child = _with_bounds(p2, [0, 2, 4], 0.0, 0.0)
        assert solve_lp(child, start=parent.basis).status is LpStatus.INFEASIBLE
        assert highs_solve(child).status == 2

    def test_across_a_row_whose_rhs_changes_sign(self):
        # row 0, x0 >= 0 negated into -x0 <= 0: the child's fixing moves its net rhs from
        # 0 to 1, that of x0 >= 0 from 0 to -1
        rows = [([-1.0, 0.0], LE, 0.0), ([1.0, 1.0], EQ, 1.0)]
        lp = lp_from_rows([1.0, 2.0], rows, upper=[1.0, 1.0])
        parent = solve_lp(_with_bounds(lp, [0, 1], [0.0, 1.0], [0.0, 1.0]))
        child = solve_lp(_with_bounds(lp, [0, 1], [1.0, 0.0], [1.0, 0.0]), start=parent.basis)
        assert child.status is LpStatus.OPTIMAL and child.certificate.ok()
        np.testing.assert_array_equal(child.x, [1.0, 0.0])

    @pytest.mark.parametrize(
        "case",
        [
            # built by hand: no tie, whether or not the ids would fit
            pytest.param(_slack_basis_by_hand, id="slack-basis-by-hand"),
            pytest.param(_slack_priced_below_zero, id="slack-priced-below-zero"),
            pytest.param(_by_hand([0], [2]), id="slack-at-infinite-bound"),
            pytest.param(_by_hand([2, 0]), id="two-basic-in-one-row"),
            pytest.param(_by_hand([3]), id="id-out-of-range"),
            pytest.param(_by_hand([2], [2]), id="basic-and-at-upper"),
            pytest.param(_by_hand([2], [0, 0]), id="twice-at-upper"),
            pytest.param(_by_hand([-1]), id="negative-id"),
            # issued for another form
            pytest.param(_another_programs_solution, id="another-programs-solution"),
            pytest.param(_a_replaced_copys_solution, id="a-replaced-copys-solution"),
            pytest.param(_crash_basis_at_other_sizes, id="crash-at-other-sizes"),
        ],
    )
    def test_start_not_issued_for_this_form_rejected(self, case):
        lp, start = case()
        with pytest.raises(ConfigError, match="start basis was not built for this program's"):
            solve_lp(lp, start=start)

    def test_crash_basis_is_tied_to_its_p2s_form_and_checked_on_any_other(self):
        scenarios = [
            generate_scenario(dataclasses.replace(default_config().scenario, **size), 1)
            for size in ({}, {"num_tds": 30, "num_uavs": 5, "quota_uav": 8})
        ]
        p2s = [build_p2(s, np.linspace(3e6, 27e6, s.num_tds)) for s in scenarios]
        for p2, scenario in zip(p2s, scenarios):
            i, j = scenario.num_tds, scenario.num_uavs
            crash = crash_basis(p2, i)
            assert len(crash._factor) == 1 and crash._factor[0] is p2._standard_form()
            assert not crash.basic.flags.writeable and not crash.at_upper.flags.writeable
            # per access row, the TD's cheapest link over [y_i., z_i.] (ties to the lowest
            # id); then P2's slacks, which follow its 2IJ columns in row order
            ids = np.arange(2 * i * j).reshape(2, i, j)
            cheapest = [
                min(ids[:, td].ravel(), key=lambda c: (p2.objective[c], c)) for td in range(i)
            ]
            slacks = range(p2.num_vars, p2.num_vars + p2.num_constraints - i)
            np.testing.assert_array_equal(crash.basic, [*cheapest, *slacks])
            assert crash.at_upper.size == 0
            _assert_matches_highs(p2, solve_lp(p2, start=crash))
        # tied to the 10x3 form, it is checked, and rejected, on the 30x5 one
        with pytest.raises(ConfigError, match="not built for this program's standard form"):
            solve_lp(p2s[1], start=crash_basis(p2s[0], scenarios[0].num_tds))

    def test_cold_start_is_the_slack_basis_loaded_like_any_start(self):
        rng = np.random.default_rng(2024)
        scenarios = [
            generate_scenario(dataclasses.replace(default_config().scenario, **size), 1)
            for size in ({}, {"num_tds": 30, "num_uavs": 5, "quota_uav": 8})
        ]
        p2s = [build_p2(s, np.linspace(3e6, 27e6, s.num_tds)) for s in scenarios]
        for lp in [*(_random_lp(rng) for _ in range(60)), *p2s]:
            form = lp._standard_form()
            slack = Basis(form.basis, [], (form,))
            cold, loaded = solve_lp(lp), solve_lp(lp, start=slack)
            assert cold.status is loaded.status
            if cold.status is LpStatus.OPTIMAL:
                for name in ("x", "duals", "reduced_costs"):
                    assert getattr(cold, name).tobytes() == getattr(loaded, name).tobytes()
                np.testing.assert_array_equal(cold.basis.basic, loaded.basis.basic)
                np.testing.assert_array_equal(cold.basis.at_upper, loaded.basis.at_upper)
        # min sum(x) over x_k <= 1 in [0, 10]: the slack basis is optimal as loaded
        lp = LinearProgram(np.ones(4), np.eye(4), [LE] * 4, np.ones(4), upper=np.full(4, 10.0))
        sol = solve_lp(lp)
        _assert_matches_highs(lp, sol)
        np.testing.assert_array_equal(sol.x, np.zeros(4))

    def test_warm_child_inverts_once_and_solves_nothing(self, monkeypatch):
        calls = {"inv": 0, "solve": 0, "_dual_simplex": 0}
        lp = _binding_p2(1)
        parent = solve_lp(lp)
        for ids in (parent.basis.basic, parent.basis.at_upper):
            assert not ids.flags.writeable  # the carried inverse stays that of these ids
        ij = lp.num_vars // 2
        link = int(np.argmax(parent.x)) % ij  # a link the parent uses, closed: y = z = 0
        child = _with_bounds(lp, [link, link + ij], 0.0, 0.0)
        _counted(monkeypatch, calls, np.linalg, "inv")
        _counted(monkeypatch, calls, np.linalg, "solve")
        _counted(monkeypatch, calls, lp_module, "_dual_simplex")
        sol = solve_lp(child, start=parent.basis)
        _assert_matches_highs(child, sol)
        # inv: the certify step alone; the start loads through the parent's inverse
        assert calls == {"inv": 1, "solve": 0, "_dual_simplex": 1}

    def test_chains_of_children_match_the_replace_path(self):
        rng = np.random.default_rng(2024)
        narrow = np.random.default_rng(5)
        programs = [*(_random_lp(rng) for _ in range(40)), _binding_p2(1), _binding_p2(2)]
        depths = []
        for root in programs:
            shared = replaced = root
            sol = solve_lp(root)
            old = sol
            depth = 0
            while sol.status is LpStatus.OPTIMAL and depth < 6:
                j = int(narrow.integers(root.num_vars))
                lo, hi = shared.lower.copy(), shared.upper.copy()
                if narrow.random() < 0.5:  # fix the variable at one end of its box
                    lo[j] = hi[j] = (lo[j], hi[j])[int(narrow.integers(2))]
                else:  # halve the box around its current value
                    mid = (lo[j] + hi[j]) / 2.0
                    lo[j], hi[j] = (lo[j], mid) if sol.x[j] <= mid else (mid, hi[j])
                shared = shared.derive(lower=lo, upper=hi)  # a child of the last child
                replaced = dataclasses.replace(replaced, lower=lo, upper=hi)
                assert shared._form is root._form
                sol = solve_lp(shared, start=sol.basis)
                # the same ids, tied to the replaced copy's own form: inverted afresh
                ids = Basis(old.basis.basic, old.basis.at_upper, (replaced._standard_form(),))
                old = solve_lp(replaced, start=ids)
                assert _solution_bytes(sol) == _solution_bytes(old)
                _assert_status_and_objective_match_highs(shared, sol)
                depth += 1
            depths.append(depth)
        assert depths.count(6) >= 10 and depths[-2:] == [6, 6]

    def test_singular_start_raises(self):
        # columns: x, y, then the two rows' slacks; x and y have one column in both rows
        rows = [([1.0, 1.0], LE, 2.0), ([1.0, 1.0], LE, 3.0)]
        lp = lp_from_rows([1.0, 1.0], rows, upper=[1.0, 1.0])
        start = Basis(np.array([0, 1]), np.zeros(0, dtype=int), (lp._standard_form(),))
        with pytest.raises(SolverError, match="singular basis matrix"):
            solve_lp(lp, start=start)


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
        else:
            primal = max(primal, abs(ax[r] - rhs[r]))
    for j in range(lp.num_vars):
        primal = max(primal, lp.lower[j] - x[j], x[j] - lp.upper[j])
    duals = solution.duals
    y_signed = np.array([-1.0 if rel == LE else 1.0 for rel in relations]) * duals
    reduced = solution.reduced_costs
    dual = 0.0
    for r, rel in enumerate(relations):
        if rel != EQ:
            dual = max(dual, -duals[r])
    for j in range(lp.num_vars):
        at_lo = x[j] <= lp.lower[j] + _BOUND_TOL
        at_hi = x[j] >= lp.upper[j] - _BOUND_TOL
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
    dual_obj = float(y_signed @ rhs)
    for j in range(lp.num_vars):
        if reduced[j] > 0:
            comp = max(comp, reduced[j] * abs(x[j] - lp.lower[j]))
            dual_obj += reduced[j] * lp.lower[j]
        elif reduced[j] < 0:
            comp = max(comp, -reduced[j] * abs(lp.upper[j] - x[j]))
            dual_obj += reduced[j] * lp.upper[j]
    primal_obj = float(lp.objective @ x)
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
    1-3 (seeds 1-22) and ladder-30x5 at `--seed` 1-3 (seeds 1-4) the bytes that the
    versions kept in `helpers` give it. Both of `_pivot`'s updates run: the whole
    tableau's, on a tableau of at most 4096 entries (eval-binding's) or a pivot column
    more than half nonzero, and the nonzero rows' (on ladder-30x5's)."""

    def outputs():
        solved = _dive_lps(monkeypatch, names=("eval-binding",), seeds=tuple(range(1, 23)))
        solved += _dive_lps(monkeypatch, names=("ladder-30x5",), seeds=(1, 2, 3, 4))
        return [
            (sol.status, *(sol.basis.basic.tobytes(), sol.basis.at_upper.tobytes()))
            + tuple(getattr(sol, name).tobytes() for name in ("x", "duals", "reduced_costs"))
            + (float(sol.objective_value).hex(),)
            if sol.status is LpStatus.OPTIMAL
            else (sol.status,)
            for _, sol in solved
        ]

    updates = collections.Counter()

    def pivot(tableau, basis, row, col, real=lp_module._pivot):
        column = tableau[:, col]
        whole = tableau.size <= 4096 or 2 * np.count_nonzero(column) > column.size
        updates["dense" if whole else "sparse"] += 1
        real(tableau, basis, row, col)

    monkeypatch.setattr(lp_module, "_pivot", pivot)
    current = outputs()
    assert updates["dense"] > 0 and updates["sparse"] > 0
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
        lp = lp_from_rows([1.0, 1.0], [([-1, -1], LE, -2)], upper=[3.0, 3.0])
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
            solve_lp(lp_from_rows([1.0, 1.0], [([-1, -1], LE, -2)], upper=[3.0, 3.0]))
        assert str(info.value).endswith(": duality_gap_rel = 0.001 > 1e-07")

    def test_report_fields_finite(self):
        lp = lp_from_rows([1.0, 2.0], [([-1, -1], LE, -1)], upper=[3.0, 3.0])
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
            dual = highs_solve(dual_of(lp))
            assert dual.status == 0
            scale = max(1.0, abs(primal.objective_value))
            assert abs(primal.objective_value - dual.fun) / scale < 1e-7
            done += 1

    def test_unbounded_primal_infeasible_dual(self):
        # min -x over x >= 0 was unbounded, and its dual infeasible: without an upper
        # bound the program is rejected before it has a dual
        with pytest.raises(ConfigError, match="upper is required"):
            dual_of(LinearProgram([-1.0], lower=[0]))
