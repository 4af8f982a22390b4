import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dro_offload.ambiguity import AmbiguitySet, Distribution, SampleSpace
from dro_offload.config import default_config, load_config, parse_config
from dro_offload import lp as lp_module
from dro_offload import evaluation, mdrloa
from dro_offload.cli import EXIT_INTERNAL, main
from dro_offload.errors import (
    ConfigError,
    InfeasibleProblemError,
    ShapeError,
    SizeError,
    SolverError,
)
from dro_offload.evaluation import build_ambiguity_sets
from dro_offload.geometry import generate_scenario
from dro_offload.lp import LpStatus
from dro_offload.mdrloa import (
    METHOD_DO,
    METHOD_MDRLOA,
    METHOD_RO,
    do_solve,
    exhaustive_solve,
    mdrloa_solve,
    ro_solve,
    select_branch,
)
from dro_offload.model import worst_case_distributions
from helpers import (
    INFEASIBLE_CHILD_REPORTED_OPTIMAL,
    dive_with_both_children,
    expected_energy,
    expected_latency,
    feasible_decisions,
)

SPACE = SampleSpace.with_midpoint_edges([3e6, 9e6, 15e6, 21e6, 27e6])


def _scenario(seed=1, **overrides):
    cfg = default_config().scenario
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return generate_scenario(cfg, seed)


def _uniform_sets(n, radius=0.3):
    return [AmbiguitySet(SPACE, Distribution.uniform(5), radius) for _ in range(n)]


class TestSelectBranch:
    def test_integral_returns_none(self):
        assert select_branch(np.array([[0.0, 1.0], [1.0, 0.0]])) is None

    def test_most_fractional_wins(self):
        m = np.array([[0.9, 0.1], [0.45, 0.55]])
        assert select_branch(m) == (1, 0)

    def test_tie_breaks_lexicographically(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert select_branch(m) == (0, 0)

    def test_respects_tolerance(self):
        m = np.array([[1.0 - 1e-8, 1e-8]])
        assert select_branch(m) is None


class TestMdrloaSolve:
    def test_solution_valid_and_counted(self):
        sc = _scenario()
        result = mdrloa_solve(sc, _uniform_sets(10))
        result.decision.validate(sc)
        assert result.method == METHOD_MDRLOA
        assert result.lp_solve_count >= 1
        assert result.worst_case_expected_latency >= result.relaxation_bound - 1e-9

    def test_deterministic(self):
        sc = _scenario(seed=9)
        a = mdrloa_solve(sc, _uniform_sets(10))
        b = mdrloa_solve(sc, _uniform_sets(10))
        np.testing.assert_array_equal(a.decision.x, b.decision.x)
        np.testing.assert_array_equal(a.decision.y, b.decision.y)
        assert a.worst_case_expected_latency == b.worst_case_expected_latency

    def test_latency_matches_reported(self):
        sc = _scenario(seed=3)
        sets = _uniform_sets(10)
        result = mdrloa_solve(sc, sets)
        _, means = worst_case_distributions(sets)
        assert result.worst_case_expected_latency == pytest.approx(
            expected_latency(result.decision, sc, means), rel=1e-12
        )

    def test_set_count_mismatch(self):
        with pytest.raises(ShapeError):
            mdrloa_solve(_scenario(), _uniform_sets(3))

    def test_pigeonhole_infeasible(self):
        sc = _scenario(num_tds=3, num_uavs=1, quota_uav=2)
        with pytest.raises(InfeasibleProblemError):
            mdrloa_solve(sc, _uniform_sets(3))


def _binding_scenario(seed):
    """The binding preset: the relay is worth using and the UAV energy rows bind."""
    scenario = {"radio": {"ref_gain_uav_hap_db": -10}, "energy": {"uav_budget_j": 25}}
    return generate_scenario(parse_config({"scenario": scenario}).scenario, seed)


def _lp_bytes(lp):
    fields = ("objective", "matrix", "relations", "rhs", "lower", "upper")
    return [getattr(lp, name).tobytes() for name in fields]


def _pins(lp, num_uavs):
    """{(name, td, uav): value} of the x and y entries that the LP's bounds pin.

    y is pinned by its column's bounds. x = y + z is pinned at 0 where y and z
    both are, and at 1 on a TD's one link left open, by its access row.
    """
    ij = lp.num_vars // 2
    open_links = (lp.upper[:ij] > 0.0) | (lp.upper[ij:] > 0.0)
    pins = {("x", *divmod(int(c), num_uavs)): 0.0 for c in np.flatnonzero(~open_links)}
    for td, links in enumerate(open_links.reshape(-1, num_uavs)):
        if links.sum() == 1:
            pins[("x", td, int(np.argmax(links)))] = 1.0
    for c in np.flatnonzero(lp.lower[:ij] == lp.upper[:ij]):
        pins[("y", *divmod(int(c), num_uavs))] = float(lp.lower[c])
    return pins


def _branching(pins0, pins1):
    """The one entry a pair's two children pin at 0 and at 1; every other entry that
    they pin apart, or that only one of them pins, is the same TD's, through its access row."""
    differ = [k for k in pins0.keys() & pins1.keys() if pins0[k] != pins1[k]]
    [key] = [k for k in differ if (pins0[k], pins1[k]) == (0.0, 1.0)]
    assert all(k[1] == key[1] for k in [*differ, *(pins0.keys() ^ pins1.keys())])
    return key


# 5x3 with tight access quotas: the dive branches 4 times on access, then 3 times on compute
_ACCESS_AND_COMPUTE_BRANCHINGS = (
    parse_config(
        {
            "scenario": {
                "num_tds": 5,
                "num_uavs": 3,
                "quota_uav": 3,
                "quota_hap": 2,
                "radio": {"ref_gain_uav_hap_db": -10},
                "energy": {"uav_budget_j": 31, "uav_chip_coeff": 4e-28},
            },
            "ambiguity": {"per_device_history": True, "history_len": 30, "epsilon": 0.5},
        }
    ),
    9925,
)


@pytest.fixture
def dive_lps(monkeypatch):
    """Every (LP, solution, start basis) the dive solves, in order."""
    solved = []
    solve = mdrloa.solve_lp

    def capture(lp, start=None):
        solution = solve(lp, start=start)
        solved.append((lp, solution, start))
        return solution

    monkeypatch.setattr(mdrloa, "solve_lp", capture)
    return solved


def _branchings(dive_lps):
    """The children after the root, per branching: (parent LP, parent solution, the
    branching's [(LP, solution), ...] in the order solved). A branching's children are
    the LPs that start from its parent's final basis."""
    parents = {id(solution.basis): (lp, solution) for lp, solution, _ in dive_lps}
    groups = []
    for lp, solution, start in dive_lps[1:]:
        if not groups or groups[-1][1].basis is not start:
            groups.append((*parents[id(start)], []))
        groups[-1][2].append((lp, solution))
    return groups


def _ties(value, other):
    """The dive's tie rule: `value` within 1e-12 relative of `other`."""
    return value <= other + 1e-12 * max(1.0, abs(other))


def _branched_on(parent_lp, child1_lp):
    """"y" when child 1 raises a lower bound over its parent (y = 1), else "x"."""
    return "y" if (child1_lp.lower > parent_lp.lower).any() else "x"


class TestDiveLps:
    def test_children_leave_the_base_p2_unchanged(self, monkeypatch, dive_lps):
        built = []
        build = mdrloa.build_p2

        def capture_build(*args):
            lp = build(*args)
            built.append((lp, _lp_bytes(lp)))
            return lp

        monkeypatch.setattr(mdrloa, "build_p2", capture_build)
        # worst case = the largest atom: this dive branches on seed 3
        result = mdrloa_solve(_binding_scenario(3), _uniform_sets(10, radius=2.0))
        assert result.lp_solve_count == len(dive_lps) > 2
        [(base, snapshot)] = built
        assert _lp_bytes(base) == snapshot
        assert dive_lps[0][0] is base
        assert (base.lower == 0.0).all() and (base.upper == 1.0).all()
        for child, *_ in dive_lps:
            assert child.matrix is base.matrix and child.objective is base.objective
        assert any((child.lower == child.upper).any() for child, *_ in dive_lps)

    def test_one_dive_builds_p2s_standard_form_once(self, monkeypatch, dive_lps):
        built = []

        class Counted(lp_module._StandardForm):
            def __init__(self, lp):
                built.append(lp)
                super().__init__(lp)

        monkeypatch.setattr(lp_module, "_StandardForm", Counted)
        cfg, seed = _ACCESS_AND_COMPUTE_BRANCHINGS
        scenario = generate_scenario(cfg.scenario, seed)
        result = mdrloa_solve(scenario, build_ambiguity_sets(cfg, seed))
        assert result.lp_solve_count == len(dive_lps) > 10
        base = dive_lps[0][0]
        assert built == [base]
        assert all(lp._form is base._form for lp, *_ in dive_lps)

    def test_root_integral_dive_solves_one_lp(self, dive_lps):
        sc = _scenario()
        result = mdrloa_solve(sc, _uniform_sets(10))
        assert result.lp_solve_count == len(dive_lps) == 1
        [(_, root, _)] = dive_lps
        np.testing.assert_array_equal(result.decision.vector(), np.rint(root.x))

    def test_a_root_then_one_or_two_children_per_branching(self, dive_lps):
        result = mdrloa_solve(_binding_scenario(3), _uniform_sets(10, radius=2.0))
        root_lp, root, _ = dive_lps[0]
        j = result.decision.x.shape[1]
        assert _pins(root_lp, j) == {} and root.status is LpStatus.OPTIMAL
        branchings = _branchings(dive_lps)
        sizes = [len(children) for *_, children in branchings]
        assert branchings and result.lp_solve_count == len(dive_lps) == 1 + sum(sizes)
        assert set(sizes) == {1, 2}
        chosen = root
        for parent_lp, parent, children in branchings:
            # each branching starts from the LP the last one kept
            assert parent is chosen
            (lp1, one), *rest = children
            lat1 = one.objective_value if one.status is LpStatus.OPTIMAL else np.inf
            # child 1 first: alone when it ties with its parent, else with child 0
            assert len(children) == (1 if _ties(lat1, parent.objective_value) else 2)
            parent_pins, pins1 = _pins(parent_lp, j), _pins(lp1, j)
            assert parent_pins.items() <= pins1.items()
            if rest:
                [(lp0, zero)] = rest
                assert _branching(_pins(lp0, j), pins1)[0] == _branched_on(parent_lp, lp1)
                lat0 = zero.objective_value if zero.status is LpStatus.OPTIMAL else np.inf
                chosen = one if _ties(lat1, lat0) else zero
            else:
                assert any(value == 1.0 and k not in parent_pins for k, value in pins1.items())
                chosen = one
        # the last branching's chosen child is the decision
        np.testing.assert_array_equal(result.decision.vector(), np.rint(chosen.x))
        latency = result.worst_case_expected_latency
        assert latency == pytest.approx(chosen.objective_value, rel=1e-12)

    def test_every_lp_after_the_access_phase_fixes_the_access_block(self, dive_lps):
        cfg, seed = _ACCESS_AND_COMPUTE_BRANCHINGS
        scenario = generate_scenario(cfg.scenario, seed)
        result = mdrloa_solve(scenario, build_ambiguity_sets(cfg, seed))
        i, j = scenario.num_tds, scenario.num_uavs
        branchings = _branchings(dive_lps)
        sizes = [len(children) for *_, children in branchings]
        assert result.lp_solve_count == len(dive_lps) == 1 + sum(sizes)
        names = [_branched_on(parent_lp, children[0][0]) for parent_lp, _, children in branchings]
        access = names.count("x")
        assert 0 < access < len(names) and set(names[:access]) == {"x"}
        for *_, children in branchings[access:]:
            for lp, _ in children:
                pins = _pins(lp, j)
                x = [[pins[("x", td, uav)] for uav in range(j)] for td in range(i)]
                np.testing.assert_array_equal(x, result.decision.x)

    @pytest.fixture
    def failing_certificate(self, monkeypatch):
        """Every optimal LP's certificate reports a dual residual of 1e-3."""
        check = lp_module.check_solution

        def wrong(lp, solution):
            return dataclasses.replace(check(lp, solution), max_dual_residual=1e-3)

        monkeypatch.setattr(lp_module, "check_solution", wrong)

    @pytest.mark.usefixtures("failing_certificate")
    def test_uncertified_lp_raises(self):
        with pytest.raises(SolverError, match="max_dual_residual = 0.001 > 1e-08"):
            mdrloa_solve(_scenario(), _uniform_sets(10))

    @pytest.mark.usefixtures("failing_certificate")
    def test_uncertified_lp_exits_4(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"experiment": {"seeds": [1]}}), encoding="utf-8")
        assert main(["solve", "--config", str(config)]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SolverError" in captured.err and "max_dual_residual" in captured.err


PERFBENCH_CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"

# 4x3 instances on 9 of whose seeds 1-20 dive LPs once missed their certificate by roundoff
_CERTIFICATE_NEAR_MISSES = parse_config(
    {
        "scenario": {
            "num_tds": 4,
            "num_uavs": 3,
            "quota_uav": 4,
            "quota_hap": 1,
            "energy": {"uav_budget_j": 45, "uav_chip_coeff": 5e-28},
        },
        "ambiguity": {"history_len": 30, "epsilon": 0.9},
    }
)


def _outcome(result):
    """What a dive reports: its decision, latency and relaxation bound."""
    return (result.decision.to_dict(), result.worst_case_expected_latency, result.relaxation_bound)


def test_skipping_decided_siblings_matches_the_dive_with_both_children(monkeypatch):
    """Child 0 goes unsolved only where child 1 ties with its parent; nothing else moves."""
    configs = [
        (load_config(PERFBENCH_CONFIGS / f"{name}.json"), range(1, 6))
        for name in ("eval-default", "eval-binding", "ladder-30x5")
    ]
    configs.append((_CERTIFICATE_NEAR_MISSES, range(1, 21)))
    solve = mdrloa._solve
    counts = collections.Counter()

    def against_reference(scenario, means, method):
        try:
            want, decided = dive_with_both_children(scenario, means, method)
        except InfeasibleProblemError as exc:
            with pytest.raises(InfeasibleProblemError) as info:
                solve(scenario, means, method)
            assert str(info.value) == str(exc)
            counts["dead ends"] += 1
            raise
        got = solve(scenario, means, method)
        assert _outcome(got) == _outcome(want) and got.method == want.method
        assert got.lp_solve_count == want.lp_solve_count - decided
        counts.update(dives=1, skipped=decided)
        return got

    monkeypatch.setattr(mdrloa, "_solve", against_reference)
    for cfg, seeds in configs:
        experiment = dataclasses.replace(
            cfg.experiment, seeds=tuple(seeds), methods=("dro", "do", "ro")
        )
        evaluation.compare_methods(dataclasses.replace(cfg, experiment=experiment))
    # 65 dives skip 9 child 0s; the 40 dead ends are all on the 4x3 config
    assert counts["dives"] > 0 and counts["skipped"] > 0 and counts["dead ends"] > 0


class TestTieRobustChoice:
    def test_two_ulp_nudges_keep_the_decision(self, monkeypatch, dive_lps):
        scenario = _binding_scenario(39)  # RO: every size at the largest atom
        decision = ro_solve(scenario, SPACE).decision.to_dict()
        # some branching is decided by a tie: a lone child 1 with its parent, or the two
        # children with each other
        lats = [
            [sol.objective_value for sol in (parent, *(sol for _, sol in children))][-2:]
            for _, parent, children in _branchings(dive_lps)
        ]
        assert any(
            None not in pair and abs(pair[0] - pair[1]) <= 1e-12 * abs(pair[0]) for pair in lats
        )
        solve = mdrloa.solve_lp
        for direction in (1, -1):

            def nudged(lp, direction=direction, **kwargs):
                solution = solve(lp, **kwargs)
                if solution.status is not LpStatus.OPTIMAL:
                    return solution
                # a compute branching's children differ by one column fixed at 1, so they
                # move apart; this dive's ties are all in its compute phase
                sign = direction * (-1) ** int((lp.lower == 1.0).sum())
                value = solution.objective_value
                return dataclasses.replace(
                    solution, objective_value=float(value + sign * 2 * np.spacing(value))
                )

            monkeypatch.setattr(mdrloa, "solve_lp", nudged)
            assert ro_solve(scenario, SPACE).decision.to_dict() == decision


class TestAgainstExhaustive:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_dive_near_optimal(self, seed):
        sc = _scenario(seed=seed, num_tds=4, num_uavs=2, quota_uav=2)
        sets = _uniform_sets(4)
        _, means = worst_case_distributions(sets)
        dive = mdrloa_solve(sc, sets)
        opt = exhaustive_solve(sc, means)
        assert dive.worst_case_expected_latency <= 1.10 * opt.worst_case_expected_latency
        assert dive.relaxation_bound <= opt.worst_case_expected_latency + 1e-9

    def test_exhaustive_size_guard(self):
        with pytest.raises(SizeError):
            exhaustive_solve(_scenario(), np.full(10, 1e6))

    def test_exhaustive_infeasible(self):
        sc = _scenario(num_tds=3, num_uavs=1, quota_uav=2)
        with pytest.raises(InfeasibleProblemError):
            exhaustive_solve(sc, np.full(3, 1e6))

    def test_exhaustive_shape_error(self):
        with pytest.raises(ShapeError):
            exhaustive_solve(_scenario(num_tds=4, num_uavs=2), np.full(3, 1e6))

    @pytest.mark.parametrize(
        "solve",
        [exhaustive_solve, lambda sc, means: mdrloa._solve(sc, means, METHOD_MDRLOA)],
        ids=["exhaustive", "dive"],
    )
    def test_nan_mean_size_is_a_config_error(self, solve):
        means = np.full(4, 1e6)
        means[2] = np.nan
        with pytest.raises(ConfigError, match="must be finite"):
            solve(_scenario(num_tds=4, num_uavs=2), means)


class TestExhaustiveTieRule:
    # one UAV and equal sizes: which of the six TDs relay ties, 15 ways
    CONFIG = parse_config(
        {
            "scenario": {
                "num_tds": 6,
                "num_uavs": 1,
                "quota_uav": 6,
                "quota_hap": 4,
                "radio": {"ref_gain_uav_hap_db": -10},
                "energy": {"uav_budget_j": 30},
            },
            "ambiguity": {"epsilon": 0, "history_len": 30},
        }
    )

    def test_first_tied_point_wins_and_survives_nudges(self, monkeypatch):
        scenario = generate_scenario(self.CONFIG.scenario, 266)
        means = worst_case_distributions(build_ambiguity_sets(self.CONFIG, 266))[1]
        feasible = list(feasible_decisions(scenario, means))
        least = min(latency for _, latency in feasible)
        tied = [d.to_dict() for d, latency in feasible if latency <= least + 1e-12 * least]
        assert len(tied) > 1
        assert exhaustive_solve(scenario, means).decision.to_dict() == tied[0]
        build = mdrloa.build_p2
        for direction in (1, -1):

            def nudged(*args, direction=direction):
                lp = build(*args)
                # alternate signs, so that tied points move apart
                signs = direction * (-1.0) ** np.arange(lp.objective.size)
                nudge = signs * 2 * np.spacing(lp.objective)
                return dataclasses.replace(lp, objective=lp.objective + nudge)

            monkeypatch.setattr(mdrloa, "build_p2", nudged)
            assert exhaustive_solve(scenario, means).decision.to_dict() == tied[0]


class TestBaselines:
    def test_do_uses_mean_atom(self):
        sc = _scenario(seed=2)
        result = do_solve(sc, SPACE)
        assert result.method == METHOD_DO
        result.decision.validate(sc)
        # reported latency is evaluated at the 15 Mbit average estimate
        est = np.full(10, 15e6)
        assert result.worst_case_expected_latency == pytest.approx(
            expected_latency(result.decision, sc, est), rel=1e-12
        )

    def test_ro_uses_max_atom(self):
        sc = _scenario(seed=2)
        result = ro_solve(sc, SPACE)
        assert result.method == METHOD_RO
        est = np.full(10, 27e6)
        assert result.worst_case_expected_latency == pytest.approx(
            expected_latency(result.decision, sc, est), rel=1e-12
        )

    def test_ro_latency_at_least_do(self):
        # same instance scored at a larger per-bit budget can't be cheaper
        sc = _scenario(seed=6)
        assert (
            ro_solve(sc, SPACE).worst_case_expected_latency
            >= do_solve(sc, SPACE).worst_case_expected_latency - 1e-9
        )

    def test_result_serialization(self):
        result = do_solve(_scenario(), SPACE)
        data = result.to_dict()
        assert data["method"] == METHOD_DO
        assert set(data["decision"]) == {"x", "y", "z"}


@st.composite
def _small_instances(draw, max_tds=6, max_uavs=3):
    """A run config with I <= max_tds and J <= max_uavs, and a scenario seed."""
    i = draw(st.integers(2, max_tds))
    j = draw(st.integers(1, max_uavs))
    cfg = parse_config(
        {
            "scenario": {
                "num_tds": i,
                "num_uavs": j,
                "quota_uav": draw(st.integers(-(-i // j), i)),  # room for every TD
                "quota_hap": draw(st.integers(0, i)),
                "radio": {"ref_gain_uav_hap_db": draw(st.sampled_from([-60.0, -10.0]))},
                "energy": {
                    "uav_budget_j": draw(st.integers(25, 100)),
                    # up to 5x the default per-bit compute energy, so that budgets bind
                    "uav_chip_coeff": draw(st.integers(1, 5)) * 1e-28,
                },
            },
            "ambiguity": {
                "history_len": draw(st.sampled_from([30, 200])),
                "per_device_history": draw(st.booleans()),
                "epsilon": draw(st.floats(0.0, 1.0)),
            },
        }
    )
    return cfg, draw(st.integers(0, 10_000))


def test_dive_between_relaxation_bound_and_exhaustive_optimum():
    outcomes = collections.Counter()

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_small_instances())
    @example(INFEASIBLE_CHILD_REPORTED_OPTIMAL)
    def check(instance):
        cfg, seed = instance
        scenario = generate_scenario(cfg.scenario, seed)
        sets = build_ambiguity_sets(cfg, seed)
        means = worst_case_distributions(sets)[1]
        try:
            best = exhaustive_solve(scenario, means)
        except InfeasibleProblemError:
            outcomes["infeasible"] += 1
            return
        try:
            dive = mdrloa_solve(scenario, sets)
        except InfeasibleProblemError:
            outcomes["dead end"] += 1
            return
        outcomes["checked"] += 1
        best.decision.validate(scenario)
        dive.decision.validate(scenario)
        opt, lat = best.worst_case_expected_latency, dive.worst_case_expected_latency
        assert dive.relaxation_bound <= opt + 1e-9 * abs(opt)
        assert opt <= lat + 1e-9 * abs(lat)
        uav, hap = expected_energy(dive.decision, scenario, means)
        en = scenario.energy
        assert (uav <= en.uav_budget * (1 + 1e-9)).all() and hap <= en.hap_budget * (1 + 1e-9)

    check()
    print(f"dive vs exhaustive: {dict(outcomes)}")  # 83 checked, 18 infeasible when written
    assert outcomes["checked"] >= 50


def test_exhaustive_matches_a_brute_force_over_decisions():
    outcomes = collections.Counter()

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_small_instances(max_tds=4, max_uavs=2))
    @example(INFEASIBLE_CHILD_REPORTED_OPTIMAL)
    def check(instance):
        cfg, seed = instance
        scenario = generate_scenario(cfg.scenario, seed)
        means = worst_case_distributions(build_ambiguity_sets(cfg, seed))[1]
        latencies = [latency for _, latency in feasible_decisions(scenario, means)]
        if not latencies:
            outcomes["infeasible"] += 1
            with pytest.raises(InfeasibleProblemError):
                exhaustive_solve(scenario, means)
            return
        outcomes["checked"] += 1
        result = exhaustive_solve(scenario, means)
        assert result.lp_solve_count == 0
        assert result.relaxation_bound == result.worst_case_expected_latency
        assert result.worst_case_expected_latency == pytest.approx(min(latencies), rel=1e-12)

    check()
    print(f"exhaustive vs brute force: {dict(outcomes)}")
    assert outcomes["checked"] >= 30 and outcomes["infeasible"] >= 5
