"""The names the benchmark harness in perfbench/ wraps and reads must keep working.

perfbench times the program by replacing module globals (`spans.PATCH_POINTS`)
and checks root LPs against HiGHS through the `LinearProgram` accessors, so a
refactor that renames or bypasses one of them breaks the benchmark while the
rest of this suite stays green. The benchmark's own correctness checks run
on one pass of each workload. The dive's warm-started children, which
perfbench never checks, are checked against HiGHS here, and so is every dive
LP against P2 with its x columns and flow rows kept. The crash-started roots
are checked against cold solves, and the pivots of the dive's LPs are counted.
"""

import collections
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from dro_offload import evaluation, mdrloa
from dro_offload import lp as lp_module
from dro_offload.config import load_config
from dro_offload.errors import InfeasibleProblemError
from dro_offload.evaluation import build_ambiguity_sets
from dro_offload.geometry import generate_scenario
from dro_offload.lp import LpStatus, solve_lp
from dro_offload.model import build_p2, crash_basis, worst_case_means

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from helpers import build_p2_with_flow, with_flow_bounds  # noqa: E402


@pytest.mark.parametrize(
    "module, attr, span",
    spans.PATCH_POINTS,
    ids=[f"{module.__name__}.{attr}" for module, attr, _ in spans.PATCH_POINTS],
)
def test_patch_point_resolves(module, attr, span):
    assert callable(getattr(module, attr))


def test_traced_pass_records_every_span(small_cfg):
    with spans.Tracer(capture=True) as tracer:
        report = evaluation.compare_methods(small_cfg)
    names = {s.name for s in tracer.spans}
    assert names == {name for _, _, name in spans.PATCH_POINTS}
    assert len(tracer.decisions) == len(report.rows)
    for decision in tracer.decisions:
        assert decision.lp_count == decision.result.lp_solve_count == len(decision.lps)
    assert tracer.p2_shape == (4 + 2 + 1 + 2 + 1, 2 * 8)


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_benchmark_correctness_gate_passes(name):
    # the checks the benchmark runs on its captured pass, on that pass at `--seed 1`
    workload = bench.WORKLOADS[name]
    assert workload.binding == (name == "eval-binding")
    cfg = bench.workload_config(workload, 1)
    tracer = spans.Tracer(capture=True)
    report, _ = bench.run_pass(cfg, tracer)
    assert len(tracer.decisions) == len(cfg.experiment.seeds) * len(cfg.experiment.methods)
    assert checks.check_decisions(tracer.decisions, workload.oracle) == []
    if workload.binding:
        assert checks.check_binding(tracer.decisions, report) == []
    assert sum(d.failed for d in tracer.decisions) == 0


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_highs_objective_matches_solve_lp(name):
    cfg = load_config(PERFBENCH / "configs" / f"{name}.json")
    # perfbench's root oracle skips eval-binding, whose roots have tied optima
    for seed in range(1, 21) if name == "eval-binding" else (1, 2):
        scenario = generate_scenario(cfg.scenario, seed)
        means = worst_case_means(build_ambiguity_sets(cfg, seed))
        for sizes in (means, np.full(scenario.num_tds, max(cfg.ambiguity.space.atoms))):
            program = build_p2(scenario, sizes)
            ours = solve_lp(program)
            reference = checks.highs_objective(program)
            assert ours.status is LpStatus.OPTIMAL and reference is not None
            rel = abs(ours.objective_value - reference) / max(1.0, abs(reference))
            assert rel <= checks.ORACLE_RTOL


def _seeds_1_to_5(name="eval-binding"):
    cfg = load_config(PERFBENCH / "configs" / f"{name}.json")
    experiment = dataclasses.replace(cfg.experiment, seeds=(1, 2, 3, 4, 5))
    return dataclasses.replace(cfg, experiment=experiment)


def test_traced_pass_forwards_the_warm_start(monkeypatch):
    starts = []
    solve = mdrloa.solve_lp

    def record(program, **kwargs):
        starts.append(kwargs.get("start") is not None)
        return solve(program, **kwargs)

    monkeypatch.setattr(mdrloa, "solve_lp", record)  # the tracer wraps this in turn
    with spans.Tracer(capture=True) as tracer:
        evaluation.compare_methods(_seeds_1_to_5())
    for decision in tracer.decisions:
        assert len(decision.lps) == decision.lp_count == decision.result.lp_solve_count
    assert len(starts) == sum(len(d.lps) for d in tracer.decisions)
    assert any(starts)


@pytest.fixture
def dive_pivots(monkeypatch):
    """(program, solution, pivots, root) of every LP the dive solves, in order.

    A dive's root is its first LP, the one with every bound at [0, 1]; each child
    fixes at least one column.
    """
    pivots = 0
    pivot = lp_module._pivot

    def counting(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    solved = []
    solve = mdrloa.solve_lp

    def record(program, **kwargs):
        before = pivots
        solution = solve(program, **kwargs)
        root = (program.lower == 0.0).all() and (program.upper == 1.0).all()
        solved.append((program, solution, pivots - before, root))
        return solution

    monkeypatch.setattr(lp_module, "_pivot", counting)
    monkeypatch.setattr(mdrloa, "solve_lp", record)
    return solved


def test_warm_dive_children_match_highs(dive_pivots):
    evaluation.compare_methods(_seeds_1_to_5())
    children = [entry[:3] for entry in dive_pivots if not entry[3]]
    statuses = set()
    for program, solution, _ in children:
        reference = checks.highs_objective(program)
        statuses.add(solution.status)
        if solution.status is LpStatus.OPTIMAL:
            assert reference is not None and solution.certificate.ok()
            rel = abs(solution.objective_value - reference) / max(1.0, abs(reference))
            assert rel <= checks.ORACLE_RTOL
        else:
            assert solution.status is LpStatus.INFEASIBLE and reference is None
    assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
    # cold, these children took 46.5 pivots each on average
    assert sum(count for *_, count in children) / len(children) <= 10


@pytest.mark.parametrize("name", ["eval-default", "eval-binding"])
def test_cold_roots_take_few_pivots(dive_pivots, name):
    evaluation.compare_methods(_seeds_1_to_5(name))
    roots = [count for *_, count, root in dive_pivots if root]
    assert len(roots) == 15
    # the crash basis already holds each TD's cheapest link, so the dual simplex
    # skips the I pivots that the slack basis spends on the access rows: from the
    # slack basis these roots took 12.2 and 19.1 pivots, and phase 1 on the
    # artificials' sum 57.8 and 79.7
    assert sum(roots) / len(roots) <= 10


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_crash_started_root_matches_cold_solve(name):
    cfg = load_config(PERFBENCH / "configs" / f"{name}.json")
    atoms = cfg.ambiguity.space.atoms
    for seed in range(1, 6):
        scenario = generate_scenario(cfg.scenario, seed)
        means = worst_case_means(build_ambiguity_sets(cfg, seed))
        for sizes in (means, np.full_like(means, np.mean(atoms)), np.full_like(means, max(atoms))):
            program = build_p2(scenario, sizes)
            cold = solve_lp(program)
            crash = solve_lp(program, start=crash_basis(program, scenario.num_tds))
            assert crash.status is cold.status is LpStatus.OPTIMAL
            assert crash.certificate.ok()
            gap = abs(crash.objective_value - cold.objective_value)
            assert gap <= 1e-12 * abs(cold.objective_value)


@pytest.mark.parametrize("name", ["eval-default", "eval-binding"])
def test_p2_lps_finish_in_the_dual_simplex(monkeypatch, dive_pivots, name):
    # the slack, crash or parent basis needs no column moved to its other bound to
    # start, and one dual simplex run ends at the certified optimum: no certify retry
    flips, runs = [], []
    for attr, calls in (("_flip", flips), ("_dual_simplex", runs)):
        original = getattr(lp_module, attr)

        def counting(*args, calls=calls, original=original):
            calls.append(len(dive_pivots))  # the LP being solved
            return original(*args)

        monkeypatch.setattr(lp_module, attr, counting)
    evaluation.compare_methods(_seeds_1_to_5(name))
    assert len(dive_pivots) >= 15 and sum(count for *_, count, _ in dive_pivots) > 0
    assert flips == [] and runs == list(range(len(dive_pivots)))


@pytest.mark.parametrize("name", ["eval-default", "eval-binding", "ladder-30x5"])
def test_every_dive_lp_matches_p2_with_flow_rows(monkeypatch, dive_pivots, name):
    flows = []
    build = mdrloa.build_p2

    def record(scenario, means):
        flows.append(build_p2_with_flow(scenario, means))
        return build(scenario, means)

    monkeypatch.setattr(mdrloa, "build_p2", record)
    cfg = load_config(PERFBENCH / "configs" / f"{name}.json")
    checked = collections.Counter()
    for seed in range(1, 6):
        scenario = generate_scenario(cfg.scenario, seed)
        amb = build_ambiguity_sets(cfg, seed)
        for solve in (mdrloa.mdrloa_solve, mdrloa.do_solve, mdrloa.ro_solve):
            first = len(dive_pivots)
            try:
                solve(scenario, amb if solve is mdrloa.mdrloa_solve else amb.space)
            except InfeasibleProblemError:
                checked["dead end"] += 1
            for program, solution, *_ in dive_pivots[first:]:
                # the same node on P2 with flow rows: y and z bounds as given, x within their sum
                flow = with_flow_bounds(program, flows[-1])
                reference = solve_lp(flow)
                assert reference.status is solution.status
                highs = [checks.highs_objective(lp) for lp in (program, flow)]
                checked[solution.status] += 1
                if solution.status is not LpStatus.OPTIMAL:
                    assert solution.status is LpStatus.INFEASIBLE and highs == [None, None]
                    continue
                assert reference.certificate.ok()
                ours, theirs = solution.objective_value, reference.objective_value
                assert abs(ours - theirs) <= 1e-12 * abs(theirs)
                for value in highs:
                    assert value is not None
                    assert abs(ours - value) <= checks.ORACLE_RTOL * max(1.0, abs(value))
    print(f"{name}: {dict(checked)}")
    assert checked[LpStatus.OPTIMAL] >= 15
