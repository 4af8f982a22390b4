"""Correctness checks run on a captured pass, outside the timed region."""

from __future__ import annotations

import math

import numpy as np

from dro_offload.errors import ConfigError, ShapeError
from dro_offload.lp import EQ, GE, LE
from dro_offload.mdrloa import METHOD_DO, METHOD_RO

ORACLE_RTOL = 1e-7
BOUND_RTOL = 1e-9


def highs_objective(program) -> float | None:
    """Optimal objective of `program` from SciPy's HiGHS, or None if it is not optimal."""
    from scipy.optimize import linprog

    a = program.row_matrix()
    b = program.rhs_vector()
    rel = np.asarray(program.relations)
    a_ub = np.vstack([a[rel == LE], -a[rel == GE]])
    b_ub = np.concatenate([b[rel == LE], -b[rel == GE]])
    sign = 1.0 if program.sense == "min" else -1.0
    bounds = [
        (lo if math.isfinite(lo) else None, hi if math.isfinite(hi) else None)
        for lo, hi in zip(program.lower, program.upper)
    ]
    res = linprog(
        sign * program.objective,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a[rel == EQ] if (rel == EQ).any() else None,
        b_eq=b[rel == EQ] if (rel == EQ).any() else None,
        bounds=bounds,
        method="highs",
    )
    return sign * float(res.fun) if res.status == 0 else None


def check_decisions(decisions, oracle: bool) -> list[str]:
    """Check every decision that returned; one that raised is counted as failed instead."""
    problems = []
    for k, d in enumerate(decisions):
        if d.result is None:
            continue
        where = f"decision {k} ({d.method})"
        try:
            d.result.decision.validate(d.scenario)
        except (ShapeError, ConfigError) as exc:
            problems.append(f"{where}: invalid decision: {exc}")
        bound = d.result.relaxation_bound
        if d.result.worst_case_expected_latency < bound - BOUND_RTOL * max(1.0, abs(bound)):
            problems.append(
                f"{where}: dive latency {d.result.worst_case_expected_latency!r} "
                f"below relaxation bound {bound!r}"
            )
        if oracle:
            program, solution = d.lps[0]
            reference = highs_objective(program)
            ours = solution.objective_value
            if reference is None or abs(ours - reference) > ORACLE_RTOL * max(1.0, abs(reference)):
                problems.append(f"{where}: root LP objective {ours!r} != HiGHS {reference!r}")
    return problems


def check_binding(decisions, report) -> list[str]:
    """The binding preset must use a relay and separate RO's UAV energy from DO's."""
    problems = []
    if not any(d.result is not None and d.result.decision.z.any() for d in decisions):
        problems.append("binding preset: no decision uses a relay")
    energy = {(r.method, r.seed): r.max_uav_energy for r in report.rows}
    seeds = {r.seed for r in report.rows}
    pairs = [(energy.get((METHOD_RO, s)), energy.get((METHOD_DO, s))) for s in seeds]
    if not any(ro is not None and do is not None and abs(ro - do) > 0.0 for ro, do in pairs):
        problems.append("binding preset: RO max UAV energy equals DO's on every seed")
    return problems
