"""Workloads, timed passes and metrics of the dro-offload benchmark.

Every workload is a closed loop driven by one process: a pass is one
call of `evaluation.compare_methods` on the workload's config, exactly
as `dro-offload evaluate` makes it, and the next pass starts when the
previous one returns. Passes repeat until the run's seconds are spent;
times are medians over passes. End-to-end metrics come from untraced
passes. A traced run alternates untraced and traced passes, so the
tracing overhead is measured in the same run. Correctness is checked on
a captured pass outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import spans
from dro_offload import evaluation
from dro_offload.config import load_config
from dro_offload.errors import SolverError
from dro_offload.evaluation import EvaluationReport

CONFIGS = Path(__file__).resolve().parent / "configs"
SETUP_REPEATS = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreter: time `import dro_offload` through the config parse.
SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import dro_offload\n"
    "dro_offload.load_config(sys.argv[1])\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass(frozen=True)
class Workload:
    config: Path
    oracle: bool = False  # compare every root LP objective with SciPy's HiGHS
    binding: bool = False  # require the preset to use relays and separate RO from DO


WORKLOADS = {
    "eval-default": Workload(CONFIGS / "eval-default.json", oracle=True),
    "eval-binding": Workload(CONFIGS / "eval-binding.json", binding=True),
    "ladder-30x5": Workload(CONFIGS / "ladder-30x5.json", oracle=True),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "lp.solves": "count",
    "lp.solve_s": "s",
    "lp.solve_p50_ms": "ms",
    "lp.solve_p90_ms": "ms",
    "lp.infeasible": "count",
    "lp.certify_s": "s",
    "lp.max_residual": "1",
    "lp.max_gap_rel": "1",
    "mdrloa.decisions": "count",
    "mdrloa.solve_s": "s",
    "mdrloa.self_s": "s",
    "mdrloa.lp_per_decision": "1",
    "mdrloa.root_integral_share": "1",
    "mdrloa.failed_share": "1",
    "model.build_p2_s": "s",
    "model.p2_rows": "count",
    "model.p2_cols": "count",
    "geometry.scenario_s": "s",
    "ambiguity.sets_s": "s",
    "evaluation.self_s": "s",
    "evaluation.compare_calls": "count",
    "evaluation.parallel_efficiency": "1",
    "trace.overhead_s": "s",
    "trace.unattributed_share": "1",
}


def workload_config(workload: Workload, seed: int):
    """The workload's config with its seed list shifted so that seed 1 is the list as written."""
    cfg = load_config(workload.config)
    seeds = tuple(s + seed - 1 for s in cfg.experiment.seeds)
    return replace(cfg, experiment=replace(cfg.experiment, seeds=seeds))


def _isolated(cfg) -> EvaluationReport:
    """Evaluate decision by decision, so one that raises leaves no row and the rest still run."""
    rows = []
    exp = cfg.experiment
    for seed in exp.seeds:
        for method in exp.methods:
            one = replace(cfg, experiment=replace(exp, seeds=(seed,), methods=(method,)))
            with contextlib.suppress(SolverError):
                rows.extend(evaluation.compare_methods(one).rows)
    return EvaluationReport(rows=tuple(rows))


def run_pass(cfg, tracer: spans.Tracer | None = None) -> tuple[EvaluationReport, float]:
    """One pass through the public entry point; returns the report and its wall time."""
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        try:
            report = evaluation.compare_methods(cfg)
        except SolverError:
            # a decision's numerical failure aborts compare_methods; count it, keep going
            if tracer is not None:
                tracer.reset_decisions()
            report = _isolated(cfg)
    return report, time.perf_counter() - start


def measure_setup(root: Path, config: Path) -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(config)],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def environment(root: Path) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def _sha(report: EvaluationReport) -> str:
    return hashlib.sha256(report.to_csv().encode()).hexdigest()


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure(workload: Workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload for `seconds`; returns (result line, info line) as dicts."""
    cfg = workload_config(workload, seed)
    per_pass = len(cfg.experiment.seeds) * len(cfg.experiment.methods)
    shas = set()
    untraced: list[float] = []
    traced: list[tuple[spans.Tracer, float]] = []
    start = time.perf_counter()
    while True:
        report, wall = run_pass(cfg)
        untraced.append(wall)
        shas.add(_sha(report))
        spent = wall
        if trace:
            # the first traced pass also captures LPs for the checks
            tracer = spans.Tracer(capture=not traced)
            report, wall = run_pass(cfg, tracer)
            traced.append((tracer, wall))
            shas.add(_sha(report))
            spent += wall
            if len(traced) == 1:
                captured, captured_report = tracer, report
        if time.perf_counter() - start + spent > seconds:
            break
    passes = len(untraced) + len(traced)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not trace:
        captured = spans.Tracer(capture=True)
        captured_report, _ = run_pass(cfg, captured)
        shas.add(_sha(captured_report))
    failed = sum(d.failed for d in captured.decisions)
    # every pass repeats the same decisions, so a run attempts each once: the
    # counts depend on the seed alone, not on how many passes fit in the run
    failed_counts = sorted({sum(d.failed for d in t.decisions) for t, _ in traced} | {failed})
    problems = checks.check_decisions(captured.decisions, workload.oracle)
    if workload.binding:
        problems += checks.check_binding(captured.decisions, captured_report)
    if len(shas) != 1:
        problems.append(f"results CSV differs between passes: {sorted(shas)}")
    if len(failed_counts) != 1:
        problems.append(f"failed decisions differ between passes: {failed_counts}")

    if trace:
        layers = [spans.layer_metrics(t, wall) for t, wall in traced]
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values["trace.overhead_s"] = statistics.median(w for _, w in traced) - statistics.median(
            untraced
        )
        metrics = _metrics(values, PER_LAYER_UNITS)
        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{workload.config.stem}-seed{seed}.json"
        spans_file.write_text(json.dumps(traced[0][0].to_json()))
    else:
        wall = statistics.median(untraced)
        values = {
            "setup_s": measure_setup(root, workload.config),
            "wall_s": wall,
            "decisions_per_s": per_pass / wall,
            "peak_rss_mb": rss_mb,
        }
        metrics = _metrics(values, END_TO_END_UNITS)

    result = {
        "correct": not problems,
        "attempted": per_pass,
        "failed": failed,
        "metrics": metrics,
    }
    info = {
        "workload": workload.config.stem,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "pass_wall_s": untraced,
        "decisions_per_pass": per_pass,
        "csv_sha256": sorted(shas)[0],
        "problems": problems,
        "env": environment(root),
    }
    return result, info
