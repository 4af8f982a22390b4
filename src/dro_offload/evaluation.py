"""Monte-Carlo evaluation harness: solve, realize, compare, sweep.

For each seed the harness generates a scenario, samples a task-size
history from the ground-truth distribution, builds the ambiguity set,
solves with every configured method, then draws one fresh realization of
the task sizes from the truth and scores each decision on P2 built at
those sizes: latency is P2's objective, the energies are the activity of
its energy rows, and a decision is feasible when it meets every row. Results
are flat rows that serialize to a deterministic CSV: same config and
seeds means byte-identical output.

Histories and the realization come from one array sampler: each stream
`[seed, purpose, ...]` draws only its uniforms, and one pass maps them all to
atoms exactly as `Generator.choice` would and histograms every stream
(`ambiguity.reference_sets`), which returns one `AmbiguitySet` with a row per TD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguitySet, generate_history, reference_sets
from .config import METHODS, RunConfig
from .errors import ConfigError, InfeasibleProblemError
from .geometry import Scenario, generate_scenario
from .mdrloa import (
    METHOD_DO,
    METHOD_EXHAUSTIVE,
    METHOD_MDRLOA,
    METHOD_RO,
    SolveResult,
    do_solve,
    exhaustive_solve,
    mdrloa_solve,
    ro_solve,
)
from .model import build_p2, energy_use, meets_rows, worst_case_means

# independent per-purpose rng streams; geometry owns its own (0x6E0)
HISTORY_STREAM = 0x415
REALIZATION_STREAM = 0x7EA

METHOD_LABELS = {
    "dro": METHOD_MDRLOA,
    "do": METHOD_DO,
    "ro": METHOD_RO,
    "exhaustive": METHOD_EXHAUSTIVE,
}

CSV_COLUMNS = (
    "method",
    "seed",
    "param_name",
    "param_value",
    "realized_latency_s",
    "max_uav_energy_J",
    "hap_energy_J",
    "feasible",
)

# row order within one (param, seed) group, and in the summary
METHOD_ORDER = (METHOD_MDRLOA, METHOD_DO, METHOD_RO, METHOD_EXHAUSTIVE)
_METHOD_RANK = {m: k for k, m in enumerate(METHOD_ORDER)}


def draw_realization(config: RunConfig, seed: int) -> np.ndarray:
    """One task size per TD (bits, each a space atom), drawn from the truth."""
    amb, stream = config.ambiguity, [int(seed), REALIZATION_STREAM]
    return generate_history(amb.truth_distribution, amb.space, config.scenario.num_tds, stream)


def build_ambiguity_sets(config: RunConfig, seed: int) -> AmbiguitySet:
    """Histories -> empirical references -> one L1 ball per TD, in one set.

    TD i draws its own history on sample stream [seed, HISTORY_STREAM, i];
    with a shared history, one draw on [seed, HISTORY_STREAM] is every TD's row.
    """
    amb = config.ambiguity
    num_tds = config.scenario.num_tds
    streams = (
        [[int(seed), HISTORY_STREAM, i] for i in range(num_tds)]
        if amb.per_device_history
        else [[int(seed), HISTORY_STREAM]]
    )
    return reference_sets(
        amb.truth_distribution, amb.space, amb.history_len, streams, amb.effective_epsilon(), num_tds
    )


def solve_with_method(method: str, scenario: Scenario, ambiguity: AmbiguitySet) -> SolveResult:
    if method == "dro":
        return mdrloa_solve(scenario, ambiguity)
    if method == "do":
        return do_solve(scenario, ambiguity.space)
    if method == "ro":
        return ro_solve(scenario, ambiguity.space)
    if method == "exhaustive":
        return exhaustive_solve(scenario, worst_case_means(ambiguity))
    raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")


@dataclass(frozen=True)
class EvaluationRow:
    method: str
    seed: int
    param_name: str
    param_value: float | None
    realized_latency: float  # s; NaN when the solve failed
    max_uav_energy: float  # J above the basic cost
    hap_energy: float  # J above the basic cost
    feasible: bool

    def sort_key(self):
        pv = -math.inf if self.param_value is None else self.param_value
        return (self.param_name, pv, self.seed, _METHOD_RANK.get(self.method, 99))


def _fmt(value: float) -> str:
    if math.isnan(value):
        return ""
    return format(value, ".12g")


def evaluate_seed(
    config: RunConfig, seed: int, param_name: str = "", param_value: float | None = None
) -> list[EvaluationRow]:
    """Solve every configured method on one seeded instance and score it."""
    scenario = generate_scenario(config.scenario, seed)
    ambiguity = build_ambiguity_sets(config, seed)
    p2 = build_p2(scenario, draw_realization(config, seed))
    rows = []
    for method in config.experiment.methods:
        try:
            result = solve_with_method(method, scenario, ambiguity)
        except InfeasibleProblemError:
            latency = max_uav = hap = math.nan
            ok = False
        else:
            v = result.decision.vector()
            latency = float(p2.objective @ v)
            uav, hap = energy_use(p2, v, scenario.num_uavs)
            max_uav, ok = float(uav.max()), bool(meets_rows(p2, v))
        rows.append(
            EvaluationRow(
                method=METHOD_LABELS[method],
                seed=seed,
                param_name=param_name,
                param_value=param_value,
                realized_latency=latency,
                max_uav_energy=max_uav,
                hap_energy=hap,
                feasible=ok,
            )
        )
    return rows


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[EvaluationRow, ...]

    def sorted_rows(self) -> list[EvaluationRow]:
        return sorted(self.rows, key=EvaluationRow.sort_key)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.sorted_rows():
            lines.append(
                ",".join(
                    [
                        r.method,
                        str(r.seed),
                        r.param_name,
                        "" if r.param_value is None else _fmt(r.param_value),
                        _fmt(r.realized_latency),
                        _fmt(r.max_uav_energy),
                        _fmt(r.hap_energy),
                        "true" if r.feasible else "false",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())

    def groups(self) -> list[tuple[tuple[str, float | None], list[EvaluationRow]]]:
        seen: dict[tuple[str, float | None], list[EvaluationRow]] = {}
        for r in self.sorted_rows():
            seen.setdefault((r.param_name, r.param_value), []).append(r)
        return list(seen.items())

    def aggregates(self) -> dict:
        """Per (param, method): count, feasible count, mean/std latency, mean energies."""
        out: dict = {}
        for key, rows in self.groups():
            per_method: dict = {}
            for method in METHOD_ORDER:
                mrows = [r for r in rows if r.method == method]
                if not mrows:
                    continue
                good = [r for r in mrows if not math.isnan(r.realized_latency)]
                lat = np.array([r.realized_latency for r in good])
                per_method[method] = {
                    "count": len(mrows),
                    "solved": len(good),
                    "feasible": sum(r.feasible for r in mrows),
                    "mean_latency_s": float(lat.mean()) if good else math.nan,
                    "std_latency_s": float(lat.std()) if good else math.nan,
                    "mean_max_uav_energy_J": (
                        float(np.mean([r.max_uav_energy for r in good])) if good else math.nan
                    ),
                    "mean_hap_energy_J": (
                        float(np.mean([r.hap_energy for r in good])) if good else math.nan
                    ),
                }
            out[key] = per_method
        return out

    def summary(self) -> str:
        """Human-readable digest with the two headline relative savings."""
        lines = []
        for (pname, pvalue), per_method in self.aggregates().items():
            if pname:
                lines.append(f"[{pname} = {_fmt(pvalue)}]")
            else:
                lines.append("[default parameters]")
            for method, agg in per_method.items():
                lines.append(
                    f"  {method:10s} n={agg['count']} solved={agg['solved']} "
                    f"feasible={agg['feasible']} "
                    f"latency={_fmt(agg['mean_latency_s'])}s "
                    f"(std {_fmt(agg['std_latency_s'])}) "
                    f"max_uav={_fmt(agg['mean_max_uav_energy_J'])}J "
                    f"hap={_fmt(agg['mean_hap_energy_J'])}J"
                )
            main = per_method.get(METHOD_MDRLOA)
            if main is not None and not math.isnan(main["mean_latency_s"]):
                do = per_method.get(METHOD_DO)
                if do and do["mean_latency_s"] > 0:
                    pct = 100.0 * (do["mean_latency_s"] - main["mean_latency_s"]) / do["mean_latency_s"]
                    lines.append(f"  latency vs DO: {pct:+.2f}% lower")
                ro = per_method.get(METHOD_RO)
                if ro:
                    e_main = main["mean_max_uav_energy_J"] + main["mean_hap_energy_J"]
                    e_ro = ro["mean_max_uav_energy_J"] + ro["mean_hap_energy_J"]
                    if e_ro > 0:
                        pct = 100.0 * (e_ro - e_main) / e_ro
                        lines.append(f"  energy vs RO: {pct:+.2f}% lower")
        return "\n".join(lines) + "\n"

    def write_summary(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.summary())


def _evaluate_all(tasks: list[tuple], jobs: int) -> EvaluationReport:
    """Evaluate (config, seed, param_name, param_value) tasks, in one pool when jobs > 1."""
    if jobs > 1 and len(tasks) > 1:
        import concurrent.futures  # with logging, a few ms of every import when jobs is 1

        # a forking pool starts all its workers on the first submit: no more than the tasks
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(evaluate_seed, *zip(*tasks)))
    else:
        chunks = [evaluate_seed(*t) for t in tasks]
    return EvaluationReport(rows=tuple(r for chunk in chunks for r in chunk))


def compare_methods(
    config: RunConfig, param_name: str = "", param_value: float | None = None
) -> EvaluationReport:
    """Evaluate every (seed, method) pair of the experiment block."""
    tasks = [(config, s, param_name, param_value) for s in config.experiment.seeds]
    return _evaluate_all(tasks, config.experiment.jobs)


def sweep(config: RunConfig, param: str, values) -> EvaluationReport:
    """Repeat the comparison for each parameter value, all (value, seed) pairs in one pool.

    Sweeping Q under a fixed confidence level re-derives epsilon per
    value, since the config stores the confidence, not the radius.
    """
    tasks = []
    for value in map(float, values):
        cfg = config.with_override(param, value)
        tasks += [(cfg, s, param, value) for s in cfg.experiment.seeds]
    return _evaluate_all(tasks, config.experiment.jobs)
