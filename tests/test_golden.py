"""Golden outputs: results CSVs of `evaluate` on the benchmark configs, seeds 1-5, and
of `sweep` over eps and over Q on the binding config, seeds 1-3; the `generate` JSON of
the default config at seed 1 and of the 30x5 ladder config at seed 2; the `solve` JSON
of `exhaustive` and `dro` at seeds 1-5 on a 4x2 and a binding 6x3 config; the config
hashes of those two configs; and one SHA-256 over every LP the benchmark's dives solve.

A change that moves a row must list the moved rows in CHANGES.md and
rewrite the files with `PYTHONPATH=src python tests/test_golden.py`,
which prints each changed row's old and new line, per file, and rewrites
`LP_SHA256` in this file. A change that moves an LP but no row lists the
moved LPs in CHANGES.md too.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from dro_offload import mdrloa
from dro_offload.cli import main
from dro_offload.config import default_config, load_config
from dro_offload.evaluation import EvaluationReport, compare_methods, sweep
from dro_offload.lp import LpStatus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# golden file -> (benchmark config, seeds, sweeps as (param, values); none means `evaluate`)
GOLDENS = {
    "eval-default": ("eval-default", (1, 2, 3, 4, 5), ()),
    "eval-binding": ("eval-binding", (1, 2, 3, 4, 5), ()),
    "ladder-30x5": ("ladder-30x5", (1, 2, 3, 4, 5), ()),
    "sweep-binding": ("eval-binding", (1, 2, 3), (("eps", (0.1, 0.3, 1.0)), ("Q", (10, 30, 100)))),
}
# golden file -> `generate` arguments
GENERATE = {
    "generate-default-seed1": ["--seed", "1"],
    "generate-ladder-30x5-seed2": [
        "--seed", "2", "--config", str(ROOT / "perfbench" / "configs" / "ladder-30x5.json")
    ],
}
# `solve` golden: config name -> config JSON, each solved by both methods at seeds 1-5
SOLVE_CONFIGS = {
    "small-4x2": {"scenario": {"num_tds": 4, "num_uavs": 2, "quota_uav": 2}},
    "binding-6x3": {
        "scenario": {
            "num_tds": 6, "num_uavs": 3, "quota_uav": 3, "quota_hap": 2,
            "radio": {"ref_gain_uav_hap_db": -10}, "energy": {"uav_budget_j": 20},
        },
        "ambiguity": {"per_device_history": True, "history_len": 30},
    },
}
CONFIG_SHA256 = {
    "default": "1a8a97bc2f243e4b8a0e6f27fd58a51d1b92fcba92fb568394eee872151f7935",
    "ladder-30x5": "b53c40a5324318cc2fc048fef7510e8ed96c8bc2443492e1c35075eab8cc3528",
}
# every LP the dives of the three benchmark configs solve at benchmark `--seed` 1-3
LP_SHA256 = "1549c58caa7bbc1c0966783cfd5ffae6f00554c59fe95eb3c00cbc72f19a25b1"


def _csv(name: str) -> str:
    config_name, seeds, sweeps = GOLDENS[name]
    cfg = load_config(ROOT / "perfbench" / "configs" / f"{config_name}.json")
    cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, seeds=seeds))
    if not sweeps:
        return compare_methods(cfg).to_csv()
    rows = tuple(row for param, values in sweeps for row in sweep(cfg, param, values).rows)
    return EvaluationReport(rows=rows).to_csv()


def _generate(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["generate", *GENERATE[name]]) == 0
    return out.getvalue()


def _solve(name: str) -> str:
    """Every `solve` run of the golden, in order: a header line with its exit code, then
    its stdout, or its stderr when it fails."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for config_name, data in SOLVE_CONFIGS.items():
            path = Path(tmp) / f"{config_name}.json"
            path.write_text(json.dumps(data))
            for method, seed in itertools.product(("exhaustive", "dro"), range(1, 6)):
                argv = ["solve", "--config", str(path), "--seed", str(seed), "--method", method]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                header = f"== {config_name} --method {method} --seed {seed}: exit {code}\n"
                runs.append(header + (out if code == 0 else err).getvalue())
    return "".join(runs)


def _lp_digest() -> tuple[int, str]:
    """The number of LPs that `evaluate` solves on each benchmark config with its seed
    list shifted as the benchmark's `--seed` 1, 2 and 3 shift it, and one SHA-256 over
    them in order: status, then for an optimum x, duals, reduced costs and basis ids
    as bytes, and the objective and certificate fields as float hex."""
    digest, count = hashlib.sha256(), 0
    solve = mdrloa.solve_lp

    def record(lp, start=None):
        nonlocal count
        solution = solve(lp, start=start)
        count += 1
        digest.update(solution.status.value.encode())
        if solution.status is LpStatus.OPTIMAL:
            basis = solution.basis
            for values in (solution.x, solution.duals, solution.reduced_costs):
                digest.update(values.tobytes())
            digest.update(basis.basic.tobytes() + basis.at_upper.tobytes())
            fields = (solution.objective_value, *dataclasses.astuple(solution.certificate))
            digest.update(" ".join(float(v).hex() for v in fields).encode())
        return solution

    with mock.patch.object(mdrloa, "solve_lp", record):
        for name in ("eval-default", "eval-binding", "ladder-30x5"):
            cfg = load_config(ROOT / "perfbench" / "configs" / f"{name}.json")
            for shift in (0, 1, 2):
                seeds = tuple(seed + shift for seed in cfg.experiment.seeds)
                experiment = dataclasses.replace(cfg.experiment, seeds=seeds)
                compare_methods(dataclasses.replace(cfg, experiment=experiment))
    return count, digest.hexdigest()


@pytest.mark.parametrize("name", GOLDENS)
def test_results_csv_matches_golden(name):
    assert _csv(name).encode() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", GENERATE)
def test_generate_matches_golden(name):
    assert _generate(name).encode() == (GOLDEN / f"{name}.json").read_bytes()


def test_solve_matches_golden():
    assert _solve("solve").encode() == (GOLDEN / "solve.txt").read_bytes()


def test_config_hashes_are_pinned():
    ladder = load_config(ROOT / "perfbench" / "configs" / "ladder-30x5.json")
    assert default_config().hash() == CONFIG_SHA256["default"]
    assert ladder.hash() == CONFIG_SHA256["ladder-30x5"]


def test_every_benchmark_lp_matches_its_digest():
    count, digest = _lp_digest()
    assert count == 747 and digest == LP_SHA256


if __name__ == "__main__":
    outputs = [(name, ".csv", _csv) for name in GOLDENS]
    outputs += [(name, ".json", _generate) for name in GENERATE]
    outputs += [("solve", ".txt", _solve)]
    for name, suffix, render in outputs:
        path = GOLDEN / f"{name}{suffix}"
        old = path.read_text().splitlines() if path.exists() else []
        new = render(name)
        changed = [
            (before, after)
            for before, after in itertools.zip_longest(old, new.splitlines(), fillvalue="")
            if before != after
        ]
        print(f"{path.name}: {len(changed)} rows changed")
        for before, after in changed:
            print(f"  - {before}\n  + {after}")
        path.write_bytes(new.encode())
    count, digest = _lp_digest()
    print(f"LP_SHA256 over {count} LPs: {'unchanged' if digest == LP_SHA256 else 'changed'}")
    source = Path(__file__).read_text()
    Path(__file__).write_text(re.sub(r'^LP_SHA256 = ".*"$', f'LP_SHA256 = "{digest}"', source, flags=re.M))
