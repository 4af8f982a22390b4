"""Golden results CSVs: `evaluate` on the benchmark configs, seeds 1-5, and `sweep`
over eps and over Q on the binding config, seeds 1-3.

A change that moves a row must list the moved rows in CHANGES.md and
rewrite the files with `PYTHONPATH=src python tests/test_golden.py`,
which prints each changed row's old and new line, per file.
"""

import dataclasses
import itertools
from pathlib import Path

import pytest

from dro_offload.config import load_config
from dro_offload.evaluation import EvaluationReport, compare_methods, sweep

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
# golden file -> (benchmark config, seeds, sweeps as (param, values); none means `evaluate`)
GOLDENS = {
    "eval-default": ("eval-default", (1, 2, 3, 4, 5), ()),
    "eval-binding": ("eval-binding", (1, 2, 3, 4, 5), ()),
    "ladder-30x5": ("ladder-30x5", (1, 2, 3, 4, 5), ()),
    "sweep-binding": ("eval-binding", (1, 2, 3), (("eps", (0.1, 0.3, 1.0)), ("Q", (10, 30, 100)))),
}


def _csv(name: str) -> str:
    config_name, seeds, sweeps = GOLDENS[name]
    cfg = load_config(ROOT / "perfbench" / "configs" / f"{config_name}.json")
    cfg = dataclasses.replace(cfg, experiment=dataclasses.replace(cfg.experiment, seeds=seeds))
    if not sweeps:
        return compare_methods(cfg).to_csv()
    rows = tuple(row for param, values in sweeps for row in sweep(cfg, param, values).rows)
    return EvaluationReport(rows=rows).to_csv()


@pytest.mark.parametrize("name", GOLDENS)
def test_results_csv_matches_golden(name):
    assert _csv(name).encode() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for name in GOLDENS:
        path = GOLDEN / f"{name}.csv"
        old = path.read_text().splitlines() if path.exists() else []
        new = _csv(name)
        changed = [
            (before, after)
            for before, after in itertools.zip_longest(old, new.splitlines(), fillvalue="")
            if before != after
        ]
        print(f"{path.name}: {len(changed)} rows changed")
        for before, after in changed:
            print(f"  - {before}\n  + {after}")
        path.write_bytes(new.encode())
