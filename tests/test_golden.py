"""Golden results CSVs: `evaluate` on the benchmark configs, seeds 1-5.

A change that moves a row must list the moved rows in CHANGES.md and
rewrite the files with `PYTHONPATH=src python tests/test_golden.py`,
which prints each changed row's old and new line, per file.
"""

import dataclasses
import itertools
from pathlib import Path

import pytest

from dro_offload.config import load_config
from dro_offload.evaluation import compare_methods

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
NAMES = ("eval-default", "eval-binding", "ladder-30x5")


def _csv(name: str) -> str:
    cfg = load_config(ROOT / "perfbench" / "configs" / f"{name}.json")
    experiment = dataclasses.replace(cfg.experiment, seeds=(1, 2, 3, 4, 5))
    return compare_methods(dataclasses.replace(cfg, experiment=experiment)).to_csv()


@pytest.mark.parametrize("name", NAMES)
def test_results_csv_matches_golden(name):
    assert _csv(name).encode() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for name in NAMES:
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
