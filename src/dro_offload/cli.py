"""Command-line entry point.

Subcommands:
  generate  write a seeded scenario as JSON
  solve     solve one seeded instance with one method
  evaluate  run the configured seed/method comparison, write CSV + summary
  sweep     repeat the comparison across one parameter's values

Exit codes: 0 success, 2 bad configuration or arguments, 3 infeasible
instance, 4 internal or numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .config import METHODS, SWEEP_PARAMS, RunConfig, default_config, load_config
from .errors import ConfigError, InfeasibleProblemError
from .evaluation import build_ambiguity_sets, compare_methods, solve_with_method, sweep
from .geometry import generate_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dro-offload",
        description="Distributionally robust computation offloading for aerial access networks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out_dir=False):
        p.add_argument("--config", type=Path, default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        if needs_out_dir:
            p.add_argument("--out", type=Path, required=True, help="output directory")
            p.add_argument("--jobs", type=int, default=None, help="parallel worker count")
        else:
            p.add_argument("--out", type=Path, default=None, help="output file (default stdout)")

    gen = sub.add_parser("generate", help="generate a seeded scenario")
    common(gen)

    solve = sub.add_parser("solve", help="solve one seeded instance")
    common(solve)
    solve.add_argument("--method", choices=METHODS, default="dro")

    ev = sub.add_parser("evaluate", help="compare methods over the configured seeds")
    common(ev, needs_out_dir=True)

    sw = sub.add_parser("sweep", help="compare methods across parameter values")
    common(sw, needs_out_dir=True)
    sw.add_argument("--param", choices=SWEEP_PARAMS, default=None)
    sw.add_argument("--values", type=float, nargs="+", default=None)
    return parser


def _load(args) -> RunConfig:
    cfg = default_config() if args.config is None else load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, experiment=dataclasses.replace(cfg.experiment, seeds=(args.seed,))
        )
    if getattr(args, "jobs", None) is not None:
        cfg = dataclasses.replace(
            cfg, experiment=dataclasses.replace(cfg.experiment, jobs=args.jobs)
        )
    return cfg


def _emit(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _manifest(cfg: RunConfig, command: str, extra: dict | None = None) -> dict:
    data = {
        "tool": "dro-offload",
        "version": __version__,
        "command": command,
        "config_sha256": cfg.hash(),
        "seeds": list(cfg.experiment.seeds),
        "methods": list(cfg.experiment.methods),
    }
    if extra:
        data.update(extra)
    return data


def _write_report(report, cfg: RunConfig, out_dir: Path, command: str, extra=None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write_csv(out_dir / "results.csv")
    report.write_summary(out_dir / "summary.txt")
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(_manifest(cfg, command, extra), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_generate(args) -> int:
    cfg = _load(args)
    seed = cfg.experiment.seeds[0]
    scenario = generate_scenario(cfg.scenario, seed)
    _emit({"seed": seed, "scenario": scenario.to_dict()}, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    cfg = _load(args)
    seed = cfg.experiment.seeds[0]
    scenario = generate_scenario(cfg.scenario, seed)
    ambiguity = build_ambiguity_sets(cfg, seed)
    result = solve_with_method(args.method, scenario, ambiguity)
    _emit({"seed": seed, "config_sha256": cfg.hash(), **result.to_dict()}, args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load(args)
    report = compare_methods(cfg)
    _write_report(report, cfg, args.out, "evaluate")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    param = args.param if args.param is not None else cfg.experiment.sweep_param
    values = tuple(args.values) if args.values is not None else cfg.experiment.sweep_values
    if param is None:
        raise ConfigError("sweep needs --param (or experiment.sweep_param in the config)")
    if not values:
        raise ConfigError("sweep needs --values (or experiment.sweep_values in the config)")
    report = sweep(cfg, param, values)
    _write_report(
        report, cfg, args.out, "sweep", extra={"param": param, "values": list(values)}
    )
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001  - last-resort mapping to exit code 4
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
