"""dro-offload benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload eval-default --seed 1 --seconds 30 --trace 0

The last line of standard output is the result as one JSON object; the
line before it records the workload, the results-CSV SHA-256 and the
environment. Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="shifts every seed list; 1 = as written")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 1 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "dro_offload" / "__init__.py").is_file():
        print(f"perfbench: no src/dro_offload under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    result, info = bench.measure(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root
    )
    for problem in info["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
