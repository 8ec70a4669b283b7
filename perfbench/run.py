"""Benchmark entry point.

    python3 perfbench/run.py --workload sub2-dense-heavy --seed 1 --seconds 20 --trace 0

Builds the workload from the seed, times it closed loop with tracing off
(`--trace 0`, end-to-end metrics) or runs the traced pass (`--trace 1`,
per-layer metrics), re-certifies every output, and prints one JSON object
as the last line of standard output. The package is imported from `src/`
of the checkout this file lives in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "ewlsp" / "__init__.py").is_file():
        print(f"perfbench: no ewlsp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Closed loop on one core: pin BLAS/OpenMP pools before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.pace import Clock

    # The import of numpy and the package is the first part of set-up.
    with Clock() as clock, clock.timed() as import_t:
        from perfbench import mix

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(mix.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget of the untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record, info = mix.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_t.scaled_s
    )
    print(json.dumps(info))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
