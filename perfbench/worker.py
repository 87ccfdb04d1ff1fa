"""Run one benchmark workload in this process; the last stdout line is its report.

``run.py`` starts one fresh worker process per workload (two for a traced
run). By hand, from the repository root:

    python3 perfbench/worker.py --workload train-d20 --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import spec

SRC = Path(__file__).resolve().parent.parent / "src"


def pin_threads() -> None:
    """Cap BLAS threads before numpy loads; import probes inherit the setting."""
    threads = max(1, min(spec.BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rornet" / "__init__.py").is_file():
        print(f"no rornet sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    from workload import OUT_DIR, Workload

    OUT_DIR.mkdir(exist_ok=True)
    result = Workload(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
