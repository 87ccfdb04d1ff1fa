"""rornet benchmark: end-to-end and per-layer numbers for the three workloads.

From the repository root:

    python3 perfbench/run.py                        # every workload, end-to-end table
    python3 perfbench/run.py --workload train-d20 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload deep-d110-sd --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --write-spec           # regenerate BENCHMARK.json

Each workload runs in its own fresh worker process (``worker.py``). With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the command runs an untraced and a traced worker
for half the seconds each, prints the per-op rollup and the tracing overhead
(traced minus untraced, per end-to-end metric), and its last line carries the
per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175.0


def run_worker(workload: str, seed: int, seconds: float, trace: int, budget_s: float) -> dict:
    """Run one workload in a fresh process and return its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget_s)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_e2e(report: dict) -> None:
    m = report["machine"]
    print(f"== {report['workload']}  seed {report['seed']}  window {report['window_s']:.1f}s"
          f"  trace {int(report['trace'])}")
    print(f"machine: nproc {m['nproc']}, MemTotal {m['mem_total_mib']} MiB, {m['blas']} "
          f"{m['blas_version']}, BLAS threads {m['blas_threads']}, numpy {m['numpy']}, "
          f"Python {m['python']}")
    for name, e in report["e2e"].items():
        line = f"  {name:<16} {fmt(e['value']):>12} {e['unit']:<6}"
        if "samples" in e:
            line += f"  {e['statistic']} of {e['samples']} {e['sample_of']} samples"
            if e["statistic"] != "median":
                line += f", median {fmt(e['median_s'])} s"
            if e["tail"]:
                line += f", p{e['tail'][0]} {fmt(e['tail'][1])} s"
            else:
                line += ", no percentile with ten samples beyond it"
        print(line)
    name, unit, _ = spec.FAIL_RATIO
    print(f"  {name:<16} {fmt(report['fail_ratio']):>12} {unit:<6}  "
          f"{report['failed']} failed of {report['attempted']} attempted")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def print_trace(untraced: dict, traced: dict) -> None:
    print("per-layer metrics (traced run):")
    for name, unit, _ in spec.PER_LAYER:
        print(f"  {name:<34} {fmt(traced['per_layer'][name]):>12} {unit}")
    print("per-op rollup (whole traced run): op, calls, fwd ms, bwd ms, GFLOP, MiB written")
    for r in traced["rollup"]:
        print(f"  {r['op']:<22} {r['calls']:>7} {r['fwd_ms']:>11.1f} {r['bwd_ms']:>11.1f}"
              f" {r['gflop']:>9.3f} {r['mib_written']:>10.1f}")
    print("tracing overhead (traced minus untraced):")
    for name, e in traced["e2e"].items():
        base = untraced["e2e"][name]["value"]
        delta = e["value"] - base
        share = f" ({100 * delta / base:+.1f}%)" if base else ""
        print(f"  {name:<16} {fmt(delta):>12} {e['unit']}{share}")
    print(f"  fail_ratio       {fmt(traced['fail_ratio'] - untraced['fail_ratio']):>12}")
    print(f"spans: {traced['spans_file']}")


def result_line(reports: list[dict], metrics: dict, units: dict) -> str:
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run one workload and print its result line (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "rornet" / "__init__.py").is_file():
        print(f"no rornet sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    start = time.perf_counter()

    def budget() -> float:
        return DEADLINE_S - (time.perf_counter() - start)

    try:
        if args.workload is None:
            reports = []
            for name in spec.WORKLOADS:
                reports.append(run_worker(name, args.seed, args.seconds, 0, 10 * DEADLINE_S))
                print_e2e(reports[-1])
            return 0 if all(r["failed"] == 0 for r in reports) else 1
        if args.trace == 0:
            report = run_worker(args.workload, args.seed, args.seconds, 0, budget())
            print_e2e(report)
            metrics = {name: e["value"] for name, e in report["e2e"].items()}
            print(result_line([report], metrics, spec.E2E_UNITS))
            return 0
        half = args.seconds / 2
        untraced = run_worker(args.workload, args.seed, half, 0, budget())
        print_e2e(untraced)
        traced = run_worker(args.workload, args.seed, half, 1, budget())
        print_e2e(traced)
        print_trace(untraced, traced)
        print(result_line([untraced, traced], traced["per_layer"], spec.PER_LAYER_UNITS))
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
