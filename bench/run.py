#!/usr/bin/env python3
"""gevspec benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/ and configs/). Each
workload runs in a child process whose environment alone sets
OPENBLAS_NUM_THREADS (nproc unless --blas-threads says otherwise) and drops
GPS_WORKERS, so the sweep keeps its default single worker. setup_s is the
median, over three child starts, of the time from launch to the child's
READY line: interpreter start, imports, model construction and input
generation. The last line of stdout is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. Outputs, span dumps and
the full result record (environment, gates, digests) go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-gevrey2", "pseudospectrum", "escape-toeplitz")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("zpoints_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env(root: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env.pop("GPS_WORKERS", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_child(args: list, env: dict, root: Path, deadline: float):
    """Start the worker; return (process, seconds until its READY line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    started, _, _ = select.select([proc.stdout], [], [],
                                  max(0.0, deadline - time.perf_counter()))
    line = proc.stdout.readline() if started else ""
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        if not started:
            proc.kill()
        finish(proc, deadline)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline: float) -> int:
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker exceeded the time limit and was killed")
    finally:
        proc.stdout.close()
    return proc.returncode


def run(args) -> dict:
    root = Path.cwd()
    for need in (root / "src" / "gevspec" / "__init__.py",
                 root / "configs" / "gevrey2_scaling.cfg"):
        if not need.is_file():
            raise BenchError(f"{need} not found; run from a gevspec checkout")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = child_env(root, args.blas_threads)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(out_dir)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_child(common + ["--setup-only"], env, root, deadline)
            if finish(proc, deadline) != 0:
                raise BenchError("set-up run failed")
            setups.append(ready)
    result_path = out_dir / (f"result-{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}-blas{args.blas_threads}.json")
    result_path.unlink(missing_ok=True)
    proc, ready = start_child(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace),
                                        "--result", str(result_path)],
                              env, root, deadline)
    setups.append(ready)
    code = finish(proc, deadline)
    if code != 0 or not result_path.is_file():
        raise BenchError(f"worker failed with exit code {code}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    result["result_file"] = str(result_path)
    return result


def final_line(result: dict, trace: int) -> dict:
    if trace:
        import layers
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": bool(result["correct"]), "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--blas-threads", type=int,
                    default=len(os.sched_getaffinity(0)),
                    help="OPENBLAS_NUM_THREADS for the child (default: nproc)")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for g in result["gates"]:
        if not g["ok"]:
            print(f"gate FAILED {g['name']}: {g['detail']}")
    print(f"{args.workload}: {result['attempted'] - result['failed']}/"
          f"{result['attempted']} gates passed; failed_frac "
          f"{result['failed'] / result['attempted']:.4g}; extras "
          f"{json.dumps(result['extras'])}")
    print(f"digests {json.dumps(result['digests'])}")
    print(f"env {json.dumps(result['env'])}")
    print(f"record {result['result_file']}")
    print(json.dumps(final_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
