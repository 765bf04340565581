#!/usr/bin/env python3
"""Run every workload once and print every end-to-end metric with its unit,
the gate results and failed_frac with its base count.

    python3 bench/report.py [--seed N] [--seconds S] [--trace] [--reference]

--trace adds one traced run per workload and prints its per-layer metrics.
--reference adds the single-threaded pass (OPENBLAS_NUM_THREADS=1): each
workload once more on one BLAS thread, reported but not gated, with a
comparison of the output digests (sweep.csv for the sweep) at 1 and nproc
threads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: float, trace: int,
          blas_threads: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--blas-threads", str(blas_threads)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: benchmark failed (exit {proc.returncode})")
    record = next(line.split(" ", 1)[1] for line in lines if line.startswith("record "))
    out = json.loads(Path(record).read_text(encoding="utf-8"))
    out["line"] = json.loads(lines[-1])
    return out


def show(label: str, res: dict) -> None:
    line = res["line"]
    print(f"\n== {label}")
    for name, m in line["metrics"].items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    frac = line["failed"] / line["attempted"]
    print(f"  {'failed_frac':44s} {frac:>16.6g} of {line['attempted']} "
          f"checks ({line['failed']} failed); correct = {line['correct']}")
    for g in res["gates"]:
        if not g["ok"]:
            print(f"  gate FAILED {g['name']}: {g['detail']}")
    print(f"  extras {json.dumps(res['extras'])}")
    print(f"  digests {json.dumps(res['digests'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    env = None
    for w in WORKLOADS:
        res = bench(w, args.seed, args.seconds, 0, nproc)
        env = res["env"]
        show(f"{w} (seed {args.seed}, {nproc} BLAS threads)", res)
        if args.trace:
            show(f"{w} traced", bench(w, args.seed, args.seconds, 1, nproc))
        if args.reference:
            ref = bench(w, args.seed, args.seconds, 0, 1)
            show(f"{w} single-threaded reference (1 BLAS thread)", ref)
            same = ref["digests"] == res["digests"]
            print(f"  output digests at 1 and {nproc} BLAS threads: "
                  f"{'identical' if same else 'DIFFERENT'}")
    print(f"\nenv {json.dumps(env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
