"""One workload in one process; started by run.py, which sets its
environment (BLAS threads, PYTHONPATH) and times its start-up.

Prints READY on stdout once imports, models and inputs are built, then runs
the workload's job until --seconds of job time have passed (at least one
job), checks the outputs and writes a JSON result file. In trace mode it
runs the job once untraced and once traced, so the difference between the
two wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _check_checkout(root: Path) -> None:
    import gevspec
    src = (root / "src").resolve()
    if src not in Path(gevspec.__file__).resolve().parents:
        sys.exit(f"gevspec imported from {gevspec.__file__}, not from {src}")


def _openblas_runtime() -> dict:
    """Core type and thread count reported by each loaded OpenBLAS."""
    import numpy
    site = Path(numpy.__file__).resolve().parent.parent
    out = {}
    for path in sorted(glob.glob(str(site / "*.libs" / "libscipy_openblas*.so"))):
        suffix = "64_" if "openblas64" in Path(path).name else ""
        try:
            lib = ctypes.CDLL(path)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            get_config.restype = ctypes.c_char_p
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")()
            out[Path(path).parent.name] = {"config": get_config().decode(),
                                           "threads": int(threads)}
        except (OSError, AttributeError) as exc:
            out[Path(path).parent.name] = {"error": str(exc)}
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = {}
    for mod in (numpy, scipy):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = {k: dep.get(k) for k in
                              ("name", "version", "openblas configuration")}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas,
        "blas_runtime": _openblas_runtime(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GPS_WORKERS": os.environ.get("GPS_WORKERS", "unset (1 worker)"),
        "seed": seed,
    }


def _digest(paths) -> dict:
    out = {}
    for p in paths:
        try:
            out[Path(p).name] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
        except OSError:
            out[Path(p).name] = None
    return out


def run_jobs(job, inp, seconds: float, Clock):
    """Repeat the job until its measured time reaches seconds; returns the
    per-job wall times and the last outcome."""
    times, outcome = [], None
    while not times or sum(times) < seconds:
        clock = Clock()
        t0 = time.perf_counter()
        outcome = job(inp, clock)
        times.append(time.perf_counter() - t0 - clock.paused_s)
    return times, outcome


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=".bench_out")
    ap.add_argument("--result", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _check_checkout(Path.cwd())
    import layers
    import workloads
    from gevspec import spectral
    from tracing import Tracer

    inp = workloads.make_inputs(args.workload, args.seed, Path(args.out_dir))
    print("READY", flush=True)
    if args.setup_only:
        return 0
    # the program's own progress prints go to stderr; stdout carries READY only
    sys.stdout = sys.stderr

    job = workloads.JOBS[args.workload]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    tracer = None
    if args.trace:
        untraced, _ = run_jobs(job, inp, 0.0, workloads.Clock)
        result["untraced_wall_s"] = untraced[0]
        tracer = Tracer()
        traced_inp = dict(inp)
        if "models" in inp:
            traced_inp["models"] = {tag: layers.wrap_model(tracer, m)
                                    for tag, m in inp["models"].items()}
        with layers.installed(tracer):
            times, outcome = run_jobs(job, traced_inp, 0.0, workloads.Clock)
    else:
        times, outcome = run_jobs(job, inp, args.seconds, workloads.Clock)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    gates, extras = workloads.check(args.workload, inp, outcome)
    result.update({
        "env": environment(args.seed),
        "job_s": times,
        "wall_s": statistics.median(times),
        "zpoints": outcome["zpoints"],
        "zpoints_per_s": outcome["zpoints"] * len(times) / sum(times),
        "peak_rss_mb": peak_kb / 1024.0,
        "extras": extras,
        "digests": _digest(outcome["outputs"]),
    })
    if tracer is not None:
        overhead = result["wall_s"] - result["untraced_wall_s"]
        per_layer = layers.layer_metrics(tracer.spans, spectral.SVD_DIRECT_MAX_N, {
            "spectral.sigma_min.mismatch": extras.get("sigma_min_mismatch", 0),
            "experiments.hpoints_ok": extras.get("hpoints_ok", 0),
            "experiments.hpoints_skipped": extras.get("hpoints_skipped", 0),
            "trace.overhead_s": overhead,
        })
        result["per_layer"] = per_layer
        span_path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json"
        span_path.write_text(json.dumps(tracer.as_records()), encoding="utf-8")
        result["spans_file"] = str(span_path)
        if args.workload == "sweep-gevrey2":
            gates.append(workloads.coverage_gate(
                per_layer["trace.top_spans_s"], result["untraced_wall_s"], overhead))
    result["gates"] = [g._asdict() for g in gates]
    result["attempted"] = len(gates)
    result["failed"] = sum(not g.ok for g in gates)
    result["correct"] = result["failed"] == 0
    Path(args.result).write_text(json.dumps(result, indent=1, default=str),
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
