#!/usr/bin/env python3
"""Benchmark the working tree against a parent revision in alternating pairs.

    python3 scripts/bench_pairs.py --label NAME [--parent REV]
        [--workload NAME[=PAIRS] ...] [--seed N] [--claim WORKLOAD:METRIC:REL]

writes BENCH_<label>.json at the root of the checkout. The parent is REV
(default HEAD) exported with `git archive` into a temporary directory; the
change is this working tree, committed or not.
Each pair runs `python3 bench/run.py --workload W --seed S --seconds 10
--trace 0` once in each checkout, from that checkout's own bench/: pair i
runs the parent first for odd i and the change first for even i. Every
workload of BENCHMARK.json runs 10 pairs unless --workload names the
workloads (and optionally their pair counts).

The file holds, per workload and end-to-end metric of BENCHMARK.json, the
runs, median and quartiles of each side, change_wins (pairs in which the
change did better), median_change_rel and parent_iqr; the failed gate
counts per run as [failed, attempted, correct]; and the environment the
worker recorded. --claim adds whether the change improved METRIC on
WORKLOAD by more than REL, in at least 9 of 10 pairs, with a median
difference above the parent's interquartile range. regressions lists, per
workload and end-to-end metric, where the change's median is worse than
the parent's by more than that metric's bound in BENCHMARK.json, the rule
by which a change is rejected; the script prints each one.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SECONDS = 10.0  # bench/run.py --seconds, bench/report.py's default


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def bench_once(checkout: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run: its final metrics line plus the recorded env."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} in {checkout}: benchmark failed "
                         f"(exit {proc.returncode})")
    record = next(line.split(" ", 1)[1] for line in lines
                  if line.startswith("record "))
    out = json.loads(lines[-1])
    out["env"] = json.loads(Path(record).read_text(encoding="utf-8"))["env"]
    return out


def side(runs: list) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "runs": runs}


def summarize(metric: dict, parent: list, change: list) -> dict:
    p = [r["metrics"][metric["name"]]["value"] for r in parent]
    c = [r["metrics"][metric["name"]]["value"] for r in change]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    ps, cs = side(p), side(c)
    return {"unit": metric["unit"], "better": metric["better"],
            "parent": ps, "change": cs,
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "median_change_rel": (cs["median"] - ps["median"]) / ps["median"],
            "parent_iqr": ps["q3"] - ps["q1"]}


def claim_result(spec: str, workloads: dict) -> dict:
    workload, metric, target = spec.split(":")
    m = workloads[workload][metric]
    sign = 1.0 if m["better"] == "higher" else -1.0
    gain = sign * m["median_change_rel"]
    pairs = len(m["parent"]["runs"])
    margin = sign * (m["change"]["median"] - m["parent"]["median"])
    met = (gain > float(target) and m["change_wins"] >= 0.9 * pairs
           and margin > m["parent_iqr"])
    return {"metric": f"{workload} {metric}",
            "target": f"better by more than {float(target):.0%}",
            "measured": (f"{gain:+.2%} better ({m['parent']['median']:.6g} -> "
                         f"{m['change']['median']:.6g} {m['unit']}), better in "
                         f"{m['change_wins']} of {pairs} pairs, parent IQR "
                         f"{m['parent_iqr']:.3g}"),
            "met": bool(met)}


def regressions(end_to_end: list, workloads: dict) -> list:
    """The (workload, metric) entries whose change median is worse than
    the parent's by more than the bound of the metric in end_to_end."""
    found = []
    for name, entry in workloads.items():
        for metric in end_to_end:
            m = entry[metric["name"]]
            sign = 1.0 if m["better"] == "higher" else -1.0
            worse = -sign * m["median_change_rel"]
            if worse > metric["bound"]:
                found.append({"workload": name, "metric": metric["name"],
                              "worse_rel": worse, "bound": metric["bound"],
                              "parent_median": m["parent"]["median"],
                              "change_median": m["change"]["median"]})
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent", default="HEAD", help="parent revision")
    ap.add_argument("--workload", action="append", default=[],
                    metavar="NAME[=PAIRS]")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC:REL")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    plan = {}
    for item in args.workload or names:
        name, _, pairs = item.partition("=")
        if name not in names:
            ap.error(f"unknown workload {name!r}; BENCHMARK.json has {names}")
        plan[name] = int(pairs) if pairs else PAIRS

    workloads, env = {}, None
    with tempfile.TemporaryDirectory() as tmp:
        parent_dir = Path(tmp)
        export_parent(args.parent, parent_dir)
        for name, pairs in plan.items():
            runs = {"parent": [], "change": []}
            for i in range(1, pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                for who in order:
                    checkout = parent_dir if who == "parent" else ROOT
                    runs[who].append(bench_once(checkout, name, args.seed))
                    print(f"{name} pair {i}/{pairs} {who}: "
                          f"{json.dumps(runs[who][-1]['metrics'])}", flush=True)
            env = env or runs["change"][0]["env"]
            entry = {m["name"]: summarize(m, runs["parent"], runs["change"])
                     for m in spec["end_to_end"]}
            entry["failed"] = {who: [[r["failed"], r["attempted"], r["correct"]]
                                     for r in rs] for who, rs in runs.items()}
            entry["gate_failures"] = {who: sum(r["failed"] for r in rs)
                                      for who, rs in runs.items()}
            workloads[name] = entry

    out = {"label": args.label,
           "parent_commit": git("rev-parse", "--short", args.parent).decode().strip(),
           "command": (f"python3 bench/run.py --workload W --seed {args.seed} "
                       f"--seconds {SECONDS:g} --trace 0, run in a fresh "
                       "export of the parent and in the change's working tree"),
           "pairs": plan,
           "order": "pair i runs the parent first for odd i and the change first for even i",
           "seed": args.seed,
           "env": env,
           "workloads": workloads,
           "regressions": regressions(spec["end_to_end"], workloads)}
    for r in out["regressions"]:
        print(f"regression: {r['workload']} {r['metric']} worse by "
              f"{r['worse_rel']:.1%} (bound {r['bound']:.0%}): "
              f"{r['parent_median']:.6g} -> {r['change_median']:.6g}")
    if args.claim:
        out["claim"] = claim_result(args.claim, workloads)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
