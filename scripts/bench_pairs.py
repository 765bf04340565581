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
counts per run as [failed, attempted, correct]; each run's CPU share,
the user + system seconds of the script's child processes during the run
over the run's wall seconds, per side in the order of the runs and
printed on each run's line, since the timings follow machine load and a
run slowed by outside load shows a lower share than its pair; and the
environment the worker recorded. --claim adds whether the change
improved METRIC on WORKLOAD by more than REL, in at least 9 of 10 pairs,
with a median difference above the parent's interquartile range. regressions lists, per
workload and end-to-end metric, where the change's median is worse than
the parent's by more than that metric's bound in BENCHMARK.json, the rule
by which a change is rejected. unresolved lists where the runs spread too
widely to tell: the interquartile range of either side, relative to the
parent's median, is wider than the bound, and not every change run beats
every parent run. One pass over the entries gives both lists, and the
script prints each of their entries.

A run that exits non-zero or prints no result is recorded as
{pair, side, exit_code} in its workload's failed_runs and printed, and its
pair is left out of every statistic; measuring goes on, the file is
written, and the script exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
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


class RunFailed(Exception):
    """A bench/run.py run that exited non-zero or printed no result."""

    def __init__(self, exit_code: int):
        super().__init__(f"exit {exit_code}")
        self.exit_code = exit_code


def bench_once(checkout: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run: its final metrics line plus the recorded env;
    RunFailed if it exits non-zero or prints no record."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    record = next((line.split(" ", 1)[1] for line in lines
                   if line.startswith("record ")), None)
    if proc.returncode != 0 or record is None:
        raise RunFailed(proc.returncode)
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
    out = {"metric": f"{workload} {metric}",
           "target": f"better by more than {float(target):.0%}",
           "measured": "no complete pair", "met": False}
    if metric not in workloads[workload]:
        return out
    m = workloads[workload][metric]
    sign = 1.0 if m["better"] == "higher" else -1.0
    gain = sign * m["median_change_rel"]
    pairs = len(m["parent"]["runs"])
    margin = sign * (m["change"]["median"] - m["parent"]["median"])
    met = (gain > float(target) and m["change_wins"] >= 0.9 * pairs
           and margin > m["parent_iqr"])
    out["measured"] = (f"{gain:+.2%} better ({m['parent']['median']:.6g} -> "
                       f"{m['change']['median']:.6g} {m['unit']}), better in "
                       f"{m['change_wins']} of {pairs} pairs, parent IQR "
                       f"{m['parent_iqr']:.3g}")
    out["met"] = bool(met)
    return out


def verdicts(end_to_end: list, workloads: dict) -> tuple:
    """(regressions, unresolved) from one pass over the (workload, metric)
    entries, each against the bound of the metric in end_to_end.
    regressions: the change median is worse than the parent's by more than
    the bound. unresolved: the spread, the wider interquartile range of the
    two sides relative to the parent's median, exceeds the bound, unless
    every change run is better than every parent run."""
    regressions, unresolved = [], []
    for name, entry in workloads.items():
        for metric in end_to_end:
            if metric["name"] not in entry:
                continue  # no complete pair
            m = entry[metric["name"]]
            p, c, bound = m["parent"], m["change"], metric["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            head = {"workload": name, "metric": metric["name"]}
            tail = {"bound": bound, "parent_median": p["median"],
                    "change_median": c["median"]}
            worse = -sign * m["median_change_rel"]
            if worse > bound:
                regressions.append({**head, "worse_rel": worse, **tail})
            spread = (max(p["q3"] - p["q1"], c["q3"] - c["q1"])
                      / abs(p["median"]))
            dominates = all(sign * (b - a) > 0
                            for a in p["runs"] for b in c["runs"])
            if spread > bound and not dominates:
                unresolved.append({**head, "spread_rel": spread, **tail})
    return regressions, unresolved


def children_cpu_s() -> float:
    """User + system seconds of the script's finished child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


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
            failed_runs = []
            for i in range(1, pairs + 1):
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {}
                for who in order:
                    checkout = parent_dir if who == "parent" else ROOT
                    cpu, start = children_cpu_s(), time.perf_counter()
                    try:
                        pair[who] = bench_once(checkout, name, args.seed)
                    except RunFailed as exc:
                        failed_runs.append({"pair": i, "side": who,
                                            "exit_code": exc.exit_code})
                        print(f"{name} pair {i}/{pairs} {who}: failed "
                              f"(exit {exc.exit_code})", flush=True)
                        continue
                    share = ((children_cpu_s() - cpu)
                             / (time.perf_counter() - start))
                    pair[who]["cpu_share"] = share
                    print(f"{name} pair {i}/{pairs} {who} (cpu share "
                          f"{share:.2f}): {json.dumps(pair[who]['metrics'])}",
                          flush=True)
                if len(pair) == 2:
                    for who, result in pair.items():
                        runs[who].append(result)
            entry = {"failed_runs": failed_runs}
            workloads[name] = entry
            if not runs["change"]:
                continue
            env = env or runs["change"][0]["env"]
            entry.update({m["name"]: summarize(m, runs["parent"], runs["change"])
                          for m in spec["end_to_end"]})
            entry["failed"] = {who: [[r["failed"], r["attempted"], r["correct"]]
                                     for r in rs] for who, rs in runs.items()}
            entry["gate_failures"] = {who: sum(r["failed"] for r in rs)
                                      for who, rs in runs.items()}
            entry["cpu_share"] = {who: [r["cpu_share"] for r in rs]
                                  for who, rs in runs.items()}

    out = {"label": args.label,
           "parent_commit": git("rev-parse", "--short", args.parent).decode().strip(),
           "command": (f"python3 bench/run.py --workload W --seed {args.seed} "
                       f"--seconds {SECONDS:g} --trace 0, run in a fresh "
                       "export of the parent and in the change's working tree"),
           "pairs": plan,
           "order": "pair i runs the parent first for odd i and the change first for even i",
           "seed": args.seed,
           "env": env,
           "workloads": workloads}
    out["regressions"], out["unresolved"] = verdicts(spec["end_to_end"],
                                                     workloads)
    for r in out["regressions"]:
        print(f"regression: {r['workload']} {r['metric']} worse by "
              f"{r['worse_rel']:.1%} (bound {r['bound']:.0%}): "
              f"{r['parent_median']:.6g} -> {r['change_median']:.6g}")
    for r in out["unresolved"]:
        print(f"unresolved: {r['workload']} {r['metric']} spread "
              f"{r['spread_rel']:.1%} (bound {r['bound']:.0%}): "
              f"{r['parent_median']:.6g} -> {r['change_median']:.6g}")
    if args.claim:
        out["claim"] = claim_result(args.claim, workloads)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    failed = [(name, r) for name, w in workloads.items() for r in w["failed_runs"]]
    for name, r in failed:
        print(f"failed run: {name} pair {r['pair']} {r['side']} "
              f"(exit {r['exit_code']})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
