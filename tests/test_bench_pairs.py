import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, metric", [
    ("escape-toeplitz", "setup_s"), ("escape-toeplitz", "zpoints_per_s"),
    ("sweep-gevrey2", "peak_rss_mb")])
def test_summary_reproduces_committed_pairs(workload, metric):
    # BENCH_pr24.json's statistics, recomputed from its own runs
    bench_pairs = load_script()
    stored = json.loads((ROOT / "BENCH_pr24.json").read_text(
        encoding="utf-8"))["workloads"][workload][metric]
    spec = {"name": metric, "unit": stored["unit"], "better": stored["better"]}

    def as_runs(values):
        return [{"metrics": {metric: {"value": v}}} for v in values]

    got = bench_pairs.summarize(spec, as_runs(stored["parent"]["runs"]),
                                as_runs(stored["change"]["runs"]))
    assert got.keys() == stored.keys()
    assert got["change_wins"] == stored["change_wins"]
    for key in ("median_change_rel", "parent_iqr"):
        assert got[key] == pytest.approx(stored[key], rel=1e-12)
    for who in ("parent", "change"):
        for key in ("median", "q1", "q3"):
            assert got[who][key] == pytest.approx(stored[who][key], rel=1e-12)


def test_regressions_apply_each_bound_in_its_direction():
    # synthetic (parent, change) medians against the bounds of
    # BENCHMARK.json: a wall_s 30% slower breaks its 25% bound and 10%
    # slower does not; zpoints_per_s, where higher is better, breaks it
    # 30% lower, not 30% higher; peak_rss_mb breaks its 5% bound 6%
    # higher, not 4%; setup_s 20% slower or 30% faster breaks nothing
    bench_pairs = load_script()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    medians = {"a": {"setup_s": (1.0, 1.2), "wall_s": (1.0, 1.3),
                     "zpoints_per_s": (100.0, 130.0),
                     "peak_rss_mb": (100.0, 104.0)},
               "b": {"setup_s": (1.0, 0.7), "wall_s": (2.0, 2.2),
                     "zpoints_per_s": (100.0, 70.0),
                     "peak_rss_mb": (100.0, 106.0)}}
    metrics = {m["name"]: m for m in end_to_end}

    def entry(name, parent, change):
        def as_runs(value):
            return [{"metrics": {name: {"value": value}}}] * 3
        return bench_pairs.summarize(metrics[name], as_runs(parent),
                                     as_runs(change))

    workloads = {w: {name: entry(name, *pair) for name, pair in m.items()}
                 for w, m in medians.items()}
    found = bench_pairs.regressions(end_to_end, workloads)
    assert [(r["workload"], r["metric"]) for r in found] == [
        ("a", "wall_s"), ("b", "zpoints_per_s"), ("b", "peak_rss_mb")]
    wall = found[0]
    assert wall["worse_rel"] == pytest.approx(0.3)
    assert wall["bound"] == 0.25
    assert (wall["parent_median"], wall["change_median"]) == (1.0, 1.3)
    assert found[1]["worse_rel"] == pytest.approx(0.3)
    assert found[2]["worse_rel"] == pytest.approx(0.06)
