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
