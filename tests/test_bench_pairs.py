import importlib.util
import json
import resource
from pathlib import Path
from types import SimpleNamespace

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
    found, _ = bench_pairs.verdicts(end_to_end, workloads)
    assert [(r["workload"], r["metric"]) for r in found] == [
        ("a", "wall_s"), ("b", "zpoints_per_s"), ("b", "peak_rss_mb")]
    wall = found[0]
    assert wall["worse_rel"] == pytest.approx(0.3)
    assert wall["bound"] == 0.25
    assert (wall["parent_median"], wall["change_median"]) == (1.0, 1.3)
    assert found[1]["worse_rel"] == pytest.approx(0.3)
    assert found[2]["worse_rel"] == pytest.approx(0.06)


def test_unresolved_where_spread_exceeds_bound():
    # wall_s (bound 25%): a parent IQR of 40% of its median is unresolved
    # however close the medians, unless every change run is faster than
    # every parent run; a spread on the change side alone counts too, and
    # a 10% spread on each side is resolved
    bench_pairs = load_script()
    end_to_end = [m for m in json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"] if m["name"] == "wall_s"]
    spec = {"name": "wall_s", "unit": "s", "better": "lower"}

    def entry(parent, change):
        def as_runs(values):
            return [{"metrics": {"wall_s": {"value": v}}} for v in values]
        return {"wall_s": bench_pairs.summarize(spec, as_runs(parent),
                                                as_runs(change))}

    wide = [0.6, 0.8, 1.0, 1.2, 1.4]
    narrow = [0.9, 0.95, 1.0, 1.05, 1.1]
    workloads = {"wide-parent": entry(wide, wide),
                 "wide-change": entry(narrow, wide),
                 "narrow": entry(narrow, narrow),
                 "dominated": entry(wide, [v / 3.0 for v in wide])}
    regressions, found = bench_pairs.verdicts(end_to_end, workloads)
    assert [r["workload"] for r in found] == ["wide-parent", "wide-change"]
    assert found[0]["spread_rel"] == pytest.approx(0.4)
    assert found[0]["bound"] == 0.25
    assert (found[1]["parent_median"], found[1]["change_median"]) == (1.0, 1.0)
    assert regressions == []


@pytest.mark.parametrize("fail_at", [None, 3])
def test_failed_run_drops_its_pair_and_exits_1(tmp_path, monkeypatch, capsys,
                                               fail_at):
    # three pairs of escape-toeplitz, the runs numbered in the order they
    # start: parent, change | change, parent | parent, change. Run 3, the
    # change side of pair 2, fails: pair 2 leaves every statistic, the
    # other pairs are still measured and the file is still written
    bench_pairs = load_script()
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc1234\n")
    started = []

    def fake_bench_once(checkout, workload, seed):
        started.append("change" if checkout == tmp_path else "parent")
        if len(started) == fail_at:
            raise bench_pairs.RunFailed(1)
        value = float(len(started))
        return {"metrics": {m["name"]: {"value": value} for m in end_to_end},
                "failed": 0, "attempted": 1, "correct": 1,
                "env": {"run": len(started)}}

    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    code = bench_pairs.main(["--label", "t", "--workload", "escape-toeplitz=3",
                             "--claim", "escape-toeplitz:wall_s:0.1"])
    assert started == ["parent", "change", "change", "parent", "parent",
                       "change"]
    out = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    entry = out["workloads"]["escape-toeplitz"]
    wall = entry["wall_s"]
    if fail_at is None:
        assert code == 0
        assert entry["failed_runs"] == []
        assert wall["parent"]["runs"] == [1.0, 4.0, 5.0]
        assert wall["change"]["runs"] == [2.0, 3.0, 6.0]
        return
    assert code == 1
    assert entry["failed_runs"] == [{"pair": 2, "side": "change",
                                     "exit_code": 1}]
    assert wall["parent"]["runs"] == [1.0, 5.0]
    assert wall["change"]["runs"] == [2.0, 6.0]
    assert entry["failed"] == {"parent": [[0, 1, 1]] * 2,
                               "change": [[0, 1, 1]] * 2}
    assert out["claim"]["measured"].endswith("of 2 pairs, parent IQR 2")
    assert "failed run: escape-toeplitz pair 2 change (exit 1)" \
        in capsys.readouterr().out


def test_cpu_share_recorded_for_each_run(tmp_path, monkeypatch, capsys):
    # each run's share is the children's user + system seconds it added
    # over its wall seconds, both read just before and just after it, kept
    # per side in the order of the runs and printed on the run's line
    bench_pairs = load_script()
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"),
        encoding="utf-8")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))["end_to_end"]
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: b"abc1234\n")
    clock = {"wall": 100.0, "user": 10.0, "sys": 1.0}
    events = []

    def fake_getrusage(who):
        assert who == resource.RUSAGE_CHILDREN
        events.append("cpu")
        return SimpleNamespace(ru_utime=clock["user"], ru_stime=clock["sys"])

    def fake_bench_once(checkout, workload, seed):
        # run k takes 2 s of wall and 0.5 k s of CPU, a fifth of it system
        events.append("change" if checkout == tmp_path else "parent")
        k = len(events) - events.count("cpu")
        clock["wall"] += 2.0
        clock["user"] += 0.4 * k
        clock["sys"] += 0.1 * k
        return {"metrics": {m["name"]: {"value": 1.0} for m in end_to_end},
                "failed": 0, "attempted": 1, "correct": 1, "env": {}}

    monkeypatch.setattr(bench_pairs, "resource", SimpleNamespace(
        getrusage=fake_getrusage, RUSAGE_CHILDREN=resource.RUSAGE_CHILDREN))
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(
        perf_counter=lambda: clock["wall"]))
    monkeypatch.setattr(bench_pairs, "bench_once", fake_bench_once)
    assert bench_pairs.main(["--label", "t",
                             "--workload", "escape-toeplitz=2"]) == 0
    assert events == ["cpu", "parent", "cpu"] + ["cpu", "change", "cpu"] * 2 \
        + ["cpu", "parent", "cpu"]
    out = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    shares = out["workloads"]["escape-toeplitz"]["cpu_share"]
    assert shares.keys() == {"parent", "change"}
    for who, want in (("parent", [0.25, 1.0]), ("change", [0.5, 0.75])):
        assert shares[who] == pytest.approx(want, rel=1e-12)
    printed = capsys.readouterr().out
    assert "escape-toeplitz pair 1/2 parent (cpu share 0.25): {" in printed
    assert "escape-toeplitz pair 2/2 parent (cpu share 1.00): {" in printed
