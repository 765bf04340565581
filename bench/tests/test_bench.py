"""Tests for the benchmark harness itself, at tiny sizes; no workload runs.

Run with: PYTHONPATH=src python -m pytest bench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gevspec import experiments, fbi, quantize, spectral  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


# span arithmetic -----------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),    # overlaps a: counted once
        S("a.inner", 2.0, 3.0, 1),
        S("c", 8.0, 12.0, 0),   # runs past its parent: clipped to 10
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_tracer_records_parents_and_durations():
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 7.0]))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(s.name, s.parent, s.duration) for s in tracer.spans] == [
        ("outer", None, 7.0), ("inner", 0, 2.0)]
    assert tracing.self_times(tracer.spans) == [5.0, 2.0]


def test_run_sweep_self_time_excludes_its_children():
    S = tracing.Span
    spans = [S("experiments.run_sweep", 0.0, 10.0, None),
             S("geometry.build_escape", 0.5, 4.5, 0),
             S("symbols.grad", 1.0, 2.0, 1),
             S("spectral.sigma_min", 5.0, 6.0, 0, (("n", 1024),)),
             S("experiments.emit_outputs", 10.0, 10.5, None)]
    m = layers.layer_metrics(spans, 512, {
        "spectral.sigma_min.mismatch": 0, "experiments.hpoints_ok": 9,
        "experiments.hpoints_skipped": 0, "trace.overhead_s": 0.1})
    assert m["experiments.run_sweep.self_s"] == pytest.approx(5.0)
    assert m["trace.top_spans_s"] == pytest.approx(10.5)
    assert m["spectral.sigma_min.lu_calls"] == 1
    assert m["spectral.sigma_min.svd_calls"] == 0
    assert m["spectral.sigma_min.n1024_ms_p50"] == pytest.approx(1000.0)


def test_installed_wrappers_trace_and_restore():
    orig = quantize.assemble_weyl
    tracer = tracing.Tracer()
    with layers.installed(tracer):
        model = experiments.model_from_tag("gevrey-transport:s=2")
        quantize.assemble_weyl(model.symbol, quantize.RealGrid(6.0, 128), 0.2)
        assert fbi.assemble_weyl is not orig  # imported by name: rebound too
    assert quantize.assemble_weyl is orig and fbi.assemble_weyl is orig
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("quantize.assemble_weyl", None), ("symbols.value", 0)]
    assert tracer.spans[0].attr("n") == 128


# metric names --------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.NAMES
    names = [n for n, _ in e2e + per_layer] + list(run.WORKLOADS)
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_layer_metrics_cover_every_name_when_nothing_ran():
    m = layers.layer_metrics([], spectral.SVD_DIRECT_MAX_N, {
        "spectral.sigma_min.mismatch": 0, "experiments.hpoints_ok": 0,
        "experiments.hpoints_skipped": 0, "trace.overhead_s": 0.0})
    assert list(m) == [n for n, _ in layers.PER_LAYER]
    assert all(v == 0 for v in m.values())


# seeded inputs -------------------------------------------------------------

def _comparable(inp):
    inp = dict(inp)
    inp.pop("models", None)
    inp.pop("model", None)
    return repr(inp)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    a = workloads.make_inputs(name, 7, tmp_path)
    b = workloads.make_inputs(name, 7, tmp_path)
    c = workloads.make_inputs(name, 8, tmp_path)
    assert _comparable(a) == _comparable(b)
    if name == "sweep-gevrey2":
        assert _comparable(a) == _comparable(c)  # the h-ladder is fixed
    else:
        assert _comparable(a) != _comparable(c)


# gates ---------------------------------------------------------------------

def _good_sweep():
    h_list = list(workloads.REFERENCE_RADII)
    radii = [(h, r) for h, r in workloads.REFERENCE_RADII.items()]
    fits = {"radius": {"c_lower_bound": 1.3, "spectrum_approaches_z0": True,
                       "radius_fit_slope": 0.54, "exponent_within_band": True},
            "resolvent": {"pass": True, "regime": "exponential-fit",
                          "r_squared": 0.98}}
    return h_list, radii, fits


def test_sweep_gates_pass_on_reference_values():
    assert all(g.ok for g in workloads.sweep_gates(*_good_sweep()))


def test_sweep_gates_pass_on_radii_from_one_blas_thread():
    # the seed's sweep on 1 OpenBLAS thread: rounding moves the radii
    one_thread = [0.9181438158124894, 0.8082336011871278, 0.688491646906187,
                  0.6884719305867257, 0.6826657980017407, 0.4686495722543647,
                  0.3679610903713103, 0.268360640423701, 0.1907907829182684]
    h_list, _, fits = _good_sweep()
    assert all(g.ok for g in workloads.sweep_gates(
        h_list, list(zip(h_list, one_thread)), fits))


def test_sweep_gates_trip_on_dropped_point_wrong_radius_and_fits():
    h_list, radii, fits = _good_sweep()
    failed = {g.name for g in workloads.sweep_gates(h_list, radii[:-1], fits)
              if not g.ok}
    assert failed == {"hpoint@0.0125"}
    bad = list(radii)
    bad[6] = (bad[6][0], bad[6][1] * 1.10)
    failed = {g.name for g in workloads.sweep_gates(h_list, bad, fits) if not g.ok}
    assert failed == {"hpoint@0.025"}
    off_band = {"radius": dict(fits["radius"], exponent_within_band=False),
                "resolvent": dict(fits["resolvent"], **{"pass": False})}
    failed = {g.name for g in workloads.sweep_gates(h_list, radii, off_band)
              if not g.ok}
    assert failed == {"criterion08", "criterion09"}
    failed = {g.name for g in workloads.sweep_gates(h_list, radii, {"error": "x"})
              if not g.ok}
    assert failed == {"criterion08", "criterion09"}


def test_sigma_gate_relative_and_floor_terms():
    sv = np.array([2.0, 1.0, 0.3])
    assert workloads.sigma_gate("z", 0.3, sv, 512).ok
    assert not workloads.sigma_gate("z", 0.3 * 1.05, sv, 512).ok
    sub_floor = np.array([2.0, 1.0, 1e-15])
    assert workloads.sigma_gate("z", 3e-15, sub_floor, 512).ok
    assert not workloads.sigma_gate("z", 1e-9, sub_floor, 512).ok


def test_pseudo_gates_trip_on_perturbed_sigma_min(tmp_path):
    h, res, L = 0.2, 3, workloads.PSEUDO_L
    stem = str(tmp_path / "tiny")
    inp = {"model_tag": workloads.PSEUDO_MODEL,
           "cases": [{"h": h, "res": res, "center": 0.5 + 0j,
                      "checks": [0, 4], "stem": stem}]}
    model = experiments.model_from_tag(workloads.PSEUDO_MODEL)
    n = max(quantize.required_n_points(L, h, 4.0), 32)
    P = quantize.assemble_weyl(model.symbol, quantize.RealGrid(L, n), h)
    field = spectral.pseudospectrum(
        P, spectral.ZGrid(0.5 + 0j, workloads.PSEUDO_SPAN, workloads.PSEUDO_SPAN,
                          res, res))
    Path(stem + ".svg").write_text("<svg/>", encoding="utf-8")

    def gates_for(f):
        Path(stem + ".csv").write_text(
            "\n".join(spectral.pseudospectrum_csv_lines(f)) + "\n", encoding="utf-8")
        gates, _ = workloads.pseudo_gates(inp, {"exit_codes": [0]})
        return {g.name for g in gates if not g.ok}

    assert gates_for(field) == set()
    bumped = field.sigma_min.copy()
    bumped.flat[4] *= 1.05
    assert gates_for(spectral.PseudospectrumField(field.z_grid, bumped)) == {"h0.2.z4"}
    Path(stem + ".svg").unlink()
    assert gates_for(field) == {"h0.2.files"}


def _good_escape():
    out = {"margins": {}, "gammas": {}, "residuals": {}, "defects": {},
           "packets": ((0.0, 1.146), (0.05, 1.116))}
    for tag in workloads.ESCAPE_MODELS:
        out["margins"][tag] = 1.9
        for h in workloads.ESCAPE_H:
            out["gammas"][f"{tag}@{h:g}"] = 1.8
            out["residuals"][f"{tag}@{h:g}"] = [0.1 * h, 0.12 * h]
            out["defects"][f"{tag}@{h:g}"] = 1e-12
    return out


def test_escape_gates_pass_on_good_values():
    out = _good_escape()
    out["defects"]["gevrey-transport:s=2@0.2"] = 4e-3  # tail cut off: not gated
    gates, slopes = workloads.escape_gates(out)
    assert all(g.ok for g in gates)
    assert "gevrey-transport:s=2@0.2.unitarity" not in {g.name for g in gates}
    assert slopes["gevrey-transport:s=2.t0"] == pytest.approx(1.0)


def test_escape_gates_trip_on_each_wrong_value():
    g2 = workloads.ESCAPE_MODELS[0]
    cases = {
        f"{g2}.escape": lambda o: o["margins"].pop(g2),
        f"{g2}@0.05.gamma": lambda o: o["gammas"].__setitem__(f"{g2}@0.05", -0.1),
        f"{g2}@0.05.unitarity": lambda o: o["defects"].__setitem__(f"{g2}@0.05", 1e-3),
        f"{g2}.slope_t0": lambda o: o["residuals"].update(
            {f"{g2}@{h:g}": [0.1 * h ** 0.5, 0.12 * h]
             for h in workloads.ESCAPE_H}),
    }
    for name, spoil in cases.items():
        out = _good_escape()
        spoil(out)
        gates, _ = workloads.escape_gates(out)
        assert {g.name for g in gates if not g.ok} == {name}, name


def test_coverage_gate_trips_when_spans_miss_wall_time():
    assert workloads.coverage_gate(40.0, 41.0, -1.5).ok
    assert not workloads.coverage_gate(30.0, 41.0, -1.5).ok
