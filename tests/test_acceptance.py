"""End-to-end acceptance suite.

Each test prints a single pass/fail line for its criterion so the verdicts
survive in the captured log, then asserts. Sweeps shared between the
scaling and resolvent criteria run once per session.
"""

import math
import runpy
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gevspec import cli, experiments, fbi, geometry, quantize, spectral
from gevspec.experiments import SweepConfig, run_sweep
from gevspec.symbols import (make_analytic_transport, make_davies,
                             make_gevrey_transport, make_trapped_toy)
from conftest import fbi_grid

SWEEP_H_LIST = (0.2, 0.1414, 0.1, 0.0707, 0.05, 0.0354, 0.025, 0.0177,
                0.0125)
# the default half width 4 leaves transport eigenmodes with boundary mass
# above the retention threshold at h = 0.2; width 6 keeps the whole sweep
# inside the dense-solver budget while the filter stays meaningful
SWEEP_L = 6.0


# criterion 05's ladder continued down to h = 0.00039 (N = 65536) for
# the reported, ungated local slopes
DEEP_TOEPLITZ_H_LIST = tuple(0.2 * 2.0 ** (-k / 2) for k in range(19))


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def report(capsys, detail):
    """Print a reported line: a measurement no criterion gates."""
    with capsys.disabled():
        print(f"[reported] {detail}")


@pytest.fixture(scope="session")
def gevrey2_sweep(tmp_path_factory):
    cfg = SweepConfig("gevrey-transport:s=2", SWEEP_H_LIST,
                      half_width_L=SWEEP_L,
                      output_dir=str(tmp_path_factory.mktemp("sweep_g2")))
    return run_sweep(cfg)


@pytest.fixture(scope="session")
def analytic_sweep(tmp_path_factory):
    cfg = SweepConfig("analytic-transport", SWEEP_H_LIST,
                      half_width_L=SWEEP_L,
                      output_dir=str(tmp_path_factory.mktemp("sweep_an")))
    return run_sweep(cfg)


@pytest.fixture(scope="session")
def transport_escapes(escape_gevrey2, escape_analytic):
    fields = {1.5: geometry.build_escape(make_gevrey_transport(1.5)),
              2.0: escape_gevrey2,
              3.0: geometry.build_escape(make_gevrey_transport(3.0)),
              math.inf: escape_analytic}
    return fields


def test_criterion_01_davies_calibration(capsys):
    model = make_davies()
    grid = quantize.RealGrid(8.0, 512)
    worst = 0.0
    times = []
    for h in (0.1, 0.05):
        t0 = time.time()
        P = quantize.assemble_weyl(model.symbol, grid, h)
        vals = scipy.linalg.eigvals(P.entries)
        times.append(time.time() - t0)
        for k in range(10):
            target = np.exp(1j * np.pi / 4) * h * (2 * k + 1)
            err = np.abs(vals - target).min() / abs(target)
            worst = max(worst, err)
    ok = worst < 1e-3 and max(times) < 60.0
    announce(capsys, 1, ok,
             f"Davies eigenvalues k=0..9, max rel err {worst:.2e} "
             f"(tol 1e-3), slowest h took {max(times):.1f}s")
    assert ok


def test_criterion_02_weyl_structure(capsys):
    h = 0.1
    grid = quantize.RealGrid(8.0, 256)
    from test_quantize import ONE, X_SYM, XI_SYM, plain_symbol
    identity_exact = np.array_equal(
        quantize.assemble_weyl(ONE, grid, h).entries,
        np.eye(256, dtype=complex))
    real_bump = plain_symbol(
        lambda x, xi: np.cos(xi) * np.exp(-x ** 2) + 0j, "rb", xi_extent=2.5)
    R = quantize.assemble_weyl(real_bump, grid, h).entries
    herm_defect = float(np.abs(R - R.conj().T).max())
    hermitian_ok = herm_defect <= 1e-10 * grid.n_points

    # first-order Moyal oracle: x^w xi^w = (x xi)^w + ih/2; compared through
    # the operator action on interior band-limited states
    A = quantize.assemble_weyl(X_SYM, grid, h).entries
    B = quantize.assemble_weyl(XI_SYM, grid, h).entries
    prod_sym = plain_symbol(lambda x, xi: x * xi + 0j, "xxi", 3.9)
    C = quantize.assemble_weyl(prod_sym, grid, h).entries \
        + 0.5j * h * np.eye(256)
    comp_defect = 0.0
    for x0, xi0 in [(0.0, 0.0), (0.8, 0.5), (-1.2, -0.7), (0.3, 1.5)]:
        u = fbi.gaussian_state(grid, h, x0, xi0)
        comp_defect = max(comp_defect,
                          float(np.abs((A @ B - C) @ u).max()))
    composition_ok = comp_defect < 1e-6

    ok = identity_exact and hermitian_ok and composition_ok
    announce(capsys, 2, ok,
             f"identity exact={identity_exact}, Hermitian defect "
             f"{herm_defect:.2e} (tol {1e-10 * grid.n_points:.1e}), "
             f"x#xi composition action defect {comp_defect:.2e} (tol 1e-6)")
    assert ok


def test_criterion_03_composition_remainder(capsys, gevrey2, analytic_model):
    sups = []
    for h in (0.2, 0.1, 0.05, 0.025):
        grid = fbi_grid(h)
        r = quantize.compose_and_extract(gevrey2.symbol,
                                         analytic_model.symbol, grid, h)
        w = quantize.interior_window(grid, h)
        sups.append(float(np.abs(r[w]).max()))
    variation = max(sups) / min(sups)
    ok = variation < 2.0
    announce(capsys, 3, ok,
             f"(c - ab)/h interior sup over h-sweep: "
             f"{', '.join(f'{s:.3f}' for s in sups)}; variation "
             f"{variation:.2f}x (< 2x required)")
    assert ok


def test_criterion_04_fbi_unitarity(capsys):
    states = [(0.0, 0.0, 0), (0.5, 0.3, 0), (-0.4, -0.2, 1), (0.2, 0.1, 2),
              (-0.1, 0.4, 3)]
    worst = 0.0
    for h in (0.1, 0.05):
        grid = fbi_grid(h)
        op = fbi.make_fbi(grid, fbi.default_cgrid(h), h)
        for x0, xi0, herm in states:
            u = fbi.gaussian_state(grid, h, x0, xi0, herm)
            worst = max(worst, op.unitarity_defect(u))
    ok = worst <= 1e-6
    announce(capsys, 4, ok,
             f"max unitarity defect over 5 states x 2 h values: "
             f"{worst:.2e} (tol 1e-6)")
    assert ok


def test_criterion_05_toeplitz_slopes(capsys, gevrey2, escape_gevrey2):
    t0 = time.time()
    rows = experiments.toeplitz_sweep(gevrey2, escape_gevrey2,
                                      (0.2, 0.1, 0.05, 0.025))
    slopes = dict(zip(("t=0", "t=-0.1*sqrt(h)"),
                      experiments.toeplitz_slopes(rows)))
    elapsed = time.time() - t0
    ok = (min(slopes.values()) >= experiments.SLOPE_MIN
          and elapsed < 900.0)
    announce(capsys, 5, ok,
             "Toeplitz residual log-log slopes "
             + ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items())
             + f" (>= {experiments.SLOPE_MIN:g} required); "
             f"took {elapsed:.0f}s")
    assert ok


def test_reported_toeplitz_deep_ladder(capsys, gevrey2, escape_gevrey2,
                                       analytic_model, escape_analytic):
    series = []
    for name, model, esc in (("gevrey s=2", gevrey2, escape_gevrey2),
                             ("analytic", analytic_model, escape_analytic)):
        hs, res_t0, res_t = map(np.array, zip(*experiments.toeplitz_sweep(
            model, esc, DEEP_TOEPLITZ_H_LIST)))
        for label, res in (("t=0", res_t0), ("t!=0", res_t)):
            local = np.diff(np.log(res)) / np.diff(np.log(hs))
            series.append(f"{name} {label}: "
                          + " ".join(f"{v:.2f}" for v in local))
    report(capsys,
           f"Toeplitz local slopes, h = 0.2 to {DEEP_TOEPLITZ_H_LIST[-1]:.5f} "
           "by factors 2^(-1/2), not gated: " + "; ".join(series))


def test_shipped_toeplitz_script_exits_ok(tmp_path, monkeypatch,
                                          escape_gevrey2):
    # scripts/run_toeplitz.py runs `gevspec toeplitz` on the shipped config
    # for gevrey-transport:s=2, whose escape function the session has built
    script = Path(__file__).resolve().parent.parent / "scripts" \
        / "run_toeplitz.py"
    monkeypatch.setattr(geometry, "build_escape", lambda model: escape_gevrey2)
    monkeypatch.chdir(tmp_path)  # the config writes under results/
    assert runpy.run_path(str(script))["main"]() == cli.EXIT_OK
    lines = (tmp_path / "results" / "toeplitz" / "toeplitz.csv").read_text(
        encoding="utf-8").splitlines()
    assert lines[0] == "h,res_t0,res_deformed"
    assert len(lines) == 5


def test_criterion_06_escape_functions(capsys, transport_escapes):
    margins = {s: transport_escapes[s].margin_c for s in (1.5, 2.0, 3.0)}
    trapped_failed = False
    try:
        geometry.build_escape(make_trapped_toy())
    except geometry.EscapeConstructionError:
        trapped_failed = True
    ok = all(m > 0 for m in margins.values()) and trapped_failed
    announce(capsys, 6, ok,
             "escape margins "
             + ", ".join(f"s={s}: {m:.3f}" for s, m in margins.items())
             + f"; trapped toy rejected={trapped_failed}")
    assert ok


def test_criterion_07_deformed_ellipticity(capsys, transport_escapes):
    models = {1.5: make_gevrey_transport(1.5),
              2.0: make_gevrey_transport(2.0),
              3.0: make_gevrey_transport(3.0),
              math.inf: make_analytic_transport()}
    gammas = {}
    for s, model in models.items():
        esc = transport_escapes[s]
        for h in (0.1, 0.05, 0.025):
            t = experiments.deformation_size(model, h)
            check = geometry.check_deformed_ellipticity(model, esc, t)
            gammas[(s, h)] = check.gamma_measured
    worst = min(gammas.values())
    ok = worst > 0
    announce(capsys, 7, ok,
             f"gamma > 0 at 4 models x 3 h values; min gamma {worst:.3f}")
    assert ok


def test_criterion_08_spectrum_free_scaling(capsys, gevrey2_sweep,
                                            analytic_sweep):
    g2 = experiments.radius_scaling_summary(gevrey2_sweep,
                                            make_gevrey_transport(2.0))
    an = experiments.radius_scaling_summary(analytic_sweep,
                                            make_analytic_transport())
    g2_ok = len(gevrey2_sweep) >= 5 and g2["pass"]
    an_ok = len(analytic_sweep) >= 5 and an["pass"]
    ok = g2_ok and an_ok
    g2_slope = g2.get("radius_fit_slope", float("nan"))
    announce(capsys, 8, ok,
             f"gevrey s=2: r >= {g2['c_lower_bound']:.2f} h^0.5, fitted "
             f"exponent {g2_slope:.3f} (target 0.5 +/- 0.15); analytic: "
             f"min r {an['radius_min']:.3f} > 0 over the sweep "
             f"(still decreasing at h=0.0125: "
             f"{an['spectrum_approaches_z0']})")
    assert ok


def test_reported_radius_tail_exponent(capsys, gevrey2_sweep):
    tail = gevrey2_sweep[-5:]
    fit = experiments.fit_power_law([r.h for r in tail],
                                    [r.free_radius for r in tail])
    report(capsys,
           f"gevrey s=2 r_eig exponent over the last five h "
           f"({tail[0].h:g} to {tail[-1].h:g}): {fit.slope:.3f}, "
           f"r2 {fit.r_squared:.3f}, not gated")


@pytest.mark.parametrize("name, tag", [
    ("gevrey2", "gevrey-transport:s=2"), ("analytic", "analytic-transport")])
def test_shipped_scaling_configs_exit_ok(request, tmp_path, monkeypatch,
                                         name, tag):
    # each shipped config sweeps the ladder of a session fixture, whose
    # records stand in for a second run of the same sweep
    path = (Path(__file__).resolve().parent.parent / "configs"
            / f"{name}_scaling.cfg")
    cfg = experiments.parse_config(path)
    assert (cfg.model_tag, cfg.h_list, cfg.half_width_L, cfg.n_points) \
        == (tag, SWEEP_H_LIST, SWEEP_L, None)
    records = request.getfixturevalue(f"{name}_sweep")
    monkeypatch.setattr(experiments, "run_sweep", lambda cfg: records)
    monkeypatch.chdir(tmp_path)  # the configs write under results/
    assert cli.main(["scaling", "--config", str(path)]) == cli.EXIT_OK


def test_criterion_09_resolvent_growth(capsys, gevrey2_sweep,
                                       analytic_sweep):
    g2 = experiments.resolvent_growth_check(gevrey2_sweep, 2.0)
    an = experiments.resolvent_growth_check(analytic_sweep, math.inf)
    ok = g2["pass"] and an["pass"]
    announce(capsys, 9, ok,
             f"gevrey s=2 regime {g2['regime']}: log||R|| vs h^-0.5 slope "
             f"{g2['slope']:.3f}, r2 {g2['r_squared']:.3f}; analytic regime "
             f"{an['regime']}: max ||R|| {an['max_resolvent']:.1f}")
    assert ok


def test_criterion_10_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "davies.cfg"
    cfg_path.write_text(
        "model = davies\n"
        "h_list = 0.1, 0.05\n"
        "L = 8\n"
        "n_points = 512\n"
        f"output_dir = {tmp_path}\n", encoding="utf-8")
    blobs = []
    for _ in range(2):
        code = cli.main(["scaling", "--config", str(cfg_path)])
        assert code == cli.EXIT_OK
        blobs.append((tmp_path / "sweep.csv").read_bytes())
    n_rows = len(blobs[0].splitlines()) - 1
    ok = blobs[0] == blobs[1] and n_rows == 2
    announce(capsys, 10, ok,
             f"repeated scaling runs bit-identical: {blobs[0] == blobs[1]} "
             f"({n_rows} rows, {len(blobs[0])} bytes)")
    assert ok
