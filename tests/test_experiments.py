import argparse
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

import gevspec
from gevspec import cli, experiments, fbi, geometry, quantize, spectral
from gevspec.experiments import (ConfigError, FitError, NumericalFailure,
                                 SweepConfig, SweepRecord, fit_power_law,
                                 grid_for, parse_config,
                                 radius_scaling_summary,
                                 resolvent_growth_check, run_sweep)
from gevspec.symbols import (make_analytic_transport, make_gevrey_transport,
                             model_from_tag)


def record(h, r=1.0, sig=1.0, res=1.0):
    return SweepRecord(h, r, sig, res, n_points=256, kappa=1.0)


class TestConfigParsing:
    def test_round_trip_all_keys(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# full config\n"
            "model = gevrey-transport:s=2\n"
            "h_list = 0.2, 0.1, 0.05\n"
            "L = 6.0\n"
            "n_points = 256\n"
            "output_dir = out\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg.model_tag == "gevrey-transport:s=2"
        assert cfg.h_list == (0.2, 0.1, 0.05)
        assert cfg.half_width_L == 6.0
        assert cfg.n_points == 256
        assert cfg.output_dir == "out"

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("model = davies\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="h_list"):
            parse_config(path)

    @pytest.mark.parametrize("key", ["widget", "seed", "toeplitz", "deform",
                                     "z0", "probe_direction", "escape_T",
                                     "epsilon"])
    def test_unknown_key(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"model = davies\nh_list = 0.1\n{key} = 3\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("model = davies\nh_list = 0.2, 0.1\n"
                        "# again\nh_list = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":4: key 'h_list'"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.cfg")

    def test_nondecreasing_h_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig("davies", (0.05, 0.1))

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig("davies", (1.5, 0.1))

    @pytest.mark.parametrize("L", [math.inf, math.nan, 0.0])
    def test_nonfinite_or_nonpositive_L_rejected(self, L):
        with pytest.raises(ConfigError, match="L must be positive and finite"):
            SweepConfig("davies", (0.1,), half_width_L=L)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig("heat-kernel", (0.1,))

    @pytest.mark.parametrize("n", [100, -4, 0, 1])
    def test_n_points_not_a_power_of_two_rejected(self, n):
        with pytest.raises(ConfigError, match="power of two"):
            SweepConfig("davies", (0.1,), n_points=n)


class TestGridRule:
    def test_nyquist_satisfied(self):
        cfg = SweepConfig("davies", (0.1, 0.05), half_width_L=4.0)
        for h in cfg.h_list:
            g = grid_for(cfg, h)
            assert g.theta_max(h) >= 4.0

    def test_budget_failure_at_tiny_h(self, tmp_path, monkeypatch, capsys):
        # the grid rule gives N = 16384; the O(N) split assembly runs, and
        # the budget stops the point at its factorization
        def no_schur(*args, **kwargs):
            raise AssertionError("factored a matrix above the budget")

        monkeypatch.setattr(lapack, "zgees", no_schur)
        cfg = SweepConfig("davies", (0.001,), half_width_L=4.0,
                          output_dir=str(tmp_path))
        assert grid_for(cfg, 0.001).n_points == 16384
        assert run_sweep(cfg) == []
        assert "dense factorization limited to N <= 2048, got 16384" \
            in capsys.readouterr().out
        experiments.emit_outputs(cfg, [], {})
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["skipped_h"] == [0.001]

    def test_explicit_n_points_honored(self):
        cfg = SweepConfig("davies", (0.1,), n_points=512)
        assert grid_for(cfg, 0.1).n_points == 512


class TestFits:
    HS = (0.2, 0.1, 0.05, 0.025)

    def test_exact_half_power(self):
        fit = fit_power_law(self.HS, [h ** 0.5 for h in self.HS])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_linear_with_prefactor(self):
        fit = fit_power_law(self.HS, [3.0 * h for h in self.HS])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_nonpositive_values_excluded(self, capsys):
        fit = fit_power_law(self.HS + (0.0125,), list(self.HS) + [-1.0])
        assert fit.n_points == 4
        assert "excluding" in capsys.readouterr().out

    def test_too_few_records(self):
        with pytest.raises(FitError):
            fit_power_law(self.HS[:3], self.HS[:3])

    def test_resolvent_exponential_synthetic(self):
        recs = [record(h, res=math.exp(2.0 * h ** -0.5))
                for h in (0.2, 0.1, 0.05, 0.025)]
        out = resolvent_growth_check(recs, 2.0)
        assert out["slope"] == pytest.approx(2.0, abs=1e-9)
        assert out["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert out["regime"] == "exponential-fit"
        assert out["pass"]

    def test_resolvent_bounded_regime(self):
        recs = [record(h, res=5.0) for h in (0.2, 0.1, 0.05)]
        out = resolvent_growth_check(recs, math.inf)
        assert out["regime"] == "bounded"
        assert out["pass"]

    def test_radius_summary_plateau(self):
        model = make_analytic_transport()
        recs = [record(h, r=0.8) for h in (0.2, 0.1, 0.05, 0.025)]
        out = radius_scaling_summary(recs, model)
        assert not out["spectrum_approaches_z0"]
        assert out["c_lower_bound"] > 0
        assert "radius_fit_slope" not in out
        assert out["pass"]

    def test_radius_summary_scaling(self):
        model = make_gevrey_transport(2.0)
        recs = [record(h, r=1.4 * h ** 0.5)
                for h in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        out = radius_scaling_summary(recs, model)
        assert out["spectrum_approaches_z0"]
        assert out["radius_fit_slope"] == pytest.approx(0.5, abs=1e-9)
        assert out["exponent_within_band"]
        assert out["c_lower_bound"] == pytest.approx(1.4, rel=1e-9)
        assert out["pass"]

    def test_short_gevrey_sweep_without_fit_fails(self):
        # the radius falls below half, but 3 records are too few to fit the
        # exponent the band needs
        recs = [record(h, r=1.4 * h ** 1.5) for h in (0.2, 0.1, 0.05)]
        out = radius_scaling_summary(recs, make_gevrey_transport(2.0))
        assert out["spectrum_approaches_z0"]
        assert out["c_lower_bound"] > 0
        assert "radius_fit_slope" not in out
        assert not out["pass"]

    def test_analytic_radius_has_no_band(self):
        # a Gevrey target of 1 - 1/s means nothing for s = inf: the slope is
        # reported, and no band verdict is
        model = make_analytic_transport()
        recs = [record(h, r=2.0 * h ** 0.3)
                for h in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        out = radius_scaling_summary(recs, model)
        assert out["spectrum_approaches_z0"]
        assert out["radius_fit_slope"] == pytest.approx(0.3, abs=1e-9)
        assert "exponent_within_band" not in out
        assert out["pass"]


class TestSweep:
    def test_davies_radius_is_h(self, tmp_path):
        cfg = SweepConfig("davies", (0.1, 0.05), half_width_L=8.0,
                          n_points=512, output_dir=str(tmp_path))
        records = run_sweep(cfg)
        assert len(records) == 2
        for rec in records:
            # ground eigenvalue modulus |e^{i pi/4} h| = h
            assert rec.free_radius == pytest.approx(rec.h, rel=1e-3)
            assert np.isfinite(rec.resolvent_norm)

    def test_csv_persisted_incrementally(self, tmp_path, monkeypatch):
        real = experiments._measure_one

        def failing(cfg, model, h):
            if h == 0.1:
                raise NumericalFailure("synthetic failure")
            return real(cfg, model, h)

        monkeypatch.setattr(experiments, "_measure_one", failing)
        cfg = SweepConfig("davies", (0.2, 0.1, 0.05), half_width_L=8.0,
                          n_points=512, output_dir=str(tmp_path))
        csv_path = tmp_path / "sweep.csv"
        records = run_sweep(cfg)
        assert len(records) == 2
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == experiments.CSV_HEADER
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2
        assert float(lines[2].split(",")[0]) == 0.05

    def test_summary_lists_skipped_h(self, tmp_path, monkeypatch, capsys):
        def stand_in(cfg, model, h):
            if h == 0.1:
                raise NumericalFailure("synthetic failure")
            return record(h)

        monkeypatch.setattr(experiments, "_measure_one", stand_in)
        cfg = SweepConfig("davies", (0.2, 0.1, 0.05), half_width_L=8.0,
                          n_points=512, output_dir=str(tmp_path))
        records = run_sweep(cfg)
        assert "[sweep] h = 0.1 skipped: synthetic failure" \
            in capsys.readouterr().out
        experiments.emit_outputs(cfg, records, {})
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["skipped_h"] == [0.1]
        assert [r["h"] for r in summary["records"]] == [0.2, 0.05]
        experiments.emit_outputs(cfg, [], {})
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert summary["skipped_h"] == [0.2, 0.1, 0.05]

    def test_sweep_never_builds_escape(self, tmp_path, monkeypatch):
        def no_escape(*args, **kwargs):
            raise AssertionError("escape function built by the sweep")

        monkeypatch.setattr(geometry, "build_escape", no_escape)
        cfg = SweepConfig("davies", (0.1,), half_width_L=8.0, n_points=256,
                          output_dir=str(tmp_path))
        (rec,) = run_sweep(cfg)
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "h,r,sigma_min_probe,resnorm,n_points,kappa"
        assert lines[1] == rec.csv_row()
        assert all(math.isfinite(float(v)) for v in lines[1].split(","))

    def test_one_sigma_min_per_probe(self, tmp_path, monkeypatch):
        calls = []
        real = spectral.sigma_min

        def counting(P, z):
            calls.append(z)
            return real(P, z)

        monkeypatch.setattr(spectral, "sigma_min", counting)
        cfg = SweepConfig("davies", (0.2, 0.1), half_width_L=8.0,
                          n_points=256, output_dir=str(tmp_path))
        records = run_sweep(cfg)
        assert len(records) == 2
        assert len(calls) == 2
        for rec in records:
            assert rec.resolvent_norm == 1.0 / rec.sigma_min_probe

    def test_singular_probe_skips_the_h_point(self, tmp_path, monkeypatch,
                                              capsys):
        calls = []

        def singular(P, z):
            calls.append(z)
            return 0.0

        monkeypatch.setattr(spectral, "sigma_min", singular)
        cfg = SweepConfig("davies", (0.1,), half_width_L=8.0, n_points=256,
                          output_dir=str(tmp_path))
        assert run_sweep(cfg) == []
        assert len(calls) == 1
        assert "resolvent singular at the probe z0 - r/2 for h = 0.1" \
            in capsys.readouterr().out

    def test_reruns_are_bit_identical(self, tmp_path):
        for run in ("a", "b"):
            run_sweep(SweepConfig("davies", (0.1,), half_width_L=8.0,
                                  n_points=256,
                                  output_dir=str(tmp_path / run)))
        assert (tmp_path / "a" / "sweep.csv").read_bytes() \
            == (tmp_path / "b" / "sweep.csv").read_bytes()


class TestOneFactorization:
    """Each matrix is factored once, by zgees without Schur vectors
    (compute_v=0); the free radius adds one LU per tested candidate, and no
    full Schur form, dense eig of P or SVD runs on the sweep or
    pseudospectrum paths."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = {"gees": [], "getrf": []}
        real_gees, real_getrf = lapack.zgees, lapack.zgetrf

        def counting_gees(select, a, *args, **kwargs):
            if kwargs.get("lwork") != -1:  # the workspace query factors nothing
                calls["gees"].append((a.shape, kwargs.get("compute_v", 1)))
            return real_gees(select, a, *args, **kwargs)

        def counting_getrf(a, *args, **kwargs):
            calls["getrf"].append(a.shape)
            return real_getrf(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("second factorization of the matrix")

        monkeypatch.setattr(lapack, "zgees", counting_gees)
        monkeypatch.setattr(lapack, "zgetrf", counting_getrf)
        for name in ("schur", "eig", "lu_factor", "svdvals"):
            monkeypatch.setattr(scipy.linalg, name, forbidden)
        return calls

    def test_sweep_point(self, factorizations):
        # davies at N = 256 tests one candidate: one LU of P - lambda; kappa
        # back-substitutes on T
        cfg = SweepConfig("davies", (0.1,), half_width_L=8.0, n_points=256)
        rec = experiments._measure_one(cfg, model_from_tag("davies"), 0.1)
        assert np.isfinite(rec.resolvent_norm)
        assert factorizations == {"gees": [((256, 256), 0)],
                                  "getrf": [(256, 256)]}

    def test_pseudospectrum_command(self, factorizations, tmp_path,
                                    monkeypatch):
        # sigma_min and the eigenvalue overlay read T alone
        monkeypatch.chdir(tmp_path)
        code = cli.main(["pseudospectrum", "--model", "davies", "--h", "0.1",
                         "--center", "0.1,0.1", "--span", "0.2", "--res", "3",
                         "--L", "8", "--N", "256", "--out", "field"])
        assert code == cli.EXIT_OK
        assert factorizations == {"gees": [((256, 256), 0)], "getrf": []}


class TestDeformationSize:
    @pytest.mark.parametrize("tag, expo", [("gevrey-transport:s=2", 0.5),
                                           ("gevrey-transport:s=3", 2 / 3),
                                           ("analytic-transport", 1.0)])
    def test_minus_epsilon_h_to_the_free_radius_exponent(self, tag, expo):
        t = experiments.deformation_size(model_from_tag(tag), 0.05)
        assert t == pytest.approx(-0.1 * 0.05 ** expo, rel=1e-15)


class TestToeplitzSlopes:
    def test_slopes_of_each_residual_column(self):
        rows = [(h, 3.0 * h, 2.0 * h ** 0.5) for h in (0.2, 0.1, 0.05, 0.025)]
        slope0, slope_t = experiments.toeplitz_slopes(rows)
        assert slope0 == pytest.approx(1.0, abs=1e-12)
        assert slope_t == pytest.approx(0.5, abs=1e-12)


class TestToeplitzSweep:
    def test_one_weyl_matrix_per_h(self, monkeypatch, gevrey2,
                                   escape_gevrey2):
        # the residuals at t = 0 and at the deformed t share one P per h
        sizes = []
        real = fbi.assemble_weyl

        def counting(sym, grid, h):
            sizes.append(grid.n_points)
            return real(sym, grid, h)

        monkeypatch.setattr(fbi, "assemble_weyl", counting)
        rows = experiments.toeplitz_sweep(gevrey2, escape_gevrey2,
                                          (0.2, 0.1, 0.05, 0.025))
        assert sizes == [128, 256, 512, 1024]
        assert len(rows) == 4 and all(np.isfinite(rows).ravel())

    def test_residuals_independent_of_blas_threads(self):
        # the shipped Toeplitz config's ladder, in one child per thread
        # count; the count is set in the child's environment only
        cfg = Path(__file__).resolve().parent.parent / "configs" \
            / "gevrey2_toeplitz.cfg"
        child = (
            "import json, sys\n"
            "from gevspec import experiments, geometry\n"
            "cfg = experiments.parse_config(sys.argv[1])\n"
            "model = experiments.model_from_tag(cfg.model_tag)\n"
            "rows = experiments.toeplitz_sweep(\n"
            "    model, geometry.build_escape(model), cfg.h_list)\n"
            "print(json.dumps(rows))\n")
        src = str(Path(gevspec.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", child, str(cfg)],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            runs.append(np.array(json.loads(out.stdout)))
        one, two = runs
        assert one.shape == (4, 3)
        assert np.array_equal(one[:, 0], two[:, 0])
        assert np.all(np.abs(two[:, 1:] - one[:, 1:])
                      <= 1e-10 * np.abs(one[:, 1:]))


class TestCli:
    def test_quantize_writes_loadable_file(self, tmp_path):
        out = tmp_path / "davies.weyl"
        code = cli.main(["quantize", "--model", "davies", "--h", "0.1",
                         "--out", str(out), "--L", "8", "--N", "256"])
        assert code == cli.EXIT_OK
        from gevspec.quantize import load_weyl
        P = load_weyl(out)
        assert P.n == 256
        assert P.h == 0.1
        assert P.grid.half_width_L == 8.0
        assert P.symbol_tag == "davies"

    def test_unknown_model_is_config_error(self, tmp_path):
        code = cli.main(["quantize", "--model", "nope", "--h", "0.1",
                         "--out", str(tmp_path / "x.weyl")])
        assert code == cli.EXIT_CONFIG

    def test_trapped_escape_is_numerical_failure(self):
        assert cli.main(["escape", "--model", "trapped-toy"]) \
            == cli.EXIT_NUMERICAL

    def test_infinite_gevrey_order_is_config_error(self, monkeypatch):
        # s = inf would make the Gevrey-flat factor a step function
        def unreachable(*args, **kwargs):
            raise AssertionError("s is checked before the escape build")

        monkeypatch.setattr(geometry, "build_escape", unreachable)
        assert cli.main(["escape", "--model", "gevrey-transport:s=inf"]) \
            == cli.EXIT_CONFIG

    def test_deform_check_passes_for_transport(self):
        code = cli.main(["deform-check", "--model", "gevrey-transport:s=2",
                         "--h", "0.05"])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("h", ["-1", "0", "2", "nan"])
    def test_deform_check_rejects_h_outside_unit_interval(self, h,
                                                          monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("h is checked before the escape build")

        monkeypatch.setattr(geometry, "build_escape", unreachable)
        code = cli.main(["deform-check", "--model", "gevrey-transport:s=2",
                         "--h", h])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--h", "0"), ("--h", "-0.1"),
                                             ("--L", "inf")])
    def test_unreachable_grid_rule_is_config_error(self, flag, value):
        argv = ["spectrum", "--model", "davies", "--h", "0.1", flag, value]
        assert cli.main(argv) == cli.EXIT_CONFIG

    def test_scaling_infinite_L_is_config_error(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model = davies\nh_list = 0.1, 0.05\nL = inf\n"
                       f"output_dir = {tmp_path}\n", encoding="utf-8")
        assert cli.main(["scaling", "--config", str(cfg)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("n", ["100", "-4"])
    def test_scaling_bad_n_points_writes_nothing(self, tmp_path, n):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"model = davies\nh_list = 0.1, 0.05\nn_points = {n}\n"
                       f"output_dir = {out}\n", encoding="utf-8")
        assert cli.main(["scaling", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert not out.exists()

    def test_readme_examples_parse(self):
        # each `gevspec ...` line of the README's CLI block, continuation
        # lines joined, must parse; nothing is run
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
        block = block.split("```sh", 1)[1].split("```", 1)[0]
        commands = [line for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("gevspec ")]
        parser = cli.build_parser()
        for line in commands:
            parser.parse_args(shlex.split(line)[1:])
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert {shlex.split(line)[1] for line in commands} \
            == set(subparsers.choices)

    @pytest.mark.parametrize("span, res", [("0", "5"), ("-1", "5"),
                                           ("0.2", "1")])
    def test_pseudospectrum_degenerate_window_is_config_error(
            self, span, res, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["pseudospectrum", "--model", "davies", "--h", "0.1",
                         "--center", "0.1,0.1", "--span", span, "--res", res,
                         "--L", "8", "--N", "256", "--out", "field"])
        assert code == cli.EXIT_CONFIG
        assert not (tmp_path / "field.csv").exists()

    @pytest.mark.parametrize("center, span", [("nan,0", "0.2"),
                                              ("0.1,inf", "0.2"),
                                              ("0.1,0.1", "inf"),
                                              ("0.1,0.1", "nan")])
    def test_pseudospectrum_nonfinite_window_is_config_error(
            self, center, span, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the window is checked before factoring")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(lapack, "zgees", unreachable)
        code = cli.main(["pseudospectrum", "--model", "davies", "--h", "0.1",
                         f"--center={center}", "--span", span, "--res", "5",
                         "--L", "8", "--N", "256", "--out", "field"])
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, extra", [
        ("spectrum", []),
        ("pseudospectrum", ["--center", "0.1,0.1", "--span", "0.2",
                            "--res", "5"])])
    def test_dense_budget_checked_before_factoring(self, command, extra,
                                                   tmp_path, monkeypatch):
        # h = 0.003 gives N = 8192 by the grid rule
        def unreachable(*args, **kwargs):
            raise AssertionError("N is checked before factoring")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(lapack, "zgees", unreachable)
        code = cli.main([command, "--model", "davies", "--h", "0.003",
                         "--L", "6", *extra])
        assert code == cli.EXIT_CONFIG
        assert list(tmp_path.iterdir()) == []

    def test_quantize_keeps_large_n(self, tmp_path, monkeypatch):
        # the dense budget binds a factorization, not a saved matrix
        seen = []

        def recording(sym, grid, h):
            seen.append(grid.n_points)
            return SimpleNamespace(n=grid.n_points, h=h)

        monkeypatch.setattr(quantize, "assemble_weyl", recording)
        monkeypatch.setattr(quantize, "save_weyl", lambda path, P: None)
        code = cli.main(["quantize", "--model", "davies", "--h", "0.1",
                         "--N", str(2 * spectral.MAX_DENSE_N),
                         "--out", str(tmp_path / "big.weyl")])
        assert code == cli.EXIT_OK
        assert seen == [2 * spectral.MAX_DENSE_N]

    def test_pseudospectrum_emits_csv_and_svg(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = cli.main(["pseudospectrum", "--model", "davies", "--h", "0.1",
                         "--center", "0.1,0.1", "--span", "0.2", "--res", "5",
                         "--L", "8", "--N", "256", "--out", "field"])
        assert code == cli.EXIT_OK
        csv_text = (tmp_path / "field.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "re_z,im_z,sigma_min"
        assert len(csv_text.splitlines()) == 26
        svg = (tmp_path / "field.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") or "<svg" in svg

    def test_scaling_writes_summary(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "model = davies\n"
            "h_list = 0.1, 0.05\n"
            "L = 8\n"
            "n_points = 512\n"
            f"output_dir = {tmp_path}\n", encoding="utf-8")
        code = cli.main(["scaling", "--config", str(cfg)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "radius: c_lower_bound = " in out
        assert "resolvent: regime bounded" in out
        lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
        columns = lines[0].split(",")
        assert columns == ["h", "r", "sigma_min_probe", "resnorm", "n_points",
                           "kappa"]
        assert lines[1].split(",")[4] == "512"
        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"))
        assert len(summary["records"]) == summary["n_records"] == 2
        first = summary["records"][0]
        assert sorted(first) == sorted(columns)
        assert first["h"] == 0.1
        assert first["n_points"] == 512
        assert first["r"] == pytest.approx(0.1, rel=1e-3)
        assert first["kappa"] >= 1.0

    def test_analytic_summary_is_strict_json(self, tmp_path, monkeypatch):
        # s = inf has no resolvent fit: its r_squared is NaN, written null
        hs = (0.2, 0.1, 0.05, 0.025)
        recs = [record(h, r=0.5, res=2.0) for h in hs]
        monkeypatch.setattr(experiments, "run_sweep", lambda cfg: recs)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model = analytic-transport\n"
                       "h_list = 0.2, 0.1, 0.05, 0.025\n"
                       f"output_dir = {tmp_path}\n", encoding="utf-8")
        assert cli.main(["scaling", "--config", str(cfg)]) == cli.EXIT_OK

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        summary = json.loads((tmp_path / "summary.json").read_text(
            encoding="utf-8"), parse_constant=reject)
        assert summary["fits"]["resolvent"]["r_squared"] is None
        assert summary["fits"]["resolvent"]["max_resolvent"] == 2.0

    @pytest.mark.parametrize("radius_exponent, resnorms", [
        (1.0, None),  # fitted exponent 1, outside 0.5 +/- 0.15
        (0.5, [2.0 ** 30 * k for k in (1, 0.5, 1, 0.5, 1)]),  # check fails
        (0.5, [1.0] + [math.inf] * 4),  # FitError: one finite resolvent
        (0.5, []),  # every h-point skipped
    ])
    def test_scaling_failed_verdict_is_numerical_failure(
            self, tmp_path, monkeypatch, radius_exponent, resnorms):
        hs = (0.2, 0.1, 0.05, 0.025, 0.0125)
        if resnorms is None:
            resnorms = [math.exp(2.0 * h ** -0.5) for h in hs]
        recs = [record(h, r=1.4 * h ** radius_exponent, res=res)
                for h, res in zip(hs, resnorms)]
        monkeypatch.setattr(experiments, "run_sweep", lambda cfg: recs)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "model = gevrey-transport:s=2\n"
            "h_list = 0.2, 0.1, 0.05, 0.025, 0.0125\n"
            f"output_dir = {tmp_path}\n", encoding="utf-8")
        assert cli.main(["scaling", "--config", str(cfg)]) \
            == cli.EXIT_NUMERICAL
        assert (tmp_path / "summary.json").exists()

    def test_scaling_short_gevrey_sweep_is_numerical_failure(
            self, tmp_path, monkeypatch, capsys):
        # the radius approaches z0 over 3 records: no exponent can be
        # fitted, so the band criterion 08 applies is never checked
        hs = (0.2, 0.1, 0.05)
        recs = [record(h, r=1.4 * h ** 1.5) for h in hs]
        monkeypatch.setattr(experiments, "run_sweep", lambda cfg: recs)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("model = gevrey-transport:s=2\nh_list = 0.2, 0.1, 0.05\n"
                       f"output_dir = {tmp_path}\n", encoding="utf-8")
        assert cli.main(["scaling", "--config", str(cfg)]) \
            == cli.EXIT_NUMERICAL
        assert "pass = False" in capsys.readouterr().out

    @pytest.fixture
    def toeplitz_run(self, tmp_path, monkeypatch):
        """Runs `gevspec toeplitz` with stand-in FBI operators whose
        residual is the caller's residual(h, t); returns the exit code, the
        CSV text and the number of operators built."""
        built = []

        def fake_make_fbi(grid, cgrid, h):
            built.append(h)
            return SimpleNamespace(h=h)

        monkeypatch.setattr(fbi, "make_fbi", fake_make_fbi)

        def run(residual, h_list="0.2, 0.1, 0.05, 0.025",
                model="gevrey-transport:s=2"):
            monkeypatch.setattr(
                fbi, "toeplitz_residuals",
                lambda model, op, esc, ts, u, v: [residual(op.h, t)
                                                  for t in ts])
            cfg = tmp_path / "toeplitz.cfg"
            cfg.write_text(f"model = {model}\nh_list = {h_list}\n"
                           f"output_dir = {tmp_path}\n", encoding="utf-8")
            code = cli.main(["toeplitz", "--config", str(cfg)])
            csv_path = tmp_path / "toeplitz.csv"
            text = csv_path.read_text(encoding="utf-8") \
                if csv_path.exists() else ""
            return code, text, len(built)

        return run

    @pytest.fixture
    def stand_in_escape(self, monkeypatch):
        monkeypatch.setattr(geometry, "build_escape",
                            lambda *args, **kwargs: "escape")

    @pytest.mark.usefixtures("stand_in_escape")
    def test_toeplitz_builds_one_operator_per_h(self, toeplitz_run):
        code, text, n_built = toeplitz_run(lambda h, t: h)
        assert code == cli.EXIT_OK
        assert n_built == 4
        lines = text.splitlines()
        assert lines[0] == "h,res_t0,res_deformed"
        assert len(lines) == 5

    @pytest.mark.usefixtures("stand_in_escape")
    def test_toeplitz_nan_residual_is_numerical_failure(self, toeplitz_run):
        code, _, _ = toeplitz_run(
            lambda h, t: float("nan") if h == 0.05 else h)
        assert code == cli.EXIT_NUMERICAL

    @pytest.mark.usefixtures("stand_in_escape")
    def test_toeplitz_deformed_slope_is_gated(self, toeplitz_run):
        # slope 1 with the flat weight, 0.5 with the deformed one
        code, _, _ = toeplitz_run(lambda h, t: h if t == 0.0 else h ** 0.5)
        assert code == cli.EXIT_NUMERICAL

    @pytest.mark.usefixtures("stand_in_escape")
    def test_toeplitz_three_points_is_numerical_failure(self, toeplitz_run):
        code, text, _ = toeplitz_run(lambda h, t: h, h_list="0.2, 0.1, 0.05")
        assert code == cli.EXIT_NUMERICAL
        assert len(text.splitlines()) == 4  # the rows are written first

    def test_toeplitz_escape_failure_is_numerical_failure(self, toeplitz_run):
        # the real escape construction, which fails on the trapped toy
        # before any transform is built
        code, text, n_built = toeplitz_run(lambda h, t: h,
                                           model="trapped-toy")
        assert code == cli.EXIT_NUMERICAL
        assert (text, n_built) == ("", 0)

    def test_missing_config_is_config_error(self, tmp_path):
        code = cli.main(["scaling", "--config", str(tmp_path / "absent.cfg")])
        assert code == cli.EXIT_CONFIG
