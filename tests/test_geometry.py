import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gevspec
from gevspec import geometry
from gevspec.geometry import (CoverageError, EscapeConstructionError,
                              GeometryConfigError, build_escape,
                              check_deformed_ellipticity, escape_csv_lines)
from gevspec.symbols import (ANALYTIC, I_SQUARE, I_TANH, ModelInstance,
                             additive_symbol, make_analytic_transport,
                             make_davies, make_gevrey_transport,
                             make_trapped_toy)

CATALOG = [make_davies(), make_analytic_transport(), make_gevrey_transport(1.5),
           make_gevrey_transport(2.0), make_gevrey_transport(3.0),
           make_trapped_toy()]


def _grad_field(sym, x, xi):
    """H_{Im p} = (d_xi Im p, -d_x Im p) read from sym.grad."""
    gx, gxi = sym.grad(x, xi)
    return np.imag(gxi), -np.imag(gx)


def _rk4_flow(sym, x0, xi0, n_steps, dt):
    """Reference for geometry._flow_batch: the full RK4 step of the field
    read from sym.grad, four evaluations per step, with the same freeze
    mask at the escape box."""
    x = x0.copy()
    xi = xi0.copy()
    active = np.ones(x.shape, dtype=bool)
    for _ in range(n_steps):
        k1x, k1k = _grad_field(sym, x, xi)
        k2x, k2k = _grad_field(sym, x + 0.5 * dt * k1x, xi + 0.5 * dt * k1k)
        k3x, k3k = _grad_field(sym, x + 0.5 * dt * k2x, xi + 0.5 * dt * k2k)
        k4x, k4k = _grad_field(sym, x + dt * k3x, xi + dt * k3k)
        xn = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        kn = xi + dt * (k1k + 2 * k2k + 2 * k3k + k4k) / 6.0
        x = np.where(active, xn, x)
        xi = np.where(active, kn, xi)
        active &= ((np.abs(x) <= geometry.FLOW_BOX_HALF_WIDTH)
                   & (np.abs(xi) <= geometry.FLOW_BOX_HALF_WIDTH))
        yield x, xi


def _raising(*args):
    raise AssertionError("a split symbol must not evaluate this")


def _pairing_error(esc, model):
    """Pointwise |HG_values - (H_{Im p} . lattice gradient of G)|: two
    independent discretizations of the same field H_{Im p} G."""
    gx, gxi = geometry._lattice_gradient(esc.G_values, esc.x_axis, esc.xi_axis)
    X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
    fx, fk = geometry._hamiltonian_im(model.symbol, X, K)
    return np.abs(fx * gx + fk * gxi - esc.HG_values)


def _states(sym, x0, xi0, n_steps, dt, flow=geometry._flow_batch):
    """The (x, xi) states a flow yields, stacked: shape (n_steps, 2, n)."""
    return np.array(list(flow(sym, np.asarray(x0, dtype=float),
                              np.asarray(xi0, dtype=float), n_steps, dt)))


class TestFlow:
    def test_unit_speed_translation_on_zero_line(self, gevrey2):
        # on xi = 0 the flow is d/dt (x, xi) = (sech^2(0), 0) = (1, 0)
        x0 = np.array([1.0, -0.5, 0.0])
        states = _states(gevrey2.symbol, x0, np.zeros(3), 200, 0.01)
        t = 0.01 * np.arange(1, 201)[:, None]
        assert np.abs(states[:, 0] - (x0 + t)).max() < 1e-10
        assert np.all(states[:, 1] == 0.0)

    def test_imaginary_part_conserved(self, gevrey2):
        x0, xi0 = np.array([0.5, -1.2, 2.0]), np.array([0.3, 0.8, -0.6])
        states = _states(gevrey2.symbol, x0, xi0, 500, 0.01)
        im_p = np.imag(gevrey2.symbol.value(states[:, 0], states[:, 1]))
        im_p0 = np.imag(gevrey2.symbol.value(x0, xi0))
        assert np.abs(im_p - im_p0).max() < 1e-7

    def test_reversibility(self, gevrey2):
        x0, xi0 = np.array([0.2, -0.7]), np.array([0.25, -0.1])
        end = _states(gevrey2.symbol, x0, xi0, 300, 0.01)[-1]
        back = _states(gevrey2.symbol, end[0], end[1], 300, -0.01)[-1]
        assert np.abs(back - [x0, xi0]).max() < 1e-8

    def test_escape_truncates_at_box(self):
        # Im p = x^2 drives xi down at rate -2x: from (1, 0) the orbit
        # leaves |xi| <= 50 near t = 25 and stays frozen where it left,
        # while the orbit from (0.5, 0) reaches xi = -30 at t = 30 inside
        states = _states(make_davies().symbol, [1.0, 0.5], [0.0, 0.0],
                         3000, 0.01)
        xi = states[:, 1]
        k = int(np.argmax(np.abs(xi[:, 0]) > 50.0))
        assert 2490 <= k <= 2510
        assert np.all(states[k:, :, 0] == states[k, :, 0])
        assert abs(xi[k, 0]) < 50.0 + 0.03
        assert np.all(states[:, 0, 1] == 0.5)
        assert xi[-1, 1] == pytest.approx(-30.0, abs=1e-9)

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.tag)
    def test_split_field_equals_grad_field(self, model):
        # the lattice holds signed zeros, negative values and tanh's
        # saturated tail
        x = np.concatenate([np.linspace(-6.0, 6.0, 97), [-0.0, 0.0]])
        X, K = np.meshgrid(x, x, indexing="ij")
        assert model.symbol.split is not None
        for got, ref in zip(geometry._hamiltonian_im(model.symbol, X, K),
                            _grad_field(model.symbol, X, K)):
            assert got.shape == X.shape
            assert np.array_equal(got, ref)

    def test_split_flow_never_calls_grad(self, gevrey2):
        traced = dataclasses.replace(gevrey2.symbol, grad=_raising)
        x0 = np.linspace(-1.5, 1.5, 13)
        xi0 = np.linspace(-0.4, 0.4, 13)
        got = list(geometry._flow_batch(traced, x0, xi0, 20, 0.01))
        ref = list(_rk4_flow(gevrey2.symbol, x0, xi0, 20, 0.01))
        for (x, xi), (rx, rxi) in zip(got, ref):
            assert np.array_equal(x, rx) and np.array_equal(xi, rxi)

    @pytest.mark.parametrize("model", [make_davies(), make_trapped_toy()],
                             ids=lambda m: m.tag)
    @pytest.mark.parametrize("dt", [0.01, -0.01])
    def test_real_b_constant_step_equals_rk4(self, model, dt):
        # b is real, so xi moves at the constant rate -2x: from x = +-2 the
        # orbits leave |xi| <= 50 near t = 12.5 and freeze, the others stay
        # inside. The constant increment must give the RK4 states (a zero
        # may differ in sign). From xi = 0 at x = 0.37 and 1.7 the first xi
        # is the increment itself, where dt v and dt (v + 2v + 2v + v) / 6
        # differ in the last bit
        x0 = np.array([2.0, -2.0, 0.37, 1.7, 0.5, -0.0, 0.0, -1.3])
        xi0 = np.array([0.0, 0.0, 0.0, 0.0, 40.0, 0.0, -0.0, -49.0])
        got = _states(model.symbol, x0, xi0, 1300, dt)
        ref = _states(model.symbol, x0, xi0, 1300, dt, flow=_rk4_flow)
        assert np.array_equal(got, ref)
        assert np.all(np.abs(got[-1, 1, :2]) > 50.0)
        assert np.all(got[:, 0] == x0)

    def test_constant_field_evaluated_once_per_batch(self, gevrey2):
        # one field evaluation serves every step; the full RK4 step of the
        # reference makes four per step
        calls = []
        split = gevrey2.symbol.split

        def counting(t):
            calls.append(np.shape(t))
            return split.b.d1(t)

        b = dataclasses.replace(split.b, d1=counting)
        sym = dataclasses.replace(gevrey2.symbol,
                                  split=dataclasses.replace(split, b=b))
        x0 = np.zeros(13)  # the first x is the increment itself
        xi0 = np.linspace(-0.4, 0.4, 13)
        got = _states(sym, x0, xi0, 20, 0.01)
        assert calls == [(13,)]
        assert np.array_equal(
            got, _states(gevrey2.symbol, x0, xi0, 20, 0.01, flow=_rk4_flow))


class TestBuildEscape:
    def test_positive_margin(self, escape_gevrey2):
        assert escape_gevrey2.margin_c > 0

    def test_sup_bound_from_time_cutoff(self, escape_gevrey2, gevrey2):
        # |G| <= 2 * (2T) * sup |Re p| by the quadrature construction
        sup_re = 1.0  # flat factor is bounded by one
        assert escape_gevrey2.sup_G <= 4.0 * escape_gevrey2.T * sup_re

    def test_compact_support(self, escape_gevrey2):
        cx, ck = escape_gevrey2.cutoff_center
        r = escape_gevrey2.cutoff_radius
        far = escape_gevrey2.g_at([cx + r + 0.5, cx - 2 * r], [ck, ck])
        assert np.all(far == 0.0)
        gx, gk = escape_gevrey2.grad_g_at(cx + r + 1.0, ck)
        assert gx == 0.0 and gk == 0.0

    def test_splines_built_once(self, escape_gevrey2, monkeypatch):
        built = []
        real = geometry._cubic_spline

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "_cubic_spline", counting)
        esc = dataclasses.replace(escape_gevrey2)  # no splines cached yet
        x = np.linspace(-1.5, 1.5, 7)
        xi = np.linspace(-0.4, 0.4, 7)
        g1 = esc.g_at(x, xi)
        g2 = esc.g_at(x, xi)
        gx, gxi = esc.grad_g_at(x, xi)
        assert len(built) <= 3
        # the values of a spline built afresh for each call
        axes = (esc.x_axis, esc.xi_axis)
        pts = np.stack([x, xi], axis=-1)
        lat_x, lat_xi = geometry._lattice_gradient(esc.G_values, *axes)
        for got, values in ((g1, esc.G_values), (g2, esc.G_values),
                            (gx, lat_x), (gxi, lat_xi)):
            assert np.array_equal(got, real(*axes, values)(pts))

    def test_splines_interpolate_lattice_values(self, escape_gevrey2):
        esc = dataclasses.replace(escape_gevrey2)
        X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
        lat_x, lat_xi = geometry._lattice_gradient(esc.G_values, esc.x_axis,
                                                   esc.xi_axis)
        for got, values in ((esc.g_at(X, K), esc.G_values),
                            *zip(esc.grad_g_at(X, K), (lat_x, lat_xi))):
            assert np.abs(got - values).max() <= 1e-12 * np.abs(values).max()

    def test_splines_independent_of_blas_threads(self, escape_gevrey2,
                                                 tmp_path):
        # the thread count is set in each child's environment only
        path = tmp_path / "escape.pkl"
        path.write_bytes(pickle.dumps(dataclasses.replace(escape_gevrey2)))
        child = (
            "import hashlib, pickle, sys\n"
            "import numpy as np\n"
            "esc = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "X, K = np.meshgrid(np.linspace(-2.4, 2.4, 53),\n"
            "                   np.linspace(-0.9, 0.9, 37), indexing='ij')\n"
            "v = [esc.g_at(X, K), *esc.grad_g_at(X, K)]\n"
            "print(hashlib.sha256(np.stack(v).tobytes()).hexdigest())\n")
        src = str(Path(gevspec.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run([sys.executable, "-c", child, str(path)],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]

    def test_interior_interpolation_matches_lattice(self, escape_gevrey2):
        esc = escape_gevrey2
        i, j = len(esc.x_axis) // 2, len(esc.xi_axis) // 2
        v = esc.g_at(esc.x_axis[i], esc.xi_axis[j])
        assert v == pytest.approx(esc.G_values[i, j], abs=1e-12)

    @pytest.mark.parametrize("model", [make_gevrey_transport(1.5),
                                       make_gevrey_transport(2.0),
                                       make_gevrey_transport(3.0),
                                       make_analytic_transport()],
                             ids=lambda m: m.tag)
    def test_split_build_equals_grad_build(self, model, monkeypatch):
        kw = dict(lattice=((-2.0, 2.0), (-1.0, 1.0)), n_x=33, n_xi=17)
        esc = build_escape(model, **kw)
        monkeypatch.setattr(geometry, "_flow_batch", _rk4_flow)
        ref = build_escape(model, **kw)
        assert np.array_equal(esc.G_values, ref.G_values)
        assert np.array_equal(esc.HG_values, ref.HG_values)
        assert esc.margin_c == ref.margin_c

    def test_all_orders_build(self):
        for s in (1.5, 3.0):
            esc = build_escape(make_gevrey_transport(s))
            assert esc.margin_c > 0

    def test_no_zero_points_is_config_error(self, gevrey2):
        shifted = dataclasses.replace(gevrey2, z0=5.0 + 5.0j)
        with pytest.raises(GeometryConfigError, match="no lattice points"):
            build_escape(shifted, n_x=9, n_xi=9)

    def test_symbol_without_split_is_config_error(self, gevrey2):
        plain = dataclasses.replace(
            gevrey2, symbol=dataclasses.replace(gevrey2.symbol, split=None))
        with pytest.raises(GeometryConfigError, match="no additive split"):
            build_escape(plain, n_x=9, n_xi=9)

    def test_two_imaginary_parts_raise(self):
        # Re p vanishes identically, so G and H_{Im p} G vanish on the zero
        # set whatever the flow
        sym = additive_symbol(I_SQUARE, I_TANH, order_s=ANALYTIC,
                              zero_set_hint=((-0.5, 0.5), (-0.4, 0.4)),
                              name="i x^2 + i tanh(xi)")
        with pytest.raises(EscapeConstructionError):
            build_escape(ModelInstance(sym, 0j), n_x=33, n_xi=33)

    def test_trapped_model_raises_with_point(self, trapped_model):
        with pytest.raises(EscapeConstructionError) as exc_info:
            build_escape(trapped_model)
        bad = exc_info.value.offending_point
        # every zero point of i x^2 is trapped; the reported one must lie
        # on the numerical zero set x = 0
        assert abs(bad[0]) < 0.1

    def test_flow_and_lattice_derivatives_agree(self, gevrey2):
        lattice = ((-2.5, 2.5), (-1.5, 1.5))
        esc = build_escape(gevrey2, lattice=lattice, n_x=361, n_xi=145,
                           dt=5e-3)
        err = _pairing_error(esc, gevrey2)[2:-2, 2:-2].max()
        assert err < 1e-4

    def test_cutoff_term_matches_lattice_derivatives(self, gevrey2):
        # the lattice above stays inside chi_cut = 1; this one runs from the
        # zero set out across the cutoff annulus, where H_{Im p} chi_cut != 0.
        # Near x = +-1 the flat factor defeats the lattice differences, so
        # the pairing is compared on the annulus only
        esc = build_escape(gevrey2, lattice=((-1.0, 6.0), (-0.5, 0.5)),
                           n_x=281, n_xi=21)
        X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
        chi = geometry._chi_cut(esc.cutoff_center, esc.cutoff_radius / 2.0,
                                esc.cutoff_radius, X, K)
        annulus = ((chi > 0.0) & (chi < 1.0))[2:-2, 2:-2]
        assert annulus.any()
        err = _pairing_error(esc, gevrey2)[2:-2, 2:-2][annulus].max()
        assert err < 1e-4


class TestDeformedEllipticity:
    def test_rejects_nonnegative_deformation(self, gevrey2, escape_gevrey2):
        for t in (0.0, 0.1):
            with pytest.raises(GeometryConfigError):
                check_deformed_ellipticity(gevrey2, escape_gevrey2, t)

    def test_positive_gain(self, gevrey2, escape_gevrey2):
        t = -0.1 * 0.05 ** 0.5
        check = check_deformed_ellipticity(gevrey2, escape_gevrey2, t)
        assert check.gamma_measured > 0

    def test_gain_stable_under_halving(self, gevrey2, escape_gevrey2):
        # gamma is a first-order quotient: halving t must not change it
        # by more than 50 percent
        t = -0.1 * 0.05 ** 0.5
        g1 = check_deformed_ellipticity(gevrey2, escape_gevrey2, t)
        g2 = check_deformed_ellipticity(gevrey2, escape_gevrey2, t / 2)
        assert abs(g2.gamma_measured - g1.gamma_measured) \
            < 0.5 * abs(g1.gamma_measured)


class TestReporting:
    def test_csv_layout(self, escape_gevrey2):
        lines = escape_csv_lines(escape_gevrey2)
        assert lines[0] == "x,xi,G,HG"
        n = len(escape_gevrey2.x_axis) * len(escape_gevrey2.xi_axis)
        assert len(lines) == n + 1
        assert len(lines[1].split(",")) == 4
