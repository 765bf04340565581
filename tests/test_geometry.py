import numpy as np
import pytest
from scipy.optimize import brentq

from gevspec import geometry
from gevspec.geometry import (CoverageError, EscapeConstructionError,
                              GeometryConfigError, build_escape,
                              check_deformed_ellipticity, escape_csv_lines,
                              flow, nontrapping_check)
from gevspec.symbols import (gevrey_flat, make_davies, make_gevrey_transport,
                             make_trapped_toy)


def _pairing_error(esc, model):
    """Pointwise |HG_values - (H_{Im p} . lattice gradient of G)|: two
    independent discretizations of the same field H_{Im p} G."""
    gx, gxi = geometry._lattice_gradient(esc.G_values, esc.x_axis, esc.xi_axis)
    X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
    fx, fk = geometry._hamiltonian_im(model.symbol, X, K)
    return np.abs(fx * gx + fk * gxi - esc.HG_values)


class TestFlow:
    def test_unit_speed_translation_on_zero_line(self, gevrey2):
        # on xi = 0 the flow is d/dt (x, xi) = (sech^2(0), 0) = (1, 0)
        traj = flow(gevrey2.symbol, (1.0, 0.0), 2.0)
        assert not traj.truncated
        x_exact = 1.0 + traj.times
        assert np.abs(traj.points[:, 0] - x_exact).max() < 1e-10
        assert np.abs(traj.points[:, 1]).max() == 0.0

    def test_imaginary_part_conserved(self, gevrey2):
        traj = flow(gevrey2.symbol, (0.5, 0.3), 5.0)
        assert traj.energy_drift < 1e-7

    def test_reversibility(self, gevrey2):
        fwd = flow(gevrey2.symbol, (0.2, 0.25), 3.0)
        end = tuple(fwd.points[-1])
        back = flow(gevrey2.symbol, end, -3.0)
        assert np.abs(np.asarray(back.points[-1]) - [0.2, 0.25]).max() < 1e-8

    def test_escape_truncates_at_box(self):
        # Im p = x^2 drives xi down at rate -2x; from (1, 0) the orbit
        # leaves |xi| <= 50 near t = 25, well before t_max
        m = make_davies()
        traj = flow(m.symbol, (1.0, 0.0), 30.0)
        assert traj.truncated
        assert traj.times[-1] < 30.0
        assert abs(traj.points[-1, 1]) > 50.0 - 0.1

    def test_bad_dt_rejected(self, gevrey2):
        with pytest.raises(GeometryConfigError):
            flow(gevrey2.symbol, (0.0, 0.0), 1.0, dt=0.0)

    def test_step_budget(self, gevrey2):
        with pytest.raises(GeometryConfigError):
            flow(gevrey2.symbol, (0.0, 0.0), 1e6, dt=1e-3)


class TestNontrapping:
    def test_transport_model_escapes(self, gevrey2):
        report = nontrapping_check(gevrey2)
        assert report["ok"]
        assert report["n_zero_points"] > 0
        # slowest zero point sits at the origin and rides the unit-speed
        # line to the epsilon level set of the flat factor
        t_oracle = brentq(lambda t: gevrey_flat(2.0, t ** 2 - 1.0) - 0.05,
                          1.0, 1.3)
        assert report["worst_escape_time"] == pytest.approx(t_oracle, abs=0.02)

    def test_trapped_model_fails(self, trapped_model):
        report = nontrapping_check(trapped_model, T=3.0)
        assert not report["ok"]
        assert report["worst_escape_time"] == np.inf

    def test_no_zero_points_is_config_error(self, gevrey2):
        from dataclasses import replace
        shifted = replace(gevrey2, z0=5.0 + 5.0j)
        with pytest.raises(GeometryConfigError):
            nontrapping_check(shifted)


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

    def test_interior_interpolation_matches_lattice(self, escape_gevrey2):
        esc = escape_gevrey2
        i, j = len(esc.x_axis) // 2, len(esc.xi_axis) // 2
        v = esc.g_at(esc.x_axis[i], esc.xi_axis[j])
        assert v == pytest.approx(esc.G_values[i, j], abs=1e-12)

    def test_all_orders_build(self):
        for s in (1.5, 3.0):
            esc = build_escape(make_gevrey_transport(s))
            assert esc.margin_c > 0

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

    def test_first_order_extension_close_to_second(self, gevrey2,
                                                   escape_gevrey2):
        t = -0.02
        g1 = check_deformed_ellipticity(gevrey2, escape_gevrey2, t,
                                        ext_order=1)
        g2 = check_deformed_ellipticity(gevrey2, escape_gevrey2, t,
                                        ext_order=2)
        assert g1.gamma_measured == pytest.approx(g2.gamma_measured, abs=0.1)


class TestReporting:
    def test_csv_layout(self, escape_gevrey2):
        lines = escape_csv_lines(escape_gevrey2)
        assert lines[0] == "x,xi,G,HG"
        n = len(escape_gevrey2.x_axis) * len(escape_gevrey2.xi_axis)
        assert len(lines) == n + 1
        assert len(lines[1].split(",")) == 4
