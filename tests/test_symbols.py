import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevspec import geometry, symbols
from gevspec.symbols import (ANALYTIC, gevrey_flat, make_analytic_transport,
                             make_davies, make_gevrey_transport,
                             make_trapped_toy, model_from_tag, smooth_step,
                             taylor_extension)

ALL_MODELS = [make_davies(), make_analytic_transport(),
              make_gevrey_transport(1.5), make_gevrey_transport(2.0),
              make_gevrey_transport(3.0), make_trapped_toy()]


def flat_d1(s, t):
    return symbols._flat_d1(*symbols._flat(s, t))


def flat_d2(s, t):
    return symbols._flat_d2(*symbols._flat(s, t))


class TestGevreyFlat:
    def test_flat_region(self):
        assert gevrey_flat(2.0, 0.0) == 0.0
        assert gevrey_flat(2.0, -3.7) == 0.0
        assert np.all(gevrey_flat(2.0, np.linspace(-5, 0, 11)) == 0.0)

    def test_closed_form_values(self):
        assert gevrey_flat(2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert gevrey_flat(3.0, 0.25) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gevrey_flat(1.0, 0.5)
        with pytest.raises(ValueError):
            gevrey_flat(0.5, 0.5)

    @pytest.mark.parametrize("s", [math.inf, math.nan])
    def test_rejects_order_that_is_not_finite(self, s):
        # at s = inf the exponent 1/(s - 1) is 0, and exp(-t^0) = e^-1 for
        # every t > 0 would be a step, not a flat function
        with pytest.raises(ValueError, match="finite"):
            gevrey_flat(s, 0.5)
        with pytest.raises(ValueError, match="finite"):
            make_gevrey_transport(s)

    @given(s=st.floats(1.1, 6.0), t1=st.floats(1e-6, 50.0),
           t2=st.floats(1e-6, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, s, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        v_lo, v_hi = gevrey_flat(s, lo), gevrey_flat(s, hi)
        assert 0.0 <= v_lo <= v_hi <= 1.0

    def test_derivative_matches_finite_difference(self):
        t = np.linspace(0.05, 4.0, 37)
        d = 1e-6
        fd = (gevrey_flat(2.5, t + d) - gevrey_flat(2.5, t - d)) / (2 * d)
        assert np.allclose(flat_d1(2.5, t), fd, atol=1e-7)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_matches_masked_evaluation(self, s):
        # reference: the closed forms evaluated on the positive entries only
        # and scattered into zeros; equal to the last bit
        t = np.random.default_rng(3).uniform(-2.0, 4.0, (40, 30))
        t[0, :3] = (0.0, -0.0, 1e-12)
        a = 1.0 / (s - 1.0)
        pos = t > 0
        tp = t[pos]
        ref = [np.exp(-tp ** (-a)),
               np.exp(-tp ** (-a)) * a * tp ** (-a - 1.0),
               np.exp(-tp ** (-a)) * ((a * tp ** (-a - 1.0)) ** 2
                                      - a * (a + 1.0) * tp ** (-a - 2.0))]
        got = [gevrey_flat(s, t), flat_d1(s, t),
               flat_d2(s, t)]
        for g, r in zip(got, ref):
            assert g.shape == t.shape and g.dtype == np.float64
            assert np.array_equal(g[pos], r)
            assert np.all(g[~pos] == 0.0)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_signed_zeros_and_infinities(self, s):
        # +0.0 without a sign bit at both zeros and at -inf, 1.0 at +inf,
        # with no warning, in scalar and array form
        t = np.array([-0.0, 0.0, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gevrey_flat(s, t)
            scalars = [gevrey_flat(s, v) for v in t]
        for values in (got, np.array(scalars)):
            assert np.array_equal(values, [0.0, 0.0, 1.0, 0.0])
            assert not np.signbit(values).any()

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
    def test_derivatives_vanish_where_the_exponential_underflows(self, s):
        # exp(-t^(-a)) is 0 at t = 1e-100, where t^(-a-k) may be inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d1 = flat_d1(s, 1e-100)
            d2 = flat_d2(s, 1e-100)
        assert d1 == 0.0 and d2 == 0.0


class TestSmoothStep:
    @pytest.mark.parametrize("u", [1e-200, 1e-160])
    def test_derivative_vanishes_at_tiny_u(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert smooth_step(u)[1] == 0.0

    def test_endpoints(self):
        assert smooth_step(-0.2)[0] == 0.0
        assert smooth_step(0.0)[0] == 0.0
        assert smooth_step(1.0)[0] == pytest.approx(1.0)
        assert smooth_step(1.5)[0] == pytest.approx(1.0)

    @given(u=st.floats(-1.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, u):
        v = float(smooth_step(u)[0])
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("call, count", [
        (lambda: smooth_step(np.linspace(-0.5, 1.5, 41)), 2),
        (lambda: geometry._chi_cut((0.0, 0.0), 1.0, 2.0,
                                   *np.meshgrid(np.linspace(-3, 3, 9),
                                                np.linspace(-3, 3, 9))), 2),
        (lambda: geometry._chi_T(4.0, 0.01 * np.arange(801)), 2),
        (lambda: make_gevrey_transport(2.0).symbol.split.a.d2(
            np.linspace(-2.0, 2.0, 41)), 1)],
        ids=["smooth_step", "chi_cut", "chi_T", "gevrey-transport f''"])
    def test_one_flat_evaluation_per_point_set(self, monkeypatch, call, count):
        # a step and its derivative read one flat evaluation at u and one
        # at 1 - u, and the transport f'' reads f' and f'' from one
        calls = []
        flat = symbols._flat

        def counting(s, t):
            calls.append(s)
            return flat(s, t)

        monkeypatch.setattr(symbols, "_flat", counting)
        call()
        assert len(calls) == count


class TestDavies:
    def test_eval_examples(self):
        m = make_davies()
        assert m.symbol(1.0, 1.0) == pytest.approx(1.0 + 1.0j)
        assert m.symbol(2.0, 0.0) == pytest.approx(4.0j)

    def test_grad_example(self):
        m = make_davies()
        gx, gxi = m.symbol.grad(0.0, 2.0)
        assert gx == pytest.approx(0.0)
        assert gxi == pytest.approx(4.0)

    def test_metadata(self):
        m = make_davies()
        assert math.isinf(m.symbol.order_s)
        assert m.z0 == 0j


class TestTransportModels:
    def test_gevrey_zero_at_origin(self):
        m = make_gevrey_transport(2.0)
        assert m.symbol(0.0, 0.0) == 0.0

    def test_tanh_saturation(self):
        m = make_gevrey_transport(2.0)
        assert abs(np.imag(m.symbol(0.0, 10.0)) - 1.0) < 1e-8

    def test_gevrey_flat_factor_value(self):
        m = make_gevrey_transport(2.0)
        assert np.real(m.symbol(np.sqrt(2.0), 0.0)) == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    def test_real_part_nonneg_and_zero_segment(self):
        m = make_gevrey_transport(2.0)
        x = np.linspace(-5, 5, 201)
        xi = np.linspace(-5, 5, 201)
        vals = m.symbol(x[:, None], xi[None, :])
        assert np.all(np.real(vals) >= 0.0)
        inside = np.abs(x) <= 1.0
        assert np.all(m.symbol(x[inside], 0.0) == 0.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            make_gevrey_transport(1.0)

    def test_analytic_examples(self):
        m = make_analytic_transport()
        assert m.symbol(0.0, 0.0) == 0.0
        assert np.real(m.symbol(1.0, 0.0)) == pytest.approx(0.5)
        assert np.imag(m.symbol(1.0, 0.0)) == pytest.approx(0.0)
        gx, gxi = m.symbol.grad(0.0, 0.0)
        assert gx == pytest.approx(0.0)
        assert gxi == pytest.approx(1.0j)

    def test_orders_reported(self):
        assert make_analytic_transport().symbol.order_s == ANALYTIC
        assert make_davies().symbol.order_s == ANALYTIC
        assert make_gevrey_transport(2.5).symbol.order_s == 2.5


class TestDerivativeConsistency:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.tag)
    def test_grad_matches_finite_differences(self, model, rng):
        pts = rng.uniform(-5, 5, size=(100, 2))
        x, xi = pts[:, 0], pts[:, 1]
        d = 1e-5
        sym = model.symbol
        gx, gxi = sym.grad(x, xi)
        fdx = (sym(x + d, xi) - sym(x - d, xi)) / (2 * d)
        fdk = (sym(x, xi + d) - sym(x, xi - d)) / (2 * d)
        assert np.abs(gx - fdx).max() < 1e-6
        assert np.abs(gxi - fdk).max() < 1e-6

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.tag)
    def test_hess_matches_finite_differences(self, model, rng):
        # the Hessian of a(x) + b(xi) is diagonal, with each part's d2
        pts = rng.uniform(-5, 5, size=(100, 2))
        # small step: fourth derivatives spike near the flat-region edge
        d = 1e-5
        split = model.symbol.split
        for part, t in ((split.a, pts[:, 0]), (split.b, pts[:, 1])):
            fd = (part.f(t + d) - 2 * part.f(t) + part.f(t - d)) / d ** 2
            assert np.abs(part.d2(t) - fd).max() < 1e-4


class TestAdditiveSplit:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.tag)
    def test_parts_sum_to_value(self, model):
        x = np.concatenate([np.linspace(-6.0, 6.0, 97), [-0.0, 0.0]])
        X, K = np.meshgrid(x, x, indexing="ij")
        sym = model.symbol
        assert np.array_equal(sym.split.a(X) + sym.split.b(K), sym.value(X, K))

    def test_shared_parts_written_once(self):
        davies, toy = make_davies().symbol, make_trapped_toy().symbol
        assert davies.split.a is toy.split.a is symbols.I_SQUARE
        transports = [make_analytic_transport()] + [
            make_gevrey_transport(s) for s in (1.5, 2.0, 3.0)]
        assert all(m.symbol.split.b is symbols.I_TANH for m in transports)

    def test_unit_is_one_or_i(self):
        with pytest.raises(ValueError, match="unit"):
            symbols.Part(np.cos, np.sin, np.cos, -1j)


class TestTaylorExtension:
    def test_real_restriction(self):
        for m in ALL_MODELS:
            v = taylor_extension(m.symbol, (0.3, -0.2), (0.0, 0.0))
            assert v == pytest.approx(complex(m.symbol(0.3, -0.2)), abs=1e-14)

    def test_quadratic_symbol_exact(self):
        m = make_davies()
        for tau in (0.1, 0.3, -0.2):
            v = taylor_extension(m.symbol, (0.0, 0.0), (0.0, tau))
            assert v == pytest.approx(-tau ** 2, abs=1e-14)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.tag)
    def test_equals_second_order_taylor_sum(self, model):
        # value + grad . (i s) + 1/2 sum d2 (i s)^2, term for term
        x, xi, sx, sxi = np.random.default_rng(7).uniform(-3.0, 3.0, (4, 500))
        sym = model.symbol
        a, b = sym.split.a, sym.split.b
        dx, dk = 1j * sx, 1j * sxi
        gx, gxi = sym.grad(x, xi)
        ref = sym.value(x, xi) + gx * dx + gxi * dk
        ref = ref + 0.5 * (a.unit * a.d2(x) * dx * dx
                           + b.unit * b.d2(xi) * dk * dk)
        got = taylor_extension(sym, (x, xi), (sx, sxi))
        assert got.shape == x.shape
        assert np.all(got == ref)

    def test_symbol_without_split_raises(self):
        plain = replace(make_gevrey_transport(2.0).symbol, split=None)
        with pytest.raises(ValueError, match="no additive split"):
            taylor_extension(plain, (0.3, -0.2), (0.1, 0.1))


class TestTagParsing:
    def test_round_trip(self):
        for tag in ("davies", "analytic-transport", "trapped-toy",
                    "gevrey-transport:s=2.0", "gevrey-transport:s=1.5"):
            assert model_from_tag(tag).tag == tag.replace("2.0", "2")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            model_from_tag("heat-kernel")
        with pytest.raises(ValueError):
            model_from_tag("gevrey-transport:alpha=2")
