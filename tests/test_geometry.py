import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gevspec
from gevspec import experiments, geometry
from gevspec.geometry import (CoverageError, EscapeConstructionError,
                              GeometryConfigError, build_escape,
                              check_deformed_ellipticity, escape_csv_lines)
from gevspec.symbols import (ANALYTIC, I_SQUARE, I_TANH, SQUARE,
                             ModelInstance, Part, additive_symbol,
                             make_analytic_transport, make_davies,
                             make_gevrey_transport, make_trapped_toy)

EXP = Part(np.exp, np.exp, np.exp)
CATALOG = [make_davies(), make_analytic_transport(), make_gevrey_transport(1.5),
           make_gevrey_transport(2.0), make_gevrey_transport(3.0),
           make_trapped_toy()]


def _grad_field(sym, x, xi):
    """H_{Im p} = (d_xi Im p, -d_x Im p) read from sym.grad."""
    gx, gxi = sym.grad(x, xi)
    return np.imag(gxi), -np.imag(gx)


def _rk4_flow(sym, x0, xi0, n_steps, dt):
    """Reference flow: the full RK4 step of the field read from sym.grad,
    four evaluations per step; yields the state after every step."""
    x = x0.copy()
    xi = xi0.copy()
    for _ in range(n_steps):
        k1x, k1k = _grad_field(sym, x, xi)
        k2x, k2k = _grad_field(sym, x + 0.5 * dt * k1x, xi + 0.5 * dt * k1k)
        k3x, k3k = _grad_field(sym, x + 0.5 * dt * k2x, xi + 0.5 * dt * k2k)
        k4x, k4k = _grad_field(sym, x + dt * k3x, xi + dt * k3k)
        x = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        xi = xi + dt * (k1k + 2 * k2k + 2 * k3k + k4k) / 6.0
        yield x, xi


def _raising(*args):
    raise AssertionError("a split symbol must not evaluate this")


def _pairing_error(esc, model):
    """Pointwise |HG_values - (H_{Im p} . lattice gradient of G)|: two
    independent discretizations of the same field H_{Im p} G."""
    gx, gxi = geometry._lattice_gradient(esc.G_values, esc.x_axis, esc.xi_axis)
    X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
    fx, fk = _grad_field(model.symbol, X, K)
    return np.abs(fx * gx + fk * gxi - esc.HG_values)


def _recording(part, calls):
    """part with an f that appends (part, argument) to calls at every call."""
    def f(t):
        calls.append((part, np.array(t, dtype=float)))
        return part.f(t)

    return dataclasses.replace(part, f=f)


def _recorded(model):
    """(model with both parts of its split recording their f, the record).
    value and grad keep the original parts, so the record holds the calls
    of the split's readers only."""
    calls = []
    split = model.symbol.split
    split = dataclasses.replace(split, a=_recording(split.a, calls),
                                b=_recording(split.b, calls))
    sym = dataclasses.replace(model.symbol, split=split)
    return dataclasses.replace(model, symbol=sym), calls


def _cutoff(esc):
    """(chi_cut, d_x chi_cut, d_xi chi_cut) on the lattice of esc, with the
    lattice."""
    X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
    return geometry._chi_cut(esc.cutoff_center, esc.cutoff_radius / 2.0,
                             esc.cutoff_radius, X, K), (X, K)


def _distinct(start, speed):
    """_distinct_trajectories of the pairs, checked against their bits: the
    first pairs are pairwise distinct bit patterns, and the inverse maps
    them back to every pair, bit for bit."""
    first, inverse = geometry._distinct_trajectories(start, speed)
    pairs = np.stack([start, speed], axis=-1).view(np.int64)
    assert len({row.tobytes() for row in pairs[first]}) == len(first)
    assert np.array_equal(pairs[first][inverse], pairs)
    return first, inverse


def _mirrored(part, start, speed):
    """(starts, forward, backward) of _escape_integral's one forward pass:
    starts are the coordinates of the distinct (start, speed) pairs of the
    starts and of their mirrors, (-start, speed) with -0.0 read as +0.0
    for an even part and (start, -speed) otherwise, and forward and
    backward map each start to the pass's trajectory of either
    direction."""
    mirror = (0.0 - start, speed) if part.even else (start, -speed)
    both = np.concatenate([start, mirror[0]])
    first, inverse = _distinct(both, np.concatenate([speed, mirror[1]]))
    return both[first], inverse[:len(start)], inverse[len(start):]


def _sampled_points(sym, x0, xi0, T, dt=geometry.DEFAULT_DT):
    """The (x, xi) points at which _escape_integral evaluates Re p for every
    start, stacked: the forward nodes t = dt, ..., 2T, then the backward
    nodes t = -dt, ..., -2T; shape (2, n_steps, 2, len(x0)). Only the real
    part whose coordinate moves is evaluated, so that coordinate is read
    from the calls of its f, and the other one, which the flow keeps
    fixed, is its start. The calls run forward only, over the distinct
    trajectories of the starts and their mirrors: a start's backward nodes
    are its mirror's forward nodes, negated for an even part, whose mirror
    starts at -x0."""
    start = (np.asarray(x0, dtype=float), np.asarray(xi0, dtype=float))
    axis, part, speed = geometry._moving_part(sym.split, *start)
    calls = []
    geometry._escape_integral(_recording(part, calls), start[axis], speed,
                              T, dt)
    starts, forward, backward = _mirrored(part, start[axis], speed)
    assert np.array_equal(calls[0][1], starts)
    nodes = np.array([t for _, t in calls[1:]])
    n = len(start[0])
    points = np.empty((2, len(nodes), 2, n))
    points[0, :, axis] = nodes[:, forward]
    points[1, :, axis] = -nodes[:, backward] if part.even \
        else nodes[:, backward]
    points[:, :, 1 - axis] = start[1 - axis]
    return points


def _value_integral(sym, x0, xi0, velocity, T, dt):
    """_escape_integral read from sym.value: Re p at both coordinates of
    every node, accumulated in the same order."""
    n_steps = int(round(2.0 * T / dt))
    t_nodes = dt * np.arange(n_steps + 1)
    w, w_d1 = (geometry._trapezoid_weights(chi, dt)
               for chi in geometry._chi_T(T, t_nodes))
    vx, vk = velocity
    re0 = np.real(sym.value(x0, xi0))
    raw = np.zeros(x0.shape)
    h_raw = 2.0 * re0
    for sign in (1.0, -1.0):
        acc = w[0] * re0
        acc_d1 = w_d1[0] * re0
        for k in range(1, n_steps + 1):
            t = sign * t_nodes[k]
            re = np.real(sym.value(x0 + t * vx, xi0 + t * vk))
            acc += w[k] * re
            acc_d1 += w_d1[k] * re
        raw = raw - sign * acc
        h_raw += acc_d1
    return raw, h_raw


def _small_build(model, symbol):
    return build_escape(dataclasses.replace(model, symbol=symbol),
                        lattice=((-2.0, 2.0), (-1.0, 1.0)), n_x=33, n_xi=17)


class TestFlow:
    def test_unit_speed_translation_on_zero_line(self, gevrey2):
        # on xi = 0 the flow is d/dt (x, xi) = (sech^2(0), 0) = (1, 0)
        x0 = np.array([1.0, -0.5, 0.0])
        states = _sampled_points(gevrey2.symbol, x0, np.zeros(3), 1.0)[0]
        t = 0.01 * np.arange(1, 201)[:, None]
        assert np.abs(states[:, 0] - (x0 + t)).max() < 1e-10
        assert np.all(states[:, 1] == 0.0)

    def test_imaginary_part_conserved(self, gevrey2):
        x0, xi0 = np.array([0.5, -1.2, 2.0]), np.array([0.3, 0.8, -0.6])
        states = _sampled_points(gevrey2.symbol, x0, xi0, 2.5)[0]
        im_p = np.imag(gevrey2.symbol.value(states[:, 0], states[:, 1]))
        im_p0 = np.imag(gevrey2.symbol.value(x0, xi0))
        assert np.abs(im_p - im_p0).max() < 1e-7

    def test_reversibility(self, gevrey2):
        x0, xi0 = np.array([0.2, -0.7]), np.array([0.25, -0.1])
        end = _sampled_points(gevrey2.symbol, x0, xi0, 1.5)[0, -1]
        back = _sampled_points(gevrey2.symbol, end[0], end[1], 1.5)[1, -1]
        assert np.abs(back - [x0, xi0]).max() < 1e-8

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.tag)
    def test_split_field_equals_grad_field(self, model):
        # the speed of the moving coordinate is its component of the field
        # read from sym.grad, and the other component is zero. The lattice
        # holds signed zeros, negative values and tanh's saturated tail
        x = np.concatenate([np.linspace(-6.0, 6.0, 97), [-0.0, 0.0]])
        X, K = np.meshgrid(x, x, indexing="ij")
        split = model.symbol.split
        axis, part, speed = geometry._moving_part(split, X, K)
        assert part is (split.a, split.b)[axis] and part.unit == 1
        field = _grad_field(model.symbol, X, K)
        assert speed.shape == X.shape
        assert np.array_equal(speed, field[axis])
        assert np.array_equal(field[1 - axis], np.zeros(X.shape))

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.tag)
    @pytest.mark.parametrize("t", [-8.0, -0.01, 0.37, 8.0])
    def test_field_constant_along_line(self, model, t):
        # what makes the closed-form line exact: the speed depends on the
        # coordinate that stays fixed, so at the moved point it is the
        # speed at the start, bit for bit
        x = np.concatenate([np.linspace(-6.0, 6.0, 97), [-0.0, 0.0]])
        points = list(np.meshgrid(x, x, indexing="ij"))
        axis, _, speed = geometry._moving_part(model.symbol.split, *points)
        points[axis] = points[axis] + t * speed
        assert np.array_equal(
            geometry._moving_part(model.symbol.split, *points)[2], speed)

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.tag)
    @pytest.mark.parametrize("dt", [0.01, -0.01])
    def test_closed_form_line_matches_references(self, model, dt):
        # every node of both time directions over the default T = 4, from
        # seeded starts across the model's default lattice and signed zeros
        (xlo, xhi), (klo, khi) = model.symbol.zero_set_hint
        cx, ck = 0.5 * (xlo + xhi), 0.5 * (klo + khi)
        half = 2.0 * float(np.hypot(xhi - xlo, khi - klo)) * 1.01
        rng = np.random.default_rng(7)
        x0 = np.concatenate([rng.uniform(cx - half, cx + half, 40),
                             [-0.0, 0.0, 0.0]])
        xi0 = np.concatenate([rng.uniform(ck - half, ck + half, 40),
                              [0.0, -0.0, 0.0]])
        got = _sampled_points(model.symbol, x0, xi0, 4.0)[int(dt < 0)]
        n_steps = len(got)
        assert n_steps == 800
        v = np.array(_grad_field(model.symbol, x0, xi0))
        start = np.array([x0, xi0])
        k = np.arange(1, n_steps + 1)[:, None, None]
        t = k * np.longdouble(dt)
        line = start.astype(np.longdouble) + t * v.astype(np.longdouble)
        scale = np.abs(start) + np.abs(t * v).astype(float)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - line).astype(float) <= 2 * eps * scale)
        # the reference adds one rounded increment per step
        ref = np.array(list(_rk4_flow(model.symbol, x0, xi0, n_steps, dt)))
        assert np.all(np.abs(ref - got) <= (k + 4) * eps * scale)

    @pytest.mark.parametrize("parts", [(SQUARE, I_TANH), (I_SQUARE, SQUARE),
                                       (EXP, I_TANH)],
                             ids=["real+i", "i+real", "undeclared+i"])
    def test_integral_matches_value_reference(self, parts):
        # each direction of the moving coordinate, from starts whose
        # mirrors are not starts; exp is not even, so its backward
        # trajectories are the forward ones at -speed. With two real
        # parts or none nothing is integrated (test_two_real_parts_raise,
        # test_two_imaginary_parts_raise)
        sym = additive_symbol(*parts, order_s=ANALYTIC, zero_set_hint=None,
                              name="parts")
        rng = np.random.default_rng(3)
        start = rng.uniform(-2.0, 2.0, (2, 40))
        axis, part, speed = geometry._moving_part(sym.split, *start)
        got = geometry._escape_integral(part, start[axis], speed, 1.0, 0.01)
        ref = _value_integral(sym, *start, _grad_field(sym, *start), 1.0,
                              0.01)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("model", [make_gevrey_transport(2.0),
                                       make_davies()], ids=lambda m: m.tag)
    def test_even_part_off_centre_lattice_matches_value_reference(self,
                                                                  model):
        # a lattice off centre in both coordinates lacks the mirrors of
        # its starts, which are integrated on their own
        X, K = np.meshgrid(geometry._axis(-1.0, 6.0, 57),
                           geometry._axis(-0.3, 0.9, 13), indexing="ij")
        sym = model.symbol
        axis, part, speed = geometry._moving_part(sym.split, X.ravel(),
                                                  K.ravel())
        assert part.even
        start = (X.ravel(), K.ravel())[axis]
        starts, _, _ = _mirrored(part, start, speed)
        assert len(starts) > len(_distinct(start, speed)[0])
        got = geometry._escape_integral(part, start, speed, 1.0, 0.01)
        ref = _value_integral(sym, X.ravel(), K.ravel(),
                              _grad_field(sym, X.ravel(), K.ravel()), 1.0,
                              0.01)
        for g, r in zip(got, ref):
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("model", CATALOG, ids=lambda m: m.tag)
    def test_declared_even_parts_are_even_bit_for_bit(self, model):
        # on signed zeros, on the default lattice's axes and on the
        # points of trajectories from across that lattice
        split = model.symbol.split
        even = [(i, p) for i, p in enumerate((split.a, split.b)) if p.even]
        assert even
        (xlo, xhi), (klo, khi) = model.symbol.zero_set_hint
        centre = (0.5 * (xlo + xhi), 0.5 * (klo + khi))
        half = 2.0 * float(np.hypot(xhi - xlo, khi - klo)) * 1.01
        axes = [geometry._axis(c - half, c + half, 129) for c in centre]
        rng = np.random.default_rng(19)
        x0, xi0 = (rng.uniform(c - half, c + half, 20) for c in centre)
        points = _sampled_points(model.symbol, x0, xi0, 4.0)
        for i, part in even:
            t = np.concatenate([[-0.0, 0.0], axes[i],
                                points[:, :, i].ravel()])
            assert part.f(-t).tobytes() == part.f(t).tobytes()

    def test_split_flow_never_calls_grad(self, gevrey2):
        traced = dataclasses.replace(gevrey2.symbol, grad=_raising)
        got = _small_build(gevrey2, traced)
        ref = _small_build(gevrey2, gevrey2.symbol)
        assert np.array_equal(got.G_values, ref.G_values)
        assert np.array_equal(got.HG_values, ref.HG_values)

    def test_constant_field_evaluated_once_per_batch(self, gevrey2):
        # one field evaluation serves the flow and the cutoff term of a
        # build; the full RK4 step of the reference makes four per step
        calls = []
        split = gevrey2.symbol.split

        def counting(part):
            def d1(t):
                calls.append(np.shape(t))
                return part.d1(t)
            return dataclasses.replace(part, d1=d1)

        sym = dataclasses.replace(gevrey2.symbol, split=dataclasses.replace(
            split, a=counting(split.a), b=counting(split.b)))
        got = _small_build(gevrey2, sym)
        assert calls == [(33, 17)]
        ref = _small_build(gevrey2, gevrey2.symbol)
        assert np.array_equal(got.G_values, ref.G_values)
        assert np.array_equal(got.HG_values, ref.HG_values)


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
        far = escape_gevrey2.fields_on([cx + r + 0.5, cx - 2 * r], [ck])
        assert all(np.all(v == 0.0) for v in far)
        g, gx, gk = escape_gevrey2.fields_on([cx + r + 1.0], [ck])
        assert g == 0.0 and gx == 0.0 and gk == 0.0

    def test_axis_partly_off_lattice_outside_ball(self, escape_gevrey2):
        # x runs past the lattice's right end, where every point lies
        # outside the cutoff ball: those columns are exact zeros and the
        # lattice part still interpolates G
        esc = escape_gevrey2
        x = np.append(esc.x_axis, esc.x_axis[-1] + np.array([1e-9, 0.1, 1.0]))
        g, gx, gxi = esc.fields_on(x, esc.xi_axis)
        n = esc.x_axis.size
        assert x[n] - esc.cutoff_center[0] > esc.cutoff_radius
        for v in (g, gx, gxi):
            assert v.shape == (n + 3, esc.xi_axis.size)
            assert np.all(v[n:] == 0.0)
        assert np.abs(g[:n] - esc.G_values).max() <= 1e-12 * esc.sup_G

    def test_fields_on_uncovered_point_raises(self, gevrey2):
        # the lattice stops at |x| = 2, inside the cutoff ball of radius 5.4
        esc = build_escape(gevrey2, lattice=((-2.0, 2.0), (-1.0, 1.0)),
                           n_x=33, n_xi=17)
        with pytest.raises(CoverageError,
                           match=r"does not cover .*\(2\.5000, 0\.0000\)"):
            esc.fields_on([0.0, 2.5], [0.0])

    def test_splines_built_once(self, escape_gevrey2, monkeypatch):
        solved = []
        real = np.linalg.solve

        def counting(*args):
            solved.append(args)
            return real(*args)

        monkeypatch.setattr(np.linalg, "solve", counting)
        esc = dataclasses.replace(escape_gevrey2)  # no splines cached yet
        x = np.linspace(-1.5, 1.5, 7)
        xi = np.linspace(-0.4, 0.4, 7)
        g1, gx, gxi = esc.fields_on(x, xi)
        g2 = esc.fields_on(x, xi)[0]
        assert len(solved) == 2  # along x, then along xi, all fields at once
        # the values of each field's spline solved afresh on its own
        axes = (esc.x_axis, esc.xi_axis)
        Bx, Bk = (geometry._basis(geometry._knots(a), a) for a in axes)
        Ex = geometry._basis(geometry._knots(axes[0]), x)
        Ek = geometry._basis(geometry._knots(axes[1]), xi)
        lat_x, lat_xi = geometry._lattice_gradient(esc.G_values, *axes)
        for got, values in ((g1, esc.G_values), (g2, esc.G_values),
                            (gx, lat_x), (gxi, lat_xi)):
            fresh = real(Bk, real(Bx, values).T).T
            assert np.array_equal(got, Ex @ fresh @ Ek.T)

    def test_splines_match_scipy_reference(self, escape_gevrey2, gevrey2):
        # the same not-a-knot interpolant, built by scipy.interpolate, on
        # the lattice, both last edges, a random lattice and the nodes
        # (Re x, -Im x) of the Toeplitz probe at h = 0.0125
        interp = pytest.importorskip("scipy.interpolate")
        esc = escape_gevrey2
        axes = (esc.x_axis, esc.xi_axis)

        def reference(values):
            along_x = interp.make_interp_spline(axes[0], values, k=3)
            along_xi = interp.make_interp_spline(axes[1], along_x.c.T, k=3)
            return interp.NdBSpline((along_x.t, along_xi.t), along_xi.c.T, 3)

        rng = np.random.default_rng(7)
        probe = experiments.toeplitz_probe(gevrey2, 0.0125)[0].cgrid
        lattices = [axes, (axes[0][-1:], rng.uniform(*axes[1][[0, -1]], 300)),
                    (rng.uniform(*axes[0][[0, -1]], 300), axes[1][-1:]),
                    (rng.uniform(*axes[0][[0, -1]], 70),
                     rng.uniform(*axes[1][[0, -1]], 70)),
                    (probe.re_axis, -probe.im_axis)]
        fields = (esc.G_values,
                  *geometry._lattice_gradient(esc.G_values, *axes))
        refs = [reference(values) for values in fields]
        for x, xi in lattices:
            X, K = np.meshgrid(x, xi, indexing="ij")
            for got, values, ref in zip(esc.fields_on(x, xi), fields, refs):
                want = ref(np.stack([X, K], axis=-1))
                assert np.abs(got - want).max() <= 1e-14 * np.abs(values).max()

    def test_import_skips_scipy_interpolate(self):
        # scipy.interpolate pulls in scipy.optimize, a large share of the
        # start-up of every process
        child = ("import sys\n"
                 "import gevspec, gevspec.cli\n"
                 "print(sorted(m for m in ('scipy.interpolate', "
                 "'scipy.optimize') if m in sys.modules))\n")
        src = str(Path(gevspec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_splines_interpolate_lattice_values(self, escape_gevrey2):
        esc = dataclasses.replace(escape_gevrey2)
        lat_x, lat_xi = geometry._lattice_gradient(esc.G_values, esc.x_axis,
                                                   esc.xi_axis)
        for got, values in zip(esc.fields_on(esc.x_axis, esc.xi_axis),
                               (esc.G_values, lat_x, lat_xi)):
            assert np.abs(got - values).max() <= 1e-12 * np.abs(values).max()

    def test_spline_coefficients_solve_collocation(self, escape_gevrey2):
        # B_x C B_xi^T reproduces the lattice values of every field
        esc = escape_gevrey2
        values = np.stack([esc.G_values, *geometry._lattice_gradient(
            esc.G_values, esc.x_axis, esc.xi_axis)])
        Bx, Bk = (geometry._basis(geometry._knots(a), a)
                  for a in (esc.x_axis, esc.xi_axis))
        for coef, want in zip(esc._coef, values):
            got = Bx @ coef @ Bk.T
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_splines_independent_of_blas_threads(self, escape_gevrey2,
                                                 tmp_path):
        # the splines and the integrals of a build; the thread count is set
        # in each child's environment only
        path = tmp_path / "escape.pkl"
        path.write_bytes(pickle.dumps(dataclasses.replace(escape_gevrey2)))
        child = (
            "import hashlib, pickle, sys\n"
            "import numpy as np\n"
            "esc = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "v = [*esc.fields_on(np.linspace(-2.4, 2.4, 53),\n"
            "                    np.linspace(-0.9, 0.9, 37))]\n"
            "from gevspec.geometry import build_escape\n"
            "from gevspec.symbols import make_gevrey_transport\n"
            "b = build_escape(make_gevrey_transport(2.0), n_x=33, n_xi=33)\n"
            "v += [b.G_values, b.HG_values]\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in v))"
            ".hexdigest())\n")
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
        v = esc.fields_on(esc.x_axis[i:i + 1], esc.xi_axis[j:j + 1])[0][0, 0]
        assert v == pytest.approx(esc.G_values[i, j], abs=1e-12)

    @pytest.mark.parametrize("model", [make_gevrey_transport(1.5),
                                       make_gevrey_transport(2.0),
                                       make_gevrey_transport(3.0),
                                       make_analytic_transport()],
                             ids=lambda m: m.tag)
    def test_split_build_equals_grad_build(self, model):
        # the reference reads the field from sym.grad and Re p from
        # sym.value at both coordinates of every node of every lattice point
        esc = build_escape(model, lattice=((-2.0, 2.0), (-1.0, 1.0)),
                           n_x=33, n_xi=17)
        (chi, chi_x, chi_xi), (X, K) = _cutoff(esc)
        fx, fk = _grad_field(model.symbol, X, K)
        raw, h_raw = _value_integral(model.symbol, X, K, (fx, fk), esc.T,
                                     geometry.DEFAULT_DT)
        HG = chi * h_raw + raw * (fx * chi_x + fk * chi_xi)
        assert np.array_equal(esc.G_values, chi * raw)
        assert np.array_equal(esc.HG_values, HG)
        zero = np.abs(model.symbol.value(X, K) - model.z0) <= geometry.ZERO_TOL
        assert esc.margin_c == -HG[zero].max()

    @pytest.mark.parametrize("box", [
        dict(n_x=33, n_xi=33),
        dict(lattice=((-1.0, 6.0), (-0.5, 0.5)), n_x=57, n_xi=9)],
        ids=["default-box", "off-centre"])
    @pytest.mark.parametrize("model", [make_gevrey_transport(1.5),
                                       make_gevrey_transport(2.0),
                                       make_gevrey_transport(3.0),
                                       make_analytic_transport()],
                             ids=lambda m: m.tag)
    def test_integrals_run_on_cutoff_support_only(self, model, box):
        sym = model.symbol
        recorded, calls = _recorded(model)
        esc = build_escape(recorded, **box)
        # the full-lattice reference
        (chi, chi_x, chi_xi), (X, K) = _cutoff(esc)
        axis, part, fx = geometry._moving_part(sym.split, X, K)
        assert (axis, part) == (0, sym.split.a)
        raw, h_raw = (v.reshape(X.shape) for v in geometry._escape_integral(
            part, X.ravel(), fx.ravel(), esc.T, geometry.DEFAULT_DT))
        assert np.array_equal(esc.G_values, chi * raw)
        assert np.array_equal(esc.HG_values,
                              chi * h_raw + raw * (fx * chi_x))
        support = (chi != 0.0) | (chi_x != 0.0) | (chi_xi != 0.0)
        assert support.any() and not support.all()
        for field in (esc.G_values, esc.HG_values):
            assert np.all(field[~support] == 0.0)
            assert not np.signbit(field[~support]).any()
        # x moves under i tanh(xi), which is never evaluated: only a(x) is,
        # once at the starts, which are the distinct (x, speed) pairs of
        # the support and of their mirrors (-x, speed), and once per
        # forward node. The default box is symmetric in x, so its mirrors
        # are its own starts; the off-centre one lacks most of them
        n_steps = int(round(2.0 * esc.T / geometry.DEFAULT_DT))
        assert len(calls) == 1 + n_steps
        assert all(seen is sym.split.a for seen, _ in calls)
        starts, _, _ = _mirrored(sym.split.a, X[support], fx[support])
        assert np.array_equal(calls[0][1], starts)
        assert all(t.shape == starts.shape for _, t in calls)
        distinct = len(_distinct(X[support], fx[support])[0])
        if "lattice" in box:
            assert distinct < len(starts) < 2 * distinct
        else:
            assert len(starts) == distinct

    @pytest.mark.parametrize("fixture", ["escape_gevrey2", "escape_analytic"])
    def test_default_lattice_squares_the_cutoff_ball(self, fixture, request):
        # the cutoff ball has radius twice the hint's diagonal, about the
        # hint's centre, and the default lattice is the square of half
        # width 1.01 x that radius about the same centre
        esc = request.getfixturevalue(fixture)
        model = {"escape_gevrey2": "gevrey2",
                 "escape_analytic": "analytic_model"}[fixture]
        (xlo, xhi), (klo, khi) = request.getfixturevalue(
            model).symbol.zero_set_hint
        assert esc.cutoff_center == (0.5 * (xlo + xhi), 0.5 * (klo + khi))
        assert esc.cutoff_radius == 2.0 * np.hypot(xhi - xlo, khi - klo)
        half = esc.cutoff_radius * 1.01
        for axis, c in zip((esc.x_axis, esc.xi_axis), esc.cutoff_center):
            assert np.array_equal(axis, geometry._axis(c - half, c + half, 129))

    @pytest.mark.parametrize("fixture", ["escape_gevrey2", "escape_analytic"])
    def test_default_lattice_even_in_xi(self, fixture, request):
        # the lattice is symmetric about xi = 0 to the last bit, and so are
        # the cutoff and the speed sech^2(xi): G and H_{Im p} G are even
        esc = request.getfixturevalue(fixture)
        assert np.array_equal(esc.xi_axis, -esc.xi_axis[::-1])
        for field in (esc.G_values, esc.HG_values):
            assert np.array_equal(field, field[:, ::-1])

    @pytest.mark.parametrize("model", [make_gevrey_transport(2.0),
                                       make_analytic_transport()],
                             ids=lambda m: m.tag)
    def test_default_lattice_integrates_distinct_trajectories(self, model):
        # 12 605 support points, of which the rows xi and -xi repeat a
        # trajectory, and the even a(x) on the symmetric x axis makes the
        # column -x each column's mirror: one forward pass evaluates a(x)
        # at 6 366 points per node, 801 times
        recorded, calls = _recorded(model)
        esc = build_escape(recorded)
        support = np.any([c != 0.0 for c in _cutoff(esc)[0]], axis=0)
        assert support.sum() == 12605
        assert {t.shape for _, t in calls} == {(6366,)}
        assert len(calls) == 1 + int(round(2.0 * esc.T / geometry.DEFAULT_DT))

    def test_signed_zero_starts_stay_distinct(self, gevrey2):
        # -0.0 and +0.0 differ in their bits, so they are two trajectories
        x0 = np.array([-0.0, 0.0, 0.0, -0.0])
        speed = np.ones(4)  # sech^2(0), the speed at xi = 0
        first, inverse = _distinct(x0, speed)
        assert len(first) == 2
        assert np.array_equal(x0[first][inverse].view(np.int64),
                              x0.view(np.int64))
        calls = []
        geometry._escape_integral(_recording(gevrey2.symbol.split.a, calls),
                                  x0, speed, 1.0, 0.01)
        assert sorted(np.signbit(calls[0][1])) == [False, True]

    @pytest.mark.parametrize("kwargs, match", [
        (dict(dt=0.0), "time step"),
        (dict(dt=-0.01), "time step"),
        (dict(n_x=3), "at least 4 nodes"),
        (dict(n_xi=3), "at least 4 nodes"),
        (dict(lattice=((1.0, -1.0), (-1.0, 1.0))), "ascend"),
    ], ids=["dt-zero", "dt-negative", "n_x-3", "n_xi-3", "descending-x"])
    def test_bad_arguments_are_config_errors(self, gevrey2, kwargs, match):
        # each used to fail late: ZeroDivisionError, IndexError, IndexError
        # in the spline evaluation, or a CoverageError at every point of a descending
        # axis that had built
        with pytest.raises(GeometryConfigError, match=match):
            build_escape(gevrey2, **kwargs)

    def test_four_nodes_per_axis_build(self, gevrey2):
        # the fewest nodes the cubic splines take
        esc = build_escape(gevrey2, lattice=((-1.5, 1.5), (-1.0, 1.0)),
                           n_x=4, n_xi=5)
        assert esc.margin_c > 0
        g = esc.fields_on(esc.x_axis, esc.xi_axis[2:3])[0][:, 0]
        assert np.abs(g - esc.G_values[:, 2]).max() <= 1e-12 * esc.sup_G

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
        # set whatever the flow: the margin is exactly 0
        sym = additive_symbol(I_SQUARE, I_TANH, order_s=ANALYTIC,
                              zero_set_hint=((-0.5, 0.5), (-0.4, 0.4)),
                              name="i x^2 + i tanh(xi)")
        with pytest.raises(EscapeConstructionError,
                           match=r"H_\(Im p\) G = 0\.000e\+00 >= 0"):
            build_escape(ModelInstance(sym, 0j), n_x=33, n_xi=33)

    @pytest.mark.parametrize("z0", [0.25, 0.5])
    def test_two_real_parts_raise(self, z0):
        # H_{Im p} G is exactly 0 on the zero circle, so the margin is 0,
        # not the sign of a rounding residue
        sym = additive_symbol(SQUARE, SQUARE, order_s=ANALYTIC,
                              zero_set_hint=((-0.8, 0.8), (-0.8, 0.8)),
                              name="x^2 + xi^2")
        with pytest.raises(EscapeConstructionError,
                           match=r"H_\(Im p\) G = 0\.000e\+00 >= 0"):
            build_escape(ModelInstance(sym, z0),
                         lattice=((-1.0, 1.0), (-1.0, 1.0)), n_x=33, n_xi=33)

    def test_moving_part_decided_in_both_directions(self):
        # p = i tanh(x) + xi^2 moves xi and p' = x^2 + i tanh(xi) moves x.
        # p'(x, xi) = p(xi, x), and the swap of the axes reverses the flow,
        # so G changes sign and H_{Im p} G does not. raw is the difference
        # of the two time directions and keeps its bits; h_raw adds them in
        # the other order, so H_{Im p} G agrees to rounding
        p = additive_symbol(I_TANH, SQUARE, order_s=ANALYTIC,
                            zero_set_hint=((-0.5, 0.5), (-0.4, 0.4)),
                            name="i tanh(x) + xi^2")
        q = additive_symbol(SQUARE, I_TANH, order_s=ANALYTIC,
                            zero_set_hint=((-0.4, 0.4), (-0.5, 0.5)),
                            name="x^2 + i tanh(xi)")
        esc_p, esc_q = (build_escape(ModelInstance(sym, 0j)) for sym in (p, q))
        assert np.array_equal(esc_p.x_axis, esc_q.xi_axis)
        assert np.array_equal(esc_p.xi_axis, esc_q.x_axis)
        assert np.array_equal(esc_p.G_values, -esc_q.G_values.T)
        scale = np.abs(esc_q.HG_values).max()
        assert np.abs(esc_p.HG_values - esc_q.HG_values.T).max() \
            <= 4 * np.finfo(float).eps * scale
        assert esc_p.margin_c == esc_q.margin_c == 72.86139872547457

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
        chi = _cutoff(esc)[0][0]
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
