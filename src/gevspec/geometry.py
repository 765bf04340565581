"""Escape functions from the Hamiltonian flow of Im p, and deformed ellipticity.

The escape function follows the time-averaging recipe
    G(rho) = chi_cut(rho) * (-int_0^inf chi_T(t) Re p(Phi_t rho) dt
                             + int_0^inf chi_T(t) Re p(Phi_-t rho) dt)
along the flow Phi_t of H_{Im p}. Writing G = chi_cut * raw, integration by
parts in t gives
    H_{Im p} raw = 2 Re p + int_0^inf chi_T'(t) (Re p(Phi_t) + Re p(Phi_-t)) dt
    H_{Im p} G   = chi_cut * H_{Im p} raw + raw * H_{Im p} chi_cut,
so one flow batch from the lattice yields both G and H_{Im p} G: the two
time integrals share the trajectory samples, and the cutoff term is
analytic. Under Re p >= 0 plus nontrapping H_{Im p} G <= -c on the zero
set, which is checked numerically rather than assumed: the certified
margin c of build_escape is what decides that the zero set escapes, and
the flow is only ever stepped as one RK4 batch from the lattice.

For an additive symbol p = a(x) + b(xi) the field is
    H_{Im p} = (d Im b / dxi, -d Im a / dx),
read from the symbol's split without evaluating grad; this is the
counterpart of the diagonal-plus-circulant Weyl matrix in quantize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
from scipy.interpolate import NdBSpline, make_interp_spline

from .symbols import (Box, GevreySymbol, ModelInstance, smooth_step,
                      smooth_step_d1, taylor_extension)

FLOW_BOX_HALF_WIDTH = 50.0
DEFAULT_DT = 1e-2
ZERO_TOL = 1e-3  # a lattice point with |p - z0| <= ZERO_TOL counts as a zero


class GeometryConfigError(ValueError):
    pass


class EscapeConstructionError(RuntimeError):
    """Raised when the constructed G fails H_{Im p} G < 0 on the zero set."""

    def __init__(self, message: str, offending_point: Tuple[float, float]):
        super().__init__(message)
        self.offending_point = offending_point


class CoverageError(ValueError):
    pass


def _cubic_spline(x_axis: np.ndarray, xi_axis: np.ndarray,
                  values: np.ndarray) -> NdBSpline:
    """Tensor-product cubic interpolant (not-a-knot) of lattice values.

    The collocation matrix is the Kronecker product of the two axes', so
    one banded solve along each axis gives the coefficients exactly, with
    no iterative solver and no dependence on the BLAS thread count.
    """
    along_x = make_interp_spline(x_axis, values, k=3)  # c: (n_x, n_xi)
    along_xi = make_interp_spline(xi_axis, along_x.c.T, k=3)  # c: (n_xi, n_x)
    return NdBSpline((along_x.t, along_xi.t), along_xi.c.T, 3)


@dataclass(frozen=True)
class EscapeField:
    x_axis: np.ndarray
    xi_axis: np.ndarray
    G_values: np.ndarray   # shape (len(x_axis), len(xi_axis))
    HG_values: np.ndarray  # same shape, H_{Im p} G by integration by parts
    margin_c: float
    cutoff_radius: float
    cutoff_center: Tuple[float, float]
    T: float

    @cached_property
    def _splines(self) -> Tuple[NdBSpline, ...]:
        """Cubic splines of G, d_x G and d_xi G (centered lattice
        differences), built once per field."""
        gx, gxi = _lattice_gradient(self.G_values, self.x_axis, self.xi_axis)
        return tuple(_cubic_spline(self.x_axis, self.xi_axis, f)
                     for f in (self.G_values, gx, gxi))

    def _outside_support(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        r = np.hypot(x - self.cutoff_center[0], xi - self.cutoff_center[1])
        return r >= self.cutoff_radius

    def _eval_fields(self, splines, x, xi):
        """Evaluate lattice splines; G and its gradient vanish outside the
        cutoff ball, so points there evaluate to zero without lattice
        coverage; anything else out of range is a coverage error."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        x, xi = np.broadcast_arrays(x, xi)
        inside = (
            (x >= self.x_axis[0]) & (x <= self.x_axis[-1])
            & (xi >= self.xi_axis[0]) & (xi <= self.xi_axis[-1]))
        if not np.all(inside | self._outside_support(x, xi)):
            k = int(np.argmax(~(inside | self._outside_support(x, xi))))
            raise CoverageError(
                "escape lattice does not cover requested point "
                f"({x.ravel()[k]:.4f}, {xi.ravel()[k]:.4f}) inside the cutoff ball")
        pts = np.stack([np.where(inside, x, self.x_axis[0]),
                        np.where(inside, xi, self.xi_axis[0])], axis=-1)
        return [np.where(inside, spline(pts), 0.0) for spline in splines]

    def g_at(self, x, xi) -> np.ndarray:
        """Interpolated G; zero outside the cutoff ball by compact support."""
        return self._eval_fields(self._splines[:1], x, xi)[0]

    def grad_g_at(self, x, xi) -> Tuple[np.ndarray, np.ndarray]:
        """Lattice-gradient of G (centered differences) interpolated to points."""
        gx, gxi = self._eval_fields(self._splines[1:], x, xi)
        return gx, gxi

    @property
    def sup_G(self) -> float:
        return float(np.abs(self.G_values).max())


@dataclass(frozen=True)
class DeformationCheck:
    gamma_measured: float
    worst_point: Tuple[float, float]


def _hamiltonian_im(sym: GevreySymbol, x: np.ndarray, xi: np.ndarray):
    """H_{Im p} = (d_xi Im p, -d_x Im p) at (x, xi): from the additive split
    when the symbol has one, else from grad."""
    if sym.split is not None:
        shape = np.broadcast(x, xi).shape
        return (np.broadcast_to(sym.split.b.im_d1(xi), shape),
                np.broadcast_to(-sym.split.a.im_d1(x), shape))
    gx, gxi = sym.grad(x, xi)
    return np.imag(gxi), -np.imag(gx)


def _rk4_step(sym: GevreySymbol, x, xi, dt: float):
    k1x, k1k = _hamiltonian_im(sym, x, xi)
    k2x, k2k = _hamiltonian_im(sym, x + 0.5 * dt * k1x, xi + 0.5 * dt * k1k)
    k3x, k3k = _hamiltonian_im(sym, x + 0.5 * dt * k2x, xi + 0.5 * dt * k2k)
    k4x, k4k = _hamiltonian_im(sym, x + dt * k3x, xi + dt * k3k)
    return (x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0,
            xi + dt * (k1k + 2 * k2k + 2 * k3k + k4k) / 6.0)


def _flow_batch(sym: GevreySymbol, x0: np.ndarray, xi0: np.ndarray,
                n_steps: int, dt: float):
    """Vectorized RK4 over a batch; yields the state after every step.

    Points that leave the escape box are frozen in place so the batch can
    keep stepping; for the catalog models the field is bounded and frozen
    tails contribute a constant Re p to downstream quadratures.
    """
    x = x0.copy()
    xi = xi0.copy()
    active = np.ones(x.shape, dtype=bool)
    for _ in range(n_steps):
        xn, kn = _rk4_step(sym, x, xi, dt)
        x = np.where(active, xn, x)
        xi = np.where(active, kn, xi)
        active &= (np.abs(x) <= FLOW_BOX_HALF_WIDTH) & (np.abs(xi) <= FLOW_BOX_HALF_WIDTH)
        yield x, xi


def _chi_T(T: float, t: np.ndarray) -> np.ndarray:
    """Smooth time cutoff: 1 on [0, T], supported on [0, 2T]."""
    return 1.0 - smooth_step(np.asarray(t, dtype=float) / T - 1.0)


def _chi_T_d1(T: float, t: np.ndarray) -> np.ndarray:
    """d/dt of _chi_T; supported on [T, 2T] and nonpositive."""
    return -smooth_step_d1(np.asarray(t, dtype=float) / T - 1.0) / T


def _chi_cut(center: Tuple[float, float], r_inner: float, r_outer: float,
             x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    r = np.hypot(np.asarray(x) - center[0], np.asarray(xi) - center[1])
    return 1.0 - smooth_step((r - r_inner) / (r_outer - r_inner))


def _chi_cut_grad(center: Tuple[float, float], r_inner: float, r_outer: float,
                  x: np.ndarray, xi: np.ndarray):
    """(d_x, d_xi) of _chi_cut. The radial derivative vanishes for
    r <= r_inner, so clipping r there keeps the quotient finite at the center."""
    dx = np.asarray(x) - center[0]
    dk = np.asarray(xi) - center[1]
    r = np.hypot(dx, dk)
    width = r_outer - r_inner
    radial = -smooth_step_d1((r - r_inner) / width) / (width * np.maximum(r, r_inner))
    return radial * dx, radial * dk


def _trapezoid_weights(f: np.ndarray, dt: float) -> np.ndarray:
    w = f * dt
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _escape_integral(sym: GevreySymbol, x0: np.ndarray, xi0: np.ndarray,
                     T: float, dt: float):
    """raw = -int chi_T Re p(Phi_t) dt + int chi_T Re p(Phi_-t) dt and its
    flow derivative H_{Im p} raw = 2 Re p + int chi_T' (Re p(Phi_t) +
    Re p(Phi_-t)) dt, both trapezoid in t over the same trajectories."""
    n_steps = int(round(2.0 * T / dt))
    t_nodes = dt * np.arange(n_steps + 1)
    w = _trapezoid_weights(_chi_T(T, t_nodes), dt)
    w_d1 = _trapezoid_weights(_chi_T_d1(T, t_nodes), dt)
    re0 = np.real(np.asarray(sym.value(x0, xi0)))
    raw = np.zeros(x0.shape)
    h_raw = 2.0 * re0
    for sign in (1.0, -1.0):
        acc = w[0] * re0
        acc_d1 = w_d1[0] * re0
        for k, (x, xi) in enumerate(_flow_batch(sym, x0, xi0, n_steps, sign * dt)):
            re = np.real(np.asarray(sym.value(x, xi)))
            acc += w[k + 1] * re
            acc_d1 += w_d1[k + 1] * re
        raw = raw - sign * acc
        h_raw += acc_d1
    return raw, h_raw


def _deriv_1d(values: np.ndarray, spacing: float, axis: int) -> np.ndarray:
    """Fourth-order centered first derivative, second-order at the edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12.0 * spacing)
    out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2.0 * spacing)
    out[1] = (v[2] - v[0]) / (2.0 * spacing)
    out[-2] = (v[-1] - v[-3]) / (2.0 * spacing)
    out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2.0 * spacing)
    return np.moveaxis(out, 0, axis)


def _lattice_gradient(values: np.ndarray, x_axis: np.ndarray,
                      xi_axis: np.ndarray):
    gx = _deriv_1d(values, float(x_axis[1] - x_axis[0]), axis=0)
    gxi = _deriv_1d(values, float(xi_axis[1] - xi_axis[0]), axis=1)
    return gx, gxi


def _default_lattice(box: Box) -> Box:
    """Square box covering the cutoff ball of radius 2x the hint diagonal,
    so the sampled lattice plus compact support determine G everywhere."""
    (xlo, xhi), (klo, khi) = box
    cx, ck = 0.5 * (xlo + xhi), 0.5 * (klo + khi)
    r = 2.0 * float(np.hypot(xhi - xlo, khi - klo)) * 1.01
    return ((cx - r, cx + r), (ck - r, ck + r))


def build_escape(model: ModelInstance, T: float = 4.0,
                 lattice: Optional[Box] = None, n_x: int = 129, n_xi: int = 129,
                 dt: float = DEFAULT_DT) -> EscapeField:
    """Construct the escape function on a phase-space lattice and certify it.

    margin_c is -max of H_{Im p} G over the numerical zero set
    {|p - z0| <= ZERO_TOL}; a nonpositive margin raises, reporting the
    offending zero point, since the downstream deformation has no
    ellipticity gain without it.
    """
    sym = model.symbol
    hint = sym.zero_set_hint
    if hint is None:
        raise GeometryConfigError("model has no zero-set hint box")
    if lattice is None:
        lattice = _default_lattice(hint)
    (xlo, xhi), (klo, khi) = lattice
    x_axis = np.linspace(xlo, xhi, n_x)
    xi_axis = np.linspace(klo, khi, n_xi)
    X, K = np.meshgrid(x_axis, xi_axis, indexing="ij")

    (hxlo, hxhi), (hklo, hkhi) = hint
    center = (0.5 * (hxlo + hxhi), 0.5 * (hklo + hkhi))
    diag = float(np.hypot(hxhi - hxlo, hkhi - hklo))
    r_outer = 2.0 * diag

    raw, h_raw = _escape_integral(sym, X, K, T, dt)
    chi = _chi_cut(center, diag, r_outer, X, K)
    chi_x, chi_xi = _chi_cut_grad(center, diag, r_outer, X, K)
    fx, fk = _hamiltonian_im(sym, X, K)
    G = chi * raw
    HG = chi * h_raw + raw * (fx * chi_x + fk * chi_xi)

    vals = np.asarray(sym.value(X, K))
    zero_mask = np.abs(vals - model.z0) <= ZERO_TOL
    if not zero_mask.any():
        raise GeometryConfigError(
            f"no lattice points with |p - z0| <= {ZERO_TOL}")
    hg_zero = HG[zero_mask]
    margin_c = float(-hg_zero.max())
    field = EscapeField(x_axis, xi_axis, G, HG, margin_c, r_outer, center, T)
    if margin_c <= 0:
        k_bad = int(np.argmax(hg_zero))
        bad = (float(X[zero_mask][k_bad]), float(K[zero_mask][k_bad]))
        raise EscapeConstructionError(
            f"H_(Im p) G = {hg_zero.max():.3e} >= 0 at zero point {bad}; "
            "escape construction failed (trapped model?)", bad)
    return field


def check_deformed_ellipticity(model: ModelInstance, esc: EscapeField,
                               t: float, ext_order: int = 2) -> DeformationCheck:
    """Measure gamma = min Re p~(rho + i t H_G(rho)) / |t| over the box
    Omega, the symbol's zero-set hint.

    H_G comes from centered differences of the escape lattice. The check
    requires t < 0; at t = 0 the quotient is undefined.
    """
    if not t < 0:
        raise GeometryConfigError(f"deformation size must be negative, got {t}")
    omega_box = model.symbol.zero_set_hint
    if omega_box is None:
        raise GeometryConfigError("no Omega box available")
    gx, gxi = _lattice_gradient(esc.G_values, esc.x_axis, esc.xi_axis)
    X, K = np.meshgrid(esc.x_axis, esc.xi_axis, indexing="ij")
    # H_G = (d_xi G, -d_x G); keep one-cell margin where the differences
    # are one-sided
    (oxlo, oxhi), (oklo, okhi) = omega_box
    mask = np.zeros(X.shape, dtype=bool)
    mask[1:-1, 1:-1] = True
    mask &= (X >= oxlo) & (X <= oxhi) & (K >= oklo) & (K <= okhi)
    if not mask.any():
        raise GeometryConfigError("Omega box misses the escape lattice")
    hx = gxi[mask]
    hk = -gx[mask]
    ext = taylor_extension(model.symbol, ext_order,
                           (X[mask], K[mask]), (t * hx, t * hk))
    quot = np.real(ext) / abs(t)
    k_min = int(np.argmin(quot))
    gamma = float(quot[k_min])
    return DeformationCheck(gamma, (float(X[mask][k_min]), float(K[mask][k_min])))


def escape_csv_lines(field: EscapeField) -> List[str]:
    lines = ["x,xi,G,HG"]
    for i, x in enumerate(field.x_axis):
        for j, k in enumerate(field.xi_axis):
            lines.append(f"{x:.17g},{k:.17g},"
                         f"{field.G_values[i, j]:.17g},{field.HG_values[i, j]:.17g}")
    return lines

