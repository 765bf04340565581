"""Escape functions from the Hamiltonian flow of Im p, and deformed ellipticity.

The escape function follows the time-averaging recipe
    G(rho) = chi_cut(rho) * (-int_0^inf chi_T(t) Re p(Phi_t rho) dt
                             + int_0^inf chi_T(t) Re p(Phi_-t rho) dt)
along the flow Phi_t of H_{Im p}. Writing G = chi_cut * raw, integration by
parts in t gives
    H_{Im p} raw = 2 Re p + int_0^inf chi_T'(t) (Re p(Phi_t) + Re p(Phi_-t)) dt
    H_{Im p} G   = chi_cut * H_{Im p} raw + raw * H_{Im p} chi_cut,
so one set of trajectories from the lattice yields both G and H_{Im p} G:
the two time integrals share the trajectory samples, and the cutoff term
is analytic. Both fields vanish wherever chi_cut and its gradient do, so
the trajectories start from the lattice points of the cutoff's support
only, and the fields are +0.0 at every other point. Under Re p >= 0 plus
nontrapping H_{Im p} G <= -c on the zero set, which is checked
numerically rather than assumed: the certified margin c of build_escape
is what decides that the zero set escapes.

Every symbol is read by its additive split p = a(x) + b(xi), so the field is
    H_{Im p} = (d Im b / dxi, -d Im a / dx),
the counterpart of the diagonal-plus-circulant Weyl matrix in quantize.
build_escape is the one reader of the split's units. When exactly one part
is real, only its coordinate moves, at the imaginary part's slope: x at
d Im b / dxi, or xi at -d Im a / dx. The slope depends on the other
coordinate only, which stays fixed, so the flow is the straight line
    Phi_t(x, xi) = (x + t d Im b / dxi (xi), xi)  or  (x, xi - t d Im a / dx (x))
at constant speed, evaluated in closed form, and Re p along it is the real
part at its moved coordinate: _escape_integral integrates that one part,
and an imaginary part is never evaluated. When both parts are real,
H_{Im p} vanishes, and when neither is, Re p does; either way G and
H_{Im p} G are exact zeros and build_escape's margin check raises. A
symbol without a split is rejected.

A straight trajectory is fixed by its start and speed along the moving
coordinate, and it runs forward only: the backward trajectory from
(x0, v) is the forward one from (x0, -v), and when the moving part
declares its f even (symbols.Part.even) also the forward one from
(-x0, v), at the mirror images of the same points. So _escape_integral
integrates each distinct (start, speed) pair of the starts and of their
mirrors once, by bit pattern, in one forward pass, and both time
directions of every start read it with the same floating-point
operations as two passes would make. build_escape's axes are symmetric
about their centre to the last bit. On the default lattices, centred at
xi = 0, the transport speed sech^2(xi) is even, so the rows xi and -xi
share their trajectories, and every catalog real part is even, so the
column -x holds the mirrors of the column x: 6 366 trajectories of
2T/dt + 1 = 801 nodes serve the 12 605 support points at 129 x 129. A
part not declared even pays a second trajectory per start.

G and its lattice gradient are read through tensor-product cubic
splines, only ever on a lattice (the FBI nodes (Re x, -Im x) form one).
So _basis(knots, points), the dense B-spline basis of one axis at its
points, serves both the collocation solve and EscapeField.fields_on,
which evaluates the coefficients C as E_x C E_xi^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .symbols import (AdditiveSplit, Box, ModelInstance, Part, smooth_step,
                      taylor_extension)

DEFAULT_DT = 1e-2
ESCAPE_T = 4.0  # T of the time cutoff chi_T: 1 on [0, T], 0 from 2T
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


def _cubic_basis(t: np.ndarray, x: np.ndarray):
    """The first index j, per point, of the four cubic B-splines on the
    knots t that can be nonzero at x, and the list of their values B_j ..
    B_j+3, by de Boor's recurrence. One interval search per point; x must
    lie in [t[3], t[-4]], and the right end uses the last interval."""
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 3, len(t) - 5)
    left = [x - t[i - r] for r in range(3)]
    right = [t[i + 1 + r] - x for r in range(3)]
    b = [np.ones_like(x)]
    for k in range(1, 4):
        # B_i-k+1+r of degree k - 1 feeds B_i-k+r and B_i-k+1+r of degree k
        carry = 0.0
        for r in range(k):
            scaled = b[r] / (right[r] + left[k - 1 - r])
            b[r] = carry + right[r] * scaled
            carry = left[k - 1 - r] * scaled
        b.append(carry)
    return i - 3, b


def _knots(axis: np.ndarray) -> np.ndarray:
    """The not-a-knot knots of one axis: each end node four times, then
    the interior nodes but the first and last."""
    return np.concatenate([np.full(4, axis[0]), axis[2:-2],
                           np.full(4, axis[-1])])


def _basis(knots: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The dense matrix B_j(points[r]) of the cubic B-splines on knots,
    one row per point; a point off [knots[0], knots[-1]] gets a zero row.
    On an axis's own nodes it is that axis's collocation matrix."""
    rows = np.flatnonzero((points >= knots[0]) & (points <= knots[-1]))
    j, b = _cubic_basis(knots, points[rows])
    B = np.zeros((points.size, knots.size - 4))
    for c in range(4):
        B[rows, j + c] = b[c]
    return B


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
    def _lattice_grad(self) -> Tuple[np.ndarray, np.ndarray]:
        """(d_x G, d_xi G) on the lattice by centered differences, computed
        once per field."""
        return _lattice_gradient(self.G_values, self.x_axis, self.xi_axis)

    @cached_property
    def _coef(self) -> np.ndarray:
        """Coefficients C, shape (3, n_x, n_xi), of the tensor-product cubic
        interpolants (not-a-knot; de Boor, A Practical Guide to Splines,
        2001) of G, d_x G and d_xi G on the lattice, solved once per field.

        The collocation matrix is the Kronecker product of the two axes',
        so C solves B_x C B_xi^T = values: one numpy.linalg.solve along x,
        then one along xi on the transposed result, each for all three
        fields at once. The solves run on numpy's LAPACK; that their
        results do not depend on the BLAS thread count is tested at 1 and
        2 threads.
        """
        Bx, Bk = (_basis(_knots(a), a) for a in (self.x_axis, self.xi_axis))
        values = np.stack([self.G_values, *self._lattice_grad])
        along_x = np.linalg.solve(Bx, values).transpose(0, 2, 1)
        return np.linalg.solve(Bk, along_x).transpose(0, 2, 1)

    def fields_on(self, x, xi) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, d_x G, d_xi G) on the lattice of the 1-D axes x and xi, each
        of shape (len(x), len(xi)), as E_x C E_xi^T with E each axis's
        basis at its points; the gradient is the lattice's centered
        differences interpolated. An axis point off the escape lattice
        gets a zero basis row: G and its gradient vanish outside the cutoff
        ball, and a lattice point inside it that the escape lattice misses
        is a coverage error."""
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        in_x = (x >= self.x_axis[0]) & (x <= self.x_axis[-1])
        in_xi = (xi >= self.xi_axis[0]) & (xi <= self.xi_axis[-1])
        r = np.hypot(x[:, None] - self.cutoff_center[0],
                     xi[None, :] - self.cutoff_center[1])
        uncovered = (r < self.cutoff_radius) & ~(in_x[:, None] & in_xi)
        if uncovered.any():
            i, j = np.unravel_index(np.argmax(uncovered), uncovered.shape)
            raise CoverageError(
                "escape lattice does not cover requested point "
                f"({x[i]:.4f}, {xi[j]:.4f}) inside the cutoff ball")
        Ex = _basis(_knots(self.x_axis), x)
        Ek = _basis(_knots(self.xi_axis), xi)
        return tuple(Ex @ c @ Ek.T for c in self._coef)

    @property
    def sup_G(self) -> float:
        return float(np.abs(self.G_values).max())


@dataclass(frozen=True)
class DeformationCheck:
    gamma_measured: float
    worst_point: Tuple[float, float]


def _moving_part(split: AdditiveSplit, x: np.ndarray, xi: np.ndarray):
    """(axis, part, speed) of the flow of H_{Im p} from the points (x, xi),
    or None when both parts of the split are real or neither is. With one
    real part, only its coordinate moves: x (axis 0) at d Im b / dxi (xi),
    or xi (axis 1) at -d Im a / dx (x)."""
    a, b = split.a, split.b
    if a.unit == b.unit:
        return None
    if a.unit == 1:
        return 0, a, b.d1(xi)
    return 1, b, -a.d1(x)


def _chi_T(T: float, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(chi_T, d chi_T/dt): the smooth time cutoff, 1 on [0, T] and
    supported on [0, 2T], and its derivative, supported on [T, 2T] and
    nonpositive."""
    step, d_step = smooth_step(np.asarray(t, dtype=float) / T - 1.0)
    return 1.0 - step, -d_step / T


def _chi_cut(center: Tuple[float, float], r_inner: float, r_outer: float,
             x: np.ndarray, xi: np.ndarray):
    """(chi_cut, d_x chi_cut, d_xi chi_cut) from one radius: chi_cut is 1
    within r_inner of center and 0 from r_outer. The radial derivative
    vanishes for r <= r_inner, so clipping r there keeps the quotient finite
    at the center."""
    dx = np.asarray(x) - center[0]
    dk = np.asarray(xi) - center[1]
    r = np.hypot(dx, dk)
    width = r_outer - r_inner
    u = (r - r_inner) / width
    step, d_step = smooth_step(u)
    radial = -d_step / (width * np.maximum(r, r_inner))
    return 1.0 - step, radial * dx, radial * dk


def _trapezoid_weights(f: np.ndarray, dt: float) -> np.ndarray:
    w = f * dt
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _distinct_trajectories(start: np.ndarray, speed: np.ndarray):
    """(first, inverse) of the (start, speed) pairs of 1-D arrays, grouped
    by bit pattern: first indexes one pair of each group, in order of first
    occurrence, and inverse maps every pair to its group, so
    start[first][inverse] equals start bit for bit. Bit patterns keep -0.0 and +0.0 apart,
    so pairs without a repeat keep their own order: first is arange."""
    pairs = np.stack([start, speed], axis=-1)
    keys = pairs.view(np.dtype((np.void, pairs.itemsize * 2))).ravel()
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(index)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return index[order], rank[inverse.ravel()]


def _escape_integral(part: Part, start: np.ndarray, speed: np.ndarray,
                     T: float, dt: float):
    """raw = -int chi_T f(Phi_t) dt + int chi_T f(Phi_-t) dt and its flow
    derivative H_{Im p} raw = 2 f + int chi_T' (f(Phi_t) + f(Phi_-t)) dt,
    both trapezoid in t over the same trajectories, for the real part
    f = part.f, which is Re p along the flow.

    start and speed are 1-D arrays: f's coordinate moves from start at
    speed, so Phi_t is the exact point start + t speed at every node t.
    The backward trajectory from (start, speed) is the forward one from
    (start, -speed), and for a part declared even also the forward one
    from (-start, speed), with -0.0 read as +0.0: both give f the same
    values, bit for bit. So one forward pass integrates each distinct
    (start, speed) pair of the starts and of their mirrors, by bit
    pattern, once, and both directions of every start read it.
    """
    n = start.size
    if part.even:
        start, speed = np.concatenate([start, 0.0 - start]), np.tile(speed, 2)
    else:
        start, speed = np.tile(start, 2), np.concatenate([speed, -speed])
    first, inverse = _distinct_trajectories(start, speed)
    start, speed = start[first], speed[first]
    forward, backward = inverse[:n], inverse[n:]
    re0 = part.f(start)
    n_steps = int(round(2.0 * T / dt))
    t_nodes = dt * np.arange(n_steps + 1)
    w, w_d1 = (_trapezoid_weights(chi, dt) for chi in _chi_T(T, t_nodes))
    acc = w[0] * re0
    acc_d1 = w_d1[0] * re0
    point = np.empty(start.shape)
    term = np.empty(start.shape)
    for k in range(1, n_steps + 1):
        np.multiply(t_nodes[k], speed, out=point)
        re = part.f(np.add(start, point, out=point))
        acc += np.multiply(w[k], re, out=term)
        if w_d1[k]:  # chi_T' vanishes on [0, T]
            acc_d1 += np.multiply(w_d1[k], re, out=term)
    raw = (0.0 - acc[forward]) + acc[backward]
    h_raw = 2.0 * re0[forward] + acc_d1[forward] + acc_d1[backward]
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


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n nodes from lo to hi, symmetric about their centre to the last bit:
    the unit nodes are made exactly odd, so an axis centred at 0 is too."""
    u = np.linspace(-1.0, 1.0, n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * (0.5 * (u - u[::-1]))


def build_escape(model: ModelInstance, lattice: Optional[Box] = None,
                 n_x: int = 129, n_xi: int = 129,
                 dt: float = DEFAULT_DT) -> EscapeField:
    """Construct the escape function on a phase-space lattice and certify it.

    The time integrals run from the lattice points where chi_cut or its
    gradient is nonzero; G and H_{Im p} G are +0.0 at the others.
    margin_c is -max of H_{Im p} G over the numerical zero set
    {|p - z0| <= ZERO_TOL}; a nonpositive margin raises, reporting the
    offending zero point, since the downstream deformation has no
    ellipticity gain without it.

    A time step outside (0, T], fewer than the 4 nodes per axis a cubic
    spline needs, or a lattice axis that does not ascend between finite
    ends is a GeometryConfigError.
    """
    if not 0.0 < dt <= ESCAPE_T:
        raise GeometryConfigError(
            f"time step dt must lie in (0, {ESCAPE_T:g}], got {dt}")
    if min(n_x, n_xi) < 4:
        raise GeometryConfigError(
            "the cubic splines need at least 4 nodes per axis, got "
            f"n_x = {n_x}, n_xi = {n_xi}")
    sym = model.symbol
    if sym.split is None:
        raise GeometryConfigError(f"symbol {sym.name!r} has no additive split")
    hint = sym.zero_set_hint
    if hint is None:
        raise GeometryConfigError("model has no zero-set hint box")
    (hxlo, hxhi), (hklo, hkhi) = hint
    center = (0.5 * (hxlo + hxhi), 0.5 * (hklo + hkhi))
    diag = float(np.hypot(hxhi - hxlo, hkhi - hklo))
    r_outer = 2.0 * diag
    if lattice is None:
        # the square about the cutoff ball: the sampled lattice plus
        # compact support determine G everywhere
        half = r_outer * 1.01
        lattice = tuple((c - half, c + half) for c in center)
    if not all(-np.inf < lo < hi < np.inf for lo, hi in lattice):
        raise GeometryConfigError(
            f"lattice axes must ascend between finite ends, got {lattice}")
    x_axis, xi_axis = (_axis(lo, hi, n)
                       for (lo, hi), n in zip(lattice, (n_x, n_xi)))
    X, K = np.meshgrid(x_axis, xi_axis, indexing="ij")

    chi, chi_x, chi_xi = _chi_cut(center, diag, r_outer, X, K)
    # G and H_{Im p} G vanish wherever chi_cut and its gradient do, so
    # trajectories start from the cutoff's support only
    support = (chi != 0.0) | (chi_x != 0.0) | (chi_xi != 0.0)
    raw = np.zeros(X.shape)
    h_raw = np.zeros(X.shape)
    flux = 0.0  # H_{Im p} chi_cut
    moving = _moving_part(sym.split, X, K)
    if moving is not None:
        axis, part, speed = moving
        raw[support], h_raw[support] = _escape_integral(
            part, (X, K)[axis][support], speed[support], ESCAPE_T, dt)
        flux = speed * (chi_x, chi_xi)[axis]
    G = chi * raw
    HG = chi * h_raw + raw * flux

    vals = np.asarray(sym.value(X, K))
    zero_mask = np.abs(vals - model.z0) <= ZERO_TOL
    if not zero_mask.any():
        raise GeometryConfigError(
            f"no lattice points with |p - z0| <= {ZERO_TOL}")
    hg_zero = HG[zero_mask]
    margin_c = float(-hg_zero.max())
    field = EscapeField(x_axis, xi_axis, G, HG, margin_c, r_outer, center,
                        ESCAPE_T)
    if margin_c <= 0:
        k_bad = int(np.argmax(hg_zero))
        bad = (float(X[zero_mask][k_bad]), float(K[zero_mask][k_bad]))
        raise EscapeConstructionError(
            f"H_(Im p) G = {hg_zero.max():.3e} >= 0 at zero point {bad}; "
            "escape construction failed (trapped model?)", bad)
    return field


def check_deformed_ellipticity(model: ModelInstance, esc: EscapeField,
                               t: float) -> DeformationCheck:
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
    gx, gxi = esc._lattice_grad
    # H_G = (d_xi G, -d_x G); keep one-cell margin where the differences
    # are one-sided
    (oxlo, oxhi), (oklo, okhi) = omega_box
    in_x = (esc.x_axis >= oxlo) & (esc.x_axis <= oxhi)
    in_xi = (esc.xi_axis >= oklo) & (esc.xi_axis <= okhi)
    in_x[[0, -1]] = False
    in_xi[[0, -1]] = False
    mask = in_x[:, None] & in_xi[None, :]
    if not mask.any():
        raise GeometryConfigError("Omega box misses the escape lattice")
    i, j = np.nonzero(mask)
    x, xi = esc.x_axis[i], esc.xi_axis[j]
    hx = gxi[mask]
    hk = -gx[mask]
    ext = taylor_extension(model.symbol, (x, xi), (t * hx, t * hk))
    quot = np.real(ext) / abs(t)
    k_min = int(np.argmin(quot))
    gamma = float(quot[k_min])
    return DeformationCheck(gamma, (float(x[k_min]), float(xi[k_min])))


def escape_csv_lines(field: EscapeField) -> List[str]:
    lines = ["x,xi,G,HG"]
    for i, x in enumerate(field.x_axis):
        for j, k in enumerate(field.xi_axis):
            lines.append(f"{x:.17g},{k:.17g},"
                         f"{field.G_values[i, j]:.17g},{field.HG_values[i, j]:.17g}")
    return lines

