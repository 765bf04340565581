"""Catalog of 1-D phase-space symbols with closed-form derivatives.

Every symbol evaluator is vectorized over numpy arrays of phase-space
points and carries explicit gradient/Hessian callables, since downstream
flows and complex extensions need derivatives to high accuracy.

Every catalog symbol is additive, p(x, xi) = a(x) + b(xi), and says so
through an AdditiveSplit. On the dual grid of quantize the Weyl matrix of
such a symbol is diag(a(x_j)) plus the circulant of the sign-alternated
ifft of b(theta_m), and its Hamiltonian field H_{Im p} is
(d Im b / dxi, -d Im a / dx); quantize and geometry read the split for
both, with the same numbers as the general paths through value and grad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

ANALYTIC = math.inf

Box = Tuple[Tuple[float, float], Tuple[float, float]]  # ((x_lo, x_hi), (xi_lo, xi_hi))


@dataclass(frozen=True)
class AdditiveSplit:
    """p(x, xi) = a(x) + b(xi), with im_a_d1 = d/dx Im a and
    im_b_d1 = d/dxi Im b. a(x) + b(xi) must equal the symbol's value bit
    for bit, and the two derivatives the Im parts of its grad."""

    a: Callable[[np.ndarray], np.ndarray]
    b: Callable[[np.ndarray], np.ndarray]
    im_a_d1: Callable[[np.ndarray], np.ndarray]
    im_b_d1: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GevreySymbol:
    """A symbol p(x, xi) with its first two derivatives.

    order_s is the Gevrey order (math.inf marks analytic symbols),
    zero_set_hint a phase-space box containing the zero set of p - z0 when
    known, split the additive form p = a(x) + b(xi) when the symbol has one.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    order_s: float
    zero_set_hint: Optional[Box] = None
    xi_extent: float = 4.0
    name: str = "custom"
    split: Optional[AdditiveSplit] = None

    def __post_init__(self):
        if not (self.order_s > 1):
            raise ValueError(f"Gevrey order must exceed 1, got {self.order_s}")

    def __call__(self, x, xi):
        return self.value(np.asarray(x, dtype=float), np.asarray(xi, dtype=float))


@dataclass(frozen=True)
class ModelInstance:
    symbol: GevreySymbol
    z0: complex
    family_tag: str = "custom"

    @property
    def tag(self) -> str:
        return self.family_tag


def _vanishing(t):
    """A derivative that is identically zero, shaped like its argument."""
    return np.zeros(np.shape(t))


def _i_square(x):
    """a(x) = i x^2 of the Davies oscillator and the trapped toy."""
    return 1j * x ** 2


def _twice(x):
    """d/dx Im(i x^2)."""
    return 2.0 * x


def _i_tanh(xi):
    """The transport models' b(xi) = i tanh(xi)."""
    return 1j * np.tanh(xi)


def _sech2(xi):
    """d/dxi tanh(xi); the transport models' grad, hess and split share it."""
    return 1.0 / np.cosh(xi) ** 2


def _positive(t):
    """(t > 0, t with its other entries set to 1): the flat functions are
    evaluated on every entry and selected with np.where, so the positive
    entries see the same elementwise operations as a masked gather would."""
    pos = t > 0
    return pos, np.where(pos, t, 1.0)


def gevrey_flat(s: float, t):
    """The canonical Gevrey-s flat function: exp(-t^(-1/(s-1))) for t > 0, else 0."""
    if not s > 1:
        raise ValueError(f"Gevrey order must exceed 1, got {s}")
    t = np.asarray(t, dtype=float)
    a = 1.0 / (s - 1.0)
    pos, tp = _positive(t)
    with np.errstate(over="ignore"):
        out = np.where(pos, np.exp(-tp ** (-a)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _gevrey_flat_d1(s: float, t):
    """First derivative of gevrey_flat in t (vanishes for t <= 0)."""
    t = np.asarray(t, dtype=float)
    a = 1.0 / (s - 1.0)
    pos, tp = _positive(t)
    return np.where(pos, np.exp(-tp ** (-a)) * a * tp ** (-a - 1.0), 0.0)


def _gevrey_flat_d2(s: float, t):
    t = np.asarray(t, dtype=float)
    a = 1.0 / (s - 1.0)
    pos, tp = _positive(t)
    e = np.exp(-tp ** (-a))
    return np.where(pos, e * ((a * tp ** (-a - 1.0)) ** 2
                              - a * (a + 1.0) * tp ** (-a - 2.0)), 0.0)


def smooth_step(u):
    """Smooth transition 0 -> 1 on [0, 1], flat to all orders at both ends."""
    u = np.asarray(u, dtype=float)
    lo = gevrey_flat(2.0, u)
    hi = gevrey_flat(2.0, 1.0 - u)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    return lo / (lo + hi + 1e-300)


def smooth_step_d1(u):
    """Derivative of smooth_step in u; zero outside (0, 1)."""
    u = np.asarray(u, dtype=float)
    lo = np.asarray(gevrey_flat(2.0, u))
    hi = np.asarray(gevrey_flat(2.0, 1.0 - u))
    d_lo = _gevrey_flat_d1(2.0, u)
    d_hi = _gevrey_flat_d1(2.0, 1.0 - u)
    return (d_lo * hi + lo * d_hi) / (lo + hi + 1e-300) ** 2


def make_davies() -> ModelInstance:
    """The complex harmonic oscillator symbol xi^2 + i x^2."""

    def b(xi):
        return xi ** 2

    def value(x, xi):
        return b(xi) + _i_square(x)

    def grad(x, xi):
        return 2j * x + 0j * xi, 2.0 * xi + 0j * x

    def hess(x, xi):
        shape = np.broadcast(x, xi).shape
        H = np.zeros(shape + (2, 2), dtype=complex)
        H[..., 0, 0] = 2j
        H[..., 1, 1] = 2.0
        return H

    sym = GevreySymbol(value, grad, hess, order_s=ANALYTIC,
                       zero_set_hint=((-0.5, 0.5), (-0.5, 0.5)),
                       xi_extent=4.0, name="davies",
                       split=AdditiveSplit(_i_square, b, _twice, _vanishing))
    return ModelInstance(sym, z0=0j, family_tag="davies")


def make_gevrey_transport(s: float) -> ModelInstance:
    """Transport model i tanh(xi) + f(x) with Gevrey-flat f = E_s(x^2 - 1).

    Re p vanishes exactly on [-1, 1]; the zero set of p is [-1, 1] x {0}.
    """
    if not s > 1:
        raise ValueError(f"Gevrey order must exceed 1, got {s}")

    def f(x):
        return np.asarray(gevrey_flat(s, x ** 2 - 1.0))

    def fp(x):
        return _gevrey_flat_d1(s, x ** 2 - 1.0) * 2.0 * x

    def fpp(x):
        return _gevrey_flat_d2(s, x ** 2 - 1.0) * 4.0 * x ** 2 + 2.0 * _gevrey_flat_d1(s, x ** 2 - 1.0)

    def value(x, xi):
        return f(x) + _i_tanh(xi)

    def grad(x, xi):
        return fp(x) + 0j * xi, 1j * _sech2(xi) + 0j * x

    def hess(x, xi):
        shape = np.broadcast(x, xi).shape
        H = np.zeros(shape + (2, 2), dtype=complex)
        sech2 = _sech2(np.broadcast_to(xi, shape))
        H[..., 0, 0] = np.broadcast_to(fpp(np.asarray(x, dtype=float)), shape)
        H[..., 1, 1] = -2j * sech2 * np.tanh(np.broadcast_to(xi, shape))
        return H

    sym = GevreySymbol(value, grad, hess, order_s=s,
                       zero_set_hint=((-1.3, 1.3), (-0.4, 0.4)),
                       xi_extent=4.0, name=f"gevrey-transport:s={s:g}",
                       split=AdditiveSplit(f, _i_tanh, _vanishing, _sech2))
    return ModelInstance(sym, z0=0j, family_tag=f"gevrey-transport:s={s:g}")


def make_analytic_transport() -> ModelInstance:
    """Analytic baseline i tanh(xi) + x^2/(1 + x^2); Re p = 0 only at x = 0."""

    def g(x):
        return x ** 2 / (1.0 + x ** 2)

    def gp(x):
        return 2.0 * x / (1.0 + x ** 2) ** 2

    def gpp(x):
        return (2.0 - 6.0 * x ** 2) / (1.0 + x ** 2) ** 3

    def value(x, xi):
        return g(x) + _i_tanh(xi)

    def grad(x, xi):
        return gp(x) + 0j * xi, 1j * _sech2(xi) + 0j * x

    def hess(x, xi):
        shape = np.broadcast(x, xi).shape
        H = np.zeros(shape + (2, 2), dtype=complex)
        sech2 = _sech2(np.broadcast_to(xi, shape))
        H[..., 0, 0] = np.broadcast_to(gpp(np.asarray(x, dtype=float)), shape)
        H[..., 1, 1] = -2j * sech2 * np.tanh(np.broadcast_to(xi, shape))
        return H

    sym = GevreySymbol(value, grad, hess, order_s=ANALYTIC,
                       zero_set_hint=((-0.5, 0.5), (-0.4, 0.4)),
                       xi_extent=4.0, name="analytic-transport",
                       split=AdditiveSplit(g, _i_tanh, _vanishing, _sech2))
    return ModelInstance(sym, z0=0j, family_tag="analytic-transport")


def make_trapped_toy() -> ModelInstance:
    """Trapped counterexample p = i x^2: Re p vanishes identically."""

    def b(xi):
        return 0j * xi

    def value(x, xi):
        return _i_square(x) + b(xi)

    def grad(x, xi):
        return 2j * x + 0j * xi, np.zeros(np.broadcast(x, xi).shape, dtype=complex)

    def hess(x, xi):
        shape = np.broadcast(x, xi).shape
        H = np.zeros(shape + (2, 2), dtype=complex)
        H[..., 0, 0] = 2j
        return H

    sym = GevreySymbol(value, grad, hess, order_s=ANALYTIC,
                       zero_set_hint=((-0.5, 0.5), (-1.0, 1.0)),
                       xi_extent=4.0, name="trapped-toy",
                       split=AdditiveSplit(_i_square, b, _twice, _vanishing))
    return ModelInstance(sym, z0=0j, family_tag="trapped-toy")


def taylor_extension(sym: GevreySymbol, order: int, rho_re, rho_im):
    """Finite-order extension of the symbol to complex phase-space points.

    Evaluates sum over |alpha| <= order of d^alpha p(rho_re) (i rho_im)^alpha / alpha!.
    rho_re and rho_im are (x, xi) pairs; arrays broadcast componentwise.
    """
    if order not in (1, 2):
        raise ValueError(f"extension order must be 1 or 2, got {order}")
    xr = np.asarray(rho_re[0], dtype=float)
    kr = np.asarray(rho_re[1], dtype=float)
    dx = 1j * np.asarray(rho_im[0], dtype=float)
    dk = 1j * np.asarray(rho_im[1], dtype=float)
    out = np.asarray(sym.value(xr, kr), dtype=complex).copy()
    gx, gk = sym.grad(xr, kr)
    out = out + gx * dx + gk * dk
    if order == 2:
        H = sym.hess(xr, kr)
        out = out + 0.5 * (H[..., 0, 0] * dx * dx
                           + 2.0 * H[..., 0, 1] * dx * dk
                           + H[..., 1, 1] * dk * dk)
    return out


def model_from_tag(tag: str) -> ModelInstance:
    """Parse a catalog tag like "davies" or "gevrey-transport:s=2.0"."""
    tag = tag.strip()
    if tag == "davies":
        return make_davies()
    if tag == "analytic-transport":
        return make_analytic_transport()
    if tag == "trapped-toy":
        return make_trapped_toy()
    if tag.startswith("gevrey-transport:"):
        part = tag.split(":", 1)[1]
        if not part.startswith("s="):
            raise ValueError(f"bad gevrey-transport tag: {tag!r}")
        return make_gevrey_transport(float(part[2:]))
    raise ValueError(f"unknown model tag: {tag!r}")
