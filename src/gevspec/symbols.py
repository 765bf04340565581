"""Catalog of 1-D phase-space symbols, each declared by its additive parts.

Every catalog symbol is additive, p(x, xi) = a(x) + b(xi), and is declared
once by its two parts: a Part is a real function f with f' and f'' in
closed form, times a unit 1 or i, and every evaluator is vectorized over
numpy arrays of phase-space points. additive_symbol builds value and grad
from the two parts and keeps them as the symbol's split. On the dual grid
of quantize the Weyl matrix of such a symbol is diag(a(x_j)) plus the
circulant of the sign-alternated ifft of b(theta_m), and its Hamiltonian
field H_{Im p} is (d Im b / dxi, -d Im a / dx); quantize reads the split
for the first, geometry for the second, and taylor_extension extends each
part on its own.

The Gevrey-s flat function E_s(t) = exp(-t^(-1/(s-1))) is evaluated by
_flat alone, and its value and two derivatives are read from one such
evaluation; smooth_step, built from E_2, returns its derivative with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

ANALYTIC = math.inf

Box = Tuple[Tuple[float, float], Tuple[float, float]]  # ((x_lo, x_hi), (xi_lo, xi_hi))


def _vanishing(t):
    """Identically zero, shaped like its argument."""
    return np.zeros(np.shape(t))


@dataclass(frozen=True)
class Part:
    """One additive part unit * f(t) of a symbol, t being x or xi.

    f is real, d1 = f' and d2 = f'' are its closed-form derivatives, and
    unit is 1 or 1j: the part is real or imaginary. geometry.build_escape
    reads the two units of a split to decide which coordinate the flow of
    H_{Im p} moves. even declares f(-t) == f(t) bit for bit, -0.0 and
    +0.0 included; geometry._escape_integral then reads a backward
    trajectory of the moving part from the mirrored forward one. Declare
    it only for an f that is even in floating point, as a function of t^2
    or |t| is.
    """

    f: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    unit: complex = 1
    even: bool = False

    def __post_init__(self):
        if self.unit not in (1, 1j):
            raise ValueError(f"part unit must be 1 or 1j, got {self.unit}")

    def __call__(self, t):
        return self.unit * self.f(t)


@dataclass(frozen=True)
class AdditiveSplit:
    """p(x, xi) = a(x) + b(xi)."""

    a: Part
    b: Part


@dataclass(frozen=True)
class GevreySymbol:
    """A symbol p(x, xi) with its gradient.

    order_s is the Gevrey order (math.inf marks analytic symbols),
    zero_set_hint a phase-space box containing the zero set of p - z0 when
    known, split the additive form p = a(x) + b(xi) when the symbol has one.
    """

    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]
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

    @property
    def tag(self) -> str:
        return self.symbol.name


def additive_symbol(a: Part, b: Part, order_s: float,
                    zero_set_hint: Optional[Box], name: str) -> GevreySymbol:
    """The symbol a(x) + b(xi), with value and grad built from the two
    parts and the parts kept as its split."""

    def value(x, xi):
        return a(x) + b(xi)

    def grad(x, xi):
        return a.unit * a.d1(x) + 0j * xi, b.unit * b.d1(xi) + 0j * x

    return GevreySymbol(value, grad, order_s=order_s,
                        zero_set_hint=zero_set_hint, name=name,
                        split=AdditiveSplit(a, b))


def _sech2(xi):
    """d/dxi tanh(xi)."""
    return 1.0 / np.cosh(xi) ** 2


# the catalog's parts: t^2 (the Davies oscillator's xi^2), i t^2 (its i x^2
# and the trapped toy's), i tanh(xi) (both transport models) and zero (the
# trapped toy's xi part)
SQUARE = Part(np.square, lambda t: 2.0 * t, lambda t: np.full(np.shape(t), 2.0),
              even=True)
I_SQUARE = replace(SQUARE, unit=1j)
I_TANH = Part(np.tanh, _sech2, lambda xi: -2.0 * _sech2(xi) * np.tanh(xi), 1j)
ZERO = Part(_vanishing, _vanishing, _vanishing, even=True)


@np.errstate(over="ignore", divide="ignore")
def _flat(s: float, t):
    """(a, tp, e) of the Gevrey-s flat function at t: a = 1/(s-1), tp is t
    where t > 0 and +0.0 elsewhere, nan included, and e = exp(-tp^(-a)).
    At tp = +0.0 the power is inf and e is +0.0, so e > 0 only where t > 0
    and e has not underflowed: the one mask the derivatives need. The
    positive entries see the same operations as a masked gather would."""
    t = np.asarray(t, dtype=float)
    a = 1.0 / (s - 1.0)
    tp = np.where(t > 0, t, 0.0)
    return a, tp, np.exp(-(tp ** -a))


def gevrey_flat(s: float, t):
    """The canonical Gevrey-s flat function: exp(-t^(-1/(s-1))) for t > 0, else 0."""
    if not 1 < s < math.inf:
        raise ValueError(f"Gevrey order must be finite and exceed 1, got {s}")
    out = _flat(s, t)[2]
    if out.ndim == 0:
        return float(out)
    return out


# where e = 0, tp^(-a-k) may be inf and 0 * inf is nan; the derivatives
# are 0 there
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _flat_d1(a, tp, e):
    """First derivative in t of the flat function from _flat's (a, tp, e)."""
    return np.where(e > 0, e * a * tp ** (-a - 1.0), 0.0)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _flat_d2(a, tp, e):
    """Second derivative in t of the flat function from _flat's (a, tp, e)."""
    return np.where(e > 0, e * ((a * tp ** (-a - 1.0)) ** 2
                                - a * (a + 1.0) * tp ** (-a - 2.0)), 0.0)


def smooth_step(u):
    """(step, d step/du): a smooth transition 0 -> 1 on [0, 1], flat to all
    orders at both ends, from one flat evaluation at u and one at 1 - u;
    the derivative is zero outside (0, 1)."""
    u = np.asarray(u, dtype=float)
    lo, hi = _flat(2.0, u), _flat(2.0, 1.0 - u)
    # den ** 2 stays normal at u = NaN (lo = hi = 0); lo + hi > 0.27 elsewhere
    den = lo[2] + hi[2] + 1e-150
    return (lo[2] / den,
            (_flat_d1(*lo) * hi[2] + lo[2] * _flat_d1(*hi)) / den ** 2)


def make_davies() -> ModelInstance:
    """The complex harmonic oscillator symbol xi^2 + i x^2."""
    sym = additive_symbol(I_SQUARE, SQUARE, order_s=ANALYTIC,
                          zero_set_hint=((-0.5, 0.5), (-0.5, 0.5)),
                          name="davies")
    return ModelInstance(sym, z0=0j)


def make_gevrey_transport(s: float) -> ModelInstance:
    """Transport model i tanh(xi) + f(x) with Gevrey-flat f = E_s(x^2 - 1).

    Re p vanishes exactly on [-1, 1]; the zero set of p is [-1, 1] x {0}.
    """
    if not 1 < s < math.inf:
        raise ValueError(f"Gevrey order must be finite and exceed 1, got {s}")

    def f(x):
        return np.asarray(gevrey_flat(s, x ** 2 - 1.0))

    def fp(x):
        return _flat_d1(*_flat(s, x ** 2 - 1.0)) * 2.0 * x

    def fpp(x):
        flat = _flat(s, x ** 2 - 1.0)
        return _flat_d2(*flat) * 4.0 * x ** 2 + 2.0 * _flat_d1(*flat)

    sym = additive_symbol(Part(f, fp, fpp, even=True), I_TANH, order_s=s,
                          zero_set_hint=((-1.3, 1.3), (-0.4, 0.4)),
                          name=f"gevrey-transport:s={s:g}")
    return ModelInstance(sym, z0=0j)


def make_analytic_transport() -> ModelInstance:
    """Analytic baseline i tanh(xi) + x^2/(1 + x^2); Re p = 0 only at x = 0."""

    def g(x):
        return x ** 2 / (1.0 + x ** 2)

    def gp(x):
        return 2.0 * x / (1.0 + x ** 2) ** 2

    def gpp(x):
        return (2.0 - 6.0 * x ** 2) / (1.0 + x ** 2) ** 3

    sym = additive_symbol(Part(g, gp, gpp, even=True), I_TANH,
                          order_s=ANALYTIC,
                          zero_set_hint=((-0.5, 0.5), (-0.4, 0.4)),
                          name="analytic-transport")
    return ModelInstance(sym, z0=0j)


def make_trapped_toy() -> ModelInstance:
    """Trapped counterexample p = i x^2: Re p vanishes identically."""
    sym = additive_symbol(I_SQUARE, ZERO, order_s=ANALYTIC,
                          zero_set_hint=((-0.5, 0.5), (-1.0, 1.0)),
                          name="trapped-toy")
    return ModelInstance(sym, z0=0j)


def taylor_extension(sym: GevreySymbol, rho_re, rho_im):
    """Second-order extension of an additive symbol to complex phase-space
    points.

    Each part unit * f, at its real coordinate t and imaginary shift s,
    extends to unit * (f + f' (i s) + f'' (i s)^2 / 2); the two extensions
    are summed as the value, then the first-order terms, then the
    second-order terms. rho_re and rho_im are (x, xi) pairs; arrays
    broadcast componentwise. A symbol without a split raises ValueError.
    """
    if sym.split is None:
        raise ValueError(f"symbol {sym.name!r} has no additive split")
    a, b = sym.split.a, sym.split.b
    xr = np.asarray(rho_re[0], dtype=float)
    kr = np.asarray(rho_re[1], dtype=float)
    dx = 1j * np.asarray(rho_im[0], dtype=float)
    dk = 1j * np.asarray(rho_im[1], dtype=float)
    out = np.asarray(a(xr) + b(kr), dtype=complex)
    out = out + a.unit * a.d1(xr) * dx + b.unit * b.d1(kr) * dk
    return out + 0.5 * (a.unit * a.d2(xr) * dx * dx
                        + b.unit * b.d2(kr) * dk * dk)


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
