"""Discrete FBI transform with Gaussian phase and weighted Bargmann spaces.

The phase is fixed to phi(x, y) = i (x - y)^2 / 2, so the transform kernel
is a Gaussian, the base weight is Phi_0(x) = (Im x)^2 / 2, and the canonical
map kappa_phi(y, eta) = (y - i eta, eta) restricts on the Phi_0 Lagrangian
to kappa_phi^{-1}(x) = (Re x, -Im x). Deformed weights are realized to first
order as Phi_t = Phi_0 + t G(Re x, -Im x).

The kernel is never stored as an M x N matrix, and it is kept in the
weighted form of H_Phi: T returns e^{-Phi_0 / h} T u, so at a node
x = a_j + i b_k

    e^{-Phi_0(x) / h} e^{-(x - y)^2 / 2h} = c[j, k] G[j, y] E[k, y],
    c = e^{-i a b / h},  G = e^{-(a - y)^2 / 2h},  E = e^{i b y / h},

and T u = c o ((G o u) E^T) is one (re_n x N) by (N x im_n) product and T*
is the transposed pair. |c| = 1, so every factor is bounded at any h, and a
Phi-weighted pairing reads only the excess phi - Phi_0 of its weight.

The Toeplitz probe applies the Weyl quantization P by P @ U, one FFT
pair for a split symbol (quantize.WeylMatrix), so it forms no N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import EscapeField
from .quantize import RealGrid, WeylMatrix, assemble_weyl
from .symbols import ModelInstance, taylor_extension

UNITARITY_TOL = 1e-6  # isometry defect allowed on interior states; bench/workloads.py gates on it
DECAY_LOG = 27.64  # -log(1e-12); Gaussian tail budget at the real-grid edge


class GridExtentError(ValueError):
    pass


@dataclass(frozen=True)
class ComplexGrid:
    re_span: float
    im_span: float
    re_n: int
    im_n: int

    @property
    def re_axis(self) -> np.ndarray:
        return np.linspace(-self.re_span, self.re_span, self.re_n)

    @property
    def im_axis(self) -> np.ndarray:
        return np.linspace(-self.im_span, self.im_span, self.im_n)

    @property
    def cell_area(self) -> float:
        da = 2.0 * self.re_span / (self.re_n - 1)
        db = 2.0 * self.im_span / (self.im_n - 1)
        return da * db

    def nodes(self) -> np.ndarray:
        """Flattened complex nodes a_j + i b_k, j-major."""
        A, B = np.meshgrid(self.re_axis, self.im_axis, indexing="ij")
        return (A + 1j * B).ravel()


def default_cgrid(h: float, re_span: float = 3.0, im_span: float = 3.0,
                  cells_per_width: float = 4.0) -> ComplexGrid:
    """Resolution rule: about cells_per_width cells per Gaussian width sqrt(h)."""
    d = np.sqrt(h) / cells_per_width
    return ComplexGrid(re_span, im_span,
                       int(np.ceil(2 * re_span / d)) + 1,
                       int(np.ceil(2 * im_span / d)) + 1)


@dataclass(frozen=True)
class FactoredKernel:
    """The (re_n * im_n) x N transform kernel c[j, k] G[j, y] E[k, y].

    Rows are the complex nodes j-major, as ComplexGrid.nodes(); vectors and
    (rows, m) blocks are applied through the factors only.
    """

    c: np.ndarray  # (re_n, im_n), e^{-iab/h} times h^{-3/4} dx and calibration
    G: np.ndarray  # (re_n, N), real
    E: np.ndarray  # (im_n, N)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.c.size, self.G.shape[1]

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        re_n, im_n = self.c.shape
        n = self.G.shape[1]
        # rows (j, l) of G[j, y] u[y, l] against E^T: one GEMM for any width
        Gu = (self.G[:, None, :] * u.reshape(n, -1).T).reshape(-1, n)
        out = (Gu @ self.E.T).reshape(re_n, -1, im_n) * self.c[:, None, :]
        return out.transpose(0, 2, 1).reshape((re_n * im_n,) + u.shape[1:])

    def adjoint_matmul(self, V: np.ndarray) -> np.ndarray:
        """K* V = sum_j G[j, y] ((conj(c) o V) conj(E))[j, y]."""
        re_n, im_n = self.c.shape
        n = self.G.shape[1]
        cV = V.reshape(re_n, im_n, -1) * np.conj(self.c)[:, :, None]
        R = cV.transpose(0, 2, 1).reshape(-1, im_n) @ np.conj(self.E)
        return np.einsum("jy,jly->yl", self.G, R.reshape(re_n, -1, n)).reshape(
            (n,) + V.shape[1:])


@dataclass(frozen=True)
class FBIOperator:
    """T in weighted form: apply(u) is e^{-Phi_0 / h} T u on the nodes."""

    matrix: FactoredKernel  # shape (re_n * im_n, N)
    h: float
    real_grid: RealGrid
    cgrid: ComplexGrid

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def weights_phi(self, excess: np.ndarray = 0.0) -> np.ndarray:
        """Quadrature weights of the Phi-weighted pairing, Phi = Phi_0 + excess."""
        return self.cgrid.cell_area * np.exp(-2.0 * excess / self.h)

    def norm_phi(self, U: np.ndarray, excess: np.ndarray = 0.0) -> float:
        return float(np.sqrt(np.sum(np.abs(U) ** 2 * self.weights_phi(excess))))

    def inner_phi(self, U: np.ndarray, V: np.ndarray,
                  excess: np.ndarray = 0.0) -> complex:
        return complex(np.sum(U * np.conj(V) * self.weights_phi(excess)))

    def real_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.real_grid.spacing * np.sum(np.abs(u) ** 2)))

    def unitarity_defect(self, u: np.ndarray) -> float:
        nu = self.real_norm(u)
        return abs(self.norm_phi(self.apply(u)) - nu) / nu


@dataclass(frozen=True)
class BargmannWeight:
    phi_values: np.ndarray  # the excess Phi_t - Phi_0 = t G o kappa_phi^{-1}
    xi_section: np.ndarray
    cgrid: ComplexGrid


def gaussian_state(grid: RealGrid, h: float, x0: float = 0.0, xi0: float = 0.0,
                   hermite: int = 0) -> np.ndarray:
    """Normalized coherent state, optionally with a Hermite-polynomial factor."""
    y = grid.nodes
    u = np.exp(-(y - x0) ** 2 / (2.0 * h)) * np.exp(1j * xi0 * y / h)
    if hermite > 0:
        u = u * np.polynomial.hermite.hermval((y - x0) / np.sqrt(h),
                                              [0.0] * hermite + [1.0])
    u = u.astype(complex)
    return u / np.sqrt(grid.spacing * np.sum(np.abs(u) ** 2))


def make_fbi(real_grid: RealGrid, cgrid: ComplexGrid, h: float) -> FBIOperator:
    """Build the transform Tu(x) = C h^{-3/4} int e^{-(x-y)^2/(2h)} u dy.

    The kernel is kept in its weighted factors c, G, E (module docstring).
    The constant is calibrated so the standard Gaussian has unit Phi_0
    norm; calibration absorbs the quadrature error of the row sums.
    """
    margin = real_grid.half_width_L - cgrid.re_span
    if margin ** 2 / (2.0 * h) < DECAY_LOG:
        need = cgrid.re_span + np.sqrt(2.0 * h * DECAY_LOG)
        raise GridExtentError(
            f"kernel tail {np.exp(-margin**2 / (2*h)):.2e} above 1e-12 at the "
            f"real-grid edge; need half_width_L >= {need:.3f}")
    y = real_grid.nodes
    a = cgrid.re_axis
    b = cgrid.im_axis
    G = a[:, None] - y[None, :]
    G *= G
    G /= -2.0 * h
    np.exp(G, out=G)
    E = np.exp((1j / h) * (b[:, None] * y[None, :]))
    c = np.exp((-1j / h) * (a[:, None] * b[None, :]))
    c *= h ** (-0.75) * real_grid.spacing
    op = FBIOperator(FactoredKernel(c, G, E), h, real_grid, cgrid)
    norm = op.norm_phi(op.apply(gaussian_state(real_grid, h)))
    if not (np.isfinite(norm) and norm > 0):
        raise GridExtentError(
            f"calibration norm {norm} of the standard Gaussian is not finite "
            f"and positive at h = {h:g}")
    c *= 1.0 / norm
    return op


def weight_phi_t(esc: Optional[EscapeField], t: float,
                 fbi_op: FBIOperator) -> BargmannWeight:
    """First-order deformed weight Phi_t = Phi_0 + t G(Re x, -Im x), given
    by its excess t G(Re x, -Im x) over Phi_0.

    The section xi_t(x) = (2/i) d_x Phi_t is -Im x for the quadratic part
    plus t (G_xi - i G_x)(Re x, -Im x) from the correction, with G
    derivatives taken from the escape lattice; G and both derivatives come
    from one spline pass. A nonzero t needs esc.
    """
    x = fbi_op.cgrid.nodes()
    a = np.real(x)
    b = np.imag(x)
    xi0 = -b.astype(complex)
    if t == 0.0:
        return BargmannWeight(np.zeros(x.shape), xi0, fbi_op.cgrid)
    if esc is None:
        raise ValueError(f"the weight at t = {t} needs an escape function")
    g, gx, gxi = esc.fields_at(a, -b)
    return BargmannWeight(t * g, xi0 + t * gxi - 1j * t * gx, fbi_op.cgrid)


def apply_conjugated(P: WeylMatrix, fbi_op: FBIOperator,
                     U: np.ndarray) -> np.ndarray:
    """(T P T*) U without forming the conjugated matrix.

    T* is the adjoint for the dx and Phi_0-weighted pairings; on the
    weighted U it is K* U cell_area / dx, with K the factored kernel; U is
    a vector or an (M, k) block. P is applied through P @ T*U, one FFT pair
    for an assembled split symbol.
    """
    scale = fbi_op.cgrid.cell_area / fbi_op.real_grid.spacing
    return fbi_op.apply(P @ (fbi_op.matrix.adjoint_matmul(U) * scale))


def _symbol_on_section(model: ModelInstance, weight: BargmannWeight) -> np.ndarray:
    """a~(x, xi_t(x)) with a = p composed with kappa_phi^{-1}, order-2 extension.

    kappa_phi^{-1}(x, xi) = (x + i xi, xi); splitting into real and imaginary
    parts gives the real base point and the imaginary offset fed to the
    second-order extension of p.
    """
    x = weight.cgrid.nodes()
    a = np.real(x)
    b = np.imag(x)
    xi = weight.xi_section
    rho_re = (a - np.imag(xi), np.real(xi))
    rho_im = (b + np.real(xi), np.imag(xi))
    return taylor_extension(model.symbol, rho_re, rho_im)


def toeplitz_residuals(model: ModelInstance, fbi_op: FBIOperator,
                       esc: Optional[EscapeField], ts: Sequence[float],
                       u: np.ndarray, v: np.ndarray) -> List[float]:
    """Normalized defect of the weighted pairing against symbol
    multiplication, one per deformation size t in ts.

    Compares <(T P T*) U, V>_{Phi_t} with the integral of a~(x, xi_t) U
    conj(V) against the Phi_t weight, for U = Tu, V = Tv. P, U, V and
    (T P T*) U do not depend on t and are formed once for all of ts. The
    symbol on the section is the split's extension, so a symbol without a
    split raises ValueError before P is assembled.
    """
    if model.symbol.split is None:
        raise ValueError(f"symbol {model.symbol.name!r} has no additive split")
    P = assemble_weyl(model.symbol, fbi_op.real_grid, fbi_op.h)
    U = fbi_op.apply(u)
    V = fbi_op.apply(v)
    TPU = apply_conjugated(P, fbi_op, U)
    out = []
    for t in ts:
        weight = weight_phi_t(esc, t, fbi_op)
        lhs = fbi_op.inner_phi(TPU, V, weight.phi_values)
        sym_field = _symbol_on_section(model, weight)
        rhs = fbi_op.inner_phi(sym_field * U, V, weight.phi_values)
        denom = (fbi_op.norm_phi(U, weight.phi_values)
                 * fbi_op.norm_phi(V, weight.phi_values))
        out.append(abs(lhs - rhs) / denom)
    return out


def toeplitz_residual(model: ModelInstance, fbi_op: FBIOperator,
                      esc: Optional[EscapeField], t: float,
                      u: np.ndarray, v: np.ndarray) -> float:
    """toeplitz_residuals at the single deformation size t."""
    return toeplitz_residuals(model, fbi_op, esc, (t,), u, v)[0]
