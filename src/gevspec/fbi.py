"""Discrete FBI transform with Gaussian phase and weighted Bargmann spaces.

The phase is fixed to phi(x, y) = i (x - y)^2 / 2, so the transform kernel
is a Gaussian, the base weight is Phi_0(x) = (Im x)^2 / 2, and the canonical
map kappa_phi(y, eta) = (y - i eta, eta) restricts on the Phi_0 Lagrangian
to kappa_phi^{-1}(x) = (Re x, -Im x). Deformed weights are realized to first
order as Phi_t = Phi_0 + t G(Re x, -Im x).

The kernel is never stored as an M x N matrix, and it is kept in the
weighted form of H_Phi: T returns e^{-Phi_0 / h} T u, so at a node
x = a_j + i b_k

    e^{-Phi_0(x) / h} e^{-(x - y)^2 / 2h}
        = e^{i b (y - a) / h} e^{-(a - y)^2 / 2h},

a Gaussian window about a_j times a plane wave: T is a Gaussian
short-time Fourier (Gabor) transform (Groechenig, Foundations of
Time-Frequency Analysis, 2001, ch. 3). The window falls below
e^{-DECAY_LOG} = 1e-12 once y lies more than w(h) = sqrt(2 h DECAY_LOG)
from a_j, so row j keeps only the K ~ 2 w / dx real-grid columns
y_{s_j + m}, m < K, from the first one within w of a_j; on them

    y - a = (y_{s_j} - a_j) + m dx,
    c[j, k] = e^{i b_k (y_{s_j} - a_j) / h},
    G[j, m] = e^{-(a_j - y_{s_j + m})^2 / 2h},
    E[k, m] = e^{i b_k m dx / h},

and one E serves every row. T u = c o ((G o U) E^T), with U[j, m] =
u[s_j + m] a strided view of u: one (re_n x K) by (K x im_n) product.
T* is the transposed pair, each row added back at s_j, and exactly zero
off the rows' windows. K is 36% of the columns within w of the complex
window [-re_span, re_span] at h = 0.0125 on the Toeplitz probe's grid,
16% at h = 0.0016 and 9% at h = 0.0004. DECAY_LOG thus sets both the
windows and the grid check: a kernel whose reach re_span + w leaves the
real grid raises GridExtentError, and a row whose K columns would pass
the grid's last node starts earlier. |c| = 1, so every factor is bounded
at any h, and a Phi-weighted pairing reads only the excess phi - Phi_0
of its weight.

The nodes x lie on a quantize.ZGrid at centre 0; each operator builds its
j-major node vector once (FBIOperator.nodes) for all its weights.
The Toeplitz probe applies the Weyl quantization P by P @ U, one FFT
pair for a split symbol (quantize.WeylMatrix), so it forms no N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import EscapeField
from .quantize import RealGrid, WeylMatrix, ZGrid, assemble_weyl
from .symbols import ModelInstance, taylor_extension

UNITARITY_TOL = 1e-6  # isometry defect allowed on interior states; bench/workloads.py gates on it
DECAY_LOG = 27.64  # -log(1e-12); Gaussian tail budget of the kernel window


class GridExtentError(ValueError):
    pass


def default_cgrid(h: float, re_span: float = 3.0, im_span: float = 3.0,
                  cells_per_width: float = 4.0) -> ZGrid:
    """Lattice at 0, with cells_per_width cells per Gaussian width sqrt(h)."""
    d = np.sqrt(h) / cells_per_width
    return ZGrid(0j, re_span, im_span, int(np.ceil(2 * re_span / d)) + 1,
                 int(np.ceil(2 * im_span / d)) + 1)


@dataclass(frozen=True)
class FactoredKernel:
    """The (re_n * im_n) x N transform kernel, kept per row of the real
    axis a_j on its own K columns y_{s_j + m}, m < K (module docstring):
    its entry at row (j, k) and column s_j + m is c[j, k] G[j, m] E[k, m].

    Rows are the complex nodes j-major, as FBIOperator.nodes. @ reads
    the K entries of u from every s_j, a strided view of u, and
    adjoint_matmul adds each row's K entries back at s_j: both are zero
    off the rows' windows. Vectors and (rows, m) blocks are applied
    through the factors only.
    """

    # (re_n, im_n), e^{i b_k (y_{s_j} - a_j) / h} times h^{-3/4} dx and
    # calibration
    c: np.ndarray
    G: np.ndarray  # (re_n, K), real: e^{-(a_j - y_{s_j + m})^2 / 2h}
    E: np.ndarray  # (im_n, K): e^{i b_k m dx / h}, shared by every row
    starts: np.ndarray  # (re_n,), s_j: the first real-grid column of row j
    n: int  # real-grid points N

    @property
    def shape(self) -> Tuple[int, int]:
        return self.c.size, self.n

    def __matmul__(self, u: np.ndarray) -> np.ndarray:
        re_n, im_n = self.c.shape
        w = self.G.shape[1]
        # rows (j, l) of G[j, m] u[s_j + m, l] against E^T: one GEMM for
        # any width, on the windows of u gathered from a strided view
        windows = sliding_window_view(u.reshape(self.n, -1), w, axis=0)
        Gu = (self.G[:, None, :] * windows[self.starts]).reshape(-1, w)
        out = (Gu @ self.E.T).reshape(re_n, -1, im_n) * self.c[:, None, :]
        return out.transpose(0, 2, 1).reshape((re_n * im_n,) + u.shape[1:])

    def adjoint_matmul(self, V: np.ndarray) -> np.ndarray:
        """K* V: row j adds G[j, m] ((conj(c) o V) conj(E))[j, m] to
        column s_j + m; 0 off the windows."""
        re_n, im_n = self.c.shape
        w = self.G.shape[1]
        cV = V.reshape(re_n, im_n, -1) * np.conj(self.c)[:, :, None]
        R = cV.transpose(0, 2, 1).reshape(-1, im_n) @ np.conj(self.E)
        rows = (R.reshape(re_n, -1, w) * self.G[:, None, :]).transpose(0, 2, 1)
        out = np.zeros((self.n, rows.shape[2]), dtype=rows.dtype)
        for s, row in zip(self.starts, rows):
            out[s:s + w] += row
        return out.reshape((self.n,) + V.shape[1:])


@dataclass(frozen=True)
class FBIOperator:
    """T in weighted form: apply(u) is e^{-Phi_0 / h} T u on the nodes."""

    matrix: FactoredKernel  # shape (re_n * im_n, N)
    h: float
    real_grid: RealGrid
    cgrid: ZGrid

    @cached_property
    def nodes(self) -> np.ndarray:
        """The complex nodes a_j + i b_k, j-major: the kernel's rows."""
        return self.cgrid.nodes().T.ravel()

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


def make_fbi(real_grid: RealGrid, cgrid: ZGrid, h: float) -> FBIOperator:
    """Build the transform Tu(x) = C h^{-3/4} int e^{-(x-y)^2/(2h)} u dy.

    The kernel is kept in its weighted factors c, G, E on each row's K
    columns, and its reach must lie inside the real grid (module
    docstring). The constant is calibrated so the standard Gaussian has
    unit Phi_0 norm; calibration absorbs the quadrature error of the row
    sums.
    """
    tail = np.sqrt(2.0 * h * DECAY_LOG)
    reach = cgrid.re_span + tail
    if reach > real_grid.half_width_L:
        raise GridExtentError(
            f"kernel window |y| <= {reach:.3f} (tail 1e-12) leaves the real "
            f"grid; need half_width_L >= {reach:.3f}")
    nodes = real_grid.nodes
    dx = real_grid.spacing
    a = cgrid.re_axis
    b = cgrid.im_axis
    # row j needs the columns within the tail of a_j; every row takes the
    # widest count K, and a row that would pass the last node starts
    # earlier, so all K columns lie on the grid
    lo = np.searchsorted(nodes, a - tail)
    width = int((np.searchsorted(nodes, a + tail, side="right") - lo).max())
    starts = np.minimum(lo, real_grid.n_points - width)
    G = a[:, None] - nodes[starts[:, None] + np.arange(width)]
    G *= G
    G /= -2.0 * h
    np.exp(G, out=G)
    E = np.exp((1j * dx / h) * (b[:, None] * np.arange(width)))
    c = np.exp((1j / h) * ((nodes[starts] - a)[:, None] * b[None, :]))
    c *= h ** (-0.75) * dx
    op = FBIOperator(FactoredKernel(c, G, E, starts, real_grid.n_points),
                     h, real_grid, cgrid)
    norm = op.norm_phi(op.apply(gaussian_state(real_grid, h)))
    if not (np.isfinite(norm) and norm > 0):
        raise GridExtentError(
            f"calibration norm {norm} of the standard Gaussian is not finite "
            f"and positive at h = {h:g}")
    c *= 1.0 / norm
    return op


def weight_phi_t(esc: Optional[EscapeField], t: float,
                 fbi_op: FBIOperator) -> Tuple[np.ndarray, np.ndarray]:
    """(excess t G(Re x, -Im x) over Phi_0, section xi_t) of the first-order
    deformed weight Phi_t = Phi_0 + t G(Re x, -Im x) on the operator's nodes.

    The section xi_t(x) = (2/i) d_x Phi_t is -Im x for the quadratic part
    plus t (G_xi - i G_x)(Re x, -Im x) from the correction, with G
    derivatives taken from the escape lattice. The points (Re x, -Im x)
    form the lattice of the axes a_j and -b_k, so G and both derivatives
    come from one EscapeField.fields_on on those axes, raveled j-major
    as the nodes. A nonzero t needs esc.
    """
    x = fbi_op.nodes
    xi0 = -x.imag.astype(complex)
    if t == 0.0:
        return np.zeros(x.shape), xi0
    if esc is None:
        raise ValueError(f"the weight at t = {t} needs an escape function")
    cg = fbi_op.cgrid
    g, gx, gxi = (f.ravel() for f in esc.fields_on(cg.re_axis, -cg.im_axis))
    return t * g, xi0 + t * gxi - 1j * t * gx


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


def _symbol_on_section(model: ModelInstance, x: np.ndarray,
                       xi: np.ndarray) -> np.ndarray:
    """a~(x, xi) on the nodes x and the section xi, with a = p composed
    with kappa_phi^{-1}, order-2 extension.

    kappa_phi^{-1}(x, xi) = (x + i xi, xi); splitting into real and imaginary
    parts gives the real base point and the imaginary offset fed to the
    second-order extension of p.
    """
    rho_re = (x.real - xi.imag, xi.real)
    rho_im = (x.imag + xi.real, xi.imag)
    return taylor_extension(model.symbol, rho_re, rho_im)


def toeplitz_residuals(model: ModelInstance, fbi_op: FBIOperator,
                       esc: Optional[EscapeField], ts: Sequence[float],
                       u: np.ndarray, v: np.ndarray) -> List[float]:
    """Normalized defect of the weighted pairing against symbol
    multiplication, one per deformation size t in ts.

    Compares <(T P T*) U, V>_{Phi_t} with the integral of a~(x, xi_t) U
    conj(V) against the Phi_t weight, for U = Tu, V = Tv, one apply of the
    (N, 2) block of u and v. P, U, V and (T P T*) U do not depend on t and
    are formed once for all of ts. Each t's excess and section symbol, the
    split's extension, come first, so a symbol without a split raises
    ValueError before P is assembled.
    """
    weights = [(excess, _symbol_on_section(model, fbi_op.nodes, xi))
               for excess, xi in (weight_phi_t(esc, t, fbi_op) for t in ts)]
    P = assemble_weyl(model.symbol, fbi_op.real_grid, fbi_op.h)
    U, V = fbi_op.apply(np.stack([u, v], axis=1)).T
    TPU = apply_conjugated(P, fbi_op, U)
    out = []
    for excess, sym_field in weights:
        lhs = fbi_op.inner_phi(TPU, V, excess)
        rhs = fbi_op.inner_phi(sym_field * U, V, excess)
        denom = fbi_op.norm_phi(U, excess) * fbi_op.norm_phi(V, excess)
        out.append(abs(lhs - rhs) / denom)
    return out


def toeplitz_residual(model: ModelInstance, fbi_op: FBIOperator,
                      esc: Optional[EscapeField], t: float,
                      u: np.ndarray, v: np.ndarray) -> float:
    """toeplitz_residuals at the single deformation size t."""
    return toeplitz_residuals(model, fbi_op, esc, (t,), u, v)[0]
