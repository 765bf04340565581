"""Discrete FBI transform with Gaussian phase and weighted Bargmann spaces.

The phase is fixed to phi(x, y) = i (x - y)^2 / 2, so the transform kernel
is a Gaussian, the base weight is Phi_0(x) = (Im x)^2 / 2, and the canonical
map kappa_phi(y, eta) = (y - i eta, eta) restricts on the Phi_0 Lagrangian
to kappa_phi^{-1}(x) = (Re x, -Im x). Deformed weights are realized to first
order as Phi_t = Phi_0 + t G(Re x, -Im x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .geometry import EscapeField
from .quantize import RealGrid, WeylMatrix, assemble_weyl
from .symbols import ModelInstance, taylor_extension

UNITARITY_TOL = 1e-6
DECAY_LOG = 27.64  # -log(1e-12); Gaussian tail budget at the real-grid edge


class GridExtentError(ValueError):
    pass


class EllipticityError(ValueError):
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
class FBIOperator:
    matrix: np.ndarray  # (re_n * im_n, N)
    h: float
    real_grid: RealGrid
    cgrid: ComplexGrid

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    def phi0(self) -> np.ndarray:
        return 0.5 * np.imag(self.cgrid.nodes()) ** 2

    def weights_phi(self, phi_values: np.ndarray) -> np.ndarray:
        return self.cgrid.cell_area * np.exp(-2.0 * phi_values / self.h)

    def norm_phi(self, U: np.ndarray, phi_values: Optional[np.ndarray] = None) -> float:
        if phi_values is None:
            phi_values = self.phi0()
        w = self.weights_phi(phi_values)
        return float(np.sqrt(np.sum(np.abs(U) ** 2 * w).real))

    def inner_phi(self, U: np.ndarray, V: np.ndarray,
                  phi_values: Optional[np.ndarray] = None) -> complex:
        if phi_values is None:
            phi_values = self.phi0()
        w = self.weights_phi(phi_values)
        return complex(np.sum(U * np.conj(V) * w))

    def real_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.real_grid.spacing * np.sum(np.abs(u) ** 2)))

    def unitarity_defect(self, u: np.ndarray) -> float:
        nu = self.real_norm(u)
        return abs(self.norm_phi(self.apply(u)) - nu) / nu


@dataclass(frozen=True)
class BargmannWeight:
    phi_values: np.ndarray
    t: float
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
    """Build the transform matrix Tu(x) = C h^{-3/4} int e^{-(x-y)^2/(2h)} u dy.

    The constant is calibrated so the standard Gaussian has unit Phi_0 norm;
    calibration absorbs the quadrature error of the row sums.
    """
    margin = real_grid.half_width_L - cgrid.re_span
    if margin ** 2 / (2.0 * h) < DECAY_LOG:
        need = cgrid.re_span + np.sqrt(2.0 * h * DECAY_LOG)
        raise GridExtentError(
            f"kernel tail {np.exp(-margin**2 / (2*h)):.2e} above 1e-12 at the "
            f"real-grid edge; need half_width_L >= {need:.3f}")
    y = real_grid.nodes
    x = cgrid.nodes()
    # e^{i phi(x, y) / h} = e^{-(x - y)^2 / (2h)}, built and scaled in one
    # M x N array so no full-size temporaries exist
    mat = x[:, None] - y[None, :]
    mat *= mat
    mat /= -2.0 * h
    np.exp(mat, out=mat)
    mat *= h ** (-0.75) * real_grid.spacing
    op = FBIOperator(mat, h, real_grid, cgrid)
    u0 = gaussian_state(real_grid, h)
    mat *= 1.0 / op.norm_phi(op.apply(u0))
    return op


def weight_phi_t(esc: Optional[EscapeField], t: float,
                 fbi_op: FBIOperator) -> BargmannWeight:
    """First-order deformed weight Phi_t = Phi_0 + t G(Re x, -Im x).

    The section xi_t(x) = (2/i) d_x Phi_t is -Im x for the quadratic part
    plus t (G_xi - i G_x)(Re x, -Im x) from the correction, with G
    derivatives taken from the escape lattice.
    """
    x = fbi_op.cgrid.nodes()
    a = np.real(x)
    b = np.imag(x)
    phi0 = 0.5 * b ** 2
    xi0 = -b.astype(complex)
    if t == 0.0 or esc is None:
        return BargmannWeight(phi0, t, xi0, fbi_op.cgrid)
    g = esc.g_at(a, -b)
    gx, gxi = esc.grad_g_at(a, -b)
    return BargmannWeight(phi0 + t * g, t,
                          xi0 + t * gxi - 1j * t * gx, fbi_op.cgrid)


def _check_unitarity(fbi_op: FBIOperator) -> None:
    u0 = gaussian_state(fbi_op.real_grid, fbi_op.h)
    defect = fbi_op.unitarity_defect(u0)
    if defect > UNITARITY_TOL:
        raise GridExtentError(
            f"transform unitarity defect {defect:.2e} exceeds {UNITARITY_TOL}")


def apply_conjugated(P: WeylMatrix, fbi_op: FBIOperator,
                     U: np.ndarray) -> np.ndarray:
    """(T P T*) U without forming the conjugated matrix.

    T* is the adjoint for the dx and Phi_0-weighted pairings, applied as
    conj(T^T conj(w U)) / dx so the M x N adjoint is never materialized;
    U is a vector or an (M, k) block.
    """
    w = fbi_op.weights_phi(fbi_op.phi0())
    wU = (U.T * w).T
    TsU = np.conj(fbi_op.matrix.T @ np.conj(wU)) / fbi_op.real_grid.spacing
    return fbi_op.apply(P.entries @ TsU)


def _symbol_on_section(model: ModelInstance, weight: BargmannWeight) -> np.ndarray:
    """a~(x, xi_t(x)) with a = p composed with kappa_phi^{-1}, order-2 extension.

    kappa_phi^{-1}(x, xi) = (x + i xi, xi); splitting into real and imaginary
    parts gives the real base point and the imaginary offset fed to the
    finite-order extension of p.
    """
    x = weight.cgrid.nodes()
    a = np.real(x)
    b = np.imag(x)
    xi = weight.xi_section
    rho_re = (a - np.imag(xi), np.real(xi))
    rho_im = (b + np.real(xi), np.imag(xi))
    return taylor_extension(model.symbol, 2, rho_re, rho_im)


def toeplitz_residual(model: ModelInstance, fbi_op: FBIOperator,
                      esc: Optional[EscapeField], t: float,
                      u: np.ndarray, v: np.ndarray) -> float:
    """Normalized defect of the weighted pairing against symbol multiplication.

    Compares <(T P T*) U, V>_{Phi_t} with the integral of a~(x, xi_t) U
    conj(V) against the Phi_t weight, for U = Tu, V = Tv.
    """
    _check_unitarity(fbi_op)
    P = assemble_weyl(model.symbol, fbi_op.real_grid, fbi_op.h)
    weight = weight_phi_t(esc, t, fbi_op)
    U = fbi_op.apply(u)
    V = fbi_op.apply(v)
    lhs = fbi_op.inner_phi(apply_conjugated(P, fbi_op, U), V, weight.phi_values)
    sym_field = _symbol_on_section(model, weight)
    rhs = fbi_op.inner_phi(sym_field * U, V, weight.phi_values)
    denom = fbi_op.norm_phi(U, weight.phi_values) * fbi_op.norm_phi(V, weight.phi_values)
    return abs(lhs - rhs) / denom


@dataclass(frozen=True)
class EllipticSample:
    h: float
    exterior_mass: float  # lhs of the elliptic estimate
    au_norm_sq: float     # ||(A - z0) U||^2 in the Phi_t norm
    u_norm_sq: float      # ||U||^2 in the Phi_t norm


def elliptic_residual(model: ModelInstance, fbi_op: FBIOperator,
                      esc: Optional[EscapeField], t: float, u: np.ndarray,
                      U_box: Tuple[Tuple[float, float], Tuple[float, float]],
                      ellipticity_floor: float = 0.25) -> EllipticSample:
    """Exterior weighted mass of Tu against the operator-side majorant.

    U_box is an (a, b) rectangle on the complex grid; the symbol must stay
    bounded away from z0 outside it (checked by sampling before measuring).
    """
    weight = weight_phi_t(esc, t, fbi_op)
    x = fbi_op.cgrid.nodes()
    a = np.real(x)
    b = np.imag(x)
    (alo, ahi), (blo, bhi) = U_box
    outside = ~((a >= alo) & (a <= ahi) & (b >= blo) & (b <= bhi))
    sym_field = _symbol_on_section(model, weight)
    bad = outside & (np.abs(sym_field - model.z0) < ellipticity_floor)
    if bad.any():
        k = int(np.argmax(bad))
        raise EllipticityError(
            f"symbol not elliptic outside U at node x = {x[k]:.4f} "
            f"(|a - z0| = {abs(sym_field[k] - model.z0):.3e} < {ellipticity_floor})")
    P = assemble_weyl(model.symbol, fbi_op.real_grid, fbi_op.h)
    _check_unitarity(fbi_op)
    U = fbi_op.apply(u)
    w = fbi_op.weights_phi(weight.phi_values)
    lhs = float(np.sum(np.abs(U[outside]) ** 2 * w[outside]))
    AU = apply_conjugated(P, fbi_op, U) - model.z0 * U
    return EllipticSample(fbi_op.h, lhs,
                          float(np.sum(np.abs(AU) ** 2 * w)),
                          float(np.sum(np.abs(U) ** 2 * w)))


def fit_elliptic_constants(samples: List[EllipticSample]) -> dict:
    """Least-squares fit lhs ~ c1 ||A U||^2 + c2 h ||U||^2, then scale the
    constants minimally so the bound covers every sample."""
    M = np.array([[s.au_norm_sq, s.h * s.u_norm_sq] for s in samples])
    y = np.array([s.exterior_mass for s in samples])
    from scipy.optimize import nnls
    coef, _ = nnls(M, y)
    rhs = M @ coef
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, y / rhs, np.inf)
    scale = float(max(1.0, np.nanmax(ratio[np.isfinite(ratio)], initial=1.0)))
    coef = coef * scale
    rhs = M @ coef
    ok = bool(np.all(y <= rhs * (1.0 + 1e-9)))
    return {"c_operator": float(coef[0]), "c_h": float(coef[1]),
            "pass": ok, "lhs": y.tolist(), "rhs": rhs.tolist()}

