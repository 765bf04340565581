"""Dense spectral computations: eigenvalues, sigma_min sweeps, resolvent norms.

All routines are deterministic; pseudospectrum grids evaluate pointwise with
values independent of evaluation order.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import List

import numpy as np
import scipy.linalg

from .quantize import WeylMatrix, save_weyl

BOUNDARY_MASS_THRESHOLD = 1e-6
BOUNDARY_FRACTION = 0.10  # outer fraction of grid nodes counted as boundary
RESOLVENT_SINGULAR_TOL = 1e-14
MAX_PSEUDOSPECTRUM_RES = 512
SVD_DIRECT_MAX_N = 512


class SolverError(RuntimeError):
    pass


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    boundary_mass: np.ndarray
    h: float
    symbol_tag: str

    def retained(self, threshold: float = BOUNDARY_MASS_THRESHOLD) -> np.ndarray:
        return self.eigenvalues[self.boundary_mass <= threshold]


@dataclass(frozen=True)
class ZGrid:
    center: complex
    re_span: float
    im_span: float
    re_n: int
    im_n: int

    def nodes(self) -> np.ndarray:
        re = self.center.real + np.linspace(-self.re_span, self.re_span, self.re_n)
        im = self.center.imag + np.linspace(-self.im_span, self.im_span, self.im_n)
        return re[None, :] + 1j * im[:, None]  # row-major: rows sweep Im z


@dataclass(frozen=True)
class PseudospectrumField:
    z_grid: ZGrid
    sigma_min: np.ndarray  # shape (im_n, re_n)


def eigenvalues(P: WeylMatrix) -> SpectrumResult:
    """All eigenvalues with per-eigenvector boundary-mass diagnostics."""
    n = P.n
    if n > 2048:
        raise BudgetError(f"dense eigensolve limited to N <= 2048, got {n}")
    try:
        vals, vecs = scipy.linalg.eig(P.entries)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        fd, path = tempfile.mkstemp(prefix="weyl_fail_", suffix=".bin")
        os.close(fd)
        save_weyl(path, P)
        raise SolverError(f"dense eigensolver failed; matrix dumped to {path}") from exc
    edge = max(1, int(round(0.5 * BOUNDARY_FRACTION * n)))
    mass = np.abs(vecs) ** 2
    total = mass.sum(axis=0)
    bmass = (mass[:edge].sum(axis=0) + mass[n - edge:].sum(axis=0)) / total
    order = np.argsort(np.abs(vals), kind="stable")
    return SpectrumResult(vals[order], bmass[order], P.h, P.symbol_tag)


def sigma_min(P: WeylMatrix, z: complex) -> float:
    """Smallest singular value of P - z."""
    A = P.entries - z * np.eye(P.n)
    if P.n <= SVD_DIRECT_MAX_N:
        return float(scipy.linalg.svdvals(A)[-1])
    return _sigma_min_inverse_iteration(A)


def sigma_min_direct(P: WeylMatrix, z: complex) -> float:
    A = P.entries - z * np.eye(P.n)
    return float(scipy.linalg.svdvals(A)[-1])


def _sigma_min_inverse_iteration(A: np.ndarray, tol: float = 1e-12,
                                 max_iter: int = 200) -> float:
    """Inverse iteration on A* A via one LU of A; deterministic start vector."""
    n = A.shape[0]
    try:
        lu, piv = scipy.linalg.lu_factor(A)
    except scipy.linalg.LinAlgError:
        return 0.0
    v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    sigma = np.inf
    for _ in range(max_iter):
        try:
            w = scipy.linalg.lu_solve((lu, piv), v, trans=2)  # A^-* v
            w = scipy.linalg.lu_solve((lu, piv), w)           # A^-1 A^-* v
        except (scipy.linalg.LinAlgError, FloatingPointError):
            return 0.0
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            return 0.0
        new_sigma = 1.0 / np.sqrt(nw)
        v = w / nw
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return float(new_sigma)
        sigma = new_sigma
    return float(sigma)


def pseudospectrum(P: WeylMatrix, window: ZGrid) -> PseudospectrumField:
    """sigma_min(P - z) over a rectangular z lattice."""
    if window.re_n > MAX_PSEUDOSPECTRUM_RES or window.im_n > MAX_PSEUDOSPECTRUM_RES:
        raise BudgetError(
            f"z-grid resolution {window.re_n}x{window.im_n} exceeds "
            f"{MAX_PSEUDOSPECTRUM_RES}; coarsen the lattice")
    zs = window.nodes()
    field = np.empty(zs.shape, dtype=float)
    for idx in np.ndindex(zs.shape):
        field[idx] = sigma_min(P, zs[idx])
    return PseudospectrumField(window, field)


def spectrum_free_radius(spec: SpectrumResult, z0: complex,
                         threshold: float = BOUNDARY_MASS_THRESHOLD) -> float:
    """Distance from z0 to the nearest boundary-clean eigenvalue."""
    lam = spec.retained(threshold)
    if lam.size == 0:
        raise SolverError("no eigenvalues survive the boundary-mass filter; "
                          "grid too small")
    return float(np.abs(lam - z0).min())


def resolvent_norm(P: WeylMatrix, z: complex) -> float:
    """1 / sigma_min(P - z); returns inf when z sits in the spectrum."""
    return resolvent_from_sigma(P, sigma_min(P, z))


def resolvent_from_sigma(P: WeylMatrix, s: float) -> float:
    """1 / s for s = sigma_min(P - z); inf when s is at or below
    RESOLVENT_SINGULAR_TOL * max(max |P_jk|, 1), where z counts as spectrum."""
    scale = max(np.abs(P.entries).max(), 1.0)
    if s <= RESOLVENT_SINGULAR_TOL * scale:
        return float("inf")
    return 1.0 / s


def spectrum_csv_lines(spec: SpectrumResult) -> List[str]:
    lines = ["re_lambda,im_lambda,boundary_mass"]
    for lam, bm in zip(spec.eigenvalues, spec.boundary_mass):
        lines.append(f"{lam.real:.17g},{lam.imag:.17g},{bm:.17g}")
    return lines


def pseudospectrum_csv_lines(field: PseudospectrumField) -> List[str]:
    lines = ["re_z,im_z,sigma_min"]
    zs = field.z_grid.nodes()
    for idx in np.ndindex(zs.shape):
        z = zs[idx]
        lines.append(f"{z.real:.17g},{z.imag:.17g},{field.sigma_min[idx]:.17g}")
    return lines
