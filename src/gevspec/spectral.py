"""Dense spectral computations: eigenvalues, sigma_min sweeps, resolvent norms.

One complex Schur factorization per matrix serves every query but one: the
triangular factor T of P = Z T Z*, without the Schur vectors Z, computed on
the first query and kept with ||P||_F while P lives. _factor, which checks
the size budget, is the one place a matrix is factored. The eigenvalues
are diag(T); sigma_min(P - z) = sigma_min(T - z) comes from Lanczos with
triangular solves on T (the EigTool design: Trefethen, Acta Numerica 1999;
Wright & Trefethen, SISC 2001). spectrum_free_radius() walks diag(T)
outward from z0; each candidate's boundary mass comes from inverse
iteration on P - lambda, one LU per candidate (LAPACK's xHSEIN route to
selected eigenvectors), and the one it reports gets its kappa from
back-substitution on T. eigenvalues() alone
needs all N eigenvectors, Z X with X from back-substitution on T, so it
computes (T, Z) for itself and keeps neither.

An assembled WeylMatrix holds no N x N array: each LAPACK call factors a
fresh build of P in place. T is kept upper-packed (LAPACK's ztrttp layout:
T[i, j] at i + j(j + 1)/2, N(N + 1)/2 entries), and the full array zgees
returned is freed once packed. Packing holds both (1.5 N x N arrays), and
so does the radius walk after it, with one LU buffer per candidate beside
the packed T. sigma_min and the kappa solves are BLAS ztpsv on the packed
T: they shift its diagonal in place, restore it on every exit, and copy no
block of it.

All routines are deterministic; pseudospectrum grids evaluate pointwise with
values independent of evaluation order, since each sigma_min leaves T as it
found it.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.linalg.blas import ztpsv

from .quantize import WeylMatrix, ZGrid, save_weyl

BOUNDARY_MASS_THRESHOLD = 1e-6
BOUNDARY_FRACTION = 0.10  # outer fraction of grid nodes counted as boundary
MAX_PSEUDOSPECTRUM_RES = 512
MAX_DENSE_N = 2048  # largest matrix order the Schur factorization runs at
# read by bench/worker.py and bench/tests/test_bench.py only; no path in src/
SVD_DIRECT_MAX_N = 512
# Lanczos steps per sigma_min before SolverError. Far from the spectrum the
# smallest singular values cluster (relative spacing ~3e-7 at N = 1024), and
# the worst z of the make_pseudospectrum window takes 202, 335 and 670 steps
# at N = 512, 1024 and 2048.
LANCZOS_MAX_STEPS = 1000
# stop once the Ritz residual bounds the sigma_min error by
# LANCZOS_RTOL * sigma plus the roundoff floor
LANCZOS_RTOL = 1e-12


class SolverError(RuntimeError):
    pass


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray
    boundary_mass: np.ndarray


@dataclass(frozen=True)
class FreeRadius:
    """The nearest boundary-clean eigenvalue of P to z0, its distance from
    z0, and its condition number kappa = ||x|| ||y|| / |y* x| for right and
    left eigenvectors x and y."""
    radius: float
    eigenvalue: complex
    kappa: float


@dataclass(frozen=True)
class PseudospectrumField:
    z_grid: ZGrid
    sigma_min: np.ndarray  # shape (re_n, im_n), indexed as z_grid.nodes()


def check_window(window: ZGrid) -> None:
    """Raise BudgetError unless the z window has a finite center, finite
    positive half spans and 2 to MAX_PSEUDOSPECTRUM_RES nodes per axis."""
    if window.re_n > MAX_PSEUDOSPECTRUM_RES or window.im_n > MAX_PSEUDOSPECTRUM_RES:
        raise BudgetError(
            f"z-grid resolution {window.re_n}x{window.im_n} exceeds "
            f"{MAX_PSEUDOSPECTRUM_RES}; coarsen the lattice")
    if window.re_n < 2 or window.im_n < 2:
        raise BudgetError(
            f"z-grid resolution {window.re_n}x{window.im_n} is below 2x2; "
            "each axis needs both window edges")
    if not (0 < window.re_span < np.inf and 0 < window.im_span < np.inf):
        raise BudgetError(
            f"z-window half spans must be positive and finite, got "
            f"{window.re_span:g} and {window.im_span:g}")
    if not np.isfinite(window.center):
        raise BudgetError(f"z-window center must be finite, got {window.center}")


def _factor(P: WeylMatrix, compute_v: int
            ) -> Tuple[np.ndarray, np.ndarray, float]:
    """(T, Z, ||P||_F) of the complex Schur form P = Z T Z*, computed by
    zgees in a fresh build of P that becomes T; without the Schur vectors
    (compute_v=0), Z is a 1 x N placeholder. The one place a matrix is
    factored.

    The size budget is checked before P is built. ||P||_F is BLAS nrm2 on
    the build viewed flat (a view of the Fortran-ordered buffer, so no
    copy and no overflow in the squares), read before zgees overwrites it.
    zgees runs on the workspace its query reports as optimal, as
    scipy.linalg.schur queries it, so (T, Z) is bit for bit the pair
    scipy.linalg.schur(entries, output="complex") returns. Raises
    BudgetError above MAX_DENSE_N, ValueError for a non-finite entry, and
    SolverError when the QR iteration fails (zgees info != 0), after
    dumping P, built again, to a temporary file.
    """
    if P.n > MAX_DENSE_N:
        raise BudgetError(
            f"dense factorization limited to N <= {MAX_DENSE_N}, got {P.n}")
    a = np.asarray_chkfinite(P.entries)
    norm = scipy.linalg.norm(a.ravel(order="K"), check_finite=False)

    def gees(lwork: int):
        # the query (lwork=-1) leaves a as it is, so it needs no copy either
        return lapack.zgees(lambda _: None, a, compute_v=compute_v,
                            lwork=lwork, overwrite_a=1)

    T, _, _, Z, _, info = gees(int(gees(-1)[-2][0].real))
    if info != 0:
        fd, path = tempfile.mkstemp(prefix="weyl_fail_", suffix=".bin")
        os.close(fd)
        save_weyl(path, P)
        raise SolverError(f"Schur factorization of order {P.n} failed "
                          f"(zgees info {info}); matrix dumped to {path}")
    return T, Z, norm


_FACTORS = weakref.WeakKeyDictionary()  # P -> (packed T, ||P||_F), P alive


def _schur_factor(P: WeylMatrix) -> Tuple[np.ndarray, float]:
    """(ap, ||P||_F): P's triangular Schur factor T without the Schur
    vectors, upper-packed by ztrttp into the 1-D ap of N(N + 1)/2 entries,
    and its Frobenius norm, computed on the first query and kept. The full
    T is freed on return."""
    if P not in _FACTORS:
        T, _, norm = _factor(P, compute_v=0)
        _FACTORS[P] = lapack.ztrttp(T)[0], norm  # info != 0: a bad argument
    return _FACTORS[P]


def _diagonal_index(n: int) -> np.ndarray:
    """The positions of diag(T) in the packed T of order n: j(j + 3)/2."""
    j = np.arange(n)
    return j * (j + 3) // 2


def _edge_rows(V: np.ndarray) -> np.ndarray:
    """The rows of V on the outer BOUNDARY_FRACTION of the grid nodes, half
    at each end."""
    n = V.shape[0]
    edge = max(1, int(round(0.5 * BOUNDARY_FRACTION * n)))
    return np.concatenate((V[:edge], V[n - edge:]))


def eigenvalues(P: WeylMatrix) -> SpectrumResult:
    """All eigenvalues with per-eigenvector boundary-mass diagnostics."""
    # the one query that reads the Schur vectors: computed here, not kept
    T, Z, _ = _factor(P, compute_v=1)
    # T is triangular, so balancing isolates every eigenvalue and eig only
    # back-substitutes for T's eigenvectors X (values: diag(T)); P's are Z X.
    # T is not read again, so eig factors it in place
    vals, X = scipy.linalg.eig(T, overwrite_a=True)
    edge_rows = _edge_rows(Z) @ X
    # Z is unitary, so the columns of X carry the norms of Z X
    bmass = (np.abs(edge_rows) ** 2).sum(axis=0) / (np.abs(X) ** 2).sum(axis=0)
    order = np.argsort(np.abs(vals), kind="stable")
    return SpectrumResult(vals[order], bmass[order])


def schur_eigenvalues(P: WeylMatrix) -> np.ndarray:
    """The eigenvalues alone, diag(T), in the order eigenvalues() returns."""
    vals = _schur_factor(P)[0][_diagonal_index(P.n)]
    return vals[np.argsort(np.abs(vals), kind="stable")]


def sigma_min(P: WeylMatrix, z: complex) -> float:
    """Smallest singular value of P - z.

    P - z = Z (T - z) Z* has the singular values of the triangular R = T - z,
    so this runs Lanczos on R^-1 R^-* (largest eigenvalue 1 / sigma_min^2)
    with full reorthogonalization: each step is two ztpsv solves on the
    packed R. R is the cached packed T with its diagonal shifted in place
    and restored, from a saved copy, on every exit; so no copy of T is made,
    and calls on one matrix must not run concurrently. Beside the packed T
    the iteration holds its Krylov basis, one length-N vector per step.
    Raises SolverError when LANCZOS_MAX_STEPS steps do not meet the stop
    rule, and ValueError for a non-finite z, which no answer fits.

    A value at or below roundoff_floor(P) carries no digit: the stop rule
    accepts the first Ritz value there, so it can lie far from the exact
    sigma_min of P - z. Callers compare with the floor, as
    resolvent_from_sigma does.
    """
    if not np.isfinite(z):
        raise ValueError(f"sigma_min needs a finite z, got {z}")
    ap, _ = _schur_factor(P)
    d = _diagonal_index(P.n)
    diag = ap[d]
    ap[d] = diag - z
    try:
        return _lanczos_sigma_min(ap, P.n, z, roundoff_floor(P))
    finally:
        ap[d] = diag


def _lanczos_sigma_min(R: np.ndarray, n: int, z: complex,
                       floor: float) -> float:
    """sigma_min of the upper-triangular R = T - z of order n, packed as
    _schur_factor packs T, as sigma_min describes; 0.0 when R is singular
    to working precision, a zero on its diagonal (z an eigenvalue to the
    last bit) included."""
    steps = min(LANCZOS_MAX_STEPS, n)
    V = np.empty((steps, n), dtype=complex)
    rng = np.random.default_rng(0)  # a fixed start vector
    V[0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V[0] /= np.linalg.norm(V[0])
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        w = ztpsv(n, R, ztpsv(n, R, V[k], trans=2), overwrite_x=1)
        if not np.all(np.isfinite(w)):
            return 0.0  # a zero pivot, or R^-1 overflows
        alpha[k] = np.vdot(V[k], w).real
        basis = V[:k + 1]
        for _ in range(2):  # full reorthogonalization; twice is enough
            w -= basis.T @ (basis @ w.conj()).conj()
        beta[k] = np.linalg.norm(w)
        theta, s = _largest_ritz_pair(alpha[:k + 1], beta[:k])
        sigma = 1.0 / np.sqrt(theta)
        # |theta - 1/sigma_min^2| <= beta_k |s_k|, and sigma moves by at most
        # half the relative change of theta
        if (beta[k] * abs(s[-1]) * sigma
                <= 2.0 * theta * (LANCZOS_RTOL * sigma + floor) or k + 1 == n):
            return float(sigma)
        if k + 1 < steps:
            V[k + 1] = w / beta[k]
    raise SolverError(f"sigma_min(P - z) at z = {z}, N = {n}: Lanczos did "
                      f"not converge in {steps} steps")


def _largest_ritz_pair(alpha: np.ndarray,
                       beta: np.ndarray) -> Tuple[float, np.ndarray]:
    """Largest eigenvalue theta of the symmetric tridiagonal matrix with
    diagonal alpha and off-diagonal beta, and its unit eigenvector: the two
    LAPACK calls eigh_tridiagonal(select="i") makes, without its argument
    handling."""
    k = alpha.size
    if k == 1:  # dstebz rejects an empty off-diagonal
        return float(alpha[0]), np.ones(1)
    m, w, iblock, isplit, info = lapack.dstebz(alpha, beta, 2, 0.0, 1.0,
                                               k, k, 0.0, "B")
    if info == 0:
        s, info = lapack.dstein(alpha, beta, w[:m], iblock, isplit)
    if info != 0:
        raise SolverError(f"tridiagonal Ritz problem of order {k}: LAPACK "
                          f"info {info}")
    return float(w[0]), s[:, 0]


def roundoff_floor(P: WeylMatrix) -> float:
    """eps * sqrt(N) * ||P||_F: the Schur factors are exact for some P + E
    with ||E|| below this, so a sigma_min(P - z) at or under it carries no
    digit and z counts as spectrum. ||P||_F is kept beside T, so reading it
    factors P if no query has."""
    return np.finfo(float).eps * np.sqrt(P.n) * _schur_factor(P)[1]


def pseudospectrum(P: WeylMatrix, window: ZGrid) -> PseudospectrumField:
    """sigma_min(P - z) over a rectangular z lattice."""
    check_window(window)
    zs = window.nodes()
    field = np.empty(zs.shape, dtype=float)
    for idx in np.ndindex(zs.shape):
        field[idx] = sigma_min(P, zs[idx])
    return PseudospectrumField(window, field)


def _pivot_floor(lam: complex, n: int) -> float:
    """smin = max(ulp (|Re lam| + |Im lam|), smlnum): LAPACK ztrevc's floor
    for a pivot of modulus |Re| + |Im| in a solve shifted by lam at order
    n."""
    ulp = np.finfo(float).eps
    return max(ulp * (abs(lam.real) + abs(lam.imag)),
               np.finfo(float).tiny * (n / ulp))


def _solve_shifted(ap: np.ndarray, k: int,
                   n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The right and left eigenvectors x and y of T for lam = T[k, k], from
    the packed T of order n with no copy of a block of it: x, the first
    k + 1 entries of a solution of (T - lam) x = 0 with x_k = 1 (the rest
    are zero), and y, a solution of (T - lam)* y = 0 with y_k = 1 and zeros
    above k.

    T's diagonal is shifted by lam in place, and, as in LAPACK's ztrevc,
    which eig runs, a pivot below _pivot_floor is raised to it, so a repeated
    eigenvalue gives a large but finite vector; the diagonal is restored on
    every exit. x[:k] is one ztpsv on the leading k x k block, which is the
    first k(k + 1)/2 entries of ap, with the right-hand side -T[:k, k] that
    follows them there. y is one conjugate-transpose ztpsv of order n with
    right-hand side conj(p) e_k, p the raised pivot of row k: forward
    substitution keeps y[:k] at 0 and gives y_k = 1, where e_k would give
    1 / conj(p), near lam = 0 about 1e290 and no room for y to grow.
    """
    d = _diagonal_index(n)
    diag = ap[d]
    lam = diag[k]
    smin = _pivot_floor(lam, n)
    piv = diag - lam
    piv[np.abs(piv.real) + np.abs(piv.imag) < smin] = smin
    ap[d] = piv
    try:
        x = np.ones(k + 1, dtype=complex)
        if k:
            start = d[k] - k  # column k of T starts there
            x[:k] = ztpsv(k, ap, -ap[start:d[k]], overwrite_x=1)
        rhs = np.zeros(n, dtype=complex)
        rhs[k] = np.conj(piv[k])
        y = ztpsv(n, ap, rhs, trans=2, overwrite_x=1)
    finally:
        ap[d] = diag
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise SolverError(f"eigenvector back-substitution at lambda = {lam}, "
                          f"N = {n} overflowed")
    return x, y


def _least_boundary_mass(P: WeylMatrix, lam: complex, m: int) -> float:
    """The least boundary mass of a unit vector in the span of P's
    eigenvectors for lam, an eigenvalue m times on diag(T).

    Two steps of inverse iteration on P - lam from a fixed m-column start
    block, orthonormalized after each, give that span; the least mass over
    it is the smallest eigenvalue of the m x m Gram matrix of its edge rows.
    P - lam is factored by one LU in place on a fresh build of P, the one
    N x N array beside the packed T, and a pivot of U below _pivot_floor is
    raised to it, as _solve_shifted raises T's.
    """
    n = P.n
    A = P.entries  # Fortran-ordered, the layout zgetrf factors in place
    np.fill_diagonal(A, A.diagonal() - lam)
    lu, piv, _ = lapack.zgetrf(A, overwrite_a=1)  # info > 0: a zero pivot
    smin = _pivot_floor(lam, n)
    d = lu.diagonal()
    small = np.flatnonzero(np.abs(d.real) + np.abs(d.imag) < smin)
    lu[small, small] = smin
    rng = np.random.default_rng(0)  # a fixed start block
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    for _ in range(2):
        V, _ = lapack.zgetrs(lu, piv, V)
        if not np.all(np.isfinite(V)):
            raise SolverError(f"inverse iteration at lambda = {lam}, N = {n} "
                              "overflowed")
        V = np.linalg.qr(V)[0]
    E = _edge_rows(V)
    return float(np.linalg.eigvalsh(E.conj().T @ E)[0])


def spectrum_free_radius(P: WeylMatrix, z0: complex) -> FreeRadius:
    """Distance from z0 to the nearest eigenvalue whose eigenvector keeps at
    most BOUNDARY_MASS_THRESHOLD of its mass on the boundary rows, with that
    eigenvalue and its kappa.

    Walks diag(T) in order of distance from z0. A candidate lam, with every
    copy of it on diag(T) (those within _pivot_floor), is tested once by
    _least_boundary_mass; the first that passes is reported by its last
    copy k on diag(T), whose right eigenvector x of T (x_k = 1, zero below
    k) and left eigenvector y (y_k = 1, zero above k, so y* x = 1) give
    kappa = ||x|| ||y||.
    """
    ap, _ = _schur_factor(P)
    n = P.n
    lams = ap[_diagonal_index(n)]
    dist = np.abs(lams - z0)
    tested = np.zeros(n, dtype=bool)
    norm = scipy.linalg.norm  # BLAS nrm2: no overflow in the squares
    for k in np.argsort(dist, kind="stable"):
        if tested[k]:
            continue
        gap = lams - lams[k]
        copies = np.flatnonzero(np.abs(gap.real) + np.abs(gap.imag)
                                < _pivot_floor(lams[k], n))
        tested[copies] = True
        mass = _least_boundary_mass(P, lams[k], copies.size)
        if mass <= BOUNDARY_MASS_THRESHOLD:
            k = copies[-1]
            x, y = _solve_shifted(ap, k, n)
            return FreeRadius(float(dist[k]), complex(lams[k]),
                              float(norm(x) * norm(y)))
    raise SolverError("no eigenvalues survive the boundary-mass filter; "
                      "grid too small")


def resolvent_norm(P: WeylMatrix, z: complex) -> float:
    """1 / sigma_min(P - z); returns inf when z sits in the spectrum."""
    return resolvent_from_sigma(P, sigma_min(P, z))


def resolvent_from_sigma(P: WeylMatrix, s: float) -> float:
    """1 / s for s = sigma_min(P - z); inf when s is at or below
    roundoff_floor(P), where z counts as spectrum."""
    if s <= roundoff_floor(P):
        return float("inf")
    return 1.0 / s


def spectrum_csv_lines(spec: SpectrumResult) -> List[str]:
    lines = ["re_lambda,im_lambda,boundary_mass"]
    for lam, bm in zip(spec.eigenvalues, spec.boundary_mass):
        lines.append(f"{lam.real:.17g},{lam.imag:.17g},{bm:.17g}")
    return lines


def pseudospectrum_csv_lines(field: PseudospectrumField) -> List[str]:
    """A header, then one row per lattice node, Im-major: the rows sweep
    Re z at the first Im z, then at the next."""
    lines = ["re_z,im_z,sigma_min"]
    for z, s in zip(field.z_grid.nodes().T.ravel(), field.sigma_min.T.ravel()):
        lines.append(f"{z.real:.17g},{z.imag:.17g},{s:.17g}")
    return lines
