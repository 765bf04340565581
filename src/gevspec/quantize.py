"""Discretization of the semiclassical Weyl quantization on a real grid,
as a matrix that builds its dense entries on each read and, for an
additive symbol, applies itself to vectors without forming them.

The matrix entries are
    P_jk = (1/N) sum_m exp(i (x_j - x_k) theta_m / h) p((x_j + x_k)/2, theta_m)
with theta_m = -Theta + m * dtheta, dtheta = 2 pi h / (N dx), Theta = pi h / dx.
With this dual grid the quantization of p == 1 is the exact identity and real
symbols give exactly Hermitian matrices. Vectors carry the dx-weighted inner
product <u, v> = dx * sum u conj(v).

Since (x_j - x_k) theta_m / h = -pi (j - k) + 2 pi (j - k) m / N, the sum
over m of the phase vanishes unless j = k. So an additive symbol
p = a(x) + b(xi) quantizes to
    P = diag(a(x_j)) + C,   C_jk = (-1)^(j-k) B[(j - k) mod N],
    B = ifft(b(theta_m)),
and since (-1)^d = e^(i pi d) shifts the frequency index by N/2, C is the
circulant with first column ifft(roll(b(theta_m), N/2)). The DFT
diagonalizes C (Davis, Circulant Matrices, 1979), so the same two length-N
arrays a(x_j) and roll(b(theta_m), N/2) serve the dense build, one
length-N FFT and a circulant, and the product
    P U = a o U + ifft(roll(b, N/2) o fft(U)),
one FFT pair. Symbols without a split take the general midpoint assembly,
one FFT per anti-diagonal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .symbols import GevreySymbol, smooth_step

_MAGIC = b"WEYL"
_VERSION = 1
# magic, version, N, h, L, byte length of the UTF-8 symbol tag; the tag follows
_HEADER = struct.Struct("<4sIIddI")
MIN_N_POINTS = 32  # floor of the grid rule


class GridError(ValueError):
    pass


class ResolutionError(ValueError):
    pass


@dataclass(frozen=True)
class RealGrid:
    half_width_L: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 2 or n % 2:
            raise GridError(f"n_points must be even and >= 2, got {n}")
        if not 0 < self.half_width_L < np.inf:
            raise GridError("half_width_L must be positive and finite, got "
                            f"{self.half_width_L}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width_L / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return -self.half_width_L + self.spacing * np.arange(self.n_points)

    def theta_max(self, h: float) -> float:
        return np.pi * h / self.spacing

    def theta_nodes(self, h: float) -> np.ndarray:
        n = self.n_points
        dtheta = 2.0 * np.pi * h / (n * self.spacing)
        return -self.theta_max(h) + dtheta * np.arange(n)


@dataclass(frozen=True)
class ZGrid:
    """The lattice center + a + i b, a and b on linspace axes of half spans
    re_span and im_span: a pseudospectrum's z window, and at center 0 the
    FBI side's nodes. nodes() is row-major: rows sweep Im z."""
    center: complex
    re_span: float
    im_span: float
    re_n: int
    im_n: int

    @property
    def re_axis(self) -> np.ndarray:
        return self.center.real + np.linspace(-self.re_span, self.re_span,
                                              self.re_n)

    @property
    def im_axis(self) -> np.ndarray:
        return self.center.imag + np.linspace(-self.im_span, self.im_span,
                                              self.im_n)

    @property
    def cell_area(self) -> float:
        return ((2.0 * self.re_span / (self.re_n - 1))
                * (2.0 * self.im_span / (self.im_n - 1)))

    def nodes(self) -> np.ndarray:
        return self.re_axis[None, :] + 1j * self.im_axis[:, None]


@dataclass(frozen=True)
class WeylMatrix:
    """A Weyl matrix on its grid, kept as the two functions that build its
    entries and apply it: an assembled split symbol holds a(x_j) and
    roll(b(theta_m), N/2), two length-N arrays that serve both; an explicit
    matrix (from_entries) holds its array. Each read of entries builds a
    fresh Fortran-ordered complex N x N array that the reader owns and may
    factor in place; P @ U applies P to a vector or an (N, k) block."""
    build: Callable[[], np.ndarray]
    apply: Callable[[np.ndarray], np.ndarray]
    h: float
    grid: RealGrid
    symbol_tag: str

    @classmethod
    def from_entries(cls, M: np.ndarray, h: float, grid: RealGrid,
                     symbol_tag: str) -> "WeylMatrix":
        """The matrix of an explicit array M, which it keeps; each read of
        entries is a copy, and P @ X multiplies X by one."""
        build = partial(np.array, np.asarray(M, dtype=complex), order="F")
        return cls(build, lambda X: build() @ X, h, grid, symbol_tag)

    @property
    def n(self) -> int:
        return self.grid.n_points

    @property
    def entries(self) -> np.ndarray:
        """A fresh Fortran-ordered complex N x N array of the entries."""
        return self.build()

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        return self.apply(X)


def required_n_points(half_width_L: float, h: float, xi_extent: float) -> int:
    """Smallest power-of-two N whose dual Nyquist Theta = pi h N / (2L) covers
    xi_extent; no N does for h <= 0 or an infinite L."""
    if not (h > 0 and 0 < half_width_L < np.inf):
        raise ValueError(f"the grid rule needs h > 0 and a finite L > 0, "
                         f"got h = {h:g}, L = {half_width_L:g}")
    n = 2
    while np.pi * h * n / (2.0 * half_width_L) < xi_extent:
        n *= 2
    return n


def grid_for(sym: GevreySymbol, half_width_L: float, h: float,
             n_points: Optional[int] = None) -> RealGrid:
    """The grid of half width L for sym at h: n_points points if given,
    else the grid rule, the smallest power of two N >= MIN_N_POINTS whose
    dual Nyquist frequency covers the symbol's xi_extent."""
    if n_points is None:
        n_points = max(required_n_points(half_width_L, h, sym.xi_extent),
                       MIN_N_POINTS)
    return RealGrid(half_width_L, n_points)


def assemble_weyl(sym: GevreySymbol, grid: RealGrid, h: float) -> WeylMatrix:
    """The Weyl matrix of a symbol at semiclassical parameter h.

    A symbol with an additive split keeps its samples a(x_j) and
    roll(b(theta_m), N/2): its entries, diag(a) plus the circulant, equal
    the general midpoint assembly entry for entry, and P @ U takes one FFT
    pair. The split is checked against value on the N pairs
    (x_j, theta_j), so what is quantized is the same symbol that every
    other reader of value sees. Any other symbol is assembled densely.
    """
    if not (0 < h <= 1):
        raise ValueError(f"h must lie in (0, 1], got {h}")
    theta_max = grid.theta_max(h)
    if theta_max < sym.xi_extent:
        n_req = required_n_points(grid.half_width_L, h, sym.xi_extent)
        raise ResolutionError(
            f"Nyquist frequency {theta_max:.4g} below symbol xi-extent "
            f"{sym.xi_extent:.4g}; need n_points >= {n_req}")
    theta = grid.theta_nodes(h)
    if sym.split is None:
        return WeylMatrix.from_entries(_midpoint_weyl(sym, grid, theta), h,
                                       grid, sym.name)
    x = grid.nodes
    a = sym.split.a(x)
    b = sym.split.b(theta)
    mismatch = sym.value(x, theta) != a + b
    if np.any(mismatch):
        k = int(np.argmax(mismatch))
        raise ValueError(
            f"additive split of {sym.name!r} does not reproduce its value at "
            f"(x, xi) = ({x[k]:.6g}, {theta[k]:.6g})")
    n = grid.n_points
    a = np.broadcast_to(a, n)
    b = np.roll(np.broadcast_to(b, n), n // 2)
    return WeylMatrix(partial(_circulant_weyl, a, b),
                      partial(_circulant_apply, a, b), h, grid, sym.name)


def _circulant_weyl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a) + C, C the circulant with first column B = ifft(b), in
    Fortran order: P^T is the C-ordered circulant of B[-m mod N], and its
    transpose is P without a copy."""
    B = np.fft.ifft(b)
    n = len(B)
    Pt = scipy.linalg.circulant(np.concatenate((B[:1], B[:0:-1])))
    Pt.flat[::n + 1] += a
    return Pt.T


def _circulant_apply(a: np.ndarray, b: np.ndarray,
                     U: np.ndarray) -> np.ndarray:
    """(diag(a) + C) U = a o U + ifft(b o fft(U)) along axis 0, for a vector
    or an (N, k) block."""
    shape = (-1,) + (1,) * (np.ndim(U) - 1)
    CU = np.fft.ifft(b.reshape(shape) * np.fft.fft(U, axis=0), axis=0)
    return a.reshape(shape) * U + CU


def _midpoint_weyl(sym: GevreySymbol, grid: RealGrid,
                   theta: np.ndarray) -> np.ndarray:
    """General assembly: p sampled at the midpoints (x_j + x_k)/2 and
    transformed along theta, one row per anti-diagonal j + k."""
    n = grid.n_points
    dx = grid.spacing
    # midpoints (x_j + x_k)/2 indexed by a = j + k on the half-spacing grid
    mids = -grid.half_width_L + 0.5 * dx * np.arange(2 * n - 1)
    rows = np.asarray(sym.value(mids[:, None], theta[None, :]), dtype=complex)
    rows = np.broadcast_to(rows, (2 * n - 1, n))
    # entry at difference d = j - k is (-1)^d * F_a[d mod N] with F_a = ifft over m
    F = np.fft.ifft(rows, axis=1)
    del rows  # not read again; freeing it lowers the peak at large N
    # F[j + k, (j - k) mod N] sits at flat offset j(N+1) + k(N-1), plus N
    # above the diagonal: two strided views of F, no index arrays
    strided = np.lib.stride_tricks.as_strided
    step = F.strides[1]
    strides = ((n + 1) * step, (n - 1) * step)
    lower = strided(F, (n, n), strides, writeable=False)
    upper = strided(F.reshape(-1)[n:], (n - 1, n), strides, writeable=False)
    P = lower.copy()
    np.copyto(P[:-1], upper, where=np.arange(n) > np.arange(n - 1)[:, None])
    P[0::2, 1::2] *= -1.0
    P[1::2, 0::2] *= -1.0
    return P


def _lagrange_half_weights(stencil: np.ndarray) -> np.ndarray:
    """Lagrange weights evaluating at 0 from samples at half-integer offsets."""
    m = len(stencil)
    V = np.vander(stencil, m, increasing=True).T
    rhs = np.zeros(m)
    rhs[0] = 1.0
    return np.linalg.solve(V, rhs)


def _half_shift_to_nodes(v: np.ndarray) -> np.ndarray:
    """Interpolate samples at x_{p+1/2} onto the nodes x_p (axis 0).

    Local 8-point Lagrange stencils so that reconstruction errors near the
    domain edge cannot contaminate interior rows (a global spectral shift
    would spread them). Exact for polynomials of degree < 8 in x.
    """
    n = v.shape[0]
    out = np.empty_like(v)
    base = np.arange(-4, 4)  # sample p + base sits at offset base + 1/2
    # windows[i] holds rows i .. i+7 along its last axis
    windows = np.lib.stride_tricks.sliding_window_view(v, 8, axis=0)
    p = np.arange(n)
    # stencils near an edge shift inward; row n-1 is padding, not data
    shift = np.where(p < 4, 4 - p, np.minimum(n - 5 - p, 0))
    for s in np.unique(shift):
        rows = p[shift == s]  # consecutive
        start = rows[0] - 4 + s
        w = _lagrange_half_weights(base + s + 0.5)
        out[rows] = windows[start:start + len(rows)] @ w
    return out


def _residue_entries(M: np.ndarray, a: np.ndarray, weight) -> np.ndarray:
    """One entry per residue r < N/2 for each anti-diagonal a = j + k of one
    parity, shape (len(a), N/2). Of the offsets d = j - k = 2r + (a mod 2)
    and d - N it reads the one nearer the diagonal, where a smooth symbol's
    kernel concentrates (the positive one on the tie |d| = N/2; the farther
    fits in the matrix only where the nearer does): the entry
    (-1)^d weight(d) M[(a + d)/2, (a - d)/2], or 0 where d does not fit."""
    n = M.shape[0]
    a = a[:, None]
    span = np.minimum(a, 2 * (n - 1) - a)  # (a +- d)/2 in [0, N) iff |d| <= span
    d = 2 * np.arange(n // 2) + a % 2
    d = np.where(2 * d <= n, d, d - n)
    fits = np.abs(d) <= span
    d = np.where(fits, d, 0)  # any offset inside the matrix; masked below
    entries = (-1.0) ** d * weight(d) * M[(a + d) // 2, (a - d) // 2]
    return np.where(fits, entries, 0.0)


def inverse_weyl(P: WeylMatrix, taper: bool = False) -> np.ndarray:
    """Recover the sampled symbol c(x_j, theta_m) from a Weyl matrix.

    Exact on symbols whose kernel decays inside each anti-diagonal; the
    even/odd anti-diagonal split resolves the half-band frequency aliasing,
    with a half-cell interpolation carrying the odd-parity data onto the
    nodes. Band-limited, x-localized symbols round-trip below 1e-8.

    With taper=True the anti-diagonal kernels are rolled off near the
    maximal index separation before transforming. Matrices that are not
    exact quantizations (operator products, for instance) carry kernel
    content up to the wrap-around separation whose jump otherwise disperses
    across the dual band; the taper suppresses it at the price of exactness
    for symbols with slowly decaying kernels.
    """
    n = P.grid.n_points
    half = n // 2
    if n < 16:
        raise GridError(f"inverse_weyl needs n_points >= 16, got {n}")

    def weight(d):
        if not taper:
            return np.ones_like(d, dtype=float)
        u = np.abs(d) / (n / 2.0)
        return 1.0 - smooth_step((u - 0.5) / 0.5)[0]

    M = P.entries
    p = np.arange(n)
    # even anti-diagonals a = 2p: c(theta) + c(theta + Theta) at x_p
    S = 2.0 * np.fft.fft(_residue_entries(M, 2 * p, weight), axis=1)
    # odd anti-diagonals a = 2p + 1: the differences at x_{p+1/2}; the
    # last row has no anti-diagonal and stays 0
    D_half = np.zeros((n, half), dtype=complex)
    H = _residue_entries(M, 2 * p[:-1] + 1, weight)
    D_half[:-1] = (2.0 * np.exp(-2j * np.pi * np.arange(half) / n)
                   * np.fft.fft(H, axis=1))
    D = _half_shift_to_nodes(D_half)
    c = np.empty((n, n), dtype=complex)
    c[:, :half] = 0.5 * (S + D)
    c[:, half:] = 0.5 * (S - D)
    return c


def interior_window(grid: RealGrid, h: float) -> np.ndarray:
    """Boolean mask over the (x_j, theta_m) lattice keeping the interior
    box, the inner half of each axis."""
    x = grid.nodes
    theta = grid.theta_nodes(h)
    mx = np.abs(x) <= 0.5 * grid.half_width_L
    mt = np.abs(theta) <= 0.5 * grid.theta_max(h)
    return mx[:, None] & mt[None, :]


def compose_and_extract(a: GevreySymbol, b: GevreySymbol, grid: RealGrid,
                        h: float) -> np.ndarray:
    """Remainder field r = (symbol(A B) - a b) / h on the (x, theta) lattice."""
    A = assemble_weyl(a, grid, h)
    B = assemble_weyl(b, grid, h)
    prod = WeylMatrix.from_entries(A.entries @ B.entries, h, grid,
                                   f"{a.name}#{b.name}")
    c = inverse_weyl(prod, taper=True)
    x = grid.nodes[:, None]
    theta = grid.theta_nodes(h)[None, :]
    ab = np.asarray(a.value(x, theta), dtype=complex) * np.asarray(b.value(x, theta), dtype=complex)
    return (c - ab) / h


def save_weyl(path, P: WeylMatrix) -> None:
    """Flat binary export: a versioned header (magic, version, N, h, L, tag
    length, then the UTF-8 symbol tag) followed by row-major complex128.
    The Fortran-ordered build is written in blocks of N/8 rows, so the
    row-major payload never needs a second N x N array."""
    tag = P.symbol_tag.encode("utf-8")
    entries = P.entries.astype("<c16", copy=False)
    step = max(1, P.n // 8)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, P.n, P.h,
                              P.grid.half_width_L, len(tag)))
        fh.write(tag)
        for r in range(0, P.n, step):
            fh.write(entries[r:r + step].tobytes(order="C"))


def load_weyl(path) -> WeylMatrix:
    """Read a file written by save_weyl, grid width and symbol tag included."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            raise GridError(f"{path}: not a WEYL file (bad magic or short header)")
        _, version, n, h, half_width_L, tag_len = _HEADER.unpack(head)
        if version != _VERSION:
            raise GridError(f"{path}: unsupported WEYL header version {version}; "
                            f"this reader knows version {_VERSION}")
        if not 0 < h <= 1:
            raise GridError(f"{path}: header h = {h} is not in (0, 1]")
        tag = fh.read(tag_len)
        payload = fh.read()
    if len(payload) != 16 * n * n:
        raise GridError(f"{path}: header says N = {n}, which needs "
                        f"{16 * n * n} payload bytes, found {len(payload)}")
    data = np.frombuffer(payload, dtype="<c16").reshape(n, n)
    return WeylMatrix.from_entries(data, h, RealGrid(half_width_L, n),
                                   tag.decode("utf-8"))
