"""Dense discretization of the semiclassical Weyl quantization on a real grid.

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
one length-N FFT and a circulant. Symbols without a split take the general
midpoint assembly, one FFT per anti-diagonal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .symbols import GevreySymbol

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
        if n < 2 or (n & (n - 1)) != 0:
            raise GridError(f"n_points must be a power of two >= 2, got {n}")
        if not self.half_width_L > 0:
            raise GridError(f"half_width_L must be positive, got {self.half_width_L}")

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
class WeylMatrix:
    entries: np.ndarray
    h: float
    grid: RealGrid
    symbol_tag: str

    @property
    def n(self) -> int:
        return self.grid.n_points

    @cached_property
    def schur(self):
        """Complex Schur form (T, Z) with entries = Z T Z*, T upper
        triangular and Z unitary; computed on first use and kept."""
        return scipy.linalg.schur(self.entries, output="complex")

    @cached_property
    def frobenius_norm(self) -> float:
        """||entries||_F; computed on first use and kept."""
        return scipy.linalg.norm(self.entries, check_finite=False)


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


def rule_n_points(sym: GevreySymbol, half_width_L: float, h: float) -> int:
    """The grid rule: the smallest power-of-two N >= MIN_N_POINTS whose
    dual Nyquist frequency covers the symbol's xi_extent."""
    return max(required_n_points(half_width_L, h, sym.xi_extent), MIN_N_POINTS)


def assemble_weyl(sym: GevreySymbol, grid: RealGrid, h: float) -> WeylMatrix:
    """Assemble the dense Weyl matrix of a symbol at semiclassical parameter h.

    A symbol with an additive split is assembled as diagonal plus circulant;
    the result equals the general midpoint assembly entry for entry.
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
    if sym.split is not None:
        P = _circulant_weyl(sym, grid, theta)
    else:
        P = _midpoint_weyl(sym, grid, theta)
    return WeylMatrix(P, h, grid, sym.name)


def _circulant_weyl(sym: GevreySymbol, grid: RealGrid,
                    theta: np.ndarray) -> np.ndarray:
    """diag(a(x_j)) + C with C_jk = (-1)^(j-k) B[(j - k) mod N] and
    B = ifft(b(theta_m)); N is even, so (j - k) mod N has the parity of
    j - k. The split is first checked against value on the N pairs
    (x_j, theta_j), so the matrix is the quantization of the same symbol
    that every other reader of value sees."""
    n = grid.n_points
    x = grid.nodes
    a = sym.split.a(x)
    b = sym.split.b(theta)
    mismatch = sym.value(x, theta) != a + b
    if np.any(mismatch):
        k = int(np.argmax(mismatch))
        raise ValueError(
            f"additive split of {sym.name!r} does not reproduce its value at "
            f"(x, xi) = ({x[k]:.6g}, {theta[k]:.6g})")
    B = np.fft.ifft(np.asarray(b, dtype=complex))
    B[1::2] *= -1.0
    P = scipy.linalg.circulant(B)
    P.flat[::n + 1] += a
    return P


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
    for j in range(n - 1):
        P[j, j + 1:] = upper[j, j + 1:]
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
    out = np.zeros_like(v)
    base = np.arange(-4, 4)  # sample p + base sits at offset base + 1/2
    for p in range(n):
        idx = p + base
        shift = 0
        if idx[0] < 0:
            shift = -idx[0]
        elif idx[-1] > n - 2:  # row n-1 is padding, not data
            shift = (n - 2) - idx[-1]
        idx = idx + shift
        w = _lagrange_half_weights(base + shift + 0.5)
        out[p] = w @ v[idx]
    return out


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
    M = P.entries
    S = np.zeros((n, n), dtype=complex)  # c(theta) + c(theta + Theta), at nodes
    D_half = np.zeros((n, half), dtype=complex)  # differences, at half-shifted midpoints

    from .symbols import smooth_step

    def weight(d):
        if not taper:
            return np.ones_like(d, dtype=float)
        u = np.abs(d) / (n / 2.0)
        return 1.0 - smooth_step((u - 0.5) / 0.5)

    mu = np.arange(half)
    for p in range(n):
        # even anti-diagonal a = 2p: midpoint x_p, differences d = 2r
        a = 2 * p
        j0, j1 = max(0, a - n + 1), min(n - 1, a)
        jj = np.arange(j0, j1 + 1)
        G = np.zeros(half, dtype=complex)
        res = (jj - p) % half
        # duplicate residues: keep the entry nearest the diagonal, where the
        # kernel of a smooth symbol is concentrated
        order = np.argsort(-np.abs(jj - p), kind="stable")
        G[res[order]] = (M[jj, a - jj] * weight(2 * (jj - p)))[order]
        S_row = 2.0 * np.fft.fft(G)
        S[p] = np.concatenate([S_row, S_row])
        # odd anti-diagonal a = 2p + 1: midpoint x_{p+1/2}, differences d = 2r - 1
        a = 2 * p + 1
        if a <= 2 * n - 2:
            j0, j1 = max(0, a - n + 1), min(n - 1, a)
            jj = np.arange(j0, j1 + 1)
            d = 2 * jj - a
            H = np.zeros(half, dtype=complex)
            res = ((d % n) - 1) // 2
            order = np.argsort(-np.abs(d), kind="stable")
            H[res[order]] = (-M[jj, a - jj] * weight(d))[order]
            D_half[p] = 2.0 * np.exp(-2j * np.pi * mu / n) * np.fft.fft(H)

    D = _half_shift_to_nodes(D_half)
    c = np.empty((n, n), dtype=complex)
    c[:, :half] = 0.5 * (S[:, :half] + D)
    c[:, half:] = 0.5 * (S[:, half:] - D)
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
    prod = WeylMatrix(A.entries @ B.entries, h, grid, f"{a.name}#{b.name}")
    c = inverse_weyl(prod, taper=True)
    x = grid.nodes[:, None]
    theta = grid.theta_nodes(h)[None, :]
    ab = np.asarray(a.value(x, theta), dtype=complex) * np.asarray(b.value(x, theta), dtype=complex)
    return (c - ab) / h


def save_weyl(path, P: WeylMatrix) -> None:
    """Flat binary export: a versioned header (magic, version, N, h, L, tag
    length, then the UTF-8 symbol tag) followed by row-major complex128."""
    tag = P.symbol_tag.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, P.n, P.h,
                              P.grid.half_width_L, len(tag)))
        fh.write(tag)
        fh.write(np.ascontiguousarray(P.entries, dtype="<c16").tobytes())


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
        tag = fh.read(tag_len)
        payload = fh.read()
    if len(payload) != 16 * n * n:
        raise GridError(f"{path}: header says N = {n}, which needs "
                        f"{16 * n * n} payload bytes, found {len(payload)}")
    data = np.frombuffer(payload, dtype="<c16").reshape(n, n)
    return WeylMatrix(data.astype(complex), h, RealGrid(half_width_L, n),
                      tag.decode("utf-8"))
