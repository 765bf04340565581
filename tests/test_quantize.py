import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gevspec import quantize
from gevspec.quantize import (GridError, RealGrid, ResolutionError, WeylMatrix,
                              assemble_weyl, compose_and_extract,
                              grid_for, interior_window, inverse_weyl,
                              load_weyl, required_n_points, save_weyl)
from gevspec.symbols import ANALYTIC, GevreySymbol, model_from_tag, smooth_step


def plain_symbol(f, name, xi_extent=4.0):
    """Wrap a value callable with a zero gradient stub for assembly tests."""
    def zeros(x, xi):
        return np.zeros(np.broadcast(x, xi).shape, dtype=complex)

    return GevreySymbol(
        value=f,
        grad=lambda x, xi: (zeros(x, xi), zeros(x, xi)),
        order_s=ANALYTIC, name=name, xi_extent=xi_extent)


ONE = plain_symbol(lambda x, xi: np.ones(np.broadcast(x, xi).shape,
                                         dtype=complex), "one", 0.0)
X_SYM = plain_symbol(lambda x, xi: x + 0j + 0.0 * xi, "x", 0.0)
XI_SYM = plain_symbol(lambda x, xi: xi + 0j + 0.0 * x, "xi", 3.9)
BUMP = plain_symbol(lambda x, xi: np.tanh(xi) * np.exp(-(x / 1.8) ** 4) + 0j,
                    "bump")
CATALOG = ("davies", "gevrey-transport:s=1.5", "gevrey-transport:s=2",
           "gevrey-transport:s=3", "analytic-transport", "trapped-toy")


class TestRealGrid:
    @pytest.mark.parametrize("n", [99, 127, 1, 0, -4])
    def test_rejects_odd_or_below_two(self, n):
        with pytest.raises(GridError, match="even and >= 2"):
            RealGrid(4.0, n)

    @pytest.mark.parametrize("n", [2, 96, 98, 100, 126])
    def test_accepts_any_even_size(self, n):
        # the circulant's roll by N/2 and inverse_weyl's half band need N
        # even; nothing needs a power of two
        assert RealGrid(4.0, n).nodes.shape == (n,)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(GridError):
            RealGrid(0.0, 64)

    @pytest.mark.parametrize("L", [np.inf, np.nan])
    def test_rejects_infinite_width(self, L):
        # an infinite or NaN width would give NaN nodes
        with pytest.raises(GridError, match="positive and finite"):
            RealGrid(L, 8)

    def test_spacing_and_nodes(self):
        g = RealGrid(4.0, 8)
        assert g.spacing == pytest.approx(1.0)
        assert np.allclose(g.nodes, np.arange(-4, 4))

    def test_dual_grid_product_rule(self):
        # dtheta * dx = 2 pi h / N for any admissible grid
        g = RealGrid(6.0, 128)
        h = 0.07
        th = g.theta_nodes(h)
        assert (th[1] - th[0]) * g.spacing == pytest.approx(
            2 * np.pi * h / g.n_points, rel=1e-12)
        assert th[0] == pytest.approx(-g.theta_max(h))

    def test_grid_for_takes_n_points_or_the_floored_rule(self):
        sym = model_from_tag("davies").symbol
        assert required_n_points(4.0, 1.0, sym.xi_extent) == 16
        assert grid_for(sym, 4.0, 1.0).n_points == quantize.MIN_N_POINTS
        assert grid_for(sym, 4.0, 0.01) == RealGrid(
            4.0, required_n_points(4.0, 0.01, sym.xi_extent))
        assert grid_for(sym, 4.0, 1.0, 100) == RealGrid(4.0, 100)
        with pytest.raises(GridError, match="even"):
            grid_for(sym, 4.0, 1.0, 101)

    def test_required_n_points_covers_extent(self):
        for L, h, ext in [(4.0, 0.1, 4.0), (8.0, 0.025, 4.0), (6.0, 0.2, 3.0)]:
            n = required_n_points(L, h, ext)
            assert RealGrid(L, n).theta_max(h) >= ext
            assert RealGrid(L, n // 2).theta_max(h) < ext

    @pytest.mark.parametrize("L, h", [(4.0, 0.0), (4.0, -0.1),
                                      (float("inf"), 0.1), (0.0, 0.1),
                                      (-4.0, 0.1), (float("nan"), 0.1)])
    def test_required_n_points_rejects_unreachable_rule(self, L, h):
        # no power of two covers the extent: the doubling would never end
        with pytest.raises(ValueError, match="grid rule"):
            required_n_points(L, h, 4.0)


class TestAssembly:
    def test_constant_symbol_is_exact_identity(self):
        P = assemble_weyl(ONE, RealGrid(4.0, 64), 0.1)
        assert np.array_equal(P.entries, np.eye(64, dtype=complex))

    def test_position_symbol_is_node_diagonal(self):
        g = RealGrid(4.0, 8)
        P = assemble_weyl(X_SYM, g, 0.2)
        assert np.abs(P.entries - np.diag(g.nodes)).max() == 0.0

    def test_momentum_symbol_plane_wave_eigenvectors(self):
        g = RealGrid(4.0, 64)
        h = 0.2
        P = assemble_weyl(XI_SYM, g, h)
        theta = g.theta_nodes(h)
        for m in (0, 10, 33, 63):
            v = np.exp(1j * g.nodes * theta[m] / h)
            assert np.abs(P.entries @ v - theta[m] * v).max() < 1e-12

    def test_momentum_only_symbol_is_circulant(self):
        E = assemble_weyl(XI_SYM, RealGrid(4.0, 64), 0.2).entries
        assert np.abs(np.roll(np.roll(E, 1, 0), 1, 1) - E).max() < 1e-8

    def test_real_symbol_hermitian(self):
        g = RealGrid(4.0, 128)
        real_bump = plain_symbol(
            lambda x, xi: np.cos(xi) * np.exp(-x ** 2) + 0j, "rb",
            xi_extent=2.5)
        P = assemble_weyl(real_bump, g, 0.05).entries
        assert np.abs(P - P.conj().T).max() <= 1e-10 * g.n_points

    def test_nyquist_error_names_required_size(self):
        with pytest.raises(ResolutionError, match="n_points >= 1024"):
            assemble_weyl(BUMP, RealGrid(8.0, 256), 0.025)

    def test_h_out_of_range(self):
        for h in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                assemble_weyl(ONE, RealGrid(4.0, 64), h)

    @pytest.mark.parametrize("tag", ["davies", "gevrey-transport:s=2",
                                     "analytic-transport"])
    @pytest.mark.parametrize("grid", [RealGrid(4.0, 128), RealGrid(8.0, 256)])
    def test_matches_index_gather_formula(self, tag, grid):
        # reference: P_jk = (-1)^(j-k) F[j + k, (j - k) mod N] gathered
        # through N x N index arrays
        h = 0.1
        sym = model_from_tag(tag).symbol
        n = grid.n_points
        mids = -grid.half_width_L + 0.5 * grid.spacing * np.arange(2 * n - 1)
        rows = np.broadcast_to(np.asarray(
            sym.value(mids[:, None], grid.theta_nodes(h)[None, :]),
            dtype=complex), (2 * n - 1, n))
        F = np.fft.ifft(rows, axis=1)
        j = np.arange(n)
        a = j[:, None] + j[None, :]
        d = j[:, None] - j[None, :]
        ref = F[a, d % n] * np.where(d % 2 == 0, 1.0, -1.0)
        assert np.array_equal(assemble_weyl(sym, grid, h).entries, ref)

    @pytest.mark.parametrize("sym", [
        plain_symbol(lambda x, xi: x * xi + 0j, "x*xi", 1.0),
        plain_symbol(lambda x, xi: (np.cos(xi) + 1j * np.sin(2 * xi))
                     * np.exp(-x ** 2), "complex-bump", 1.0)],
        ids=lambda s: s.name)
    @pytest.mark.parametrize("n", [8, 16, 30, 32])
    def test_general_assembly_matches_defining_sum(self, sym, n):
        # P_jk = (1/N) sum_m exp(i (x_j - x_k) theta_m / h)
        #        p((x_j + x_k)/2, theta_m), summed term by term
        grid, h = RealGrid(3.0, n), 0.5
        x = grid.nodes[:, None, None]
        y = grid.nodes[None, :, None]
        theta = grid.theta_nodes(h)
        ref = np.mean(np.exp(1j * (x - y) * theta / h)
                      * sym.value((x + y) / 2, theta), axis=2)
        P = assemble_weyl(sym, grid, h).entries
        assert np.abs(P - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("tag", ["davies", "gevrey-transport:s=2",
                                     "analytic-transport", "trapped-toy"])
    @pytest.mark.parametrize("L", [6.0, 8.0])
    def test_split_assembly_equals_midpoint_assembly(self, tag, L):
        # diag(a) + circulant against the general assembly, at the smallest
        # h of the sweep ladder h = 0.2 * 2^(-k/2) that each N resolves
        sym = model_from_tag(tag).symbol
        general = dataclasses.replace(sym, split=None)
        ladder = 0.2 * 2.0 ** (-np.arange(9) / 2.0)
        for n in (128, 256, 512, 1024, 2048):
            h = min(h for h in ladder
                    if required_n_points(L, h, sym.xi_extent) == n)
            grid = RealGrid(L, n)
            assert np.array_equal(assemble_weyl(sym, grid, h).entries,
                                  assemble_weyl(general, grid, h).entries)

    @pytest.mark.parametrize("n", [96, 98, 100, 126])
    def test_split_assembly_near_midpoint_assembly_at_even_n(self, n):
        # off the powers of two the FFTs of the two assemblies round
        # differently: the entries agree to a few ulp, not bit for bit
        sym = model_from_tag("gevrey-transport:s=2").symbol
        grid = RealGrid(6.0, n)
        split = assemble_weyl(sym, grid, 0.2).entries
        general = assemble_weyl(dataclasses.replace(sym, split=None), grid,
                                0.2).entries
        scale = np.abs(split).max()
        assert np.abs(split - general).max() <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("tag", CATALOG)
    def test_split_assembly_equals_sign_alternated_circulant(self, tag):
        # the entries built from roll(b, N/2) are bit for bit those of
        # C_jk = (-1)^(j-k) B[(j - k) mod N], B = ifft(b(theta_m)), on the
        # sweep's L = 6 grids
        sym = model_from_tag(tag).symbol
        for h in 0.2 * 2.0 ** (-np.arange(9) / 2.0):
            grid = grid_for(sym, 6.0, h)
            assert grid.n_points <= 2048
            B = np.fft.ifft(np.asarray(sym.split.b(grid.theta_nodes(h)),
                                       dtype=complex))
            B[1::2] *= -1.0
            ref = scipy.linalg.circulant(B)
            ref.flat[::grid.n_points + 1] += sym.split.a(grid.nodes)
            assert np.array_equal(assemble_weyl(sym, grid, h).entries, ref)

    def test_split_assembly_evaluates_value_on_n_points(self):
        # the general assembly evaluates p on the (2N - 1) x N midpoint
        # lattice; the split path only checks a + b against it on N points
        sym = model_from_tag("gevrey-transport:s=2").symbol
        sizes = []

        def counting(x, xi):
            sizes.append(np.broadcast(x, xi).size)
            return sym.value(x, xi)

        grid = RealGrid(6.0, 256)
        P = assemble_weyl(dataclasses.replace(sym, value=counting), grid, 0.1)
        assert sizes == [256]
        assert np.array_equal(P.entries, assemble_weyl(sym, grid, 0.1).entries)

    def test_split_disagreeing_with_value_rejected(self):
        sym = model_from_tag("gevrey-transport:s=2").symbol
        wrong = dataclasses.replace(sym,
                                    split=model_from_tag("davies").symbol.split)
        with pytest.raises(ValueError, match="does not reproduce its value"):
            assemble_weyl(wrong, RealGrid(6.0, 256), 0.1)

    @given(alpha_re=st.floats(-2, 2), alpha_im=st.floats(-2, 2),
           beta_re=st.floats(-2, 2))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_symbol(self, alpha_re, alpha_im, beta_re):
        g = RealGrid(4.0, 64)
        h = 0.2
        alpha = alpha_re + 1j * alpha_im
        combo = plain_symbol(
            lambda x, xi: alpha * X_SYM.value(x, xi) + beta_re * XI_SYM.value(x, xi),
            "combo", 3.9)
        A = assemble_weyl(X_SYM, g, h).entries
        B = assemble_weyl(XI_SYM, g, h).entries
        C = assemble_weyl(combo, g, h).entries
        assert np.abs(C - (alpha * A + beta_re * B)).max() < 1e-12


class TestWeylOperator:
    """P @ U: the quantization applied as an operator."""

    @pytest.mark.parametrize("tag", CATALOG)
    @pytest.mark.parametrize("n", [128, 2048])
    def test_matches_dense_product(self, tag, n, rng):
        # at the smallest h of the ladder h = 0.2 * 2^(-k/2) that N resolves
        sym = model_from_tag(tag).symbol
        grid = RealGrid(8.0, n)
        ladder = 0.2 * 2.0 ** (-np.arange(12) / 2.0)
        h = min(h for h in ladder
                if required_n_points(8.0, h, sym.xi_extent) <= n)
        P = assemble_weyl(sym, grid, h)
        M = P.entries
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = P @ u
        assert got.shape == (n,)
        bound = 1e-13 * np.abs(M).max() * np.abs(u).max()
        assert np.abs(got - M @ u).max() <= bound

    def test_holds_two_length_n_arrays(self):
        # build and apply read the same a(x_j) and roll(b(theta_m), N/2)
        sym = model_from_tag("gevrey-transport:s=2").symbol
        grid = RealGrid(8.0, 256)
        P = assemble_weyl(sym, grid, 0.1)
        a, b = P.build.args
        assert P.apply.args == (a, b)
        assert a.shape == b.shape == (256,)
        assert np.array_equal(a, sym.split.a(grid.nodes))
        assert np.array_equal(b, np.roll(sym.split.b(grid.theta_nodes(0.1)),
                                         128))

    def test_dense_matrix_applies_by_matmul(self, rng):
        P = assemble_weyl(BUMP, RealGrid(8.0, 128), 0.2)
        U = rng.standard_normal((128, 2)) + 0j
        assert np.array_equal(P @ U, P.entries @ U)


class TestInverseWeyl:
    def test_identity_inverts_to_one(self):
        P = assemble_weyl(ONE, RealGrid(4.0, 32), 0.2)
        c = inverse_weyl(P)
        assert np.abs(c - 1.0).max() < 1e-12

    def test_diagonal_inverts_to_position(self):
        g = RealGrid(4.0, 32)
        c = inverse_weyl(assemble_weyl(X_SYM, g, 0.2))
        assert np.abs(c - g.nodes[:, None]).max() < 1e-12

    @pytest.mark.parametrize("n", [226, 240, 250, 256])
    def test_localized_symbol_round_trip(self, n):
        # N/2 is odd at 226 and 250, where no offset of an even
        # anti-diagonal ties at |d| = N/2
        g = RealGrid(8.0, n)
        h = 0.1
        P = assemble_weyl(BUMP, g, h)
        c = inverse_weyl(P)
        exact = BUMP.value(g.nodes[:, None], g.theta_nodes(h)[None, :])
        assert np.abs(c - exact).max() < 1e-8


def brute_force_inverse_weyl(P: WeylMatrix, taper: bool) -> np.ndarray:
    """inverse_weyl from a scan of every entry: per anti-diagonal a = j + k
    and residue r = (d mod N) // 2 of d = j - k, keep the entry with the
    smallest |d|, the positive d on a tie."""
    n = P.n
    half = n // 2
    ds = np.arange(-n, n + 1)
    weight = np.ones(ds.shape)
    if taper:
        weight = 1.0 - smooth_step((np.abs(ds) / (n / 2.0) - 0.5) / 0.5)[0]
    M = P.entries  # each read builds the matrix again
    G = np.zeros((2 * n - 1, half), dtype=complex)
    kept = np.full(G.shape, n)  # |d| of the entry kept so far; n for none
    for j in range(n):
        for k in range(n):
            d = j - k
            a, r = j + k, d % n // 2
            if abs(d) < kept[a, r] or (abs(d) == kept[a, r] and d > 0):
                kept[a, r] = abs(d)
                G[a, r] = (-1.0) ** d * weight[d + n] * M[j, k]
    S = 2.0 * np.fft.fft(G[0::2], axis=1)
    D_half = np.zeros((n, half), dtype=complex)
    D_half[:-1] = (2.0 * np.exp(-2j * np.pi * np.arange(half) / n)
                   * np.fft.fft(G[1::2], axis=1))
    D = quantize._half_shift_to_nodes(D_half)
    return np.hstack([0.5 * (S + D), 0.5 * (S - D)])


class TestInverseWeylResidues:
    """Entries of one anti-diagonal whose offsets agree modulo N alias to
    one residue; the inverse reads the one nearest the diagonal."""

    def test_nearest_entry_and_positive_tie(self):
        n, p = 16, 8  # anti-diagonal a = 2p = 16: offsets d = -14 .. 14
        M = np.zeros((n, n), dtype=complex)
        entries = {2: 1.0, -14: 5.0,  # residue 1: d = 2 is nearer
                   8: 2.0, -8: 7.0,  # residue N/4 = 4: the tie, + wins
                   12: 9.0, -4: 3.0}  # residue 6: d = -4 is nearer
        for d, val in entries.items():
            M[p + d // 2, p - d // 2] = val
        c = inverse_weyl(WeylMatrix.from_entries(M, 0.1, RealGrid(4.0, n),
                                                 "residues"))
        # no odd anti-diagonal is set, so c[p, :N/2] is the FFT of the kept row
        kept = np.fft.ifft(c[p, :n // 2])
        expected = np.zeros(n // 2)
        expected[[1, 4, 6]] = [1.0, 2.0, 3.0]
        assert np.abs(kept - expected).max() < 1e-14
        assert np.abs(np.delete(c, p, axis=0)).max() == 0.0

    @pytest.mark.parametrize("taper", [False, True])
    @pytest.mark.parametrize("n", [16, 18, 30, 64, 256])
    def test_matches_brute_force_scan(self, n, taper):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        P = WeylMatrix.from_entries(M, 0.1, RealGrid(4.0, n), "random")
        assert np.array_equal(inverse_weyl(P, taper=taper),
                              brute_force_inverse_weyl(P, taper))

    def test_rejects_grids_below_the_stencil(self):
        P = WeylMatrix.from_entries(np.eye(8, dtype=complex), 0.1,
                                    RealGrid(4.0, 8), "eye")
        with pytest.raises(GridError, match="n_points >= 16"):
            inverse_weyl(P)


class TestComposition:
    def test_identity_factor_leaves_no_interior_remainder(self):
        g = RealGrid(8.0, 256)
        h = 0.1
        r = compose_and_extract(ONE, BUMP, g, h)
        w = interior_window(g, h)
        assert np.abs(r[w]).max() < 1e-5

    def test_remainder_field_bounded_in_h(self):
        g = RealGrid(8.0, 256)
        sups = []
        for h in (0.2, 0.1):
            r = compose_and_extract(BUMP, BUMP, g, h)
            sups.append(np.abs(r[interior_window(g, h)]).max())
        hi, lo = max(sups), min(sups)
        assert hi < 2.0 * lo

    def test_position_momentum_commutator_action(self):
        # [x^w, xi^w] = i h on states supported away from grid boundaries
        g = RealGrid(8.0, 256)
        h = 0.1
        A = assemble_weyl(X_SYM, g, h).entries
        B = assemble_weyl(XI_SYM, g, h).entries
        x = g.nodes
        u = np.exp(-x ** 2 / (2 * h)) * np.exp(1j * 0.5 * x / h)
        u = u / np.sqrt(g.spacing * np.vdot(u, u).real)
        lhs = (A @ B - B @ A) @ u
        assert np.abs(lhs - 1j * h * u).max() < 1e-10


class TestInteriorWindow:
    def test_window_shape_and_center(self):
        g = RealGrid(4.0, 64)
        w = interior_window(g, 0.1)
        assert w.shape == (64, 64)
        assert w[32, 32]
        assert not w[0, 0]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = RealGrid(8.0, 256)
        P = assemble_weyl(BUMP, g, 0.2)
        path = tmp_path / "op.weyl"
        save_weyl(path, P)
        Q = load_weyl(path)
        assert Q.h == P.h
        assert Q.grid == P.grid
        assert Q.symbol_tag == "bump"
        assert np.array_equal(Q.entries, P.entries)

    def test_save_streams_row_blocks(self, tmp_path):
        # the payload is the C-ordered entries, written without a second
        # N x N array beside the Fortran-ordered build
        P = assemble_weyl(model_from_tag("gevrey-transport:s=2").symbol,
                          RealGrid(4.0, 1024), 0.01)
        path = tmp_path / "big.weyl"
        tracemalloc.start()
        try:
            save_weyl(path, P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * P.n ** 2
        entries = P.entries
        raw = path.read_bytes()
        assert raw[-16 * P.n ** 2:] == entries.tobytes(order="C")
        assert np.array_equal(load_weyl(path).entries, entries)

    def test_odd_size_rejected(self, tmp_path):
        # a well-formed file whose N the grid rejects
        path = tmp_path / "odd.weyl"
        path.write_bytes(quantize._HEADER.pack(b"WEYL", 1, 7, 0.25, 4.0, 3)
                         + b"odd" + np.eye(7, dtype="<c16").tobytes())
        with pytest.raises(GridError, match="even and >= 2"):
            load_weyl(path)

    @pytest.mark.parametrize("h, L, match", [
        (-1.0, 4.0, r"h = -1\.0 is not in \(0, 1\]"),
        (np.nan, 4.0, r"h = nan is not in \(0, 1\]"),
        (5.0, 4.0, r"h = 5\.0 is not in \(0, 1\]"),
        (0.25, np.inf, "positive and finite"),
    ], ids=["h-negative", "h-nan", "h-above-1", "L-inf"])
    def test_bad_header_value_rejected(self, tmp_path, h, L, match):
        # h outside (0, 1] or an infinite L describes no grid of this program
        path = tmp_path / "bad.weyl"
        path.write_bytes(quantize._HEADER.pack(b"WEYL", 1, 8, h, L, 3)
                         + b"one" + np.eye(8, dtype="<c16").tobytes())
        with pytest.raises(GridError, match=match) as info:
            load_weyl(path)
        if not np.isinf(L):
            assert str(path) in str(info.value)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.weyl"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(GridError):
            load_weyl(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "cut.weyl"
        save_weyl(path, assemble_weyl(ONE, RealGrid(4.0, 8), 0.25))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(GridError, match="payload"):
            load_weyl(path)

    def test_unversioned_file_rejected(self, tmp_path):
        # the 16-byte header of files that did not store L or the tag
        path = tmp_path / "old.weyl"
        path.write_bytes(b"WEYL" + struct.pack("<Id", 8, 0.25)
                         + np.eye(8, dtype="<c16").tobytes())
        with pytest.raises(GridError, match="version 8"):
            load_weyl(path)

    def test_header_layout(self, tmp_path):
        g = RealGrid(4.0, 8)
        P = assemble_weyl(ONE, g, 0.25)
        path = tmp_path / "id.weyl"
        save_weyl(path, P)
        raw = path.read_bytes()
        assert raw[:4] == b"WEYL"
        assert int.from_bytes(raw[4:8], "little") == 1  # format version
        assert int.from_bytes(raw[8:12], "little") == 8
        assert np.frombuffer(raw[12:20], dtype="<d")[0] == 0.25
        assert np.frombuffer(raw[20:28], dtype="<d")[0] == 4.0
        assert int.from_bytes(raw[28:32], "little") == 3
        assert raw[32:35] == b"one"
        assert len(raw) == 35 + 8 * 8 * 16
