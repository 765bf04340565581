import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevspec.quantize import (GridError, RealGrid, ResolutionError, WeylMatrix,
                              assemble_weyl, compose_and_extract,
                              interior_window, inverse_weyl, load_weyl,
                              required_n_points, save_weyl)
from gevspec.symbols import ANALYTIC, GevreySymbol, model_from_tag


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


class TestRealGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            RealGrid(4.0, 100)
        with pytest.raises(GridError):
            RealGrid(4.0, 1)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(GridError):
            RealGrid(0.0, 64)

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


class TestInverseWeyl:
    def test_identity_inverts_to_one(self):
        P = assemble_weyl(ONE, RealGrid(4.0, 32), 0.2)
        c = inverse_weyl(P)
        assert np.abs(c - 1.0).max() < 1e-12

    def test_diagonal_inverts_to_position(self):
        g = RealGrid(4.0, 32)
        c = inverse_weyl(assemble_weyl(X_SYM, g, 0.2))
        assert np.abs(c - g.nodes[:, None]).max() < 1e-12

    def test_localized_symbol_round_trip(self):
        g = RealGrid(8.0, 256)
        h = 0.1
        P = assemble_weyl(BUMP, g, h)
        c = inverse_weyl(P)
        exact = BUMP.value(g.nodes[:, None], g.theta_nodes(h)[None, :])
        assert np.abs(c - exact).max() < 1e-8


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
