import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gevspec
from gevspec import experiments, fbi
from gevspec.fbi import (FBIOperator, GridExtentError,
                         apply_conjugated, default_cgrid, gaussian_state,
                         make_fbi, toeplitz_residual, toeplitz_residuals,
                         weight_phi_t)
from gevspec.quantize import RealGrid, WeylMatrix, ZGrid, assemble_weyl
from gevspec.symbols import (ANALYTIC, ZERO, ModelInstance, additive_symbol,
                             make_davies)
from conftest import fbi_grid
from test_quantize import plain_symbol

STATES = [(0.0, 0.0, 0), (0.5, 0.3, 0), (-0.4, -0.2, 1), (0.2, 0.1, 2),
          (-0.1, 0.4, 3)]
# criterion 05's ladder continued to h = 0.00039 (tests/test_acceptance.py)
DEEP_LADDER = tuple(0.2 * 2.0 ** (-k / 2) for k in range(19))


def operator_for(h):
    return make_fbi(fbi_grid(h), default_cgrid(h), h)


@pytest.fixture(scope="module")
def op_h01():
    return operator_for(0.1)


@pytest.fixture(scope="module")
def op_h005():
    return operator_for(0.05)


@pytest.fixture(scope="module")
def probe_h01(gevrey2):
    """toeplitz_sweep's (operator, u, v) at h = 0.1."""
    return experiments.toeplitz_probe(gevrey2, 0.1)


class TestUnitarity:
    @pytest.mark.parametrize("h_key", ["op_h01", "op_h005"])
    def test_isometry_on_interior_states(self, h_key, request):
        op = request.getfixturevalue(h_key)
        for x0, xi0, herm in STATES:
            u = gaussian_state(op.real_grid, op.h, x0, xi0, herm)
            assert op.unitarity_defect(u) <= 1e-6

    def test_calibration_on_standard_gaussian(self, op_h01):
        u = gaussian_state(op_h01.real_grid, op_h01.h)
        U = op_h01.apply(u)
        assert op_h01.norm_phi(U) == pytest.approx(op_h01.real_norm(u),
                                                   rel=1e-8)

    def test_decay_precondition_raises(self):
        # grid edge too close to the complex window for the kernel tail
        with pytest.raises(GridExtentError, match="half_width_L"):
            make_fbi(RealGrid(4.0, 128), default_cgrid(0.2), 0.2)

    def test_probe_grid_builds_at_small_h(self, gevrey2):
        # toeplitz_sweep's probe at h = 0.003, where e^{(Im x)^2 / 2h} =
        # e^{807} is not a float: only the weighted factor, of modulus 1,
        # is formed
        h = 0.003
        op, packet, _ = experiments.toeplitz_probe(gevrey2, h)
        u = gaussian_state(op.real_grid, h)
        assert op.norm_phi(op.apply(u)) == pytest.approx(op.real_norm(u),
                                                         rel=1e-8)
        assert op.unitarity_defect(packet) <= 1e-6

    def test_non_finite_calibration_raises(self, monkeypatch):
        monkeypatch.setattr(FBIOperator, "norm_phi",
                            lambda self, U, excess=0.0: float("nan"))
        with pytest.raises(GridExtentError, match="calibration norm nan"):
            make_fbi(RealGrid(8.0, 256), default_cgrid(0.1), 0.1)


class TestLattice:
    def test_one_lattice_type(self):
        assert gevspec.ZGrid is ZGrid
        assert gevspec.spectral.ZGrid is ZGrid
        assert isinstance(default_cgrid(0.1), ZGrid)

    @pytest.mark.parametrize("h", DEEP_LADDER)
    def test_probe_lattice_axes_and_cell_area(self, h):
        # the lattice of toeplitz_probe: centred at 0, so its axes are the
        # bare linspace, bit for bit
        cg = default_cgrid(h, 1.5, 2.2, 3.0)
        assert cg.center == 0j
        assert cg.re_axis.tobytes() \
            == np.linspace(-1.5, 1.5, cg.re_n).tobytes()
        assert cg.im_axis.tobytes() \
            == np.linspace(-2.2, 2.2, cg.im_n).tobytes()
        assert cg.cell_area \
            == (2 * 1.5 / (cg.re_n - 1)) * (2 * 2.2 / (cg.im_n - 1))

    def test_operator_nodes_j_major_and_cached(self, op_h01):
        cg = op_h01.cgrid
        A, B = np.meshgrid(cg.re_axis, cg.im_axis, indexing="ij")
        assert op_h01.nodes.tobytes() == (A + 1j * B).ravel().tobytes()
        assert op_h01.nodes is op_h01.nodes

    def test_residuals_build_nodes_once(self, gevrey2, escape_gevrey2,
                                        monkeypatch):
        # a fresh operator: both t read the one node vector it builds
        op, u, v = experiments.toeplitz_probe(gevrey2, 0.1)
        built = []
        real = ZGrid.nodes

        def counting(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(ZGrid, "nodes", counting)
        res = toeplitz_residuals(gevrey2, op, escape_gevrey2,
                                 (0.0, -0.0316), u, v)
        assert built == [op.cgrid]
        assert all(np.isfinite(res))


def dense_kernel(op):
    """The M x N weighted kernel e^{-Phi_0 / h} K from its closed form,
    calibrated as make_fbi is."""
    x = op.nodes
    y = op.real_grid.nodes
    phi0 = 0.5 * np.imag(x) ** 2
    K = (op.h ** -0.75 * op.real_grid.spacing
         * np.exp(-(phi0[:, None] + 0.5 * (x[:, None] - y[None, :]) ** 2)
                  / op.h))
    u0 = gaussian_state(op.real_grid, op.h)
    return K / op.norm_phi(K @ u0)


def phi_rel(got, ref):
    """Relative error in the Phi_0-weighted norm, column by column; on the
    weighted transform that weight is the constant cell area."""
    err = np.linalg.norm(got - ref, axis=0)
    return (err / np.linalg.norm(ref, axis=0)).max()


def rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


class TestFactoredKernel:
    @pytest.fixture(scope="class")
    def dense(self, op_h01):
        return dense_kernel(op_h01)

    @pytest.fixture(scope="class")
    def states(self, op_h01):
        rng = np.random.default_rng(5)
        n = op_h01.real_grid.n_points
        cols = [gaussian_state(op_h01.real_grid, op_h01.h, x0, xi0, herm)
                for x0, xi0, herm in STATES]
        cols.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        return np.stack(cols, axis=1)

    def test_shape(self, op_h01):
        assert op_h01.matrix.shape == (op_h01.cgrid.re_n * op_h01.cgrid.im_n,
                                       op_h01.real_grid.n_points)

    def test_apply_matches_dense(self, op_h01, dense, states):
        got = np.stack([op_h01.apply(u) for u in states.T], axis=1)
        assert phi_rel(got, dense @ states) < 1e-12

    def test_adjoint_matches_dense(self, op_h01, dense, states):
        # T* pairs with Phi_0-weighted data: V = w T u
        w = op_h01.weights_phi()
        for u in states.T:
            V = w * (dense @ u)
            assert rel(op_h01.matrix.adjoint_matmul(V),
                       dense.conj().T @ V) < 1e-12

    def test_adjoint_pairing(self, op_h01, states):
        K = op_h01.matrix
        w = op_h01.weights_phi()
        for u, v in zip(states.T, states.T[::-1]):
            V = w * (K @ v)
            lhs = np.vdot(V, K @ u)
            rhs = np.vdot(K.adjoint_matmul(V), u)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def window_count(op):
    """Real-grid columns within sqrt(2 h DECAY_LOG) of the complex window."""
    reach = op.cgrid.re_span + np.sqrt(2.0 * op.h * fbi.DECAY_LOG)
    return int(np.count_nonzero(np.abs(op.real_grid.nodes) <= reach))


def row_columns(op):
    """(re_n, K) real-grid columns of each row's window, s_j + m."""
    K = op.matrix
    return K.starts[:, None] + np.arange(K.G.shape[1])


def windowed_dense(op):
    """The M x N kernel from its closed form on each row's K columns from
    s_j and zero off them, calibrated as make_fbi is."""
    x = op.nodes
    y = op.real_grid.nodes
    on = np.zeros((op.cgrid.re_n, y.size), dtype=bool)
    on[np.arange(op.cgrid.re_n)[:, None], row_columns(op)] = True
    on = np.repeat(on, op.cgrid.im_n, axis=0)  # rows are j-major
    phi0 = 0.5 * np.imag(x) ** 2
    D = np.where(on, op.h ** -0.75 * op.real_grid.spacing * np.exp(
        -(phi0[:, None] + 0.5 * (x[:, None] - y[None, :]) ** 2) / op.h), 0.0)
    return D / op.norm_phi(D @ gaussian_state(op.real_grid, op.h))


def narrow_operator():
    # re_span 1 on L = 8 at h = 0.1: the rows' windows cover 42% of the
    # columns; 1.5 cells per width keeps the dense M x N array small
    h = 0.1
    op = make_fbi(fbi_grid(h), default_cgrid(h, re_span=1.0,
                                             cells_per_width=1.5), h)
    assert 2 * window_count(op) < op.real_grid.n_points
    return op


def edge_operator():
    # the kernel's reach lies between the last node L - dx and L: the
    # window check passes, and the last rows' tails leave the grid's nodes
    h = 0.2
    cgrid = default_cgrid(h, cells_per_width=1.5)
    reach = cgrid.re_span + np.sqrt(2.0 * h * fbi.DECAY_LOG)
    grid = RealGrid(reach + 1e-3, 128)
    assert grid.nodes[-1] < reach <= grid.half_width_L
    return make_fbi(grid, cgrid, h)


class TestKernelWindow:
    @pytest.fixture(scope="class", params=["narrow", "edge"])
    def probe(self, request):
        return {"narrow": narrow_operator, "edge": edge_operator}[
            request.param]()

    @pytest.mark.parametrize("h, share", [(0.0125, 0.5), (0.0015625, 0.25)])
    def test_probe_kernel_stored_on_window(self, gevrey2, h, share):
        # each row keeps the K columns within the tail of its a_j, a
        # share of the window W = {|y| <= re_span + tail} that falls with h
        op = experiments.toeplitz_probe(gevrey2, h)[0]
        K = op.matrix
        n = op.real_grid.n_points
        re_n, im_n = op.cgrid.re_n, op.cgrid.im_n
        assert K.shape == (re_n * im_n, n)
        width = K.G.shape[1]
        assert K.G.shape == (re_n, width)
        assert K.E.shape == (im_n, width)
        assert K.starts.shape == (re_n,)
        assert width < share * window_count(op)
        y = op.real_grid.nodes
        tail = np.sqrt(2.0 * h * fbi.DECAY_LOG)
        near = np.abs(op.cgrid.re_axis[:, None] - y[None, :]) <= tail
        cols = row_columns(op)
        for j in range(re_n):
            assert np.array_equal(np.flatnonzero(near[j]),
                                  cols[j][near[j][cols[j]]])

    def test_rows_stay_on_grid(self, probe):
        # every row's K columns are grid columns, and they hold every
        # node within the tail of a_j: the last rows of the edge grid
        # start early rather than run past the last node
        cols = row_columns(probe)
        assert cols.min() >= 0 and cols.max() < probe.real_grid.n_points
        y = probe.real_grid.nodes
        tail = np.sqrt(2.0 * probe.h * fbi.DECAY_LOG)
        for a, row in zip(probe.cgrid.re_axis, cols):
            need = np.flatnonzero(np.abs(y - a) <= tail)
            assert need[0] >= row[0] and need[-1] <= row[-1]

    def test_apply_matches_windowed_dense(self, probe):
        # the factors, the strided windows of u and the scatter by s_j
        # against the closed form on the same columns, built column by
        # column from the unit vectors
        D = windowed_dense(probe)
        K = probe.matrix
        top = np.abs(D).max()
        m, n = K.shape
        assert np.abs(np.stack([K @ e for e in np.eye(n)], axis=1)
                      - D).max() <= 1e-13 * top
        assert np.abs(np.stack([K.adjoint_matmul(e) for e in np.eye(m)],
                               axis=1) - D.conj().T).max() <= 1e-13 * top
        rng = np.random.default_rng(13)
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        V = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(
            K.shape[0])
        assert (np.abs(K @ u - D @ u).max()
                <= 1e-13 * top * np.abs(u).sum())
        assert (np.abs(K.adjoint_matmul(V) - D.conj().T @ V).max()
                <= 1e-13 * top * np.abs(V).sum())

    def test_adjoint_pairing(self, probe):
        # <K u, V> = <u, K* V> for three vector pairs
        K = probe.matrix
        rng = np.random.default_rng(17)
        for _ in range(3):
            u = rng.standard_normal(K.shape[1]) + 1j * rng.standard_normal(
                K.shape[1])
            V = rng.standard_normal(K.shape[0]) + 1j * rng.standard_normal(
                K.shape[0])
            Ku = K @ u
            scale = np.linalg.norm(Ku) * np.linalg.norm(V)
            assert abs(np.vdot(V, Ku) - np.vdot(K.adjoint_matmul(V), u)) \
                <= 1e-13 * scale

    def test_adjoint_zero_off_window(self, probe):
        K = probe.matrix
        rng = np.random.default_rng(7)
        off = np.ones(K.shape[1], dtype=bool)
        off[row_columns(probe).ravel()] = False
        for _ in range(2):
            V = (rng.standard_normal(K.shape[0])
                 + 1j * rng.standard_normal(K.shape[0]))
            assert np.all(K.adjoint_matmul(V)[off] == 0)

    def test_apply_and_adjoint_match_dense(self):
        narrow = narrow_operator()
        dense = dense_kernel(narrow)
        rng = np.random.default_rng(11)
        n = narrow.real_grid.n_points
        states = np.stack(
            [gaussian_state(narrow.real_grid, narrow.h, x0, xi0, herm)
             for x0, xi0, herm in STATES]
            + [rng.standard_normal(n) + 1j * rng.standard_normal(n)], axis=1)
        got = np.stack([narrow.apply(u) for u in states.T], axis=1)
        assert phi_rel(got, dense @ states) < 1e-12
        V = narrow.weights_phi() * (dense @ states)
        for v in V.T:
            assert rel(narrow.matrix.adjoint_matmul(v),
                       dense.conj().T @ v) < 1e-12

    def test_window_leaving_grid_raises(self):
        h = 0.2
        cgrid = default_cgrid(h)
        reach = cgrid.re_span + np.sqrt(2.0 * h * fbi.DECAY_LOG)
        with pytest.raises(GridExtentError, match="half_width_L"):
            make_fbi(RealGrid(reach - 1e-3, 128), cgrid, h)
        op = make_fbi(RealGrid(reach + 1e-3, 128), cgrid, h)
        assert row_columns(op).max() == op.real_grid.n_points - 1
        # a complex window wider than the real grid leaves it at any h
        with pytest.raises(GridExtentError, match="half_width_L"):
            make_fbi(RealGrid(2.0, 128), default_cgrid(0.01), 0.01)


class TestWeights:
    def test_base_weight_has_no_excess(self, op_h01):
        # the base weight is Phi_0 exactly: its excess is zero
        excess, xi = weight_phi_t(None, 0.0, op_h01)
        b = np.imag(op_h01.nodes)
        assert np.array_equal(excess, np.zeros(b.shape))
        assert np.array_equal(xi, -b.astype(complex))

    def test_deformed_weight_needs_escape_function(self, gevrey2, probe_h01):
        # without an escape function a nonzero t has nothing to deform by;
        # it must not fall back to the flat weight
        op, u, _ = probe_h01
        with pytest.raises(ValueError, match="escape function"):
            weight_phi_t(None, -0.01, op)
        with pytest.raises(ValueError, match="escape function"):
            toeplitz_residual(gevrey2, op, None, -0.0316, u, u)

    def test_deformed_weight_reads_fields_on(self, escape_gevrey2, op_h01):
        # Phi_t - Phi_0 = t G and xi_t = -Im x + t (G_xi - i G_x) at
        # (Re x, -Im x), with G and its gradient from the escape field on
        # the lattice of the axes a_j and -b_k, raveled j-major: node n
        # is a_j + i b_k with j, k = divmod(n, im_n)
        t = -0.0316
        excess, xi = weight_phi_t(escape_gevrey2, t, op_h01)
        x = op_h01.nodes
        a, b = np.real(x), np.imag(x)
        cg = op_h01.cgrid
        j, k = np.divmod(np.arange(x.size), cg.im_n)
        assert np.array_equal(a, cg.re_axis[j])
        assert np.array_equal(b, cg.im_axis[k])
        on = escape_gevrey2.fields_on(cg.re_axis, -cg.im_axis)
        g, gx, gxi = (f[j, k] for f in on)
        assert np.array_equal(excess, t * g)
        assert np.array_equal(xi, -b.astype(complex) + t * gxi - 1j * t * gx)

    def test_deformation_bounded_by_sup_g(self, escape_gevrey2, op_h01):
        t = -0.1 * np.sqrt(op_h01.h)
        excess, _ = weight_phi_t(escape_gevrey2, t, op_h01)
        assert np.abs(excess).max() <= abs(t) * escape_gevrey2.sup_G + 1e-12

    def test_deformation_gradient_small(self, escape_gevrey2, op_h01):
        # the weight correction has lattice gradient bounded by |t| sup|grad G|
        t = -0.1 * np.sqrt(op_h01.h)
        excess, _ = weight_phi_t(escape_gevrey2, t, op_h01)
        cg = op_h01.cgrid
        corr = excess.reshape(cg.re_n, cg.im_n)
        da = cg.re_axis[1] - cg.re_axis[0]
        db = cg.im_axis[1] - cg.im_axis[0]
        ga, gb = np.gradient(corr, da, db)
        import gevspec.geometry as geometry
        gx, gxi = geometry._lattice_gradient(escape_gevrey2.G_values,
                                             escape_gevrey2.x_axis,
                                             escape_gevrey2.xi_axis)
        sup_grad = float(np.hypot(gx, gxi).max())
        bound = abs(t) * sup_grad
        assert max(np.abs(ga).max(), np.abs(gb).max()) <= bound * 1.1 + 1e-9


class TestEgorov:
    def test_projector_reproduces_range(self, op_h01):
        n = op_h01.real_grid.n_points
        identity = WeylMatrix.from_entries(np.eye(n, dtype=complex),
                                           op_h01.h, op_h01.real_grid, "one")
        u = gaussian_state(op_h01.real_grid, op_h01.h, 0.3, 0.2)
        U = op_h01.apply(u)
        PU = apply_conjugated(identity, op_h01, U)
        assert op_h01.norm_phi(PU - U) <= 1e-6 * op_h01.norm_phi(U)

    def test_real_symbol_conjugates_to_weighted_hermitian(self):
        h = 0.1
        grid = RealGrid(8.0, 256)
        real_bump = plain_symbol(
            lambda x, xi: np.cos(xi) * np.exp(-x ** 2) + 0j, "rb",
            xi_extent=2.5)
        P = assemble_weyl(real_bump, grid, h)
        op = make_fbi(grid, default_cgrid(h, re_span=2.0, im_span=2.0,
                                          cells_per_width=2.0), h)
        M = np.stack([apply_conjugated(P, op, e)
                      for e in np.eye(op.matrix.shape[0])], axis=1)
        WM = op.weights_phi() * M
        defect = np.abs(WM - WM.conj().T).max() / np.abs(WM).max()
        assert defect < 1e-8

    def test_davies_mode_eigenvalue_preserved(self, op_h01):
        model = make_davies()
        P = assemble_weyl(model.symbol, op_h01.real_grid, op_h01.h)
        vals, vecs = scipy.linalg.eig(P.entries)
        target = np.exp(1j * np.pi / 4) * op_h01.h
        k = int(np.argmin(np.abs(vals - target)))
        U = op_h01.apply(vecs[:, k])
        AU = apply_conjugated(P, op_h01, U)
        rayleigh = op_h01.inner_phi(AU, U) / op_h01.inner_phi(U, U)
        assert abs(rayleigh - vals[k]) < 1e-6


class TestToeplitz:
    def test_identity_symbol_residual(self, op_h01):
        # the constant 1 as an additive symbol: its derivatives vanish
        unit_part = replace(ZERO, f=lambda t: np.ones(np.shape(t)))
        one = additive_symbol(unit_part, ZERO, order_s=ANALYTIC,
                              zero_set_hint=None, name="one")
        model = ModelInstance(replace(one, xi_extent=0.0), 0j)
        u = gaussian_state(op_h01.real_grid, op_h01.h, 0.2, 0.1)
        v = gaussian_state(op_h01.real_grid, op_h01.h, -0.1, 0.3)
        assert toeplitz_residual(model, op_h01, None, 0.0, u, v) < 1e-6

    def test_disjoint_states_both_sides_negligible(self, gevrey2, op_h005):
        op = op_h005
        u = gaussian_state(op.real_grid, op.h, -2.5, 0.0)
        v = gaussian_state(op.real_grid, op.h, 2.5, 0.0)
        from gevspec.fbi import _symbol_on_section
        P = assemble_weyl(gevrey2.symbol, op.real_grid, op.h)
        excess, xi = weight_phi_t(None, 0.0, op)
        U, V = op.apply(u), op.apply(v)
        lhs = op.inner_phi(apply_conjugated(P, op, U), V, excess)
        field = _symbol_on_section(gevrey2, op.nodes, xi)
        rhs = op.inner_phi(field * U, V, excess)
        assert abs(lhs) < 1e-8
        assert abs(rhs) < 1e-8

    def test_residual_shrinks_with_h(self, gevrey2):
        res = {}
        for h in (0.2, 0.05):
            op, u, v = experiments.toeplitz_probe(gevrey2, h)
            res[h] = toeplitz_residual(gevrey2, op, None, 0.0, u, v)
        assert res[0.05] < 0.5 * res[0.2]

    def test_residuals_equal_single_t_residuals(self, gevrey2, escape_gevrey2,
                                                probe_h01):
        # P, U, V and (T P T*) U are formed once for all t; each residual
        # is the one a call at that t alone gives, bit for bit
        op, u, v = probe_h01
        ts = (0.0, -0.0316, -0.0158)
        got = toeplitz_residuals(gevrey2, op, escape_gevrey2, ts, u, v)
        assert got == [toeplitz_residual(gevrey2, op, escape_gevrey2, t,
                                         u, v) for t in ts]

    def test_residuals_never_assemble_dense_p(self, gevrey2, escape_gevrey2,
                                              probe_h01, monkeypatch):
        # P is assembled once and applied by P @ U; its dense entries are
        # never built
        def unreachable():
            raise AssertionError("dense Weyl matrix built")

        real = fbi.assemble_weyl
        built = []

        def without_build(sym, grid, h):
            built.append(grid.n_points)
            return replace(real(sym, grid, h), build=unreachable)

        monkeypatch.setattr(fbi, "assemble_weyl", without_build)
        op, u, v = probe_h01
        res = toeplitz_residuals(gevrey2, op, escape_gevrey2,
                                 (0.0, -0.0316), u, v)
        assert built == [op.real_grid.n_points]
        assert all(np.isfinite(res))

    def test_symbol_without_split_raises(self, gevrey2, probe_h01,
                                         monkeypatch):
        # the symbol on the section is the split's Taylor extension; without
        # a split, P would take the midpoint assembly's two (2N - 1) x N
        # arrays, so the split is checked before P is assembled
        def unreachable(sym, grid, h):
            raise AssertionError("P assembled before the split check")

        monkeypatch.setattr(fbi, "assemble_weyl", unreachable)
        model = ModelInstance(replace(gevrey2.symbol, split=None), gevrey2.z0)
        op, u, _ = probe_h01
        with pytest.raises(ValueError, match="has no additive split"):
            toeplitz_residuals(model, op, None, (0.0,), u, u)

    @pytest.mark.parametrize("h, n", [(0.025, 1024), (0.0015625, 16384)])
    def test_residual_independent_of_blas_threads(self, h, n):
        # toeplitz_sweep's probe at h, both t, at the ladder's top and
        # deep end, in one child per thread count; the count is set in
        # the child's environment only
        child = (
            "import sys\n"
            "from gevspec import experiments, fbi, geometry\n"
            "from gevspec.symbols import make_gevrey_transport\n"
            "model = make_gevrey_transport(2.0)\n"
            "h, n = float(sys.argv[1]), int(sys.argv[2])\n"
            "op, u, v = experiments.toeplitz_probe(model, h)\n"
            "assert op.real_grid.n_points == n\n"
            "ts = (0.0, experiments.deformation_size(model, h))\n"
            "print(*map(repr, fbi.toeplitz_residuals(\n"
            "    model, op, geometry.build_escape(model), ts, u, v)))\n")
        src = str(Path(gevspec.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src, os.environ.get("PYTHONPATH", "")]))
            out = subprocess.run(
                [sys.executable, "-c", child, repr(h), str(n)], env=env,
                capture_output=True, text=True, check=True)
            runs.append(np.array(out.stdout.split(), dtype=float))
        one, two = runs
        assert one.shape == (2,)
        assert np.all(np.isfinite(one) & (one > 0))
        assert np.all(np.abs(two - one) <= 1e-10 * one)

    def test_warm_call_memory_below_dense_p(self, gevrey2, escape_gevrey2):
        # toeplitz_sweep's probe at h = 0.0125 has N = 2048, where a
        # dense P alone takes N^2 * 16 bytes = 64 MB
        h = 0.0125
        op, u, v = experiments.toeplitz_probe(gevrey2, h)
        assert op.real_grid.n_points == 2048
        ts = (0.0, -0.1 * h ** 0.5)
        first = toeplitz_residuals(gevrey2, op, escape_gevrey2, ts, u, v)
        tracemalloc.start()
        try:
            again = toeplitz_residuals(gevrey2, op, escape_gevrey2, ts, u, v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 16 * 2 ** 20
