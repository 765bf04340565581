import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from gevspec import spectral
from gevspec.quantize import (RealGrid, WeylMatrix, assemble_weyl,
                              grid_for, load_weyl, required_n_points)
from gevspec.spectral import (BOUNDARY_MASS_THRESHOLD, MAX_DENSE_N,
                              BudgetError, PseudospectrumField, SolverError,
                              SpectrumResult, ZGrid, eigenvalues,
                              pseudospectrum, pseudospectrum_csv_lines,
                              resolvent_from_sigma, resolvent_norm,
                              roundoff_floor, schur_eigenvalues, sigma_min,
                              spectrum_csv_lines, spectrum_free_radius)
from gevspec.symbols import model_from_tag
from test_quantize import BUMP, ONE, plain_symbol


def sigma_min_direct(P, z):
    """Reference value from the full SVD of P - z."""
    A = P.entries - z * np.eye(P.n)
    return float(scipy.linalg.svdvals(A)[-1])


def clean_radius(P, z0, threshold=BOUNDARY_MASS_THRESHOLD):
    """Reference free radius from all eigenvectors: eigenvalues() and its
    boundary-mass mask."""
    spec = eigenvalues(P)
    kept = spec.eigenvalues[spec.boundary_mass <= threshold]
    return float(np.abs(kept - z0).min())


def wrap(entries, h=0.1, L=4.0):
    n = entries.shape[0]
    return WeylMatrix.from_entries(entries, h, RealGrid(L, n), "wrapped")


def cached_packed_T(P):
    """The triangular Schur factor spectral keeps for P, upper-packed."""
    return spectral._schur_factor(P)[0]


def cached_T(P):
    """The triangular Schur factor spectral keeps for P, unpacked by ztpttr
    into a fresh N x N array."""
    return np.triu(lapack.ztpttr(P.n, cached_packed_T(P))[0])


def hermitian_example(n=64, seed=7):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return wrap((M + M.conj().T) / 2)


class TestEigenvalues:
    def test_identity_spectrum(self):
        spec = eigenvalues(wrap(np.eye(16)))
        assert np.allclose(spec.eigenvalues, 1.0)
        assert spec.boundary_mass.shape == (16,)

    def test_sorted_by_modulus(self):
        spec = eigenvalues(wrap(np.diag([3.0, -1.0, 0.5, 2.0])))
        assert np.all(np.diff(np.abs(spec.eigenvalues)) >= 0)

    def test_boundary_mass_range_and_localized_modes(self):
        n = 64
        D = np.diag(np.linspace(-1, 1, n)).astype(complex)
        spec = eigenvalues(wrap(D))
        assert np.all(spec.boundary_mass >= 0)
        assert np.all(spec.boundary_mass <= 1)
        # coordinate eigenvectors of a diagonal matrix: edge modes carry
        # full boundary mass, interior modes none
        assert spec.boundary_mass.min() == 0.0
        assert spec.boundary_mass.max() == pytest.approx(1.0)

    def test_budget_error_on_large_matrix(self, monkeypatch):
        def no_schur(*args, **kwargs):
            raise AssertionError("factored a matrix above the budget")

        monkeypatch.setattr(scipy.linalg, "schur", no_schur)
        monkeypatch.setattr(lapack, "zgees", no_schur)
        # P.n reads the grid, so the entries need not be allocated at full size
        P = WeylMatrix.from_entries(np.eye(4, dtype=complex), 0.1,
                                    RealGrid(4.0, 2 * MAX_DENSE_N), "oversized")
        with pytest.raises(BudgetError):
            eigenvalues(P)
        with pytest.raises(BudgetError):
            sigma_min(P, 0.5)
        with pytest.raises(BudgetError):
            spectrum_free_radius(P, 0.5)
        # the floor reads ||P||_F beside T, so it meets the same budget
        with pytest.raises(BudgetError):
            roundoff_floor(P)
        with pytest.raises(BudgetError):
            resolvent_from_sigma(P, 1.0)

    def test_values_are_the_schur_diagonal(self, rng):
        n = 64
        P = wrap(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        T = cached_T(P)
        T_full, Z = scipy.linalg.schur(P.entries, output="complex")
        assert np.array_equal(T, T_full)
        assert np.allclose(Z @ T @ Z.conj().T, P.entries)
        assert np.array_equal(np.sort_complex(eigenvalues(P).eigenvalues),
                              np.sort_complex(np.diag(T)))

    def test_spectrum_factors_a_fresh_build_in_place(self, monkeypatch):
        # the Schur form with vectors overwrites a fresh Fortran-ordered
        # build of P, and eig then overwrites T; nothing is kept
        P = catalog_matrix("gevrey-transport:s=2", 0.1)
        real_gees, real_eig = lapack.zgees, scipy.linalg.eig
        calls = []

        def recording_gees(select, a, **kwargs):
            out = real_gees(select, a, **kwargs)
            if kwargs["lwork"] != -1:  # the workspace query factors nothing
                calls.append(("gees", a.flags.f_contiguous,
                              kwargs["compute_v"], out[0] is a))
            return out

        def recording_eig(a, **kwargs):
            calls.append(("eig", kwargs.get("overwrite_a")))
            return real_eig(a, **kwargs)

        monkeypatch.setattr(lapack, "zgees", recording_gees)
        monkeypatch.setattr(scipy.linalg, "eig", recording_eig)
        spec = eigenvalues(P)
        assert calls == [("gees", True, 1, True), ("eig", True)]
        assert P not in spectral._FACTORS
        vals = np.diag(scipy.linalg.schur(P.entries, output="complex")[0])
        assert np.array_equal(spec.eigenvalues,
                              vals[np.argsort(np.abs(vals), kind="stable")])

    def test_spectrum_peak_below_four_matrices(self):
        # P's build becomes T beside Z, and eig factors T in place beside
        # its eigenvectors X: no fourth N x N array
        P = catalog_matrix("gevrey-transport:s=2", 0.05)
        n = P.n
        assert n == 512
        tracemalloc.start()
        try:
            eigenvalues(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.75 * 16 * n * n

    def test_retained_filters_edge_modes(self):
        n = 64
        spec = eigenvalues(wrap(np.diag(np.arange(n, dtype=float))))
        kept = spec.eigenvalues[spec.boundary_mass <= BOUNDARY_MASS_THRESHOLD]
        # 10 percent of 64 nodes: 3 modes cut at each edge
        assert kept.size == n - 6


class TestSigmaMin:
    def test_hermitian_distance_identity(self):
        P = hermitian_example()
        lam = np.linalg.eigvalsh(P.entries)
        for z in (0.5 + 0.25j, -2.0 + 1.0j, 10.0):
            dist = np.abs(lam - z).min()
            assert sigma_min(P, z) == pytest.approx(dist, rel=1e-10)
            assert resolvent_norm(P, z) == pytest.approx(1.0 / dist, rel=1e-10)

    def test_vanishes_at_eigenvalue(self):
        P = hermitian_example()
        lam = np.linalg.eigvalsh(P.entries)
        scale = np.abs(P.entries).max()
        assert sigma_min(P, complex(lam[3])) <= 1e-10 * scale
        assert resolvent_norm(P, complex(lam[3])) == np.inf

    def test_lanczos_matches_direct_svd(self):
        rng = np.random.default_rng(11)
        n = 1024
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        P = wrap(M / np.sqrt(n))
        for z in (0.3 + 0.2j, -1.0):
            assert sigma_min(P, z) == pytest.approx(
                sigma_min_direct(P, z), rel=1e-10)
        # the two smallest singular values of P - z lie 0.4% apart here;
        # inverse iteration on (P - z)* (P - z) capped at 200 steps ends
        # 3.7e-3 off
        model = model_from_tag("gevrey-transport:s=2")
        P = assemble_weyl(model.symbol, RealGrid(6.0, 1024), 0.025)
        z = -0.4 - 0.6j
        assert sigma_min(P, z) == pytest.approx(sigma_min_direct(P, z),
                                                rel=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 5, 300])
    def test_ritz_pair_equals_eigh_tridiagonal(self, k):
        rng = np.random.default_rng(k)
        alpha = rng.uniform(0.5, 2.0, k + 1)
        beta = rng.uniform(0.1, 1.0, k)
        (theta,), s = scipy.linalg.eigh_tridiagonal(
            alpha, beta, select="i", select_range=(k, k))
        got_theta, got_s = spectral._largest_ritz_pair(alpha, beta)
        assert got_theta == theta
        assert np.array_equal(got_s, s[:, 0])

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 2)
        with pytest.raises(SolverError, match="did not converge"):
            sigma_min(hermitian_example(), 100.0)

    @pytest.mark.parametrize("query", [
        lambda P: sigma_min(P, 0.5 + 0.25j),
        lambda P: spectrum_free_radius(P, 0.5 + 0.25j)])
    def test_shifted_factor_is_restored(self, query, monkeypatch):
        # sigma_min and the kappa solves shift the packed diagonal in place
        monkeypatch.setattr(spectral, "BOUNDARY_MASS_THRESHOLD", 2.0)
        P = hermitian_example()
        ap = cached_packed_T(P)
        pristine = ap.copy()
        query(P)
        assert cached_packed_T(P) is ap
        assert np.array_equal(ap, pristine)

    @pytest.mark.parametrize("tag", ["gevrey-transport:s=2",
                                     "analytic-transport"])
    def test_matches_svd_of_full_schur_factor(self, tag):
        # the packed solves give the sigma_min of the full-storage factor
        P = catalog_matrix(tag, 0.1)
        T = scipy.linalg.schur(P.entries, output="complex")[0]
        floor = roundoff_floor(P)
        for z in (0.5 + 0.0j, 0.3 - 0.4j, 1.0 + 0.5j, -0.2 + 0.1j):
            ref = scipy.linalg.svdvals(T - z * np.eye(P.n))[-1]
            assert ref > 10 * floor
            assert sigma_min(P, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [96, 98, 100, 126])
    def test_matches_svd_at_even_n(self, n):
        # off the powers of two, to the Lanczos tolerance as at 128
        sym = model_from_tag("gevrey-transport:s=2").symbol
        P = assemble_weyl(sym, RealGrid(6.0, n), 0.2)
        for z in (0.5 + 0.0j, 0.3 - 0.4j, 1.0 + 0.5j, -0.2 + 0.1j):
            assert sigma_min(P, z) == pytest.approx(sigma_min_direct(P, z),
                                                    rel=spectral.LANCZOS_RTOL)

    def test_shifted_factor_is_restored_after_step_cap(self, monkeypatch):
        P = hermitian_example()
        pristine = cached_T(P).copy()
        monkeypatch.setattr(spectral, "LANCZOS_MAX_STEPS", 2)
        with pytest.raises(SolverError, match="did not converge"):
            sigma_min(P, 100.0)
        assert np.array_equal(cached_T(P), pristine)

    @given(dre=st.floats(-0.5, 0.5), dim=st.floats(-0.5, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_lipschitz_in_z(self, dre, dim):
        P = hermitian_example(n=32)
        z = 0.4 + 0.1j
        w = z + dre + 1j * dim
        assert abs(sigma_min(P, z) - sigma_min(P, w)) <= abs(z - w) + 1e-12

    @pytest.mark.parametrize("z", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                   np.inf])
    def test_nonfinite_z_is_rejected(self, z):
        # sigma_min 0 would mean "z is spectrum"
        with pytest.raises(ValueError):
            sigma_min(wrap(np.eye(4, dtype=complex)), z)


class TestPseudospectrum:
    @pytest.mark.parametrize("window", [
        ZGrid(complex(np.nan, 0.0), 1.0, 1.0, 3, 3),
        ZGrid(0j, np.inf, 1.0, 3, 3),
        ZGrid(0j, 1.0, np.nan, 3, 3)])
    def test_nonfinite_window_is_budget_error(self, window):
        with pytest.raises(BudgetError):
            pseudospectrum(wrap(np.eye(4)), window)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            pseudospectrum(wrap(np.eye(4)),
                           ZGrid(0j, 1.0, 1.0, 600, 4))

    def test_identity_field(self):
        win = ZGrid(1.0 + 0j, 0.5, 0.5, 5, 5)
        field = pseudospectrum(wrap(np.eye(8)), win)
        assert field.sigma_min.shape == (5, 5)
        assert np.allclose(field.sigma_min, np.abs(win.nodes() - 1.0))
        # minimum sits at the eigenvalue in the window center
        assert field.sigma_min[2, 2] == pytest.approx(0.0, abs=1e-14)

    def test_field_independent_of_evaluation_order(self):
        # each sigma_min shifts the one cached T in place; the restore is
        # what keeps a z from seeing the shift of the z before it
        P = catalog_matrix("gevrey-transport:s=2", 0.1)
        win = ZGrid(0.5 + 0j, 0.5, 0.5, 5, 5)
        field = pseudospectrum(P, win)
        zs = win.nodes()
        reverse = np.empty(zs.shape)
        for idx in reversed(list(np.ndindex(zs.shape))):
            reverse[idx] = sigma_min(P, zs[idx])
        assert np.array_equal(field.sigma_min, reverse)

    def test_nodes_indexed_re_then_im(self):
        win = ZGrid(0.5 - 1j, 1.0, 2.0, 3, 5)
        zs = win.nodes()
        assert zs.shape == (3, 5)
        for i, j in np.ndindex(zs.shape):
            assert zs[i, j] == win.re_axis[i] + 1j * win.im_axis[j]


class TestFreeRadius:
    def test_distance_to_nearest_clean_eigenvalue(self):
        P = wrap(np.diag(np.linspace(-1, 1, 64)).astype(complex))
        # interior eigenvalues survive; nearest to 2j among them
        free = spectrum_free_radius(P, 2j)
        assert free.radius == pytest.approx(clean_radius(P, 2j))
        assert abs(free.eigenvalue - 2j) == pytest.approx(free.radius)
        assert free.kappa == 1.0  # a normal matrix

    def test_raises_when_filter_empties(self):
        # circulant shift: all eigenvectors are extended waves with ~10
        # percent boundary mass, far above the retention threshold
        n = 32
        S = np.roll(np.eye(n), 1, axis=0)
        with pytest.raises(SolverError, match="survive"):
            spectrum_free_radius(wrap(S), 0j)

    def test_radius_invariant_under_unitary_conjugation(self, rng,
                                                        monkeypatch):
        n = 64
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                            + 1j * rng.normal(size=(n, n)))
        A = wrap(M)
        B = wrap(Q @ M @ Q.conj().T)
        # a threshold above 1 disables the boundary filter
        monkeypatch.setattr(spectral, "BOUNDARY_MASS_THRESHOLD", 2.0)
        fa = spectrum_free_radius(A, 0.3 + 0.1j)
        fb = spectrum_free_radius(B, 0.3 + 0.1j)
        assert fa.radius == pytest.approx(fb.radius, rel=1e-8)
        assert fa.kappa == pytest.approx(fb.kappa, rel=1e-6)

    @pytest.mark.parametrize("tag", ["davies", "gevrey-transport:s=1.5",
                                     "gevrey-transport:s=2",
                                     "gevrey-transport:s=3",
                                     "analytic-transport"])
    @pytest.mark.parametrize("h", [0.2, 0.1])
    def test_equals_full_eigenvector_path(self, tag, h):
        model = model_from_tag(tag)
        n = required_n_points(6.0, h, 4.0)  # the sweep's grid rule, L = 6
        assert n == {0.2: 128, 0.1: 256}[h]
        P = assemble_weyl(model.symbol, RealGrid(6.0, n), h)
        free = spectrum_free_radius(P, model.z0)
        assert free.radius == clean_radius(P, model.z0)
        assert abs(free.eigenvalue - model.z0) == pytest.approx(free.radius,
                                                                rel=1e-15)
        assert free.kappa >= 1.0

    def test_kappa_matches_eig(self, rng, monkeypatch):
        n = 64
        P = wrap(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        monkeypatch.setattr(spectral, "BOUNDARY_MASS_THRESHOLD", 2.0)
        free = spectrum_free_radius(P, 0.5 + 0.5j)
        vals, vl, vr = scipy.linalg.eig(P.entries, left=True)
        j = np.argmin(np.abs(vals - free.eigenvalue))
        # eig returns unit vectors, so kappa = 1 / |y* x|
        kappa = 1.0 / abs(np.vdot(vl[:, j], vr[:, j]))
        assert kappa < 100  # a well-conditioned eigenvalue
        assert free.kappa == pytest.approx(kappa, rel=1e-8)

    def test_repeated_eigenvalue_gives_finite_mass(self):
        # T[1, 1] == T[40, 40]: the eigenvector of index 40 divides by a
        # zero pivot at row 1 unless that pivot is raised to smin
        n = 64
        T = np.diag(np.linspace(-1, 1, n)).astype(complex)
        lam = 0.3 + 0.2j
        T[1, 1] = T[40, 40] = lam
        T[1, 40] = 1e-20
        P = wrap(T)
        assert np.array_equal(cached_T(P), T)
        # index 1 sits on the boundary and fails the filter; index 40,
        # equally near, passes with x[1] = -1e-20 / smin
        free = spectrum_free_radius(P, lam)
        assert free.radius == 0.0 == clean_radius(P, lam)
        assert free.eigenvalue == lam
        assert np.isfinite(free.kappa)

    def test_overflowing_solve_raises(self):
        n = 32
        T = np.diag(np.linspace(-1, 1, n)).astype(complex)
        T[15, 15] = T[16, 16] + 1e-9
        T[15, 16] = 1e300  # x[15] = -1e300 / (T[15, 15] - T[16, 16])
        P = wrap(T)
        pristine = cached_packed_T(P).copy()
        with pytest.raises(SolverError, match="overflow"):
            spectrum_free_radius(P, T[16, 16])
        assert np.array_equal(cached_packed_T(P), pristine)  # shift undone

    def test_left_vector_at_zero_eigenvalue_is_finite(self):
        # lam = 0 raises its own pivot to smin = 3.2e-291; the right-hand
        # side conj(smin) e_k keeps y_k at 1, not at 1 / smin = 3.1e290
        n = 32
        T = np.diag(np.linspace(-1, 1, n + 1)[np.arange(n + 1) != 16]
                    ).astype(complex)
        T[16, 16] = 0.0
        T[16, 17] = 0.5
        ap = lapack.ztrttp(T)[0]
        x, y = spectral._solve_shifted(ap, 16, n)
        assert x[16] == 1.0 and not np.any(x[:16])
        assert y[16] == 1.0 and not np.any(y[:16])
        # (T - 0)* y = 0 below row 16: y[17] T[17, 17] = -conj(T[16, 17])
        assert y[17] == pytest.approx(-0.5 / T[17, 17].real, rel=1e-15)
        assert np.array_equal(ap, lapack.ztrttp(T)[0])


CATALOG = ("davies", "analytic-transport", "trapped-toy",
           "gevrey-transport:s=1.5", "gevrey-transport:s=2",
           "gevrey-transport:s=3")


def catalog_matrix(tag, h, L=6.0):
    """The sweep's matrix: the model's symbol on the grid rule N(h)."""
    sym = model_from_tag(tag).symbol
    return assemble_weyl(sym, grid_for(sym, L, h), h)


# the queries that read the cached factor T
T_READERS = (lambda P: sigma_min(P, 0.5),
             lambda P: spectrum_free_radius(P, 0.5), schur_eigenvalues)
# and every query that runs a Schur factorization
SCHUR_QUERIES = T_READERS + (eigenvalues,)


class TestSchurFactor:
    """The cached factor is T alone, from zgees without Schur vectors, and
    fails as loudly as scipy.linalg.schur."""

    @pytest.mark.parametrize("tag", CATALOG)
    def test_equals_full_schur_form(self, tag):
        P = catalog_matrix(tag, 0.1)
        assert P.n == 256
        T, Z = scipy.linalg.schur(P.entries, output="complex")
        assert np.array_equal(cached_T(P), T)
        # with the Schur vectors, as eigenvalues() computes them
        T_v, Z_v, norm = spectral._factor(P, compute_v=1)
        assert np.array_equal(T_v, T)
        assert np.array_equal(Z_v, Z)
        assert norm == pytest.approx(np.linalg.norm(P.entries), rel=1e-13)

    def test_norm_of_a_large_entry_does_not_overflow(self):
        # the squares of ||P||_F overflow a plain sum at 1e160; nrm2 scales
        n = 32
        T = np.diag(np.linspace(-1, 1, n)).astype(complex)
        T[0, 0] = 1e160
        P = wrap(T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor = roundoff_floor(P)
            s = sigma_min(P, 5.0)
        assert floor == pytest.approx(np.finfo(float).eps * np.sqrt(n) * 1e160,
                                      rel=1e-15)
        assert 0 < s < floor  # below the floor, so 5 counts as spectrum
        assert resolvent_from_sigma(P, s) == np.inf
        assert resolvent_from_sigma(P, 2.0 * floor) == 0.5 / floor

    @pytest.mark.parametrize("query", SCHUR_QUERIES)
    def test_failed_iteration_dumps_matrix(self, query, monkeypatch,
                                           tmp_path):
        real = lapack.zgees

        def failing_gees(*args, **kwargs):
            *out, info = real(*args, **kwargs)
            return (*out, 0 if kwargs.get("lwork") == -1 else 1)

        monkeypatch.setattr(lapack, "zgees", failing_gees)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        P = hermitian_example()
        with pytest.raises(SolverError, match="matrix dumped to"):
            query(P)
        assert P not in spectral._FACTORS  # nothing is kept from a failure
        [dump] = tmp_path.glob("weyl_fail_*.bin")
        assert np.array_equal(load_weyl(dump).entries, P.entries)

    @pytest.mark.parametrize("query", SCHUR_QUERIES)
    def test_nonfinite_entry_raises(self, query):
        M = np.eye(8, dtype=complex)
        M[3, 5] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            query(wrap(M))

    def test_warm_free_radius_holds_one_copy_of_p(self, monkeypatch):
        # one LU copy of P beside the cached T; no N x N Schur vectors
        vs_shapes = []
        real = lapack.zgees

        def recording_gees(*args, **kwargs):
            out = real(*args, **kwargs)
            vs_shapes.append(out[3].shape)
            return out

        monkeypatch.setattr(lapack, "zgees", recording_gees)
        P = catalog_matrix("gevrey-transport:s=2", 0.025)
        n = P.n
        assert n == 1024
        cold = spectrum_free_radius(P, 0j)
        assert vs_shapes == [(1, n), (1, n)]  # workspace query, factorization
        assert cached_packed_T(P).shape == (n * (n + 1) // 2,)
        tracemalloc.start()
        try:
            warm = spectrum_free_radius(P, 0j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert warm == cold
        # the LU buffer and no copy of a block of T for kappa
        assert peak < 1.1 * 16 * n * n

    def test_cold_path_holds_t_and_one_scratch_matrix(self):
        # the assembled P holds two length-N arrays; packing holds T beside
        # its packed copy, the radius walk holds the packed T and one LU
        # buffer, and sigma_min shifts the packed T in place beside its
        # Krylov basis (steps x N): each 1.5 N x N arrays
        model = model_from_tag("gevrey-transport:s=2")
        tracemalloc.start()
        try:
            P = catalog_matrix("gevrey-transport:s=2", 0.025)
            held = tracemalloc.get_traced_memory()[0]
            free = spectrum_free_radius(P, model.z0)
            sigma_min(P, model.z0 - 0.5 * free.radius)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = P.n
        assert n == 1024
        assert held < 1 << 20
        assert peak < 1.6 * 16 * n * n

    @pytest.mark.parametrize("n", [2, 64])
    def test_cache_holds_the_packed_factor_alone(self, n, rng):
        # T's upper triangle, N(N + 1)/2 entries, and no N x N array
        P = wrap(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        schur_eigenvalues(P)
        ap, norm = spectral._FACTORS[P]
        assert ap.ndim == 1 and ap.size == n * (n + 1) // 2
        T = scipy.linalg.schur(P.entries, output="complex")[0]
        # column by column, each from row 0 to the diagonal
        assert np.array_equal(ap, np.concatenate([T[:j + 1, j]
                                                  for j in range(n)]))
        assert np.array_equal(ap[spectral._diagonal_index(n)], np.diag(T))


def full_schur_walk(P, z0, threshold=BOUNDARY_MASS_THRESHOLD):
    """The free-radius walk on the full Schur form (T, Z): each candidate's
    eigenvector x of T is back-substituted, by the packed solves
    spectrum_free_radius runs, on T packed, and its boundary mass read from
    the edge rows of Z x. Returns the FreeRadius and, per tested candidate,
    (eigenvalue, passed)."""
    T, Z = scipy.linalg.schur(P.entries, output="complex")
    ap = lapack.ztrttp(T)[0]
    n = P.n
    lams = T.diagonal()
    dist = np.abs(lams - z0)
    edge = max(1, int(round(0.5 * spectral.BOUNDARY_FRACTION * n)))
    edge_rows = np.concatenate((Z[:edge], Z[n - edge:]))
    norm = scipy.linalg.norm
    tested = []
    for k in np.argsort(dist, kind="stable"):
        lam = lams[k]
        x, y = spectral._solve_shifted(ap, k, n)
        passed = (norm(edge_rows[:, :k + 1] @ x) / norm(x)) ** 2 <= threshold
        tested.append((lam, passed))
        if passed:
            free = spectral.FreeRadius(float(dist[k]), complex(lam),
                                       float(norm(x) * norm(y)))
            return free, tested
    raise AssertionError("no candidate passed")


class TestFreeRadiusReference:
    """Inverse iteration on P - lambda decides every candidate as the full
    Schur form did, so the radius, eigenvalue and kappa are bit-equal."""

    @pytest.mark.parametrize("tag, h, n, candidates", [
        ("gevrey-transport:s=2", 0.2, 128, 19),
        ("gevrey-transport:s=2", 0.05, 512, 1),
        ("analytic-transport", 0.1, 256, 22)])
    def test_same_walk_as_full_schur_form(self, tag, h, n, candidates,
                                          monkeypatch):
        decided = []
        real = spectral._least_boundary_mass

        def recording(P, lam, m):
            mass = real(P, lam, m)
            decided.append((lam, m, mass <= BOUNDARY_MASS_THRESHOLD))
            return mass

        monkeypatch.setattr(spectral, "_least_boundary_mass", recording)
        P = catalog_matrix(tag, h)
        assert P.n == n
        z0 = model_from_tag(tag).z0
        free = spectrum_free_radius(P, z0)
        ref, tested = full_schur_walk(P, z0)
        assert len(tested) == candidates
        assert [(lam, 1, passed) for lam, passed in tested] == decided
        assert free == ref


class TestQuantizedOperator:
    def test_real_symbol_real_spectrum(self):
        real_bump = plain_symbol(
            lambda x, xi: np.cos(xi) * np.exp(-x ** 2) + 0j, "rb",
            xi_extent=2.5)
        P = assemble_weyl(real_bump, RealGrid(4.0, 128), 0.05)
        spec = eigenvalues(P)
        assert np.abs(spec.eigenvalues.imag).max() < 1e-10


class TestCsv:
    def test_spectrum_csv_layout(self):
        spec = eigenvalues(wrap(np.diag([1.0 + 2.0j, -0.5j])))
        lines = spectrum_csv_lines(spec)
        assert lines[0] == "re_lambda,im_lambda,boundary_mass"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert len(fields) == 3
        assert complex(float(fields[0]), float(fields[1])) in (1 + 2j, -0.5j)

    def test_pseudospectrum_csv_layout(self):
        # rows are Im-major: Re z sweeps its axis at each Im z in turn
        win = ZGrid(0j, 1.0, 2.0, 2, 3)
        field = pseudospectrum(wrap(np.eye(4)), win)
        lines = pseudospectrum_csv_lines(field)
        assert lines[0] == "re_z,im_z,sigma_min"
        rows = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert [r[:2] for r in rows] == [(-1.0, -2.0), (1.0, -2.0),
                                          (-1.0, 0.0), (1.0, 0.0),
                                          (-1.0, 2.0), (1.0, 2.0)]
        assert [r[2] for r in rows] == pytest.approx(
            [abs(complex(re, im) - 1.0) for re, im, _ in rows])
