import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmtlab.ensemble import EnsembleSpec, EntryLaw, make_partition, \
    sample_matrix, scale_matrix
from rmtlab.laws import semicircle_cdf
from rmtlab.spectral import (_set_blas_threads, blas_threads,
                             check_rank_inequality,
                             check_stieltjes_perturbation,
                             eigenvalues_bipartite, eigenvalues_sym,
                             empirical_moment, esd,
                             esd_sup_distance, ks_distance, numeric_rank,
                             singular_values, stieltjes_empirical)


def random_symmetric(n, rng):
    M = rng.normal(size=(n, n))
    return M + M.T


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues_sym(np.diag([1.0, 2.0, 3.0])),
                           [1, 2, 3])

    def test_2x2_closed_form(self):
        assert np.allclose(eigenvalues_sym(np.array([[0., 1.], [1., 0.]])),
                           [-1, 1])

    def test_path_graph_known_spectrum(self):
        # 5-vertex path adjacency: eigenvalues 2cos(k pi/6), k=1..5
        A = np.zeros((5, 5))
        for i in range(4):
            A[i, i + 1] = A[i + 1, i] = 1.0
        expected = sorted(2 * math.cos(k * math.pi / 6) for k in range(1, 6))
        assert np.allclose(eigenvalues_sym(A), expected, atol=1e-8)

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(7)
        M = random_symmetric(30, rng)
        e = eigenvalues_sym(M)
        assert abs(e.sum() - np.trace(M)) <= 1e-8 * max(abs(np.trace(M)), 1)
        fro2 = np.sum(M * M)
        assert abs(np.sum(e**2) - fro2) <= 1e-8 * fro2

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigenvalues_sym(np.array([[0., 1.], [0., 0.]]))


needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's OpenBLAS is not reachable")


class TestInPlaceSolve:
    @needs_openblas
    @pytest.mark.parametrize("pool", [1, 2])
    @pytest.mark.parametrize("entries", ["uniform", "zero_one"])
    @pytest.mark.parametrize("n", [1, 2, 7, 150, 400])
    def test_matches_eigvalsh_bit_for_bit(self, pool, entries, n):
        rng = np.random.default_rng(n)
        M = rng.random((n, n))
        if entries == "zero_one":
            M = (M < 0.3).astype(float)
        M = np.triu(M) + np.triu(M, 1).T
        found = blas_threads()
        _set_blas_threads(pool)
        try:
            want = np.linalg.eigvalsh(M)
            copied = eigenvalues_sym(M)
            kept = M.copy()
            got = eigenvalues_sym(M, overwrite=True)
        finally:
            _set_blas_threads(found)
        assert got.tobytes() == want.tobytes() == copied.tobytes()
        if n >= 7:  # the solve used M as its workspace
            assert not np.array_equal(kept, M)

    @pytest.mark.parametrize("make", [
        lambda M: M[::2, ::2],
        lambda M: np.asfortranarray(M),
        lambda M: M.astype(np.float32),
        lambda M: M.tolist()],
        ids=["strided", "fortran", "float32", "list"])
    def test_other_layouts_match(self, make):
        rng = np.random.default_rng(3)
        M = random_symmetric(40, rng)
        A = make(M)
        want = np.linalg.eigvalsh(np.asarray(A, dtype=float))
        assert eigenvalues_sym(A, overwrite=True).tobytes() == want.tobytes()

    def test_read_only_input_is_not_written(self):
        M = random_symmetric(30, np.random.default_rng(4))
        M.flags.writeable = False
        kept = M.copy()
        assert eigenvalues_sym(M, overwrite=True).tobytes() == \
            np.linalg.eigvalsh(kept).tobytes()
        assert np.array_equal(M, kept)

    def test_without_the_binding_eigvalsh_solves(self, monkeypatch):
        monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        M = random_symmetric(30, np.random.default_rng(5))
        kept = M.copy()
        assert eigenvalues_sym(M, overwrite=True).tobytes() == \
            np.linalg.eigvalsh(kept).tobytes()
        assert np.array_equal(M, kept)
        assert blas_threads() is None


def two_part(B):
    """[[0, B], [B^T, 0]]."""
    n1, n2 = B.shape
    M = np.zeros((n1 + n2, n1 + n2))
    M[:n1, n1:] = B
    M[n1:, :n1] = B.T
    return M


class TestSymmetryCheck:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_symmetric_passes_with_signed_zeros(self, n):
        M = random_symmetric(n, np.random.default_rng(n))
        M[0, -1], M[-1, 0] = 0.0, -0.0
        assert eigenvalues_sym(M).tobytes() == np.linalg.eigvalsh(M).tobytes()

    @pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (70, 5), (128, 129),
                                      (129, 128), (129, 0), (0, 129)])
    def test_asymmetry_found_in_every_strip(self, i, j):
        # n = 130: strips of 64 rows at 0 and 64, then a partial one at 128
        M = random_symmetric(130, np.random.default_rng(53))
        M[i, j] = np.nextafter(M[i, j], np.inf)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            eigenvalues_sym(M)

    @pytest.mark.parametrize("i, j", [(0, 0), (129, 129), (64, 64), (3, 100),
                                      (100, 3)])
    def test_nan_raises(self, i, j):
        M = random_symmetric(130, np.random.default_rng(59))
        M[i, j] = M[j, i] = np.nan
        with pytest.raises(ValueError, match="not exactly symmetric"):
            eigenvalues_sym(M)


class TestEigenvaluesBipartite:
    @settings(max_examples=80, deadline=None)
    @example(n1=1, n2=1, shape="random", seed=0)
    @example(n1=1, n2=60, shape="random", seed=1)
    @example(n1=60, n2=1, shape="repeated", seed=2)
    @example(n1=30, n2=30, shape="repeated", seed=3)
    @example(n1=17, n2=40, shape="zero", seed=4)
    @given(n1=st.integers(1, 60), n2=st.integers(1, 60),
           shape=st.sampled_from(["random", "repeated", "zero"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_full_eigensolve(self, n1, n2, shape, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(n1, n2))
        if shape == "repeated":  # rank at most 3: columns copied
            B = B[:, rng.integers(0, min(3, n2), size=n2)]
        elif shape == "zero":
            B = np.zeros((n1, n2))
        got = eigenvalues_bipartite(B)
        want = eigenvalues_sym(two_part(B))
        assert got.shape == (n1 + n2,)
        assert np.all(np.diff(got) >= 0)
        tol = 1e-13 * max(1.0, np.linalg.norm(B, 2))
        assert np.max(np.abs(got - want)) <= tol
        assert not np.any(np.signbit(got[got == 0.0]))
        assert np.sum(got == 0.0) >= abs(n1 - n2)


class TestESD:
    def test_midpoint(self):
        assert esd(np.array([-1.0, 1.0]))(0.0) == 0.5

    def test_extremes(self):
        F = esd(np.array([-1.0, 1.0]))
        assert F(-2.0) == 0.0 and F(1.0) == 1.0 and F(5.0) == 1.0

    def test_tie_handling(self):
        assert esd(np.array([0.0, 0.0, 1.0]))(0.0) == pytest.approx(2 / 3)


class TestEmpiricalMoment:
    def test_zeroth(self):
        assert empirical_moment(np.array([3.0, -2.0]), 0) == 1.0

    def test_second(self):
        assert empirical_moment(np.array([-1.0, 1.0]), 2) == 1.0

    def test_trace_power_oracle(self):
        rng = np.random.default_rng(11)
        M = random_symmetric(12, rng)
        e = eigenvalues_sym(M)
        P = np.eye(12)
        for k in range(1, 7):
            P = P @ M
            tr = np.trace(P) / 12
            assert empirical_moment(e, k) == pytest.approx(tr, rel=1e-9)


class TestStieltjes:
    def test_single_eigenvalue(self):
        assert stieltjes_empirical(np.array([0.0]), 1j) == pytest.approx(1j)

    def test_herglotz(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=40)
        for z in (1j, 0.5 + 0.1j, -2 + 3j):
            assert stieltjes_empirical(e, z).imag > 0

    def test_resolvent_trace_oracle(self):
        rng = np.random.default_rng(5)
        M = random_symmetric(15, rng)
        z = 0.3 + 0.7j
        resolvent = np.linalg.solve(M - z * np.eye(15), np.eye(15))
        expected = np.trace(resolvent) / 15
        got = stieltjes_empirical(eigenvalues_sym(M), z)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            stieltjes_empirical(np.array([0.0]), -1j)


class TestKSDistance:
    def test_self_distance_small(self):
        e = np.sort(np.random.default_rng(1).normal(size=50))
        F = esd(e)
        # G interpolating F at its own steps stays within 1/n
        G = lambda x: np.clip(F(x) - 0.5 / 50, 0, 1)
        assert ks_distance(F, G) <= 1.0 / 50 + 1e-12

    def test_point_mass_vs_semicircle(self):
        F = esd(np.array([0.0]))
        assert ks_distance(F, lambda x: semicircle_cdf(x, 1.0)) == \
            pytest.approx(0.5)

    def test_grid_scan_oracle(self):
        F = esd(np.array([0.25, 0.75]))
        G = lambda x: np.clip(x, 0.0, 1.0)  # uniform [0,1] CDF
        grid = np.linspace(-0.5, 1.5, 2_000_001)
        brute = np.max(np.abs(F(grid) - G(grid)))
        assert ks_distance(F, G) >= brute - 1e-12
        assert ks_distance(F, G) == pytest.approx(brute, abs=1e-5)


class TestEsdSupDistance:
    def test_identical(self):
        e = np.array([0.0, 1.0, 2.0])
        assert esd_sup_distance(e, e) == 0.0

    def test_half(self):
        assert esd_sup_distance(np.array([0.0, 0.0]),
                                np.array([0.0, 1.0])) == 0.5

    def test_grid_scan_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            grid = np.linspace(-5, 5, 1_000_001)
            Fa, Fb = esd(a), esd(b)
            brute = np.max(np.abs(Fa(grid) - Fb(grid)))
            assert esd_sup_distance(a, b) >= brute - 1e-12
            assert esd_sup_distance(a, b) == pytest.approx(brute, abs=1e-4)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            esd_sup_distance(np.array([0.0]), np.array([0.0, 1.0]))


class TestRankInequality:
    def test_equal_matrices(self):
        M = np.diag([1.0, 2.0])
        r = check_rank_inequality(M, M)
        assert r["lhs"] == 0.0 and r["rhs"] == 0.0 and r["holds"]

    def test_rank_one_spike(self):
        rng = np.random.default_rng(13)
        M = random_symmetric(10, rng)
        spike = np.outer(np.ones(10), np.ones(10))
        r = check_rank_inequality(M, M + spike)
        assert r["rhs"] == pytest.approx(0.1)
        assert r["holds"]

    def test_random_trials(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(5, 25))
            M = random_symmetric(n, rng)
            r = int(rng.integers(1, n))
            pert = np.zeros((n, n))
            for _ in range(r):
                v = rng.normal(size=n)
                pert += np.outer(v, v)
            assert check_rank_inequality(M, M + pert)["holds"]


class TestStieltjesPerturbation:
    def test_zero_perturbation(self):
        M = np.diag([1.0, -1.0])
        r = check_stieltjes_perturbation(M, np.zeros((2, 2)), 1j)
        assert r["lhs"] == 0.0 and r["holds"]

    def test_scalar_shift(self):
        rng = np.random.default_rng(19)
        M = random_symmetric(8, rng)
        c = 0.37
        r = check_stieltjes_perturbation(M, c * np.eye(8), 1j)
        assert r["rhs"] == pytest.approx(c)
        assert r["lhs"] <= c + 1e-12
        assert r["holds"]

    def test_random_block_trials(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(6, 20))
            M = random_symmetric(n, rng)
            D = np.zeros((n, n))
            i = 0
            while i < n:
                b = min(int(rng.integers(1, 4)), n - i)
                blk = random_symmetric(b, rng)
                D[i:i + b, i:i + b] = blk
                i += b
            z = complex(rng.normal(), abs(rng.normal()) + 0.2)
            assert check_stieltjes_perturbation(M, D, z)["holds"]


class TestSingularValues:
    def test_diagonal(self):
        assert np.allclose(singular_values(np.diag([-2.0, 1.0])), [2, 1])

    def test_zero_matrix(self):
        assert not np.any(singular_values(np.zeros((3, 3))))

    def test_rectangular(self):
        B = np.array([[3.0, 0.0, 0.0], [0.0, -4.0, 0.0]])
        assert np.allclose(singular_values(B), [4, 3])
        assert np.allclose(singular_values(B.T), [4, 3])
        with pytest.raises(ValueError):
            singular_values(np.ones(3))

    def test_matches_abs_eigenvalues(self):
        rng = np.random.default_rng(29)
        M = random_symmetric(14, rng)
        s = singular_values(M)
        expected = np.sort(np.abs(eigenvalues_sym(M)))[::-1]
        assert np.allclose(s, expected, rtol=1e-9, atol=1e-9)


def test_numeric_rank():
    assert numeric_rank(np.zeros((4, 4))) == 0
    assert numeric_rank(np.outer(np.ones(4), np.ones(4))) == 1
    assert numeric_rank(np.eye(4)) == 4


def test_concentration_of_fourth_moment():
    # variance of M_4 shrinks by >= 2.5x per doubling of n
    variances = []
    for n in (50, 100, 200):
        spec = EnsembleSpec(make_partition(n, [1.0]), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), seed=101)
        vals = []
        for r in range(200):
            B = scale_matrix(sample_matrix(spec, r))
            B2 = B @ B
            vals.append(np.trace(B2 @ B2) / n)
        variances.append(np.var(vals, ddof=1))
    assert variances[0] / variances[1] >= 2.5
    assert variances[1] / variances[2] >= 2.5
