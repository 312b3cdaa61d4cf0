import ctypes
import glob
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_spec
from rmtlab import spectral
from rmtlab.ensemble import EnsembleSpec, EntryLaw, PartitionSpec, \
    make_partition, sample_cross_block, sample_matrix, scale_matrix
from rmtlab.graphenergy import sample_graph
from rmtlab.laws import semicircle_cdf
from rmtlab.spectral import (_COL_MAJOR, SpectralError, _lapacke_check,
                             _set_blas_threads, blas_threads,
                             check_rank_inequality,
                             check_stieltjes_perturbation,
                             eigenvalues_bipartite, eigenvalues_sym,
                             empirical_moment, esd,
                             esd_sup_distance, ks_distance,
                             moments_bipartite, numeric_rank,
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

    @pytest.mark.parametrize("M", [
        np.float64(3.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)),
        np.ones((0, 0))], ids=["0-d", "1-d", "2x3", "3-d", "0x0"])
    @pytest.mark.parametrize("upper", [False, True])
    def test_shape_refused(self, M, upper):
        with pytest.raises(ValueError, match="square matrix"):
            eigenvalues_sym(M, upper=upper)


needs_openblas = pytest.mark.skipif(blas_threads() is None,
                                    reason="numpy's OpenBLAS is not reachable")


def test_a_shipped_scipy_openblas_is_bound():
    # the build that exports this pool getter ships all of LAPACKE, so the
    # binding must be whole; a wheel without one of its drivers fails here
    # instead of sending every solve through numpy's copies
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not any(hasattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
               for path in sorted(glob.glob(str(libs / "*.so*")))):
        pytest.skip("numpy ships no scipy-openblas64 library")
    assert spectral._OPENBLAS is not None


@pytest.mark.parametrize("info, raised", [
    (1, SpectralError), (-5, SpectralError), (-1, RuntimeError),
    (-4, RuntimeError), (-6, RuntimeError)])
def test_lapacke_status(info, raised):
    # above 0 no convergence, -5 a NaN in the matrix, other negatives a bug
    _lapacke_check(0, "solve")
    with pytest.raises(raised) as exc:
        _lapacke_check(info, "solve")
    assert exc.type is raised


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
            got = eigenvalues_sym(M, upper=True)
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
        assert eigenvalues_sym(A, upper=True).tobytes() == want.tobytes()

    def test_read_only_input_is_not_written(self):
        M = random_symmetric(30, np.random.default_rng(4))
        M.flags.writeable = False
        kept = M.copy()
        assert eigenvalues_sym(M, upper=True).tobytes() == \
            np.linalg.eigvalsh(kept).tobytes()
        assert np.array_equal(M, kept)

    @needs_openblas
    def test_two_stage_from_the_cut_on_one_thread(self):
        cut = spectral._TWO_STAGE_FROM_N
        M = random_symmetric(cut, np.random.default_rng(cut))
        direct = np.empty(cut)
        found = blas_threads()
        _set_blas_threads(1)
        try:
            want = np.linalg.eigvalsh(M)
            work = M.copy()
            assert spectral._OPENBLAS.evd2(_COL_MAJOR, b"N", b"L", cut,
                                           work.ctypes.data, cut,
                                           direct.ctypes.data) == 0
            got = [eigenvalues_sym(M.copy(), upper=True) for _ in range(2)]
        finally:
            _set_blas_threads(found)
        assert got[0].tobytes() == direct.tobytes() == got[1].tobytes()
        # the rounding rule of esd_sup_distance: n * eps * max|eigenvalue|
        tol = cut * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(got[0] - want)) <= tol
        assert got[0].tobytes() != want.tobytes()  # not dsyevd's bits

    @needs_openblas
    @pytest.mark.parametrize("steps_below_cut, pool", [(1, 1), (0, 2)],
                             ids=["below_the_cut", "two_threads"])
    def test_dsyevd_solves_elsewhere(self, steps_below_cut, pool):
        n = spectral._TWO_STAGE_FROM_N - steps_below_cut
        M = random_symmetric(n, np.random.default_rng(n))
        found = blas_threads()
        _set_blas_threads(pool)
        try:
            want = np.linalg.eigvalsh(M)
            got = eigenvalues_sym(M, upper=True)
        finally:
            _set_blas_threads(found)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("upper", [
        False, pytest.param(True, marks=needs_openblas)],
        ids=["copy", "in_place"])
    def test_infinite_entry_is_a_spectral_error(self, upper):
        # the solve gives NaN for it, where a NaN entry is refused
        M = np.array([[np.inf, 1.0], [1.0, 2.0]])
        with pytest.raises(SpectralError, match="not finite"):
            eigenvalues_sym(M, upper=upper)

    def test_without_the_binding_eigvalsh_solves(self, monkeypatch):
        monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        M = random_symmetric(30, np.random.default_rng(5))
        kept = M.copy()
        assert eigenvalues_sym(M, upper=True).tobytes() == \
            np.linalg.eigvalsh(kept).tobytes()
        assert np.array_equal(M, kept)
        assert blas_threads() is None


def upper_with_nan_below(M):
    """M's upper triangle, diagonal included, with NaN below it."""
    T = np.triu(M)
    T[np.tril_indices(len(M), -1)] = np.nan
    return T


class TestTriangleSolve:
    """With `upper`, a solve reads M's upper triangle and nothing else: NaN
    below the diagonal changes no bit on any route, and NaN in the upper
    triangle is a SpectralError."""

    def solve_both(self, n, pool, seed):
        """(solve of a symmetric M, solve of its upper triangle with NaN
        below, eigvalsh(M)), each in place on a pool of `pool` threads."""
        M = random_symmetric(n, np.random.default_rng(seed))
        T = upper_with_nan_below(M)
        found = blas_threads()
        _set_blas_threads(pool)
        try:
            return (eigenvalues_sym(M.copy(), upper=True),
                    eigenvalues_sym(T, upper=True), np.linalg.eigvalsh(M))
        finally:
            _set_blas_threads(found)

    @needs_openblas
    @pytest.mark.parametrize("n, pool", [(1, 1), (2, 2), (150, 1), (150, 2),
                                         (spectral._TWO_STAGE_FROM_N - 1, 1)])
    def test_dsyevd_below_the_cut(self, n, pool):
        whole, upper, want = self.solve_both(n, pool, n)
        assert upper.tobytes() == whole.tobytes() == want.tobytes()

    @needs_openblas
    def test_dsyevd_2stage_at_the_cut_on_one_thread(self):
        cut = spectral._TWO_STAGE_FROM_N
        whole, upper, want = self.solve_both(cut, 1, cut)
        assert upper.tobytes() == whole.tobytes()
        assert upper.tobytes() != want.tobytes()  # the two-stage driver's

    @pytest.mark.parametrize("writeable", [False, True],
                             ids=["read_only", "writeable"])
    @pytest.mark.parametrize("n", [1, 50, 200])
    def test_without_the_binding_eigvalsh_solves(self, monkeypatch, n,
                                                 writeable):
        monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        M = random_symmetric(n, np.random.default_rng(n))
        T = upper_with_nan_below(M)
        T.flags.writeable = writeable  # with the binding, in place if true
        kept = T.copy()
        got = eigenvalues_sym(T, upper=True)
        assert got.tobytes() == np.linalg.eigvalsh(M).tobytes() == \
            eigenvalues_sym(M).tobytes()
        assert np.array_equal(T, kept, equal_nan=True)

    @pytest.mark.parametrize("i, j", [(0, 0), (3, 40), (69, 69), (0, 69)])
    @pytest.mark.parametrize("route", [
        "copy", pytest.param("in_place", marks=needs_openblas),
        "no_binding"])
    def test_nan_in_the_triangle_is_a_spectral_error(self, monkeypatch, i, j,
                                                     route):
        if route == "no_binding":
            monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        T = np.triu(random_symmetric(70, np.random.default_rng(61)))
        T[i, j] = np.nan
        if route == "copy":  # the layout takes it to a C-order copy
            T = np.asfortranarray(T)
        with pytest.raises(SpectralError):
            eigenvalues_sym(T, upper=True)

    @pytest.mark.parametrize("layout",
                             ["read_only", "fortran", "strided", "float32"])
    def test_other_triangles_solve_a_copy(self, layout):
        # entries that float32 holds, so that every layout holds one matrix
        M = random_symmetric(50, np.random.default_rng(71))
        M = M.astype(np.float32).astype(float)
        T = upper_with_nan_below(M)
        if layout == "read_only":
            T.flags.writeable = False
        elif layout == "fortran":
            T = np.asfortranarray(T)
        elif layout == "strided":
            W = np.full((100, 100), np.nan)
            W[::2, ::2] = T
            T = W[::2, ::2]
        else:
            T = T.astype(np.float32)
        kept = T.copy()
        got = eigenvalues_sym(T, upper=True)
        assert got.tobytes() == np.linalg.eigvalsh(M).tobytes()
        assert np.array_equal(T, kept, equal_nan=True)

    @needs_openblas
    @pytest.mark.parametrize("layout", ["full", "read_only", "fortran",
                                        "strided", "float32"])
    def test_every_layout_solves_alike_at_the_cut_on_one_thread(self,
                                                                layout):
        # where the two-stage driver solves, a triangle in any layout, and
        # the whole matrix, give the bits of its writeable C-order triangle
        cut = spectral._TWO_STAGE_FROM_N
        M = random_symmetric(cut, np.random.default_rng(73))
        M = M.astype(np.float32).astype(float)
        T = upper_with_nan_below(M)
        if layout == "full":
            A = M
        elif layout == "read_only":
            A = T.copy()
            A.flags.writeable = False
        elif layout == "fortran":
            A = np.asfortranarray(T)
        elif layout == "strided":
            W = np.full((cut, 2 * cut), np.nan)
            W[:, ::2] = T
            A = W[:, ::2]
        else:
            A = T.astype(np.float32)
        kept = A.copy()
        found = blas_threads()
        _set_blas_threads(1)
        try:
            want = eigenvalues_sym(T, upper=True)
            got = eigenvalues_sym(A, upper=layout != "full")
        finally:
            _set_blas_threads(found)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(A, kept, equal_nan=True)

    def test_the_symmetry_check_still_reads_both_triangles(self):
        T = np.triu(random_symmetric(70, np.random.default_rng(67)))
        with pytest.raises(ValueError, match="not exactly symmetric"):
            eigenvalues_sym(T)


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

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_block_gives_zeros(self, shape):
        assert eigenvalues_bipartite(np.ones(shape)).tobytes() == \
            np.zeros(3).tobytes()

    def test_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="positive order"):
            eigenvalues_bipartite(np.ones((0, 0)))


def assert_moments_of_the_spectrum(got, B, n):
    """got is [M_0..M_64] of [[0, B], [B^T, 0]]/(2 sqrt n): each moment
    within 1e-10 of mean|lambda|^k, the scale of M_k and of its rounding;
    below the smallest normal float no relative accuracy is left, so that
    is the floor."""
    eigs = eigenvalues_bipartite(scale_matrix(B, n))
    assert got[0] == 1.0 and got[1::2] == [0.0] * 32
    for k in range(65):
        scale = float(np.mean(np.abs(eigs) ** k))
        assert abs(got[k] - empirical_moment(eigs, k)) <= \
            1e-10 * scale + np.finfo(float).tiny


class TestMomentsBipartite:
    @pytest.mark.parametrize("fractions", [(0.75, 0.25), (0.25, 0.75)],
                             ids=["n1>n2", "n1<n2"])
    def test_rademacher_traces_are_exact_integers(self, fractions):
        # B is a +-1 matrix, so with G the smaller Gram matrix of B,
        # M_2j = 2/n * tr(G^j) / (4n)^j exactly
        n = 96
        spec = EnsembleSpec(make_partition(n, fractions),
                            EntryLaw.constant_zero(), EntryLaw.rademacher(),
                            seed=9)
        for replicate in range(3):
            B = sample_cross_block(spec, replicate)
            assert set(np.unique(B)) == {-1.0, 1.0}
            S = B.astype(int).astype(object)
            G = S.T @ S if S.shape[0] >= S.shape[1] else S @ S.T
            got = moments_bipartite(B, 8)
            assert got[0] == 1.0 and got[1::2] == [0.0] * 4
            P = G
            for j in range(1, 5):
                want = Fraction(2 * int(np.trace(P)), n * (4 * n) ** j)
                assert abs(Fraction(got[2 * j]) - want) <= 1e-12 * want
                P = P @ G

    @settings(max_examples=80, deadline=None)
    @example(n1=1, n2=1, layout="F", seed=0)
    @example(n1=1, n2=60, layout="C", seed=1)
    @example(n1=60, n2=1, layout="F", seed=2)
    @example(n1=60, n2=60, layout="C", seed=3)
    @given(n1=st.integers(1, 60), n2=st.integers(1, 60),
           layout=st.sampled_from(["F", "C"]),
           seed=st.integers(0, 2**64 - 1))
    def test_matches_the_moments_of_the_spectrum(self, n1, n2, layout, seed):
        spec = EnsembleSpec(PartitionSpec(n1 + n2, (n1, n2)),
                            EntryLaw.constant_zero(),
                            EntryLaw.uniform_interval(-1, 1), seed)
        B = np.asarray(sample_cross_block(spec), order=layout)
        kept = B.copy()
        got = moments_bipartite(B, 64)
        assert B.tobytes() == kept.tobytes()
        assert_moments_of_the_spectrum(got, B, spec.n)

    def test_scaled_moments_are_finite_where_raw_traces_overflow(self):
        # entries +-3e4: tr((B^T B)^32) is about 4e345 and overflows, while
        # M_64 of the scaled matrix is about 3e273
        spec = EnsembleSpec(make_partition(40, (0.75, 0.25)),
                            EntryLaw.constant_zero(),
                            EntryLaw.two_point(3e4, -3e4, 0.5), seed=0)
        B = sample_cross_block(spec)
        got = moments_bipartite(B, 64)
        assert got[64] > 1e270 and all(map(math.isfinite, got))
        assert_moments_of_the_spectrum(got, B, spec.n)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, at", [((30, 10), (0, 0)),
                                           ((30, 10), (29, 9)),
                                           ((10, 30), (4, 17))])
    def test_entry_that_is_not_finite_is_a_spectral_error(self, value, shape,
                                                           at):
        # as eigenvalues_bipartite refuses the same block
        B = np.random.default_rng(71).uniform(-1, 1, size=shape)
        B[at] = value
        for layout in (B, np.asfortranarray(B)):
            with pytest.raises(SpectralError, match="not finite"):
                moments_bipartite(layout, 8)
        with pytest.raises(SpectralError):
            eigenvalues_bipartite(B)

    def test_finite_entries_whose_gram_matrix_overflows_give_moments(self):
        # 1e160^2 overflows, so tr G is infinite, but no entry is
        with np.errstate(over="ignore"):
            got = moments_bipartite(np.full((3, 2), 1e160), 4)
        assert got[:2] == [1.0, 0.0] and math.isinf(got[2])

    @pytest.mark.parametrize("max_k", [-1, 65])
    def test_order_outside_0_to_64_is_refused(self, max_k):
        with pytest.raises(ValueError, match="0..64"):
            moments_bipartite(np.ones((3, 2)), max_k)

    def test_max_k_zero_is_m0_alone(self):
        assert moments_bipartite(np.ones((3, 2)), 0) == [1.0]

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_empty_block_has_the_moments_of_zero(self, shape):
        # [[0, B], [B^T, 0]] is the zero matrix of order 3
        assert moments_bipartite(np.ones(shape), 8) == [1.0] + [0.0] * 8

    def test_order_zero_is_refused(self):
        with pytest.raises(ValueError, match="positive order"):
            moments_bipartite(np.ones((0, 0)), 8)


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

    def test_gap_far_above_rounding_counts_in_full(self):
        # eps = 3 * machine-eps * 1, so a gap of 1e-9 is far above it
        a = np.array([0.0, 0.0, 1.0])
        b = np.array([0.0, 1e-9, 1.0])
        assert esd_sup_distance(a, b) == esd_sup_distance(b, a) == 1 / 3

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

    def test_graph_against_its_centred_matrix(self):
        # A - p(J - blockdiag J) on [.6, .2, .2]: the mean has rank 3, and
        # both spectra hold 60 exact zeros that the solve returns within
        # 3e-14 of 0 with random signs; counted as a difference they read
        # 4/300 > 3/300
        spec = graph_spec(make_partition(300, [0.6, 0.2, 0.2]), 0.5, 12)
        A = sample_graph(spec, 0)
        labels = spec.partition.part_labels()
        mean = 0.5 * (labels[:, None] != labels[None, :])
        r = check_rank_inequality(A, A - mean)
        assert r["rhs"] == 3 / 300
        assert r["lhs"] == pytest.approx(2 / 300) and r["holds"]

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


class TestInPlaceSingularSolve:
    """singular_values and eigenvalues_bipartite solve a copy: an input of
    any layout is left as it was."""

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_c_order_row_is_untouched_without_overwrite(self, k):
        # a 1 x k C-order array is F-contiguous too
        M = np.random.default_rng(k).random((1, k))
        assert M.flags.c_contiguous and M.flags.f_contiguous
        kept = M.copy()
        want = np.linalg.svd(kept, compute_uv=False)
        assert singular_values(M).tobytes() == want.tobytes()
        eigenvalues_bipartite(M)
        assert M.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("make", [
        lambda A: np.ascontiguousarray(A),
        lambda A: np.asfortranarray(A),
        lambda A: np.asfortranarray(A)[:, ::2],
        lambda A: np.asfortranarray(A.astype(np.float32)),
        lambda A: np.asfortranarray(A).tolist()],
        ids=["c_order", "fortran", "strided", "float32", "list"])
    def test_other_layouts_match(self, make):
        A = np.random.default_rng(6).random((30, 12))
        M = make(A)
        kept = np.array(M)
        want = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
        assert singular_values(M).tobytes() == want.tobytes()
        eigenvalues_bipartite(M)
        assert np.asarray(M).tobytes() == kept.tobytes()

    def test_read_only_input_is_not_written(self):
        M = np.asfortranarray(np.random.default_rng(7).random((20, 9)))
        M.flags.writeable = False
        kept = M.copy()
        assert singular_values(M).tobytes() == \
            np.linalg.svd(kept, compute_uv=False).tobytes()
        assert np.array_equal(M, kept)

    def test_without_the_binding_svd_solves(self, monkeypatch):
        monkeypatch.setattr("rmtlab.spectral._OPENBLAS", None)
        A = np.random.default_rng(8).random((40, 15))
        M = np.asfortranarray(A)
        assert singular_values(M).tobytes() == \
            np.linalg.svd(A, compute_uv=False).tobytes()
        assert np.array_equal(M, A)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_nan_is_a_spectral_error(self, transposed):
        M = np.asfortranarray(np.random.default_rng(9).random((6, 4)))
        M[2, 1] = np.nan
        with pytest.raises(SpectralError):
            singular_values(M.T if transposed else M)

    @pytest.mark.parametrize("solve", [singular_values, eigenvalues_bipartite])
    def test_infinite_entry_is_a_spectral_error(self, solve):
        # the SVD returns NaN for it, where a NaN entry is refused
        with pytest.raises(SpectralError, match="not finite"):
            solve(np.array([[np.inf, 1.0], [1.0, 2.0]]))


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
