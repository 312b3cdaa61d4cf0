"""Eigen-analysis of symmetric matrices.

Spectra, empirical spectral distributions (step CDFs), empirical moments,
empirical Stieltjes transforms, singular values, and numeric checks of the
rank inequality and the Stieltjes perturbation bound.

Where numpy ships OpenBLAS, its thread-pool size and LAPACKE `dsyevd`
(and `dsyevd_2stage`, where the build has it) are reached through ctypes:
`blas_threads` reads the pool size and a symmetric solve may overwrite its
input instead of copying it.  Every other solve, and every solve where the
pool size is unknown (None), is `np.linalg.eigvalsh`.

The solve contract: an in-place solve below order `_TWO_STAGE_FROM_N`, or
on a pool of more than one thread, gives `eigvalsh`'s bits.  From that
order on a one-thread pool the driver is `dsyevd_2stage` (full to band to
tridiagonal), whose eigenvalues differ from `eigvalsh`'s in the last bits;
outputs stay a pure function of (config, seed) on one host.
"""

from __future__ import annotations

import ctypes
import glob
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class SpectralError(RuntimeError):
    """Eigen/singular value computation failed to converge."""


# rows per strip of the symmetry check; a strip and its transpose stay in cache
_STRIP = 64


def _openblas():
    """(get_num_threads, set_num_threads, LAPACKE_dsyevd,
    LAPACKE_dsyevd_2stage) of the OpenBLAS that numpy ships, the
    64-bit-integer scipy-openblas build; None when there is none.  The
    2-stage driver is None where the build lacks it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        try:
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
            evd = lib.scipy_LAPACKE_dsyevd64_
        except AttributeError:
            continue
        evd2 = getattr(lib, "scipy_LAPACKE_dsyevd_2stage64_", None)
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        # (layout, jobz, uplo, n, a, lda, w) -> info, lapack_int = int64
        for f in filter(None, (evd, evd2)):
            f.restype = ctypes.c_int64
            f.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                          ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                          ctypes.c_void_p]
        return get, put, evd, evd2
    return None


_OPENBLAS = _openblas()
_COL_MAJOR = 102
# on one thread dsyevd_2stage's band reduction (BLAS-3) beats dsyevd's
# memory-bound tridiagonal reduction from about this order; on two threads
# it loses up to n = 1500 (crossover table in CHANGES.md)
_TWO_STAGE_FROM_N = 1100


def blas_threads() -> int | None:
    """Size of numpy's OpenBLAS thread pool; None where it cannot be read."""
    return None if _OPENBLAS is None else _OPENBLAS[0]()


def _set_blas_threads(k: int) -> None:
    """Resize numpy's OpenBLAS pool, for the whole process (binding needed)."""
    _OPENBLAS[1](k)


def _two_stage_from_n() -> int | None:
    """The order from which an in-place solve on a one-thread pool is
    `dsyevd_2stage`; None where the binding lacks that driver."""
    return _TWO_STAGE_FROM_N if _OPENBLAS and _OPENBLAS[3] else None


def eigenvalues_sym(M: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    With `overwrite`, a float64 contiguous M is the solver's workspace and
    holds garbage afterwards; otherwise `np.linalg.eigvalsh` solves a copy.
    The in-place solve reads the lower triangle.  Below order
    `_two_stage_from_n()`, or on a BLAS pool of more than one thread, it is
    LAPACK's `dsyevd`, as `eigvalsh` calls it, and gives `eigvalsh`'s bits.
    From that order on a one-thread pool it is `dsyevd_2stage`: each
    eigenvalue is within n * eps * max|eigenvalue| of `eigvalsh`'s, and
    the same M gives the same bits on one host.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or n < 1:
        raise ValueError("square matrix of positive order required")
    # strip r compares rows r.. of the upper triangle with columns r.. of the
    # lower one; NaN equals nothing, so a NaN anywhere fails
    if not all(np.array_equal(M[r:r + _STRIP, r:], M[r:, r:r + _STRIP].T)
               for r in range(0, n, _STRIP)):
        raise ValueError("matrix is not exactly symmetric")
    if not (_OPENBLAS and overwrite and M.flags.writeable
            and (M.flags.c_contiguous or M.flags.f_contiguous)):
        try:
            return np.linalg.eigvalsh(M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SpectralError(f"eigensolver did not converge: {exc}") \
                from exc
    # M is exactly symmetric, so its memory read column-major is M itself
    cut = _two_stage_from_n()
    two_stage = cut is not None and n >= cut and blas_threads() == 1
    w = np.empty(n)
    info = _OPENBLAS[3 if two_stage else 2](_COL_MAJOR, b"N", b"L", n,
                                            M.ctypes.data, n, w.ctypes.data)
    if info > 0:  # pragma: no cover - LAPACK failure
        raise SpectralError(f"eigensolver did not converge (info {info})")
    if info < 0:  # pragma: no cover - a bad argument or no memory: a bug
        raise RuntimeError(f"LAPACKE solve failed (info {info})")
    return w


def eigenvalues_bipartite(B: np.ndarray) -> np.ndarray:
    """All eigenvalues of [[0, B], [B^T, 0]], sorted ascending.

    For an n1 x n2 block B they are -sigma(B), |n1 - n2| exact zeros and
    sigma(B), from one SVD of B.
    """
    B = np.asarray(B, dtype=float)
    s = singular_values(B)
    # 0.0 - s, not -s: a zero singular value must not become -0.0
    return np.concatenate((0.0 - s, np.zeros(abs(B.shape[0] - B.shape[1])),
                           s[::-1]))


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, nonincreasing."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("matrix required")
    try:
        return np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SpectralError(f"SVD did not converge: {exc}") from exc


@dataclass(frozen=True)
class StepCDF:
    """Right-continuous step CDF with equal mass 1/n at each support point."""

    points: np.ndarray  # sorted

    @property
    def n(self) -> int:
        return self.points.size

    def __call__(self, x):
        return np.searchsorted(self.points, x, side="right") / self.n

    def left_limit(self, x):
        return np.searchsorted(self.points, x, side="left") / self.n


def esd(eigs: np.ndarray) -> StepCDF:
    """Empirical spectral distribution of a spectrum."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    if eigs.size < 1:
        raise ValueError("empty spectrum")
    return StepCDF(points=eigs)


def empirical_moment(eigs: np.ndarray, k: int) -> float:
    """k-th moment of the ESD: mean of eigenvalue^k."""
    if not 0 <= k <= 64:
        raise ValueError("moment order must be in 0..64")
    eigs = np.asarray(eigs, dtype=float)
    if k == 0:
        return 1.0
    return float(np.mean(eigs**k))


def stieltjes_empirical(eigs: np.ndarray, z: complex) -> complex:
    """Empirical Stieltjes transform mean(1/(eig - z)), Im z > 0."""
    if z.imag <= 0:
        raise ValueError("Stieltjes transform requires Im z > 0")
    eigs = np.asarray(eigs, dtype=float)
    return complex(np.mean(1.0 / (eigs - z)))


def ks_distance(F: StepCDF, G) -> float:
    """sup |F - G| for a step CDF F against a (continuous) CDF G.

    Evaluated at F's jump points from both sides; exact when G is
    continuous, since |F - G| attains its sup at a jump of F.
    """
    pts = F.points
    g = np.asarray(G(pts), dtype=float)
    return float(max(np.max(np.abs(F(pts) - g)),
                     np.max(np.abs(F.left_limit(pts) - g))))


def esd_sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sup-norm of the difference of two ESD step functions, up to rounding.

    a and b are computed spectra of symmetric matrices of order n.  By
    Weyl's inequality on the solve's backward error, each computed
    eigenvalue lies within eps = n * machine-eps * ||M||_2 of an exact one,
    with ||M||_2 = max|eigenvalue|; eps is the larger of the two spectra's.
    Returned is

        max(0, max_i F_a(a_i) - F_b(a_i + 2 eps),
               max_j F_b(b_j) - F_a(b_j + 2 eps)),

    which never exceeds the sup distance of the exact spectra, so an exact
    zero of both that comes out as +-1e-13 with random signs counts for
    nothing, while a gap far above eps counts in full.  With eps = 0 it is
    the plain sup distance of a and b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise ValueError("spectra must have equal orders")
    Fa, Fb = esd(a), esd(b)
    eps = a.size * np.finfo(float).eps * max(np.max(np.abs(a)),
                                             np.max(np.abs(b)))
    return float(max(0.0, np.max(Fa(a) - Fb(a + 2 * eps)),
                     np.max(Fb(b) - Fa(b + 2 * eps))))


def numeric_rank(M: np.ndarray) -> int:
    """Number of singular values above 1e-10 * order * max|entry|."""
    M = np.asarray(M, dtype=float)
    scale = np.max(np.abs(M)) if M.size else 0.0
    if scale == 0.0:
        return 0
    return int(np.sum(singular_values(M) > 1e-10 * M.shape[0] * scale))


def check_rank_inequality(U: np.ndarray, V: np.ndarray) -> dict:
    """sup |ESD(U) - ESD(V)| <= rank(U - V)/n, reported numerically."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != V.shape:
        raise ValueError("matrices must have equal orders")
    n = U.shape[0]
    lhs = esd_sup_distance(eigenvalues_sym(U), eigenvalues_sym(V))
    rhs = numeric_rank(U - V) / n
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}


def check_stieltjes_perturbation(A: np.ndarray, D: np.ndarray,
                                 z: complex) -> dict:
    """|S_A(z) - S_{A+D}(z)| <= Im(z)^-2 * ||D||_1 (induced 1-norm)."""
    if z.imag <= 0:
        raise ValueError("Im z > 0 required")
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    lhs = abs(stieltjes_empirical(eigenvalues_sym(A), z)
              - stieltjes_empirical(eigenvalues_sym(A + D), z))
    rhs = float(np.max(np.sum(np.abs(D), axis=0))) / z.imag**2
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + 1e-12}
