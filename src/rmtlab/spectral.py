"""Eigen-analysis of symmetric matrices.

Spectra, empirical spectral distributions (step CDFs), empirical moments,
empirical Stieltjes transforms, singular values, and numeric checks of the
rank inequality and the Stieltjes perturbation bound.

Where numpy ships OpenBLAS, its thread-pool size and LAPACKE `dsyevd` are
reached through ctypes: `blas_threads` reads the pool size and a symmetric
solve can overwrite its input instead of copying it.  Elsewhere the pool
size is unknown (None) and every solve is `np.linalg.eigvalsh`.
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
    """(get_num_threads, set_num_threads, LAPACKE_dsyevd) of the OpenBLAS
    that numpy ships, the 64-bit-integer scipy-openblas build; None when
    there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        try:
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
            evd = lib.scipy_LAPACKE_dsyevd64_
        except AttributeError:
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        # (layout, jobz, uplo, n, a, lda, w) -> info, lapack_int = int64
        evd.restype = ctypes.c_int64
        evd.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char,
                        ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
                        ctypes.c_void_p]
        return get, put, evd
    return None


_OPENBLAS = _openblas()
_COL_MAJOR = 102


def blas_threads() -> int | None:
    """Size of numpy's OpenBLAS thread pool; None where it cannot be read."""
    return None if _OPENBLAS is None else _OPENBLAS[0]()


def _set_blas_threads(k: int) -> None:
    """Resize numpy's OpenBLAS pool, for the whole process (binding needed)."""
    _OPENBLAS[1](k)


def eigenvalues_sym(M: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    With `overwrite`, a float64 contiguous M is the solver's workspace and
    holds garbage afterwards; otherwise the solve works on a copy.  Both
    are LAPACK's `dsyevd` on the lower triangle, as `np.linalg.eigvalsh`
    calls it, so they give the same bits.
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
    if _OPENBLAS is None:
        try:
            return np.linalg.eigvalsh(M)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SpectralError(f"eigensolver did not converge: {exc}") \
                from exc
    if not (overwrite and M.flags.writeable
            and (M.flags.c_contiguous or M.flags.f_contiguous)):
        M = np.array(M, order="F")
    # M is exactly symmetric, so its memory read column-major is M itself
    w = np.empty(n)
    info = _OPENBLAS[2](_COL_MAJOR, b"N", b"L", n, M.ctypes.data, n,
                        w.ctypes.data)
    if info > 0:  # pragma: no cover - LAPACK failure
        raise SpectralError(f"eigensolver did not converge (info {info})")
    if info < 0:  # pragma: no cover - a bad argument or no memory: a bug
        raise RuntimeError(f"LAPACKE_dsyevd failed (info {info})")
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
    """sup-norm of the difference of two ESD step functions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise ValueError("spectra must have equal orders")
    Fa, Fb = esd(a), esd(b)
    pts = np.union1d(Fa.points, Fb.points)
    return float(max(np.max(np.abs(Fa(pts) - Fb(pts))),
                     np.max(np.abs(Fa.left_limit(pts) - Fb.left_limit(pts)))))


def numeric_rank(M: np.ndarray, cutoff: float | None = None) -> int:
    """Number of singular values above a scale-aware cutoff."""
    M = np.asarray(M, dtype=float)
    scale = np.max(np.abs(M)) if M.size else 0.0
    if scale == 0.0:
        return 0
    if cutoff is None:
        cutoff = 1e-10 * M.shape[0] * scale
    return int(np.sum(singular_values(M) > cutoff))


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
