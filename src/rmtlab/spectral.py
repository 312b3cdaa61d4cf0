"""Eigen-analysis of symmetric matrices.

Spectra, empirical spectral distributions (step CDFs), empirical moments,
empirical Stieltjes transforms, singular values, and numeric checks of the
rank inequality and the Stieltjes perturbation bound.

Where numpy ships OpenBLAS, its thread-pool size and LAPACKE `dsyevd` and
`dsyevd_2stage` are reached through ctypes: `blas_threads` reads the pool
size, and every symmetric solve is one of the two drivers.  ctypes
releases the GIL for the length of the call, so replicate threads solve
side by side.  Where the pool size is unknown (None), every symmetric
solve is `np.linalg.eigvalsh`; every singular-value solve is
`np.linalg.svd` on a copy.  A solve whose values are not all finite (a
NaN or infinite entry that it reads, or an overflow inside the solver)
raises SpectralError.

The solve contract: every symmetric solve reads the upper triangle of its
matrix, diagonal included, and nothing else.  `eigenvalues_sym` checks
that the matrix is exactly symmetric and solves a copy, unless it is
handed the upper triangle alone (`upper=True`, the run path), which may
have anything below it, NaN included, and is solved in place when it is a
writeable C-order float64 array.  Any other triangle, and any checked
matrix, is copied into a C-order array for the same call, so layout moves
no bit.  Below order `_TWO_STAGE_FROM_N`, or on a pool of more than one
thread, the driver is `dsyevd` and gives `eigvalsh`'s bits.  From that
order on a one-thread pool it is `dsyevd_2stage` (full to band to
tridiagonal), whose eigenvalues differ from `eigvalsh`'s in the last bits;
outputs stay a pure function of (config, seed) on one host.

The moments of [[0, B], [B^T, 0]] are traces of powers of B's smaller
Gram matrix G, scaled by 1/(4n) before any power is formed, with no SVD
and no eigensolve (`moments_bipartite`).  On a 640 x 160 Rademacher block
they are within 1e-15 relative of the exact integer traces.  That is fine
for moments, whose sums the large eigenvalues dominate; but a small
singular value loses its relative accuracy when squared, so spectra
(`eigenvalues_bipartite`) keep the SVD.
"""

from __future__ import annotations

import ctypes
import glob
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .ensemble import _zeros


class SpectralError(RuntimeError):
    """Eigen/singular value computation did not converge, or gave values
    that are not finite."""


# rows per strip of the symmetry check; a strip and its transpose stay in cache
_STRIP = 64


class _Binding(NamedTuple):
    """The OpenBLAS that numpy ships, the 64-bit-integer scipy-openblas
    build: its pool size, read and set, and its LAPACKE symmetric
    eigensolvers."""

    get: Callable
    put: Callable
    evd: Callable
    evd2: Callable


def _openblas() -> _Binding | None:
    """The binding of numpy's OpenBLAS; None when there is none.  Only the
    scipy-openblas64 build exports these names, with all of LAPACKE."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        try:
            b = _Binding(lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_,
                         lib.scipy_LAPACKE_dsyevd64_,
                         lib.scipy_LAPACKE_dsyevd_2stage64_)
        except AttributeError:
            continue
        b.get.restype, b.get.argtypes = ctypes.c_int, []
        b.put.restype, b.put.argtypes = None, [ctypes.c_int]
        i64, ptr = ctypes.c_int64, ctypes.c_void_p  # lapack_int = int64
        b.evd.restype = b.evd2.restype = i64
        # (layout, jobz, uplo, n, a, lda, w) -> info
        b.evd.argtypes = b.evd2.argtypes = [
            ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
        return b
    return None


_OPENBLAS = _openblas()
_COL_MAJOR = 102
# on one thread dsyevd_2stage's band reduction (BLAS-3) beats dsyevd's
# memory-bound tridiagonal reduction from about this order; on two threads
# it loses up to n = 1500 (crossover table in CHANGES.md)
_TWO_STAGE_FROM_N = 1100


def blas_threads() -> int | None:
    """Size of numpy's OpenBLAS thread pool; None where it cannot be read."""
    return None if _OPENBLAS is None else _OPENBLAS.get()


def _set_blas_threads(k: int) -> None:
    """Resize numpy's OpenBLAS pool, for the whole process (binding needed)."""
    _OPENBLAS.put(k)


def _lapacke_check(info: int, what: str) -> None:
    """Raise for a LAPACKE status: SpectralError above 0 (no convergence)
    or at -5 (a NaN in the matrix, the fifth argument of both drivers), and
    RuntimeError, a bug, at any other negative status."""
    if info > 0 or info == -5:
        raise SpectralError(f"{what} did not converge (info {info})")
    if info < 0:
        raise RuntimeError(f"LAPACKE solve failed (info {info})")


def eigenvalues_sym(M: np.ndarray, *, upper: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    M must be exactly symmetric, which is checked (a NaN entry fails the
    check).  With `upper`, M's upper triangle (diagonal included) is the
    matrix: nothing is checked and the strictly-lower triangle is never
    read.  Where the binding is present, LAPACKE solves the upper triangle
    (the lower one of M.T, read column-major): in place, leaving garbage,
    when `upper` is given and M, as float64, is writeable and C-contiguous,
    and in a C-order copy otherwise, so M's layout moves no bit.  Without
    the binding `np.linalg.eigvalsh(M.T)` solves a copy.  A NaN in the
    triangle read is a SpectralError.  Below order `_TWO_STAGE_FROM_N`, or
    on a BLAS pool of more than one thread, the LAPACKE driver is `dsyevd`
    and gives `eigvalsh`'s bits.  From that order on a one-thread pool it
    is `dsyevd_2stage`: each eigenvalue is within n * eps * max|eigenvalue|
    of `eigvalsh`'s.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] if M.ndim else 0
    if M.shape != (n, n) or n < 1:
        raise ValueError("square matrix of positive order required")
    # strip r compares rows r.. of the upper triangle with columns r.. of the
    # lower one; NaN equals nothing, so a NaN anywhere fails
    if not upper and not all(
            np.array_equal(M[r:r + _STRIP, r:], M[r:, r:r + _STRIP].T)
            for r in range(0, n, _STRIP)):
        raise ValueError("matrix is not exactly symmetric")
    if _OPENBLAS is None:
        try:
            return _finite(np.linalg.eigvalsh(M.T), "eigensolver")
        except np.linalg.LinAlgError as exc:
            raise SpectralError(f"eigensolver did not converge: {exc}") \
                from exc
    if not (upper and M.flags.writeable and M.flags.c_contiguous):
        M = np.array(M, order="C")
    # M read column-major is M.T, whose lower triangle is M's upper one
    w = np.empty(n)
    evd = _OPENBLAS.evd2 if n >= _TWO_STAGE_FROM_N and blas_threads() == 1 \
        else _OPENBLAS.evd
    _lapacke_check(evd(_COL_MAJOR, b"N", b"L", n, M.ctypes.data, n,
                       w.ctypes.data), "eigensolver")
    return _finite(w, "eigensolver")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, once all are finite.  An infinite entry, or an overflow
    inside a solve, gives NaN, where LAPACKE refuses a NaN entry before
    its solve."""
    if not np.isfinite(values).all():
        raise SpectralError(f"{what} gave values that are not finite")
    return values


def eigenvalues_bipartite(B: np.ndarray) -> np.ndarray:
    """All eigenvalues of [[0, B], [B^T, 0]], sorted ascending.

    For an n1 x n2 block B they are -sigma(B), |n1 - n2| exact zeros and
    sigma(B), from one SVD of B, which is left as it is.
    """
    B = np.asarray(B, dtype=float)
    s = singular_values(B)
    if not sum(B.shape):
        raise ValueError("[[0, B], [B^T, 0]] of positive order required")
    # 0.0 - s, not -s: a zero singular value must not become -0.0
    return np.concatenate((0.0 - s, np.zeros(abs(B.shape[0] - B.shape[1])),
                           s[::-1]))


def moments_bipartite(B: np.ndarray, max_k: int) -> list[float]:
    """[M_0, ..., M_max_k], the ESD moments of [[0, B], [B^T, 0]]/(2 sqrt n),
    n = n1 + n2 for an n1 x n2 block B.

    M_0 is 1.0, every odd moment is exactly 0.0, and M_2j = 2/n * tr(G^j)
    for the Gram matrix G = X^T X / (4n) of order p = min(n1, n2), X being
    B or B^T.  G is one BLAS product (`dsyrk`) into a mapping of its own,
    divided in place by 4n so that its powers stay in range wherever the
    moments do.  The powers P_a = P_(a-1) G are formed in turn, and
    tr(G^(2a-1)) = <P_a, P_(a-1)> and tr(G^(2a)) = <P_a, P_a> are pairwise
    sums of elementwise products (P_0 = I: tr G is G's trace).  No
    eigensolve runs; G and two more p x p arrays are held for any max_k.
    The caller's B is left as it is.  A NaN or infinite entry of B is a
    SpectralError, as in eigenvalues_bipartite; finite entries give the
    moments, overflowed or not.

    On 640 x 160 and 160 x 640 Rademacher blocks M_2 to M_8 are within
    6e-16 relative of the exact integer traces.  max_k = 8 takes one
    product of order p (G^2) and max_k = 64 fifteen, where a symmetric
    solve of G would cost the same for any max_k: on one thread of a
    2-vCPU host the two tie near max_k = 16 for a 1600 x 400 block and
    near max_k = 28 for 640 x 160.
    """
    if not 0 <= max_k <= 64:
        raise ValueError("moment order must be in 0..64")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ValueError("matrix required")
    n = sum(B.shape)
    if not n:
        raise ValueError("[[0, B], [B^T, 0]] of positive order required")
    X = B if B.shape[0] >= B.shape[1] else B.T
    p = X.shape[1]
    G = _zeros((p, p))
    np.matmul(X.T, X, out=G)
    # tr(X^T X) is not finite where an entry of X is not, or it overflows
    if not np.isfinite(np.trace(G)) and not np.isfinite(X).all():
        raise SpectralError("block has entries that are not finite")
    del B, X
    np.divide(G, 4 * n, out=G)
    traces = [float(np.trace(G))]  # tr(G^j), j = 1, 2, ...
    P, free, spare = G, _zeros((p, p)), _zeros((p, p))
    for j in range(2, max_k // 2 + 1):
        if j % 2:  # j = 2a - 1: P_a = P_(a-1) G, then <P_a, P_(a-1)>
            prev, P = P, np.matmul(P, G, out=free)
            free = spare if prev is G else prev
            traces.append(_inner(P, prev, free))
        else:  # j = 2a
            traces.append(_inner(P, P, free))
    return [1.0] + [0.0 if k % 2 else 2.0 * traces[k // 2 - 1] / n
                    for k in range(1, max_k + 1)]


def _inner(A: np.ndarray, C: np.ndarray, out: np.ndarray) -> float:
    """sum(A * C), the product written to out (which may be A or C) and
    summed pairwise; BLAS `ddot` sums in one running total."""
    return float(np.sum(np.multiply(A, C, out=out)))


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, nonincreasing, from `np.linalg.svd` on
    a copy of M."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("matrix required")
    try:
        return _finite(np.linalg.svd(M, compute_uv=False), "SVD")
    except np.linalg.LinAlgError as exc:
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
