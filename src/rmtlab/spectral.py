"""Eigen-analysis of symmetric matrices.

Spectra, empirical spectral distributions (step CDFs), empirical moments,
empirical Stieltjes transforms, singular values, and numeric checks of the
rank inequality and the Stieltjes perturbation bound.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np


class SpectralError(RuntimeError):
    """Eigen/singular value computation failed to converge."""


# One LAPACK solve at a time, alone on the whole BLAS thread pool, so a caller
# that solves on threads of its own gets the spectra one thread would get.
_SOLVE_LOCK = threading.Lock()


def eigenvalues_sym(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n) or n < 1:
        raise ValueError("square matrix of positive order required")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not exactly symmetric")
    try:
        with _SOLVE_LOCK:
            return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SpectralError(f"eigensolver did not converge: {exc}") from exc


def eigenvalues_two_part(M: np.ndarray, n1: int) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending.

    When both diagonal blocks of the split after row n1 are zero, M is
    [[0, B], [B^T, 0]] and its spectrum is -sigma(B), |n1 - n2| exact zeros
    and sigma(B), from one SVD of the n1 x n2 block B.  Any other matrix
    goes to `eigenvalues_sym`.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if (M.shape != (n, n) or not 0 < n1 < n
            or M[:n1, :n1].any() or M[n1:, n1:].any()):
        return eigenvalues_sym(M)
    B = M[:n1, n1:]
    if not np.array_equal(B, M[n1:, :n1].T):
        raise ValueError("matrix is not exactly symmetric")
    s = singular_values(B)
    # 0.0 - s, not -s: a zero singular value must not become -0.0
    return np.concatenate((0.0 - s, np.zeros(abs(n - 2 * n1)), s[::-1]))


def singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, nonincreasing."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("matrix required")
    try:
        with _SOLVE_LOCK:
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
