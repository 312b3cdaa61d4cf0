"""Random graphs on complete multipartite hosts and their energy.

Graph energy is the sum of the absolute eigenvalues of the adjacency
matrix.  For cross-part Bernoulli(p) edges the semicircle limits predict
E = n^(3/2) (8/(3 pi)) sqrt(c p (1-p)) with c depending on the part
structure; for hosts with a few large parts only a sandwich bound is
available, certified here through the Ky Fan singular-value inequality.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ensemble import (EnsembleError, EntryLaw, PartitionSpec,
                       _symmetric_fill)
from .spectral import eigenvalues_sym, singular_values

# stream tags for counter_uniforms so graph edges and decomposition fills
# never reuse the same uniforms
_EDGE_STREAM = 0
_FILL_STREAM = 1
_ZERO = EntryLaw.constant_zero()


def sample_graph(partition: PartitionSpec, p: float, seed: int,
                 replicate: int = 0) -> np.ndarray:
    """A 0/1 symmetric adjacency in which cross-part pairs appear
    independently with probability p.

    Intra-part pairs and the diagonal are always absent (the host is the
    complete multipartite graph); with singleton parts this is the ordinary
    binomial random graph.  Deterministic per (seed, replicate).
    """
    if not 0.0 <= p <= 1.0:
        raise EnsembleError("edge probability outside [0, 1]")
    return _symmetric_fill(partition, _ZERO.from_uniform,
                           EntryLaw.bernoulli(p).from_uniform, seed, replicate,
                           stream=_EDGE_STREAM, diagonal=False)


def graph_energy(A: np.ndarray, overwrite: bool = False) -> float:
    """Sum of absolute adjacency eigenvalues; with `overwrite` the solve may
    use A as its workspace (see eigenvalues_sym)."""
    return float(np.sum(np.abs(eigenvalues_sym(A, overwrite=overwrite))))


def singular_value_sum(M: np.ndarray) -> float:
    """Energy of an arbitrary square matrix: sum of singular values."""
    return float(np.sum(singular_values(M)))


def _leading_energy(n: int, p: float, c: float = 1.0) -> float:
    """n^(3/2) (8/(3 pi)) sqrt(c p (1-p)), the semicircle leading term."""
    if not 0.0 < p < 1.0:
        raise EnsembleError("prediction requires 0 < p < 1")
    return n**1.5 * (8.0 / (3.0 * math.pi)) * math.sqrt(c * p * (1.0 - p))


def predicted_energy_gnp(n: int, p: float) -> float:
    """Leading term n^(3/2) (8/(3 pi)) sqrt(p(1-p)) for the binomial graph."""
    return _leading_energy(n, p)


def predicted_energy_multipartite(n: int, m: int, p: float) -> float:
    """Leading term n^(3/2) (8/(3 pi)) sqrt((m-1)/m * p(1-p)) for balanced hosts."""
    if m < 2:
        raise EnsembleError("at least two parts required")
    return _leading_energy(n, p, (m - 1) / m)


def check_large_parts(m: int, large_part_indices) -> None:
    """Raise unless there is a large part, each in 0..m-1 and none twice."""
    if not large_part_indices:
        raise EnsembleError("at least one large part required")
    if any(not 0 <= i < m for i in large_part_indices):
        raise EnsembleError("large part index out of range")
    if len(set(large_part_indices)) < len(large_part_indices):
        raise EnsembleError("large part index repeated")


def energy_bounds_unbalanced(n: int, fractions, large_part_indices,
                             p: float) -> dict:
    """Sandwich bounds (1 -+ sum nu_i^(3/2)) * leading term, sum over large parts."""
    fracs = [float(f) for f in fractions]
    check_large_parts(len(fracs), large_part_indices)
    s = sum(fracs[i] ** 1.5 for i in large_part_indices)
    lead = _leading_energy(n, p)
    return {"lower": (1.0 - s) * lead, "upper": (1.0 + s) * lead}


def kyfan_check(X: np.ndarray, Y: np.ndarray) -> dict:
    """Subadditivity of singular value sums: E(X) + E(Y) >= E(X + Y)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("two square matrices of equal order required")
    return _kyfan_verdict(singular_value_sum(X) + singular_value_sum(Y),
                          singular_value_sum(X + Y))


def _kyfan_verdict(lhs: float, rhs: float) -> dict:
    """lhs >= rhs up to a relative 1e-9 of the larger side (at least 1)."""
    scale = max(lhs, rhs, 1.0)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - 1e-9 * scale}


def _correction(partition: PartitionSpec, large, p: float, seed: int,
                replicate: int) -> np.ndarray:
    """D: Bernoulli(p) on the strict-upper pairs of each large part,
    mirrored, from its own stream; 0 elsewhere."""
    D = _symmetric_fill(partition, EntryLaw.bernoulli(p).from_uniform,
                        _ZERO.from_uniform, seed, replicate,
                        stream=_FILL_STREAM, diagonal=False)
    # D is 0 across parts: zeroing the small parts' rows zeroes their blocks
    D[~np.isin(partition.part_labels(), list(large))] = 0.0
    return D


def _part_bounds(partition: PartitionSpec) -> list[tuple[int, int]]:
    """(lo, hi) index range of each part, in order."""
    ends = list(itertools.accumulate(partition.sizes))
    return list(zip([0] + ends[:-1], ends))


def _is_block_diagonal(D: np.ndarray, partition: PartitionSpec,
                       large) -> bool:
    """D is zero outside the diagonal blocks of the large parts."""
    for a, (lo, hi) in enumerate(_part_bounds(partition)):
        if np.any(D[lo:hi, hi:]) or np.any(D[hi:, lo:hi]) \
                or (a not in large and np.any(D[lo:hi, lo:hi])):
            return False
    return True


def energy_decomposition_check(partition: PartitionSpec, large_part_indices,
                               p: float, seed: int,
                               replicate: int = 0) -> dict:
    """Fill the large diagonal blocks and certify the energy sandwich.

    A is a multipartite sample; D fills the strict-upper intra pairs of
    large parts with independent Bernoulli(p) (diagonal stays 0) and must
    be block-diagonal on the large parts; X = A + D keeps A's cross entries.
    Ky Fan gives E(X) - E(D) <= E(A) <= E(X) + E(D).  All three matrices
    are symmetric with 0/1 entries, so A + D == X and X - D == A hold
    exactly and each energy is one symmetric eigen-solve: both Ky Fan
    sums follow from E(A), E(X) and E(D).  Once D is confirmed
    block-diagonal, E(D) is the sum of its large blocks' energies; a D
    that fails the check is solved whole.

    Each solve overwrites its matrix.  Once checked, D is kept as its large
    blocks; X is built in a fresh sample of A, and A is drawn again for its
    own solve, so one n x n matrix and D's blocks are held at a time.
    """
    check_large_parts(partition.m, large_part_indices)
    large = set(large_part_indices)
    D = _correction(partition, large, p, seed, replicate)
    block_diagonal = _is_block_diagonal(D, partition, large)
    # (index range, block) pairs that hold every entry of D
    if block_diagonal:
        blocks = [(slice(lo, hi), D[lo:hi, lo:hi].copy())
                  for a, (lo, hi) in enumerate(_part_bounds(partition))
                  if a in large]
    else:
        blocks = [(slice(None), D)]
    del D
    X = sample_graph(partition, p, seed, replicate)
    for s, block in blocks:
        X[s, s] += block
    eX = graph_energy(X, overwrite=True)
    del X
    eD = sum((graph_energy(block, overwrite=True) for _, block in blocks),
             0.0)
    del blocks
    eA = graph_energy(sample_graph(partition, p, seed, replicate),
                      overwrite=True)
    upper = _kyfan_verdict(eA + eD, eX)  # E(A) + E(D) >= E(A + D)
    lower = _kyfan_verdict(eX + eD, eA)  # E(X) + E(-D) >= E(X - D)
    return {
        "energy_A": eA,
        "energy_X": eX,
        "energy_D": eD,
        "block_diagonal": block_diagonal,
        "kyfan_upper": upper,
        "kyfan_lower": lower,
        "holds": block_diagonal and upper["holds"] and lower["holds"],
    }
