"""Random graphs on complete multipartite hosts and their energy.

Graph energy is the sum of the absolute eigenvalues of the adjacency
matrix.  For cross-part Bernoulli(p) edges the semicircle limits predict
E = n^(3/2) (8/(3 pi)) sqrt(c p (1-p)) with c depending on the part
structure; for hosts with a few large parts only a sandwich bound is
available, certified here through the Ky Fan singular-value inequality
after filling the empty diagonal blocks of the large parts with a
correction D that is zero elsewhere by construction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ensemble import (EnsembleError, EnsembleSpec, PartitionSpec,
                       _mirror, _upper_fill, _upper_strips, _zeros)
from .spectral import eigenvalues_sym, singular_values

# stream tags for _philox so graph edges and decomposition fills
# never reuse the same uniforms
_EDGE_STREAM = 0
_FILL_STREAM = 1


def sample_graph(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """One adjacency of the graph ensemble `spec`: with a constant_zero
    intra law and a bernoulli(p) cross law, cross-part pairs are edges
    independently with probability p on the complete multipartite host
    (with singleton parts, the binomial random graph).  Unlike in
    sample_matrix, the diagonal takes no stream entries and is 0, so graph
    records replay here.  Deterministic per (spec, replicate).
    """
    return _mirror(_sample_graph_upper(spec, replicate))


def _sample_graph_upper(spec: EnsembleSpec, replicate: int = 0) \
        -> np.ndarray:
    """The upper triangle of sample_graph(spec, replicate), what the run
    path's solves read (see ensemble._sample_upper)."""
    return _upper_fill(spec.partition, spec.law_intra.from_uniform,
                       spec.law_cross.from_uniform, spec.seed, replicate,
                       stream=_EDGE_STREAM, diagonal=False)


def graph_energy(A: np.ndarray, overwrite: bool = False, *,
                 upper: bool = False) -> float:
    """Sum of absolute adjacency eigenvalues; with `overwrite` the solve may
    use A as its workspace, and with `upper` it reads A's upper triangle
    alone (see eigenvalues_sym)."""
    return float(np.sum(np.abs(eigenvalues_sym(A, overwrite=overwrite,
                                               upper=upper))))


def leading_energy(n: int, p: float, c: float = 1.0) -> float:
    """n^(3/2) (8/(3 pi)) sqrt(c p (1-p)), the semicircle leading term:
    c = 1 for the binomial graph, (m-1)/m for m balanced parts."""
    if not 0.0 < p < 1.0:
        raise EnsembleError("prediction requires 0 < p < 1")
    return n**1.5 * (8.0 / (3.0 * math.pi)) * math.sqrt(c * p * (1.0 - p))


def check_large_parts(m: int, large_part_indices) -> None:
    """Raise unless there is a large part, each in 0..m-1 and none twice."""
    if not large_part_indices:
        raise EnsembleError("at least one large part required")
    if any(not 0 <= i < m for i in large_part_indices):
        raise EnsembleError("large part index out of range")
    if len(set(large_part_indices)) < len(large_part_indices):
        raise EnsembleError("large part index repeated")


def energy_bounds_unbalanced(spec: EnsembleSpec, large_part_indices) -> dict:
    """Sandwich bounds (1 -+ sum nu_i^(3/2)) * leading term, sum over large
    parts, for the graph ensemble `spec` with cross-part edge probability
    p, the mean of its cross law."""
    fracs = spec.partition.fractions
    check_large_parts(len(fracs), large_part_indices)
    s = sum(fracs[i] ** 1.5 for i in large_part_indices)
    lead = leading_energy(spec.n, float(spec.law_cross.mean))
    return {"lower": (1.0 - s) * lead, "upper": (1.0 + s) * lead}


def kyfan_check(X: np.ndarray, Y: np.ndarray) -> dict:
    """Subadditivity of singular value sums: E(X) + E(Y) >= E(X + Y), where
    E(M), the energy of a square matrix, is the sum of its singular values."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise ValueError("two square matrices of equal order required")
    eX, eY, eXY = (float(np.sum(singular_values(M))) for M in (X, Y, X + Y))
    return _kyfan_verdict(eX + eY, eXY)


def _kyfan_verdict(lhs: float, rhs: float) -> dict:
    """lhs >= rhs up to a relative 1e-9 of the larger side (at least 1)."""
    scale = max(lhs, rhs, 1.0)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs - 1e-9 * scale}


def energy_decomposition_check(spec: EnsembleSpec, large_part_indices,
                               replicate: int = 0) -> dict:
    """Fill the large diagonal blocks and certify the energy sandwich.

    A is sample_graph(spec, replicate), with no edge inside a part.  D is
    zero outside the diagonal blocks of the large parts; each block is the
    same block of one fill of the cross law over every strict-upper pair,
    drawn on its own stream (diagonal 0), and D is symmetric.  X = A + D
    keeps A's cross entries and fills the empty large blocks, which needs an
    A with no intra entries: an intra law that is not 0 raises
    EnsembleError.
    Ky Fan gives E(X) - E(D) <= E(A) <= E(X) + E(D).  All three matrices
    are symmetric with 0/1 entries, so A + D == X and X - D == A hold
    exactly and each energy is one symmetric eigen-solve: both Ky Fan
    sums follow from E(A), E(X) and E(D), and E(D) is the sum of its
    blocks' energies.  `block_diagonal` is true by construction.

    Each solve overwrites its matrix and reads its upper triangle alone,
    which is all that is drawn, copied and added: the strips of
    _upper_strips.  The fill is dropped once D's blocks are copied out; X
    is built in a fresh sample of A, and A is drawn again for its own
    solve, so one n x n matrix and D's blocks are held at a time.
    """
    if spec.law_intra.raw_moment(2) != 0:
        raise EnsembleError("the decomposition needs a zero intra law")
    check_large_parts(spec.partition.m, large_part_indices)
    large = set(large_part_indices)
    n, cross = spec.n, spec.law_cross.from_uniform
    # one part, so each strip takes one map
    fill = _upper_fill(PartitionSpec(n, (n,)), cross, cross, spec.seed,
                       replicate, stream=_FILL_STREAM, diagonal=False)
    ends = list(itertools.accumulate(spec.partition.sizes))
    blocks = []
    for a, (lo, hi) in enumerate(zip([0] + ends[:-1], ends)):
        if a in large:
            block = _zeros((hi - lo, hi - lo))
            for s in _upper_strips(hi - lo):  # no view of fill outlives it
                block[s] = fill[lo:hi, lo:hi][s]
            blocks.append((slice(lo, hi), block))
    del fill
    X = _sample_graph_upper(spec, replicate)
    for span, block in blocks:
        for s in _upper_strips(len(block)):
            X[span, span][s] += block[s]
    eX = graph_energy(X, overwrite=True, upper=True)
    del X
    eD = sum((graph_energy(block, overwrite=True, upper=True)
              for _, block in blocks), 0.0)
    del blocks
    eA = graph_energy(_sample_graph_upper(spec, replicate), overwrite=True,
                      upper=True)
    upper = _kyfan_verdict(eA + eD, eX)  # E(A) + E(D) >= E(A + D)
    lower = _kyfan_verdict(eX + eD, eA)  # E(X) + E(-D) >= E(X - D)
    return {
        "energy_A": eA,
        "energy_X": eX,
        "energy_D": eD,
        "block_diagonal": True,
        "kyfan_upper": upper,
        "kyfan_lower": lower,
        "holds": upper["holds"] and lower["holds"],
    }
