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

from .ensemble import (EnsembleError, EnsembleSpec, _mirror, _stream_block,
                       _upper_fill, _upper_strips)
from .spectral import eigenvalues_sym, singular_values


def sample_graph(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """One adjacency of the graph ensemble `spec`: with a constant_zero
    intra law and a bernoulli(p) cross law, cross-part pairs are edges
    independently with probability p on the complete multipartite host
    (with singleton parts, the binomial random graph).  Unlike in
    sample_matrix, the diagonal takes no stream entries and is 0, so graph
    records replay here.  Deterministic per (spec, replicate).
    """
    return _mirror(_upper_fill(spec, replicate, diagonal=False))


def graph_energy(A: np.ndarray, *, upper: bool = False) -> float:
    """Sum of absolute adjacency eigenvalues; with `upper`, A's upper
    triangle is the adjacency, and the solve may use A as its workspace
    (see eigenvalues_sym)."""
    return float(np.sum(np.abs(eigenvalues_sym(A, upper=upper))))


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
    symmetric and zero outside the diagonal blocks of the large parts; each
    block is the same block of one upper triangle of the cross law over
    every strict-upper pair, on a stream of its own (diagonal 0).  X = A + D
    keeps A's cross entries and fills the empty large blocks, which needs an
    A with no intra entries: an intra law that is not 0 raises
    EnsembleError.
    Ky Fan gives E(X) - E(D) <= E(A) <= E(X) + E(D).  All three matrices
    are symmetric with 0/1 entries, so A + D == X and X - D == A hold
    exactly and each energy is one symmetric eigen-solve: both Ky Fan
    sums follow from E(A), E(X) and E(D), and E(D) is the sum of its
    blocks' energies.  `block_diagonal` is true by construction.

    Each solve overwrites its matrix, an upper triangle: all that is drawn
    and added are the strips of _upper_strips.  D's blocks are copied
    straight out of their stream (_stream_block); X is built in a fresh
    sample of A, and A is drawn again for its own solve, so one n x n
    matrix and D's blocks are held at a time.
    """
    if spec.law_intra.raw_moment(2) != 0:
        raise EnsembleError("the decomposition needs a zero intra law")
    check_large_parts(spec.partition.m, large_part_indices)
    ends = [0, *itertools.accumulate(spec.partition.sizes)]
    spans = [slice(ends[a], ends[a + 1]) for a in sorted(large_part_indices)]
    # on stream 1, D's blocks share no uniform with the edges (stream 0)
    blocks = [(s, _stream_block(spec, replicate, s, s, stream=1,
                                diagonal=False)) for s in spans]
    X = _upper_fill(spec, replicate, diagonal=False)
    for span, block in blocks:
        for s in _upper_strips(len(block)):
            X[span, span][s] += block[s]
    eX = graph_energy(X, upper=True)
    del X
    eD = sum((graph_energy(block, upper=True) for _, block in blocks), 0.0)
    del blocks
    eA = graph_energy(_upper_fill(spec, replicate, diagonal=False),
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
