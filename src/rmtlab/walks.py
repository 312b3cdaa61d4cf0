"""Exact combinatorial oracles for the moment method.

Closed walks of length k in the complete graph (loops allowed) are
canonicalized by first-occurrence labeling; counting the "good" ones (those
whose expected entry product is nonzero) yields the walk-count function
g(v, k).  One sum over shapes and maps of their labels to parts, of at
most 2*10^6 terms, gives exact finite-n expected trace moments at any n
as rationals.  These exact rationals are the ground truth the floating
formulas are judged against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .ensemble import EnsembleSpec

_MAX_K = 12
_MAX_TERMS = 2 * 10**6  # shapes x part maps one _walk_sum may visit


class WalkError(ValueError):
    pass


def walk_edges(shape) -> Counter:
    """Multiset of unordered edges (loops allowed) of a closed walk."""
    steps = tuple(shape)
    return Counter((a, b) if a <= b else (b, a)
                   for a, b in zip(steps, steps[1:] + steps[:1]))


def enumerate_shapes(k: int, v: int) -> list[tuple[int, ...]]:
    """All canonical closed walk shapes of length k on exactly v labels.

    A shape is an index sequence (i_1,...,i_k) with i_1 = 1 and labels
    introduced in order 1, 2, 3, ...; the walk closes with the edge
    (i_k, i_1).
    """
    if not 1 <= v <= k <= _MAX_K:
        raise WalkError(f"need 1 <= v <= k <= {_MAX_K}")
    shapes: list[tuple[int, ...]] = []
    _extend_shapes([1], 1, k, v, shapes)
    return shapes


def _extend_shapes(seq: list, used: int, k: int, v: int, shapes: list) -> None:
    """Append to `shapes`, in lexicographic order, every completion of seq.

    Kept at module level: a nested function that calls itself forms a
    reference cycle, which keeps `shapes` alive until a full collection.
    """
    if len(seq) == k:
        if used == v:
            shapes.append(tuple(seq))
        return
    # prune: remaining slots must be able to introduce the missing labels
    if used + (k - len(seq)) < v:
        return
    for nxt in range(1, min(used + 1, v) + 1):
        seq.append(nxt)
        _extend_shapes(seq, max(used, nxt), k, v, shapes)
        seq.pop()


def is_good_zero_mean(shape) -> bool:
    """Good under zero-mean laws: every edge multiplicity at least 2."""
    return 1 not in walk_edges(shape).values()


def _walk_sum(k: int, v: int, m: int, weight, factor) -> Fraction:
    """Sum over shapes of length k on v labels and maps of labels to parts.

    The term of `parts` (the part, 0..m-1, of labels 1..v) is weight(parts)
    times factor(same_part, multiplicity) for each distinct edge.  A shape
    with an edge whose factor is 0 wherever it falls is skipped, which
    keeps zero-mean laws cheap.  Kept shapes times m^v above _MAX_TERMS
    raise WalkError before any map is enumerated.
    """
    kept = []
    for shape in enumerate_shapes(k, v):
        edges = [(a - 1, b - 1, factor(True, c), factor(False, c))
                 for (a, b), c in walk_edges(shape).items()]
        if all(f_in or (a != b and f_out) for a, b, f_in, f_out in edges):
            kept.append(edges)
    if len(kept) * m**v > _MAX_TERMS:
        raise WalkError(f"{len(kept)} shapes x {m}^{v} part maps exceed "
                        f"the budget of {_MAX_TERMS} terms")
    total = Fraction(0)
    for parts in itertools.product(range(m), repeat=v):
        w = weight(parts)
        if not w:
            continue
        for edges in kept:
            total += w * math.prod(f_in if parts[a] == parts[b] else f_out
                                   for a, b, f_in, f_out in edges)
    return total


def exact_trace_moment_by_order(spec: EnsembleSpec, k: int) -> dict:
    """Order-v contributions S_{v,k,n} to the expected trace moment.

    S_{v,k,n} sums 2^-k n^(-1-k/2) E(a_{i1 i2} ... a_{ik i1}) over index
    tuples of order v, as a walk sum over shapes and part maps.  Only
    orders with a nonzero sum are returned.  Values are exact rationals up
    to the n^(-k/2) scaling, which is folded in exactly for even k and left
    as a float factor for odd k (where zero-mean contributions vanish).
    """
    if k < 1:
        raise WalkError("k must be at least 1")
    n, sizes = spec.n, spec.partition.sizes
    intra_m = [spec.law_intra.raw_moment(j) for j in range(k + 1)]
    cross_m = [spec.law_cross.raw_moment(j) for j in range(k + 1)]

    def weight(parts):  # distinct indices of its part for each label
        return math.prod(math.perm(sizes[a], parts.count(a))
                         for a in set(parts))

    sums = {v: _walk_sum(k, v, len(sizes), weight,
                         lambda same, j: (intra_m if same else cross_m)[j])
            for v in range(1, min(k, n) + 1)}
    scale = Fraction(1, 2**k * n ** (1 + k // 2)) if k % 2 == 0 \
        else 1.0 / (2**k * float(n) ** (1 + k / 2))
    return {v: s * scale for v, s in sums.items() if s}


def exact_expected_trace_moment(spec: EnsembleSpec, k: int):
    """Exact E[M_{k,n}] = E[tr(B^k)]/n, the sum of the order contributions."""
    return sum(exact_trace_moment_by_order(spec, k).values(),
               Fraction(0) if k % 2 == 0 else 0.0)


__all__ = [
    "WalkError", "walk_edges", "enumerate_shapes", "is_good_zero_mean",
    "exact_trace_moment_by_order", "exact_expected_trace_moment",
]
