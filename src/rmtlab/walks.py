"""Exact combinatorial oracles for the moment method.

Closed walks of length k in the complete graph (loops allowed) are
canonicalized by first-occurrence labeling.  The canonical shapes on v
labels are the restricted growth strings of the set partitions of k
positions into v blocks, S(k, v) of them; they are listed as the rows of
one int8 array.  Counting the "good" ones (those whose expected entry
product is nonzero) yields the walk-count function g(v, k).  One sum over
shapes and maps of their labels to parts, of at most 2*10^6 terms, gives
exact finite-n expected trace moments at any n as rationals; which shapes
it keeps, and so whether it fits its budget, is read from the array before
any per-shape Python work.  These exact rationals are the ground truth the
floating formulas are judged against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .ensemble import EnsembleSpec

_MAX_K = 12
_MAX_TERMS = 2 * 10**6  # shapes x part maps one _walk_sum may visit


class WalkError(ValueError):
    pass


def enumerate_shapes(k: int, v: int) -> np.ndarray:
    """All canonical closed walk shapes of length k on exactly v labels.

    A shape is an index sequence (i_1,...,i_k) with i_1 = 1 and labels
    introduced in order 1, 2, 3, ...; the walk closes with the edge
    (i_k, i_1).  Returns the S(k, v) shapes as the rows of an int8 array,
    in lexicographic order.  They are built one position at a time: each
    prefix, whose largest label is `top`, is extended by the labels
    1..min(top + 1, v), and a prefix goes once top plus the slots left
    cannot reach v.
    """
    if not 1 <= v <= k <= _MAX_K:
        raise WalkError(f"need 1 <= v <= k <= {_MAX_K}")
    labels = np.arange(1, v + 1, dtype=np.int8)
    shapes = labels[:1, None]
    top = labels[:1]
    for left in range(k - 2, -1, -1):  # slots left after the new position
        grown = np.maximum(top[:, None], labels)
        # row-major: prefixes in order, each with its labels ascending
        rows, cols = np.nonzero((labels <= top[:, None] + 1)
                                & (grown + left >= v))
        shapes = np.column_stack((shapes[rows], labels[cols]))
        top = grown[rows, cols]
    return shapes


def _edge_runs(shapes):
    """The distinct edges of closed walks, as runs of equal step edges.

    `shapes` is one walk or a 2-D array of one walk per row, of labels
    >= 0 of any size.  Returns (lo, hi, mult), each with a row per walk
    and a column per step: the row's step edges lo <= hi in sorted order,
    and at the first step of each run of equal edges the run's length,
    that edge's multiplicity, with 0 at the other steps.  lo == hi marks a
    loop.
    """
    s = np.atleast_2d(shapes)
    base = int(s.max(initial=0)) + 1
    s = s.astype(np.min_scalar_type(base * base - 1))
    closing = np.roll(s, -1, axis=1)
    # lo * base + hi is injective on edges with labels below base
    code = np.sort(np.minimum(s, closing) * base + np.maximum(s, closing),
                   axis=1)
    starts = np.ones(code.shape, dtype=bool)
    starts[:, 1:] = code[:, 1:] != code[:, :-1]
    first = np.flatnonzero(starts)  # each row starts with a run
    mult = np.zeros(code.shape, dtype=np.min_scalar_type(code.shape[1]))
    mult.flat[first] = np.diff(first, append=code.size)
    return code // base, code % base, mult


def is_good_zero_mean(shapes):
    """Good under zero-mean laws: every edge multiplicity at least 2.

    One walk gives a bool, a 2-D array of walks a bool per row.
    """
    good = ~(_edge_runs(shapes)[2] == 1).any(axis=1)
    return bool(good[0]) if np.ndim(shapes) == 1 else good


def _kept_edges(k: int, v: int, m: int, factor) -> list:
    """The edges (a, b, f_in, f_out) of each shape _walk_sum keeps.

    a, b are an edge's labels less 1, and f_in, f_out its factor within a
    part and across parts.  A shape with an edge whose factor is 0
    wherever it falls is dropped, which keeps zero-mean laws cheap.  Kept
    shapes times m^v above _MAX_TERMS raise WalkError before any kept
    shape's edges are listed.
    """
    lo, hi, mult = _edge_runs(enumerate_shapes(k, v))
    f = {(same, c): factor(same, c)
         for same in (True, False) for c in range(1, k + 1)}
    # nonzero[loop][c]: an edge of multiplicity c (0: no edge starts here)
    # has a nonzero factor in some parts
    nonzero = np.array(
        [[True] + [bool(f[True, c] or f[False, c]) for c in range(1, k + 1)],
         [True] + [bool(f[True, c]) for c in range(1, k + 1)]])
    keep = nonzero[(lo == hi).view(np.int8), mult].all(axis=1)
    count = int(np.count_nonzero(keep))
    if count * m**v > _MAX_TERMS:
        raise WalkError(f"{count} shapes x {m}^{v} part maps exceed "
                        f"the budget of {_MAX_TERMS} terms")
    return [[(a - 1, b - 1, f[True, c], f[False, c])
             for a, b, c in zip(*edges) if c]
            for edges in zip(lo[keep].tolist(), hi[keep].tolist(),
                             mult[keep].tolist())]


def _walk_sum(k: int, v: int, m: int, weight, factor) -> Fraction:
    """Sum over shapes of length k on v labels and maps of labels to parts.

    The term of `parts` (the part, 0..m-1, of labels 1..v) is weight(parts)
    times factor(same_part, multiplicity) for each distinct edge, over the
    shapes `_kept_edges` keeps.
    """
    kept = _kept_edges(k, v, m, factor)
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
    "WalkError", "enumerate_shapes", "is_good_zero_mean",
    "exact_trace_moment_by_order", "exact_expected_trace_moment",
]
