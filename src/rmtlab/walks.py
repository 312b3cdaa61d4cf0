"""Exact combinatorial oracles for the moment method.

Closed walks of length k in the complete graph (loops allowed) are
canonicalized by first-occurrence labeling; counting the "good" ones (those
whose expected entry product is nonzero) yields the walk-count function
g(v, k), the good-walk totals W_{v,k,n}, exact finite-n expected trace
moments, and, as a small-k reference, exact limit moments as rational
polynomials in the part fractions and entry variances.  Everything here
is exact rational arithmetic: these values are the ground truth the
floating formulas are judged against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .ensemble import EnsembleSpec

_MAX_K = 12


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


def good_shape_count(k: int, v: int, zero_mean: bool = True) -> int:
    """g(v, k): canonical shapes surviving the goodness filter.

    Under zero-mean laws a shape with any multiplicity-1 edge has zero
    expectation; without that assumption every shape can contribute.
    """
    shapes = enumerate_shapes(k, v)
    return sum(map(is_good_zero_mean, shapes)) if zero_mean else len(shapes)


def falling_factorial(n: int, v: int) -> int:
    out = 1
    for i in range(v):
        out *= n - i
    return out


def count_good_walks(v: int, k: int, n: int, zero_mean: bool = True) -> int:
    """W_{v,k,n} = n(n-1)...(n-v+1) * g(v, k)."""
    if v > n:
        return 0
    return falling_factorial(n, v) * good_shape_count(k, v, zero_mean)


def exact_trace_moment_by_order(spec: EnsembleSpec, k: int) -> dict:
    """Order-v contributions S_{v,k,n} to the expected trace moment.

    S_{v,k,n} sums 2^-k n^(-1-k/2) E(a_{i1 i2} ... a_{ik i1}) over index
    tuples of order v; returned values are exact rationals up to the
    n^(-k/2) scaling, which is folded in exactly for even k and left as a
    float factor for odd k (where all zero-mean contributions vanish
    anyway).
    """
    n = spec.n
    if n > 8 or k > 6:
        raise WalkError("exact enumeration limited to n <= 8, k <= 6")
    if k < 1:
        raise WalkError("k must be at least 1")
    labels = spec.partition.part_labels()
    intra_m = [spec.law_intra.raw_moment(j) for j in range(k + 1)]
    cross_m = [spec.law_cross.raw_moment(j) for j in range(k + 1)]
    sums: dict[int, Fraction] = {}
    for tup in itertools.product(range(n), repeat=k):
        expect = Fraction(1)
        for (a, b), mult in walk_edges(tup).items():
            moms = intra_m if labels[a] == labels[b] else cross_m
            expect *= moms[mult]
            if expect == 0:
                break
        if expect == 0:
            continue
        v = len(set(tup))
        sums[v] = sums.get(v, Fraction(0)) + expect
    if k % 2 == 0:
        scale = Fraction(1, 2**k * n ** (1 + k // 2))
        return {v: s * scale for v, s in sums.items()}
    scale = 1.0 / (2**k * float(n) ** (1 + k / 2))
    return {v: float(s) * scale for v, s in sums.items()}


def exact_expected_trace_moment(spec: EnsembleSpec, k: int):
    """Exact E[M_{k,n}] = E[tr(B^k)]/n by full index-tuple enumeration."""
    parts = exact_trace_moment_by_order(spec, k)
    total = sum(parts.values())
    if not parts:
        return Fraction(0) if k % 2 == 0 else 0.0
    return total


def limit_gamma_walks(fractions, sigma1sq, sigma2sq, k: int) -> Fraction:
    """Exact limit moment gamma_k by brute-force walk enumeration.

    Sums, over good shapes of order k/2+1 (each edge appearing exactly
    twice) and over all assignments of parts to the shape labels, the
    product of the part fractions and of one variance factor per distinct
    edge (intra variance when the endpoints share a part, cross variance
    otherwise), scaled by 2^-k.  It costs m^(k/2+1) terms per shape, so it
    is kept as the small-k reference for laws.limit_moments.
    """
    if k % 2 == 1:
        raise WalkError("limit moments are computed for even k only")
    if k == 0:
        return Fraction(1)
    if k > 10:
        raise WalkError("limit enumeration limited to k <= 10")
    nus = [Fraction(f) for f in fractions]
    m = len(nus)
    if m > 6:
        raise WalkError("at most 6 parts supported")
    s1 = Fraction(sigma1sq)
    s2 = Fraction(sigma2sq)
    v = k // 2 + 1
    total = Fraction(0)
    for shape in enumerate_shapes(k, v):
        edges = walk_edges(shape)
        if any(c != 2 for c in edges.values()):
            continue
        distinct = list(edges)
        for assign in itertools.product(range(m), repeat=v):
            factor = Fraction(1)
            for p in assign:
                factor *= nus[p]
            if factor == 0:
                continue
            for a, b in distinct:
                factor *= s1 if assign[a - 1] == assign[b - 1] else s2
                if factor == 0:
                    break
            total += factor
    return total / 2**k


__all__ = [
    "WalkError", "walk_edges", "enumerate_shapes", "is_good_zero_mean",
    "good_shape_count", "falling_factorial", "count_good_walks",
    "exact_trace_moment_by_order", "exact_expected_trace_moment",
    "limit_gamma_walks",
]
