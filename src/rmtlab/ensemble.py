"""Block-partitioned symmetric random matrix ensembles.

A matrix of order n is split by a partition of {0,...,n-1} into parts.
Entries whose endpoints share a part are drawn from one bounded scalar law,
cross-part entries from another; the upper triangle (diagonal included) is
drawn independently.  `sample_matrix` mirrors it into the lower one; the
run path keeps the triangle alone (`_upper_fill`), which is all that its
symmetric solve reads.  Sampling is counter-based, so a given
(spec, replicate) pair always produces the same matrix regardless of
traversal order or thread schedule.  One reader, `_copy_stream`, walks
every stream strip by strip: `_upper_fill` maps its strips by part, and
`_stream_block` by the cross law.
"""

from __future__ import annotations

import math
import mmap
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


class EnsembleError(ValueError):
    """Invalid partition, law, or ensemble description."""


# the largest seed: a seed is 64 unsigned bits
SEED_HI = 2**64 - 1


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSpec:
    """A partition of {0,...,n-1} into consecutive parts of the given sizes."""

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise EnsembleError("matrix order must be positive")
        if len(self.sizes) < 1:
            raise EnsembleError("partition needs at least one part")
        if any(s < 1 for s in self.sizes):
            raise EnsembleError("empty part in partition")
        if sum(self.sizes) != self.n:
            raise EnsembleError("part sizes must sum to the matrix order")

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(s / self.n for s in self.sizes)

    def part_labels(self) -> np.ndarray:
        """Array of length n mapping each index to its part (0-based)."""
        return np.repeat(np.arange(self.m), self.sizes)


def check_fractions(fractions) -> list[float]:
    """The part fractions as floats, once they are positive and sum to 1."""
    fracs = [float(f) for f in fractions]
    if not fracs:
        raise EnsembleError("no fractions given")
    if any(f <= 0 for f in fracs):
        raise EnsembleError("fractions must be positive")
    if abs(sum(fracs) - 1.0) > 1e-12:
        raise EnsembleError(f"fractions sum to {sum(fracs)}, expected 1")
    return fracs


def make_partition(n: int, fractions) -> PartitionSpec:
    """Build a PartitionSpec with sizes as close to n*fraction as possible.

    Leftover units after flooring are assigned to the lowest-indexed parts,
    so the result is deterministic.
    """
    fracs = check_fractions(fractions)
    base = [int(math.floor(n * f)) for f in fracs]
    remainder = n - sum(base)
    if remainder < 0 or remainder > len(fracs):
        raise EnsembleError("fraction rounding failed")
    sizes = [b + (1 if i < remainder else 0) for i, b in enumerate(base)]
    if any(s < 1 for s in sizes):
        raise EnsembleError("a part would be empty at this order")
    return PartitionSpec(n=n, sizes=tuple(sizes))


def singleton_partition(n: int) -> PartitionSpec:
    """The trivial partition into n singleton parts."""
    return PartitionSpec(n=n, sizes=(1,) * n)


# ---------------------------------------------------------------------------
# bounded entry laws
# ---------------------------------------------------------------------------

# kind -> (parameter names, in the order of EntryLaw.params; the atoms
# (a, b, q) of a law that takes value a with probability q, else b, as a
# function of the parameters, or None for the one kind that is an interval)
_LAWS = {
    "constant_zero": ((), lambda: (Fraction(0), Fraction(0), Fraction(1))),
    "rademacher": ((), lambda: (Fraction(-1), Fraction(1), Fraction(1, 2))),
    "bernoulli": (("p",), lambda p: (Fraction(1), Fraction(0), p)),
    "two_point": (("a", "b", "q"), lambda a, b, q: (a, b, q)),
    "uniform_interval": (("lo", "hi"), None),
}


def _param_names(kind) -> tuple[str, ...]:
    if not isinstance(kind, str) or kind not in _LAWS:
        raise EnsembleError(f"unknown law kind {kind!r}")
    return _LAWS[kind][0]


def is_finite(x) -> bool:
    """math.isfinite, with a number too large for a float counted as infinite."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _exact(x, name: str) -> Fraction:
    """A law parameter as an exact rational.  It must be a real number that
    is not a bool; NaN, infinities and rationals too large for a float are
    refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise EnsembleError(f"law parameter {name} must be a real number, "
                            f"got {type(x).__name__}")
    if not is_finite(x):
        raise EnsembleError(f"law parameter {name} must be finite, got {x}")
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    return Fraction(float(x))  # Fraction takes float64, not numpy's other floats


@dataclass(frozen=True)
class EntryLaw:
    """A bounded scalar distribution with exact raw moments.

    Every kind has one of two shapes.  constant_zero, rademacher,
    bernoulli(p) and two_point(a, b, q) take value a with probability q,
    else b; their atoms (a, b, q) are (0, 0, 1), (-1, 1, 1/2), (1, 0, p) and
    (a, b, q).  uniform_interval(lo, hi) is uniform on [lo, hi).  Parameters
    are kept as exact rationals so the raw moments feed the exact walk
    oracles without rounding.
    """

    kind: str
    params: tuple[Fraction, ...] = ()
    # what from_uniform maps by, as floats: (a, b, q), or (hi - lo, lo) of
    # uniform_interval; set once, by __post_init__
    _floats: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = _param_names(self.kind)
        if len(self.params) != len(names):
            raise EnsembleError(f"{self.kind} takes {len(names)} parameters, "
                                f"got {len(self.params)}")
        atoms = self._atoms()
        if atoms is None:
            lo, hi = self.params
            if not lo < hi:
                raise EnsembleError("uniform_interval needs lo < hi")
            floats = (float(hi - lo), float(lo))
        elif not 0 <= atoms[2] <= 1:  # q, unless fixed, is the last parameter
            raise EnsembleError(f"{self.kind} {names[-1]} outside [0, 1]")
        else:
            floats = tuple(map(float, atoms))
        object.__setattr__(self, "_floats", floats)

    def _atoms(self):
        """(a, b, q) of a two-point law; None for uniform_interval."""
        atoms = _LAWS[self.kind][1]
        return None if atoms is None else atoms(*self.params)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, kind: str, *values) -> "EntryLaw":
        return cls(kind, tuple(_exact(v, name)
                               for v, name in zip(values, _LAWS[kind][0])))

    @classmethod
    def constant_zero(cls) -> "EntryLaw":
        return cls._of("constant_zero")

    @classmethod
    def rademacher(cls) -> "EntryLaw":
        return cls._of("rademacher")

    @classmethod
    def bernoulli(cls, p) -> "EntryLaw":
        return cls._of("bernoulli", p)

    @classmethod
    def two_point(cls, a, b, q) -> "EntryLaw":
        return cls._of("two_point", a, b, q)

    @classmethod
    def uniform_interval(cls, lo, hi) -> "EntryLaw":
        return cls._of("uniform_interval", lo, hi)

    # -- exact moments ------------------------------------------------------

    def raw_moment(self, k: int) -> Fraction:
        """Exact k-th raw moment E[X^k]."""
        if k < 0:
            raise EnsembleError("moment order must be nonnegative")
        atoms = self._atoms()
        if atoms is None:  # integral of x^k / (hi - lo)
            lo, hi = self.params
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        a, b, q = atoms
        return q * a**k + (1 - q) * b**k

    @property
    def mean(self) -> Fraction:
        return self.raw_moment(1)

    @property
    def variance(self) -> Fraction:
        return self.raw_moment(2) - self.mean**2

    # -- sampling -----------------------------------------------------------

    def from_uniform(self, u: np.ndarray, out: np.ndarray | None = None) \
            -> np.ndarray:
        """Map uniform [0,1) variates to draws from this law (vectorized),
        written into `out`, which may be u itself, and returned."""
        if out is None:
            out = np.empty_like(u)
        if self.kind == "uniform_interval":
            width, lo = self._floats
            # u * (hi - lo) + lo, the bits of lo + u * (hi - lo)
            np.multiply(u, width, out=out)
            return np.add(out, lo, out=out)
        a, b, q = self._floats
        if a == b:  # one fill: constant_zero, every graph's intra law
            out[...] = a
            return out
        if (a - b) + b != a:  # no exact map below; no named kind lands here
            out[...] = np.where(u < q, a, b)
            return out
        # [u < q] * (a - b) + b is a or b exactly, and +0.0 for a zero atom;
        # for Bernoulli, every graph's cross law, it is [u < q] itself
        np.less(u, q, out=out)
        if (a, b) != (1.0, 0.0):
            np.multiply(out, a - b, out=out)
            np.add(out, b, out=out)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """Parameters as floats, or as "p/q" strings where no float holds
        them exactly, so from_dict rebuilds the same law."""
        return {"kind": self.kind,
                "params": {name: float(v) if Fraction(float(v)) == v
                           else f"{v.numerator}/{v.denominator}"
                           for name, v in zip(_LAWS[self.kind][0],
                                              self.params)}}

    @classmethod
    def from_dict(cls, d: dict) -> "EntryLaw":
        params = d.get("params", {}) if isinstance(d, dict) else None
        if not isinstance(params, dict):
            raise EnsembleError("a law and its params must be objects")
        names = _param_names(d.get("kind"))
        for name in names:
            if name not in params:
                raise EnsembleError(f"missing law parameter {name!r}")
        return cls._of(d["kind"], *(_ratio(params[name])
                                    for name in names))


def _ratio(x):
    """A "p/q" string of to_dict as its Fraction; anything else unchanged."""
    if isinstance(x, str) and re.fullmatch(r"-?\d+/[1-9]\d*", x):
        return Fraction(x)
    return x


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleSpec:
    """Full description of the random matrix distribution.

    law_intra applies when both endpoints share a part (diagonal included);
    law_cross applies otherwise.
    """

    partition: PartitionSpec
    law_intra: EntryLaw
    law_cross: EntryLaw
    seed: int

    def __post_init__(self):
        if not 0 <= self.seed <= SEED_HI:
            raise EnsembleError("seed must fit in 64 unsigned bits")

    @property
    def n(self) -> int:
        return self.partition.n

    def to_dict(self) -> dict:
        return {
            "n": self.partition.n,
            "fractions": list(self.partition.fractions),
            "sizes": list(self.partition.sizes),
            "law_intra": self.law_intra.to_dict(),
            "law_cross": self.law_cross.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleSpec":
        """The inverse of to_dict; the partition is rebuilt from `sizes`."""
        return cls(
            partition=PartitionSpec(d["n"], tuple(d["sizes"])),
            law_intra=EntryLaw.from_dict(d["law_intra"]),
            law_cross=EntryLaw.from_dict(d["law_cross"]),
            seed=int(d["seed"]),
        )


def _philox(seed: int, replicate: int, stream: int = 0):
    """Generator of the uniform [0,1) stream keyed by (seed, replicate,
    stream); consecutive `random` calls continue the stream.

    Philox is counter-based, so value j of the stream is a pure function of
    the key and j; stream is 0 or 1.  Consumers assign stream positions to
    matrix entries in a fixed order, making sampling independent of
    traversal and safe to parallelize across replicates.
    """
    if replicate < 0:
        raise EnsembleError("replicate must be nonnegative")
    if stream not in (0, 1):  # the key 2*replicate + stream must not collide
        raise EnsembleError("stream must be 0 or 1")
    key = np.array([np.uint64(seed), np.uint64(2 * replicate + stream)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _zeros(shape: tuple[int, int]) -> np.ndarray:
    """A zeroed float64 array in an anonymous mapping of its own, returned
    to the system once the array and its views are gone.

    Samples, and the blocks copied out of them, are a run's largest
    buffers, and their size changes from call to call.  From malloc they
    would come out of the allocating thread's heap, which keeps a freed one
    resident.  A smaller block may then split that hole, and the next
    larger buffer grows the heap by a whole matrix: peak memory would hang
    on which thread drew which replicate.  A mapping of its own leaves the
    heaps to small blocks.  A page is faulted in when it is first written:
    a run-path sample writes its upper triangle alone, so with 4 KB pages
    most of its strictly-lower triangle never becomes resident.  An empty
    shape, which no mapping can hold, gets a plain empty array.
    """
    if not math.prod(shape) or not hasattr(mmap, "MAP_ANONYMOUS"):
        return np.zeros(shape)
    buf = mmap.mmap(-1, 8 * math.prod(shape),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf).reshape(shape)


# rows per strip of _copy_stream; a strip's blocks stay in cache
_ROW_BLOCK = 64


def _row_start(i: int, width: int) -> int:
    """Stream offset of row i of an upper triangle filled row by row, row 0
    holding `width` entries and each later row one fewer."""
    return i * width - i * (i - 1) // 2


def _copy_stream(spec: EnsembleSpec, replicate: int, out: np.ndarray,
                 rows: slice, cols: slice, *, stream: int = 0,
                 diagonal: bool = True):
    """Copy the rows x cols rectangle of the upper triangle that `stream`
    of _philox fills into `out`, a C-order array of its shape, and yield
    each strip (r, h) once copied, for the caller to map rows r..r+h-1 in
    cache.  Of `out`, each strip's rows are written from the triangle's
    column max(c0, r) on, 0 where the stream fills nothing: below the
    diagonal, only the strips' squares, whose values mean nothing.

    Row i of the triangle takes columns i + k..n-1 (k = 0, or 1 without
    `diagonal`) from stream offset _row_start, entry (i, j) at offset
    j - i - k of it.  Philox makes four doubles per counter step, so
    advance(offset // 4) and offset % 4 single draws reach row rows.start;
    whole rows are then drawn in strips of _ROW_BLOCK.  Without `diagonal`,
    the diagonal is zeroed once the caller is done with the last strip.
    """
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    k = 0 if diagonal else 1
    width = spec.n - k
    uniforms = _philox(spec.seed, replicate, stream)
    uniforms.bit_generator.advance(_row_start(r0, width) // 4)
    uniforms.random(_row_start(r0, width) % 4)
    # every strip is drawn into the first one's buffer: a fresh draw per
    # strip may fault its pages in anew, as the thread heap shrinks and grows
    buf = np.empty(_row_start(min(_ROW_BLOCK, r1 - r0, width - r0),
                              width - r0))
    # out as one run of doubles: a row copied between memoryview slices
    # costs less interpreter time than between numpy ones
    src, dst = memoryview(buf), memoryview(out.reshape(-1))
    m = c1 - c0
    for r in range(r0, r1, _ROW_BLOCK):
        h = min(_ROW_BLOCK, r1 - r)
        # the draw's row d is row r + d: rows from `width` on hold none
        uniforms.random(out=buf[:_row_start(min(h, width - r), width - r)])
        # fault the strip's pages in without the GIL, which the row copies hold
        out[r - r0:r - r0 + h, max(c0, r) - c0:] = 0.0
        # where column 0 of row r would be, in the draw and in out
        at, to = -r - k, (r - r0) * m - c0
        # rows from c1 - k on have no column of the rectangle: a slice
        # running back from there to c1 would wrap round
        for i in range(r, min(r + h, width, c1 - k)):
            c = c0 if i + k < c0 else i + k
            dst[to + c:to + c1] = src[at + c:at + c1]
            at, to = at + width - i - 1, to + m
        yield r, h
    if not diagonal:
        i = np.arange(max(r0, c0), min(r1, c1))
        out[i - r0, i - c0] = 0.0


def _upper_fill(spec: EnsembleSpec, replicate: int, *,
                diagonal: bool = True) -> np.ndarray:
    """Upper triangle of a matrix of spec, copied out of stream 0 of _philox
    by _copy_stream (row i from column i, or i + 1 and a 0 diagonal when
    not `diagonal`), the strictly-lower triangle holding nothing of it.

    Each strip's laws' maps act elementwise, each on a block of the strip
    that it overwrites (map(u, out=u)).  With lo..mid-1 the columns of the
    last row's part from the strip's first row r on, rows lo.. take `intra`
    on columns lo..mid-1.  Rows r..lo-1 lie in earlier parts: they take
    `cross` on columns lo..mid-1, and on the square of columns r..lo-1 (at
    most 63 x 63) `intra` or `cross` by whether row and column share a
    part.  Every row takes `cross` from column mid on.  The lower triangle
    outside the strips' squares stays unwritten, and mostly not resident
    (see _zeros).
    """
    n = spec.n
    intra, cross = spec.law_intra.from_uniform, spec.law_cross.from_uniform
    A = _zeros((n, n))
    labels = spec.partition.part_labels()
    for r, h in _copy_stream(spec, replicate, A, slice(0, n), slice(0, n),
                             diagonal=diagonal):
        last = r + h - 1
        lo = max(r, int(np.searchsorted(labels, labels[last], "left")))
        mid = int(np.searchsorted(labels, labels[last], "right"))
        if lo > r:
            square = A[r:lo, r:lo]
            crossed = cross(square)
            intra(square, out=square)
            np.copyto(square, crossed,
                      where=labels[r:lo, None] != labels[None, r:lo])
            cross(A[r:lo, lo:mid], out=A[r:lo, lo:mid])
        intra(A[lo:last + 1, lo:mid], out=A[lo:last + 1, lo:mid])
        cross(A[r:last + 1, mid:], out=A[r:last + 1, mid:])
    return A


def _upper_strips(n: int):
    """Index pairs of the strips [r:r + _ROW_BLOCK, r:] of an n x n matrix:
    they cover its upper triangle, and below the diagonal only the squares
    that _upper_fill writes too."""
    return (np.s_[r:r + _ROW_BLOCK, r:] for r in range(0, n, _ROW_BLOCK))


def _mirror(A: np.ndarray) -> np.ndarray:
    """A, its strictly-lower triangle overwritten by its upper one's
    transpose."""
    for i in range(1, A.shape[0]):
        A[i, :i] = A[:i, i]
    return A


def sample_matrix(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """Draw one symmetric matrix; pure function of (spec, replicate)."""
    return _mirror(_upper_fill(spec, replicate))


def _stream_block(spec: EnsembleSpec, replicate: int, rows: slice,
                  cols: slice, *, stream: int = 0,
                  diagonal: bool = True) -> np.ndarray:
    """The rows x cols rectangle, C-order in a mapping of its own, of the
    upper triangle that _copy_stream copies out of `stream`, every entry
    mapped by spec.law_cross; without `diagonal` the diagonal is 0."""
    r0, c0, c1 = rows.start, cols.start, cols.stop
    B = _zeros((rows.stop - r0, c1 - c0))
    for r, h in _copy_stream(spec, replicate, B, rows, cols, stream=stream,
                             diagonal=diagonal):
        strip = B[r - r0:r - r0 + h, max(c0, r) - c0:]
        spec.law_cross.from_uniform(strip, out=strip)
    return B


def sample_cross_block(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """sample_matrix(spec, replicate)[:n1, n1:], n1 the size of the first
    part, drawn alone: every entry joins two parts, so takes the cross law."""
    n1 = spec.partition.sizes[0]
    return _stream_block(spec, replicate, slice(0, n1), slice(n1, spec.n))


def scale_matrix(A: np.ndarray, n: int | None = None,
                 overwrite: bool = False) -> np.ndarray:
    """Divide every entry by 2*sqrt(n), n the order of the square matrix A;
    a block of a matrix of order n is scaled by passing that n.  With
    `overwrite`, A is divided in place and returned."""
    if n is None:
        n = A.shape[0] if A.ndim else 0
        if A.shape != (n, n) or n < 1:
            raise EnsembleError("square matrix of positive order required")
    return np.divide(A, 2.0 * math.sqrt(n), out=A if overwrite else None)


def _scale_upper(T: np.ndarray) -> np.ndarray:
    """scale_matrix(T, overwrite=True) on the strips of _upper_strips alone:
    the same division of every entry of T's upper triangle, and the pages
    below the strips are left as they are."""
    scale = 2.0 * math.sqrt(T.shape[0])
    for s in _upper_strips(T.shape[0]):
        np.divide(T[s], scale, out=T[s])
    return T
