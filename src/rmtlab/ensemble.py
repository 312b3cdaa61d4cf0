"""Block-partitioned symmetric random matrix ensembles.

A matrix of order n is split by a partition of {0,...,n-1} into parts.
Entries whose endpoints share a part are drawn from one bounded scalar law,
cross-part entries from another; the upper triangle (diagonal included) is
drawn independently and mirrored.  Sampling is counter-based, so a given
(spec, replicate) pair always produces the same matrix regardless of
traversal order or thread schedule.
"""

from __future__ import annotations

import math
import mmap
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class EnsembleError(ValueError):
    """Invalid partition, law, or ensemble description."""


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
        elif not 0 <= atoms[2] <= 1:  # q, unless fixed, is the last parameter
            raise EnsembleError(f"{self.kind} {names[-1]} outside [0, 1]")

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

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) variates to draws from this law (vectorized)."""
        atoms = self._atoms()
        if atoms is None:
            lo, hi = self.params
            return float(lo) + u * float(hi - lo)
        a, b, q = map(float, atoms)
        if a == b:  # np.where takes 4x as long on a 64 x 1500 strip
            return np.full_like(u, a)
        if (a, b) == (1.0, 0.0):  # Bernoulli, every graph: np.where takes 10x
            return (u < q).astype(float)
        return np.where(u < q, a, b)

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
        if not 0 <= self.seed < 2**64:
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
    heaps to small blocks.  Every entry gets written, so the pages are
    faulted in at once where the platform allows it.
    """
    if not hasattr(mmap, "MAP_ANONYMOUS"):  # pragma: no cover - not POSIX
        return np.zeros(shape)
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS \
        | getattr(mmap, "MAP_POPULATE", 0)
    buf = mmap.mmap(-1, 8 * math.prod(shape), flags=flags)
    return np.frombuffer(buf).reshape(shape)


# rows per strip of _symmetric_fill; a strip's blocks stay in cache
_ROW_BLOCK = 64


def _row_start(i: int, width: int) -> int:
    """Stream offset of row i of an upper triangle filled row by row, row 0
    holding `width` entries and each later row one fewer."""
    return i * width - i * (i - 1) // 2


def _symmetric_fill(partition, intra, cross, seed: int, replicate: int,
                    stream: int = 0, diagonal: bool = True) -> np.ndarray:
    """Symmetric matrix whose upper triangle is one _philox stream.

    The stream fills the upper triangle row by row, row i taking columns
    i..n-1 (i+1..n-1 when not `diagonal`; the diagonal is then 0) from
    offset _row_start.  It is drawn and mapped in strips of _ROW_BLOCK rows,
    each strip's draw continuing the stream, from the strip's first row r
    on.  With mid the end of the part of the strip's last row, columns
    mid.. take `cross`; columns r..mid take `intra` if the strip lies in one
    part, else `intra` or `cross` by whether row and column share a part.
    The maps act elementwise on uniforms, and what they write below the
    diagonal is overwritten when the upper triangle is mirrored into the
    lower one.
    """
    n = partition.n
    k = 0 if diagonal else 1
    width = n - k
    uniforms = _philox(seed, replicate, stream)
    A = _zeros((n, n))
    labels = partition.part_labels()
    for r in range(0, n, _ROW_BLOCK):
        last = min(r + _ROW_BLOCK, n) - 1
        top = min(last + 1, width)  # rows r..top-1 hold stream entries
        u = uniforms.random(_row_start(top, width) - _row_start(r, width))
        for i in range(r, top):
            start = _row_start(i, width) - _row_start(r, width)
            A[i, i + k:] = u[start:start + width - i]
        mid = int(np.searchsorted(labels, labels[last], "right"))
        near = A[r:last + 1, r:mid]
        if labels[r] == labels[last]:
            near[...] = intra(near)
        else:
            same = labels[r:last + 1, None] == labels[None, r:mid]
            near[...] = np.where(same, intra(near), cross(near))
        A[r:last + 1, mid:] = cross(A[r:last + 1, mid:])
    if not diagonal:
        A.flat[::n + 1] = 0.0
    for i in range(1, n):
        A[i, :i] = A[:i, i]
    return A


def sample_matrix(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """Draw one symmetric matrix; pure function of (spec, replicate)."""
    return _symmetric_fill(spec.partition, spec.law_intra.from_uniform,
                           spec.law_cross.from_uniform, spec.seed, replicate)


def sample_cross_block(spec: EnsembleSpec, replicate: int = 0) -> np.ndarray:
    """sample_matrix(spec, replicate)[:n1, n1:], n1 the size of the first
    part, drawn without the rest of the matrix.

    Rows 0..n1-1 are the stream's prefix up to _row_start(n1, n), drawn in
    strips of _ROW_BLOCK rows; row i reaches the block's columns at offset
    n1 - i.  Every entry of the block joins two parts, so it takes the
    cross law.
    """
    n, n1 = spec.n, spec.partition.sizes[0]
    uniforms = _philox(spec.seed, replicate)
    B = _zeros((n1, n - n1))
    for r in range(0, n1, _ROW_BLOCK):
        top = min(r + _ROW_BLOCK, n1)
        u = uniforms.random(_row_start(top, n) - _row_start(r, n))
        for i in range(r, top):
            start = _row_start(i, n) - _row_start(r, n) + n1 - i
            B[i] = u[start:start + n - n1]
        B[r:top] = spec.law_cross.from_uniform(B[r:top])
    return B


def scale_matrix(A: np.ndarray, n: int | None = None,
                 overwrite: bool = False) -> np.ndarray:
    """Divide every entry by 2*sqrt(n), n the order of the square matrix A;
    a block of a matrix of order n is scaled by passing that n.  With
    `overwrite`, A is divided in place and returned."""
    if n is None:
        n = A.shape[0]
        if A.shape != (n, n) or n < 1:
            raise EnsembleError("square matrix of positive order required")
    return np.divide(A, 2.0 * math.sqrt(n), out=A if overwrite else None)
