import json
import math
import mmap
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_spec
from rmtlab import ensemble
from rmtlab.ensemble import (_ROW_BLOCK, EnsembleError, EnsembleSpec,
                             EntryLaw, PartitionSpec, _mirror, _philox,
                             _row_start, _scale_upper, _stream_block,
                             _upper_fill, make_partition,
                             sample_cross_block, sample_matrix, scale_matrix,
                             singleton_partition)
from rmtlab.graphenergy import (energy_decomposition_check, graph_energy,
                                sample_graph)

LAWS = [EntryLaw.constant_zero(), EntryLaw.rademacher(),
        EntryLaw.bernoulli(Fraction(3, 10)),
        EntryLaw.two_point(-1, 2, Fraction(2, 3)),
        EntryLaw.uniform_interval(-1, 1)]


def rademacher_spec(n, fractions, seed=1):
    return EnsembleSpec(make_partition(n, fractions),
                        EntryLaw.rademacher(), EntryLaw.rademacher(), seed)


class TestMakePartition:
    def test_exact_split(self):
        assert make_partition(4, [0.5, 0.5]).sizes == (2, 2)

    def test_remainder_goes_to_first_part(self):
        assert make_partition(5, [0.5, 0.5]).sizes == (3, 2)

    def test_three_parts(self):
        assert make_partition(10, [0.8, 0.1, 0.1]).sizes == (8, 1, 1)

    def test_rejects_bad_sum(self):
        with pytest.raises(EnsembleError):
            make_partition(10, [0.5, 0.4])

    def test_rejects_empty_part(self):
        with pytest.raises(EnsembleError):
            make_partition(3, [0.9, 0.05, 0.05])

    def test_part_of(self):
        p = make_partition(5, [0.5, 0.5])
        assert p.part_labels().tolist() == [0, 0, 0, 1, 1]


class TestEntryLaw:
    @pytest.mark.parametrize("make", [
        lambda x: EntryLaw.bernoulli(x),
        lambda x: EntryLaw.two_point(x, 1, 0.5),
        lambda x: EntryLaw.uniform_interval(-1, x)])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, make, x):
        with pytest.raises(EnsembleError, match="finite"):
            make(x)

    @pytest.mark.parametrize("law,mean,var,bound", [
        (EntryLaw.constant_zero(), 0, 0, 0),
        (EntryLaw.rademacher(), 0, 1, 1),
        (EntryLaw.bernoulli(Fraction(1, 3)), Fraction(1, 3), Fraction(2, 9), 1),
        (EntryLaw.two_point(-1, 2, Fraction(2, 3)), 0, 2, 2),
        (EntryLaw.uniform_interval(-1, 1), 0, Fraction(1, 3), 1),
    ])
    def test_mean_variance_bound(self, law, mean, var, bound):
        assert law.mean == mean
        assert law.variance == var
        # the law's draws stay within the bound column
        u = np.append(np.linspace(0.0, 1.0, 100, endpoint=False),
                      np.nextafter(1.0, 0.0))
        assert np.max(np.abs(law.from_uniform(u))) <= bound

    def test_raw_moment_consistency(self):
        for law in (EntryLaw.rademacher(), EntryLaw.bernoulli(Fraction(1, 4)),
                    EntryLaw.uniform_interval(-2, 3)):
            assert law.raw_moment(0) == 1
            assert law.raw_moment(1) == law.mean
            assert law.raw_moment(2) - law.mean**2 == law.variance

    def test_uniform_moments_closed_form(self):
        law = EntryLaw.uniform_interval(0, 1)
        for k in range(8):
            assert law.raw_moment(k) == Fraction(1, k + 1)

    def test_empirical_mean_and_variance(self):
        # 1e5 draws, 4 standard errors
        for law in (EntryLaw.rademacher(), EntryLaw.bernoulli(Fraction(3, 10)),
                    EntryLaw.uniform_interval(-1, 1),
                    EntryLaw.two_point(-1, 2, Fraction(2, 3))):
            u = np.random.default_rng(42).random(100_000)
            x = law.from_uniform(u)
            mu, var = float(law.mean), float(law.variance)
            se_mean = math.sqrt(var / x.size)
            assert abs(x.mean() - mu) <= 4 * se_mean + 1e-12
            m2 = float(law.raw_moment(2))
            m4 = float(law.raw_moment(4))
            se_m2 = math.sqrt(max(m4 - m2**2, 0.0) / x.size)
            assert abs((x**2).mean() - m2) <= 4 * se_m2 + 1e-12

    def test_json_round_trip(self):
        for law in (EntryLaw.constant_zero(), EntryLaw.rademacher(),
                    EntryLaw.bernoulli(0.5), EntryLaw.two_point(-1, 1, 0.25),
                    EntryLaw.uniform_interval(-1, 1)):
            assert EntryLaw.from_dict(law.to_dict()) == law

    def test_json_round_trip_keeps_non_dyadic_parameters(self):
        assert EntryLaw.bernoulli(Fraction(3, 10)).to_dict() == \
            {"kind": "bernoulli", "params": {"p": "3/10"}}
        for law in (EntryLaw.bernoulli(Fraction(3, 10)),
                    EntryLaw.two_point(Fraction(-1, 3), 2, Fraction(2, 3)),
                    EntryLaw.uniform_interval(Fraction(-1, 10),
                                              Fraction(2**60 + 1))):
            again = EntryLaw.from_dict(json.loads(json.dumps(law.to_dict())))
            assert again == law
            assert [again.raw_moment(k) for k in range(6)] == \
                [law.raw_moment(k) for k in range(6)]

    @pytest.mark.parametrize("p", ["0.3", "3/0", "3 /10", "1/-2", "nan",
                                   "3/10.0"])
    def test_only_ratio_strings_are_read(self, p):
        with pytest.raises(EnsembleError, match="law parameter p"):
            EntryLaw.from_dict({"kind": "bernoulli", "params": {"p": p}})


# ---------------------------------------------------------------------------
# The per-kind formulas EntryLaw used before its table of kinds; kept as the
# oracle the table must reproduce exactly.
# ---------------------------------------------------------------------------

def oracle_raw_moment(law, k):
    if k == 0:
        return Fraction(1)
    if law.kind == "constant_zero":
        return Fraction(0)
    if law.kind == "rademacher":
        return Fraction(1) if k % 2 == 0 else Fraction(0)
    if law.kind == "bernoulli":
        (p,) = law.params
        return p
    if law.kind == "two_point":
        a, b, q = law.params
        return q * a**k + (1 - q) * b**k
    lo, hi = law.params
    return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))


def oracle_bound(law):
    if law.kind == "constant_zero":
        return Fraction(0)
    if law.kind in ("rademacher", "bernoulli"):
        return Fraction(1)
    if law.kind == "two_point":
        a, b, _ = law.params
        return max(abs(a), abs(b))
    lo, hi = law.params
    return max(abs(lo), abs(hi))


def oracle_from_uniform(law, u):
    if law.kind == "constant_zero":
        return np.zeros_like(u)
    if law.kind == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if law.kind == "bernoulli":
        (p,) = law.params
        return (u < float(p)).astype(float)
    if law.kind == "two_point":
        a, b, q = law.params
        return np.where(u < float(q), float(a), float(b))
    lo, hi = law.params
    return float(lo) + u * float(hi - lo)


def oracle_to_dict(law):
    names = {"bernoulli": ("p",),
             "two_point": ("a", "b", "q"),
             "uniform_interval": ("lo", "hi")}
    params = {k: float(v)
              for k, v in zip(names.get(law.kind, ()), law.params)}
    return {"kind": law.kind, "params": params}


# every kind; two-point laws with a == b, with (a, b) = (1, 0) and (0, 1),
# with negative atoms, a zero atom beside a negative one, and with q = 0 or
# 1; intervals with lo < 0.  Every
# parameter is a float or a dyadic rational, so to_dict keeps it exactly.
ORACLE_LAWS = [
    EntryLaw.constant_zero(), EntryLaw.rademacher(),
    EntryLaw.bernoulli(0), EntryLaw.bernoulli(1),
    EntryLaw.bernoulli(Fraction(3, 8)), EntryLaw.bernoulli(0.3),
    EntryLaw.two_point(2, 2, 1 / 3),
    EntryLaw.two_point(-1.5, -1.5, 1),
    EntryLaw.two_point(1, 0, 0.4), EntryLaw.two_point(0, 1, 0.4),
    EntryLaw.two_point(-3, Fraction(-1, 2), 0.25),
    EntryLaw.two_point(-1, 2, 0), EntryLaw.two_point(-1, 2, 1),
    EntryLaw.two_point(-1, 2, 2 / 3),
    EntryLaw.two_point(0, -2, 0.25), EntryLaw.two_point(-0.5, 0, 0.75),
    # (a - b) + b != a in floats: the one kind mapped through np.where
    EntryLaw.two_point(0.1, 0.3, 0.5),
    EntryLaw.uniform_interval(-2, 3), EntryLaw.uniform_interval(0, 1),
    EntryLaw.uniform_interval(Fraction(-1, 2), -0.25),
]


def law_id(law):
    return "_".join([law.kind, *(str(float(x)) for x in law.params)])


def uniform_grid(law):
    """u in [0, 1) that includes 0, 1 - 2**-53, every parameter in [0, 1)
    (so q itself) with its two neighbours, and a 2-d strided view."""
    points = [0.0, 0.5, 1.0 - 2.0**-53]
    for x in map(float, law.params):
        if 0.0 <= x < 1.0:
            points += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    u = np.concatenate([points, np.linspace(0.0, 1.0, 1000, endpoint=False),
                        np.random.default_rng(3).random(1000)])
    return [u, np.random.default_rng(4).random((8, 40))[:, 5:30]]


class TestEntryLawMatchesPerKindOracle:
    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=law_id)
    def test_moments_and_bound(self, law):
        for k in range(9):
            got = law.raw_moment(k)
            assert isinstance(got, Fraction)
            assert got == oracle_raw_moment(law, k)
        m1, m2 = oracle_raw_moment(law, 1), oracle_raw_moment(law, 2)
        assert law.mean == m1 and isinstance(law.mean, Fraction)
        assert law.variance == m2 - m1**2

    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=law_id)
    def test_dict(self, law):
        assert law.to_dict() == oracle_to_dict(law)
        assert EntryLaw.from_dict(law.to_dict()) == law

    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=law_id)
    def test_from_uniform(self, law):
        for u in uniform_grid(law):
            got, want = law.from_uniform(u), oracle_from_uniform(law, u)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=law_id)
    def test_from_uniform_in_place(self, law):
        # into u itself and into a strided array of its own: the same bits,
        # signs of zeros included, as a fresh map's
        for u in uniform_grid(law):
            want = law.from_uniform(u)
            work = u.copy()
            apart = np.full(u.shape + (2,), np.nan)[..., 0]
            kept = u.copy()
            for out, src in [(work, work), (apart, u)]:
                got = law.from_uniform(src, out=out)
                assert got is out
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(want))
            assert u.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind,params", [
        ("constant_zero", (Fraction(0),)), ("rademacher", (Fraction(1),)),
        ("bernoulli", ()), ("bernoulli", (Fraction(1, 2),) * 2),
        ("two_point", (Fraction(1), Fraction(0))),
        ("uniform_interval", (Fraction(0), Fraction(1), Fraction(2)))])
    def test_wrong_parameter_count_rejected(self, kind, params):
        with pytest.raises(EnsembleError, match="parameters"):
            EntryLaw(kind, params)

    def test_numpy_scalars_and_fractions_are_parameters(self):
        quarter = EntryLaw.bernoulli(Fraction(1, 4))
        for p in (0.25, np.float64(0.25), np.float32(0.25)):
            assert EntryLaw.bernoulli(p) == quarter
        assert EntryLaw.two_point(np.int64(-2), np.int8(3), 0.5) == \
            EntryLaw.two_point(-2, 3, Fraction(1, 2))

    @pytest.mark.parametrize("p", [True, None, "0.5", [1], np.bool_(True)])
    def test_non_numbers_rejected(self, p):
        with pytest.raises(EnsembleError, match="law parameter p"):
            EntryLaw.bernoulli(p)

    @pytest.mark.parametrize("d", [
        [], {"kind": "bernoulli", "params": [0.5]},
        {"kind": "bernoulli", "params": None}])
    def test_from_dict_needs_objects(self, d):
        with pytest.raises(EnsembleError):
            EntryLaw.from_dict(d)

    @pytest.mark.parametrize("kind", ["poisson", None, ["bernoulli"]])
    def test_unknown_kind(self, kind):
        with pytest.raises(EnsembleError, match="unknown law kind"):
            EntryLaw.from_dict({"kind": kind, "params": {}})


def _mapping(A):
    while isinstance(A, np.ndarray):
        A = A.base
    return A.obj if isinstance(A, memoryview) else A


THP = Path("/sys/kernel/mm/transparent_hugepage/enabled")
THP_ALWAYS = THP.exists() and "[always]" in THP.read_text()


def resident_share(A):
    """Share of the pages of A's mapping that are resident: bit 63 of each
    page's /proc/self/pagemap entry.  smaps cannot tell, since it merges
    adjacent anonymous mappings into one entry."""
    first, count = A.ctypes.data // mmap.PAGESIZE, A.nbytes // mmap.PAGESIZE
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(8 * first)
        entries = np.frombuffer(fh.read(8 * count), dtype=np.uint64)
    return np.count_nonzero(entries >> np.uint64(63)) / count


class TestSampling:
    def test_samples_are_mappings_of_their_own(self):
        # a dropped sample goes back to the system at once instead of
        # leaving a hole in the drawing thread's malloc heap
        spec = rademacher_spec(300, [0.25, 0.75])
        for sample in (sample_matrix, sample_cross_block, sample_graph):
            A = sample(spec, 0)
            buf = _mapping(A)
            assert isinstance(buf, mmap.mmap) and len(buf) == A.nbytes
            assert A.flags.writeable and A.flags.c_contiguous
            gone = weakref.ref(buf)
            del A, buf
            assert gone() is None

    @pytest.mark.skipif(not Path("/proc/self/pagemap").exists()
                        or mmap.PAGESIZE != 4096,
                        reason="no pagemap, or pages other than 4 KB")
    @pytest.mark.skipif(THP_ALWAYS, reason="a 2 MB page would fault the "
                        "lower triangle in with the upper one")
    def test_run_path_sample_leaves_the_lower_triangle_out(self):
        # rows of 2048 entries are four pages each, and a row is written
        # from its strip's first column on: 5/8 of the pages are resident,
        # where a mirrored sample has all of them
        spec = rademacher_spec(2048, [0.5, 0.5])
        T = _scale_upper(_upper_fill(spec, 0))
        assert T.ctypes.data % mmap.PAGESIZE == 0
        assert resident_share(T) <= 0.70
        assert resident_share(_mirror(T)) == 1.0

    def test_zero_laws_give_zero_matrix(self):
        spec = EnsembleSpec(make_partition(6, [0.5, 0.5]),
                            EntryLaw.constant_zero(), EntryLaw.constant_zero(),
                            seed=3)
        assert not np.any(sample_matrix(spec, 0))

    def test_supports_respected(self):
        spec = EnsembleSpec(make_partition(8, [0.5, 0.5]),
                            EntryLaw.constant_zero(), EntryLaw.rademacher(),
                            seed=9)
        A = sample_matrix(spec, 0)
        labels = spec.partition.part_labels()
        intra = labels[:, None] == labels[None, :]
        assert not np.any(A[intra])
        assert set(np.unique(A[~intra])) <= {-1.0, 1.0}

    def test_exact_symmetry_and_determinism(self):
        spec = rademacher_spec(20, [0.5, 0.5], seed=11)
        A = sample_matrix(spec, 3)
        assert np.array_equal(A, A.T)
        assert np.array_equal(A, sample_matrix(spec, 3))
        assert not np.array_equal(A, sample_matrix(spec, 4))

    def test_entries_bounded(self):
        spec = EnsembleSpec(make_partition(10, [0.5, 0.5]),
                            EntryLaw.uniform_interval(-1, 1),
                            EntryLaw.two_point(-2, 1, 0.5), seed=0)
        A = sample_matrix(spec)
        K = max(oracle_bound(spec.law_intra), oracle_bound(spec.law_cross))
        assert np.all(np.abs(A) <= float(K))

    def test_entry_statistics(self):
        # off-diagonal intra entries over many replicates: 4 SE window
        spec = EnsembleSpec(make_partition(50, [1.0]),
                            EntryLaw.uniform_interval(-1, 1),
                            EntryLaw.uniform_interval(-1, 1), seed=21)
        draws = []
        for r in range(80):
            A = sample_matrix(spec, r)
            draws.append(A[np.triu_indices(50, k=1)])
        x = np.concatenate(draws)
        var = 1.0 / 3.0
        assert abs(x.mean()) <= 4 * math.sqrt(var / x.size)
        se_var = math.sqrt((0.2 - var**2) / x.size)  # E[x^4] = 1/5
        assert abs(x.var() - var) <= 4 * se_var

    def test_spec_round_trip(self):
        spec = EnsembleSpec(make_partition(10, [0.8, 0.2]),
                            EntryLaw.uniform_interval(-1, 1),
                            EntryLaw.rademacher(), seed=77)
        again = EnsembleSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert np.array_equal(sample_matrix(again, 5), sample_matrix(spec, 5))

    def test_record_keeps_exact_sizes(self):
        spec = EnsembleSpec(PartitionSpec(22, (7, 15)), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), seed=1)
        assert EnsembleSpec.from_dict(spec.to_dict()).partition.sizes == (7, 15)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           laws=st.tuples(st.sampled_from(LAWS), st.sampled_from(LAWS)),
           seed=st.integers(0, 2**64 - 1), replicate=st.integers(0, 50))
    def test_record_replays_the_same_matrices(self, sizes, laws, seed,
                                              replicate):
        spec = EnsembleSpec(PartitionSpec(sum(sizes), tuple(sizes)), *laws,
                            seed=seed)
        again = EnsembleSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec  # exact parameters too: bernoulli(3/10)
        assert sample_matrix(again, replicate).tobytes() == \
            sample_matrix(spec, replicate).tobytes()


@pytest.mark.parametrize("stream", [-1, 2, 3])
def test_counter_uniforms_other_streams_rejected(stream):
    # key 2*replicate + stream: stream 2 at replicate 0 would be stream 0
    # at replicate 1
    with pytest.raises(EnsembleError, match="stream"):
        _philox(5, 0, stream)


def test_counter_uniforms_streams_and_replicates_differ():
    draws = {_philox(5, r, s).random(10).tobytes()
             for r in range(3) for s in (0, 1)}
    assert len(draws) == 6
    with pytest.raises(EnsembleError, match="replicate"):
        _philox(5, -1)


# ---------------------------------------------------------------------------
# The index-array constructions the samplers used before the row-by-row fill;
# kept as the oracle the fill must reproduce bit for bit.  Each draws its
# whole stream at once, where the samplers draw it one strip at a time.
# ---------------------------------------------------------------------------

def oracle_stream(seed, replicate, count, stream):
    """The whole uniform stream of (seed, replicate, stream) in one draw."""
    key = np.array([seed, 2 * replicate + stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def test_counter_uniforms_is_the_oracle_stream():
    for seed, replicate, stream in [(0, 0, 0), (5, 3, 1), (2**64 - 1, 7, 0)]:
        uniforms = _philox(seed, replicate, stream)
        drawn = np.concatenate([uniforms.random(c) for c in (1, 63, 936)])
        assert drawn.tobytes() == \
            oracle_stream(seed, replicate, 1000, stream).tobytes()


def oracle_fill(partition, intra, cross, seed, replicate, diagonal=True):
    n = partition.n
    iu = np.triu_indices(n, k=0 if diagonal else 1)
    u = oracle_stream(seed, replicate, iu[0].size, stream=0)
    labels = partition.part_labels()
    same = labels[iu[0]] == labels[iu[1]]
    vals = np.empty(u.size)
    vals[same] = intra(u[same])
    vals[~same] = cross(u[~same])
    A = np.zeros((n, n))
    A[iu] = vals
    A[(iu[1], iu[0])] = vals
    return A


def oracle_sample_matrix(spec, replicate):
    return oracle_fill(spec.partition, spec.law_intra.from_uniform,
                       spec.law_cross.from_uniform, spec.seed, replicate)


def oracle_sample_graph(partition, p, seed, replicate):
    n = partition.n
    iu = np.triu_indices(n, k=1)
    u = oracle_stream(seed, replicate, iu[0].size, stream=0)
    labels = partition.part_labels()
    cross = labels[iu[0]] != labels[iu[1]]
    A = np.zeros((n, n))
    A[iu] = ((u < p) & cross).astype(float)
    return A + A.T


def oracle_decomposition(partition, large, p, seed, replicate):
    A = oracle_sample_graph(partition, p, seed, replicate)
    n = partition.n
    labels = partition.part_labels()
    iu = np.triu_indices(n, k=1)
    in_large = np.isin(labels, sorted(large))
    fill = (labels[iu[0]] == labels[iu[1]]) & in_large[iu[0]]
    u = oracle_stream(seed, replicate, iu[0].size, stream=1)
    X = A.copy()
    upper = X[iu]
    upper[fill] = (u[fill] < p).astype(float)
    X[iu] = upper
    X[(iu[1], iu[0])] = upper
    return A, X, X - A


def check_decomposition(part, large, p, seed, replicate):
    """A as sample_graph draws it, and the matrices that
    energy_decomposition_check solves (X, D's large blocks, A), equal the
    oracle's bit for bit, and so do the energies it finds for A, X and D."""
    A, X, D = oracle_decomposition(part, large, p, seed, replicate)
    spec = graph_spec(part, p, seed)
    assert sample_graph(spec, replicate).tobytes() == A.tobytes()
    if not large:
        return
    labels = part.part_labels()
    blocks = [D[labels == a][:, labels == a] for a in sorted(large)]
    solved = []

    def recording(M, upper=False):
        # the check solves M in place, from its upper triangle
        solved.append(np.triu(M) if upper else M.copy())
        return graph_energy(M, upper=upper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("rmtlab.graphenergy.graph_energy", recording)
        r = energy_decomposition_check(spec, large, replicate)
    assert [M.tobytes() for M in solved] == \
        [np.triu(M).tobytes() for M in [X, *blocks, A]]
    assert (r["energy_A"], r["energy_X"]) == \
        (graph_energy(A), graph_energy(X))
    assert r["energy_D"] == sum((graph_energy(b) for b in blocks), 0.0)


def test_decomposition_holds_one_matrix_of_order_n_at_a_time(monkeypatch):
    # X and A are the only n x n draws, each unmapped before the next one is
    # drawn or solved, and no view of one outlives it; every other mapping
    # is one large part's diagonal block of D
    from rmtlab import graphenergy
    drawn, mapped = [], []

    def fill(*args, **kwargs):
        A = _upper_fill(*args, **kwargs)
        drawn.append(weakref.ref(_mapping(A)))
        return A

    def zeros(shape, make=ensemble._zeros):
        mapped.append(shape)
        return make(shape)

    def solve(M, upper=False):
        assert [r() for r in drawn if r() is not None] in ([], [_mapping(M)])
        return graph_energy(M, upper=upper)

    monkeypatch.setattr(graphenergy, "_upper_fill", fill)
    monkeypatch.setattr(graphenergy, "graph_energy", solve)
    monkeypatch.setattr(ensemble, "_zeros", zeros)
    energy_decomposition_check(
        graph_spec(PartitionSpec(150, (90, 30, 30)), 0.5, 3), [0, 2, 1])
    assert len(drawn) == 2
    assert mapped == [(90, 90), (30, 30), (30, 30), (150, 150), (150, 150)]


def _at_most_400(sizes):
    """The longest prefix of sizes that sums to at most 400."""
    ends = np.cumsum(sizes)
    return tuple(sizes[:max(1, int(np.searchsorted(ends, 400, "right")))])


# part sizes 1..150 on n <= 400 rows, n not a multiple of the strip height:
# singletons beside wide parts, and part ends inside strips and on their edges
FILL_SIZES = st.lists(
    st.one_of(st.just(1), st.integers(1, 150),
              st.sampled_from([_ROW_BLOCK - 1, _ROW_BLOCK, 2 * _ROW_BLOCK])),
    min_size=1, max_size=40).map(_at_most_400).filter(
        lambda sizes: sum(sizes) % _ROW_BLOCK != 0)


@st.composite
def sizes_and_large(draw):
    """FILL_SIZES and a random subset of its parts."""
    sizes = draw(FILL_SIZES)
    return sizes, draw(st.sets(st.integers(0, len(sizes) - 1)))


@st.composite
def stream_rectangles(draw):
    """(n, rows, cols): n <= 400 not a multiple of the strip height, and a
    rectangle of it that often ends on row or column n - 1 or is 1 x 1."""
    n = draw(st.integers(1, 400).filter(lambda n: n % _ROW_BLOCK != 0))

    def span():
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.one_of(st.just(n), st.just(lo + 1),
                            st.integers(lo + 1, n)))
        return slice(lo, hi)
    return n, span(), span()


# strips 0, 1, 3 and 4 lie in one part, strips 2 and 5 straddle parts, and
# parts end on the edges of strips 1, 2 and 3
STRIP_EDGES = (64, 64, 1, 1, 62, 150, 3)


def uneven_sizes(n, parts):
    """n split into `parts` parts, the remainder on the last one."""
    return (n // parts,) * (parts - 1) + (n - (parts - 1) * (n // parts),)


class TestFillMatchesIndexOracle:
    @pytest.mark.parametrize("law_intra", LAWS, ids=lambda law: law.kind)
    @pytest.mark.parametrize("law_cross", LAWS, ids=lambda law: law.kind)
    def test_sample_matrix(self, law_intra, law_cross):
        for n in (1, 2, 7, 50):
            for parts in sorted({1, 2, 5, n} & set(range(1, n + 1))):
                spec = EnsembleSpec(PartitionSpec(n, uneven_sizes(n, parts)),
                                    law_intra, law_cross, seed=n + parts)
                assert sample_matrix(spec, 3).tobytes() == \
                    oracle_sample_matrix(spec, 3).tobytes()

    def test_sample_matrix_thousand_parts(self):
        spec = EnsembleSpec(make_partition(2000, [0.001] * 1000),
                            EntryLaw.uniform_interval(-1, 1),
                            EntryLaw.rademacher(), seed=5)
        assert sample_matrix(spec, 1).tobytes() == \
            oracle_sample_matrix(spec, 1).tobytes()

    def test_sample_matrix_long_singleton_runs(self):
        # runs longer than one row block, between and after larger parts
        sizes = (3,) + (1,) * 150 + (5,) + (1,) * 70 + (2, 1)
        for law_intra, law_cross in [(LAWS[4], LAWS[1]), (LAWS[3], LAWS[2])]:
            spec = EnsembleSpec(PartitionSpec(sum(sizes), sizes), law_intra,
                                law_cross, seed=9)
            assert sample_matrix(spec, 2).tobytes() == \
                oracle_sample_matrix(spec, 2).tobytes()

    @pytest.mark.parametrize("law_cross", LAWS, ids=lambda law: law.kind)
    def test_cross_block(self, law_cross):
        # first part smaller and larger than the rest, ending inside a strip
        # and on its edge, blocks of up to four strips, and one host of
        # three parts
        hosts = [PartitionSpec(n, (n1, n - n1))
                 for n in (2, 7, 50, 65, 129, 300)
                 for n1 in sorted({1, n // 3, n // 2, n - n // 3, n - 1,
                                   _ROW_BLOCK} & set(range(1, n)))]
        hosts.append(PartitionSpec(50, (10, 25, 15)))
        for part in hosts:
            spec = EnsembleSpec(part, LAWS[4], law_cross, seed=part.sizes[0])
            n1 = part.sizes[0]
            want = np.ascontiguousarray(oracle_sample_matrix(spec, 3)[:n1, n1:])
            got = sample_cross_block(spec, 3)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_singleton_graph_longer_than_a_row_block(self):
        part = singleton_partition(300)
        assert sample_graph(graph_spec(part, 0.3, 11), 2).tobytes() == \
            oracle_sample_graph(part, 0.3, 11, 2).tobytes()

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_sample_graph(self, p):
        hosts = [singleton_partition(n) for n in (1, 2, 7, 50)] + \
            [PartitionSpec(7, (3, 4)), PartitionSpec(50, (10, 25, 15)),
             PartitionSpec(50, uneven_sizes(50, 5))]
        for part in hosts:
            assert sample_graph(graph_spec(part, p, 11), 2).tobytes() == \
                oracle_sample_graph(part, p, 11, 2).tobytes()

    @pytest.mark.parametrize("sizes,large", [
        ((7,), {0}), ((3, 4), {1}), ((30, 10, 10), {0, 1, 2}),
        ((10, 25, 15), {0, 2}), ((20, 20), set())])
    def test_decomposition(self, sizes, large):
        check_decomposition(PartitionSpec(sum(sizes), sizes), large, 0.4,
                            13, 1)

    def test_decomposition_with_singleton_parts(self):
        # large and small singletons have different intra maps
        check_decomposition(PartitionSpec(12, (1, 1, 1, 5, 1, 1, 2)),
                            {0, 2, 3, 6}, 0.4, 13, 1)

    @settings(max_examples=60, deadline=None)
    @given(sizes=FILL_SIZES,
           laws=st.tuples(st.sampled_from(LAWS), st.sampled_from(LAWS)),
           diagonal=st.booleans(), seed=st.integers(0, 2**64 - 1))
    @example(sizes=STRIP_EDGES, laws=(LAWS[3], LAWS[4]), diagonal=True,
             seed=3)
    @example(sizes=STRIP_EDGES, laws=(LAWS[2], LAWS[3]), diagonal=False,
             seed=4)
    def test_fill_on_random_partitions(self, sizes, laws, diagonal, seed):
        part = PartitionSpec(sum(sizes), sizes)
        intra, cross = (law.from_uniform for law in laws)
        got = _mirror(_upper_fill(EnsembleSpec(part, *laws, seed), 2,
                                  diagonal=diagonal))
        assert got.tobytes() == oracle_fill(part, intra, cross, seed, 2,
                                            diagonal=diagonal).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(case=stream_rectangles(), law=st.sampled_from(LAWS),
           stream=st.sampled_from([0, 1]), diagonal=st.booleans(),
           seed=st.integers(0, 2**64 - 1))
    # rows 1.. start at stream offset 299, 1 x 1 blocks, blocks that end on
    # row n - 1 (which holds no entry without the diagonal), a one-row
    # triangle, and blocks below and across the diagonal
    @example(case=(300, slice(1, 2), slice(1, 2)), law=LAWS[4], stream=1,
             diagonal=False, seed=5)
    @example(case=(300, slice(299, 300), slice(299, 300)), law=LAWS[2],
             stream=0, diagonal=False, seed=6)
    @example(case=(300, slice(230, 300), slice(0, 300)), law=LAWS[3],
             stream=1, diagonal=True, seed=7)
    @example(case=(1, slice(0, 1), slice(0, 1)), law=LAWS[1], stream=0,
             diagonal=False, seed=8)
    @example(case=(257, slice(3, 200), slice(0, 70)), law=LAWS[4], stream=0,
             diagonal=False, seed=9)
    def test_stream_block(self, case, law, stream, diagonal, seed):
        # every entry on or above the diagonal (strictly above without it)
        # is the stream's entry at _row_start(i, width) + j - i - k, mapped
        # by the cross law; without the diagonal the diagonal is +0.0
        n, rows, cols = case
        spec = EnsembleSpec(PartitionSpec(n, (n,)), LAWS[0], law, seed)
        got = _stream_block(spec, 2, rows, cols, stream=stream,
                            diagonal=diagonal)
        assert got.shape == (rows.stop - rows.start, cols.stop - cols.start)
        assert got.flags.c_contiguous
        k = 0 if diagonal else 1
        width = n - k
        u = oracle_stream(seed, 2, _row_start(width, width), stream)
        i, j = np.meshgrid(np.arange(rows.start, rows.stop),
                           np.arange(cols.start, cols.stop), indexing="ij")
        on = j >= i + k
        i, j = i[on], j[on]
        want = law.from_uniform(u[_row_start(i, width) + j - i - k])
        assert got[on].tobytes() == want.tobytes()
        if not diagonal:
            d = np.arange(max(rows.start, cols.start),
                          min(rows.stop, cols.stop))
            assert got[d - rows.start, d - cols.start].tobytes() == \
                np.zeros(d.size).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=sizes_and_large(), p=st.sampled_from([0.0, 0.4, 1.0]))
    @example(case=(STRIP_EDGES, {0, 3, 5}), p=0.4)
    def test_decomposition_on_random_partitions(self, case, p):
        sizes, large = case
        check_decomposition(PartitionSpec(sum(sizes), sizes), large, p, 13, 1)


class TestScaleMatrix:
    def test_n4(self):
        assert scale_matrix(np.ones((4, 4)))[0, 0] == 0.25

    def test_zero(self):
        assert not np.any(scale_matrix(np.zeros((3, 3))))

    def test_n1(self):
        assert scale_matrix(np.array([[3.0]]))[0, 0] == 1.5

    @pytest.mark.parametrize("A", [
        np.float64(2.0), np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2)),
        np.ones((0, 0))], ids=["0-d", "1-d", "2x3", "3-d", "0x0"])
    def test_shape_refused(self, A):
        with pytest.raises(EnsembleError, match="square matrix"):
            scale_matrix(A)


class TestCentralize:
    def test_rank_of_correction(self):
        # rank((mu1-mu2)H' + mu2 J) <= number of large parts + 1
        spec = EnsembleSpec(make_partition(12, [0.5, 0.25, 0.25]),
                            EntryLaw.bernoulli(0.5),
                            EntryLaw.bernoulli(0.25), seed=6)
        labels = spec.partition.part_labels()
        large = np.array([s > 2 for s in spec.partition.sizes])[labels]
        Hp = ((labels[:, None] == labels[None, :])
              & large[:, None] & large[None, :]).astype(float)
        mu1, mu2 = 0.5, 0.25
        M = (mu1 - mu2) * Hp + mu2 * np.ones((12, 12))
        n_large = sum(s > 2 for s in spec.partition.sizes)
        assert np.linalg.matrix_rank(M) <= n_large + 1


def test_singleton_partition():
    p = singleton_partition(5)
    assert p.m == 5 and p.sizes == (1,) * 5


def test_partition_invariants():
    with pytest.raises(EnsembleError):
        PartitionSpec(n=4, sizes=(2, 3))
    with pytest.raises(EnsembleError):
        PartitionSpec(n=4, sizes=(4, 0))
