import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmtlab.ensemble import (_ROW_BLOCK, EnsembleError, EnsembleSpec,
                             EntryLaw, PartitionSpec, _symmetric_fill,
                             counter_uniforms, make_partition,
                             sample_cross_block, sample_matrix, scale_matrix,
                             singleton_partition)
from rmtlab.graphenergy import (_correction, _is_block_diagonal,
                                _part_bounds, energy_decomposition_check,
                                graph_energy, sample_graph)

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
        assert [p.part_of(i) for i in range(5)] == [0, 0, 0, 1, 1]


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
        assert law.bound == bound

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
# with negative atoms and with q = 0 or 1; intervals with lo < 0.  Every
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
        assert isinstance(law.bound, Fraction)
        assert law.bound == oracle_bound(law)

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


class TestSampling:
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
        K = max(spec.law_intra.bound, spec.law_cross.bound)
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
        again = EnsembleSpec.from_json(spec.to_json())
        assert again == spec
        assert np.array_equal(sample_matrix(again, 5), sample_matrix(spec, 5))

    def test_record_keeps_exact_sizes(self):
        spec = EnsembleSpec(PartitionSpec(22, (7, 15)), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), seed=1)
        assert EnsembleSpec.from_dict(spec.to_dict()).partition.sizes == (7, 15)
        legacy = {k: v for k, v in spec.to_dict().items() if k != "sizes"}
        assert EnsembleSpec.from_dict(legacy).partition.sizes == (8, 14)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
           laws=st.tuples(st.sampled_from(LAWS), st.sampled_from(LAWS)),
           seed=st.integers(0, 2**64 - 1), replicate=st.integers(0, 50))
    def test_record_replays_the_same_matrices(self, sizes, laws, seed,
                                              replicate):
        spec = EnsembleSpec(PartitionSpec(sum(sizes), tuple(sizes)), *laws,
                            seed=seed)
        again = EnsembleSpec.from_json(spec.to_json())
        assert again == spec  # exact parameters too: bernoulli(3/10)
        assert sample_matrix(again, replicate).tobytes() == \
            sample_matrix(spec, replicate).tobytes()


@pytest.mark.parametrize("stream", [-1, 2, 3])
def test_counter_uniforms_other_streams_rejected(stream):
    # key 2*replicate + stream: stream 2 at replicate 0 would be stream 0
    # at replicate 1
    with pytest.raises(EnsembleError, match="stream"):
        counter_uniforms(5, 0, 10, stream)


def test_counter_uniforms_streams_and_replicates_differ():
    draws = {counter_uniforms(5, r, 10, s).tobytes()
             for r in range(3) for s in (0, 1)}
    assert len(draws) == 6


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
        assert counter_uniforms(seed, replicate, 1000, stream).tobytes() == \
            oracle_stream(seed, replicate, 1000, stream).tobytes()


def oracle_fill(partition, intra, cross, seed, replicate, stream=0,
                diagonal=True):
    n = partition.n
    iu = np.triu_indices(n, k=0 if diagonal else 1)
    u = oracle_stream(seed, replicate, iu[0].size, stream)
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
    """A and D as energy_decomposition_check samples them equal the oracle's
    bit for bit, and so do the energies it finds for A, X and D."""
    A, X, D = oracle_decomposition(part, large, p, seed, replicate)
    assert sample_graph(part, p, seed, replicate).tobytes() == A.tobytes()
    got = _correction(part, large, p, seed, replicate)
    assert got.tobytes() == D.tobytes()
    assert _is_block_diagonal(got, part, large)
    if large:
        r = energy_decomposition_check(part, large, p, seed, replicate)
        assert (r["energy_A"], r["energy_X"]) == \
            (graph_energy(A), graph_energy(X))
        assert r["energy_D"] == sum(
            (graph_energy(D[lo:hi, lo:hi])
             for a, (lo, hi) in enumerate(_part_bounds(part)) if a in large),
            0.0)


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
        assert sample_graph(part, 0.3, 11, 2).tobytes() == \
            oracle_sample_graph(part, 0.3, 11, 2).tobytes()

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_sample_graph(self, p):
        hosts = [singleton_partition(n) for n in (1, 2, 7, 50)] + \
            [PartitionSpec(7, (3, 4)), PartitionSpec(50, (10, 25, 15)),
             PartitionSpec(50, uneven_sizes(50, 5))]
        for part in hosts:
            assert sample_graph(part, p, 11, 2).tobytes() == \
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
        got = _symmetric_fill(part, intra, cross, seed, 2, stream=1,
                              diagonal=diagonal)
        assert got.tobytes() == oracle_fill(part, intra, cross, seed, 2,
                                            stream=1,
                                            diagonal=diagonal).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=sizes_and_large(), p=st.sampled_from([0.0, 0.4, 1.0]))
    @example(case=(STRIP_EDGES, {0, 3, 5}), p=0.4)
    def test_decomposition_on_random_partitions(self, case, p):
        sizes, large = case
        check_decomposition(PartitionSpec(sum(sizes), sizes), large, p, 13, 1)

    def test_block_diagonal_check_finds_stray_entries(self):
        part = PartitionSpec(6, (2, 2, 2))
        D = np.zeros((6, 6))
        D[0, 1] = D[1, 0] = 1.0
        assert _is_block_diagonal(D, part, {0})
        assert not _is_block_diagonal(D, part, {1})  # part 0 is not large
        D[2, 5] = D[5, 2] = 1.0
        assert not _is_block_diagonal(D, part, {0, 1, 2})  # a cross pair


class TestScaleMatrix:
    def test_n4(self):
        assert scale_matrix(np.ones((4, 4)))[0, 0] == 0.25

    def test_zero(self):
        assert not np.any(scale_matrix(np.zeros((3, 3))))

    def test_n1(self):
        assert scale_matrix(np.array([[3.0]]))[0, 0] == 1.5


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
