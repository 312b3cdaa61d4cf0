import gc
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import graph_spec, limit_gamma_walks
from rmtlab import walks
from rmtlab.ensemble import (EnsembleSpec, EntryLaw, PartitionSpec,
                             make_partition, sample_matrix, scale_matrix,
                             singleton_partition)
from rmtlab.graphenergy import sample_graph
from rmtlab.laws import catalan, limit_moments
from rmtlab.spectral import eigenvalues_sym, empirical_moment
from rmtlab.walks import (WalkError, _edge_runs, _kept_edges, _walk_sum,
                          enumerate_shapes, exact_expected_trace_moment,
                          exact_trace_moment_by_order, is_good_zero_mean)


def shape_tuples(k, v):
    """enumerate_shapes(k, v) as a list of tuples."""
    return list(map(tuple, enumerate_shapes(k, v).tolist()))


def stirling2(k, v):
    """S(k, v) by S(k, v) = v S(k-1, v) + S(k-1, v-1), S(0, 0) = 1."""
    row = [1]  # S(0, .)
    for n in range(1, k + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1]
                     for j in range(1, n + 1)]
    return row[v]


class TestEnumerateShapes:
    def test_k2_v2(self):
        assert shape_tuples(2, 2) == [(1, 2)]

    def test_k4_v3_contains_the_good_pair(self):
        shapes = shape_tuples(4, 3)
        assert (1, 2, 1, 3) in shapes and (1, 2, 3, 2) in shapes
        good = [s for s in shapes if is_good_zero_mean(s)]
        assert sorted(good) == [(1, 2, 1, 3), (1, 2, 3, 2)]

    def test_k4_v4_none_good(self):
        shapes = shape_tuples(4, 4)
        assert (1, 2, 3, 4) in shapes
        assert not any(is_good_zero_mean(s) for s in shapes)

    def test_canonical_labeling(self):
        for shapes in (enumerate_shapes(4, 3), enumerate_shapes(6, 4)):
            for s in shapes:
                assert s[0] == 1
                seen = []
                for x in s:
                    if x not in seen:
                        seen.append(x)
                assert seen == list(range(1, len(seen) + 1))

    def test_matches_raw_canonicalization(self):
        # independent oracle: canonicalize every raw index tuple over a
        # 4-element ground set and collect the distinct shapes
        k, v = 4, 3
        raw = set()
        for tup in itertools.product(range(4), repeat=k):
            if len(set(tup)) != v:
                continue
            relabel = {}
            canon = []
            for x in tup:
                if x not in relabel:
                    relabel[x] = len(relabel) + 1
                canon.append(relabel[x])
            raw.add(tuple(canon))
        assert set(shape_tuples(k, v)) == raw

    def test_bounds(self):
        with pytest.raises(WalkError):
            enumerate_shapes(14, 3)
        with pytest.raises(WalkError):
            enumerate_shapes(4, 0)

    def test_lexicographic_order(self):
        shapes = shape_tuples(8, 4)
        assert shapes == sorted(shapes)

    def test_counts_are_stirling_numbers(self):
        assert [stirling2(4, v) for v in range(5)] == [0, 1, 7, 6, 1]
        for k in range(1, 13):
            for v in range(1, k + 1):
                assert enumerate_shapes(k, v).shape == (stirling2(k, v), k)

    def test_rows_canonical_and_strictly_increasing(self):
        for k in range(1, 11):
            for v in range(1, k + 1):
                shapes = enumerate_shapes(k, v)
                assert shapes.dtype == np.int8
                # first occurrences: each label at most one above the
                # largest before it, starting from 1, and v reached
                top = np.maximum.accumulate(shapes, axis=1)
                assert (shapes[:, 0] == 1).all()
                assert (shapes[:, 1:] <= top[:, :-1] + 1).all()
                assert (top[:, -1] == v).all()
                rows = shapes.tolist()
                assert all(a < b for a, b in zip(rows, rows[1:]))

    def test_leaves_no_reference_cycles(self):
        gc.collect()
        gc.disable()
        try:
            enumerate_shapes(10, 6)
            assert gc.collect() == 0
        finally:
            gc.enable()


def loop_walk_edges(shape) -> Counter:
    """Edge multiset by an index loop: the reference for walk_edges."""
    k = len(shape)
    edges = Counter()
    for t in range(k):
        a, b = shape[t], shape[(t + 1) % k]
        edges[(min(a, b), max(a, b))] += 1
    return edges


def run_counters(shapes) -> list[Counter]:
    """The edge multiset of each walk, as walks._edge_runs gives it."""
    return [Counter({(a, b): c for a, b, c in zip(*row) if c})
            for row in zip(*(x.tolist() for x in _edge_runs(shapes)))]


def walk_edges(shape) -> Counter:
    """Multiset of unordered edges (loops allowed) of one closed walk, read
    from walks._edge_runs."""
    return run_counters(shape)[0]


class TestWalkEdges:
    def test_matches_loop_oracle_on_every_shape(self):
        for k in range(1, 11):
            for v in range(1, k + 1):
                shapes = enumerate_shapes(k, v)
                want = [loop_walk_edges(s) for s in shapes.tolist()]
                assert run_counters(shapes) == want
                assert is_good_zero_mean(shapes).tolist() == \
                    [all(c >= 2 for c in w.values()) for w in want]

    def test_raw_labels_of_any_size(self):
        # 0-based index tuples, as good_index_tuples passes them
        assert is_good_zero_mean((0, 40, 0, 40))
        assert not is_good_zero_mean((0, 17, 33))
        assert is_good_zero_mean(np.array([[0, 40, 0, 40], [0, 17, 33, 0]])
                                 ).tolist() == [True, False]
        assert walk_edges((0, 300, 300)) == Counter({(0, 300): 2,
                                                     (300, 300): 1})

    def test_accepts_lists(self):
        assert walk_edges([1, 2, 1]) == walk_edges((1, 2, 1))

    def test_closing_edge_counted(self):
        edges = walk_edges((1, 2))
        assert edges == Counter({(1, 2): 2})

    def test_loops(self):
        edges = walk_edges((1, 1, 2, 3))
        assert edges[(1, 1)] == 1 and edges[(1, 2)] == 1
        assert sum(edges.values()) == 4


def good_shapes(k, v):
    """g(v, k), counted as the `walks` run counts it."""
    return int(np.count_nonzero(is_good_zero_mean(enumerate_shapes(k, v))))


def good_index_tuples(k, v, n):
    """Good index tuples of length k over n vertices with exactly v distinct
    indices, enumerated directly: W_{v,k,n}, with no canonical shapes."""
    tuples = [tup for tup in itertools.product(range(n), repeat=k)
              if len(set(tup)) == v]
    return int(np.count_nonzero(
        is_good_zero_mean(np.array(tuples).reshape(-1, k))))


class TestGoodShapeCount:
    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_catalan_identity(self, k):
        assert good_shapes(k, k // 2 + 1) == catalan(k // 2)

    def test_g22(self):
        assert good_shapes(2, 2) == 1

    def test_g36_exhaustive(self):
        # used by the vanishing-order check; each canonical shape on v
        # labels stands for the v! index tuples over {0..v-1} that relabel it
        g = good_shapes(6, 3)
        assert g * math.factorial(3) == good_index_tuples(6, 3, 3)


class TestCountGoodWalks:
    # W_{v,k,n} = n(n-1)...(n-v+1) g(v, k) against the raw enumeration
    def test_v3_k4_n5_raw_enumeration(self):
        brute = good_index_tuples(4, 3, 5)
        assert brute == 5 * 4 * 3 * 2
        assert math.perm(5, 3) * good_shapes(4, 3) == brute

    def test_v2_k2_n4(self):
        assert math.perm(4, 2) * good_shapes(2, 2) == 12 \
            == good_index_tuples(2, 2, 4)

    def test_paper_display_k4_n6(self):
        assert math.perm(6, 3) * good_shapes(4, 3) == 6 * 5 * 4 * 2 \
            == good_index_tuples(4, 3, 6)

    def test_falling_factorial(self):
        # the factor n(n-1)...(n-v+1) of W_{v,k,n}, 0 once v exceeds n
        assert good_index_tuples(6, 3, 6) == 120 * good_shapes(6, 3)
        assert good_index_tuples(6, 4, 3) == 0 < good_shapes(6, 4)


# ---------------------------------------------------------------------------
# The n^k index-tuple enumeration the walk-shape sum replaced, kept as the
# oracle exact_trace_moment_by_order must reproduce exactly.
# ---------------------------------------------------------------------------

def oracle_trace_moment_by_order(spec, k):
    n = spec.n
    labels = spec.partition.part_labels()
    intra_m = [spec.law_intra.raw_moment(j) for j in range(k + 1)]
    cross_m = [spec.law_cross.raw_moment(j) for j in range(k + 1)]
    sums = {}
    for tup in itertools.product(range(n), repeat=k):
        expect = Fraction(1)
        for (a, b), mult in loop_walk_edges(tup).items():
            expect *= (intra_m if labels[a] == labels[b] else cross_m)[mult]
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


ORACLE_LAWS = {
    "zero": EntryLaw.constant_zero(),
    "rademacher": EntryLaw.rademacher(),
    "bernoulli": EntryLaw.bernoulli(Fraction(3, 10)),
    "two_point": EntryLaw.two_point(Fraction(-1, 2), 2, Fraction(1, 3)),
    "uniform": EntryLaw.uniform_interval(Fraction(-1, 4), 1),
}


def assert_matches_oracle(spec, k):
    got = exact_trace_moment_by_order(spec, k)
    want = {v: s for v, s in oracle_trace_moment_by_order(spec, k).items()
            if s != 0}
    assert got == want
    assert all(type(got[v]) is type(want[v]) for v in want)
    total = exact_expected_trace_moment(spec, k)
    assert type(total) is (Fraction if k % 2 == 0 else float)
    assert total == sum(want.values())


class TestWalkSumMatchesTupleOracle:
    @pytest.mark.parametrize("cross", sorted(ORACLE_LAWS))
    @pytest.mark.parametrize("intra", sorted(ORACLE_LAWS))
    def test_laws_parts_orders(self, intra, cross):
        for n in range(1, 7):
            for sizes in ((n,), (n - 1, 1), (n - 2, 1, 1))[:n]:
                spec = EnsembleSpec(PartitionSpec(n, sizes),
                                    ORACLE_LAWS[intra], ORACLE_LAWS[cross], 0)
                for k in range(1, 5 if n > 4 else 6):
                    assert_matches_oracle(spec, k)

    def test_singletons_at_the_old_size_limit(self):
        # n = 8, k = 6 was the largest input the tuple enumeration accepted;
        # the cross law has zero mean but a nonzero third moment
        spec = EnsembleSpec(singleton_partition(8), EntryLaw.rademacher(),
                            EntryLaw.two_point(-1, 2, Fraction(2, 3)), 0)
        assert_matches_oracle(spec, 6)


def per_shape_kept_edges(k, v, factor):
    """The edges (a, b, f_in, f_out) of each shape the walk sum keeps, by
    the per-shape rule: every edge has a nonzero factor within a part, or
    is no loop and has one across parts."""
    kept = []
    for shape in shape_tuples(k, v):
        edges = sorted((a - 1, b - 1, factor(True, c), factor(False, c))
                       for (a, b), c in loop_walk_edges(shape).items())
        if all(f_in or (a != b and f_out) for a, b, f_in, f_out in edges):
            kept.append(edges)
    return kept


class TestKeptEdges:
    def test_array_filter_matches_per_shape_rule(self):
        rng = np.random.default_rng(5)
        for k in range(1, 9):
            for trial in range(4):
                # factors in {0, 1, 2}: some multiplicities have a zero
                # factor within a part, across parts, or both
                table = {(same, c): Fraction(int(x))
                         for same in (True, False) for c, x in
                         enumerate(rng.integers(0, 3, k + 1))}

                def factor(same, c):
                    return table[same, c]

                for v in range(1, k + 1):
                    got = [sorted(edges)
                           for edges in _kept_edges(k, v, 1, factor)]
                    assert got == per_shape_kept_edges(k, v, factor)

    def test_budget_comes_before_per_shape_work(self, monkeypatch):
        # at k = 12 every one of the 627,396 shapes on 7 labels is kept,
        # times 2^7 part maps: over budget.  The factor table is read once
        # per (same part, multiplicity), the shapes are read as one array,
        # and no shape's edges are listed.
        runs, listed = [], []

        class Listed(np.ndarray):
            def tolist(self):
                listed.append(self.shape)
                return super().tolist()

        def counting_runs(shapes):
            runs.append(len(shapes))
            return tuple(x.view(Listed) for x in _edge_runs(shapes))

        factors, weights = [], []
        monkeypatch.setattr(walks, "_edge_runs", counting_runs)
        with pytest.raises(WalkError, match="627396 shapes x 2"):
            _walk_sum(12, 7, 2, lambda parts: weights.append(parts) or 1,
                      lambda same, c: factors.append((same, c)) or 1)
        assert runs == [627396]
        assert len(factors) == 2 * 12 and weights == [] and listed == []
        # within budget, the kept shapes' edges are listed
        assert _walk_sum(4, 3, 1, lambda parts: 1, lambda same, c: 1) == 6
        assert listed == [(6, 4)] * 3


def bipartite_zero_intra_spec(n, seed=1):
    return EnsembleSpec(make_partition(n, [0.5, 0.5]),
                        EntryLaw.constant_zero(), EntryLaw.rademacher(), seed)


class TestExactExpectedTraceMoment:
    def test_two_by_two_hand_count(self):
        spec = bipartite_zero_intra_spec(2)
        assert exact_expected_trace_moment(spec, 2) == Fraction(1, 8)

    def test_odd_moments_vanish_for_zero_mean(self):
        spec = EnsembleSpec(make_partition(4, [0.5, 0.5]),
                            EntryLaw.rademacher(), EntryLaw.rademacher(), 0)
        assert exact_expected_trace_moment(spec, 1) == 0
        assert exact_expected_trace_moment(spec, 3) == 0

    def test_wigner_k2_closed_form(self):
        # E M_2 = (1/(4n^2)) * n^2 * sigma^2 for zero-mean unit-variance
        spec = EnsembleSpec(make_partition(5, [1.0]), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), 0)
        assert exact_expected_trace_moment(spec, 2) == Fraction(1, 4)

    def test_monte_carlo_agreement(self):
        spec = bipartite_zero_intra_spec(6, seed=5)
        exact = float(exact_expected_trace_moment(spec, 4))
        vals = []
        for r in range(20_000):
            B = scale_matrix(sample_matrix(spec, r))
            B2 = B @ B
            vals.append(np.trace(B2 @ B2) / 6)
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 4 * se

    def test_size_bounds(self):
        # 2000 singleton parts put 2000^2 part maps on order 2 at k = 4:
        # over the term budget, refused before they are enumerated
        spec = EnsembleSpec(singleton_partition(2000), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), 0)
        with pytest.raises(WalkError, match="budget"):
            exact_expected_trace_moment(spec, 4)
        with pytest.raises(WalkError):
            exact_expected_trace_moment(bipartite_zero_intra_spec(2), 14)
        with pytest.raises(WalkError):
            exact_expected_trace_moment(bipartite_zero_intra_spec(2), 0)

    @pytest.mark.parametrize("fractions", [[0.8, 0.2], [0.5, 0.5]])
    def test_production_n_bipartite_closed_form(self, fractions):
        # zero intra, Rademacher cross: E tr(A^4) = 2 sum d^2 - sum d over
        # the vertices' cross degrees d (walks i-j-i-j, i-j-i-k, i-j-k-j)
        n = 2000
        spec = EnsembleSpec(make_partition(n, fractions),
                            EntryLaw.constant_zero(), EntryLaw.rademacher(), 0)
        degrees = [n - s for s in spec.partition.sizes for _ in range(s)]
        trace = 2 * sum(d * d for d in degrees) - sum(degrees)
        got = exact_expected_trace_moment(spec, 4)
        assert got == Fraction(trace, 2**4 * n**3)
        if fractions == [0.8, 0.2]:
            assert got == Fraction(1999, 100000)


# p = 3/10 graphs: binomial on six vertices, and multipartite on two and
# three parts.  Large graphs are not checked: singleton parts put n^v part
# maps in the walk sum, over its 2*10^6-term budget for any graph the
# benchmark samples, until the sum groups maps by which labels share a part.
GRAPH_HOSTS = [singleton_partition(6), PartitionSpec(7, (3, 4)),
               PartitionSpec(8, (2, 3, 3))]
P = Fraction(3, 10)


class TestGraphSpecs:
    """The walk oracle is exact on graph ensembles: a constant_zero intra
    law puts nothing on the diagonal, as sample_graph does."""

    @pytest.mark.parametrize("partition", GRAPH_HOSTS,
                             ids=lambda part: str(part.sizes))
    def test_k2_counts_the_cross_pairs(self, partition):
        # E tr(B^2)/n = p (n^2 - sum n_x^2) / (4 n^2), B = A/(2 sqrt(n))
        n = partition.n
        cross_pairs = n * n - sum(s * s for s in partition.sizes)
        assert exact_expected_trace_moment(graph_spec(partition, P), 2) == \
            P * Fraction(cross_pairs, 4 * n * n)

    @pytest.mark.parametrize("partition", GRAPH_HOSTS,
                             ids=lambda part: str(part.sizes))
    def test_k4_agrees_with_sampled_graphs(self, partition):
        spec = graph_spec(partition, P, seed=17)
        exact = float(exact_expected_trace_moment(spec, 4))
        n = partition.n
        vals = []
        for r in range(4000):
            B = scale_matrix(sample_graph(spec, r))
            B2 = B @ B
            vals.append(np.sum(B2 * B2) / n)  # tr(B^4), B symmetric
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - exact) <= 4 * se


class TestOrderContributions:
    def test_orders_sum_to_total(self):
        spec = bipartite_zero_intra_spec(4)
        parts = exact_trace_moment_by_order(spec, 4)
        assert sum(parts.values()) == exact_expected_trace_moment(spec, 4)

    def test_low_order_decay(self):
        # S_{2,4,n} decays like n^(2-1-2) = 1/n: the sum carries n(n-1)
        # good placements against the n^3 normalization
        vals = {}
        for n in (4, 6, 8):
            spec = EnsembleSpec(make_partition(n, [1.0]),
                                EntryLaw.rademacher(), EntryLaw.rademacher(), 0)
            vals[n] = exact_trace_moment_by_order(spec, 4)[2]
        assert float(vals[8]) < float(vals[6]) < float(vals[4])
        scaled = {n: v * Fraction(n**2, n - 1) for n, v in vals.items()}
        assert scaled[4] == scaled[6] == scaled[8]


class TestLimitGammaWalks:
    def test_balanced_equals_gamma_main(self):
        # main-theorem moments: Catalan(k/2)/4^(k/2) * ((s1+(m-1)s2)/m)^(k/2)
        for m in (2, 3):
            fracs = [Fraction(1, m)] * m
            s1, s2 = Fraction(1, 3), Fraction(2)
            gammas = limit_moments(fracs, s1, s2, 6)
            for k in (2, 4, 6):
                closed = Fraction(catalan(k // 2), 4 ** (k // 2)) \
                    * ((s1 + (m - 1) * s2) / m) ** (k // 2)
                assert limit_gamma_walks(fracs, s1, s2, k) == gammas[k] \
                    == closed

    def test_k2_two_part_hand_count(self):
        got = limit_gamma_walks([Fraction(4, 5), Fraction(1, 5)], 0, 1, 2)
        assert got == Fraction(4, 5) * Fraction(1, 5) * Fraction(1, 2)

    def test_k2_general_fractions_closed_form(self):
        fracs = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        got = limit_gamma_walks(fracs, 0, Fraction(2), 2)
        expected = (1 - sum(f**2 for f in fracs)) * Fraction(2) / 4
        assert got == expected

    def test_permutation_invariance(self):
        fracs = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        base = limit_gamma_walks(fracs, Fraction(1, 3), 1, 4)
        for perm in itertools.permutations(fracs):
            assert limit_gamma_walks(list(perm), Fraction(1, 3), 1, 4) == base

    def test_vanishing_intra_many_parts_approaches_uniform(self):
        m = 6
        fracs = [Fraction(1, m)] * m
        main = limit_moments(fracs, 0, 1, 6)
        uniform = limit_moments([1], 1, 1, 6)
        for k in (2, 4, 6):
            walk = limit_gamma_walks(fracs, 0, 1, k)
            target = uniform[k]
            # exact polynomial: off by the (m-1)/m edge factors only
            assert walk == main[k] == target * Fraction(m - 1, m) ** (k // 2)
            assert abs(float(walk - target)) <= float(target) * k / m

    def test_term_budget(self):
        # three parts at k = 10 are 42 shapes x 3^6 maps, within budget;
        # seven are 42 x 7^6, over it
        fracs = [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        assert limit_gamma_walks(fracs, Fraction(1, 3), 1, 10) == \
            limit_moments(fracs, Fraction(1, 3), 1, 10)[10]
        with pytest.raises(WalkError, match="budget"):
            limit_gamma_walks([Fraction(1, 7)] * 7, 1, 1, 10)

    def test_gamma0_and_odd_k(self):
        assert limit_gamma_walks([Fraction(1, 2)] * 2, 0, 1, 0) == 1
        with pytest.raises(WalkError):
            limit_gamma_walks([Fraction(1, 2)] * 2, 0, 1, 3)


class TestFiniteSizeAgainstLimit:
    def test_wigner_k4_near_limit(self):
        # finite-n expected M_4 at n=6 within O(1/n) of 1/8
        spec = EnsembleSpec(make_partition(6, [1.0]), EntryLaw.rademacher(),
                            EntryLaw.rademacher(), 0)
        val = exact_expected_trace_moment(spec, 4)
        assert abs(float(val) - 0.125) <= 2.0 / 6
        # archived exact finite-n value for n=6 Rademacher Wigner
        assert val == Fraction(11, 96)
