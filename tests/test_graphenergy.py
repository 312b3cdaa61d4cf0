import math

import numpy as np
import pytest

from conftest import graph_spec
from test_ensemble import oracle_decomposition
from rmtlab.ensemble import (EnsembleError, EnsembleSpec, EntryLaw,
                             make_partition, singleton_partition)
from rmtlab.graphenergy import (energy_bounds_unbalanced,
                                energy_decomposition_check, graph_energy,
                                kyfan_check, leading_energy, sample_graph)
from rmtlab.laws import semicircle_density
from rmtlab.spectral import singular_values


class TestGraphEnergyKnownGraphs:
    def test_single_edge(self):
        K2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert graph_energy(K2) == pytest.approx(2.0)

    def test_four_cycle(self):
        # C4 spectrum is {2, 0, 0, -2}
        C4 = np.zeros((4, 4))
        for i in range(4):
            C4[i, (i + 1) % 4] = C4[(i + 1) % 4, i] = 1.0
        assert graph_energy(C4) == pytest.approx(4.0)

    def test_complete_graph(self):
        # K_n spectrum: n-1 once, -1 with multiplicity n-1
        n = 7
        Kn = np.ones((n, n)) - np.eye(n)
        assert graph_energy(Kn) == pytest.approx(2 * (n - 1))

    def test_complete_bipartite(self):
        # K_{a,b} energy is 2 sqrt(ab)
        a, b = 3, 5
        A = np.zeros((a + b, a + b))
        A[:a, a:] = 1.0
        A[a:, :a] = 1.0
        assert graph_energy(A) == pytest.approx(2 * math.sqrt(a * b))

    def test_empty_graph(self):
        assert graph_energy(np.zeros((5, 5))) == 0.0


class TestSampleGraph:
    def test_p_zero_empty(self):
        A = sample_graph(graph_spec(singleton_partition(8), 0.0, 1))
        assert not np.any(A)

    def test_p_one_is_complete_multipartite(self):
        part = make_partition(6, [0.5, 0.5])
        A = sample_graph(graph_spec(part, 1.0, 2))
        labels = part.part_labels()
        cross = labels[:, None] != labels[None, :]
        assert np.array_equal(A, cross.astype(float))

    def test_p_one_singletons_energy(self):
        n = 10
        A = sample_graph(graph_spec(singleton_partition(n), 1.0, 0))
        assert graph_energy(A) == pytest.approx(2 * (n - 1))

    def test_symmetric_zero_diag_binary(self):
        A = sample_graph(graph_spec(singleton_partition(20), 0.4, 7))
        assert np.array_equal(A, A.T)
        assert not np.any(np.diag(A))
        assert set(np.unique(A)) <= {0.0, 1.0}

    def test_no_intra_edges(self):
        part = make_partition(12, [0.5, 0.25, 0.25])
        A = sample_graph(graph_spec(part, 0.9, 3))
        labels = part.part_labels()
        intra = labels[:, None] == labels[None, :]
        assert not np.any(A[intra])

    def test_determinism(self):
        part = make_partition(15, [0.6, 0.4])
        A = sample_graph(graph_spec(part, 0.3, 5), replicate=2)
        B = sample_graph(graph_spec(part, 0.3, 5), replicate=2)
        C = sample_graph(graph_spec(part, 0.3, 5), replicate=3)
        assert np.array_equal(A, B)
        assert not np.array_equal(A, C)

    def test_edge_count_binomial(self):
        # total cross edges over replicates: 4 standard errors
        part = make_partition(30, [0.5, 0.5])
        p, pairs = 0.35, 15 * 15
        counts = [sample_graph(graph_spec(part, p, 11), replicate=r).sum()
                  / 2 for r in range(200)]
        total, trials = sum(counts), 200 * pairs
        se = math.sqrt(trials * p * (1 - p))
        assert abs(total - trials * p) <= 4 * se

    def test_rejects_bad_probability(self):
        with pytest.raises(EnsembleError):
            EntryLaw.bernoulli(1.5)


class TestPredictions:
    def test_gnp_matches_semicircle_abs_mean(self):
        # prediction must equal 2 n^(3/2) * mean |x| under the radius-
        # sqrt(p(1-p)) semicircle, here by quadrature of its density
        from scipy.integrate import quad
        for n, p in ((100, 0.5), (1500, 0.2)):
            direct = leading_energy(n, p)
            R = math.sqrt(p * (1 - p))
            abs_mean, _ = quad(lambda x: abs(x) * semicircle_density(x, R),
                               -R, R, points=[0.0], epsabs=1e-13,
                               epsrel=1e-13)
            assert direct == pytest.approx(2 * n**1.5 * abs_mean, rel=1e-12)

    def test_multipartite_reduction(self):
        n, p = 900, 0.4
        for m in (2, 3, 5):
            assert leading_energy(n, p, (m - 1) / m) == pytest.approx(
                leading_energy(n, p) * math.sqrt((m - 1) / m))

    def test_multipartite_monotone_in_m(self):
        vals = [leading_energy(600, 0.3, (m - 1) / m) for m in range(2, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < leading_energy(600, 0.3)

    def test_unbalanced_bounds_bracket_leading_term(self):
        n, p = 1200, 0.5
        b = energy_bounds_unbalanced(
            graph_spec(make_partition(n, [0.6, 0.2, 0.2]), p), [0])
        lead = leading_energy(n, p)
        s = 0.6**1.5
        assert b["lower"] == pytest.approx((1 - s) * lead)
        assert b["upper"] == pytest.approx((1 + s) * lead)
        assert b["lower"] < lead < b["upper"]

    def test_validation(self):
        with pytest.raises(EnsembleError):
            leading_energy(100, 0.0)
        halves = make_partition(100, [0.5, 0.5])
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(graph_spec(halves, 0.5), [])
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(graph_spec(halves, 0.5), [2])
        with pytest.raises(EnsembleError, match="repeated"):
            energy_bounds_unbalanced(
                graph_spec(make_partition(100, [0.6, 0.2, 0.2]), 0.5), [0, 0])
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(graph_spec(halves, 1.0), [0])


def test_empirical_energy_near_prediction():
    # single n=500 sample should land within a few percent of the
    # leading-order prediction
    n, p = 500, 0.5
    A = sample_graph(graph_spec(singleton_partition(n), p, 13))
    assert graph_energy(A) == pytest.approx(leading_energy(n, p), rel=0.05)


class TestKyFan:
    def test_zero_matrices(self):
        r = kyfan_check(np.zeros((3, 3)), np.zeros((3, 3)))
        assert r["lhs"] == 0.0 and r["rhs"] == 0.0 and r["holds"]

    def test_equality_for_aligned_psd(self):
        # singular values add exactly for commuting PSD matrices
        X = np.diag([3.0, 1.0])
        Y = np.diag([2.0, 5.0])
        r = kyfan_check(X, Y)
        assert r["lhs"] == pytest.approx(r["rhs"])
        assert r["holds"]

    def test_strict_for_cancelling(self):
        X = np.diag([1.0, 0.0])
        r = kyfan_check(X, -X)
        assert r["lhs"] == pytest.approx(2.0) and r["rhs"] == 0.0
        assert r["holds"]

    def test_random_trials(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            X = rng.normal(size=(n, n))
            Y = rng.normal(size=(n, n))
            r = kyfan_check(X, Y)
            assert r["holds"]
            assert np.sum(singular_values(X + Y)) == pytest.approx(r["rhs"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kyfan_check(np.zeros((2, 2)), np.zeros((3, 3)))


class TestEnergyDecomposition:
    def test_holds_and_block_diagonal(self):
        part = make_partition(40, [0.6, 0.2, 0.2])
        r = energy_decomposition_check(graph_spec(part, 0.5, 17), [0])
        assert r["holds"] and r["block_diagonal"]
        assert r["kyfan_upper"]["holds"] and r["kyfan_lower"]["holds"]
        assert r["energy_X"] - r["energy_D"] <= r["energy_A"] + 1e-9
        assert r["energy_A"] <= r["energy_X"] + r["energy_D"] + 1e-9

    def test_correction_supported_on_large_blocks(self):
        part = make_partition(24, [0.5, 0.25, 0.25])
        # two large parts: D is their diagonal blocks, and not all zero
        r = energy_decomposition_check(graph_spec(part, 0.4, 19), [0, 1])
        assert r["block_diagonal"]
        assert r["energy_D"] > 0.0

    def test_index_validation(self):
        with pytest.raises(EnsembleError):
            energy_decomposition_check(
                graph_spec(make_partition(8, [0.5, 0.5]), 0.5, 0), [5])

    def test_nonzero_intra_law_rejected(self):
        # X = A + D fills the empty large blocks of a multipartite graph
        # only when A has none: an intra law that is not 0 puts entries there
        spec = EnsembleSpec(make_partition(12, [0.5, 0.5]),
                            EntryLaw.rademacher(), EntryLaw.bernoulli(0.5), 3)
        with pytest.raises(EnsembleError, match="zero intra law"):
            energy_decomposition_check(spec, [0])

    @pytest.mark.parametrize("large", [[], [0, 0]], ids=["none", "repeated"])
    def test_large_parts_checked_like_the_bounds(self, large):
        # the rule of energy_bounds_unbalanced and the CLI: at least one
        # large part, none twice
        part = make_partition(12, [0.5, 0.5])
        with pytest.raises(EnsembleError):
            energy_decomposition_check(graph_spec(part, 0.5, 23), large)

    @pytest.mark.parametrize("large", [[1], [0], [0, 2], [0, 1, 2]])
    def test_block_energy_equals_whole_d(self, large):
        part = make_partition(90, [0.5, 0.3, 0.2])
        spec = graph_spec(part, 0.4, 29)
        r = energy_decomposition_check(spec, large, replicate=1)
        D = oracle_decomposition(part, set(large), 0.4, 29, 1)[2]
        assert r["block_diagonal"]
        assert r["energy_D"] == pytest.approx(graph_energy(D), rel=1e-12,
                                              abs=0.0)
