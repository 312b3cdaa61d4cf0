import math

import numpy as np
import pytest

from rmtlab.ensemble import EnsembleError, make_partition, singleton_partition
from rmtlab.graphenergy import (_correction, energy_bounds_unbalanced,
                                energy_decomposition_check, graph_energy,
                                kyfan_check, predicted_energy_gnp,
                                predicted_energy_multipartite, sample_graph,
                                singular_value_sum)
from rmtlab.laws import semicircle_abs_mean


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
        A = sample_graph(singleton_partition(8), 0.0, seed=1)
        assert not np.any(A)

    def test_p_one_is_complete_multipartite(self):
        part = make_partition(6, [0.5, 0.5])
        A = sample_graph(part, 1.0, seed=2)
        labels = part.part_labels()
        cross = labels[:, None] != labels[None, :]
        assert np.array_equal(A, cross.astype(float))

    def test_p_one_singletons_energy(self):
        n = 10
        A = sample_graph(singleton_partition(n), 1.0, seed=0)
        assert graph_energy(A) == pytest.approx(2 * (n - 1))

    def test_symmetric_zero_diag_binary(self):
        A = sample_graph(singleton_partition(20), 0.4, seed=7)
        assert np.array_equal(A, A.T)
        assert not np.any(np.diag(A))
        assert set(np.unique(A)) <= {0.0, 1.0}

    def test_no_intra_edges(self):
        part = make_partition(12, [0.5, 0.25, 0.25])
        A = sample_graph(part, 0.9, seed=3)
        labels = part.part_labels()
        intra = labels[:, None] == labels[None, :]
        assert not np.any(A[intra])

    def test_determinism(self):
        part = make_partition(15, [0.6, 0.4])
        A = sample_graph(part, 0.3, seed=5, replicate=2)
        B = sample_graph(part, 0.3, seed=5, replicate=2)
        C = sample_graph(part, 0.3, seed=5, replicate=3)
        assert np.array_equal(A, B)
        assert not np.array_equal(A, C)

    def test_edge_count_binomial(self):
        # total cross edges over replicates: 4 standard errors
        part = make_partition(30, [0.5, 0.5])
        p, pairs = 0.35, 15 * 15
        counts = [sample_graph(part, p, seed=11, replicate=r).sum()
                  / 2 for r in range(200)]
        total, trials = sum(counts), 200 * pairs
        se = math.sqrt(trials * p * (1 - p))
        assert abs(total - trials * p) <= 4 * se

    def test_rejects_bad_probability(self):
        with pytest.raises(EnsembleError):
            sample_graph(singleton_partition(4), 1.5, seed=0)


class TestPredictions:
    def test_gnp_matches_semicircle_abs_mean(self):
        # prediction must equal 2 n^(3/2) * mean |x| under the radius-
        # sqrt(p(1-p)) semicircle
        for n, p in ((100, 0.5), (1500, 0.2)):
            direct = predicted_energy_gnp(n, p)
            via_law = 2 * n**1.5 * semicircle_abs_mean(
                math.sqrt(p * (1 - p)))
            assert direct == pytest.approx(via_law, rel=1e-12)

    def test_multipartite_reduction(self):
        n, p = 900, 0.4
        for m in (2, 3, 5):
            assert predicted_energy_multipartite(n, m, p) == pytest.approx(
                predicted_energy_gnp(n, p) * math.sqrt((m - 1) / m))

    def test_multipartite_monotone_in_m(self):
        vals = [predicted_energy_multipartite(600, m, 0.3)
                for m in range(2, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < predicted_energy_gnp(600, 0.3)

    def test_unbalanced_bounds_bracket_leading_term(self):
        n, p = 1200, 0.5
        b = energy_bounds_unbalanced(n, [0.6, 0.2, 0.2], [0], p)
        lead = predicted_energy_gnp(n, p)
        s = 0.6**1.5
        assert b["lower"] == pytest.approx((1 - s) * lead)
        assert b["upper"] == pytest.approx((1 + s) * lead)
        assert b["lower"] < lead < b["upper"]

    def test_validation(self):
        with pytest.raises(EnsembleError):
            predicted_energy_gnp(100, 0.0)
        with pytest.raises(EnsembleError):
            predicted_energy_multipartite(100, 1, 0.5)
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(100, [0.5, 0.5], [], 0.5)
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(100, [0.5, 0.5], [2], 0.5)
        with pytest.raises(EnsembleError, match="repeated"):
            energy_bounds_unbalanced(100, [0.6, 0.2, 0.2], [0, 0], 0.5)
        with pytest.raises(EnsembleError):
            energy_bounds_unbalanced(100, [0.5, 0.5], [0], 1.0)


def test_empirical_energy_near_prediction():
    # single n=500 sample should land within a few percent of the
    # leading-order prediction
    n, p = 500, 0.5
    A = sample_graph(singleton_partition(n), p, seed=13)
    assert graph_energy(A) == pytest.approx(predicted_energy_gnp(n, p),
                                            rel=0.05)


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
            assert singular_value_sum(X + Y) == pytest.approx(r["rhs"])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kyfan_check(np.zeros((2, 2)), np.zeros((3, 3)))


class TestEnergyDecomposition:
    def test_holds_and_block_diagonal(self):
        part = make_partition(40, [0.6, 0.2, 0.2])
        r = energy_decomposition_check(part, [0], 0.5, seed=17)
        assert r["holds"] and r["block_diagonal"]
        assert r["kyfan_upper"]["holds"] and r["kyfan_lower"]["holds"]
        assert r["energy_X"] - r["energy_D"] <= r["energy_A"] + 1e-9
        assert r["energy_A"] <= r["energy_X"] + r["energy_D"] + 1e-9

    def test_correction_supported_on_large_blocks(self):
        part = make_partition(24, [0.5, 0.25, 0.25])
        # recompute D through the same sampler to inspect its support
        r = energy_decomposition_check(part, [0, 1], 0.4, seed=19)
        assert r["block_diagonal"]
        assert r["energy_D"] > 0.0

    def test_index_validation(self):
        with pytest.raises(EnsembleError):
            energy_decomposition_check(make_partition(8, [0.5, 0.5]), [5],
                                       0.5, seed=0)

    @pytest.mark.parametrize("large", [[], [0, 0]], ids=["none", "repeated"])
    def test_large_parts_checked_like_the_bounds(self, large):
        # the rule of energy_bounds_unbalanced and the CLI: at least one
        # large part, none twice
        part = make_partition(12, [0.5, 0.5])
        with pytest.raises(EnsembleError):
            energy_decomposition_check(part, large, 0.5, seed=23)

    @pytest.mark.parametrize("large", [[1], [0], [0, 2], [0, 1, 2]])
    def test_block_energy_equals_whole_d(self, large):
        part = make_partition(90, [0.5, 0.3, 0.2])
        r = energy_decomposition_check(part, large, 0.4, seed=29, replicate=1)
        D = _correction(part, set(large), 0.4, 29, 1)
        assert r["block_diagonal"]
        assert r["energy_D"] == pytest.approx(graph_energy(D), rel=1e-12,
                                              abs=0.0)

    def test_stray_entry_solves_whole_d(self, monkeypatch):
        part = make_partition(30, [0.5, 0.5])
        D0 = _correction(part, {0}, 0.5, 31, 0)
        stray = {}

        def broken(*args):
            D = _correction(*args)
            D[0, 20] = D[20, 0] = 1.0  # one pair across the two parts
            stray["D"] = D.copy()  # the check solves D in place
            return D

        monkeypatch.setattr("rmtlab.graphenergy._correction", broken)
        r = energy_decomposition_check(part, [0], 0.5, seed=31)
        assert not r["block_diagonal"] and not r["holds"]
        assert r["energy_D"] == graph_energy(stray["D"])
        assert r["energy_D"] != pytest.approx(graph_energy(D0[:15, :15]))

