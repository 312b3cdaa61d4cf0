"""End-to-end acceptance gate.

Each test certifies one numbered claim of the package against either an
exact combinatorial value, a closed-form law, or a Monte Carlo window, and
prints a single `criterion NN: PASS/FAIL` line with the measured numbers.
"""

import math
import time
from fractions import Fraction

import numpy as np

import conftest
from conftest import limit_gamma_walks
from rmtlab.ensemble import (EnsembleSpec, EntryLaw, make_partition,
                             sample_matrix, scale_matrix,
                             singleton_partition)
from rmtlab.experiments import run_experiment
from rmtlab.graphenergy import (energy_bounds_unbalanced,
                                energy_decomposition_check, graph_energy,
                                kyfan_check, sample_graph)
from rmtlab.laws import (catalan, gamma_bipartite_printed,
                         gamma_proposition_printed, hankel_report,
                         limit_moments, pseudo_char, semicircle_cdf)
from rmtlab.spectral import (check_rank_inequality,
                             check_stieltjes_perturbation, eigenvalues_sym,
                             empirical_moment, esd, ks_distance)
from rmtlab.walks import exact_expected_trace_moment


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    conftest.CRITERION_LINES.append(line)
    assert ok, detail


def _spectrum(spec, replicate=0):
    return eigenvalues_sym(scale_matrix(sample_matrix(spec, replicate)))


RADEMACHER = EntryLaw.rademacher()
UNIFORM = EntryLaw.uniform_interval(-1, 1)
ZERO = EntryLaw.constant_zero()


def test_criterion_01_catalan_identity():
    t0 = time.perf_counter()
    # independent oracle: the convolution recursion T_k = sum T_i T_{k-1-i}
    rec = [1]
    for k in range(1, 21):
        rec.append(sum(rec[i] * rec[k - 1 - i] for i in range(k)))
    ok = all(rec[k] == catalan(k) == math.factorial(2 * k)
             // (math.factorial(k) * math.factorial(k + 1))
             for k in range(21))
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 1.0,
            f"recursion == closed form for k<=20 in {elapsed:.3f}s")


def test_criterion_02_good_walk_counts(tmp_path):
    t0 = time.perf_counter()
    rep = run_experiment({"kind": "walks", "max_k": 8}, tmp_path)
    got = [row["good"] for row in rep["table"]]
    elapsed = time.perf_counter() - t0
    ok = got == [1, 2, 5, 14] and elapsed < 30.0
    _report(2, ok, f"g(v,k) for k=2,4,6,8 gives {got} in {elapsed:.1f}s")


def test_criterion_03_oracle_vs_monte_carlo():
    t0 = time.perf_counter()
    ensembles = {
        "wigner": EnsembleSpec(make_partition(6, [1.0]), RADEMACHER,
                               RADEMACHER, 31),
        "bipartite_mixed": EnsembleSpec(make_partition(6, [0.5, 0.5]),
                                        UNIFORM, RADEMACHER, 32),
        "bipartite_zero_intra": EnsembleSpec(make_partition(6, [0.5, 0.5]),
                                             ZERO, RADEMACHER, 33),
    }
    reps = 10_000
    worst = 0.0
    ok = True
    for name, spec in ensembles.items():
        moments = np.empty((reps, 4))
        for r in range(reps):
            eigs = _spectrum(spec, r)
            for k in range(1, 5):
                moments[r, k - 1] = empirical_moment(eigs, k)
        for k in range(1, 5):
            exact = float(exact_expected_trace_moment(spec, k))
            col = moments[:, k - 1]
            se = col.std(ddof=1) / math.sqrt(reps)
            dev = abs(col.mean() - exact) / max(se, 1e-15)
            worst = max(worst, dev)
            ok = ok and abs(col.mean() - exact) <= 4 * se + 1e-15
    elapsed = time.perf_counter() - t0
    _report(3, ok and elapsed < 120.0,
            f"3 ensembles x k<=4, worst deviation {worst:.2f} SE "
            f"(limit 4) in {elapsed:.1f}s")


def test_criterion_04_wigner_desk_scale():
    t0 = time.perf_counter()
    spec = EnsembleSpec(make_partition(2000, [1.0]), RADEMACHER, RADEMACHER,
                        41)
    eigs = _spectrum(spec)
    ks = ks_distance(esd(eigs), lambda x: semicircle_cdf(x, 1.0))
    m2 = empirical_moment(eigs, 2)
    m4 = empirical_moment(eigs, 4)
    elapsed = time.perf_counter() - t0
    ok = (ks < 0.05 and abs(m2 - 0.25) < 0.0125 and abs(m4 - 0.125) < 0.0125
          and elapsed < 60.0)
    _report(4, ok, f"n=2000 KS={ks:.4f} M2={m2:.4f} M4={m4:.4f} "
                   f"in {elapsed:.1f}s")


def test_criterion_05_mixed_laws_balanced_bipartite():
    spec = EnsembleSpec(make_partition(2000, [0.5, 0.5]), UNIFORM,
                        RADEMACHER, 51)
    radius = math.sqrt(2.0 / 3.0)
    ks = ks_distance(esd(_spectrum(spec)),
                     lambda x: semicircle_cdf(x, radius))
    _report(5, ks < 0.05, f"KS vs semicircle radius sqrt(2/3) = {ks:.4f}")


def test_criterion_06_vanishing_parts():
    n = 2000
    spec = EnsembleSpec(make_partition(n, [2.0 / n] * (n // 2)), UNIFORM,
                        RADEMACHER, 61)
    ks = ks_distance(esd(_spectrum(spec)), lambda x: semicircle_cdf(x, 1.0))
    _report(6, ks < 0.05, f"size-2 parts, KS vs radius 1 = {ks:.4f}")


def test_criterion_07_limit_moment_cross_check():
    ok = True
    s1 = Fraction(1, 3)
    for m in (2, 3, 4):
        fracs = [Fraction(1, m)] * m
        gammas = limit_moments(fracs, s1, 1, 8)
        for k in (2, 4, 6, 8):
            closed = Fraction(catalan(k // 2), 4 ** (k // 2)) \
                * ((s1 + m - 1) / m) ** (k // 2)
            ok = ok and limit_gamma_walks(fracs, s1, 1, k) == gammas[k] \
                == closed
    fracs = [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)]
    s2 = Fraction(7, 4)
    got = limit_gamma_walks(fracs, 0, s2, 2)
    closed = (1 - sum(f**2 for f in fracs)) * s2 / 4
    ok = ok and got == closed == limit_moments(fracs, 0, s2, 2)[2]
    _report(7, ok, "balanced walks == limit_moments == main-theorem closed "
                   "form (k<=8, exact); "
                   f"general k=2 value {got} == (1-sum nu^2) s2/4")


def test_criterion_08_discrepancy_ledger():
    fracs = [Fraction(4, 5), Fraction(1, 5)]
    oracle2 = limit_gamma_walks(fracs, 0, 1, 2)
    oracle4 = limit_gamma_walks(fracs, 0, 1, 4)
    printed2 = gamma_bipartite_printed(2, 0.8, 0.2, 1.0)
    printed4 = gamma_bipartite_printed(4, 0.8, 0.2, 1.0)
    spec = EnsembleSpec(make_partition(2000, [0.8, 0.2]), ZERO, RADEMACHER,
                        81)
    eigs = _spectrum(spec)
    m2, m4 = empirical_moment(eigs, 2), empirical_moment(eigs, 4)
    ok = (oracle2 == Fraction(2, 25) and oracle4 == Fraction(1, 50)
          and printed2 == 0.25 and printed4 == 0.04
          and abs(m2 - 0.08) <= 0.1 * 0.08
          and abs(m4 - 0.02) <= 0.1 * 0.02
          and abs(m2 - printed2) > 0.1 * printed2
          and abs(m4 - printed4) > 0.1 * printed4)
    _report(8, ok,
            f"oracle (g2,g4)=({float(oracle2)},{float(oracle4)}) vs "
            f"printed ({printed2},{printed4}); empirical M2={m2:.4f} "
            f"M4={m4:.4f} matches the oracle only")


def test_criterion_09_hankel_sanity():
    rng = np.random.default_rng(91)
    ok = True
    for _ in range(10):
        m = int(rng.integers(2, 7))
        s1 = float(rng.uniform(0.05, 2.0))
        s2 = float(rng.uniform(0.05, 2.0))
        gammas = [float(g) for g in
                  limit_moments([Fraction(1, m)] * m, s1, s2, 10)]
        ok = ok and hankel_report(gammas, 5)["psd"]
    printed = [1.0, 0.0, float(gamma_proposition_printed(1, 3, 0.8, 0.1)),
               0.0, float(gamma_proposition_printed(2, 3, 0.8, 0.1)),
               0.0, float(gamma_proposition_printed(3, 3, 0.8, 0.1))]
    det3_printed = hankel_report(printed, 3)["determinants"][3]
    fracs = [Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)]
    walk = [1.0] + [0.0] * 6
    for j in (2, 4, 6):
        walk[j] = float(limit_gamma_walks(fracs, 0, 1, j))
    det3_walk = hankel_report(walk, 3)["determinants"][3]
    ok = ok and det3_printed < 0 < det3_walk
    _report(9, ok, "main-theorem Hankel PSD for 10 random ensembles; "
                   f"Delta3 printed {det3_printed:.3e} (<0), "
                   f"walk oracle {det3_walk:.3e} (>0)")


def test_criterion_10_negativity_witness(tmp_path):
    t0 = time.perf_counter()
    nuhat = math.sqrt(0.3)
    t = run_experiment({"kind": "charfn",
                        "charfn": {"nuhat": nuhat, "step": 0.01}},
                       tmp_path)["witness"]
    elapsed = time.perf_counter() - t0
    ok = (t is not None and 0 < t <= 60.0
          and pseudo_char(t, nuhat, 1.0) < -1.0 and elapsed < 1.0)
    _report(10, ok, f"nuhat^2=0.3 witness t={t:.2f} with "
                    f"f(t)={pseudo_char(t, nuhat, 1.0):.3f} "
                    f"in {elapsed:.3f}s")


def test_criterion_11_inequality_suites():
    rng = np.random.default_rng(111)

    def sym(n):
        M = rng.normal(size=(n, n))
        return M + M.T

    rank_viol = stieltjes_viol = kyfan_viol = 0
    for _ in range(50):
        n = int(rng.integers(5, 30))
        M = sym(n)
        pert = sum(np.outer(v, v) for v in
                   rng.normal(size=(int(rng.integers(1, n)), n)))
        if not check_rank_inequality(M, M + pert)["holds"]:
            rank_viol += 1
        D = np.diag(rng.normal(size=n))
        z = complex(rng.normal(), abs(rng.normal()) + 0.2)
        if not check_stieltjes_perturbation(M, D, z)["holds"]:
            stieltjes_viol += 1
        if not kyfan_check(rng.normal(size=(n, n)),
                           rng.normal(size=(n, n)))["holds"]:
            kyfan_viol += 1
    ok = rank_viol == stieltjes_viol == kyfan_viol == 0
    _report(11, ok, f"50 trials each: rank {rank_viol}, stieltjes "
                    f"{stieltjes_viol}, kyfan {kyfan_viol} violations")


def test_criterion_12_concentration():
    variances = []
    for n in (50, 100, 200):
        spec = EnsembleSpec(make_partition(n, [1.0]), RADEMACHER,
                            RADEMACHER, 121)
        vals = []
        for r in range(200):
            B = scale_matrix(sample_matrix(spec, r))
            B2 = B @ B
            vals.append(float(np.trace(B2 @ B2)) / n)
        variances.append(float(np.var(vals, ddof=1)))
    r1 = variances[0] / variances[1]
    r2 = variances[1] / variances[2]
    _report(12, r1 >= 2.5 and r2 >= 2.5,
            f"Var(M4) drops x{r1:.1f} and x{r2:.1f} per doubling "
            f"(need >= 2.5)")


def test_criterion_13_graph_energy_predictions():
    t0 = time.perf_counter()
    n, reps = 1500, 5
    settings = [
        ("gnp_half", singleton_partition(n), 0.5, 4.0 / (3.0 * math.pi)),
        ("gnp_fifth", singleton_partition(n), 0.2,
         (8.0 / (3.0 * math.pi)) * 0.4),
        ("bipartite_half", make_partition(n, [0.5, 0.5]), 0.5,
         (8.0 / (3.0 * math.pi)) * math.sqrt(1.0 / 8.0)),
    ]
    ok = True
    details = []
    for i, (name, part, p, target) in enumerate(settings):
        spec = conftest.graph_spec(part, p, 131 + i)
        mean = np.mean([graph_energy(sample_graph(spec, r))
                        for r in range(reps)]) / n**1.5
        rel = abs(mean - target) / target
        ok = ok and rel <= 0.05
        details.append(f"{name} {mean:.4f} vs {target:.4f} ({rel:.1%})")
    elapsed = time.perf_counter() - t0
    _report(13, ok and elapsed < 300.0,
            "; ".join(details) + f" in {elapsed:.0f}s")


def test_criterion_14_unbalanced_energy_sandwich():
    n, p = 1200, 0.5
    fracs = [0.6, 0.2, 0.2]
    spec = conftest.graph_spec(make_partition(n, fracs), p, 141)
    bounds = energy_bounds_unbalanced(spec, [0, 1, 2])
    energy = graph_energy(sample_graph(spec))
    chk = energy_decomposition_check(spec, [0, 1, 2])
    ok = (0.9 * bounds["lower"] <= energy <= 1.1 * bounds["upper"]
          and chk["holds"] and chk["block_diagonal"])
    _report(14, ok,
            f"energy {energy:.0f} inside [{0.9 * bounds['lower']:.0f}, "
            f"{1.1 * bounds['upper']:.0f}]; decomposition chain holds")
