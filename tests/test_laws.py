import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import limit_gamma_walks
from rmtlab.laws import (LawError, catalan, gamma_bipartite_printed,
                         gamma_proposition_printed, hankel_report,
                         limit_moments, pseudo_char, pseudo_char_grid,
                         semicircle_cdf, semicircle_density,
                         semicircle_moment, semicircle_stieltjes)


def catalan_by_recursion(k):
    # T_k = sum_{i=0}^{k-1} T_i T_{k-1-i}, T_0 = 1
    T = [1]
    for j in range(1, k + 1):
        T.append(sum(T[i] * T[j - 1 - i] for i in range(j)))
    return T[k]


def quad_integral(f, lo, hi):
    from scipy.integrate import quad
    val, _ = quad(f, lo, hi, limit=200)
    return float(val)


class TestCatalan:
    def test_base_cases(self):
        assert catalan(0) == 1
        assert catalan(1) == 1

    def test_k3(self):
        assert catalan(3) == 5

    def test_recursion_matches_closed_form(self):
        for k in range(21):
            assert catalan(k) == catalan_by_recursion(k)


class TestSemicircle:
    def test_cdf_symmetry(self):
        for R in (0.5, 1.0, 3.0):
            assert semicircle_cdf(0.0, R) == pytest.approx(0.5)
            assert semicircle_cdf(-R, R) == 0.0
            assert semicircle_cdf(R, R) == 1.0

    def test_cdf_nondecreasing(self):
        x = np.linspace(-1.5, 1.5, 1001)
        assert np.all(np.diff(semicircle_cdf(x, 1.0)) >= -1e-15)

    def test_density_integrates_to_one(self):
        q = quad_integral(lambda x: semicircle_density(x, 1.0), -1, 1)
        assert q == pytest.approx(1.0, abs=1e-10)

    def test_moments_by_quadrature(self):
        R = 1.3
        for k, expected in ((2, R**2 / 4), (4, R**4 / 8)):
            assert float(semicircle_moment(k, R)) == pytest.approx(expected)
            q = quad_integral(
                lambda x: x**k * semicircle_density(x, R), -R, R)
            assert q == pytest.approx(expected, abs=1e-10)

    def test_abs_mean_by_quadrature(self):
        R = 0.8
        q = quad_integral(
            lambda x: abs(x) * semicircle_density(x, R), -R, R)
        assert q == pytest.approx(4 * R / (3 * math.pi), abs=1e-9)

    def test_odd_moments_vanish(self):
        assert semicircle_moment(3, 1.0) == 0
        assert semicircle_moment(7, 2.0) == 0

    def test_law_functions(self):
        assert float(semicircle_moment(2, 2.0)) == pytest.approx(1.0)
        assert semicircle_cdf(0.0, 2.0) == pytest.approx(0.5)
        with pytest.raises(LawError):
            semicircle_moment(2, 0.0)
        with pytest.raises(LawError):
            semicircle_cdf(0.0, 0.0)


def mpmath_stieltjes(z, R):
    """2(-z + w)/R^2 with w = sqrt(z^2 - R^2) in the upper half plane, at 60
    digits more than the 2 log10(|z|/R) that the cancellation for |z| >> R
    costs."""
    with mpmath.workdps(60 + 2 * max(0, math.ceil(math.log10(abs(z) / R)))):
        z, R = mpmath.mpc(z), mpmath.mpf(R)
        w = mpmath.sqrt(z * z - R * R)
        if mpmath.im(w) < 0:
            w = -w
        return complex(2 * (-z + w) / (R * R))


class TestSemicircleStieltjes:
    def test_asymptotic_branch(self):
        # S(z) = -1/z - R^2/(4 z^3) + ..., so -1/z is 2.5e-13 off relatively
        z = 1e6j
        assert abs(semicircle_stieltjes(z, 1.0) - (-1 / z)) <= 1e-12 / abs(z)

    @pytest.mark.parametrize("z", [1000 + 1j, 1e5 + 0.5j, -1e5 + 0.5j, 1e6j,
                                   3e8 + 1j, 0.5 + 0.1j, 2j])
    def test_matches_mpmath_far_from_the_support(self, z):
        want = mpmath_stieltjes(z, 1.0)
        assert abs(semicircle_stieltjes(z, 1.0) - want) <= 1e-14 * abs(want)

    def test_quadrature_oracle(self):
        z = 1j
        x = np.linspace(-1, 1, 4_000_001)
        vals = semicircle_density(x, 1.0) / (x - z)
        q = complex(np.trapezoid(vals.real, x), np.trapezoid(vals.imag, x))
        assert abs(semicircle_stieltjes(z, 1.0) - q) <= 1e-8

    def test_herglotz_grid(self):
        for re in (-2.0, -0.5, 0.0, 0.5, 2.0):
            for im in (0.1, 1.0, 10.0):
                assert semicircle_stieltjes(complex(re, im), 1.0).imag > 0

    def test_rejects_lower_half_plane(self):
        with pytest.raises(LawError):
            semicircle_stieltjes(-1j, 1.0)


def mpmath_density_cdf(x, R):
    with mpmath.workdps(60):
        x, R = mpmath.mpf(x), mpmath.mpf(R)
        root = mpmath.sqrt(R * R - x * x)
        return (float(2 * root / (mpmath.pi * R * R)),
                float(0.5 + x * root / (mpmath.pi * R * R)
                      + mpmath.asin(x / R) / mpmath.pi))


SCALE = st.integers(-900, 900)
MAGNITUDE = st.floats(1e-3, 1e3)
SIGNED = st.builds(lambda m, neg: -m if neg else m, MAGNITUDE, st.booleans())


class TestSemicircleAtAnyRadius:
    # R^2, and z^2 - R^2, are beyond float range for R (or |z|) above
    # about 1e154 or below about 1e-154
    @pytest.mark.parametrize("R", [1e-300, 1e-160, 1e160, 1e300])
    def test_density_and_cdf_match_mpmath(self, R):
        for t in (-0.9, -0.5, -1e-3, 0.0, 0.3, 0.7, 0.9):
            density, cdf = mpmath_density_cdf(t * R, R)
            assert abs(semicircle_density(t * R, R) - density) \
                <= 4e-15 * density
            assert abs(semicircle_cdf(t * R, R) - cdf) <= 4e-16
        assert semicircle_density(1.5 * R, R) == 0.0
        assert semicircle_cdf(-1.5 * R, R) == 0.0
        assert semicircle_cdf(1.5 * R, R) == 1.0

    @pytest.mark.parametrize("z, R", [(1e200j, 1.0), (1e160 + 1j, 1.0),
                                      (1j, 1e200), (1e-200j, 1e-200)])
    def test_stieltjes_matches_mpmath(self, z, R):
        want = mpmath_stieltjes(z, R)
        assert abs(semicircle_stieltjes(z, R) - want) <= 1e-14 * abs(want)

    @settings(max_examples=200, deadline=None)
    @given(x=SIGNED, re=SIGNED, im=MAGNITUDE, R=MAGNITUDE, j=SCALE)
    def test_scale_covariance_is_exact(self, x, re, im, R, j):
        # dividing by a power of two is exact, so scaling every argument
        # by 2^j scales the density and the transform by 2^-j, bit for bit
        def up(t):
            return math.ldexp(t, j)
        assert semicircle_cdf(up(x), up(R)) == semicircle_cdf(x, R)
        assert semicircle_density(up(x), up(R)) \
            == math.ldexp(semicircle_density(x, R), -j)
        S = semicircle_stieltjes(complex(re, im), R)
        assert semicircle_stieltjes(complex(up(re), up(im)), up(R)) \
            == complex(math.ldexp(S.real, -j), math.ldexp(S.imag, -j))

    @pytest.mark.parametrize("R", [math.nan, math.inf])
    @pytest.mark.parametrize("law", [
        lambda R: semicircle_density(0.0, R),
        lambda R: semicircle_cdf(0.0, R),
        lambda R: semicircle_stieltjes(1j, R),
        lambda R: semicircle_moment(2, R)],
        ids=["density", "cdf", "stieltjes", "moment"])
    def test_non_finite_radius_refused(self, law, R):
        with pytest.raises(LawError, match="finite"):
            law(R)


def balanced(m):
    return [Fraction(1, m)] * m


class TestGammaSequences:
    # gamma_main: limit_moments on m equal parts (the `main` hankel
    # source); gamma_uniform: one part (`walk_oracle` on fractions [1])
    def test_gamma_main_odd_is_zero(self):
        assert limit_moments(balanced(2), 1.0, 1.0, 3)[3] == 0
        assert limit_moments(balanced(4), 0.5, 2.0, 5)[5] == 0

    def test_gamma_main_wigner_case(self):
        assert limit_moments(balanced(2), 1.0, 1.0, 2)[2] == Fraction(1, 4)

    def test_gamma_main_k4_bipartite(self):
        assert limit_moments(balanced(2), 0.0, 1.0, 4)[4] == Fraction(1, 32)

    def test_gamma_main_equals_semicircle_moment(self):
        for (m, s1, s2) in ((2, 0.0, 1.0), (3, 0.5, 2.0), (5, 1.0, 1.0)):
            gammas = limit_moments(balanced(m), s1, s2, 12)
            # the squared mixing radius (s1 + (m-1) s2) / m
            r2 = (Fraction(s1) + (m - 1) * Fraction(s2)) / m
            for k in range(0, 13):
                lhs = float(gammas[k])
                rhs = float(semicircle_moment(k, math.sqrt(float(r2)))) \
                    if k % 2 == 0 else 0.0
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)
            # and exactly: Catalan(h)/4^h times r2^h
            assert gammas[::2] == [Fraction(catalan(h), 4**h) * r2**h
                                   for h in range(7)]

    def test_gamma_uniform(self):
        assert limit_moments([1], 1.0, 1.0, 2)[2] == Fraction(1, 4)
        assert limit_moments([1], 1.0, 1.0, 6)[6] == Fraction(5, 64)
        assert limit_moments([1], 1.7, 1.7, 10) == \
            limit_moments(balanced(4), 1.7, 1.7, 10)

    @settings(max_examples=40, deadline=None)
    @example(weights=[4, 1], s1=Fraction(0), s2=Fraction(1), k=8)
    @given(weights=st.lists(st.integers(1, 9), min_size=1, max_size=4),
           s1=st.fractions(0, 3, max_denominator=7),
           s2=st.fractions(0, 3, max_denominator=7).filter(lambda x: x > 0),
           k=st.sampled_from([0, 2, 4, 6, 8]))
    def test_limit_moments_equal_walk_oracle(self, weights, s1, s2, k):
        fracs = [Fraction(w, sum(weights)) for w in weights]
        gammas = limit_moments(fracs, s1, s2, k)
        assert gammas[k] == limit_gamma_walks(fracs, s1, s2, k)
        assert all(g == 0 for g in gammas[1::2])

    def test_limit_moments_zero_intra_and_length(self):
        fracs = [Fraction(3, 5), Fraction(3, 10), Fraction(1, 10)]
        gammas = limit_moments(fracs, 0, 1, 8)
        assert len(gammas) == 9 and gammas[0] == 1
        for k in (2, 4, 6, 8):
            assert gammas[k] == limit_gamma_walks(fracs, 0, 1, k)
        with pytest.raises(LawError):
            limit_moments(fracs, 0, 1, -1)
        for s1, s2 in ((-0.5, 1), (0, -1)):
            with pytest.raises(LawError):
                limit_moments(fracs, s1, s2, 4)

    def test_bipartite_printed_values(self):
        assert gamma_bipartite_printed(3, 0.8, 0.2, 1.0) == 0.0
        assert gamma_bipartite_printed(4, 0.8, 0.2, 1.0) == pytest.approx(0.04)
        # the printed k=2 value is nu-independent; the walk oracle is not --
        # archive both, assert only the oracle-vs-printed relationship
        printed = gamma_bipartite_printed(2, 0.8, 0.2, 1.0)
        oracle = float(limit_gamma_walks([Fraction(4, 5), Fraction(1, 5)],
                                         0, 1, 2))
        assert printed == pytest.approx(0.25)
        assert oracle == pytest.approx(0.08)
        assert printed != pytest.approx(oracle)

    def test_proposition_printed_gamma2(self):
        assert gamma_proposition_printed(1, 3, 0.8, 0.1) == \
            pytest.approx(0.085)

    def test_proposition_gamma2_algebraic_identity(self):
        # printed form equals (1 - nu1^2 - (m-1) nu2^2)/4
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(3, 7))
            nu1 = float(rng.uniform(0.05, 0.95))
            nu2 = (1 - nu1) / (m - 1)
            lhs = gamma_proposition_printed(1, m, nu1, nu2)
            rhs = (1 - nu1**2 - (m - 1) * nu2**2) / 4
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_proposition_vs_walk_oracle(self):
        # gamma_2 and gamma_4 printed forms agree with the exact walk
        # counts; the printed gamma_6 does not (recorded, not asserted)
        m, nu1 = 3, Fraction(4, 5)
        nu2 = (1 - nu1) / (m - 1)
        fracs = [nu1] + [nu2] * (m - 1)
        for j in (1, 2):
            printed = gamma_proposition_printed(j, m, float(nu1), float(nu2))
            oracle = float(limit_gamma_walks(fracs, 0, 1, 2 * j))
            assert printed == pytest.approx(oracle, rel=1e-12)
        printed6 = gamma_proposition_printed(3, m, float(nu1), float(nu2))
        oracle6 = float(limit_gamma_walks(fracs, 0, 1, 6))
        assert printed6 != pytest.approx(oracle6)

    def test_constraint_validation(self):
        with pytest.raises(LawError):
            gamma_proposition_printed(1, 3, 0.5, 0.5)
        with pytest.raises(LawError):
            gamma_bipartite_printed(2, 0.8, 0.3, 1.0)


class TestHankel:
    def semicircle_gammas(self, R, L):
        return [float(semicircle_moment(k, R)) for k in range(L + 1)]

    def test_matrix_layout(self):
        # H[i, j] = gamma_{i+j}, built here; no two leading minors agree
        g = [1.0, 0.3, 2.0, -0.5, 7.0, 1.1, 30.0]
        H = np.array([[g[i + j] for j in range(4)] for i in range(4)])
        rep = hankel_report(g, 3)
        assert rep["determinants"] == pytest.approx(
            [np.linalg.det(H[: r + 1, : r + 1]) for r in range(4)],
            rel=1e-12)
        assert rep["min_eigenvalue"] == pytest.approx(
            np.linalg.eigvalsh(H)[0], rel=1e-12)

    def test_semicircle_is_psd(self):
        rep = hankel_report(self.semicircle_gammas(1.0, 6), 3)
        assert rep["psd"]

    def test_point_mass_is_psd(self):
        g = [1.0] + [0.0] * 10
        assert hankel_report(g, 5)["psd"]

    def test_gamma_main_sequences_psd(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            s1 = float(rng.uniform(0, 2))
            s2 = float(rng.uniform(0.1, 2))
            g = [float(x) for x in limit_moments(balanced(m), s1, s2, 10)]
            assert hankel_report(g, 5)["psd"]

    def test_proposition_printed_delta3_sign_recorded(self):
        g = [1.0, 0.0,
             gamma_proposition_printed(1, 3, 0.8, 0.1), 0.0,
             gamma_proposition_printed(2, 3, 0.8, 0.1), 0.0,
             gamma_proposition_printed(3, 3, 0.8, 0.1)]
        rep = hankel_report(g, 3)
        # the published argument needs a negative leading 4x4 determinant
        assert rep["determinants"][3] < 0
        assert not rep["psd"]

    def test_insufficient_moments(self):
        with pytest.raises(LawError, match="up to order 4"):
            hankel_report([1.0, 0.0, 0.25], 2)


def first_below_minus_one(rows):
    """The witness as the `charfn` run finds it: the first grid point t with
    f(t) < -1, or None."""
    return next((t for t, val in rows if val < -1.0), None)


class TestPseudoChar:
    def test_limit_at_zero(self):
        assert pseudo_char(0.0, 0.5, 1.0) == 1.0
        assert pseudo_char(-0.0, 0.3, 2.5) == 1.0
        assert pseudo_char(1e-10, 0.5, 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("nuhat", [0.5, math.sqrt(0.3), 0.2, 0.7])
    def test_matches_mpmath_on_domain(self, nuhat):
        # the Bessel form at 40 digits, taken at the float x the function
        # itself forms from t
        with mpmath.workdps(40):
            for i in range(1, 401):
                t = 60.0 * i / 400 / nuhat
                x = mpmath.mpf(nuhat * 1.0 * t)
                if x > 60:
                    continue
                inv = 1 / mpmath.mpf(nuhat) ** 2
                want = ((2 + inv) * mpmath.besselj(1, x)
                        + (2 - inv) * mpmath.besseli(1, x)) / (2 * x)
                got = pseudo_char(t, nuhat, 1.0)
                assert abs(got - want) <= 1e-14 * max(abs(want), 1), t

    def test_is_even(self):
        for t in (0.3, 7.9, 41.0, 109.0):
            assert pseudo_char(-t, 0.55, 1.0) == pseudo_char(t, 0.55, 1.0)

    def test_domain_enforced(self):
        assert math.isfinite(pseudo_char(120.0, 0.5, 1.0))
        assert math.isfinite(pseudo_char(-120.0, 0.5, 1.0))
        for t in (math.nextafter(120.0, math.inf), -121.0, 1e300,
                  math.nan, math.inf, -math.inf):
            with pytest.raises(LawError):
                pseudo_char(t, 0.5, 1.0)

    def test_negativity_witness_exists(self):
        nuhat = math.sqrt(0.3)
        t = first_below_minus_one(pseudo_char_grid(nuhat, 1.0, 60.0, 0.01))
        assert t == 6.259999999999911
        assert pseudo_char(t, nuhat, 1.0) < -1.0

    def test_witness_for_nu1_09(self):
        nuhat = (0.9 * 0.1) ** 0.25  # about 0.547
        assert first_below_minus_one(
            pseudo_char_grid(nuhat, 1.0, 60.0, 0.01)) == 6.259999999999911
        # the charfn default step
        assert first_below_minus_one(
            pseudo_char_grid(nuhat, 1.0, 60.0, 0.05)) == 6.299999999999986

    def test_nuhat_range_enforced(self):
        with pytest.raises(LawError):
            pseudo_char(1.0, 0.8, 1.0)
        with pytest.raises(LawError):
            next(pseudo_char_grid(0.5, 1.0, 1e6, 0.01))

    def test_grid_stops_after_divergence(self):
        nuhat = math.sqrt(0.3)
        rows = list(pseudo_char_grid(nuhat, 1.0, 60.0, 0.01))
        assert rows[-1][1] < -1e6 and rows[-1][0] < 60.0
        assert all(val >= -1e6 for _, val in rows[:-1])
        t = 0.0
        for row in rows:
            t += 0.01
            assert row == (t, pseudo_char(t, nuhat, 1.0))
        assert rows[-1][0] > first_below_minus_one(rows) > 0

    def test_grid_without_divergence_reaches_t_max(self):
        rows = list(pseudo_char_grid(0.5, 1.0, 2.0, 0.5))
        assert [t for t, _ in rows] == [0.5, 1.0, 1.5, 2.0]
        assert first_below_minus_one(rows) is None

    @pytest.mark.parametrize("nuhat, sigma2", [(0.5, 1.0), (0.3 ** 0.5, 1.0),
                                               (0.2, 0.37), (0.7, 2.5)])
    def test_grid_runs_to_the_boundary(self, nuhat, sigma2):
        # the largest t_max the grid accepts is a point pseudo_char accepts
        t_max = 60.0 / (nuhat * sigma2)
        while nuhat * sigma2 * t_max > 60.0:
            t_max = math.nextafter(t_max, 0.0)
        while nuhat * sigma2 * math.nextafter(t_max, math.inf) <= 60.0:
            t_max = math.nextafter(t_max, math.inf)
        rows = list(pseudo_char_grid(nuhat, sigma2, t_max, t_max))
        assert rows == [(t_max, pseudo_char(t_max, nuhat, sigma2))]
        with pytest.raises(LawError):
            next(pseudo_char_grid(nuhat, sigma2,
                                  math.nextafter(t_max, math.inf), t_max))

    def test_grid_rejects_nonpositive_step_and_sigma2(self):
        for sigma2, step in ((1.0, 0.0), (1.0, -0.1), (0.0, 0.1)):
            with pytest.raises(LawError):
                next(pseudo_char_grid(0.5, sigma2, 1.0, step))
