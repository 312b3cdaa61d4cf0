"""Closed-form limit objects.

The semicircle family (density, CDF, moments, Stieltjes transform),
Catalan numbers, the exact limit moments of the block ensembles, Hankel
positivity reports, and the pseudo-characteristic function used in the
no-limit argument for unbalanced bipartite ensembles, computed as one
semicircle average by a fixed midpoint rule.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .spectral import eigenvalues_sym


class LawError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Catalan numbers and the semicircle family
# ---------------------------------------------------------------------------

def catalan(k: int) -> int:
    """Catalan number (2k)! / (k! (k+1)!), exact."""
    if k < 0:
        raise LawError("k must be nonnegative")
    return math.comb(2 * k, k) // (k + 1)


def _check_radius(R) -> None:
    if not 0 < R < math.inf:
        raise LawError(f"radius must be positive and finite, got {R}")


def _power_of_two(t: float) -> float:
    """The power of two s with 1 <= t/s < 2, for finite t > 0.

    The semicircle functions divide their arguments by s, which is exact,
    so that R^2 neither overflows nor underflows at any finite radius, and
    scale the result back.
    """
    return math.ldexp(1.0, math.frexp(t)[1] - 1)


def semicircle_density(x, R: float):
    """Density 2/(pi R^2) sqrt(R^2 - x^2) on [-R, R], at any finite R."""
    _check_radius(R)
    s = _power_of_two(R)
    x, R = np.asarray(x, dtype=float) / s, R / s
    inside = np.abs(x) <= R
    out = np.zeros_like(x)
    out[inside] = 2.0 / (math.pi * R**2) * np.sqrt(R**2 - x[inside] ** 2)
    out = out / s
    return out if out.ndim else float(out)


def semicircle_cdf(x, R: float):
    """Closed-form semicircle CDF, clamped to [0, 1] outside the support,
    at any finite R."""
    _check_radius(R)
    s = _power_of_two(R)
    x, R = np.asarray(x, dtype=float) / s, R / s
    xc = np.clip(x, -R, R)
    out = 0.5 + xc * np.sqrt(R**2 - xc**2) / (math.pi * R**2) \
        + np.arcsin(xc / R) / math.pi
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def semicircle_moment(k: int, R):
    """k-th moment of the radius-R semicircle; 0 for odd k.

    Exact (Fraction) when R^2 terms are rational: the result is
    Catalan(k/2) / 4^(k/2) * R^k.
    """
    if k < 0:
        raise LawError("k must be nonnegative")
    _check_radius(R)
    if k % 2 == 1:
        return 0 * R
    return Fraction(catalan(k // 2), 4 ** (k // 2)) * R**k


def semicircle_stieltjes(z: complex, R: float) -> complex:
    """Stieltjes transform of the radius-R semicircle for Im z > 0.

    Solves (R^2/4) S^2 + z S + 1 = 0 on the branch with S -> -1/z at
    infinity, i.e. S = 2(-z + w)/R^2 with w = sqrt(z^2 - R^2) taken in the
    upper half plane.  Since (w - z)(w + z) = -R^2 this is S = -2/(z + w),
    which does not cancel when |z| is much larger than R.  z and R are
    first divided by the power of two s of max(|Re z|, Im z, R), so that
    z^2 - R^2 cannot overflow, or underflow where it matters, and the
    result is -2/s/(z + w).
    """
    if z.imag <= 0:
        raise LawError("Im z > 0 required")
    _check_radius(R)
    s = _power_of_two(max(abs(z.real), z.imag, R))
    z, R = z / s, R / s
    w = cmath.sqrt(z * z - R * R)
    if w.imag < 0:
        w = -w
    return -2.0 / s / (z + w)


# ---------------------------------------------------------------------------
# theoretical moment sequences
# ---------------------------------------------------------------------------

def limit_moments(fractions, sigma1sq, sigma2sq, L: int) -> list[Fraction]:
    """Exact limit moments gamma_0..gamma_L of the block ensemble.

    T_h(x) sums, over rooted plane trees with h edges whose root lies in
    part x, the part fractions of the other vertices times one variance
    per edge: S_xy = sigma1sq when both ends share a part, else sigma2sq.
    Splitting off the root's first subtree gives T_0(x) = 1 and

        T_e(x) = sum_{j<e} [sum_y nu_y S_xy T_j(y)] T_{e-1-j}(x),

    and gamma_2h = sum_x nu_x T_h(x) / 4^h, with odd moments 0.  This is
    the moment form of the quadratic vector equation
    -1/m_x(z) = z + (1/4) sum_y nu_y S_xy m_y(z).  Every input goes
    through Fraction(), so floats are taken at their exact binary value.
    """
    if L < 0:
        raise LawError("L must be nonnegative")
    nus = [Fraction(f) for f in fractions]
    s1, s2 = Fraction(sigma1sq), Fraction(sigma2sq)
    if s1 < 0 or s2 < 0:
        raise LawError("variances must be nonnegative")
    T = [[Fraction(1)] * len(nus)]
    branch = []  # branch[j][x] = sum_y nu_y S_xy T_j(y)
    for e in range(1, L // 2 + 1):
        mass = sum(nu * t for nu, t in zip(nus, T[-1]))
        branch.append([s2 * mass + (s1 - s2) * nu * t
                       for nu, t in zip(nus, T[-1])])
        T.append([sum(branch[j][x] * T[e - 1 - j][x] for j in range(e))
                  for x in range(len(nus))])
    return [Fraction(0) if k % 2 else
            sum(nu * t for nu, t in zip(nus, T[k // 2])) / 4 ** (k // 2)
            for k in range(L + 1)]


def gamma_bipartite_printed(k: int, nu1, nu2, sigma2sq):
    """Bipartite zero-intra limit moments, reproduced exactly as printed.

    With nuhat = (nu1*nu2)^(1/4):
        0                                              for odd k,
        2 k! nuhat^k s^k / (2^k (k/2)! (k/2+1)!)       for k = 0 mod 4,
        k! nuhat^k s^k / (nuhat^2 2^k (k/2)! (k/2+1)!) for k = 2 mod 4.

    These printed values disagree with the exact limits (see
    limit_moments); this function is kept as the verbatim record, the
    exact moments are the ground truth.
    """
    if not (0 < nu1 < 1 and 0 < nu2 < 1):
        raise LawError("nu1, nu2 must lie in (0, 1)")
    if abs(nu1 + nu2 - 1) > 1e-12:
        raise LawError("nu1 + nu2 must equal 1")
    if k < 0:
        raise LawError("k must be nonnegative")
    if k % 2 == 1:
        return 0.0
    coeff = catalan(k // 2) / 4 ** (k // 2)
    nuhat = (nu1 * nu2) ** 0.25
    sk = float(sigma2sq) ** (k / 2)
    if k % 4 == 0:
        return 2.0 * coeff * nuhat**k * sk
    return coeff * nuhat**k * sk / nuhat**2


def gamma_proposition_printed(j: int, m: int, nu1, nu2):
    """gamma_{2j} (j=1,2,3) for zero intra law, unit cross variance, as printed.

    Requires nu1 + (m-1) nu2 = 1 and m >= 3; returns the three published
    polynomial expressions verbatim.
    """
    if j not in (1, 2, 3):
        raise LawError("j must be 1, 2 or 3")
    if m < 3:
        raise LawError("m must be at least 3")
    if abs(nu1 + (m - 1) * nu2 - 1) > 1e-12:
        raise LawError("nu1 + (m-1)*nu2 must equal 1")
    a = nu1
    b = (m - 1) * nu2
    c = (m - 2) * nu2
    r = 1 - nu2
    if j == 1:
        return (a * b + b * r) / 4
    if j == 2:
        return 2 * (a * b * r + b * a * b + b * c * r) / 16
    return 5 * (a * b * a * b + a * b * c * r + b * a * b * r
                + b * c * a * b + b * c * c * r) / 64


def hankel_report(gammas, k: int) -> dict:
    """Leading-minor determinants, minimum eigenvalue and a PSD verdict of
    the (k+1)x(k+1) Hankel moment matrix H[i, j] = gamma_{i+j}."""
    values = list(gammas)
    if len(values) < 2 * k + 1:
        raise LawError(f"need moments up to order {2 * k}")
    H = np.array([[float(values[i + j]) for j in range(k + 1)]
                  for i in range(k + 1)])
    dets = [float(np.linalg.det(H[: r + 1, : r + 1])) for r in range(k + 1)]
    min_eig = float(eigenvalues_sym(H)[0])
    return {"determinants": dets, "min_eigenvalue": min_eig,
            "psd": min_eig >= -1e-10}


# ---------------------------------------------------------------------------
# the pseudo-characteristic function
# ---------------------------------------------------------------------------

# Domain of pseudo_char and its grid: |x| <= 60 for x = nuhat*sigma2*t.
_X_MAX = 60.0

# Midpoint rule in theta for the unit semicircle law S = cos(theta), whose
# density (2/pi) sin^2(theta) d(theta) makes the integrand periodic: with
# theta_j = (j + 1/2) pi / N, the (weight, node) pairs (sin^2(theta_j) / (2N),
# cos(theta_j)) give sum_j w_j g(c_j) = E[g(S)] / 4.  For g = cos(x s) or
# cosh(x s) the rule errs by terms of order (x/2)^(2N) / (2N)!, below 1e-25
# relative at N = 64 and |x| <= 60.
_N = 64
_NODES = [(math.sin(theta) ** 2 / (2 * _N), math.cos(theta))
          for theta in ((j + 0.5) * math.pi / _N for j in range(_N))]


def _argument(t, nuhat: float, sigma2: float) -> float:
    """x = nuhat*sigma2*t, or LawError when nuhat or x is out of range."""
    if not 0 < nuhat < math.sqrt(0.5):
        raise LawError("nuhat must lie in (0, sqrt(1/2))")
    x = nuhat * sigma2 * float(t)
    if not abs(x) <= _X_MAX:  # NaN fails too
        raise LawError(f"|nuhat*sigma2*t| must be at most {_X_MAX}, got {x}")
    return x


def pseudo_char(t: float, nuhat: float, sigma2: float) -> float:
    """Would-be characteristic function of the unbalanced bipartite limit.

    f(t) = [(2 + 1/nuhat^2) J1(x)/x + (2 - 1/nuhat^2) I1(x)/x] / 2 with
    x = nuhat*sigma2*t, normalized so f(0) = 1.  As 2 J1(x)/x and 2 I1(x)/x
    are E[cos(xS)] and E[cosh(xS)] for S semicircular on [-1, 1], f is
    E[(2 + 1/nuhat^2) cos(xS) + (2 - 1/nuhat^2) cosh(xS)] / 4, computed by
    one fixed midpoint quadrature.  The domain is |x| <= 60; beyond it, and
    for a NaN or infinite t, LawError.  A genuine characteristic function
    satisfies |f| <= 1; the cosh term eventually drives f below -1 whenever
    nuhat^2 < 1/2, and the first grid point where it does is the `charfn`
    run's negativity witness.
    """
    x = _argument(t, nuhat, sigma2)
    if x == 0.0:
        return 1.0
    ca = 2.0 + 1.0 / nuhat**2
    cb = 2.0 - 1.0 / nuhat**2
    return math.fsum([w * (ca * math.cos(x * c) + cb * math.cosh(x * c))
                      for w, c in _NODES])


def pseudo_char_grid(nuhat: float, sigma2: float, t_max: float, step: float):
    """Yield (t, pseudo_char(t)) for t = step, 2 step, ... up to t_max.

    t is accumulated by repeated addition of step.  The scan stops after
    the first value below -1e6, where the divergence is unambiguous.
    """
    if sigma2 <= 0 or step <= 0:
        raise LawError("sigma2 and step must be positive")
    _argument(t_max, nuhat, sigma2)  # every grid point t <= t_max passes
    if t_max < step:
        raise LawError("t_max below step leaves no grid point")
    if t_max / step > 10**6:
        raise LawError("t_max / step exceeds 10**6 grid points")
    t = step
    while t <= t_max:
        val = pseudo_char(t, nuhat, sigma2)
        yield t, val
        if val < -1e6:
            return
        t += step
