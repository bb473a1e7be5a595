"""Chebyshev/Remez machinery, analytic-interval bounds, Bernstein-type and
weighted estimates for Hermite combinations, and Hermite tail constants.

The quantitative inequalities implemented here control polynomials on small
sets (Remez, Chebyshev growth, analytic-function interval bounds) and control
derivatives / Gaussian-weighted norms of finite Hermite combinations.  They
feed the explicit spectral-constant bounds in :mod:`hermite_obs.gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from mpmath import mp

from . import basis
from .basis import ContractViolation, HermiteExpansion, LadderMap, apply_ladder


@basis.frozen_cache
def gauss_hermite(order):
    """The Gauss-Hermite rule (nodes, weights) of one order: a read-only
    table of the process, shared by the weighted norms and the verify suites."""
    return np.polynomial.hermite.hermgauss(order)


def chebyshev_value(d, x):
    """Chebyshev polynomial T_d by the stable three-term recurrence
    p_{d+1} = 2 x p_d - p_{d-1}."""
    if d < 0:
        raise ContractViolation("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if d == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = x.copy()
    for _ in range(d - 1):
        p_prev, p_cur = p_cur, 2.0 * x * p_cur - p_prev
    return p_cur if p_cur.ndim else float(p_cur)


def remez_fraction(n, t):
    """The decreasing function F(t) = (1 + (1-t)^(1/n)) / (1 - (1-t)^(1/n)).

    F(t) >= 1 on (0, 1]; it measures how far a measurable subset of relative
    measure t sits from filling a convex body in R^n.
    """
    if n < 1:
        raise ContractViolation("dimension n must be >= 1")
    if not 0.0 < t <= 1.0:
        raise ContractViolation("relative measure t must lie in (0, 1]")
    if t == 1.0:
        return 1.0
    u = -math.expm1(math.log1p(-t) / n)  # 1 - (1-t)^(1/n), without cancelling at small t
    return (2.0 - u) / u if u else math.inf  # (1 + s) / (1 - s), s = 1 - u; inf once u underflows


def _saturated(factor):
    """factor(), a positive growth factor, or +inf past the double range,
    where pow overflows or the Chebyshev recurrence reaches inf - inf."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = float(factor())
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(value) else value


def remez_bound(n, d, t, complex_poly=False):
    """Remez growth factor for degree-d polynomials on a convex body.

    For a measurable subset E of a convex body K in R^n with |E|/|K| = t,
    sup_K |P| <= remez_bound(n, d, t) * sup_E |P|.  The real-polynomial
    factor is T_d(F(t)); for complex polynomials the factor weakens to
    2^(2d+1) F(t)^d.  Past the double range it is +inf.
    """
    if not 0.0 < t <= 1.0:
        raise ContractViolation("ratio t must lie in (0, 1]")
    if d < 0:
        raise ContractViolation("degree must be >= 0")
    F = remez_fraction(n, t)
    if complex_poly:
        return _saturated(lambda: 2.0 ** (2 * d + 1) * F**d)
    return _saturated(lambda: chebyshev_value(d, F))


def remez_ball_bound(n, d, rho):
    """L2 Remez factor on a ball: ||P||_{L2(B)} vs ||P||_{L2(w cap B)}.

    ``rho`` is the relative measure |w cap B| / |B| of the subset inside the
    ball.  The bound (2^(2d+1)/sqrt 3) sqrt(4/rho) F(rho/4)^d holds for all
    complex polynomials of degree d; past the double range it is +inf.
    """
    if not 0.0 < rho <= 1.0:
        raise ContractViolation("relative measure rho must lie in (0, 1]")
    if d < 0:
        raise ContractViolation("degree must be >= 0")
    F = remez_fraction(n, rho / 4.0)
    return _saturated(lambda: 2.0 ** (2 * d + 1) / math.sqrt(3.0) * math.sqrt(4.0 / rho) * F**d)


def kovrijkine_interval_bound(c_kov, measure, m_value):
    """Propagation factor for analytic functions on a unit interval.

    For an analytic function with |phi(0)| >= 1 on B(0,5) and
    M = sup_{|z|<=4} |phi| >= 1, the sup over the unit interval is bounded by
    (C/|E|)^(log M / log 2) times the sup over any subset E of measure |E|.
    The constant C > 1 is not computed here; it is a parameter (default 300
    elsewhere in the package).
    """
    if m_value < 1.0:
        raise ContractViolation("the interval lemma requires M >= 1")
    if not 0.0 < measure <= 1.0:
        raise ContractViolation("subset measure must lie in (0, 1]")
    if c_kov <= 1.0:
        raise ContractViolation("constant must exceed 1")
    return (c_kov / measure) ** (math.log(m_value) / math.log(2.0))


# -- Bernstein-type and weighted estimates ------------------------------------


@dataclass(frozen=True)
class CheckResult:
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class WeightedResult:
    lhs_x: float
    lhs_xi: float
    rhs: float
    passed: bool


def _apply_derivatives(f, beta):
    """d^beta f through the ladder algebra; cutoff grows by |beta|, exact."""
    g = f
    for j, b in enumerate(beta):
        for _ in range(b):
            g = apply_ladder(LadderMap(basis.DERIVATIVE, j, g.N), g)
    return g


def bernstein_check(f: HermiteExpansion, delta, beta):
    """Check the derivative growth estimate for one Hermite combination.

    lhs = ||d^beta f||_{L2}, computed exactly on coefficients;
    rhs = e^(e/(2 delta^2)) (2 delta)^{|beta|} |beta|! e^(sqrt(N)/delta) ||f||.
    """
    if not 0.0 < delta <= 1.0:
        raise ContractViolation("delta must lie in (0, 1]")
    if len(beta) != f.n:
        raise ContractViolation("beta has wrong length")
    if f.norm() == 0.0:
        raise ContractViolation("f must be nonzero")
    lhs = _apply_derivatives(f, beta).norm()
    tot = int(sum(beta))
    rhs = (
        math.exp(math.e / (2.0 * delta * delta))
        * (2.0 * delta) ** tot
        * math.factorial(tot)
        * math.exp(math.sqrt(f.N) / delta)
        * f.norm()
    )
    return CheckResult(lhs, rhs, lhs <= rhs)


def _gaussian_weighted_norm(g, delta):
    """||exp(delta |x|^2) g|| by scaled tensor Gauss-Hermite quadrature.

    Writing g = p exp(-|x|^2/2) with p of degree <= M = g.N in each variable,
    the squared norm is the integral of |p|^2 exp(-(1 - 2 delta)|x|^2).  At
    x = y / sqrt(1 - 2 delta) that is a Gauss-Hermite integral of a
    polynomial of degree <= 2M per axis, which M + 1 nodes per axis integrate
    exactly (Golub-Welsch 1969); only rounding remains.
    """
    n = g.n
    s = math.sqrt(1.0 - 2.0 * delta)
    y, w = gauss_hermite(g.N + 1)
    x = y / s
    pts = np.stack(np.meshgrid(*([x] * n), indexing="ij"), axis=-1).reshape(-1, n)
    # w exp(x^2) folds the factor exp(|x|^2) of |p|^2 = |g|^2 exp(|x|^2) in
    wts = np.prod(np.meshgrid(*([w * np.exp(x * x)] * n), indexing="ij"), axis=0).ravel()
    quad = np.sum(wts * np.abs(g.evaluate(pts)) ** 2) / s**n
    return math.sqrt(float(quad))


def weighted_check(f: HermiteExpansion, delta, beta):
    """Check the Gaussian-weighted two-sided estimate for f in E_N.

    lhs_x  = ||exp(delta |x|^2) d^beta f||   (d^beta through the ladder
             algebra, then the weighted norm by scaled Gauss-Hermite
             quadrature, exact up to rounding)
    lhs_xi = ||exp(delta |D|^2) x^beta f||   (via the Fourier symmetry of the
             basis: Phi_alpha maps to (-i)^{|alpha|} Phi_alpha up to the
             Parseval factor, so the xi-side equals the x-side computation on
             the phase-twisted coefficients)
    rhs    = 2^n/(1 - 32 n delta) * 2^(N/2) * 2^(3|beta|/2) sqrt(|beta|!) ||f||
    """
    n = f.n
    if not 0.0 < delta < 1.0 / (32.0 * n):
        raise ContractViolation("delta must lie in (0, 1/(32 n))")
    if len(beta) != n:
        raise ContractViolation("beta has wrong length")
    beta_tot = int(sum(beta))

    lhs_x = _gaussian_weighted_norm(_apply_derivatives(f, beta), delta)
    levels = basis.index_levels(n, f.N)
    twisted = HermiteExpansion(n, f.N, f.coeffs * (-1j) ** levels)
    lhs_xi = _gaussian_weighted_norm(_apply_derivatives(twisted, beta), delta)

    rhs = (
        2.0**n
        / (1.0 - 32.0 * n * delta)
        * 2.0 ** (0.5 * f.N)
        * 2.0 ** (1.5 * beta_tot)
        * math.sqrt(math.factorial(beta_tot))
        * f.norm()
    )
    return WeightedResult(lhs_x, lhs_xi, rhs, lhs_x + lhs_xi <= rhs)


# -- Hermite tails -------------------------------------------------------------


def hermite_tail_bound_log(k, a):
    """log of the closed-form tail majorant (2^(k+1)/(k! sqrt pi)) a^(2k-1) e^(-a^2)."""
    return (
        (k + 1) * math.log(2.0)
        - math.lgamma(k + 1.0)
        - 0.5 * math.log(math.pi)
        + (2 * k - 1) * math.log(a)
        - a * a
    )


def hermite_tail_bound(k, a):
    """Tail mass of phi_k^2 beyond |x| >= a and its closed-form majorant.

    Valid for a >= sqrt(2k+1), past the classically allowed region.  The mass
    is 2 I_k, I_k = int_a^inf phi_k^2, from the pair tables' diagonal
    recurrence at b = inf: I_{j+1} = I_j + phi_j(a) phi_{j+1}(a) / sqrt(2(j+1)),
    I_0 = erfc(a)/2, a sum of positive terms.  The bound decays like
    a^(2k-1) e^(-a^2).  Returns (exact, bound).
    """
    if k < 0:
        raise ContractViolation("degree k must be >= 0")
    if a < math.sqrt(2.0 * k + 1.0):
        raise ContractViolation("tail bound requires a >= sqrt(2k+1)")
    phi = basis.hermite_values(k, a)
    half = math.erfc(a) / 2 + float(np.sum(phi[:-1] * phi[1:] / np.sqrt(2.0 * np.arange(1, k + 1))))
    return 2.0 * half, math.exp(hermite_tail_bound_log(k, a))


def tail_mass_rhs_log(n, N, a):
    """log of the E_N tail-mass majorant at radius a.

    For f in E_N in n variables and a >= sqrt(n) sqrt(2N+1), the mass of f
    outside the ball of radius a is at most
    (2^n n^(3/2) / sqrt(pi)) * e^(-a^2/(2n)) / a * 8^N * ||f||^2.
    """
    if a < math.sqrt(n) * math.sqrt(2.0 * N + 1.0):
        raise ContractViolation("radius below the validity threshold")
    return (
        n * math.log(2.0)
        + 1.5 * math.log(n)
        - 0.5 * math.log(math.pi)
        - a * a / (2.0 * n)
        - math.log(a)
        + N * math.log(8.0)
    )


@dataclass(frozen=True)
class TailConstants:
    """Certified radius constant c_n for the quarter-mass tail property.

    For every N and every f in E_N, the mass of f outside the ball of radius
    c_n sqrt(N+1) is at most ||f||^2 / 4.  The certificate lists the
    majorant value at the cutoffs N = 0..60; monotonicity in N holds
    analytically once c_n^2 >= 2 n log 8, so the worst case is N = 0.
    """

    n: int
    c: float
    certificate: tuple = field(default_factory=tuple)

    @property
    def worst_case(self):
        return max(v for _, v in self.certificate)


@lru_cache(maxsize=None)
def tail_constant_cn(n):
    """Smallest certified c >= sqrt(2 n log 8) with the quarter-mass property.

    The majorant at a = c sqrt(N+1) is decreasing in N whenever
    c^2 >= 2 n log 8 (the Gaussian factor then beats the 8^N growth), so it
    suffices to pin the N = 0 value below 1/4.  With K = n log 2 + 1.5 log n
    - 0.5 log pi + log 4 it equals 1/4 where c^2/n + log(c^2/n) = 2K - log n,
    at c = sqrt(n W(e^{2K}/n)), W the principal Lambert function; from the
    larger of that root and the floor, ulp steps reach the smallest double
    whose majorant is at most 1/4.
    """
    if n < 1:
        raise ContractViolation("dimension n must be >= 1")
    floor = math.sqrt(2.0 * n * math.log(8.0))
    K = n * math.log(2.0) + 1.5 * math.log(n) - 0.5 * math.log(math.pi) + math.log(4.0)
    c = max(floor, math.sqrt(n * float(mp.lambertw(mp.exp(2 * K) / n))))
    while tail_mass_rhs_log(n, 0, c) > math.log(0.25):
        c = math.nextafter(c, math.inf)
    while c > floor and tail_mass_rhs_log(n, 0, math.nextafter(c, 0.0)) <= math.log(0.25):
        c = math.nextafter(c, 0.0)
    cert = tuple((N, math.exp(tail_mass_rhs_log(n, N, c * math.sqrt(N + 1.0)))) for N in range(61))
    if any(v > 0.25 + 1e-15 for _, v in cert):
        raise AssertionError("tail certificate failed; this is a bug")
    return TailConstants(n, c, cert)
