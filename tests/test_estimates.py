import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hermite_obs import basis, estimates as est
from hermite_obs.basis import ContractViolation
from hermite_obs.quadrature import composite_gauss_legendre
from oracles import hermite_derivatives


def chebyshev_first_exact(d, x):
    """Oracle: the explicit sum T_d(X) = sum_k C(d,2k) (X^2-1)^k X^(d-2k),
    evaluated in exact rational arithmetic."""
    x = Fraction(x)
    total = Fraction(0)
    for k in range(d // 2 + 1):
        total += math.comb(d, 2 * k) * (x * x - 1) ** k * x ** (d - 2 * k)
    return total


class TestChebyshev:
    def test_t3_at_two(self):
        assert est.chebyshev_value(3, 2.0) == pytest.approx(26.0)

    @pytest.mark.parametrize("d", range(0, 51, 5))
    def test_value_one_at_one(self, d):
        assert est.chebyshev_value(d, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_recurrence_matches_exact_sum(self):
        xs = [Fraction(i, 7) for i in range(-20, 21, 2)] + [Fraction(5, 2), Fraction(9, 4)]
        for d in range(31):
            for x in xs[:20]:
                want = float(chebyshev_first_exact(d, x))
                got = est.chebyshev_value(d, float(x))
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestRemez:
    def test_fraction_one_half_dim_one(self):
        assert est.remez_fraction(1, 0.5) == pytest.approx(3.0)

    def test_fraction_dim_two(self):
        assert est.remez_fraction(2, 0.75) == pytest.approx(3.0)

    def test_degree_one_bound(self):
        assert est.remez_bound(1, 1, 0.5) == pytest.approx(3.0)

    def test_full_measure(self):
        for d in range(6):
            assert est.remez_bound(2, d, 1.0) == 1.0
            assert est.remez_bound(2, d, 1.0, complex_poly=True) == 2.0 ** (2 * d + 1)

    def test_classical_interval_consistency(self):
        # |E| = 1 inside [-1, 1] gives T_d((4-|E|)/|E|) = T_d(3) = T_d(F(1/2))
        for d in range(8):
            classical = est.chebyshev_value(d, 3.0)
            assert est.remez_bound(1, d, 0.5) == pytest.approx(classical, rel=1e-12)

    def test_ball_bound_plugin(self):
        assert est.remez_ball_bound(1, 0, 1.0) == pytest.approx(2 * 2 / math.sqrt(3))

    def test_ball_bound_monotone_in_measure(self):
        vals = [est.remez_ball_bound(1, 4, rho) for rho in (0.1, 0.3, 0.6, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ContractViolation):
            est.remez_fraction(1, 0.0)
        with pytest.raises(ContractViolation, match="dimension"):
            est.remez_fraction(0, 0.5)
        for t in (0.0, 1.5):
            for complex_poly in (False, True):
                with pytest.raises(ContractViolation, match=r"\(0, 1\]"):
                    est.remez_bound(1, 2, t, complex_poly)
        with pytest.raises(ContractViolation):
            est.remez_ball_bound(1, 2, 1.5)

    def test_empirical_dominance_on_subintervals(self):
        # 200 random real polynomials of degree <= 6: the L2 ball bound must
        # dominate the dense-grid norm ratio for interval unions
        rng = np.random.default_rng(2024)
        R = 1.0
        grid = np.linspace(-R, R, 4001)
        trials = 0
        for _ in range(200):
            d = int(rng.integers(0, 7))
            coeffs = rng.uniform(-1, 1, size=d + 1)
            vals = np.polynomial.polynomial.polyval(grid, coeffs)
            pieces = sorted(rng.uniform(-R, R, size=4))
            mask = ((grid >= pieces[0]) & (grid <= pieces[1])) | (
                (grid >= pieces[2]) & (grid <= pieces[3])
            )
            meas = float(np.sum(mask)) / len(grid) * 2 * R
            if meas < 0.05:
                continue
            trials += 1
            norm_ball = math.sqrt(np.trapezoid(vals**2, grid))
            norm_sub = math.sqrt(np.trapezoid(np.where(mask, vals, 0.0) ** 2, grid))
            if norm_sub == 0.0:
                continue
            rho = meas / (2 * R)
            assert norm_ball <= est.remez_ball_bound(1, d, rho) * norm_sub * (1 + 1e-9)
        assert trials > 150


class TestIntervalLemma:
    def test_m_equal_one(self):
        assert est.kovrijkine_interval_bound(300.0, 0.37, 1.0) == pytest.approx(1.0)

    def test_exponent_one_case(self):
        # C/|E| = 4 with log M / log 2 = 1 gives exactly 4
        assert est.kovrijkine_interval_bound(2.0, 0.5, 2.0) == pytest.approx(4.0)

    def test_rejects_small_m(self):
        with pytest.raises(ContractViolation):
            est.kovrijkine_interval_bound(300.0, 0.5, 0.9)

    def test_empirical_dominance_for_cosines(self):
        # phi(z) = cos(a z), |phi(0)| = 1, M = cosh(4a); dyadic subset grids
        xs = np.linspace(0.0, 1.0, 2049)
        for a in (0.25, 0.5, 0.75, 1.0):
            vals = np.abs(np.cos(a * xs))
            sup_I = float(vals.max())
            m_value = math.cosh(4 * a)
            for frac in (0.5, 0.25, 0.125):
                step = int(1 / frac)
                sub = vals[::step]
                bound = est.kovrijkine_interval_bound(300.0, frac, m_value)
                assert sup_I <= bound * float(sub.max()) * (1 + 1e-9)


class TestBernstein:
    def test_ground_state_first_derivative(self):
        # phi_0' = -(1/sqrt 2) phi_1, so the lhs is exactly 1/sqrt(2)
        f = basis.unit_expansion(1, 0, (0,))
        r = est.bernstein_check(f, 1.0, (1,))
        assert r.lhs == pytest.approx(1 / math.sqrt(2), rel=1e-13)
        assert r.rhs == pytest.approx(math.exp(math.e / 2) * 2.0, rel=1e-13)
        assert r.passed

    def test_zero_multiindex_trivial(self):
        rng = np.random.default_rng(5)
        f = basis.random_expansion(2, 6, rng)
        r = est.bernstein_check(f, 0.5, (0, 0))
        assert r.lhs == pytest.approx(f.norm(), rel=1e-13)
        assert r.passed

    def test_randomized_suite(self):
        rng = np.random.default_rng(99)
        betas = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]
        for _ in range(60):
            f = basis.random_expansion(2, 12, rng)
            delta = float(rng.choice([0.25, 0.5, 1.0]))
            beta = betas[int(rng.integers(0, len(betas)))]
            assert est.bernstein_check(f, delta, beta).passed


def weighted_norm_oracle(f, beta, delta):
    """||exp(delta |x|^2) d^beta f|| by brute-force composite Gauss-Legendre.

    The integrand |d^beta f|^2 exp(2 delta |x|^2) is evaluated from the 1-D
    tables of phi_k and phi_k' (not through the ladder algebra) and
    integrated over [-L, L]^n, nested for n = 2.  The integrand decays like
    exp(-(1 - 2 delta)|x|^2) with 1 - 2 delta >= 15/16, so past L it is
    below 1e-40 of the squared norm for every N <= 12.
    """
    C = np.zeros((f.N + 1,) * f.n, dtype=complex)
    for c, alpha in zip(f.coeffs, basis.multi_indices(f.n, f.N)):
        C[alpha] = c

    def table(j, x):
        vals = basis.hermite_values(f.N + 1, x)
        return hermite_derivatives(f.N, x, vals) if beta[j] else vals[: f.N + 1]

    def line(d, j):
        """Integrand along axis j for the coefficient row d of that axis."""
        return lambda x: np.abs(d @ table(j, x)) ** 2 * np.exp(2.0 * delta * x * x)

    L = math.sqrt(2.0 * f.N + 3.0) + 9.0
    tol = 1e-14 * f.norm() ** 2
    if f.n == 1:
        value, _, _ = composite_gauss_legendre(line(C, 0), -L, L, abs_tol=tol, min_panels=8)
    else:
        def outer(x1):
            rows = table(0, x1).T @ C
            inner = [
                composite_gauss_legendre(line(d, 1), -L, L, abs_tol=tol, min_panels=8)[0]
                for d in rows
            ]
            return np.array(inner) * np.exp(2.0 * delta * x1 * x1)

        value, _, _ = composite_gauss_legendre(outer, -L, L, abs_tol=tol, min_panels=8)
    return math.sqrt(value)


def assert_matches_oracle(r, f, delta, beta):
    """Both sides of a WeightedResult against the quadrature oracle, 1e-10
    relative.  The xi side is the x side of the Fourier transform of f,
    whose coefficients are (-i)^{|alpha|} c_alpha."""
    lev = basis.index_levels(f.n, f.N)
    f_hat = basis.HermiteExpansion(f.n, f.N, f.coeffs * (-1j) ** lev)
    assert r.lhs_x == pytest.approx(weighted_norm_oracle(f, beta, delta), rel=1e-10)
    assert r.lhs_xi == pytest.approx(weighted_norm_oracle(f_hat, beta, delta), rel=1e-10)


class TestWeighted:
    def test_gaussian_ground_state(self):
        # ||exp(d x^2) phi_0||^2 = (1 - 2 d)^(-1/2) in closed form
        f = basis.unit_expansion(1, 0, (0,))
        r = est.weighted_check(f, 1.0 / 64, (0,))
        assert_matches_oracle(r, f, 1.0 / 64, (0,))
        assert r.lhs_x == pytest.approx((1 - 2 / 64) ** -0.25, rel=1e-13)
        assert r.rhs == pytest.approx(4.0)
        assert r.passed

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_quadrature_oracle(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(6):
            N = int(rng.integers(0, 9))
            f = basis.random_expansion(n, N, rng)
            delta = float(rng.uniform(0.1, 0.9)) / (32 * n)
            beta = tuple(int(b) for b in rng.integers(0, 2, size=n))
            assert_matches_oracle(est.weighted_check(f, delta, beta), f, delta, beta)

    def test_fourier_symmetry_identity(self):
        rng = np.random.default_rng(17)
        f = basis.random_expansion(1, 8, rng)
        r = est.weighted_check(f, 1.0 / 80, (0,))
        lev = basis.index_levels(1, 8)
        twisted = basis.HermiteExpansion(1, 8, f.coeffs * (-1j) ** lev)
        r2 = est.weighted_check(twisted, 1.0 / 80, (0,))
        assert r.lhs_xi == pytest.approx(r2.lhs_x, rel=1e-9)

    def test_top_mode_growth_below_rhs_scale(self):
        # rhs grows like 2^(N/2); the measured weighted norm of a pure top
        # mode grows strictly slower for small delta
        delta = 1.0 / 200
        ratios = []
        for N in (4, 8, 12):
            f = basis.unit_expansion(1, N, (N,))
            r = est.weighted_check(f, delta, (0,))
            assert_matches_oracle(r, f, delta, (0,))
            assert r.passed
            ratios.append(r.lhs_x / 2.0 ** (N / 2.0))
        assert ratios[0] > ratios[1] > ratios[2]

    def test_randomized_suite(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            N = int(rng.integers(0, 9))
            f = basis.random_expansion(n, N, rng)
            delta = float(rng.uniform(0.2, 0.9)) / (32 * n)
            beta = tuple(int(b) for b in rng.integers(0, 2, size=n))
            r = est.weighted_check(f, delta, beta)
            assert_matches_oracle(r, f, delta, beta)
            assert r.passed


class TestTails:
    def test_erfc_oracle_a1(self):
        exact, bound = est.hermite_tail_bound(0, 1.0)
        assert exact == pytest.approx(math.erfc(1.0), abs=1e-12)
        assert bound == pytest.approx(2 / math.sqrt(math.pi) * math.exp(-1), rel=1e-12)
        assert exact <= bound

    def test_erfc_oracle_a3(self):
        exact, bound = est.hermite_tail_bound(0, 3.0)
        assert exact == pytest.approx(math.erfc(3.0), abs=1e-12)
        assert exact <= bound

    def test_degree_five(self):
        exact, bound = est.hermite_tail_bound(5, math.sqrt(11.0))
        assert exact <= bound

    def test_grid_dominance(self):
        for k in range(0, 21, 4):
            for shift in (0.0, 0.8, 2.5):
                a = math.sqrt(2 * k + 1) + shift
                exact, bound = est.hermite_tail_bound(k, a)
                assert exact <= bound + 1e-14

    def test_validity_threshold(self):
        with pytest.raises(ContractViolation):
            est.hermite_tail_bound(5, 1.0)

    def test_closed_form_matches_quadrature_oracle(self):
        # 2 int_a^inf phi_k^2 by mpmath tanh-sinh quadrature at 100 bits
        with mpmath.workprec(100):
            for k in range(21):
                norm = mpmath.sqrt(mpmath.pi) * 2**k * mpmath.factorial(k)
                for shift in (0.0, 1.3, 3.0):
                    a = math.sqrt(2 * k + 1) + shift
                    want = 2 * mpmath.quad(
                        lambda x: (mpmath.hermite(k, x) * mpmath.exp(-x * x / 2)) ** 2 / norm,
                        [a, mpmath.inf])
                    exact, _ = est.hermite_tail_bound(k, a)
                    assert exact == pytest.approx(float(want), rel=1e-13)


class TestTailConstant:
    def test_floor(self):
        for n in (1, 2, 3):
            c = est.tail_constant_cn(n)
            assert c.c >= math.sqrt(2 * n * math.log(8.0)) - 1e-12

    def test_certificate(self):
        c = est.tail_constant_cn(2)
        assert all(v <= 0.25 + 1e-12 for _, v in c.certificate)
        assert c.worst_case == c.certificate[0][1]

    def test_closed_form_is_the_smallest_qualifying_double(self):
        # the values of the doubling search and 200-step bisection it replaced
        want = [2.039333980337618, 2.940350772064617, 4.300604872791374, 5.614677564730411,
                6.900852967040596, 8.16836547704588, 9.422531291561297, 10.666690806755135]
        for n, c_want in enumerate(want, 1):
            c = est.tail_constant_cn(n).c
            assert c == c_want
            assert est.tail_mass_rhs_log(n, 0, c) <= math.log(0.25)
            below = math.nextafter(c, 0.0)
            assert (below < math.sqrt(2 * n * math.log(8.0))
                    or est.tail_mass_rhs_log(n, 0, below) > math.log(0.25))

    def test_empirical_quarter_mass(self):
        # 50 random expansions: the tail mass past c_1 sqrt(N+1) stays below
        # a quarter of the squared norm (oracle: panel quadrature of |f|^2)
        rng = np.random.default_rng(31)
        c1 = est.tail_constant_cn(1).c
        for _ in range(50):
            N = int(rng.integers(0, 31))
            f = basis.random_expansion(1, N, rng)
            a = c1 * math.sqrt(N + 1)

            def density(x):
                return np.abs(f.evaluate(x)) ** 2

            span = math.sqrt(2 * N + 1) + 12.0
            hi, _, _ = composite_gauss_legendre(
                density, a, max(a + 1e-6, span), abs_tol=1e-12,
                min_panels=max(4, N)
            )
            lo, _, _ = composite_gauss_legendre(
                density, -max(a + 1e-6, span), -a, abs_tol=1e-12,
                min_panels=max(4, N)
            )
            assert hi + lo <= 0.25 * f.norm() ** 2 + 1e-9
