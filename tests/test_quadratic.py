import math
import warnings

import mpmath
import numpy as np
import pytest

from hermite_obs import basis, quadratic as qd
from hermite_obs.basis import ContractViolation
from oracles import momentum_matrix, position_matrix


class TestHamiltonMap:
    def test_harmonic(self):
        F = qd.hamilton_map(qd.harmonic_symbol(1))
        assert np.allclose(F.F, np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_real_symbol_has_real_map(self):
        Q = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
        F = qd.hamilton_map(qd.QuadraticSymbol(1, Q))
        assert np.max(np.abs(F.im)) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        def sym():
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            return qd.QuadraticSymbol(2, M + M.T)

        s1, s2 = sym(), sym()
        both = qd.QuadraticSymbol(2, s1.Q + s2.Q)
        F12 = qd.hamilton_map(both).F
        assert np.allclose(F12, qd.hamilton_map(s1).F + qd.hamilton_map(s2).F)

    def test_symplectic_identity_probe(self):
        kfp = qd.kfp_symbol(2.5)
        F = qd.hamilton_map(kfp)
        assert F.probe_deviation < 1e-12
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = rng.standard_normal(4)
            Y = rng.standard_normal(4)
            lhs = qd.symplectic_form(X, F.F @ Y, 2)
            assert lhs == pytest.approx(complex(kfp.polarized(X, Y)), abs=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractViolation):
            qd.QuadraticSymbol(1, np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSingularSpace:
    def test_harmonic_trivial_at_zero(self):
        S = qd.singular_space(qd.hamilton_map(qd.harmonic_symbol(1)))
        assert S.k0 == 0
        assert S.basis.shape[1] == 0

    def test_kfp_trivial_at_one(self):
        S = qd.singular_space(qd.hamilton_map(qd.kfp_symbol(1.0)))
        assert S.k0 == 1
        assert S.dims[0] == 2 and S.dims[1] == 0
        assert S.basis.shape[1] == 0

    def test_kfp_exact_rational_oracle(self):
        k0, kernel = qd.singular_space_exact(qd.kfp_symbol(1.0))
        assert k0 == 1 and kernel == []
        k0h, kernelh = qd.singular_space_exact(qd.harmonic_symbol(2))
        assert k0h == 0 and kernelh == []

    def test_free_laplacian_nontrivial(self):
        free = qd.QuadraticSymbol(1, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
        S = qd.singular_space(qd.hamilton_map(free))
        assert S.k0 is None
        assert S.basis.shape[1] == 1
        v = S.basis[:, 0]
        assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12
        k0x, kernel = qd.singular_space_exact(free)
        assert k0x is None and len(kernel) == 1

    def test_rank_decision_near_threshold_is_flagged(self):
        # a singular value within a factor 10 of the rank tolerance must be
        # surfaced, with the kernel dimensions under both candidate thresholds
        eps = 3e-10
        sym = qd.QuadraticSymbol(1, np.array([[eps, 0.0], [0.0, 1.0]], dtype=complex))
        S = qd.singular_space(qd.hamilton_map(sym))
        assert S.tolerance_sensitive
        assert len(S.alternative_dims) == 2
        assert S.alternative_dims[0] != S.alternative_dims[1]

    @pytest.mark.parametrize("a", [1e160, 1e300])
    def test_powers_past_the_double_range_are_refused(self, a):
        # Re F (Im F)^3 of the KFP map grows like a^3 / 32: past 1e308 it is
        # refused before any singular value is taken, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match="pass the double range"):
                qd.singular_space(qd.hamilton_map(qd.kfp_symbol(a)))

    @pytest.mark.parametrize("scale", [0.1, 3.0, 250.0])
    def test_scaling_invariance(self, scale):
        for sym in (qd.kfp_symbol(1.0), qd.harmonic_symbol(2)):
            S1 = qd.singular_space(qd.hamilton_map(sym))
            S2 = qd.singular_space(qd.hamilton_map(sym.scaled(scale)))
            assert S1.k0 == S2.k0
            assert S1.dims == S2.dims


def weyl_reference(sym, N):
    """The Weyl quantization as dense ladder-matrix products on the buffered
    cutoff E_{N+2}, cropped to E_N: the oracle for the closed form."""
    n, M = sym.n, N + 2
    dim_M = basis.space_dimension(n, M)
    X = [position_matrix(n, M, j).astype(complex) for j in range(n)]
    D = [momentum_matrix(n, M, j) for j in range(n)]
    Qxx, Qxxi, Qxixi = sym.Q[:n, :n], sym.Q[:n, n:], sym.Q[n:, n:]
    A = np.zeros((dim_M, dim_M), dtype=complex)
    for i in range(n):
        for j in range(n):
            if Qxx[i, j] != 0:
                A += Qxx[i, j] * (X[i] @ X[j])
            if Qxixi[i, j] != 0:
                A += Qxixi[i, j] * (D[i] @ D[j])
            if Qxxi[i, j] != 0:
                A += Qxxi[i, j] * (X[i] @ D[j] + D[j] @ X[i])
    dim_N = basis.space_dimension(n, N)
    return np.ascontiguousarray(A[:dim_N, :dim_N])


class TestWeylQuantization:
    def test_harmonic_is_level_diagonal(self):
        # a_+ a_- + a_- a_+ = 2 a_+ a_- + 1 per axis: integer counts under
        # exact square roots, so the matrix is diag(2|alpha| + n) to the bit;
        # at n = 40, N = 2 the multi-indices' mixed-radix codes pass int64
        for n, N in [(n, N) for n in (1, 2, 3) for N in range(21)] + [(40, 2)]:
            A = qd.weyl_quantize(qd.harmonic_symbol(n), N).matrix
            assert np.array_equal(A, np.diag(2 * basis.index_levels(n, N) + n))

    def test_mixed_monomial_entry(self):
        # q = x xi quantizes to (x D + D x)/2 = (i/2)(a_+^2 - a_-^2)
        sym = qd.QuadraticSymbol(1, np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        A = qd.weyl_quantize(sym, 3)
        row = basis.index_positions(1, 3)[(2,)]
        assert A.matrix[row, 0] == pytest.approx(1j * math.sqrt(2) / 2, abs=1e-13)

    def test_position_squared_entries(self):
        sym = qd.QuadraticSymbol(1, np.array([[1.0, 0], [0, 0]], dtype=complex))
        A = qd.weyl_quantize(sym, 3)
        row = basis.index_positions(1, 3)[(2,)]
        assert A.matrix[0, 0] == pytest.approx(0.5, abs=1e-13)
        assert A.matrix[row, 0] == pytest.approx(math.sqrt(2) / 2, abs=1e-13)

    def test_linearity_exact(self):
        rng = np.random.default_rng(2)
        M1 = rng.standard_normal((2, 2))
        M2 = rng.standard_normal((2, 2))
        s1 = qd.QuadraticSymbol(1, (M1 + M1.T).astype(complex))
        s2 = qd.QuadraticSymbol(1, (M2 + M2.T).astype(complex))
        s12 = qd.QuadraticSymbol(1, s1.Q + s2.Q)
        A1 = qd.weyl_quantize(s1, 5).matrix
        A2 = qd.weyl_quantize(s2, 5).matrix
        A12 = qd.weyl_quantize(s12, 5).matrix
        scale = max(np.max(np.abs(A12)), 1.0)
        assert np.max(np.abs(A12 - (A1 + A2))) <= 1e-13 * scale

    def test_conjugate_symbol_is_adjoint(self):
        kfp = qd.kfp_symbol(1.3)
        A = qd.weyl_quantize(kfp, 6).matrix
        Abar = qd.weyl_quantize(kfp.conjugated(), 6).matrix
        assert np.max(np.abs(Abar - A.conj().T)) < 1e-12

    def test_matches_the_dense_product_oracle(self):
        # random symbols, about half their entries zeroed in symmetric
        # patterns, and the all-zero symbol.  An entry of either matrix sums
        # terms Q_ab (Op_a Op_b)[i, j], each at most (N + 2) |Q_ab|, each
        # rounded a few times: 4 eps (N + 2) sum |Q_ab|, eps = 2^-52, bounds
        # the gap (the worst of 2,060 symbols reads 1.9 eps)
        rng = np.random.default_rng(33)
        for t in range(60):
            n, N = int(rng.integers(1, 4)), int(rng.integers(0, 6))
            M = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
            keep = np.triu(rng.random((2 * n, 2 * n)) < 0.5)
            sym = qd.QuadraticSymbol(n, np.where(keep | keep.T, M + M.T, 0) * (t > 0))
            got, want = qd.weyl_quantize(sym, N).matrix, weyl_reference(sym, N)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 4 * 2.0**-52 * (N + 2) * np.abs(sym.Q).sum()

    def test_kfp_accretive(self):
        assert qd.kfp_symbol(1.0).real_part_psd
        A = qd.weyl_quantize(qd.kfp_symbol(1.0), 8)
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.standard_normal(A.size) + 1j * rng.standard_normal(A.size)
            assert float(np.real(np.vdot(c, A.matrix @ c))) >= -1e-10 * np.vdot(c, c).real


class TestEvolve:
    def test_time_zero_identity(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 5)
        rng = np.random.default_rng(4)
        f0 = basis.random_expansion(1, 5, rng)
        assert (qd.evolve(A, f0, 0.0) - f0).norm() < 1e-15

    def test_harmonic_ground_state_decay(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 4)
        f0 = basis.unit_expansion(1, 4, (0,))
        ft = qd.evolve(A, f0, 0.5)
        assert abs(ft.coeffs[0]) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_kfp_contraction_on_grid(self):
        A = qd.weyl_quantize(qd.kfp_symbol(1.0), 10)
        rng = np.random.default_rng(5)
        f = basis.random_expansion(2, 10, rng)
        prev = f.norm()
        for t in (0.1, 0.3, 0.7, 1.5):
            cur = qd.evolve(A, f, t).norm()  # raises on violation
            assert cur <= prev * (1 + 1e-8)
            prev = cur

    def test_semigroup_property(self):
        A = qd.weyl_quantize(qd.kfp_symbol(0.7), 8)
        rng = np.random.default_rng(6)
        f = basis.random_expansion(2, 8, rng)
        for s, t in [(0.2, 0.4), (0.05, 1.1), (0.5, 0.5)]:
            one = qd.evolve(A, f, s + t)
            two = qd.evolve(A, qd.evolve(A, f, t), s)
            assert (one - two).norm() <= 1e-9 * f.norm()

    def test_step_splitting_regime(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 30)
        f0 = basis.unit_expansion(1, 30, (0,))
        ft = qd.evolve(A, f0, 2.0)  # stiff horizon: t ||A|| = 122
        assert abs(ft.coeffs[0]) == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_stiff_non_normal_matches_mpmath_oracle(self):
        # KFP generator at N = 4 with t ||A||_2 = 150: the double-precision
        # propagator against a 120-bit Taylor expm
        op = qd.weyl_quantize(qd.kfp_symbol(1.0), 4)
        t = 150.0 / np.linalg.norm(op.matrix, 2)
        f0 = basis.random_expansion(2, 4, np.random.default_rng(3))
        got = qd.evolve(op, f0, t).coeffs
        with mpmath.workprec(120):
            E = mpmath.expm(mpmath.matrix((-t * op.matrix).tolist()))
            want = np.array([complex(z) for z in E * mpmath.matrix(f0.coeffs.tolist())])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestDissipation:
    def test_harmonic_exact_rate(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 12)
        rep = qd.dissipation_check(A, [0.25, 0.5], [2, 4], seed=0)
        for it, t in enumerate(rep.t_grid):
            for jk, k in enumerate(rep.k_grid):
                want = math.exp(-(2 * k + 2 + 1) * t)
                assert rep.ratios[it, jk] == pytest.approx(want, abs=1e-10)

    def test_time_zero_keeps_mass(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 6)
        rep = qd.dissipation_check(A, [0.0], [3], seed=0)
        assert rep.ratios[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_kfp_log_decay_linear_in_k(self):
        # N >= 3k so the high-mode content is resolved by the truncation
        A = qd.weyl_quantize(qd.kfp_symbol(1.0), 18)
        rep = qd.dissipation_check(A, [0.5, 1.0], [2, 3, 4, 5, 6], seed=1)
        for it in range(2):
            assert rep.slope_per_t[it] < 0
            assert rep.r2_per_t[it] >= 0.9

    def test_parse_symbol(self):
        s = qd.parse_symbol("kfp:a=2.0")
        assert s.n == 2 and s.Q[0, 3] == pytest.approx(-1j)
        h = qd.parse_symbol("harmonic:n=2")
        assert np.allclose(h.Q, np.eye(4))
        with pytest.raises(ContractViolation):
            qd.parse_symbol("unknown")
