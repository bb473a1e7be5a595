import json
import math

import mpmath
import numpy as np
import pytest

from hermite_obs import basis, estimates, quadrature, regions, verify
from hermite_obs.basis import (
    ContractViolation,
    HermiteExpansion,
    LadderMap,
    apply_ladder,
    eval_hermite_1d,
    multi_indices,
    space_dimension,
    unit_expansion,
)
from oracles import momentum_matrix, position_matrix, raise_matrix


def hermite_polynomial_coeffs(k):
    """Integer coefficients of the k-th (physicists') Hermite polynomial."""
    coeffs = {0: [1], 1: [0, 2]}
    for m in range(1, k):
        prev, cur = coeffs[m - 1], coeffs[m]
        nxt = [0] * (m + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * m * c
        coeffs[m + 1] = nxt
    return coeffs[k]


def phi_exact(k, x, dps=60):
    """Oracle: exact-integer Hermite polynomial times weight, high precision."""
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        poly = sum(c * xm**i for i, c in enumerate(hermite_polynomial_coeffs(k)))
        norm = mpmath.sqrt(2**k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        return float(poly * mpmath.e ** (-xm * xm / 2) / norm)


class TestMultiIndices:
    def test_one_dimensional_grading(self):
        assert multi_indices(1, 3) == ((0,), (1,), (2,), (3,))

    def test_counts(self):
        assert len(multi_indices(2, 3)) == 10
        assert space_dimension(2, 3) == math.comb(5, 2)

    def test_identity_case(self):
        assert multi_indices(3, 0) == ((0, 0, 0),)

    def test_graded_lex_order(self):
        idx = multi_indices(3, 5)
        keys = [(sum(a), a) for a in idx]
        assert keys == sorted(keys)

    def test_leading_block_is_smaller_space(self):
        assert multi_indices(2, 2) == multi_indices(2, 4)[: space_dimension(2, 2)]
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            f = basis.random_expansion(n, 3, rng)
            g = f.padded(6)
            pos = basis.index_positions(n, 6)
            want = np.zeros(space_dimension(n, 6), dtype=complex)
            for c, alpha in zip(f.coeffs, multi_indices(n, 3)):
                want[pos[alpha]] = c
            assert g.N == 6 and np.array_equal(g.coeffs, want)

    def test_rejects_bad_input(self):
        with pytest.raises(ContractViolation):
            multi_indices(0, 3)


class TestHermiteEval:
    def test_ground_state(self):
        assert eval_hermite_1d(0, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-14)

    def test_first_state(self):
        expect = math.sqrt(2) * math.pi ** -0.25 * math.exp(-0.5)
        assert eval_hermite_1d(1, 1.0) == pytest.approx(expect, abs=1e-14)

    def test_degree_five_against_polynomial_oracle(self):
        assert eval_hermite_1d(5, 2.3) == pytest.approx(phi_exact(5, 2.3), rel=1e-13)

    @pytest.mark.parametrize("k", [3, 10, 25, 40, 60])
    def test_recurrence_matches_polynomial_oracle(self, k):
        for x in (-7.5, -2.0, -0.3, 0.9, 3.7, 8.8):
            got = eval_hermite_1d(k, x)
            want = phi_exact(k, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-280)

    def test_large_degree_large_argument(self):
        # contract envelope: k <= 200, |x| <= 30, relative accuracy 1e-12
        with mpmath.workdps(80):
            x = mpmath.mpf(30)
            vals = [mpmath.pi ** mpmath.mpf("-0.25") * mpmath.e ** (-x * x / 2)]
            vals.append(x * mpmath.sqrt(2) * vals[0])
            for k in range(1, 200):
                vals.append(
                    x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * vals[k]
                    - mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * vals[k - 1]
                )
            want = float(vals[200])
        assert eval_hermite_1d(200, 30.0) == pytest.approx(want, rel=1e-12)


class TestExpansion:
    def test_point_evaluation_ground_state(self):
        f = unit_expansion(1, 3, (0,))
        assert complex(f.evaluate(0.0)).real == pytest.approx(math.pi ** -0.25)

    def test_tensor_factorization(self):
        f = unit_expansion(2, 3, (1, 0))
        want = eval_hermite_1d(1, 1.0) * eval_hermite_1d(0, 0.0)
        assert complex(f.evaluate([1.0, 0.0])) == pytest.approx(want, rel=1e-13)

    def test_linearity(self):
        f = unit_expansion(1, 1, (0,)).scaled(2.0) + unit_expansion(1, 1, (1,)).scaled(1j)
        want = 2 * eval_hermite_1d(0, 1.0) + 1j * eval_hermite_1d(1, 1.0)
        assert complex(f.evaluate(1.0)) == pytest.approx(want, rel=1e-13)

    def test_parseval_against_gauss_hermite(self):
        # coefficient norm equals the quadrature of int |f|^2 (oracle:
        # tensor Gauss-Hermite, exact for the polynomial part)
        rng = np.random.default_rng(42)
        for n, N in [(1, 15), (2, 9), (3, 6)]:
            f = basis.random_expansion(n, N, rng)
            nodes, weights = np.polynomial.hermite.hermgauss(N + 1)
            grids = np.meshgrid(*([nodes] * n), indexing="ij")
            pts = np.column_stack([g.ravel() for g in grids])
            w = np.ones(pts.shape[0])
            for j in range(n):
                w *= np.take(weights, np.searchsorted(nodes, pts[:, j]))
            vals = f.evaluate(pts if n > 1 else pts[:, 0])
            gauss_part = np.exp(0.5 * np.sum(pts**2, axis=1))
            quad = float(np.sum(w * np.abs(vals * gauss_part) ** 2))
            assert abs(quad - f.norm() ** 2) < 1e-10

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(7)
        f = basis.random_expansion(2, 4, rng)
        doc = json.loads(f.to_json())
        assert doc["order"] == "grlex"
        g = HermiteExpansion.from_json(f.to_json())
        assert g.n == f.n and g.N == f.N
        assert np.allclose(g.coeffs, f.coeffs)

    def test_evaluation_equals_the_per_coefficient_loop(self):
        # one product per axis and a running sum over the coefficients add in
        # the loop's order: the values agree bit for bit
        rng = np.random.default_rng(43)
        for n, N in [(1, 0), (1, 9), (2, 4), (3, 3)]:
            f = basis.random_expansion(n, N, rng)
            pts = rng.normal(scale=3.0, size=(6, n))
            tables = [basis.hermite_values(N, pts[:, j]) for j in range(n)]
            want = np.zeros(6, dtype=complex)
            for c, alpha in zip(f.coeffs, multi_indices(n, N)):
                term = tables[0][alpha[0]].copy()
                for j in range(1, n):
                    term *= tables[j][alpha[j]]
                want += c * term
            assert np.array_equal(f.evaluate(pts), want)

    def test_mixed_cutoffs_are_refused(self):
        with pytest.raises(ContractViolation, match="different spaces"):
            unit_expansion(1, 2, (0,)) + unit_expansion(1, 3, (0,))

    def test_coefficients_are_immutable(self):
        f = unit_expansion(1, 2, (1,))
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0


class TestLadder:
    def test_raise_on_phi2(self):
        f = unit_expansion(1, 3, (2,))
        g = apply_ladder(basis.RAISE, 0, f)
        assert g.N == 4
        want = unit_expansion(1, 4, (3,)).scaled(math.sqrt(3))
        assert np.allclose(g.coeffs, want.coeffs)

    def test_matches_per_coefficient_reference(self):
        # oracle: the definition a_{j,+-} Phi_alpha = sqrt(.) Phi_{alpha +- e_j},
        # applied one coefficient at a time; the table form must agree
        # bit for bit, and raise_matrix must be the same map on E_{N+1}
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for N in (0, 1, 4):
                f = basis.random_expansion(n, N, rng)
                for j in range(n):
                    up = np.zeros(space_dimension(n, N + 1), dtype=complex)
                    down = np.zeros(space_dimension(n, max(N - 1, 0)), dtype=complex)
                    pos_up = basis.index_positions(n, N + 1)
                    pos_down = basis.index_positions(n, max(N - 1, 0))
                    for c, a in zip(f.coeffs, multi_indices(n, N)):
                        up[pos_up[a[:j] + (a[j] + 1,) + a[j + 1:]]] = math.sqrt(a[j] + 1.0) * c
                        if a[j] > 0:
                            down[pos_down[a[:j] + (a[j] - 1,) + a[j + 1:]]] = math.sqrt(a[j]) * c
                    got_up = apply_ladder(basis.RAISE, j, f)
                    got_down = apply_ladder(basis.LOWER, j, f)
                    assert np.array_equal(got_up.coeffs, up)
                    assert np.array_equal(got_down.coeffs, down)
                    R = raise_matrix(n, N + 1, j)
                    assert np.array_equal(R @ f.padded(N + 1).coeffs, up)

    def test_lower_annihilates_ground_state(self):
        f = unit_expansion(1, 2, (0,))
        g = apply_ladder(basis.LOWER, 0, f)
        assert g.norm() == 0.0

    @pytest.mark.parametrize("k", [0, 1, 4, 7])
    def test_oscillator_eigenrelation(self, k):
        # (-d^2/dx^2 + x^2) phi_k = (2k+1) phi_k, built from ladder maps
        f = unit_expansion(1, 8, (k,))
        xx = apply_ladder(basis.POSITION, 0, apply_ladder(basis.POSITION, 0, f))
        dd = apply_ladder(basis.DERIVATIVE, 0, apply_ladder(basis.DERIVATIVE, 0, f))
        res = (xx - dd) - f.padded(10).scaled(2 * k + 1)
        assert res.norm() < 1e-12

    def test_commutator_is_identity(self):
        rng = np.random.default_rng(0)
        f = basis.random_expansion(2, 5, rng)
        up = apply_ladder(basis.RAISE, 1, f)
        down_up = apply_ladder(basis.LOWER, 1, up)
        down = apply_ladder(basis.LOWER, 1, f)
        up_down = apply_ladder(basis.RAISE, 1, down)
        diff = down_up - up_down.padded(down_up.N) - f.padded(down_up.N)
        assert diff.norm() < 1e-12

    def test_adjointness_on_coefficients(self):
        rng = np.random.default_rng(1)
        f = basis.random_expansion(2, 4, rng)
        g = basis.random_expansion(2, 5, rng)
        up = apply_ladder(basis.RAISE, 0, f)
        down = apply_ladder(basis.LOWER, 0, g)
        assert up.inner(g) == pytest.approx(f.inner(down.padded(4)), rel=1e-13)

    def test_harmonic_oscillator_diagonal(self):
        # position^2 + momentum^2 acts level-diagonally, eigenvalue 2|a| + n
        n, N = 2, 4
        M = N + 2
        H = np.zeros((space_dimension(n, M), space_dimension(n, M)), dtype=complex)
        for j in range(n):
            X = position_matrix(n, M, j)
            D = momentum_matrix(n, M, j)
            H += X @ X + D @ D
        dim = space_dimension(n, N)
        lev = basis.index_levels(n, N)
        assert np.max(np.abs(H[:dim, :dim] - np.diag(2 * lev + n))) < 1e-12

    @pytest.mark.parametrize("kind, axis, message", [
        ("sideways", 0, "unknown ladder kind"), (basis.RAISE, 2, "axis out of range"),
        (basis.LOWER, -1, "axis out of range"), (basis.POSITION, 5, "axis out of range"),
    ])
    def test_unknown_kind_and_axis_out_of_range_refused(self, kind, axis, message):
        f = unit_expansion(2, 3, (1, 0))
        with pytest.raises(ContractViolation, match=message):
            apply_ladder(kind, axis, f)

    def test_cutoff_mismatch_rejected(self):
        # the record form: the same step as (kind, axis, f), and refused
        # when its cutoff is not the expansion's
        f = basis.random_expansion(2, 3, np.random.default_rng(2))
        for kind in (basis.RAISE, basis.LOWER, basis.POSITION, basis.DERIVATIVE):
            got = apply_ladder(LadderMap(kind, 1, 3), f)
            assert np.array_equal(got.coeffs, apply_ladder(kind, 1, f).coeffs)
        with pytest.raises(ContractViolation, match="does not match ladder source"):
            apply_ladder(LadderMap(basis.RAISE, 0, 5), f)


# every table kept for the rest of the process, as (name, its arrays)
PROCESS_TABLES = {
    "basis.index_levels": lambda: (basis.index_levels(2, 3),),
    "basis._index_array": lambda: (basis._index_array(2, 3),),
    "basis._ladder_table": lambda: basis._ladder_table(2, 3, 1),
    "estimates.gauss_hermite": lambda: estimates.gauss_hermite(5),
    "quadrature.gauss_legendre": lambda: quadrature.gauss_legendre(4),
    "regions._root_rows double": lambda: regions._root_rows(4, None),
    "regions._root_rows int": lambda: regions._root_rows(4, 300),
    "verify._linspace": lambda: (verify._linspace(0.0, 1.0, 5),),
}


@pytest.mark.parametrize("name", sorted(PROCESS_TABLES))
def test_process_tables_are_read_only(name):
    # one stray write would change what every later caller reads
    tables = PROCESS_TABLES[name]()
    for arr in tables:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
    assert all(a is b for a, b in zip(tables, PROCESS_TABLES[name]()))
