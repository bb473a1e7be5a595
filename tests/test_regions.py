import math

import mpmath
import numpy as np
import pytest

from hermite_obs import basis, regions as rg
from hermite_obs.basis import ContractViolation
from hermite_obs.quadrature import composite_gauss_legendre


class TestGenerators:
    def test_periodic_thick_1d(self):
        r = rg.make_periodic_thick(1, 1.0, 0.5, 3.0)
        assert r.box_count == 6
        starts = sorted(r.lows[:, 0])
        assert starts == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0]
        assert np.allclose(r.highs[:, 0] - r.lows[:, 0], 0.5)

    def test_periodic_thick_2d_side(self):
        r = rg.make_periodic_thick(2, 1.0, 0.25, 2.0)
        assert np.allclose(r.highs - r.lows, 0.5)

    def test_full_cells_merge_to_single_interval(self):
        r = rg.make_periodic_thick(1, 2.0, 1.0, 4.0)
        assert r.box_count == 1
        assert r.lows[0, 0] == -4.0 and r.highs[0, 0] == 4.0

    def test_domain_errors(self):
        with pytest.raises(ContractViolation):
            rg.make_periodic_thick(1, 1.0, 1.5, 3.0)
        with pytest.raises(ContractViolation):
            rg.make_periodic_thick(1, -1.0, 0.5, 3.0)

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(ContractViolation):
            rg.Region(2, [[0.0, 0.0], [0.5, 0.5]], [[1.0, 1.0], [1.5, 1.5]])
        # one-dimensional unions normalize instead: overlap and touching merge
        r = rg.Region(1, [[0.0], [0.5]], [[1.0], [1.5]])
        assert r.box_count == 1
        assert r.measure() == pytest.approx(1.5)

    @pytest.mark.parametrize("corner", [(0.5, 0.5), (30.5, 29.5)])
    def test_overlap_hidden_among_many_boxes(self, corner):
        # 32 x 32 unit squares tile [0, 32]^2; touching boxes are accepted
        g = np.arange(32.0)
        lows = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        tiled = rg.Region(2, lows, lows + 1.0)
        assert tiled.box_count == 1024
        assert tiled.measure() == pytest.approx(1024.0)
        # one more unit square straddling four tiles, early or late in the list
        bad = np.vstack([lows, [corner]])
        with pytest.raises(ContractViolation, match="overlap"):
            rg.Region(2, bad, bad + 1.0)

    def test_ball_complement(self):
        r = rg.ball_complement(1.0, 5.0)
        assert r.box_count == 2
        assert r.measure() == pytest.approx(8.0)

    def test_json_roundtrip(self):
        r = rg.make_periodic_thick(2, 1.0, 0.25, 2.0)
        r2 = rg.Region.from_json_dict(r.to_json_dict())
        assert r2.n == 2 and r2.box_count == r.box_count
        assert np.allclose(r2.lows, r.lows)


class TestThickness:
    def test_periodic_pattern_exact(self):
        r = rg.make_periodic_thick(1, 1.0, 0.5, 8.0)
        assert rg.thickness_check(r, 1.0, 4) == pytest.approx(0.5, abs=1e-12)

    def test_half_space_has_empty_windows(self):
        r = rg.half_line(10.0)
        assert rg.thickness_check(r, 1.0, 2) == 0.0

    def test_full_space(self):
        r = rg.full_space(1, 10.0)
        assert rg.thickness_check(r, 2.0, 3) == pytest.approx(1.0)


class TestDensity:
    def test_half_line(self):
        assert rg.density_ratio(rg.half_line(20.0), 10.0) == pytest.approx(0.5)

    def test_full_space_2d(self):
        assert rg.density_ratio(rg.full_space(2, 8.0), 5.0) == pytest.approx(1.0, abs=1e-6)

    def test_periodic_1d(self):
        r = rg.make_periodic_thick(1, 1.0, 0.5, 12.0)
        assert rg.density_ratio(r, 10.0) == pytest.approx(0.5, abs=0.05)

    def test_radius_beyond_truncation_rejected(self):
        with pytest.raises(ContractViolation):
            rg.density_ratio(rg.half_line(5.0), 6.0)


class TestPairIntegral:
    def test_half_line_cross_term(self):
        acc = rg.integrate_pair(rg.half_line(40.0), 0, 1)
        assert acc.value == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-13)
        assert acc.method == rg.WRONSKIAN_EXACT

    def test_orthonormality_on_full_line(self):
        full = rg.full_space(1, 40.0)
        assert rg.integrate_pair(full, 2, 2).value == pytest.approx(1.0, abs=1e-12)
        assert rg.integrate_pair(full, 0, 2).value == pytest.approx(0.0, abs=1e-12)

    def test_additivity_over_disjoint_union(self):
        left = rg.interval_region(-3.0, -1.0)
        right = rg.interval_region(0.5, 2.0)
        both = rg.union(left, right)
        for j, k in [(0, 0), (1, 3), (4, 4), (2, 5)]:
            s = rg.integrate_pair(left, j, k).value + rg.integrate_pair(right, j, k).value
            assert rg.integrate_pair(both, j, k).value == pytest.approx(s, abs=1e-13)

    def test_wronskian_matches_quadrature(self):
        # independent oracle for the exact off-diagonal identity
        r = rg.interval_region(-0.7, 1.9)
        for j, k in [(0, 1), (2, 5), (3, 8), (1, 6)]:
            def f(x):
                vals = basis.hermite_values(max(j, k), x)
                return vals[j] * vals[k]

            want, _, _ = composite_gauss_legendre(f, -0.7, 1.9, abs_tol=1e-14, min_panels=8)
            assert rg.integrate_pair(r, j, k).value == pytest.approx(want, abs=1e-11)

    def test_account_honesty_under_refinement(self):
        # reported bounds must dominate the change seen at doubled resolution
        r = rg.interval_region(0.3, 2.7)
        for k in (0, 3, 9, 25, 40):
            acc = rg.integrate_pair(r, k, k)
            assert acc.method == rg.ERF_RECURRENCE

            def f(x):
                return basis.hermite_values(k, x)[k] ** 2

            finer, _, _ = composite_gauss_legendre(
                f, 0.3, 2.7, abs_tol=1e-15, min_panels=64
            )
            assert abs(acc.value - finer) <= max(acc.abs_error_bound, 1e-13)

    @pytest.mark.parametrize("a,b", [(-8.0097, 3.2986), (0.0, 40.0), (-40.0, 40.0), (5.0, 40.0),
                                     (0.7093, 19.7191), (-20.3609, -0.9621), (-17.0869, -4.2967)])
    def test_rounding_bound_holds_against_320_bits(self, a, b):
        # the same closed forms at 320 bits leave only the double rounding,
        # which every entry's reported bound must cover
        N = 64
        vals, errs = rg.interval_pair_tables(a, b, N)
        with mpmath.workprec(320):
            ref = rg.interval_pair_tables(a, b, N, mpmath.mp)
            ref = np.array([[float(e) for e in row] for row in ref])
        assert np.all(np.abs(vals - ref) <= errs)

    def test_tensorization_against_2d_quadrature(self):
        # int_box Phi_a Phi_b factorizes; oracle is a tensor Gauss rule
        lo, hi = [-0.4, 0.1], [1.2, 1.7]
        alpha, beta = (1, 2), (0, 1)
        vx, _ = rg.interval_pair_tables(lo[0], hi[0], 3)
        vy, _ = rg.interval_pair_tables(lo[1], hi[1], 3)
        got = vx[alpha[0], beta[0]] * vy[alpha[1], beta[1]]
        nodes, w = np.polynomial.legendre.leggauss(40)
        xs = 0.5 * (lo[0] + hi[0]) + 0.5 * (hi[0] - lo[0]) * nodes
        ys = 0.5 * (lo[1] + hi[1]) + 0.5 * (hi[1] - lo[1]) * nodes
        wx = 0.5 * (hi[0] - lo[0]) * w
        wy = 0.5 * (hi[1] - lo[1]) * w
        tabx = basis.hermite_values(3, xs)
        taby = basis.hermite_values(3, ys)
        fx = tabx[alpha[0]] * tabx[beta[0]]
        fy = taby[alpha[1]] * taby[beta[1]]
        want = float((wx @ fx) * (wy @ fy))
        assert got == pytest.approx(want, abs=1e-12)

    def test_mp_table_matches_double(self):
        with mpmath.workprec(200):
            tab = rg.interval_pair_tables(0.0, 40.0, 8, mpmath.mp)
        vals, errs = rg.interval_pair_tables(0.0, 40.0, 8)
        for j in range(9):
            for k in range(9):
                assert float(tab[j][k]) == pytest.approx(
                    vals[j, k], abs=max(5e-13, 4 * errs[j, k])
                )


class TestTruncateRadius:
    def test_monotone_in_cutoff(self):
        assert rg.truncate_radius(10, 1) < rg.truncate_radius(40, 1)

    def test_safety_one_value(self):
        from hermite_obs.estimates import tail_constant_cn

        c1 = tail_constant_cn(1).c
        assert rg.truncate_radius(0, 1, safety=1.0) == pytest.approx(c1)

    def test_doubling_safety_at_least_halves_majorant(self):
        from hermite_obs.estimates import tail_mass_rhs_log

        for N in (0, 5, 20):
            a = rg.truncate_radius(N, 1, safety=1.0)
            assert tail_mass_rhs_log(1, N, 2 * a) <= tail_mass_rhs_log(1, N, a) - math.log(2.0)

    def test_safety_below_one_rejected(self):
        with pytest.raises(ContractViolation):
            rg.truncate_radius(5, 1, safety=0.5)
