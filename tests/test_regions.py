import hashlib
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from hermite_obs import arith, basis, regions as rg
from hermite_obs.basis import ContractViolation
from hermite_obs.quadrature import composite_gauss_legendre
from oracles import boundary_values_mp, thickness


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
        # an axis's intervals normalize: overlap and touching merge
        r = rg.Region([([0.0, 0.5], [1.0, 1.5])])
        assert r.box_count == 1
        assert r.measure() == pytest.approx(1.5)

    def test_product_of_axis_unions(self):
        # two intervals by three, merged per axis: six boxes in product order
        r = rg.Region([([2.0, 0.0, 0.5], [3.0, 1.0, 1.5]), ([0.0, 4.0, 2.0], [1.0, 5.0, 2.5])])
        assert r.n == 2 and r.box_count == 6
        assert r.lows.tolist() == [[0.0, 0.0], [0.0, 2.0], [0.0, 4.0],
                                   [2.0, 0.0], [2.0, 2.0], [2.0, 4.0]]
        assert r.highs[-1].tolist() == [3.0, 5.0]
        assert r.measure() == 2.5 * 2.5 and r.trunc_radius == 5.0
        for bad in ([([0.0], [1.0, 2.0])], [([1.0], [0.0])], [([0.0], [math.inf])], []):
            with pytest.raises(ContractViolation):
                rg.Region(bad)

    def test_periodic_cells_meet_the_cube(self):
        # in n >= 2 the cells kept are those meeting (-R, R)^n, on every axis
        # the cells of the 1-D pattern, corners included
        R = 2.5
        flat = rg.make_periodic_thick(1, 1.0, 0.25, R).axes[0]
        r = rg.make_periodic_thick(2, 1.0, 0.25, R)
        assert r.box_count == len(flat[0]) ** 2 == 36
        for lows, highs in r.axes:
            assert lows.tolist() == flat[0].tolist()
            assert np.allclose(highs - lows, 0.5)
        assert [-3.0, -3.0] in r.lows.tolist()

    def test_empty_region_has_no_boxes(self):
        for n in (1, 2, 3):
            r = rg.Region([([], [])] * n, trunc_radius=5.0)
            assert r.lows.shape == r.highs.shape == (0, n)
            assert r.box_count == 0 and r.measure() == 0.0

    def test_ball_complement(self):
        r = rg.ball_complement(1.0, 5.0)
        assert r.box_count == 2
        assert r.measure() == pytest.approx(8.0)

    def test_json_record_is_a_digest(self):
        r = rg.make_periodic_thick(2, 1.0, 0.25, 2.0)
        doc = r.to_json_dict()
        assert doc == rg.make_periodic_thick(2, 1.0, 0.25, 2.0).to_json_dict()
        assert "boxes" not in doc and doc["box_count"] == 16 and doc["measure"] == r.measure()
        # one interval end moved by one ulp changes the digest
        (lows, highs), axis = r.axes[0], r.axes[1]
        highs = highs.copy()
        highs[2] = np.nextafter(highs[2], np.inf)
        moved = rg.Region([(lows, highs), axis], r.generator, r.trunc_radius).to_json_dict()
        assert moved["sha256"] != doc["sha256"]
        assert {k: v for k, v in moved.items() if k not in ("sha256", "measure")} == {
            k: v for k, v in doc.items() if k not in ("sha256", "measure")}
        # a 1-D union is recorded as its merged intervals
        merged = rg.Region([([0.5, 0.0, 2.0], [1.5, 1.0, 3.0])])
        assert merged.to_json_dict() == rg.Region([([0.0, 2.0], [1.5, 3.0])]).to_json_dict()
        # a single box is recorded by its lows, then its highs
        corners = np.array([-3.0, -3.0, 3.0, 3.0]).tobytes()
        assert rg.full_space(2, 3.0).to_json_dict()["sha256"] == hashlib.sha256(corners).hexdigest()


class TestThickness:
    # the generators against the test oracle of lattice-cube measures
    def test_periodic_pattern_exact(self):
        r = rg.make_periodic_thick(1, 1.0, 0.5, 8.0)
        assert thickness(r, 1.0, 4) == pytest.approx(0.5, abs=1e-12)

    def test_half_space_has_empty_windows(self):
        r = rg.half_line(10.0)
        assert thickness(r, 1.0, 2) == 0.0

    def test_full_space(self):
        r = rg.full_space(1, 10.0)
        assert thickness(r, 2.0, 3) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,N,gamma", [(2, 16, 0.5), (2, 6, 0.3), (3, 2, 0.5)])
    def test_periodic_pattern_exact_at_its_period(self, n, N, gamma):
        r = rg.make_periodic_thick(n, 1.0, gamma, rg.truncate_radius(N, n) + 1.0)
        assert thickness(r, 1.0) == pytest.approx(gamma, abs=1e-12)

    def test_lattice_minimum_overestimates_the_infimum(self):
        # the oracle's own case: the lattice of pitch 1/4 sees 0.15, not 0.1
        r = rg.Region([([-10.0, 1.05], [0.15, 10.0])])
        assert thickness(r, 1.0, 4) == pytest.approx(0.15, abs=1e-12)


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

    def test_four_dimensions_rejected(self):
        with pytest.raises(ContractViolation):
            rg.density_ratio(rg.full_space(4, 3.0), 2.0)

    def test_needs_no_quadrature(self, monkeypatch):
        # box-ball volumes are closed forms: the adaptive quadrature is never
        # called
        from hermite_obs import quadrature

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called")

        monkeypatch.setattr(quadrature, "composite_gauss_legendre", refuse)
        for n in (2, 3):
            r = rg.make_periodic_thick(n, 1.0, 0.5, 4.0)
            assert 0.4 < rg.density_ratio(r, 4.0) < 0.6


def clipped_length(lo, hi, s):
    return max(mpmath.mpf(0), min(hi, s) - max(lo, -s))


def quarter_kinks(lo, hi, R, coords):
    """Ends of [lo, hi] and the points inside it where sqrt(R^2 - x^2) = |c|."""
    pts = {lo, hi}
    for c in coords:
        if abs(c) < R:
            pts |= {mpmath.sqrt(R * R - c * c), -mpmath.sqrt(R * R - c * c)}
    return sorted(p for p in pts | {0, R, -R} if lo <= p <= hi)


def disc_area_quad(lo, hi, R):
    """|[lo, hi] cap B(0, R)| in 2-D by mpmath.quad over x, split at the kinks."""
    a, b = max(lo[0], -R), min(hi[0], R)
    if b <= a:
        return mpmath.mpf(0)
    return mpmath.quad(lambda x: clipped_length(lo[1], hi[1], mpmath.sqrt(R * R - x * x)),
                       quarter_kinks(a, b, R, [lo[1], hi[1]]))


def disc_area_exact(lo, hi, R):
    """The same area by the antiderivative of sqrt(R^2 - y^2) on each piece."""
    a, b = max(lo[0], -R), min(hi[0], R)
    if R <= 0 or b <= a:
        return mpmath.mpf(0)

    def S(y):
        return (y * mpmath.sqrt(R * R - y * y) + R * R * mpmath.asin(y / R)) / 2

    total = mpmath.mpf(0)
    pts = quarter_kinks(a, b, R, [lo[1], hi[1]])
    for y0, y1 in zip(pts, pts[1:]):
        s = mpmath.sqrt(R * R - ((y0 + y1) / 2) ** 2)
        if clipped_length(lo[1], hi[1], s) > 0:  # each end: the edge or the circle
            total += ((S(y1) - S(y0) if hi[1] > s else hi[1] * (y1 - y0))
                      + (S(y1) - S(y0) if lo[1] < -s else -lo[1] * (y1 - y0)))
    return total


def ball_volume_quad(lo, hi, R):
    """|box cap B(0, R)| at 30 digits: mpmath.quad, piecewise between kinks.

    In 3-D the outer integral over x is mpmath.quad and each slice is a disc
    area at radius sqrt(R^2 - x^2), taken piece by piece in closed form.
    """
    with mpmath.workdps(30):
        lo, hi = [mpmath.mpf(t) for t in lo], [mpmath.mpf(t) for t in hi]
        R = mpmath.mpf(R)
        if len(lo) == 2:
            return disc_area_quad(lo, hi, R)
        a, b = max(lo[0], -R), min(hi[0], R)
        if b <= a:
            return mpmath.mpf(0)
        radii = [mpmath.sqrt(y * y + z * z) for y in (lo[1], hi[1], 0) for z in (lo[2], hi[2], 0)]
        slice_area = lambda x: disc_area_exact(lo[1:], hi[1:], mpmath.sqrt(max(R * R - x * x, 0)))
        return mpmath.quad(slice_area, quarter_kinks(a, b, R, radii))


BOX_BALL_CASES = [
    # 2-D: straddles, contains, inside, touches, misses, straddles far out
    ((0.2, -0.3), (1.4, 0.9), 1.5), ((-2.0, -2.0), (2.0, 2.0), 1.5), ((0.1, 0.1), (0.5, 0.6), 1.5),
    ((1.5, -1.0), (2.0, 1.0), 1.5), ((1.2, 1.2), (2.0, 2.0), 1.5), ((-0.9, -1.1), (0.3, 0.2), 1.2),
    ((10.5, 2.0), (11.5, 3.5), 12.0),
    # 3-D: the same classes
    ((0.2, -0.3, 0.1), (1.4, 0.9, 0.8), 1.5), ((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), 1.5),
    ((0.1, 0.1, -0.3), (0.5, 0.6, 0.2), 1.5), ((1.5, -1.0, -1.0), (2.0, 1.0, 1.0), 1.5),
    ((0.9, 0.9, 0.9), (2.0, 2.0, 2.0), 1.5), ((-1.3, 0.2, -0.7), (0.4, 1.1, 0.1), 1.0),
    ((0.0, -0.5, 0.3), (0.8, 0.5, 1.7), 1.2), ((10.5, 2.0, 1.0), (11.5, 3.5, 2.5), 12.0),
]


@pytest.mark.parametrize("lo,hi,R", BOX_BALL_CASES)
def test_box_ball_volume_matches_30_digit_quadrature(lo, hi, R):
    # relative 1e-13 near the origin; inclusion-exclusion cancels corner terms
    # of size up to R^n, so a zero volume or a box far out is held to 1e-14 R^n
    n = len(lo)
    want = ball_volume_quad(lo, hi, R)
    ball = mpmath.pi ** (n / mpmath.mpf(2)) / mpmath.gamma(n / mpmath.mpf(2) + 1) * R**n
    got = rg.density_ratio(rg.Region(list(zip(lo, hi)), trunc_radius=R), R) * ball
    near = max(abs(t) for t in lo + hi) <= 2.0 and want > 0
    assert abs(got - want) <= (1e-13 * want if near else 1e-14 * R**n)


class TestPairIntegral:
    def test_half_line_cross_term(self):
        vals, _ = rg.interval_pair_tables([0.0], [40.0], 1)
        assert vals[0, 0, 1] == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-13)

    def test_orthonormality_on_full_line(self):
        vals, _ = rg.interval_pair_tables([-40.0], [40.0], 2)
        assert vals[0, 2, 2] == pytest.approx(1.0, abs=1e-12)
        assert vals[0, 0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_additivity_over_disjoint_union(self):
        # [a, d] split at an interior b: the table of [a, d] is the sum of the
        # tables of [a, b] and [b, d], within the three tables' summed bounds
        for a, b, d in [(-3.0, -1.0, 2.0), (-0.7, 0.4, 1.9), (0.5, 2.0, 6.0)]:
            vals, errs = rg.interval_pair_tables([a, a, b], [d, b, d], 7)
            diff = np.abs(vals[0] - vals[1] - vals[2])
            assert np.all(diff <= errs.sum(axis=0)) and np.all(diff <= 1e-13)

    def test_wronskian_matches_quadrature(self):
        # independent oracle for the exact off-diagonal identity
        vals, _ = rg.interval_pair_tables([-0.7], [1.9], 8)
        for j, k in [(0, 1), (2, 5), (3, 8), (1, 6)]:
            def f(x):
                tab = basis.hermite_values(max(j, k), x)
                return tab[j] * tab[k]

            want, _, _ = composite_gauss_legendre(f, -0.7, 1.9, abs_tol=1e-14, min_panels=8)
            assert vals[0, j, k] == pytest.approx(want, abs=1e-11)

    def test_account_honesty_under_refinement(self):
        # reported bounds must dominate the change seen at doubled resolution
        vals, errs = rg.interval_pair_tables([0.3], [2.7], 40)
        for k in (0, 3, 9, 25, 40):
            def f(x):
                return basis.hermite_values(k, x)[k] ** 2

            finer, _, _ = composite_gauss_legendre(
                f, 0.3, 2.7, abs_tol=1e-15, min_panels=64
            )
            assert abs(vals[0, k, k] - finer) <= max(errs[0, k, k], 1e-13)

    @pytest.mark.parametrize("a,b", [(-8.0097, 3.2986), (0.0, 40.0), (-40.0, 40.0), (5.0, 40.0),
                                     (0.7093, 19.7191), (-20.3609, -0.9621), (-17.0869, -4.2967)])
    def test_rounding_bound_holds_against_320_bits(self, a, b):
        # the same closed forms at 320 bits leave only the double rounding,
        # which every entry's reported bound must cover
        N = 64
        (vals,), (errs,) = rg.interval_pair_tables([a], [b], N)
        with mpmath.workprec(320):
            (ref,), (e,) = rg.interval_pair_tables([a], [b], N, mpmath.mp)
        ref = np.array([[float(mpmath.ldexp(t, e)) for t in row] for row in ref])
        assert np.all(np.abs(vals - ref) <= errs)

    def test_far_ends_and_overflowed_bounds_are_never_nan(self):
        # past |x| = 38.6 every phi_k is 0 in doubles, so ends out to 1e300
        # give the tables of +-40; a |T^-1| past the double range gives an
        # inf bound, never NaN, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far, far_errs = rg.interval_pair_tables([-1e200, 0.0], [1e200, 1e300], 2)
            near, _ = rg.interval_pair_tables([-40.0, 0.0], [40.0, 40.0], 2)
            _, big = rg.interval_pair_tables([0.0], [62.0], 400)
        assert far.tobytes() == near.tobytes()
        assert far_errs.max() < 1e-14
        assert not np.isnan(big).any() and np.isinf(big).any()

    def test_tensorization_against_2d_quadrature(self):
        # int_box Phi_a Phi_b factorizes; oracle is a tensor Gauss rule
        lo, hi = [-0.4, 0.1], [1.2, 1.7]
        alpha, beta = (1, 2), (0, 1)
        vals, _ = rg.interval_pair_tables(lo, hi, 3)
        got = vals[0, alpha[0], beta[0]] * vals[1, alpha[1], beta[1]]
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
            (tab,), (e,) = rg.interval_pair_tables([0.0], [40.0], 8, mpmath.mp)
        (vals,), (errs,) = rg.interval_pair_tables([0.0], [40.0], 8)
        for j in range(9):
            for k in range(9):
                assert float(mpmath.ldexp(tab[j][k], e)) == pytest.approx(
                    vals[j, k], abs=max(5e-13, 4 * errs[j, k])
                )


# The single-interval pair-table routine that the batched one replaced, kept
# as the reference: a batch must reproduce it bit for bit.  Its sum for rho
# runs in order, as the batched routine's does, so that no bound depends on N.
def single_interval_tables(a, b, N, mp=None):
    """One interval [a, b]: (N+1, N+1) tables, or their mpf values with ``mp``."""
    if mp is None:
        num, sqrt, exp, erf, erfc, pi, dtype = (
            float, math.sqrt, math.exp, math.erf, math.erfc, math.pi, float)
    else:
        num, sqrt, exp, erf, erfc, pi, dtype = (
            mp.mpf, mp.sqrt, mp.exp, mp.erf, mp.erfc, mp.pi, object)
    K = N + 1
    x = np.array([num(a), num(b)], dtype=dtype)
    c = np.array([sqrt(num(2) / (k + 1)) for k in range(K)], dtype=dtype)
    d = np.array([sqrt(num(k) / (k + 1)) for k in range(K)], dtype=dtype)
    root = np.array([sqrt(num(k)) for k in range(K + 1)], dtype=dtype)

    # v[k] = (phi_k(a), phi_k(b)) for k <= N+1, dv[k] = (phi_k'(a), phi_k'(b)) for k <= N
    xc = x * c[:, None]
    v = np.empty((K + 1, 2), dtype=dtype)
    v[0] = [pi ** num(-0.25) * exp(-t * t / 2) for t in x]
    v[1] = xc[0] * v[0]
    for k in range(1, K):
        v[k + 1] = xc[k] * v[k] - d[k] * v[k - 1]
    below = np.concatenate([v[:1] * 0, v[:K - 1]])
    dv = (root[:K, None] * below - root[1:, None] * v[1:]) / sqrt(num(2))

    # off[j, k] = [phi_j phi_k' - phi_j' phi_k]_a^b / (2 (j - k)), symmetric
    row, col = upper = np.triu_indices(K, 1)
    lower = (col, row)
    wronskian = [v[row, e] * dv[col, e] - v[col, e] * dv[row, e] for e in (0, 1)]
    den = np.array([num(-2 * m) for m in range(K)], dtype=dtype)[col - row]
    vals = np.empty((K, K), dtype=dtype)
    vals[upper] = vals[lower] = (wronskian[1] - wronskian[0]) / den

    # diagonal: I_{k+1} = I_k - (c_k / 2) [phi_k phi_{k+1}]_a^b from I_0, which is
    # (erf(b) - erf(a)) / 2 reflected to lean right and taken through erfc
    # when both ends share a sign and the far one is past erf^-1(1/2), so that
    # far intervals keep relative accuracy
    B = v[:N, 1] * v[1:K, 1] - v[:N, 0] * v[1:K, 0]
    step = c[:N] / 2 * B
    lo, hi = (x[0], x[1]) if a + b >= 0 else (-x[1], -x[0])
    F, sign = (erfc, -1) if lo >= 0 and hi >= rg.ERF_HALF else (erf, 1)
    F_lo, F_hi = F(lo), F(hi)
    seed = sign * (F_hi - F_lo) / 2
    diag = np.cumsum(np.concatenate([np.array([seed], dtype=dtype), -step]))
    np.fill_diagonal(vals, diag)
    if mp is not None:
        return vals

    # Rounding bound.  eps = 2u dominates every gamma_m = m u / (1 - m u)
    # below.  The boundary values solve T v = phi_0 e_0, T unit lower
    # triangular with row k+1 reading v_{k+1} - x c_k v_k + d_k v_{k-1}.
    # Forward substitution with rounded coefficients gives
    # (T + dT) v^ = phi_0^ e_0 with |dT| <= 3 eps |T| (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 8.5), so
    #     |v - v^| <= |T^-1| (3 eps |T| |v^| + |phi_0 - phi_0^| e_0),
    # where exp(-x^2/2) inherits the relative error u x^2/2 of x^2.  An
    # underflow adds at most half a subnormal step: the seed's share is
    # carried by T^-1, the rest by a floor of the smallest normal number.
    eps = np.finfo(float).eps
    tiny = np.finfo(float).smallest_subnormal
    av = np.abs(v)
    G = np.zeros((K + 1, 2, K + 1))  # G[k, e, m] = (T^-1)[k, m] at end e
    G[np.arange(K + 1), :, np.arange(K + 1)] = 1.0
    G[1] += xc[0, :, None] * G[0]
    for k in range(1, K):
        G[k + 1] += xc[k, :, None] * G[k] - d[k] * G[k - 1]
    Tv = av.copy()
    Tv[1:] += np.abs(xc) * av[:-1]
    Tv[2:] += d[1:, None] * av[:-2]
    r = 3 * eps * Tv + tiny
    r[0] = eps * (x * x / 4 + 3) * av[0] + tiny
    rho = np.cumsum(np.abs(G) * r.T[None, :, :], axis=2)[..., -1]
    # phi_k' carries its terms' errors and 3 eps of their size; products of
    # perturbed factors obey |pq - p^q^| <= dp |q^| + (|p^| + dp) dq
    sig = (root[:K, None] * (np.concatenate([rho[:1] * 0, rho[:K - 1]]) + 3 * eps * np.abs(below))
           + root[1:, None] * (rho[1:] + 3 * eps * av[1:])) / math.sqrt(2.0)
    adv = np.abs(dv)
    S = (rho[:K, None, :] * adv[None, :, :] + (av[:K, None, :] + rho[:K, None, :]) * sig[None, :, :]
         + 2 * eps * av[:K, None, :] * adv[None, :, :]).sum(axis=2)
    errs = np.empty((K, K))
    errs[upper] = errs[lower] = (S[upper] + S[lower]) / np.abs(den) + eps * np.abs(vals[upper])
    err_B = (rho[:N] * av[1:K] + (av[:N] + rho[:N]) * rho[1:K]
             + 2 * eps * av[:N] * av[1:K]).sum(axis=1)
    err_seed = 4 * eps * (abs(F_lo) + abs(F_hi)) + eps * abs(seed)  # erf, erfc to 8 ulp
    err_step = c[:N] / 2 * err_B + 2 * eps * np.abs(step) + eps * np.abs(diag[1:])
    np.fill_diagonal(errs, err_seed + np.concatenate([[0.0], np.cumsum(err_step)]))
    return vals, errs + np.finfo(float).tiny


# straddling, far on either side, both signs of a + b, zero-length
MIXED_INTERVALS = [(-8.0097, 3.2986), (0.0, 40.0), (5.0, 40.0), (-40.0, -5.0), (-40.0, 40.0),
                   (-3.0, 1.5), (-1.5, 3.0), (-0.7, 0.7), (2.5, 2.5), (-2.5, -2.5), (0.0, 0.0)]


@pytest.mark.parametrize("N,extra", [(0, 4100), (1, 1900), (8, 200), (64, 0)])
def test_batched_tables_match_single_interval(N, extra, monkeypatch):
    rng = np.random.default_rng(N)
    ends = np.vstack([MIXED_INTERVALS, np.sort(rng.uniform(-12.0, 12.0, (extra, 2)), axis=1)])
    a, b = ends[:, 0], ends[:, 1]
    chunks = []
    whole = rg._pair_tables
    monkeypatch.setattr(rg, "_pair_tables",
                        lambda x, *args: chunks.append(len(x)) or whole(x, *args))
    vals, errs = rg.interval_pair_tables(a, b, N)
    assert len(chunks) > 1 and sum(chunks) == len(ends)
    for i in range(len(ends)):
        v, e = single_interval_tables(a[i], b[i], N)
        assert vals[i].tobytes() == v.tobytes() and errs[i].tobytes() == e.tobytes()
    # the integer tables at 272 bits, on the mixed intervals and 40 of the rest
    take = len(MIXED_INTERVALS) + min(extra, 40)
    with mpmath.workprec(272):
        tabs, exps = rg.interval_pair_tables(a[:take], b[:take], N, mpmath.mp)
        for i in range(take):
            (tab,), (e,) = rg.interval_pair_tables(a[i:i + 1], b[i:i + 1], N, mpmath.mp)
            assert exps[i] == e and tabs[i].tolist() == tab.tolist()


@pytest.mark.parametrize("N", [8, 64])
def test_integer_tables_within_two_units_of_mpf(N):
    # against the mpf closed forms at twice the bits, every entry of a table is
    # within 2 units of 2^-prec of that table's largest entry; the far-only
    # intervals sit at e^-32 and e^-12.5, and zero-length tables are exactly 0
    ends = MIXED_INTERVALS + [(8.0, 9.0), (-40.0, -5.0)]
    prec = 272
    with mpmath.workprec(prec):
        tabs, exps = rg.interval_pair_tables(*np.array(ends).T, N, mpmath.mp)
    with mpmath.workprec(2 * prec):
        for (a, b), tab, e in zip(ends, tabs, exps):
            ref = single_interval_tables(a, b, N, mpmath.mp)
            top = max(abs(r) for r in ref.flat)
            err = max(abs(mpmath.ldexp(t, e) - r) for t, r in zip(tab.flat, ref.flat))
            assert err <= 2 * mpmath.ldexp(top, -prec)


# ends of every size for the recurrence: 0, +-40, and ends the integer
# recurrence holds at 2^-W with fewer than 53 bits, or not at all (W = 336)
TINY_INTERVALS = [(1e-300, 1e-200), (-5e-324, 5e-324), (-1e-90, 1e-88), (0.0, 2.0**-300)]


@pytest.mark.parametrize("prec, N", [(272, 8), (272, 64), (1100, 8), (1100, 64)])
def test_integer_boundary_values_equal_the_rounded_mpf_recurrence(prec, N):
    # the recurrence in ints at phi_0's scale, rounded once per step and once
    # per end, gives the mpf recurrence's values rounded at 2^-s_i, bit for bit
    ends = np.array(MIXED_INTERVALS + TINY_INTERVALS)
    with mpmath.workprec(prec + 64):  # as interval_pair_tables runs at prec
        v, dv, seed, s, _ = rg._boundary(ends, N + 1, mpmath.mp, prec + 32)
        ref_v, ref_dv = boundary_values_mp(ends, N + 1, mpmath.mp)
    assert all(type(t) is int for t in itertools.chain(v.flat, dv.flat))
    assert v.tolist() == arith.rounded(ref_v, s[:, None]).tolist()
    assert dv.tolist() == arith.rounded(ref_dv, s[:, None]).tolist()
    assert not v[1::2, 10].any() and not dv[::2, 10].any()  # odd phi_k and even phi_k' vanish at 0


def test_integer_tables_take_o_of_m_mpf_operations(monkeypatch):
    # only phi_0, erf and erfc at the ends are mpf, and pi^(-1/4) is taken once:
    # the count of mpf operations does not grow with the degree
    calls = []
    mpf = type(mpmath.mp.mpf(1))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__", "__abs__"):
        real = getattr(mpf, name)
        monkeypatch.setattr(mpf, name, lambda *args, real=real: calls.append(1) or real(*args))
    for name in ("exp", "erf", "erfc", "sqrt", "frexp", "ldexp"):
        real = getattr(mpmath.mp, name)
        monkeypatch.setattr(mpmath.mp, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    ends = np.array(MIXED_INTERVALS)
    counts = []
    for N in (8, 64):
        with mpmath.workprec(272):
            rg.interval_pair_tables(*ends.T, N, mpmath.mp)
        counts.append(len(calls))
        calls.clear()
    assert counts[0] == counts[1] <= 20 * len(ends)


@pytest.mark.parametrize("prec", [53, 336, 1100])
def test_integer_root_constants_within_one_unit(prec):
    # sqrt(2 / (k + 1)), sqrt(k / (k + 1)) and sqrt(k) from integer square
    # roots, read at 2^-prec, lie below mpmath's roots at twice the bits by
    # less than 2^-prec
    ratios = [(2, k + 1) for k in range(65)] + [(k, k + 1) for k in range(65)] + [
        (k, 1) for k in range(66)]
    roots = rg._roots(ratios, prec)
    assert all(type(r) is int for r in roots)
    with mpmath.workprec(2 * prec):
        for (p, q), r in zip(ratios, roots):
            gap = mpmath.ldexp(mpmath.sqrt(mpmath.mpf(p) / q), prec) - r
            assert 0 <= gap < 1
    assert rg._roots(ratios, None).tolist() == [math.sqrt(p / q) for p, q in ratios]


class TestTruncateRadius:
    def test_monotone_in_cutoff(self):
        assert rg.truncate_radius(10, 1) < rg.truncate_radius(40, 1)

    def test_safety_one_value(self):
        # the radius is 1.5 times the quarter-mass radius c_n sqrt(N+1)
        from hermite_obs.estimates import tail_constant_cn

        for n in (1, 2, 3):
            c = tail_constant_cn(n).c
            for N in (0, 5, 20):
                assert rg.truncate_radius(N, n) == 1.5 * c * math.sqrt(N + 1.0)

    def test_doubling_safety_at_least_halves_majorant(self):
        from hermite_obs.estimates import tail_mass_rhs_log

        for N in (0, 5, 20):
            a = rg.truncate_radius(N, 1) / 1.5  # the quarter-mass radius
            assert tail_mass_rhs_log(1, N, 2 * a) <= tail_mass_rhs_log(1, N, a) - math.log(2.0)

    def test_cutoff_and_dimension_checked(self):
        for N, n in ((-1, 1), (5, 0)):
            with pytest.raises(ContractViolation):
                rg.truncate_radius(N, n)
