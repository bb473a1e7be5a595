import math
import warnings

import mpmath
import numpy as np
import pytest

from hermite_obs import arith, basis, estimates as est, gram, regions as rg
from hermite_obs.basis import ContractViolation
from oracles import thick_bound_log_mp


def halfline_region(N, extra=1.0):
    return rg.half_line(rg.truncate_radius(N, 1) + extra)


def to_mp(F):
    """The oracles' exact reading of a real Fx as an mpmath matrix."""
    return mpmath.matrix([[mpmath.ldexp(int(a), F.exp) for a in row] for row in F.re])


def per_box_reference(region, n, N):
    """Gram matrix and entry error box by box, with fresh tables per box.

    The bound of a product of perturbed factors, prod(|t| + e) - prod |t|,
    is accumulated axis by axis as U <- U (|t| + e) + |P| e, which is the
    same quantity without the cancellation of the difference.
    """
    idx = basis.multi_indices(n, N)
    axes = [np.ix_(*[np.array([a[j] for a in idx])] * 2) for j in range(n)]
    G = np.zeros((len(idx), len(idx)))
    E = np.zeros_like(G)
    for lo, hi in zip(region.lows, region.highs):
        P, U = np.ones_like(G), np.zeros_like(G)
        T, E_T = rg.interval_pair_tables(lo, hi, N)
        for j in range(n):
            t, e = T[j][axes[j]], E_T[j][axes[j]]
            U = U * (np.abs(t) + e) + np.abs(P) * e
            P = P * t
        G += P
        E += U
    return G, float(np.max(E)) + gram.truncation_entry_error(n, N, region.trunc_radius)


class TestGramAssembly:
    def test_full_space_identity(self):
        reg = rg.full_space(2, rg.truncate_radius(3, 2) + 1)
        G = gram.gram_matrix(reg, 3)
        assert np.max(np.abs(G.matrix - np.eye(G.size))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_empty_region_gives_zero_grams(self, n):
        reg = rg.Region([([], [])] * n, trunc_radius=rg.truncate_radius(4, n) + 1)
        G = gram.gram_matrix(reg, 4)
        assert not G.matrix.any() and not G.errors.any()
        with mpmath.workprec(272):
            Gm = gram.gram_matrix_mp(reg, 4)
        assert Gm.re.shape == G.matrix.shape and not Gm.re.any()

    def test_mpf_multiplications_grow_linearly(self, monkeypatch):
        # only the boundary values and their scalars are mpf: doubling N
        # about doubles the mpf products, where O(N^2) pairs would quadruple them
        mpf = type(mpmath.mpf(1))
        counts = []
        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(mpf, name, lambda x, y, f=getattr(mpf, name):
                                counts.append(1) or f(x, y))
        reg = rg.interval_region(-1.0, 1.0, trunc_radius=rg.truncate_radius(32, 1) + 1)
        sizes = []
        for N in (16, 32):
            counts.clear()
            with mpmath.workprec(272):
                gram.gram_matrix_mp(reg, N)
            sizes.append(len(counts))
        assert 0 < sizes[1] < 2.2 * sizes[0]

    def test_half_line_two_by_two(self):
        G = gram.gram_matrix(halfline_region(1), 1)
        want = np.array(
            [[0.5, 1 / math.sqrt(2 * math.pi)], [1 / math.sqrt(2 * math.pi), 0.5]]
        )
        assert np.max(np.abs(G.matrix - want)) < 1e-10

    def test_empty_region_zero_matrix(self):
        empty = rg.Region([(np.zeros(0), np.zeros(0))], trunc_radius=rg.truncate_radius(2, 1) + 1)
        G = gram.gram_matrix(empty, 2)
        assert np.all(G.matrix == 0.0)

    def test_symmetric(self):
        reg = rg.make_periodic_thick(1, 1.0, 0.5, rg.truncate_radius(6, 1) + 1)
        G = gram.gram_matrix(reg, 6)
        assert np.max(np.abs(G.matrix - G.matrix.T)) < 1e-14

    def test_radius_precondition(self):
        small = rg.half_line(3.0)
        with pytest.raises(ContractViolation) as err:
            gram.gram_matrix(small, 12)
        assert "radius" in str(err.value)

    def test_mp_matches_double(self):
        reg = rg.make_periodic_thick(1, 1.0, 0.5, rg.truncate_radius(4, 1) + 1)
        G = gram.gram_matrix(reg, 4)
        with mpmath.workprec(120):
            Gm = to_mp(gram.gram_matrix_mp(reg, 4))
            dev = max(
                abs(float(Gm[i, j]) - G.matrix[i, j])
                for i in range(G.size)
                for j in range(G.size)
            )
        assert dev < 1e-11


    @pytest.mark.parametrize("n,N,L,gamma", [(2, 5, 1.0, 0.5), (3, 3, 3.0, 0.4)])
    def test_grouped_assembly_matches_per_box_reference(self, n, N, L, gamma):
        # a product whose axes differ: periodic patterns of scale L, 2L, ...
        # and fractions gamma, gamma / 2, ..., the first with one more interval
        R = rg.truncate_radius(N, n) + 1
        axes = [rg.make_periodic_thick(1, L * (i + 1), gamma / (i + 1), R).axes[0]
                for i in range(n)]
        axes[0] = tuple(np.append(ends, R - e) for ends, e in zip(axes[0], (0.5, 0.25)))
        reg = rg.Region(axes, trunc_radius=R)
        assert len({len(lows) for lows, _ in reg.axes}) == n
        G = gram.gram_matrix(reg, N)
        want, want_err = per_box_reference(reg, n, N)
        assert np.max(np.abs(G.matrix - want)) < 1e-14
        assert G.entry_error == pytest.approx(want_err, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["periodic", "ball"])
    def test_1d_gram_is_the_ordered_sum_of_tables(self, kind):
        # the intervals' tables summed one after another, bit for bit; the
        # symmetric interval's odd-parity entries are -0.0 and must stay so
        R = rg.truncate_radius(16, 1) + 1
        reg = (rg.make_periodic_thick(1, 1.0, 0.5, R) if kind == "periodic"
               else rg.interval_region(-1.0, 1.0, trunc_radius=R))
        vals, errs = rg.interval_pair_tables(reg.lows[:, 0], reg.highs[:, 0], 16)
        G, E = vals[0], errs[0]
        for v, e in zip(vals[1:], errs[1:]):
            G, E = G + v, E + e
        got = gram.gram_matrix(reg, 16)
        assert got.matrix.tobytes() == G.tobytes()
        assert got.entry_error == float(np.max(E)) + gram.truncation_entry_error(1, 16, R)

    @pytest.mark.parametrize("n,N,build", [(1, 16, gram.gram_matrix), (2, 6, gram.gram_matrix),
                                           (2, 2, gram.gram_matrix_mp)])
    def test_one_table_call_per_gram(self, n, N, build, monkeypatch):
        calls = []
        tables = rg.interval_pair_tables
        monkeypatch.setattr(rg, "interval_pair_tables",
                            lambda *args: calls.append(args) or tables(*args))
        reg = rg.make_periodic_thick(n, 1.0, 0.5, rg.truncate_radius(N, n) + 1)
        with mpmath.workprec(272):
            build(reg, N)
        assert len(calls) == 1

    def test_mp_matches_double_2d(self):
        reg = rg.make_periodic_thick(2, 1.0, 0.5, rg.truncate_radius(6, 2) + 1)
        G = gram.gram_matrix(reg, 6)
        with mpmath.workprec(120):
            Gm = to_mp(gram.gram_matrix_mp(reg, 6))
            dev = max(
                abs(float(Gm[i, j]) - G.matrix[i, j])
                for i in range(G.size)
                for j in range(G.size)
            )
        assert dev < 1e-11


class TestSpectralConstant:
    def test_identity_gives_one(self):
        reg = rg.full_space(1, rg.truncate_radius(4, 1) + 1)
        res = gram.spectral_constant(gram.gram_matrix(reg, 4))
        assert res.c_value == pytest.approx(1.0, abs=1e-9)

    def test_half_line_closed_form(self):
        res = gram.spectral_constant(gram.gram_matrix(halfline_region(1), 1))
        lam = 0.5 - 1 / math.sqrt(2 * math.pi)
        assert res.lam_min == pytest.approx(lam, abs=1e-10)
        assert res.c_value == pytest.approx(lam ** -0.5, abs=1e-8)

    def test_even_block_half_mass(self):
        # even-degree block of the half-line Gram is exactly I/2, so the
        # spectral constant restricted to even expansions is sqrt(2)
        # (oracle: brute-force eigenvalues of the small block)
        G = gram.gram_matrix(halfline_region(4), 4)
        even = [i for i, a in enumerate(basis.multi_indices(1, 4)) if a[0] % 2 == 0]
        block = G.matrix[np.ix_(even, even)]
        lam = np.linalg.eigvalsh(block)
        assert np.max(np.abs(block - 0.5 * np.eye(len(even)))) < 1e-10
        assert lam[0] ** -0.5 == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_escalation_kicks_in(self):
        res = gram.spectral_constant(gram.gram_matrix(halfline_region(16), 16))
        assert res.precision_bits >= 256
        assert res.flag == "ok"
        assert res.lam_min < 1e-15

    def test_an_inf_entry_bound_does_not_resolve_in_doubles(self):
        # an overflowed table bound reads inf: the double level cannot clear
        # it, and the next precision rebuilds the Gram from its region
        G = gram.gram_matrix(halfline_region(4), 4)
        errors = G.errors.copy()
        errors[0, 0] = math.inf
        res = gram.spectral_constant(gram.GramOperator(G.n, G.N, G.matrix, errors, G.region))
        assert res.precision_bits > 53
        assert res == gram.spectral_constant(G, precision_bits=res.precision_bits)

    @pytest.mark.parametrize("spec", ["interval:-1e200:1e200", "periodic:1e300", "full:400"])
    def test_far_or_overflowed_tables_keep_an_honest_entry_error(self, spec):
        # ends past the double range of x^2 and, at N = 400, |T^-1| past the
        # double range of its bound: no NaN, no warning; the full line at
        # N = 400 resolves at 256 bits, not in doubles on a dropped NaN
        kind, *args = spec.split(":")
        N = int(args[0]) if kind == "full" else 2
        radius = rg.truncate_radius(N, 1) + 1.0  # as the command line truncates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind == "interval":
                reg = rg.interval_region(float(args[0]), float(args[1]), trunc_radius=radius)
            elif kind == "periodic":
                reg = rg.make_periodic_thick(1, float(args[0]), 0.5, radius)
            else:
                reg = rg.full_space(1, radius)
            G = gram.gram_matrix(reg, N)
            assert not np.isnan(G.errors).any()
            if kind == "full":
                assert G.entry_error == math.inf
                res = gram.spectral_constant(G)
                assert (res.precision_bits, res.flag) == (256, "ok")
            else:
                assert G.entry_error < 1e-14

    def test_precision_floor_reports_certified_lower_bound(self, monkeypatch):
        # cap the mantissa below what lambda_min needs: the result must be
        # flagged and must stay below the fully resolved constant
        R = rg.truncate_radius(48, 1) + 1
        ball = rg.interval_region(-1.0, 1.0, trunc_radius=R)
        G = gram.gram_matrix(ball, 48)
        monkeypatch.setattr(arith, "MAX_BITS", 256)
        capped = gram.spectral_constant(G, precision_bits=256)
        assert capped.flag == "singular_floor"
        monkeypatch.setattr(arith, "MAX_BITS", 1024)
        resolved = gram.spectral_constant(G, precision_bits=256)
        assert resolved.flag == "ok"
        assert capped.c_log <= resolved.c_log

    def test_failed_level_reads_no_top_eigenvalue(self, monkeypatch):
        # the ball at N = 48 fails to factor at 256 bits and resolves at 512:
        # lambda_max is read at 512 only, where the noise floor needs it
        R = rg.truncate_radius(48, 1) + 1
        G = gram.gram_matrix(rg.interval_region(-1.0, 1.0, trunc_radius=R), 48)
        monkeypatch.setattr(arith, "MAX_BITS", 1024)
        log = []
        lam_mins, eigh_top = arith.Mp.lam_mins, arith.Mp.eigh_top
        monkeypatch.setattr(arith.Mp, "lam_mins", lambda self, *a: (
            lambda lams: log.append(("lam_mins", self.bits, [lam is None for lam in lams]))
            or lams)(lam_mins(self, *a)))
        monkeypatch.setattr(arith.Mp, "eigh_top", lambda self, *a: log.append(
            ("eigh_top", self.bits)) or eigh_top(self, *a))
        res = gram.spectral_constant(G, precision_bits=256)
        assert (res.precision_bits, res.flag) == (512, "ok")
        assert log == [("lam_mins", 256, [True]), ("lam_mins", 512, [False]), ("eigh_top", 512)]

    @pytest.mark.parametrize("region, Ns, bits", [
        (halfline_region(32), [8, 16, 24, 32], [53, 256, 256, 256]),
        (rg.interval_region(-1.0, 1.0, trunc_radius=rg.truncate_radius(48, 1) + 1),
         [16, 32, 48], [256, 256, 512]),
    ])
    def test_study_equals_separate_constants(self, region, Ns, bits, monkeypatch):
        # one factor and one inverse per level serve every cutoff left: the
        # half-line resolves three cutoffs at 256 bits; the ball's 256-bit
        # factor stops at column 46 of 49, so 16 and 32 resolve there and 48
        # at 512.  Each row equals its own spectral_constant, bit for bit
        monkeypatch.setattr(arith, "MAX_BITS", 1024)
        calls = []
        factor = arith.Mp.factor
        monkeypatch.setattr(arith.Mp, "factor", lambda self, W: (
            lambda out: calls.append((self.bits, len(W.re), out[1])) or out)(factor(self, W)))
        study = gram.spectral_constants(gram.gram_matrix(region, Ns[-1]), Ns)
        assert [res.precision_bits for res in study] == bits
        assert [c[0] for c in calls] == sorted(set(bits) - {53})  # one factor per level
        if Ns[-1] == 48:
            assert calls[0] == (256, 49, 46)
        for N, res in zip(Ns, study):
            assert res == gram.spectral_constant(gram.gram_matrix(region, N))

    def test_monotone_in_region(self):
        R = rg.truncate_radius(6, 1) + 1
        small = rg.make_periodic_thick(1, 1.0, 0.3, R)
        big = rg.make_periodic_thick(1, 1.0, 0.6, R)
        c_small = gram.spectral_constant(gram.gram_matrix(small, 6)).c_value
        c_big = gram.spectral_constant(gram.gram_matrix(big, 6)).c_value
        assert c_small >= c_big

    def test_monotone_in_cutoff(self):
        reg = rg.make_periodic_thick(1, 1.0, 0.4, rg.truncate_radius(10, 1) + 1)
        cs = [
            gram.spectral_constant(gram.gram_matrix(reg, N)).c_value
            for N in (2, 5, 8, 10)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(cs, cs[1:]))

    def test_cutoffs_outside_the_gram_are_refused(self):
        G = gram.gram_matrix(halfline_region(6), 6)
        for N in (7, -1):
            with pytest.raises(ContractViolation):
                gram.spectral_constants(G, [2, N])

    @pytest.mark.parametrize("spec,n,cutoffs,levels", [
        ("halfline", 1, range(8, 33, 8), {53, 256}),
        ("ball:r=1", 1, range(8, 65, 8), {53, 256, 512}),
        ("halfspace:axis=0,c=1", 2, range(2, 15, 2), {53, 256}),
        ("periodic:L=1,gamma=0.5", 1, range(4, 33, 4), {53}),
        ("periodic:L=1,gamma=0.5", 2, range(0, 9), {53}),
        ("periodic:L=1,gamma=0.5", 3, range(0, 3), {53}),
        ("ball:r=1", 1, range(0, 41, 5), {53, 256}),
    ])
    def test_leading_blocks_match_their_own_grams(self, spec, n, cutoffs, levels):
        # every cutoff read from one Gram equals, bit for bit, the cutoff's own
        # Gram, rounding bounds and constant, N = 0 included; the ball's N=64
        # Gram does not factor at 256 bits
        from hermite_obs.cli import parse_region

        cutoffs = list(cutoffs)
        reg = parse_region(spec, n, cutoffs[-1])
        G = gram.gram_matrix(reg, cutoffs[-1])
        got = gram.spectral_constants(G, cutoffs)
        for N, res in zip(cutoffs, got):
            own = gram.gram_matrix(reg, N)
            block = G.leading(N)
            assert block.matrix.tobytes() == own.matrix.tobytes()
            assert block.errors.tobytes() == own.errors.tobytes()
            assert res == gram.spectral_constant(own)
        assert {res.precision_bits for res in got} == levels

    def test_rayleigh_consistency(self):
        reg = rg.make_periodic_thick(1, 1.0, 0.5, rg.truncate_radius(8, 1) + 1)
        G = gram.gram_matrix(reg, 8)
        res = gram.spectral_constant(G)
        rng = np.random.default_rng(4)
        for _ in range(50):
            c = rng.standard_normal(G.size) + 1j * rng.standard_normal(G.size)
            quad = float(np.real(np.conj(c) @ G.matrix @ c))
            ratio = float(np.vdot(c, c).real) / quad
            assert ratio <= res.c_value**2 * (1 + 1e-9)


class TestBounds:
    @pytest.mark.parametrize("n", [1, 5, 40, 99, 255])
    def test_weighted_factorial_sum_in_logs(self, n):
        # the log-sum-exp against the exact sum at 50 digits, given log(ratio);
        # the float sum overflowed from n = 99
        for ratio in (1e-40, 3e-3, 1.0, 1e30):
            with mpmath.workdps(50):
                exact = mpmath.log(mpmath.fsum(
                    mpmath.binomial(k + n - 1, n - 1) * mpmath.mpf(ratio) ** k
                    * mpmath.factorial(k) ** 2 for k in range(n + 1)))
            got = gram._log_sum_weighted_factorials(n, math.log(ratio))
            assert got == pytest.approx(float(exact), rel=1e-14, abs=1e-15)

    def test_thick_bound_past_the_double_range(self):
        # finite at n = 256, where n^(n/2) passed the double range; inf, with
        # no refusal, at n = 1000, where the weight term e (d_n L)^2 / 2 does,
        # and at L = 1e160
        assert math.isfinite(gram.theoretical_bound_log(gram.thick_params(256, 1.0, 0.5), 4))
        for far in (gram.thick_params(1000, 1.0, 0.5), gram.thick_params(1, 1e160, 0.5)):
            assert gram.theoretical_bound_log(far, 4) == gram.theoretical_bound(far, 4) == math.inf

    def test_thick_bound_against_the_50_digit_reference(self):
        # the closed form against the former formula at 50 digits: within
        # 1e-15, never NaN, and inf exactly where the reference passes the
        # double range
        Ns = (0, 4, 100)
        for n in (1, 2, 3, 7, 20, 59, 150, 254, 255, 256, 300):
            for L in (1e-300, 1e-150, 1e-3, 1.0, 10.0, 1e150, 1e300):
                for gamma in (1e-300, 1e-6, 0.5, 1.0):
                    with mpmath.workdps(50):
                        want = thick_bound_log_mp(n, L, gamma, Ns, mpmath.mp)
                    p = gram.thick_params(n, L, gamma)
                    for N, ref in zip(Ns, want):
                        got = gram.theoretical_bound_log(p, N)
                        if ref > 1.7976931348623157e308:
                            assert got == math.inf, (n, L, gamma, N)
                        else:
                            assert abs(got - ref) <= 1e-15 * abs(ref), (n, L, gamma, N, got)

    @pytest.mark.parametrize("n, L, gamma, N", [
        (1, 1e307, 0.5, 0),  # NaN: d_n L sqrt(0) was inf * 0
        (1, 1e-300, 0.5, 4),  # inf, as were the next two
        (255, 1.0, 0.5, 4),
        (250, 1.0, 1e-300, 4),
        (256, 1.0, 0.5, 4),  # refused
    ])
    def test_thick_bound_where_the_float_route_failed(self, n, L, gamma, N):
        # each within 2 ulps of the 50-digit reference, inf where it passes
        # the double range
        with mpmath.workdps(50):
            (ref,) = thick_bound_log_mp(n, L, gamma, [N], mpmath.mp)
        got = gram.theoretical_bound_log(gram.thick_params(n, L, gamma), N)
        if ref > 1.7976931348623157e308:
            assert got == math.inf
        else:
            assert abs(got - float(ref)) <= 2 * math.ulp(float(ref))

    def test_density_plugin_at_zero(self):
        # delta = 1 at N = 0: sqrt(2^6 / 9) e^{c_1^2 / 2}
        p = gram.density_params(1, 1.0)
        c1 = est.tail_constant_cn(1).c
        want = math.sqrt(2.0**6 / 9.0) * math.exp(c1 * c1 / 2.0)
        assert gram.theoretical_bound(p, 0) == pytest.approx(want, rel=1e-12)

    def test_thick_log_increment_affine_in_sqrt(self):
        # gamma = 1: the log bound grows by exactly theta * delta_1 * L *
        # (sqrt(16) - sqrt(4)) between N = 4 and N = 16
        p = gram.thick_params(1, 1.0, 1.0)
        theta = math.log(2 * gram.DEFAULT_C_KOV * 1.0 * 2.0) / math.log(2.0)
        d1 = 2 * math.sqrt(2**11 * 3)
        inc = gram.theoretical_bound_log(p, 16) - gram.theoretical_bound_log(p, 4)
        assert inc == pytest.approx(theta * d1 * (4.0 - 2.0), rel=1e-12)

    def test_open_bound_against_direct_reimplementation(self):
        # oracle: the fully explicit expression evaluated independently in
        # high-precision arithmetic
        p = gram.open_params((0.0,), 1.0)
        c1 = est.tail_constant_cn(1).c
        for N in (4, 10, 30):
            with mpmath.workdps(80):
                root = c1 * mpmath.sqrt(N + 1)
                assert root > 2 * 0 + 1
                term = (
                    root ** 0
                    * mpmath.mpf(2) ** (12 * N + 1 + 4)
                    / (3 * mpmath.mpf(1) ** (2 * N + 1))
                    * (root - mpmath.mpf
                       ("0.5")) ** (2 * N + 1)
                )
                want = float(
                    mpmath.log(2 / mpmath.sqrt(3))
                    + mpmath.mpf("0.5")
                    + mpmath.log(mpmath.sqrt(1 + term))
                )
            assert gram.theoretical_bound_log(p, N) == pytest.approx(want, rel=1e-12)

    def test_open_params_take_the_dimension_of_the_centre(self):
        # the 1-D ball's bound at N=8 is 49.77; stated in 2-D it would read 54.54
        assert gram.open_params((0.0,), 1.0).n == 1
        assert gram.open_params((0.0, 0.0, 0.0), 1.0).n == 3
        assert gram.theoretical_bound_log(gram.open_params((0.0,), 1.0), 8) == pytest.approx(
            49.76926414070671, rel=1e-12)

    @pytest.mark.parametrize("variant", ["open", "density", "thick"])
    def test_negative_cutoff_is_refused(self, variant):
        p = {"open": gram.open_params((0.0,), 1.0), "density": gram.density_params(1, 0.5),
             "thick": gram.thick_params(1, 1.0, 0.5)}[variant]
        for N in (-1, -3):
            for bound in (gram.theoretical_bound_log, gram.theoretical_bound):
                with pytest.raises(ContractViolation, match="cutoff N must be >= 0"):
                    bound(p, N)
        gram.theoretical_bound_log(p, 0)  # N = 0 is a cutoff: no refusal

    def test_open_bound_validity_flag(self):
        p = gram.open_params((30.0,), 0.5)
        assert gram.theoretical_bound_log(p, 0) is None

    def test_density_validity_flag(self):
        p = gram.density_params(1, 0.5, R0=50.0)
        assert gram.theoretical_bound_log(p, 0) is None
        assert gram.theoretical_bound_log(p, 700) is not None


class TestScalingStudy:
    def test_full_space_flat(self):
        reg = rg.full_space(1, rg.truncate_radius(12, 1) + 1)
        rep = gram.scaling_study(reg, [4, 6, 8, 10, 12])
        assert all(abs(r["C_log"]) < 1e-8 for r in rep.rows)

    def test_nondecreasing_and_dominated(self):
        R = rg.truncate_radius(16, 1) + 1
        reg = rg.make_periodic_thick(1, 1.0, 0.5, R)
        rep = gram.scaling_study(reg, [4, 8, 12, 16], bound=gram.thick_params(1, 1.0, 0.5))
        logs = [r["C_log"] for r in rep.rows]
        assert all(a <= b + 1e-12 for a, b in zip(logs, logs[1:]))
        assert rep.dominance_ok

    def test_cutoff_zero_is_fitted(self):
        # N log N is 0 at N = 0 and the exponent fit skips log N = -inf
        reg = rg.make_periodic_thick(2, 1.0, 0.5, rg.truncate_radius(4, 2) + 1)
        rep = gram.scaling_study(reg, [0, 1, 2, 3, 4])
        assert set(rep.fits) == set(gram.SCALING_MODELS)
        assert all(math.isfinite(fit["ssr"]) for fit in rep.fits.values())
        assert rep.rows[0]["C_log"] == gram.spectral_constant(gram.gram_matrix(reg, 0)).c_log

    def test_requires_increasing_cutoffs(self):
        reg = rg.full_space(1, rg.truncate_radius(8, 1) + 1)
        with pytest.raises(ContractViolation):
            gram.scaling_study(reg, [4, 4, 8])

    @pytest.mark.parametrize("spec,cutoffs,fixed_levels", [
        ("halfline", range(8, 33, 8), 1), ("ball:r=1", range(8, 65, 8), 2)])
    def test_one_gram_per_precision(self, spec, cutoffs, fixed_levels, monkeypatch):
        # one double Gram at the largest cutoff, then one fixed-point Gram per
        # precision level, whatever the number of cutoffs
        from hermite_obs.cli import parse_region

        cutoffs = list(cutoffs)
        calls = []
        assemble = gram._assemble
        monkeypatch.setattr(gram, "_assemble", lambda region, N, mp=None: calls.append(
            (N, None if mp is None else mp.prec)) or assemble(region, N, mp))
        rep = gram.scaling_study(parse_region(spec, 1, cutoffs[-1]), cutoffs)
        assert calls[0] == (cutoffs[-1], None)
        assert [prec for _, prec in calls[1:]] == [(256 << k) + 16 for k in range(fixed_levels)]
        assert max(r["precision_bits"] for r in rep.rows) == 256 << (fixed_levels - 1)

    @pytest.mark.parametrize("bound", [gram.thick_params(3, 1.0, 0.5), gram.density_params(2, 0.5),
                                       gram.open_params((0.0, 0.0), 1.0)], ids=["thick-3d",
                                       "density-2d", "open-2d"])
    def test_refuses_a_bound_of_another_dimension(self, bound, monkeypatch):
        # the region states the dimension; a bound stated in another is refused
        # before any Gram is built (a 3-D thick bound would read 4.4e7 at N=4
        # on the 1-D periodic set, against 3.8e5 for the 1-D one)
        monkeypatch.setattr(gram, "_assemble", None)
        reg = rg.make_periodic_thick(1, 1.0, 0.5, rg.truncate_radius(4, 1) + 1)
        with pytest.raises(ContractViolation, match="%d-D bound on a 1-D region" % bound.n):
            gram.scaling_study(reg, [4], bound=bound)

    def test_requires_cutoffs(self):
        reg = rg.full_space(1, rg.truncate_radius(8, 1) + 1)
        with pytest.raises(ContractViolation):
            gram.scaling_study(reg, [])

    def test_csv_rows_schema(self):
        reg = rg.full_space(1, rg.truncate_radius(6, 1) + 1)
        rep = gram.scaling_study(reg, [2, 4, 6])
        header, rows = rep.csv_rows()
        assert header == ["N", "dim", "C_measured", "lambda_min", "bound",
                          "bound_variant", "precision_bits"]
        assert len(rows) == 3 and rows[0][0] == 2
