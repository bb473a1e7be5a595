import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from hermite_obs import arith, basis, cli, control as ct, gram, quadratic as qd, regions as rg
from hermite_obs.basis import ContractViolation
from oracles import harmonic_full_space_ct


def harmonic_problem(N, piomega=None):
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    P = np.eye(A.size) if piomega is None else piomega
    return ct.ControlProblem(A, P)


def thick_gram(N, gamma=0.6, L=1.0):
    reg = rg.make_periodic_thick(1, L, gamma, rg.truncate_radius(N, 1) + 1)
    return gram.gram_matrix(reg, N).matrix


def half_plane_gram(N):
    reg = rg.half_space(2, 0, 0.3, rg.truncate_radius(N, 2) + 1)
    return gram.gram_matrix(reg, N).matrix


def to_mp(F):
    """The oracles' exact reading of an Fx as an mpmath matrix."""
    im = np.zeros_like(F.re) if F.im is None else F.im
    return mpmath.matrix([[mpmath.mpc(mpmath.ldexp(int(a), F.exp), mpmath.ldexp(int(b), F.exp))
                           for a, b in zip(*rows)] for rows in zip(F.re, im)])


def lyapunov_oracle(A, Q, T):
    """Bartels-Stewart: W solves A W + W A^H = Q - E Q E^H with E = e^{-TA}."""
    E = scipy.linalg.expm(-T * A)
    return scipy.linalg.solve_continuous_lyapunov(A, Q - E @ Q @ E.conj().T), E


def gramian_cases():
    # (generator, Hermitian Q, horizon): non-normal KFP and level-diagonal harmonic
    kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 6).matrix
    P_kfp = half_plane_gram(6).astype(complex)
    harm = qd.weyl_quantize(qd.harmonic_symbol(1), 12).matrix
    P_harm = thick_gram(12).astype(complex)
    return [(kfp, P_kfp, 1.0), (kfp, P_kfp @ P_kfp, 0.3), (harm, P_harm, 1.0),
            (harm, P_harm @ P_harm, 0.125)]


class TestGramian:
    def test_lyapunov_identity(self):
        # d/dt e^{-tA} Q e^{-tA^H} integrates to A W + W A^H = Q - E Q E^H
        for A, Q, T in gramian_cases():
            _, W, E, steps, _ = arith.taylor(arith.DOUBLE, A, T, Q=Q)
            lhs = A @ W + W @ A.conj().T
            assert np.linalg.norm(lhs - (Q - E @ Q @ E.conj().T)) <= 1e-12 * np.linalg.norm(Q)
            # the step h = T / steps is the longest power-of-two split of T
            # with h ||A||_1 <= 1
            norm1 = np.abs(A).sum(axis=0).max()
            assert T * norm1 <= steps and (steps == 1 or T * norm1 > steps / 2)

    def test_matches_bartels_stewart(self):
        for A, Q, T in gramian_cases():
            _, W, E, _, _ = arith.taylor(arith.DOUBLE, A, T, Q=Q)
            W_bs, E_ref = lyapunov_oracle(A, Q, T)
            assert np.linalg.norm(W - W_bs) <= 1e-12 * np.linalg.norm(W_bs)
            assert np.linalg.norm(E - E_ref) <= 1e-12 * np.linalg.norm(E_ref)
            assert np.array_equal(W, W.conj().T)

    def test_mp_matches_double(self):
        kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 3).matrix
        P = half_plane_gram(3).astype(complex)
        _, W, _, steps, _ = arith.taylor(arith.DOUBLE, kfp, 0.5, Q=P)
        ar = arith.Mp(256)
        with mpmath.workprec(ar.bits + 16):
            _, W_mp, _, steps_mp, _ = arith.taylor(ar, kfp, 0.5, Q=ar.from_np(P))
            W_mp = ar.to_np(W_mp)
        assert steps_mp == steps
        assert np.linalg.norm(W_mp - W) <= 1e-12 * np.linalg.norm(W_mp)


class TestTaylorTable:
    """The one Taylor table against independent matrix exponentials."""

    @pytest.mark.parametrize("bits", [256, 512])
    @pytest.mark.parametrize("case", ["harmonic-7", "kfp-4"])
    def test_matches_mp_expm(self, bits, case):
        # E(h), the eight grid offsets e^{-c h A} and W = V E^H built from the
        # Van Loan block V, against mp.expm of the block and of each -c h A
        if case == "harmonic-7":
            A, P = qd.weyl_quantize(qd.harmonic_symbol(1), 7).matrix, thick_gram(7)
        else:
            A, P = qd.weyl_quantize(qd.kfp_symbol(1.0), 4).matrix, half_plane_gram(4)
        d, ar = A.shape[0], arith.Mp(bits)
        T = 1.0 / float(np.abs(A).sum(axis=0).max())
        tol = mpmath.mpf(2) ** -(bits - 16)
        with mpmath.workprec(bits + 16):
            x, _ = ar.gauss(ct.GRID_ORDER)
            Q = ar.from_np(P) @ ar.from_np(P)
            props, W, E, steps, m = arith.taylor(ar, A, T, x, Q)
            h = T / steps
            A_mp, Z = mpmath.matrix(A), mpmath.matrix(2 * d)
            Z[:d, :d], Z[:d, d:], Z[d:, d:] = A_mp * -h, to_mp(Q) * h, A_mp.H * h
            F = mpmath.expm(Z)
            refs = [F[:d, :d]] + [mpmath.expm(A_mp * (-h * (xi + 1) / 2)) for xi in x]
            ref_W = F[:d, d:] * F[:d, :d].H

            def err(got, ref):
                return mpmath.mnorm(to_mp(got) - ref, 1) / mpmath.mnorm(ref, 1)

            assert steps == 1 and m > 50
            assert err(E, refs[0]) <= tol
            assert all(err(got, ref) <= tol for got, ref in zip(props, refs))
            assert err(W, (ref_W + ref_W.H) / 2) <= tol

    @pytest.mark.parametrize("case, T", [pytest.param("kfp-6", T, id=str(T)) for T in (0.01, 1.0, 5.0)]
                             + [(case, T) for case in ("kfp-8", "harmonic-24") for T in (0.05, 0.8, 1.6)])
    def test_double_matches_scipy(self, case, T):
        # without Q the propagators at T ||A||_1 > 1 come from the table of
        # B / 2^k, squared k times; kfp-8 (dim 45) and harmonic-24 (dim 25)
        # are the semigroup and staircase generators that evolve and
        # lr_staircase exponentiate
        sym = qd.harmonic_symbol(1) if case.startswith("harmonic") else qd.kfp_symbol(1.0)
        A = qd.weyl_quantize(sym, int(case.split("-")[1])).matrix
        x, _ = arith.DOUBLE.gauss(ct.GRID_ORDER)
        props, W, E, steps, m = arith.taylor(arith.DOUBLE, A, T, x)
        assert W is None and (steps > 1) == (T * np.abs(A).sum(axis=0).max() > 1)
        for c, got in zip([1] + [(xi + 1) / 2 for xi in x], props):
            ref = scipy.linalg.expm(-c * T * A)
            assert np.linalg.norm(got - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)
        assert np.array_equal(E, props[0])


class TestObservability:
    def test_full_space_closed_form(self):
        # oracle: per-eigenvalue scalar constants, worst mode wins
        prob = harmonic_problem(8)
        rep = ct.observability_constant(prob, 1.0)
        want = harmonic_full_space_ct(1, 8, 1.0)
        assert rep.c_value == pytest.approx(want, rel=1e-6)
        assert rep.flag == "ok"

    def test_monotone_nonincreasing_in_horizon(self):
        P = thick_gram(8)
        vals = [
            ct.observability_constant(harmonic_problem(8, P), T).c_value
            for T in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_monotone_under_region_shrink(self):
        N = 6
        R = rg.truncate_radius(N, 1) + 1
        big = gram.gram_matrix(rg.make_periodic_thick(1, 1.0, 0.7, R), N).matrix
        small = gram.gram_matrix(rg.make_periodic_thick(1, 1.0, 0.35, R), N).matrix
        c_big = ct.observability_constant(harmonic_problem(N, big), 1.0).c_value
        c_small = ct.observability_constant(harmonic_problem(N, small), 1.0).c_value
        assert c_small >= c_big

    def test_rayleigh_probes_below_constant(self):
        N = 8
        P = thick_gram(N)
        prob = harmonic_problem(N, P)
        rep = ct.observability_constant(prob, 1.0)
        W, E = lyapunov_oracle(prob.A.matrix, P.astype(complex), 1.0)
        M = E @ E.conj().T
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.standard_normal(prob.A.size) + 1j * rng.standard_normal(prob.A.size)
            ratio = float(np.real(np.vdot(g, M @ g)) / np.real(np.vdot(g, W @ g)))
            assert ratio <= rep.c_value * (1 + 1e-8)

    def test_extremal_datum_achieves_constant(self):
        N = 8
        P = thick_gram(N)
        prob = harmonic_problem(N, P)
        rep = ct.observability_constant(prob, 1.0)
        W, E = lyapunov_oracle(prob.A.matrix, P.astype(complex), 1.0)
        M = E @ E.conj().T
        g = rep.extremal.coeffs
        ratio = float(np.real(np.vdot(g, M @ g)) / np.real(np.vdot(g, W @ g)))
        assert ratio == pytest.approx(rep.c_value, rel=1e-8)

    def test_mp_path_matches_double(self):
        prob = harmonic_problem(6, thick_gram(6))
        a = ct.observability_constant(prob, 0.8)
        b = ct.observability_constant(prob, 0.8, precision_bits=256)
        assert b.precision_bits >= 256
        assert b.subintervals == a.subintervals and b.taylor_degree > a.taylor_degree > 0
        assert a.c_value == pytest.approx(b.c_value, rel=1e-9)

    def test_singular_floor_is_a_certified_lower_bound(self, monkeypatch):
        # the ball N=32 coupling arrives as the double Gram, indefinite at
        # rounding level (lambda_min -6.6e-16 against a true 3.6e-54): no
        # precision makes W positive definite, and the ridge must cover the
        # error W inherits from P for the floor to factor
        monkeypatch.setattr(arith, "MAX_BITS", 256)
        N, T = 32, 0.5
        R = rg.truncate_radius(N, 1) + 1
        G = gram.gram_matrix(rg.interval_region(-1.0, 1.0, trunc_radius=R), N)
        assert np.linalg.eigvalsh(G.matrix)[0] < 0
        rep = ct.observability_constant(harmonic_problem(N, G.matrix), T)
        assert rep.flag == "singular_floor" and rep.precision_bits == 256
        assert math.isfinite(rep.c_log) and rep.extremal is None
        # accretive flow: C_T <= 1 / (T lambda_min(P)) = C_N(w)^2 / T
        assert rep.c_log <= 2 * gram.spectral_constant(G).c_log - math.log(T)


def test_mpmath_precision_is_scoped():
    # each escalation runs under mp.workprec: the caller's precision comes
    # back unchanged, whatever it was
    with mpmath.workprec(80):
        reg = rg.half_line(rg.truncate_radius(16, 1) + 1.0)
        res = gram.spectral_constant(gram.gram_matrix(reg, 16))
        assert res.precision_bits >= 256 and mpmath.mp.prec == 80
        rep = ct.observability_constant(harmonic_problem(4, thick_gram(4)), 0.8, 256)
        assert rep.precision_bits == 256 and mpmath.mp.prec == 80
        ctl = ct.hum_control(harmonic_problem(4), 1.0, basis.unit_expansion(1, 4, (0,)), 256)
        assert ctl.precision_bits == 256 and mpmath.mp.prec == 80


def test_observability_escalation_ends_at_the_ceiling(monkeypatch):
    # a 1e-20 interval's P is rounding noise, so W never factors: from 300
    # bits under a 512-bit ceiling the pencil runs at 300, then 512, not 600
    monkeypatch.setattr(arith, "MAX_BITS", 512)
    tables = []
    taylor = arith.taylor
    monkeypatch.setattr(arith, "taylor", lambda ar, *a, **kw: tables.append(ar.bits)
                        or taylor(ar, *a, **kw))
    R = rg.truncate_radius(4, 1) + 1
    P = gram.gram_matrix(rg.interval_region(0.0, 1e-20, trunc_radius=R), 4).matrix
    rep = ct.observability_constant(harmonic_problem(4, P), 1.0, 300)
    assert tables == [300, 512] and (rep.precision_bits, rep.flag) == (512, "singular_floor")


def test_precision_above_the_ceiling_is_refused_before_any_work(monkeypatch):
    # one shared check: the fixed-point cost grows about tenfold per doubling
    monkeypatch.setattr(arith, "MAX_BITS", 256)
    monkeypatch.setattr(arith, "taylor", None)  # no Taylor table is started
    prob = harmonic_problem(2)
    G = gram.gram_matrix(rg.half_line(rg.truncate_radius(2, 1) + 1.0), 2)
    for call in (lambda: ct.observability_constant(prob, 1.0, 512),
                 lambda: ct.hum_control(prob, 1.0, basis.unit_expansion(1, 2, (0,)), 512),
                 lambda: ct.cost_blowup_study(prob, [1.0], 512),
                 lambda: gram.spectral_constant(G, precision_bits=512)):
        with pytest.raises(ContractViolation, match="above arith.MAX_BITS = 256"):
            call()


@pytest.mark.parametrize("bad", ["P nan", "P inf", "T nan", "T inf"])
def test_non_finite_coupling_or_horizon_is_refused_before_any_work(monkeypatch, bad):
    # NaN slips through the Hermitian check (every comparison with it is
    # false), and LAPACK then fails to converge; a NaN horizon passed T > 0
    monkeypatch.setattr(arith, "taylor", None)  # no Taylor table is started
    A = qd.weyl_quantize(qd.harmonic_symbol(1), 4)
    P, T = np.eye(A.size), 1.0
    what, value = bad.split()
    if what == "P":
        P[1, 1] = float(value)
    else:
        T = float(value)
    with pytest.raises(ContractViolation, match="finite"):  # the problem refuses P, the study T
        ct.cost_blowup_study(ct.ControlProblem(A, P), [T])


class TestHumControl:
    def test_one_cholesky_factor_per_fixed_point_solve(self, monkeypatch):
        # cond(W) and the solve share W's factor, so the artifact is the same
        # as with one factorization each
        factors = []
        cholesky = arith.Mp.cholesky
        monkeypatch.setattr(arith.Mp, "cholesky",
                            lambda self, W: factors.append(1) or cholesky(self, W))
        N = 6
        prob = harmonic_problem(N, thick_gram(N))
        f0 = basis.random_expansion(1, N, np.random.default_rng(17))
        res = ct.hum_control(prob, 1.0, f0, 256)
        assert res.flag == "ok" and res.residual <= 1e-15
        assert factors == [1]

    def test_zero_initial_state(self):
        prob = harmonic_problem(6)
        f0 = basis.HermiteExpansion(1, 6, np.zeros(7))
        res = ct.hum_control(prob, 1.0, f0)
        assert res.cost == 0.0 and res.residual == 0.0
        # no Gramian is built, and the precision is the one a nonzero state gets
        assert math.isnan(res.gramian_cond) and res.precision_bits == 53
        nonzero = basis.unit_expansion(1, 6, (0,))
        for bits in (100, 300):
            want = ct.hum_control(prob, 1.0, nonzero, bits).precision_bits
            res = ct.hum_control(prob, 1.0, f0, bits)
            assert res.precision_bits == want == max(bits, 256)
            assert math.isnan(res.gramian_cond)

    def test_full_space_single_mode(self):
        prob = harmonic_problem(8)
        res = ct.hum_control(prob, 1.0, basis.unit_expansion(1, 8, (0,)))
        want = 2 * 1 * math.exp(-2) / (1 - math.exp(-2))
        assert res.residual <= 1e-10
        assert res.cost == pytest.approx(want, rel=1e-6)

    def test_full_space_duality_random(self):
        prob = harmonic_problem(8)
        rng = np.random.default_rng(12)
        f0 = basis.random_expansion(1, 8, rng)
        res = ct.hum_control(prob, 1.0, f0)
        lam = 2 * basis.index_levels(1, 8) + 1
        want = float(
            sum(
                abs(f0.coeffs[i]) ** 2
                * 2 * lam[i] * math.exp(-2 * lam[i]) / (1 - math.exp(-2 * lam[i]))
                for i in range(len(lam))
            )
        )
        assert res.cost == pytest.approx(want, rel=1e-6)
        assert res.residual <= 1e-10

    def test_thick_region_double_precision(self):
        N = 10
        prob = harmonic_problem(N, thick_gram(N))
        rng = np.random.default_rng(13)
        f0 = basis.random_expansion(1, N, rng)
        res = ct.hum_control(prob, 1.0, f0)
        assert res.flag == "ok"
        assert res.residual <= 1e-8

    def test_cost_never_increases_with_region(self):
        # duality side: C_T ordering transfers to the per-target cost bound;
        # check the synthesized costs on nested regions directly
        N = 8
        R = rg.truncate_radius(N, 1) + 1
        small = rg.make_periodic_thick(1, 1.0, 0.35, R)
        ((lows, highs),) = small.axes
        big = rg.Region([(np.concatenate([lows, highs]), np.concatenate([highs, highs + 0.25]))],
                        trunc_radius=R)
        P_small = gram.gram_matrix(small, N).matrix
        P_big = gram.gram_matrix(big, N).matrix
        rng = np.random.default_rng(14)
        f0 = basis.random_expansion(1, N, rng)
        c_small = ct.hum_control(harmonic_problem(N, P_small), 1.0, f0).cost
        c_big = ct.hum_control(harmonic_problem(N, P_big), 1.0, f0).cost
        assert c_big <= c_small * (1 + 1e-9)

    def test_mp_path_matches_double(self):
        # the 256-bit residual sits at the control grid's quadrature error,
        # far below double rounding; the cost agrees with double precision
        N = 6
        prob = harmonic_problem(N, thick_gram(N))
        f0 = basis.random_expansion(1, N, np.random.default_rng(17))
        a = ct.hum_control(prob, 1.0, f0)
        b = ct.hum_control(prob, 1.0, f0, precision_bits=256)
        assert b.precision_bits == 256 and b.flag == "ok"
        assert b.subintervals == a.subintervals
        assert b.taylor_degree > a.taylor_degree > 0
        assert b.residual <= 1e-15
        assert b.cost == pytest.approx(a.cost, rel=1e-10)
        assert b.times == pytest.approx(a.times, rel=1e-15)
        assert a.controls.shape == b.controls.shape == (len(a.times), N + 1)
        assert all(np.allclose(u, v, rtol=1e-9, atol=1e-12)
                   for u, v in zip(a.controls, b.controls))

    def test_mp_singular_gramian_is_flagged(self):
        # a coupling that sees one mode only: W is singular, so the factor
        # fails and a ridged solve steers that mode, flagged
        P = np.zeros((7, 7))
        P[0, 0] = 1.0
        res = ct.hum_control(harmonic_problem(6, P), 1.0, basis.unit_expansion(1, 6, (0,)), 256)
        assert res.flag == "ill_conditioned" and res.gramian_cond == float("inf")
        assert res.residual <= 1e-30 and res.cost > 0

    def test_state_space_mismatch(self):
        prob = harmonic_problem(6)
        with pytest.raises(ContractViolation):
            ct.hum_control(prob, 1.0, basis.unit_expansion(1, 5, (0,)))

    @pytest.mark.parametrize("T, bits", [(1e-300, 53), (1e-200, 53), (1e-160, 256)])
    def test_cost_past_the_double_range_is_flagged(self, T, bits):
        # at T -> 0 the control grows like 1/T and sum w ||u||^2 like 1/T: its
        # norm, or the norm's square, passes the double range.  The cost is inf,
        # flagged, with no warning; the residual is still re-simulated
        f0 = basis.unit_expansion(1, 4, (0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = ct.hum_control(harmonic_problem(4), T, f0, bits)
            stair = ct.lr_staircase(harmonic_problem(4), T, f0, precision_bits=bits)
        assert (res.cost, res.flag) == (math.inf, "cost_not_finite")
        assert res.residual < 1e-3 and np.isfinite(res.controls).all()
        assert (stair.total_cost, stair.flag) == (math.inf, "cost_not_finite")
        ok = ct.hum_control(harmonic_problem(4), 1e-3, f0)
        assert ok.flag == "ok" and math.isfinite(ok.cost)


def per_node_hum(ar, A, P, f, T, grid):
    """HUM on the whole space with one mat-vec per grid node and step, on
    either backend: the loop that the stacked products replaced, kept as
    their reference."""
    x, w = grid
    props, W, E_T, steps, _ = arith.taylor(ar, A, T, x, P @ P)
    lam = ar.solve(W, -(E_T @ f))
    h = T / steps
    offsets, weights = [h * (xi + 1) / 2 for xi in x], [h * wi / 2 for wi in w]
    E_h, *ctl = props
    out, back = [P @ ar.adj(E) for E in ctl], [(E @ P) * wt for wt, E in zip(weights, ctl)]
    times, samples, cost, pieces, v = [], [], 0.0, [], lam
    for j in range(steps):
        piece = None
        for o, wt, U, B in zip(offsets, weights, out, back):
            u = U @ v
            times.append(float(T - (j * h + o)))
            samples.append(ar.to_np(u))
            cost += float(wt) * ar.norm(u) ** 2
            piece = B @ u if piece is None else piece + B @ u
        pieces.append(piece)
        v = ar.adj(E_h) @ v
    forced = pieces.pop()
    while pieces:
        forced = pieces.pop() + E_h @ forced
    return times[::-1], samples[::-1], cost, E_T @ f + forced, lam


def forced_on_absolute_values(plan, lam):
    """||sum_j |e^{-hA}|^j sum_o |back_o| |out_o| |v_j|||: the forced
    response of a double-precision HUM plan summed on the absolute values of
    its factors, v_j = e^{-jhA^H} lam as HUM steps it."""
    vs = [lam]
    while len(vs) < plan.steps:
        vs.append(plan.E_ctl_H @ vs[-1])
    V = np.abs(np.column_stack(vs))
    S = sum(np.abs(B) @ (np.abs(U) @ V) for B, U in zip(plan.back, plan.out))
    total = S[:, -1]
    for j in reversed(range(plan.steps - 1)):
        total = S[:, j] + np.abs(plan.E_sim) @ total
    return np.linalg.norm(total)


def cost_on_absolute_values(plan, lam):
    """sum_o w_o || |out_o| |V| ||_F^2: the cost of a double-precision HUM
    plan from the absolute values of its samples' factors, the columns of V
    v_j = e^{-jhA^H} lam as HUM steps them."""
    vs = [lam]
    while len(vs) < plan.steps:
        vs.append(plan.E_ctl_H @ vs[-1])
    V = np.abs(np.column_stack(vs))
    return sum(wt * np.linalg.norm(np.abs(U) @ V) ** 2 for wt, U in zip(plan.weights, plan.out))


@pytest.mark.parametrize("case", ["harmonic-6", "kfp-4", "harmonic-6:double", "kfp-4:double"])
def test_stacked_hum_equals_the_per_node_loop(case):
    # one product per grid node over all steps sums in another order than the
    # mat-vecs, and in fixed point rounds the stacked columns once, at the
    # finest exponent: the samples agree to the backend's unit (1e-14 in
    # double, 2^-bits in fixed point) against ||P|| ||lam|| (e^{-sA^H} is a
    # contraction), the fixed-point state to 2^-bits against ||f0|| + ||P||
    # sqrt(T cost), which bounds ||E_T f0|| plus sum w ||e^{-sA} P u(s)||.
    # KFP's lam is of order 1e5: its samples and forced response cancel by
    # two to three orders.
    # The cost sum_o w_o sum_j ||u_oj||^2 is a float sum in both backends:
    # G steps squared norms of length-d samples.  On one side a term w |u_i|^2
    # meets at most 2d roundings in its norm's sum of squares (2d steps on
    # the stacked side, one norm per offset), three in the root, the square
    # and the weight, and G steps in the sum over the grid nodes (G on the
    # stacked side): m_s = 2d steps + G steps + 3.  In double each sample
    # entry also errs by gamma_2d a_i in its real and imaginary parts, a =
    # |out_o| |v_j|, so |u_i|^2 by at most 3 gamma_2d a_i^2 <= gamma_6d a_i^2.
    # With C_abs = sum_o w_o || |out_o| |V| ||_F^2 >= cost, each side is
    # within gamma_{m_s + 6d} C_abs of the exact cost, the two sides within
    # twice that.  In fixed point the norms are exact to 2^-bits before their
    # rounding to double: m = G steps + 3 against the cost itself.
    # In double both sides add the same terms of the forced response from
    # the same stored factors (e^{-TA} f0 is one identical mat-vec), only in
    # other orders.  A complex inner product of length d rounds as 2d real
    # terms, so a term meets at most m = 2d (the sample out_o v_j)
    # + 2d (back_o times it) + G - 1 (the G grid offsets)
    # + (steps - 1)(2d + 1) (Horner's S_j + e^{-hA} forced) roundings.
    # Each side then differs from the exact sum by at most
    # gamma_m = m u / (1 - m u), u = 2^-53, times the sum of the terms'
    # absolute values (Higham, Accuracy and Stability, section 3.1), and
    # the two sides by at most twice that.
    name, _, double = case.partition(":")
    if name == "harmonic-6":
        A, P, T = qd.weyl_quantize(qd.harmonic_symbol(1), 6).matrix, thick_gram(6), 1.0
    else:
        A, P, T = qd.weyl_quantize(qd.kfp_symbol(1.0), 4).matrix, half_plane_gram(4), 0.5
    f0 = basis.random_expansion(1 if name == "harmonic-6" else 2, int(name[-1]),
                                np.random.default_rng(19)).coeffs
    ar = arith.DOUBLE if double else arith.Mp(256)
    with mpmath.workprec(ar.bits + 16):
        grid = ar.gauss(ct.GRID_ORDER)
        P_, f = ar.from_np(P), ar.from_np(f0)
        plan = ct._plan(ar, A, P_, len(A), T)
        flag, us, cost, state = ct._hum(ar, plan, f)
        samples = np.concatenate([ar.to_np(U) for U in us]).T.reshape(-1, plan.d)[::-1]
        times, steps = list(plan.times), plan.steps
        want = per_node_hum(ar, A, P_, f, T, grid)
        gap = ar.norm(state - want[3])
    unit_sample = 1e-14 if double else 2.0 ** -ar.bits
    assert flag == "ok" and steps > 1
    d, u, G = len(A), 2.0 ** -53, ct.GRID_ORDER
    m = G * steps + 3 + (2 * d * steps + 6 * d if double else 0)
    sized = cost_on_absolute_values(plan, want[4]) if double else want[2]
    assert times == want[0] and abs(cost - want[2]) <= 2 * m * u / (1 - m * u) * sized
    loop, size_P = np.array(want[1]), np.linalg.norm(P, 2)
    assert samples.shape == loop.shape == (len(times), len(A))
    assert np.abs(samples - loop).max() <= unit_sample * size_P * ar.norm(want[4])
    if double:
        m = 4 * d + G - 1 + (steps - 1) * (2 * d + 1)
        bound = 2 * m * u / (1 - m * u) * forced_on_absolute_values(plan, want[4])
    else:
        bound = 2.0 ** -ar.bits * (np.linalg.norm(f0) + size_P * math.sqrt(T * cost))
    assert gap <= bound


@pytest.mark.parametrize("ar", [arith.DOUBLE, arith.Mp(256)], ids=["double", "fixed"])
def test_hum_norms_do_not_grow_with_the_steps(ar, monkeypatch):
    # HUM reduces each grid offset's samples at every step at once, in both
    # backends: one norm per offset and one for the residual, whatever 2^k is
    calls = []
    norm = type(ar).norm
    monkeypatch.setattr(type(ar), "norm", lambda self, v: calls.append(1) or norm(self, v))
    counts = {}
    for T in (1.0, 2.0):
        res = ct.hum_control(harmonic_problem(8), T, basis.unit_expansion(1, 8, (0,)), ar.bits)
        counts[res.subintervals] = len(calls)
        calls.clear()
    assert len(counts) == 2 and len(set(counts.values())) == 1


class TestStaircase:
    def test_single_mode_one_stage(self):
        prob = harmonic_problem(12)
        res = ct.lr_staircase(prob, 1.0, basis.unit_expansion(1, 12, (0,)), target=1e-10)
        assert len(res.stages) == 1
        assert res.residual <= 1e-10

    def test_thick_region_geometric_decay(self):
        N = 14
        prob = harmonic_problem(N, thick_gram(N))
        rng = np.random.default_rng(15)
        f0 = basis.random_expansion(1, N, rng)
        res = ct.lr_staircase(prob, 1.0, f0, target=1e-8)
        energies = [s["energy_after"] for s in res.stages]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert res.residual <= 1e-4
        assert res.flag == "ok"

    def test_stage_is_hum_on_the_leading_block(self):
        # stage 0 steers E_{k_0} over the first quarter of [0, T] by the HUM
        # core: its cost is hum_control's on the compressed problem, bit for bit
        N, T = 12, 1.0
        prob = harmonic_problem(N, thick_gram(N))
        f0 = basis.random_expansion(1, N, np.random.default_rng(16))
        stage = ct.lr_staircase(prob, T, f0).stages[0]
        k = stage["k_j"]
        d = basis.space_dimension(1, k)
        A_d = qd.GalerkinOperator(1, k, prob.A.matrix[:d, :d], prob.A.symbol)
        hum = ct.hum_control(ct.ControlProblem(A_d, prob.piomega[:d, :d]), T / 4,
                             basis.HermiteExpansion(1, k, f0.coeffs[:d]))
        assert (d, hum.flag) == (3, "ok")
        assert stage["stage_cost"] == hum.cost

    def test_one_conditioning_rule(self, monkeypatch):
        # stage 0's Gramian has condition number 2.15: a ceiling below it
        # flags that stage and the double-precision HUM by the same test
        N = 12
        prob = harmonic_problem(N, thick_gram(N))
        f0 = basis.random_expansion(1, N, np.random.default_rng(16))
        monkeypatch.setattr(ct, "COND_MAX", 2.2)
        assert ct.lr_staircase(prob, 1.0, f0).flag == "stage_gramian_failure:1"
        monkeypatch.setattr(ct, "COND_MAX", 2.1)
        res = ct.lr_staircase(prob, 1.0, f0)
        assert res.flag == "stage_gramian_failure:0" and res.stages == []
        hum = ct.hum_control(prob, 1.0, f0)
        assert hum.flag == "ill_conditioned" and hum.gramian_cond >= 2.1

    @pytest.mark.parametrize("N", [12, 16])
    def test_ball_staircase_at_the_working_precision(self, N):
        # a double stage Gramian fails at stage 3; at 256 bits every stage
        # factors, and 512 bits give the same cost and residual
        R = rg.truncate_radius(N, 1) + 1
        P = gram.gram_matrix(rg.interval_region(-1.0, 1.0, trunc_radius=R), N).matrix
        prob = harmonic_problem(N, P)
        f0 = basis.random_expansion(1, N, np.random.default_rng(1))
        assert ct.lr_staircase(prob, 0.5, f0).flag == "stage_gramian_failure:3"
        res, ref = (ct.lr_staircase(prob, 0.5, f0, precision_bits=b) for b in (256, 512))
        assert res.flag == ref.flag == "ok" and res.residual < 1e-10
        assert res.total_cost == pytest.approx(ref.total_cost, rel=1e-12)
        assert res.residual == pytest.approx(ref.residual, rel=1e-12)

    def test_missed_target_is_flagged(self):
        # on the ball at T = 1 every stage factors at 256 bits, but the run
        # ends after the full-space stage 5.3e-5 short of the target
        N = 24
        R = rg.truncate_radius(N, 1) + 1
        P = gram.gram_matrix(rg.interval_region(-1.0, 1.0, trunc_radius=R), N).matrix
        prob = harmonic_problem(N, P)
        f0 = basis.random_expansion(1, N, np.random.default_rng(1))
        res = ct.lr_staircase(prob, 1.0, f0, target=1e-6, precision_bits=256)
        assert res.flag == "target_missed" and res.stages[-1]["k_j"] == N
        assert res.residual == pytest.approx(5.33e-5, rel=1e-3)
        met = ct.lr_staircase(prob, 1.0, f0, target=1e-4, precision_bits=256)
        assert met.flag == "ok" and met.residual == res.residual

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan])
    def test_target_that_is_not_positive_is_refused(self, monkeypatch, target):
        # no run meets a target of 0 or below; it is refused before any work
        monkeypatch.setattr(arith, "taylor", None)  # no Taylor table is started
        with pytest.raises(ContractViolation, match="target must be positive"):
            ct.lr_staircase(harmonic_problem(4), 1.0, basis.unit_expansion(1, 4, (0,)),
                            target=target)

    def test_cost_comparable_to_hum(self):
        N = 12
        prob = harmonic_problem(N, thick_gram(N))
        rng = np.random.default_rng(16)
        f0 = basis.random_expansion(1, N, rng)
        stair = ct.lr_staircase(prob, 1.0, f0, target=1e-6)
        hum = ct.hum_control(prob, 1.0, f0)
        assert stair.total_cost <= 100.0 * max(hum.cost, 1e-12)


def same_control(a, b):
    return (a.times == b.times and np.array_equal(a.controls, b.controls)
            and (a.cost, a.residual, a.gramian_cond, a.precision_bits, a.flag, a.subintervals,
                 a.taylor_degree) == (b.cost, b.residual, b.gramian_cond, b.precision_bits,
                                      b.flag, b.subintervals, b.taylor_degree))


class TestPlan:
    @pytest.mark.parametrize("bits", [53, 256])
    def test_second_call_builds_no_table(self, monkeypatch, bits):
        # the Gramian, its factor and the grid propagators depend on the
        # problem, not on f0: a second HUM or staircase on one problem reuses
        # them, and answers as a fresh problem does, bit for bit
        N = 8
        tables = []
        taylor = arith.taylor
        monkeypatch.setattr(arith, "taylor", lambda ar, *a, **kw: tables.append(ar.bits)
                            or taylor(ar, *a, **kw))
        rng = np.random.default_rng(23)
        f0, f1 = (basis.random_expansion(1, N, rng) for _ in range(2))
        prob = harmonic_problem(N, thick_gram(N))
        ct.hum_control(prob, 1.0, f0, bits)
        stair0 = ct.lr_staircase(prob, 1.0, f0, precision_bits=bits)
        assert tables and set(tables) == {arith.precisions(bits)[0]}
        tables.clear()
        hum = ct.hum_control(prob, 1.0, f1, bits)
        stair = ct.lr_staircase(prob, 1.0, f1, precision_bits=bits)
        assert tables == []
        assert stair0.stages and stair.flag == "ok"
        fresh = harmonic_problem(N, thick_gram(N))
        assert same_control(hum, ct.hum_control(fresh, 1.0, f1, bits))
        assert stair == ct.lr_staircase(harmonic_problem(N, thick_gram(N)), 1.0, f1,
                                        precision_bits=bits)
        assert hum.times is not ct.hum_control(prob, 1.0, f1, bits).times  # a result owns its times

    def test_plans_are_keyed_by_precision_block_and_horizon(self):
        N = 8
        prob = harmonic_problem(N, thick_gram(N))
        f0 = basis.random_expansion(1, N, np.random.default_rng(24))
        ct.hum_control(prob, 1.0, f0)
        ct.hum_control(prob, 1.0, f0, 256)
        stair = ct.lr_staircase(prob, 1.0, f0)
        blocks = {(53, basis.space_dimension(1, s["k_j"]), s["T_j"] / 2) for s in stair.stages}
        assert set(prob.plans) == {(53, N + 1, 1.0), (256, N + 1, 1.0)} | blocks
        assert set(prob.couplings) == {53, 256}

    def test_arrays_under_a_plan_cannot_change(self):
        N = 6
        A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
        P = thick_gram(N)
        prob = ct.ControlProblem(A, P)
        f0 = basis.random_expansion(1, N, np.random.default_rng(25))
        before = ct.hum_control(prob, 1.0, f0)
        for M in (prob.piomega, prob.A.matrix):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 7.0
        for obj, name in ((prob, "piomega"), (prob, "A"), (prob.A, "matrix")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))
        # the problem holds copies: the caller's arrays stay its own
        P[0, 0] += 1.0
        A.matrix[0, 0] += 1.0
        assert P.flags.writeable and A.matrix.flags.writeable
        assert same_control(ct.hum_control(prob, 1.0, f0), before)


    def test_one_coupling_for_every_pipeline(self, monkeypatch):
        # an observability study and HUM on one problem read P into the
        # 256-bit backend once, through ControlProblem.coupling, and answer
        # as fresh problems do, bit for bit
        N, T_list = 8, [1.0, 0.5]
        prob = harmonic_problem(N, thick_gram(N))
        reads = []
        from_np = arith.Mp.from_np
        monkeypatch.setattr(arith.Mp, "from_np", lambda self, M: reads.append(M is prob.piomega)
                            or from_np(self, M))
        f0 = basis.random_expansion(1, N, np.random.default_rng(26))
        reps = ct.observability_constants(prob, T_list, 256)
        hum = ct.hum_control(prob, 1.0, f0, 256)
        assert reads.count(True) == 1 and set(prob.couplings) == {256}
        assert [rep.precision_bits for rep in reps] == [256, 256]
        for rep, T in zip(reps, T_list):
            ref = ct.observability_constant(harmonic_problem(N, thick_gram(N)), T, 256)
            assert (rep.T, rep.c_value, rep.c_log, rep.flag, rep.subintervals,
                    rep.taylor_degree) == (ref.T, ref.c_value, ref.c_log, ref.flag,
                                           ref.subintervals, ref.taylor_degree)
            assert np.array_equal(rep.extremal.coeffs, ref.extremal.coeffs)
        assert same_control(hum, ct.hum_control(harmonic_problem(N, thick_gram(N)), 1.0, f0, 256))

    @pytest.mark.parametrize("bits", [53, 256])
    def test_grid_above_the_budget_is_refused_before_its_table(self, monkeypatch, bits):
        # T = 1e300, or a generator of norm 1e300, asks for a grid of 2^1000
        # steps: HUM and the staircase refuse it before any Taylor table
        monkeypatch.setattr(arith, "taylor", None)
        A = qd.weyl_quantize(qd.kfp_symbol(1e300), 2)
        for prob, T in ((harmonic_problem(4), 1e300), (ct.ControlProblem(A, np.eye(A.size)), 1.0)):
            f0 = basis.random_expansion(prob.A.n, prob.A.N, np.random.default_rng(27))
            for call in (lambda: ct.hum_control(prob, T, f0, bits),
                         lambda: ct.lr_staircase(prob, T, f0, precision_bits=bits)):
                with pytest.raises(ContractViolation, match="above MAX_GRID"):
                    call()
            assert prob.plans == {}

    @pytest.mark.parametrize("a", [1e20, 1e150])
    def test_observability_refuses_a_double_chain_past_the_double_range(self, a):
        # T ||A||_1 of 1.9e20 (1.9e150) doubles the Taylor chain 68 (500)
        # times: W and e^{-TA} leave the double range, and a NaN W would
        # factor into NaN.  The horizon is refused, naming T ||A||_1, with no
        # warning; a = 1e8 still resolves
        A = qd.weyl_quantize(qd.kfp_symbol(a), 2)
        prob = ct.ControlProblem(A, np.eye(A.size))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolation, match=r"T \|\|A\|\|_1 = .* is not finite"):
                ct.observability_constant(prob, 1.0)
        assert ct.observability_constant(ct.ControlProblem(
            qd.weyl_quantize(qd.kfp_symbol(1e8), 2), np.eye(A.size)), 1.0).flag == "ok"

    def test_grid_budget_is_inclusive(self, monkeypatch):
        # a grid of exactly MAX_GRID samples is built, one sample more is not
        prob = harmonic_problem(8)
        f0 = basis.unit_expansion(1, 8, (0,))
        samples = arith.step_count(prob.A.matrix, 1.0) * ct.GRID_ORDER
        monkeypatch.setattr(ct, "MAX_GRID", samples - 1)
        with pytest.raises(ContractViolation, match="above MAX_GRID"):
            ct.hum_control(prob, 1.0, f0)
        monkeypatch.setattr(ct, "MAX_GRID", samples)
        assert len(ct.hum_control(prob, 1.0, f0).times) == samples


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_every_pipeline_refuses_a_bad_horizon_before_any_work(monkeypatch, T):
    # one check serves the five pipelines, before any Taylor table, whatever
    # the initial state (a zero one needs no work at all)
    monkeypatch.setattr(arith, "taylor", None)
    prob = harmonic_problem(4)
    f0, zero = basis.unit_expansion(1, 4, (0,)), basis.HermiteExpansion(1, 4, np.zeros(5))
    for call in (lambda: ct.observability_constant(prob, T),
                 lambda: ct.observability_constants(prob, [1.0, T]),
                 lambda: ct.cost_blowup_study(prob, [T]),
                 lambda: ct.hum_control(prob, T, f0),
                 lambda: ct.hum_control(prob, T, zero),
                 lambda: ct.lr_staircase(prob, T, f0),
                 lambda: ct.lr_staircase(prob, T, zero)):
        with pytest.raises(ContractViolation, match="horizon must be positive and finite"):
            call()
    assert prob.plans == {} and prob.couplings == {}


class TestBlowup:
    def test_full_space_growth_is_polynomial(self):
        # with everything observed the small-horizon constant follows the
        # per-mode closed form, whose top rate is the finite-N ceiling
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 6)
        P = np.eye(A.size)
        study = ct.cost_blowup_study(ct.ControlProblem(A, P), [1.0, 0.5, 0.25])
        for row in study.rows:
            want = harmonic_full_space_ct(1, 6, row["T"])
            assert row["C_T"] == pytest.approx(want, rel=1e-5)

    def test_thick_region_fit_shape(self):
        N = 12
        A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
        P = thick_gram(N, gamma=0.2)
        study = ct.cost_blowup_study(ct.ControlProblem(A, P), [1.0, 0.5, 0.25, 0.125])
        assert not study.excluded
        fit = study.fits[1]
        assert fit["slope"] > 0
        assert fit["r2"] >= 0.9

    @pytest.mark.parametrize("a, k0, exponents", [(1e6, 1, [1, 3]), (0.0, None, [1])])
    def test_symbol_index_sets_the_fitted_exponents(self, a, k0, exponents):
        # KFP has k0 = 1 at any coupling a != 0, however unbalanced; without
        # coupling its singular space is not trivial: no k0, only the T^-1 fit
        A = qd.weyl_quantize(qd.kfp_symbol(a), 2)
        study = ct.cost_blowup_study(ct.ControlProblem(A, np.eye(A.size)), [1.0, 0.5, 0.25])
        assert not study.excluded
        assert study.k0 == k0 and sorted(study.fits) == exponents

    def test_requires_decreasing_horizons(self):
        A = qd.weyl_quantize(qd.harmonic_symbol(1), 4)
        with pytest.raises(ContractViolation):
            ct.cost_blowup_study(ct.ControlProblem(A, np.eye(A.size)), [0.5, 1.0])

    @pytest.mark.parametrize("symbol, region, N, T_list, singles, study", [
        # a dyadic list shares one step h = T / steps: one table, not four
        ("kfp:a=1", "periodic:L=1,gamma=0.2", 6, [1.0, 0.5, 0.25, 0.125], [53] * 4, [53]),
        # three horizons resolve in double precision, T = 0.25 at 256 bits
        ("harmonic", "ball:r=1", 16, [2.0, 1.0, 0.5, 0.25], [53, 53, 53, 53, 256], [53, 256]),
        # three steps, three tables
        ("kfp:a=1", "periodic:L=1,gamma=0.2", 6, [1.0, 0.3, 0.1], [53] * 3, [53] * 3),
    ])
    def test_one_table_per_precision_and_step(self, monkeypatch, symbol, region, N, T_list,
                                              singles, study):
        # each horizon reads W and e^{-TA} off its group's doubling chain:
        # every row is its one-horizon pencil, bit for bit
        A = qd.weyl_quantize(qd.parse_symbol(symbol), N)
        P = gram.gram_matrix(cli.parse_region(region, A.n, N), N).matrix
        tables = []
        taylor = arith.taylor
        monkeypatch.setattr(arith, "taylor", lambda ar, *a, **kw: tables.append(ar.bits)
                            or taylor(ar, *a, **kw))
        refs = [ct.observability_constant(ct.ControlProblem(A, P), T) for T in T_list]
        assert tables == singles
        tables.clear()
        rows = ct.cost_blowup_study(ct.ControlProblem(A, P), T_list).rows
        assert tables == study
        for row, ref in zip(rows, refs):
            assert row == {"T": ref.T, "C_T": ref.c_value, "c_log": ref.c_log,
                           "precision_bits": ref.precision_bits, "method": ref.method,
                           "flag": ref.flag, "subintervals": ref.subintervals,
                           "taylor_degree": ref.taylor_degree}
        reps = ct.observability_constants(ct.ControlProblem(A, P), T_list)
        for rep, ref in zip(reps, refs):
            assert (rep.c_value, rep.c_log, rep.precision_bits) == (ref.c_value, ref.c_log,
                                                                    ref.precision_bits)
            assert np.array_equal(rep.extremal.coeffs, ref.extremal.coeffs)
