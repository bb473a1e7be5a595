import functools
import math
import random
import sys

import numpy as np
import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_sqrt

from hermite_obs import arith, basis, control as ct, gram, quadratic as qd, regions as rg


def to_mp(F):
    """The oracles' exact reading of an Fx: an mpmath matrix, a vector as a
    column; real entries when the Fx is real."""
    re = F.re.reshape(len(F.re), -1)
    im = None if F.im is None else F.im.reshape(re.shape)
    return mp.matrix([[mp.ldexp(int(a), F.exp) if im is None
                       else mp.mpc(mp.ldexp(int(a), F.exp), mp.ldexp(int(im[i, j]), F.exp))
                       for j, a in enumerate(row)] for i, row in enumerate(re)])


@pytest.mark.parametrize("bits, ladder", [
    (53, [53, 256, 512, 1024, 2048, 4096]),
    (54, [256, 512, 1024, 2048, 4096]),
    (256, [256, 512, 1024, 2048, 4096]),
    (300, [300, 600, 1200, 2400, 4096]),
    (4000, [4000, 4096]),
    (arith.MAX_BITS, [arith.MAX_BITS]),
])
def test_precisions_double_up_to_the_ceiling(bits, ladder):
    assert arith.MAX_BITS == 4096 and arith.precisions(bits) == ladder


@pytest.mark.parametrize("bits, message", [
    (0, "precision_bits 0 is below 53"),
    (52, "precision_bits 52 is below 53"),
    (arith.MAX_BITS + 1, "precision_bits 4097 is above arith.MAX_BITS = 4096"),
])
def test_precisions_refuse_either_bound(bits, message):
    with pytest.raises(basis.ContractViolation, match=message):
        arith.precisions(bits)


BALL = rg.Region([(-1.0, 1.0)])


@pytest.mark.parametrize("region, n, N, bits", [
    (BALL, 1, 48, 512),
    (rg.half_line(), 1, 32, 256),
    (rg.Region([(-1.0, 0.5), (-0.5, 1.5)]), 2, 10, 256),
])
def test_lam_min_matches_high_precision_eigsy(region, n, N, bits):
    # the same working-precision Gram, fully diagonalized at >= 600 bits:
    # the Cholesky route is off by its factorization's rounding plus the
    # double-precision reading of sigma_max(L^-1)
    ar = arith.Mp(bits)
    with mp.workprec(bits + 16):
        G = gram.gram_matrix_mp(region, N)
        lam = ar.lam_min(G)
    with mp.workprec(max(600, 2 * bits)):
        ev = mp.eigsy(to_mp(G), eigvals_only=True)
        ref_min, ref_max = ev[0], ev[ev.rows - 1]
        tol = len(G.re) * mp.mpf(2) ** -(bits + 16) * ref_max + 1e-13 * ref_min
        assert lam is not None and abs(lam - ref_min) <= tol


def test_not_positive_definite_below_needed_bits():
    # ball N=48 needs 512 bits: at 256 its smallest eigenvalue drowns
    with mp.workprec(256 + 16):
        assert arith.Mp(256).lam_min(gram.gram_matrix_mp(BALL, 48)) is None


def test_lam_mins_read_leading_blocks_of_one_inverse(monkeypatch):
    # ball N=48 at 256 bits factors 46 of its 49 columns: blocks inside them
    # get their own lam_min from one inverse of the 33 x 33 factor, the rest None
    ar, inverted = arith.Mp(256), []
    inv_lower = arith.Mp.inv_lower
    monkeypatch.setattr(arith.Mp, "inv_lower",
                        lambda self, L: inverted.append(len(L.re)) or inv_lower(self, L))
    with mp.workprec(256 + 16):
        G = gram.gram_matrix_mp(BALL, 48)
        assert ar.factor(G)[1] == 46
        lams = ar.lam_mins(G, [33, 49, 17, 47])
        assert inverted == [33] and lams[1] is None and lams[3] is None
        assert ar.lam_mins(G, [47, 49]) == [None, None] and inverted == [33]  # nothing fits
        assert lams[0] == ar.lam_min(G[:33, :33]) and lams[2] == ar.lam_min(G[:17, :17])


@pytest.mark.parametrize("k", [-3000, 2200])
def test_power_of_two_scaling_is_exact(k):
    # the pivot tolerance and the double-precision reading both follow the
    # matrix's scale, so 2^k M answers exactly 2^k times M's answers
    ar = arith.Mp(256)
    with mp.workprec(256 + 16):
        M = gram.gram_matrix_mp(rg.half_line(), 12)
        S = M * mp.ldexp(1, k)
        assert ar.lam_min(S) == mp.ldexp(ar.lam_min(M), k)
        (top, vec), (top_s, vec_s) = ar.eigh_top(M), ar.eigh_top(S)
        assert top_s == mp.ldexp(top, k)
        assert np.array_equal(vec_s, vec)


@pytest.mark.parametrize("bits", [256, 512, 1000])
@pytest.mark.parametrize("d", [1, 5, 49])
def test_integer_identity_matches_rounded_identity(bits, d):
    ar = arith.Mp(bits)
    got, want = ar.eye(d), ar.from_np(np.eye(d))
    assert (got.exp, got.prec, got.im) == (want.exp, want.prec, want.im)
    assert got.re.shape == want.re.shape and all(
        type(a) is int and a == b for a, b in zip(got.re.flat, want.re.flat))


def test_inv_lower_and_cond_match_dense_routines():
    kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 3).matrix
    reg = rg.half_space(2, 0, 0.3)
    P = gram.gram_matrix(reg, 3).matrix
    ar = arith.Mp(256)
    with mp.workprec(256 + 16):
        _, W, _, _, _ = arith.taylor(ar, kfp, 0.5, Q=ar.from_np(P))
        L = ar.cholesky(W)
        Li, ref = to_mp(ar.inv_lower(L)), mp.inverse(to_mp(L))
        assert mp.mnorm(Li - ref, 1) <= mp.mpf(2) ** -240 * mp.mnorm(ref, 1)
        sv = mp.svd_c(to_mp(W), compute_uv=False)
        want = sv[0] / sv[sv.rows - 1]
        assert abs(ar.cond(W) - want) <= 1e-13 * want
        assert ar.cond(-W) == float("inf")


@pytest.mark.parametrize("case", ["ball48-512", "halfline32-256", "halfspace14-2d-256",
                                  "hermitian-256"])
def test_inv_lower_at_its_bound_matches_the_wide_route(case):
    # raised by prec + 2 bitlen(d) + 32 bits, not 2 prec, every entry of L^-1
    # lies 32 bits below its rounding from the exact one: it is the wide
    # route's entry or one unit 2^exp (2^-prec of max|X| to a factor 2) away,
    # and sigma_max of the whole and of a leading block reads the same double
    bits = int(case.rsplit("-", 1)[1])
    ar = arith.Mp(bits)
    with mp.workprec(bits + 16):
        if case.startswith("hermitian"):
            G = ar.from_np(hermitian(np.random.default_rng(35), 12, 0.25))
        else:
            region = {"ball48-512": BALL, "halfline32-256": rg.half_line(),
                      "halfspace14-2d-256": rg.half_space(2, 0, 1.0)}[case]
            G = gram.gram_matrix_mp(region, int(case.split("-")[0][-2:]))
        L = ar.cholesky(G)
        d = len(L.re)
        X, wide = ar.inv_lower(L), arith._forward(L, ar.eye(d))
    assert X.exp == wide.exp and (X.im is None) == (wide.im is None) == (G.im is None)
    for x, y in zip((X.re, X.im), (wide.re, wide.im)):
        if x is not None:
            assert max(abs(int(a) - int(b)) for a, b in zip(x.flat, y.flat)) <= 1
    for s in (d, d // 2):
        (Y, e), (Z, f) = ar._unit(X[:s, :s]), ar._unit(wide[:s, :s])
        assert e == f and np.linalg.norm(Y, 2) == np.linalg.norm(Z, 2)


def test_double_inv_lower_is_exactly_lower_triangular():
    # the Cholesky factor of the KFP N=6 observability Gramian (dim 28)
    kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 6).matrix
    reg = rg.half_space(2, 0, 0.3)
    P = gram.gram_matrix(reg, 6).matrix
    _, W, _, _, _ = arith.taylor(arith.DOUBLE, kfp, 0.5, Q=arith.DOUBLE.from_np(P))
    L = arith.DOUBLE.cholesky(W)
    Li = arith.DOUBLE.inv_lower(L)
    assert not np.triu(Li, 1).any()
    assert np.abs(L @ Li - np.eye(len(L))).max() <= 1e-13


def test_mp_gauss_rule_is_exact_to_degree_15():
    with mp.workprec(272):
        x, w = arith.Mp(256).gauss(8)
        for k in range(16):
            got = mp.fsum(wi * xi ** k for xi, wi in zip(x, w))
            want = 2 / mp.mpf(k + 1) if k % 2 == 0 else 0
            assert abs(got - want) < mp.mpf(2) ** -260


@functools.cache
def golub_welsch(order):
    """mpmath's eigenvalue route to the Gauss-Legendre rule at 1,104 bits, 32
    past the widest integer rule checked against it."""
    with mp.workprec(1104):
        return mp.gauss_quadrature(order, "legendre")


@pytest.mark.parametrize("bits", [256, 512, 1024])
def test_integer_gauss_rule_matches_golub_welsch(bits):
    # Newton in integers from Tricomi's asymptotic nodes against mpmath's
    # eigenvalue route at 32 or more bits past the rule; the rule is the same
    # whatever the ambient precision
    ar = arith.Mp(bits)
    for order in range(1, 65):
        with mp.workprec(53):
            x, w = ar.gauss(order)
        with mp.workprec(2000):
            assert arith._gauss.__wrapped__(ar.prec, order) == (x, w)
        X, W = golub_welsch(order)
        with mp.workprec(1104):
            assert len(x) == len(X) == order and all(a < b for a, b in zip(x, x[1:]))
            assert all(abs(a - b) <= mp.mpf(2) ** -(ar.prec - 4)
                       for a, b in [*zip(x, X), *zip(w, W)])


def test_double_gauss_rule_is_the_nearest_doubles():
    # each node and weight is the double nearest mpmath's eigenvalue route at
    # 192 bits, 64 past the integer rule that Double rounds, or 1 ulp from it
    # where that rule lies on the midpoint of two doubles (a double-rounding
    # tie); an odd order's middle node is 0, where the route reads 1e-38
    for order in range(1, 41):
        x, w = arith.DOUBLE.gauss(order)
        held = arith._gauss(128, order)
        with mp.workprec(192):
            X, W = mp.gauss_quadrature(order, "legendre")
            for got, want, h in zip(x + w, [*X, *W], held[0] + held[1]):
                near = 0.0 if abs(want) < mp.mpf(2) ** -160 else float(want)
                tie = h == (mp.mpf(got) + mp.mpf(near)) / 2
                assert got == near or tie and abs(got - near) == math.ulp(near), (order, got, near)


@pytest.mark.parametrize("prec", [64, 272, 1100])
def test_gauss_rule_converges_inside_its_budget(prec, monkeypatch):
    # every order to 128 stops on its measured Newton correction within
    # NEWTON_STEPS, with nodes ascending and mirrored; a budget too small for
    # the rule ends in a contract violation, not in a loop
    for order in range(1, 129):
        x, w = arith._gauss.__wrapped__(prec, order)
        assert len(x) == order and all(a < b for a, b in zip(x, x[1:]))
        assert x == tuple(mp.fneg(a, exact=True) for a in reversed(x)) and w == w[::-1]
    monkeypatch.setattr(arith, "NEWTON_STEPS", 2)
    with pytest.raises(basis.ContractViolation, match="no convergence in 2 Newton steps"):
        arith._gauss.__wrapped__(prec, 8)


def test_fixed_point_gauss_rule_is_built_once_per_precision_and_order():
    # backend(bits) makes a new Mp per call; the rule is kept per (prec, order),
    # immutable, and equals a fresh build whatever the ambient precision
    rule = arith.backend(256).gauss(8)
    assert arith.backend(256).gauss(8) is rule and arith.Mp(512).gauss(8) is not rule
    assert isinstance(rule, tuple) and all(isinstance(part, tuple) for part in rule)
    with mp.workprec(53):
        assert arith._gauss.__wrapped__(272, 8) == rule


def test_top_eigenvector_stays_in_doubles():
    # cond and the spectral levels read the top eigenvalue only; the one
    # caller that reads the vector converts it
    ar = arith.Mp(256)
    with mp.workprec(272):
        M = gram.gram_matrix_mp(rg.half_line(), 6)
        top, vec = ar.eigh_top(M)
        vals, vecs = np.linalg.eigh(ar.to_np(M).real)
    assert isinstance(vec, np.ndarray) and vec.shape == (7,)
    assert float(top) == pytest.approx(vals[-1], rel=1e-14)
    assert abs(abs(vec @ vecs[:, -1]) - 1) <= 1e-12


def test_integer_coefficients_round_exactly():
    # nint(c^k / k! 2^prec) at four times the precision is the reference:
    # the Gauss offsets, and random c at random exponents
    rng = np.random.default_rng(21)
    for bits in (256, 512):
        ar = arith.Mp(bits)
        with mp.workprec(ar.prec):
            scales = [1] + [(xi + 1) / 2 for xi in ar.gauss(8)[0]]
        scales += [float(c) for c in rng.uniform(-2, 2, 6) * 2.0 ** rng.integers(-40, 4, 6)]
        scales += [mp.mpf(3) / 7, 0.0]
        for c in scales:
            got = arith.coefficients(c, 64, ar.prec)
            with mp.workprec(4 * ar.prec):
                want = [int(mp.nint(mp.ldexp(mp.mpf(c) ** k / mp.factorial(k), ar.prec)))
                        for k in range(64)]
            assert got == want


def exact_coefficients(c, n, prec):
    """[c^k / k! 2^prec for k < n] as the exact quotients man^k 2^(ek+prec)
    / k! of c = man 2^e, rounded once, ties to even."""
    sign, man, e, _ = c._mpf_
    man, out = -man if sign else man, []
    for k in range(n):
        s = e * k + prec
        d = math.factorial(k) << max(-s, 0)
        q, r = divmod(man**k << max(s, 0), d)
        out.append(q + ((2 * r, q & 1) > (d, 0)))
    return out


def test_carried_coefficients_equal_the_exact_quotients(monkeypatch):
    # the floored running term rounds as the exact quotient on random rows of
    # both signs with |c| > 1; a search over binades near 1/4 finds a row
    # whose window holds a tie point, which takes the exact fallback
    rng = random.Random(34)

    def draw(prec, lo, hi):  # a random prec-bit mantissa in [2^lo, 2^hi), random sign
        man = rng.choice([-1, 1]) * (rng.getrandbits(prec) | 1 << prec - 1)
        return mp.make_mpf(from_man_exp(man, rng.randrange(lo, hi) - prec + 1))

    for prec in (272, 528, 1040, 4112):
        for _ in range(6):
            c, n = draw(prec, 0, 6), rng.randrange(2, 81)
            assert arith.coefficients(c, n, prec) == exact_coefficients(c, n, prec)
    for prec in (272, 528):  # c^2 / 2 2^prec a hair above m + 1/2: the floors fall below the tie
        m = 1 << prec - 1 | rng.getrandbits(prec - 2)
        c = mp.make_mpf(mpf_sqrt(from_man_exp(2 * m + 1, -prec), prec + 256, "c"))
        assert arith.coefficients(c, 3, prec) == exact_coefficients(c, 3, prec)
    fallbacks, exact = [], arith._exact_coefficient
    monkeypatch.setattr(arith, "_exact_coefficient", lambda *a: fallbacks.append(a) or exact(*a))
    for _ in range(100):
        prec = rng.choice([272, 528, 1040, 4112])
        c = draw(prec, -4, 3)
        got = arith.coefficients(c, 40, prec)
        if fallbacks:
            break
    assert fallbacks, "no row took the fallback"
    assert got == exact_coefficients(c, 40, prec)


def test_series_ignores_the_ambient_precision():
    A = qd.weyl_quantize(qd.kfp_symbol(1.0), 3).matrix
    ar = arith.Mp(256)
    with mp.workprec(ar.prec):
        B = ar.from_np(A * (0.6 + 0.8j)) * -0.05
        scales = [1] + [(xi + 1) / 2 for xi in ar.gauss(8)[0]]
    terms = [ar.from_np(np.eye(len(A))), B, B @ B]
    results = []
    for prec in (53, 272, 2000):
        with mp.workprec(prec):
            results.append([(S.exp, S.re.tolist(), S.im.tolist()) for S in ar.series(scales, terms)])
    assert results[0] == results[1] == results[2]


def _slot_cases():
    kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 6).matrix
    zero_row = np.arange(1.0, 26.0).reshape(5, 5) * np.tri(5, k=1)
    zero_row[2] = 0.0
    return [("harmonic-7", qd.weyl_quantize(qd.harmonic_symbol(1), 7).matrix),
            ("kfp-6", kfp), ("kfp-6-complex", kfp * (0.6 + 0.8j)), ("zero-row", zero_row)]


@pytest.mark.parametrize("name, A", _slot_cases(), ids=[c[0] for c in _slot_cases()])
def test_row_slots_equal_the_dense_product(name, A):
    # the slot product is the dense product's exact integers, so the same
    # rounded Fx: exponent, mantissas and which parts are held
    ar, rng = arith.Mp(256), np.random.default_rng(len(A))
    d = len(A)
    with mp.workprec(ar.prec):
        B = ar.from_np(A) * -0.07
        rows = ar.rows(B)
        operands = [B, ar.from_np(np.eye(d)), ar.from_np(rng.standard_normal((d, d))),
                    ar.from_np(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))),
                    ar.from_np(rng.standard_normal((d, 3)) * 2.0**-70)]
        for X in operands:
            got, want = rows @ X, B @ X
            assert (got.exp, got.prec, got.im is None) == (want.exp, want.prec, want.im is None)
            assert got.re.tolist() == want.re.tolist()
            assert got.im is None or got.im.tolist() == want.im.tolist()
    assert len(rows.cols) == (1 if name == "harmonic-7" else 5)


def test_taylor_dense_products_do_not_grow_with_the_degree(monkeypatch):
    # every product of the Van Loan table goes through B's row slots: the
    # dense Fx @ Fx left are the two contractions and W(h) = V E^H, whatever
    # m; two horizons of one step need different degrees
    A = qd.weyl_quantize(qd.kfp_symbol(1.0), 6).matrix
    P = gram.gram_matrix(rg.half_space(2, 0, 0.3), 6).matrix
    ar, calls, matmul = arith.Mp(256), [], arith.Fx.__matmul__
    monkeypatch.setattr(arith.Fx, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
    norm1 = float(np.abs(A).sum(axis=0).max())
    seen = []
    with mp.workprec(ar.prec):
        x, _ = ar.gauss(ct.GRID_ORDER)
        Q = ar.from_np(P)
        for T in (0.5 / norm1, 1.0 / norm1):
            calls.clear()
            _, _, _, steps, m = arith.taylor(ar, A, T, x, Q)
            seen.append((steps, m, len(calls)))
    (s1, m1, c1), (s2, m2, c2) = seen
    assert s1 == s2 == 1 and m1 < m2 - 3 and c1 == c2 == 3


def test_fixed_matches_mpmath_rounding():
    # fixed reads mantissas and exponents and rounds in integers; the
    # reference rounds each entry through mpmath, ties to even
    def reference(x, prec):
        t = max((mp.frexp(v)[1] for v in x.flat if v), default=0) - prec
        return arith.Fx(np.frompyfunc(lambda v: int(mp.nint(mp.ldexp(v, -t))), 1, 1)(x),
                        None, t, prec)

    rng = np.random.default_rng(17)
    ties = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 3.5, -3.5, 0.0, 7.0]) * 2.0**-9
    with mp.workprec(272):
        cases = [(ties, p) for p in range(1, 7)]
        for _ in range(6):
            X = rng.standard_normal((6, 7)) * 2.0 ** rng.integers(-90, 90, (6, 7))
            X[0, 0] = 0.0
            cases += [(X, 256), (X, 40), (np.frompyfunc(lambda v: mp.mpf(v) / 3, 1, 1)(X), 256)]
        cases.append((np.zeros((3, 3)), 256))
        for x, prec in cases:
            got, want = arith.fixed(x, prec), reference(x, prec)
            assert got.exp == want.exp and got.re.tolist() == want.re.tolist()


@pytest.mark.parametrize("scale", [-40, 0, 40])
def test_fixed_point_matches_mpmath(scale):
    # one exponent per matrix: products, adjoints, sums and scalar multiples
    # err by at most 2^-bits of the result's norm at any scale
    bits, rng = 256, np.random.default_rng(scale + 50)
    X = (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))) * 2.0 ** scale
    Y = rng.standard_normal((7, 7)) * 2.0 ** -scale  # real: no imaginary part is held
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    ar = arith.Mp(bits)
    with mp.workprec(bits + 16):
        a, b, u = ar.from_np(X), ar.from_np(Y), ar.from_np(v)
        ma, mb, mu = mp.matrix(X.tolist()), mp.matrix(Y.tolist()), mp.matrix(v.tolist())
        assert b.im is None and np.array_equal(ar.to_np(a), X) and np.array_equal(ar.to_np(u), v)
        for M in (a, a @ a):  # real parts through mpmath and back, exactly
            part = np.frompyfunc(lambda x: mp.ldexp(int(x), M.exp), 1, 1)(M.re)
            assert to_mp(arith.fixed(part, ar.prec)) == mp.matrix(part.tolist())
        c = mp.mpf(1) / 3
        pairs = [(a @ b, ma * mb), (b @ a, mb * ma), (a @ a, ma * ma), (ar.adj(a) @ a, ma.H * ma),
                 (a @ u, ma * mu), (a * c, ma * c), (-a, -ma), (a + a @ b, ma + ma * mb),
                 (a * 2.0 ** -60 + a, ma * (1 + mp.ldexp(1, -60)))]
        for got, want in pairs:
            assert mp.mnorm(to_mp(got) - want, 1) <= mp.ldexp(mp.mnorm(want, 1), -bits)
        assert abs(ar.norm(u) - mp.norm(mu)) <= 1e-15 * mp.norm(mu)


def hermitian(rng, d, shift):
    # B B^H + shift I, exactly Hermitian in double precision: eigenvalues >= shift
    B = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2 * d)
    W = B @ B.conj().T + shift * np.eye(d)
    return (W + W.conj().T) / 2


@pytest.mark.parametrize("scale", [-40, 0, 40])
def test_complex_hermitian_through_one_factor(scale):
    # a complex W goes through real and imaginary mantissas with real pivots;
    # the oracles are mpmath's dense routines at twice the bits
    bits, rng = 256, np.random.default_rng(scale + 90)
    ar = arith.Mp(bits)
    with mp.workprec(bits + 16):
        W = ar.from_np(hermitian(rng, 7, 0.25) * 2.0 ** scale)
        b = ar.from_np(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        L = ar.cholesky(W)
        lam, cond, x = ar.lam_min(W), ar.cond(W), ar.solve(W, b)
    assert W.im is not None and L.im is not None and b.im is not None
    assert not np.triu(L.re, 1).any() and not np.triu(L.im).any()
    with mp.workprec(2 * bits):
        Wm, Lm = to_mp(W), to_mp(L)
        assert mp.mnorm(Lm * Lm.H - Wm, 1) <= mp.ldexp(mp.mnorm(Wm, 1), -bits)
        ev = mp.eighe(Wm, eigvals_only=True)
        assert abs(lam - ev[0]) <= 1e-13 * ev[0]
        assert abs(cond - ev[ev.rows - 1] / ev[0]) <= 1e-13 * cond
        want = mp.lu_solve(Wm, to_mp(b))
        assert mp.mnorm(to_mp(x) - want, 1) <= mp.ldexp(mp.mnorm(want, 1), -bits)
    with mp.workprec(bits + 16):
        indefinite = ar.from_np(hermitian(rng, 7, -0.05) * 2.0 ** scale)
        assert np.linalg.eigvalsh(ar.to_np(indefinite))[0] < 0
        assert ar.cholesky(indefinite) is None and ar.lam_min(indefinite) is None
        assert ar.cond(indefinite) == float("inf")


def _forbid_in_package(monkeypatch, name):
    # mp.<name> raises when called from hermite_obs; mpmath's own calls still run
    real = getattr(mp, name)

    def check():
        caller = sys._getframe(2).f_globals.get("__name__", "")
        if caller.startswith("hermite_obs"):
            raise AssertionError("mp.%s called from %s" % (name, caller))

    if isinstance(real, type):
        class Guarded(real):
            def __init__(self, *args, **kwargs):
                check()
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(mp, name, Guarded)
    else:
        def guarded(*args, **kwargs):
            check()
            return real(*args, **kwargs)
        monkeypatch.setattr(mp, name, guarded)


def test_no_mpmath_matrix_routine_in_the_pipelines(monkeypatch):
    # the Gauss nodes of the 256-bit HUM grid come from integer Newton steps
    for name in ("cholesky", "lu_solve", "fdot", "matrix", "gauss_quadrature"):
        _forbid_in_package(monkeypatch, name)
    G = gram.gram_matrix(rg.half_line(), 16)
    res = gram.spectral_constant(G)
    assert res.precision_bits == 256 and res.flag == "ok"
    N = 7
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    P = gram.gram_matrix(rg.make_periodic_thick(1, 1.0, 0.6, rg.truncate_radius(N, 1) + 1),
                         N).matrix
    problem = ct.ControlProblem(A, P)
    hum = ct.hum_control(problem, 1.0, basis.random_expansion(1, N, np.random.default_rng(3)), 256)
    assert hum.precision_bits == 256 and hum.flag == "ok" and hum.residual <= 1e-15
    obs = ct.observability_constant(problem, 1.0, precision_bits=256)
    assert obs.precision_bits == 256 and obs.flag == "ok"


def test_taylor_steps_are_the_least_power_of_two():
    # the doubling loop that the frexp form replaced is the reference, at
    # every power of two and one ulp on either side
    def doubling(x):
        steps = 1
        while x > steps:
            steps *= 2
        return steps

    xs = [0.0, 0.3, 1e-300] + list(np.random.default_rng(3).uniform(0.0, 1e3, 50))
    xs += [math.nextafter(2.0**k, to) for k in range(-3, 41) for to in (0.0, 2.0**k, math.inf)]
    for x in xs:
        assert arith.taylor(arith.DOUBLE, np.array([[1.0]]), x)[3] == doubling(x)


@pytest.mark.parametrize("T", [math.inf, math.nan])
@pytest.mark.parametrize("A", [np.array([[1.0]]), np.zeros((1, 1))], ids=["A", "zero"])
def test_taylor_refuses_a_horizon_that_is_not_finite(T, A):
    # no step count covers T ||A||_1 = inf or nan (inf 0 is nan): refused
    # before the degree loop, which would not end
    with pytest.raises(basis.ContractViolation):
        arith.taylor(arith.DOUBLE, A, T)
