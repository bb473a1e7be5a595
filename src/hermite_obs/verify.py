"""Randomized invariant suites for every module, aggregated by the command
line ``verify`` subcommand.

Each suite runs a number of master-seeded trials and returns a verdict record
``{suite, trials, failures, worst_margin, seed}``.  Margins are normalized so
that a nonpositive margin is a pass and the worst (largest) margin over the
trials is reported; a failure count of zero over every suite is the
correctness bar for a build.
"""

from __future__ import annotations

import math

import numpy as np

from . import basis, control as ct, estimates as est, gram, quadratic as qd, regions as rg
from .quadrature import composite_gauss_legendre


def _rng(seed, suite_tag, trial):
    return np.random.default_rng([seed, suite_tag, trial])


def _verdict(name, trials, margins, seed):
    worst = max(margins) if margins else -math.inf
    failures = sum(1 for m in margins if m > 0)
    return {
        "suite": name,
        "trials": trials,
        "failures": failures,
        "worst_margin": worst,
        "seed": seed,
    }


# -- basis ---------------------------------------------------------------------


def suite_basis_parseval(seed=0, trials=40):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 1, t)
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, {1: 16, 2: 10, 3: 7}[n]))
        f = basis.random_expansion(n, N, rng)
        nodes, weights = np.polynomial.hermite.hermgauss(N + 1)
        grids = np.meshgrid(*([nodes] * n), indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        w = np.ones(pts.shape[0])
        for j in range(n):
            w *= np.take(weights, np.searchsorted(nodes, pts[:, j]))
        vals = f.evaluate(pts if n > 1 else pts[:, 0])
        quad = float(np.sum(w * np.abs(vals * np.exp(0.5 * np.sum(pts**2, 1))) ** 2))
        margins.append(abs(quad - f.norm() ** 2) - 1e-10)
    return _verdict("basis_parseval", trials, margins, seed)


def suite_basis_ladder(seed=0, trials=40):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 2, t)
        n = int(rng.integers(1, 4))
        N = int(rng.integers(0, 7))
        j = int(rng.integers(0, n))
        f = basis.random_expansion(n, N, rng)
        g = basis.random_expansion(n, N + 1, rng)
        up = basis.apply_ladder(basis.LadderMap(basis.RAISE, j, N), f)
        down = basis.apply_ladder(basis.LadderMap(basis.LOWER, j, N + 1), g)
        adj = abs(up.inner(g) - f.inner(down.padded(N)))
        du = basis.apply_ladder(basis.LadderMap(basis.LOWER, j, N + 1), up)
        dn = basis.apply_ladder(basis.LadderMap(basis.LOWER, j, N), f)
        ud = basis.apply_ladder(basis.LadderMap(basis.RAISE, j, dn.N), dn)
        M = max(du.N, ud.N, f.N)
        comm = (du.padded(M) - ud.padded(M) - f.padded(M)).norm()
        margins.append(max(adj, comm) - 1e-12 * max(f.norm() * g.norm(), 1.0))
    return _verdict("basis_ladder", trials, margins, seed)


def suite_basis_recurrence(seed=0, trials=60):
    import mpmath

    margins = []
    for t in range(trials):
        rng = _rng(seed, 3, t)
        k = int(rng.integers(0, 61))
        x = float(rng.uniform(-9.0, 9.0))
        got = basis.eval_hermite_1d(k, x)
        with mpmath.workdps(60):
            xm = mpmath.mpf(x)
            vals = [mpmath.pi ** mpmath.mpf("-0.25") * mpmath.e ** (-xm * xm / 2)]
            if k >= 1:
                vals.append(xm * mpmath.sqrt(2) * vals[0])
            for m in range(1, k):
                vals.append(
                    xm * mpmath.sqrt(mpmath.mpf(2) / (m + 1)) * vals[m]
                    - mpmath.sqrt(mpmath.mpf(m) / (m + 1)) * vals[m - 1]
                )
            want = float(vals[k])
        scale = max(abs(want), 1e-250)
        margins.append(abs(got - want) / scale - 1e-12)
    return _verdict("basis_recurrence", trials, margins, seed)


# -- regions ---------------------------------------------------------------------


def suite_regions_exactness(seed=0, trials=40):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 4, t)
        a = float(rng.uniform(-4.0, 1.0))
        b = a + float(rng.uniform(0.3, 4.0))
        j = int(rng.integers(0, 10))
        k = int(rng.integers(0, 10))
        if j == k:
            k += 1
        tab, _ = rg.interval_pair_tables([a], [b], max(j, k))

        def f(x):
            vals = basis.hermite_values(max(j, k), x)
            return vals[j] * vals[k]

        want, _, _ = composite_gauss_legendre(f, a, b, abs_tol=1e-14, min_panels=8)
        margins.append(abs(float(tab[0, j, k]) - want) - 1e-11)
    return _verdict("regions_exactness", trials, margins, seed)


def suite_regions_additivity(seed=0, trials=30):
    # [a, d] split at an interior b: its table is the sum of the tables of
    # [a, b] and [b, d], within the three tables' summed bounds
    margins = []
    for t in range(trials):
        rng = _rng(seed, 5, t)
        a = float(rng.uniform(-4.0, -1.0))
        b = a + float(rng.uniform(0.2, 1.5))
        d = b + float(rng.uniform(0.2, 3.0))
        vals, errs = rg.interval_pair_tables([a, a, b], [d, b, d], 7)
        margins.append(float(np.max(np.abs(vals[0] - vals[1] - vals[2]) - errs.sum(axis=0))))
    return _verdict("regions_additivity", trials, margins, seed)


def suite_regions_account_honesty(seed=0, trials=25):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 6, t)
        a = float(rng.uniform(-3.0, 0.0))
        b = a + float(rng.uniform(0.5, 3.0))
        k = int(rng.integers(0, 12))
        vals, errs = rg.interval_pair_tables([a], [b], k)

        def f(x):
            return basis.hermite_values(k, x)[k] ** 2

        finer, _, _ = composite_gauss_legendre(f, a, b, abs_tol=1e-15, min_panels=64)
        margins.append(abs(float(vals[0, k, k]) - finer) - max(float(errs[0, k, k]), 1e-13))
    return _verdict("regions_account_honesty", trials, margins, seed)


def suite_regions_tensorization(seed=0, trials=20):
    margins = []
    nodes, w = np.polynomial.legendre.leggauss(40)
    for t in range(trials):
        rng = _rng(seed, 7, t)
        lo = rng.uniform(-2.0, 0.5, size=2)
        hi = lo + rng.uniform(0.3, 2.0, size=2)
        N = 3
        alpha = tuple(int(v) for v in rng.integers(0, N + 1, size=2))
        beta = tuple(int(v) for v in rng.integers(0, N + 1, size=2))
        vals, _ = rg.interval_pair_tables(lo, hi, N)
        got = vals[0, alpha[0], beta[0]] * vals[1, alpha[1], beta[1]]
        want = 1.0
        for ax in range(2):
            xs = 0.5 * (lo[ax] + hi[ax]) + 0.5 * (hi[ax] - lo[ax]) * nodes
            ws = 0.5 * (hi[ax] - lo[ax]) * w
            tab = basis.hermite_values(N, xs)
            want *= float(ws @ (tab[alpha[ax]] * tab[beta[ax]]))
        margins.append(abs(got - want) - 1e-11)
    return _verdict("regions_tensorization", trials, margins, seed)


# -- gram --------------------------------------------------------------------------


def suite_gram_invariants(seed=0, trials=12):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 8, t)
        N = int(rng.integers(2, 9))
        R = rg.truncate_radius(N, 1) + 1
        gamma = float(rng.uniform(0.25, 0.9))
        reg = rg.make_periodic_thick(1, 1.0, gamma, R)
        G = gram.gram_matrix(reg, 1, N)
        herm = float(np.max(np.abs(G.matrix - G.matrix.T)))
        lam = np.linalg.eigvalsh(G.matrix)
        psd = -(float(lam[0]) + G.size * G.entry_error)
        res = gram.spectral_constant(G)
        c = rng.standard_normal(G.size) + 1j * rng.standard_normal(G.size)
        quad = float(np.real(np.conj(c) @ G.matrix @ c))
        rayleigh = float(np.vdot(c, c).real) / quad - res.c_value**2 * (1 + 1e-9)
        full = gram.gram_matrix(rg.full_space(1, R), 1, N)
        ident = float(np.max(np.abs(full.matrix - np.eye(full.size)))) - 1e-10
        margins.append(max(herm - 1e-14, psd, rayleigh, ident))
    return _verdict("gram_invariants", trials, margins, seed)


def suite_gram_monotonicity(seed=0, trials=10):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 9, t)
        N = int(rng.integers(2, 7))
        R = rg.truncate_radius(N + 2, 1) + 1
        g1 = float(rng.uniform(0.2, 0.5))
        g2 = float(rng.uniform(g1 + 0.05, 0.95))
        small = rg.make_periodic_thick(1, 1.0, g1, R)
        big = rg.make_periodic_thick(1, 1.0, g2, R)
        c_small, cs = (r.c_log for r in
                       gram.spectral_constants(gram.gram_matrix(small, 1, N + 2), [N, N + 2]))
        c_big = gram.spectral_constant(gram.gram_matrix(big, 1, N)).c_log
        region_mono = c_big - c_small - 1e-9
        cutoff_mono = c_small - cs - 1e-9
        margins.append(max(region_mono, cutoff_mono))
    return _verdict("gram_monotonicity", trials, margins, seed)


def suite_gram_dominance(seed=0, trials=1):
    margins = []
    N_list = [4, 8, 12]
    R = rg.truncate_radius(max(N_list), 1) + 1
    cases = [
        (rg.interval_region(-1.0, 1.0, trunc_radius=R), gram.open_params(1, (0.0,), 1.0)),
        (rg.half_line(R), gram.density_params(1, 0.5)),
        (rg.make_periodic_thick(1, 1.0, 0.5, R), gram.thick_params(1, 1.0, 0.5)),
    ]
    for reg, params in cases:
        rep = gram.scaling_study(reg, 1, N_list, bound=params)
        for row in rep.rows:
            if not math.isnan(row["bound_log"]):
                margins.append(row["C_log"] - row["bound_log"])
    return _verdict("gram_dominance", len(margins), margins, seed)


# -- estimates -----------------------------------------------------------------------


def suite_est_chebyshev(seed=0, trials=60):
    from fractions import Fraction

    margins = []
    for t in range(trials):
        rng = _rng(seed, 10, t)
        d = int(rng.integers(0, 31))
        x = Fraction(int(rng.integers(-30, 31)), 10)
        want = Fraction(0)
        for k in range(d // 2 + 1):
            want += math.comb(d, 2 * k) * (x * x - 1) ** k * x ** (d - 2 * k)
        got = est.chebyshev_value(d, float(x))
        scale = max(abs(float(want)), 1.0)
        margins.append(abs(got - float(want)) / scale - 1e-9)
    return _verdict("est_chebyshev", trials, margins, seed)


def suite_est_remez(seed=0, trials=200):
    margins = []
    grid = np.linspace(-1.0, 1.0, 10001)
    for t in range(trials):
        rng = _rng(seed, 11, t)
        d = int(rng.integers(0, 9))
        coeffs = rng.uniform(-1.0, 1.0, size=d + 1)
        vals = np.abs(np.polynomial.polynomial.polyval(grid, coeffs))
        edges = np.sort(rng.uniform(-1.0, 1.0, size=6))
        mask = np.zeros_like(grid, dtype=bool)
        for i in range(0, 6, 2):
            mask |= (grid >= edges[i]) & (grid <= edges[i + 1])
        meas = 2.0 * float(np.mean(mask))
        if meas < 0.2 or meas >= 2.0:
            continue
        sup_K = float(vals.max())
        sup_E = float(vals[mask].max())
        bound = est.remez_bound(1, d, meas / 2.0)
        margins.append(sup_K - bound * sup_E * (1 + 1e-9))
    # trials with a too-small subset are regenerated away; report checks run
    return _verdict("est_remez", len(margins), margins, seed)


def suite_est_kovrijkine(seed=0, trials=200):
    margins = []
    xs = np.linspace(0.0, 1.0, 4097)
    for t in range(trials):
        rng = _rng(seed, 12, t)
        a = float(rng.uniform(0.05, 1.0))
        vals = np.abs(np.cos(a * xs))
        sup_I = float(vals.max())
        m_value = math.cosh(4 * a)
        step = int(rng.choice([2, 4, 8, 16]))
        sub = vals[:: step]
        bound = est.kovrijkine_interval_bound(300.0, 1.0 / step, m_value)
        margins.append(sup_I - bound * float(sub.max()) * (1 + 1e-9))
    return _verdict("est_kovrijkine", trials, margins, seed)


def suite_est_bernstein(seed=0, trials=500):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 13, t)
        n = int(rng.integers(1, 3))
        N = int(rng.integers(0, 13 if n == 2 else 21))
        f = basis.random_expansion(n, N, rng)
        delta = float(rng.choice([0.25, 0.5, 1.0]))
        beta = tuple(int(b) for b in rng.integers(0, 3, size=n))
        r = est.bernstein_check(f, delta, beta)
        margins.append(r.lhs - r.rhs)
    return _verdict("est_bernstein", trials, margins, seed)


def suite_est_weighted(seed=0, trials=500):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 14, t)
        n = int(rng.integers(1, 3))
        N = int(rng.integers(0, 9))
        f = basis.random_expansion(n, N, rng)
        delta = float(rng.uniform(0.1, 0.6)) / (32 * n)
        beta = tuple(int(b) for b in rng.integers(0, 2, size=n))
        r = est.weighted_check(f, delta, beta)
        margins.append(r.lhs_x + r.lhs_xi - r.rhs)
    return _verdict("est_weighted", trials, margins, seed)


def suite_est_tails(seed=0, trials=500):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 15, t)
        k = int(rng.integers(0, 21))
        a = math.sqrt(2 * k + 1) + float(rng.uniform(0.0, 3.0))
        exact, bound = est.hermite_tail_bound(k, a)
        margins.append(exact - bound - 1e-14)
    return _verdict("est_tails", trials, margins, seed)


def suite_est_tail_constant(seed=0, trials=50):
    margins = []
    c1 = est.tail_constant_cn(1).c
    for t in range(trials):
        rng = _rng(seed, 16, t)
        N = int(rng.integers(0, 31))
        f = basis.random_expansion(1, N, rng)
        a = c1 * math.sqrt(N + 1)
        span = math.sqrt(2 * N + 1) + 12.0

        def density(x):
            return np.abs(f.evaluate(x)) ** 2

        hi, _, _ = composite_gauss_legendre(
            density, a, max(a + 1e-6, span), abs_tol=1e-12, min_panels=max(4, N)
        )
        lo, _, _ = composite_gauss_legendre(
            density, -max(a + 1e-6, span), -a, abs_tol=1e-12, min_panels=max(4, N)
        )
        margins.append((hi + lo) - 0.25 * f.norm() ** 2 - 1e-9)
    return _verdict("est_tail_constant", trials, margins, seed)


# -- quadratic -------------------------------------------------------------------------


def _random_symbol(rng, n):
    M = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return qd.QuadraticSymbol(n, M + M.T)


def suite_quad_hamilton(seed=0, trials=40):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 17, t)
        n = int(rng.integers(1, 3))
        sym = _random_symbol(rng, n)
        F = qd.hamilton_map(sym)
        dev = F.probe_deviation
        X = rng.standard_normal(2 * n)
        Y = rng.standard_normal(2 * n)
        dev = max(
            dev,
            abs(qd.symplectic_form(X, F.F @ Y, n) - complex(sym.polarized(X, Y))),
        )
        scale = max(float(np.max(np.abs(sym.Q))), 1.0)
        margins.append(dev - 1e-12 * scale)
    return _verdict("quad_hamilton", trials, margins, seed)


def suite_quad_singular_scaling(seed=0, trials=30):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 18, t)
        sym = (qd.kfp_symbol(float(rng.uniform(0.2, 3.0)))
               if t % 2 == 0 else qd.harmonic_symbol(int(rng.integers(1, 3))))
        c = float(rng.uniform(0.05, 40.0))
        S1 = qd.singular_space(qd.hamilton_map(sym))
        S2 = qd.singular_space(qd.hamilton_map(sym.scaled(c)))
        ok = S1.k0 == S2.k0 and S1.dims == S2.dims
        margins.append(-1.0 if ok else 1.0)
    return _verdict("quad_singular_scaling", trials, margins, seed)


def suite_quad_weyl(seed=0, trials=25):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 19, t)
        n = int(rng.integers(1, 3))
        N = int(rng.integers(1, 6))
        s1 = _random_symbol(rng, n)
        s2 = _random_symbol(rng, n)
        A1 = qd.weyl_quantize(s1, N).matrix
        A2 = qd.weyl_quantize(s2, N).matrix
        A12 = qd.weyl_quantize(qd.QuadraticSymbol(n, s1.Q + s2.Q), N).matrix
        scale = max(float(np.max(np.abs(A12))), 1.0)
        lin = float(np.max(np.abs(A12 - (A1 + A2)))) / scale - 1e-13
        Abar = qd.weyl_quantize(s1.conjugated(), N).matrix
        adj = float(np.max(np.abs(Abar - A1.conj().T))) / scale - 1e-13
        h = qd.weyl_quantize(qd.harmonic_symbol(n), N).matrix
        lev = basis.index_levels(n, N)
        diag = float(np.max(np.abs(h - np.diag(2 * lev + n)))) - 1e-12
        margins.append(max(lin, adj, diag))
    return _verdict("quad_weyl", trials, margins, seed)


def suite_quad_semigroup(seed=0, trials=15):
    margins = []
    for t in range(trials):
        rng = _rng(seed, 20, t)
        sym = qd.kfp_symbol(float(rng.uniform(0.3, 2.0))) if t % 2 == 0 else qd.harmonic_symbol(1)
        N = 8
        A = qd.weyl_quantize(sym, N)
        f = basis.random_expansion(A.n, N, rng)
        s, u = float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))
        one = qd.evolve(A, f, s + u)
        two = qd.evolve(A, qd.evolve(A, f, u), s)
        semi = (one - two).norm() - 1e-9 * f.norm()
        contr = one.norm() - f.norm() * (1 + 1e-8)
        margins.append(max(semi, contr))
    return _verdict("quad_semigroup", trials, margins, seed)


# -- control ----------------------------------------------------------------------------


def suite_control_duality(seed=0, trials=10):
    margins = []
    N = 8
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    prob = ct.ControlProblem(A, np.eye(A.size), 1.0)
    lam = 2 * basis.index_levels(1, N) + 1
    for t in range(trials):
        rng = _rng(seed, 21, t)
        f0 = basis.random_expansion(1, N, rng)
        res = ct.hum_control(prob, f0)
        want = float(
            sum(
                abs(f0.coeffs[i]) ** 2
                * 2 * lam[i] * math.exp(-2 * lam[i]) / (1 - math.exp(-2 * lam[i]))
                for i in range(len(lam))
            )
        )
        margins.append(abs(res.cost - want) / want - 1e-6)
        margins.append(res.residual - 1e-9)
    return _verdict("control_duality", trials, margins, seed)


def suite_control_monotone(seed=0, trials=1):
    margins = []
    N = 8
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    R = rg.truncate_radius(N, 1) + 1
    small = rg.make_periodic_thick(1, 1.0, 0.35, R)
    ((lows, highs),) = small.axes
    big = rg.Region([(np.concatenate([lows, highs]), np.concatenate([highs, highs + 0.25]))],
                    trunc_radius=R)
    P_small = gram.gram_matrix(small, 1, N).matrix
    P_big = gram.gram_matrix(big, 1, N).matrix
    cts = [rep.c_value for rep in ct.observability_constants(A, P_small, [0.5, 1.0, 2.0])]
    for a, b in zip(cts, cts[1:]):
        margins.append(b - a * (1 + 1e-9))  # C_T nonincreasing in T
    c_big = ct.observability_constant(ct.ControlProblem(A, P_big, 1.0)).c_value
    margins.append(c_big - cts[1] * (1 + 1e-9))  # shrink raises C_T
    rng = _rng(seed, 22, 0)
    f0 = basis.random_expansion(1, N, rng)
    cost_small = ct.hum_control(ct.ControlProblem(A, P_small, 1.0), f0).cost
    cost_big = ct.hum_control(ct.ControlProblem(A, P_big, 1.0), f0).cost
    margins.append(cost_big - cost_small * (1 + 1e-9))  # larger region no dearer
    return _verdict("control_monotone", len(margins), margins, seed)


def suite_control_staircase(seed=0, trials=3):
    margins = []
    N = 12
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    reg = rg.make_periodic_thick(1, 1.0, 0.6, rg.truncate_radius(N, 1) + 1)
    P = gram.gram_matrix(reg, 1, N).matrix
    prob = ct.ControlProblem(A, P, 1.0)
    for t in range(trials):
        rng = _rng(seed, 23, t)
        f0 = basis.random_expansion(1, N, rng)
        res = ct.lr_staircase(prob, f0, target=1e-6)
        energies = [s["energy_after"] for s in res.stages]
        decays = all(b < a for a, b in zip(energies, energies[1:]))
        margins.append(res.residual - 1e-4)
        margins.append(-1.0 if decays else 1.0)
        margins.append(0.0 if res.flag != "ok" else -1.0)
    return _verdict("control_staircase", trials, margins, seed)


# every suite_<name> above, in definition order
SUITES = {name[len("suite_"):]: fn for name, fn in globals().items() if name.startswith("suite_")}


def run_suites(names=None, seed=0, trials=None):
    """Run the selected suites (all by default) with one master seed.

    ``trials`` optionally overrides each suite's default trial count; it
    must be at least 1, so that every suite checks something.
    Returns (verdicts, all_passed).
    """
    if trials is not None and trials < 1:
        raise basis.UsageError("trials must be at least 1, got %d" % trials)
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError("unknown suites: %s" % ", ".join(unknown))
    verdicts = []
    for name in names:
        fn = SUITES[name]
        verdicts.append(fn(seed=seed) if trials is None else fn(seed=seed, trials=trials))
    ok = all(v["failures"] == 0 for v in verdicts)
    return verdicts, ok
