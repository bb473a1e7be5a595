"""Randomized invariant suites for every module, aggregated by the command
line ``verify`` subcommand.

Each suite runs a number of master-seeded trials and returns a verdict record
``{suite, trials, failures, worst_margin, seed}``.  Margins are normalized so
that a nonpositive margin is a pass and the worst (largest) margin over the
trials is reported; a failure count of zero over every suite is the
correctness bar for a build.  A randomized suite is its per-trial check under
``_trials(tag, trials)``; the two fixed-case suites, ``gram_dominance`` and
``control_monotone``, ignore ``trials`` and report their number of checks.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
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


def _trials(tag, default):
    """Make the per-trial check ``suite_<name>(rng, t)`` the suite
    ``suite_<name>(seed=0, trials=default)``.

    Trial t draws from ``_rng(seed, tag, t)``.  The check returns its margin,
    a tuple of margins, or None for a draw that runs no check; the verdict,
    named after the suite, counts the trials that returned a margin.  The
    suite takes the check's name but no ``__wrapped__``, so that its own
    signature is the one ``inspect`` and the benchmark's tracer see.
    """
    def declare(check):
        def suite(seed=0, trials=default):
            margins, ran = [], 0
            for t in range(trials):
                got = check(_rng(seed, tag, t), t)
                if got is not None:
                    ran += 1
                    margins.extend(got if isinstance(got, tuple) else (got,))
            return _verdict(check.__name__[len("suite_"):], ran, margins, seed)

        suite.__name__ = suite.__qualname__ = check.__name__
        return suite

    return declare


# fixed grids and nodes of the suites, built on first use, not at import
# (every command imports this module), and then shared, read-only, by every trial
_linspace = basis.frozen_cache(np.linspace)
_leggauss = basis.frozen_cache(np.polynomial.legendre.leggauss)


# -- basis ---------------------------------------------------------------------


@_trials(1, 40)
def suite_basis_parseval(rng, t):
    n = int(rng.integers(1, 4))
    N = int(rng.integers(0, {1: 16, 2: 10, 3: 7}[n]))
    f = basis.random_expansion(n, N, rng)
    nodes, weights = est.gauss_hermite(N + 1)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = np.ones(pts.shape[0])
    for j in range(n):
        w *= np.take(weights, np.searchsorted(nodes, pts[:, j]))
    vals = f.evaluate(pts if n > 1 else pts[:, 0])
    quad = float(np.sum(w * np.abs(vals * np.exp(0.5 * np.sum(pts**2, 1))) ** 2))
    return abs(quad - f.norm() ** 2) - 1e-10


@_trials(2, 40)
def suite_basis_ladder(rng, t):
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
    return max(adj, comm) - 1e-12 * max(f.norm() * g.norm(), 1.0)


@functools.cache
def _recurrence_step(m):
    """The oracle's constants of step m, sqrt(2 / (m + 1)) and sqrt(m / (m +
    1)), to 60 digits, once per process (mpf are immutable); sqrt 2 at m = 0."""
    with mpmath.workdps(60):
        return mpmath.sqrt(mpmath.mpf(2) / (m + 1)), mpmath.sqrt(mpmath.mpf(m) / (m + 1))


@_trials(3, 60)
def suite_basis_recurrence(rng, t):
    k = int(rng.integers(0, 61))
    x = float(rng.uniform(-9.0, 9.0))
    got = basis.eval_hermite_1d(k, x)
    with mpmath.workdps(60):
        xm = mpmath.mpf(x)
        vals = [mpmath.pi ** mpmath.mpf("-0.25") * mpmath.e ** (-xm * xm / 2)]
        if k >= 1:
            vals.append(xm * _recurrence_step(0)[0] * vals[0])
        for m in range(1, k):
            c, d = _recurrence_step(m)
            vals.append(xm * c * vals[m] - d * vals[m - 1])
        want = float(vals[k])
    return abs(got - want) / max(abs(want), 1e-250) - 1e-12


# -- regions ---------------------------------------------------------------------


@_trials(4, 40)
def suite_regions_exactness(rng, t):
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
    return abs(float(tab[0, j, k]) - want) - 1e-11


@_trials(5, 30)
def suite_regions_additivity(rng, t):
    # [a, d] split at an interior b: its table is the sum of the tables of
    # [a, b] and [b, d], within the three tables' summed bounds
    a = float(rng.uniform(-4.0, -1.0))
    b = a + float(rng.uniform(0.2, 1.5))
    d = b + float(rng.uniform(0.2, 3.0))
    vals, errs = rg.interval_pair_tables([a, a, b], [d, b, d], 7)
    return float(np.max(np.abs(vals[0] - vals[1] - vals[2]) - errs.sum(axis=0)))


@_trials(6, 25)
def suite_regions_account_honesty(rng, t):
    a = float(rng.uniform(-3.0, 0.0))
    b = a + float(rng.uniform(0.5, 3.0))
    k = int(rng.integers(0, 12))
    vals, errs = rg.interval_pair_tables([a], [b], k)

    def f(x):
        return basis.hermite_values(k, x)[k] ** 2

    finer, _, _ = composite_gauss_legendre(f, a, b, abs_tol=1e-15, min_panels=64)
    return abs(float(vals[0, k, k]) - finer) - max(float(errs[0, k, k]), 1e-13)


@_trials(7, 20)
def suite_regions_tensorization(rng, t):
    nodes, w = _leggauss(40)
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
    return abs(got - want) - 1e-11


# -- gram --------------------------------------------------------------------------


@_trials(8, 12)
def suite_gram_invariants(rng, t):
    N = int(rng.integers(2, 9))
    R = rg.truncate_radius(N, 1) + 1
    gamma = float(rng.uniform(0.25, 0.9))
    reg = rg.make_periodic_thick(1, 1.0, gamma, R)
    G = gram.gram_matrix(reg, N)
    herm = float(np.max(np.abs(G.matrix - G.matrix.T)))
    lam = np.linalg.eigvalsh(G.matrix)
    psd = -(float(lam[0]) + G.size * G.entry_error)
    res = gram.spectral_constant(G)
    c = rng.standard_normal(G.size) + 1j * rng.standard_normal(G.size)
    quad = float(np.real(np.conj(c) @ G.matrix @ c))
    rayleigh = float(np.vdot(c, c).real) / quad - res.c_value**2 * (1 + 1e-9)
    full = gram.gram_matrix(rg.full_space(1, R), N)
    ident = float(np.max(np.abs(full.matrix - np.eye(full.size)))) - 1e-10
    return max(herm - 1e-14, psd, rayleigh, ident)


@_trials(9, 10)
def suite_gram_monotonicity(rng, t):
    N = int(rng.integers(2, 7))
    R = rg.truncate_radius(N + 2, 1) + 1
    g1 = float(rng.uniform(0.2, 0.5))
    g2 = float(rng.uniform(g1 + 0.05, 0.95))
    small = rg.make_periodic_thick(1, 1.0, g1, R)
    big = rg.make_periodic_thick(1, 1.0, g2, R)
    c_small, cs = (r.c_log for r in
                   gram.spectral_constants(gram.gram_matrix(small, N + 2), [N, N + 2]))
    c_big = gram.spectral_constant(gram.gram_matrix(big, N)).c_log
    region_mono = c_big - c_small - 1e-9
    cutoff_mono = c_small - cs - 1e-9
    return max(region_mono, cutoff_mono)


def suite_gram_dominance(seed=0, trials=1):
    margins = []
    N_list = [4, 8, 12]
    R = rg.truncate_radius(max(N_list), 1) + 1
    cases = [
        (rg.interval_region(-1.0, 1.0, trunc_radius=R), gram.open_params((0.0,), 1.0)),
        (rg.half_line(R), gram.density_params(1, 0.5)),
        (rg.make_periodic_thick(1, 1.0, 0.5, R), gram.thick_params(1, 1.0, 0.5)),
    ]
    for reg, params in cases:
        rep = gram.scaling_study(reg, N_list, bound=params)
        for row in rep.rows:
            if not math.isnan(row["bound_log"]):
                margins.append(row["C_log"] - row["bound_log"])
    return _verdict("gram_dominance", len(margins), margins, seed)


# -- estimates -----------------------------------------------------------------------


@_trials(10, 60)
def suite_est_chebyshev(rng, t):
    d = int(rng.integers(0, 31))
    x = Fraction(int(rng.integers(-30, 31)), 10)
    want = Fraction(0)
    for k in range(d // 2 + 1):
        want += math.comb(d, 2 * k) * (x * x - 1) ** k * x ** (d - 2 * k)
    got = est.chebyshev_value(d, float(x))
    return abs(got - float(want)) / max(abs(float(want)), 1.0) - 1e-9


@_trials(11, 200)
def suite_est_remez(rng, t):
    grid = _linspace(-1.0, 1.0, 10001)
    d = int(rng.integers(0, 9))
    coeffs = rng.uniform(-1.0, 1.0, size=d + 1)
    vals = np.abs(np.polynomial.polynomial.polyval(grid, coeffs))
    edges = np.sort(rng.uniform(-1.0, 1.0, size=6))
    mask = np.zeros_like(grid, dtype=bool)
    for i in range(0, 6, 2):
        mask |= (grid >= edges[i]) & (grid <= edges[i + 1])
    meas = 2.0 * float(np.mean(mask))
    if meas < 0.2 or meas >= 2.0:
        return None  # a too-small subset is regenerated away: no check runs
    sup_K = float(vals.max())
    sup_E = float(vals[mask].max())
    return sup_K - est.remez_bound(1, d, meas / 2.0) * sup_E * (1 + 1e-9)


@_trials(12, 200)
def suite_est_kovrijkine(rng, t):
    xs = _linspace(0.0, 1.0, 4097)
    a = float(rng.uniform(0.05, 1.0))
    vals = np.abs(np.cos(a * xs))
    sup_I = float(vals.max())
    m_value = math.cosh(4 * a)
    step = int(rng.choice([2, 4, 8, 16]))
    bound = est.kovrijkine_interval_bound(gram.DEFAULT_C_KOV, 1.0 / step, m_value)
    return sup_I - bound * float(vals[::step].max()) * (1 + 1e-9)


@_trials(13, 500)
def suite_est_bernstein(rng, t):
    n = int(rng.integers(1, 3))
    N = int(rng.integers(0, 13 if n == 2 else 21))
    f = basis.random_expansion(n, N, rng)
    delta = float(rng.choice([0.25, 0.5, 1.0]))
    beta = tuple(int(b) for b in rng.integers(0, 3, size=n))
    r = est.bernstein_check(f, delta, beta)
    return r.lhs - r.rhs


@_trials(14, 500)
def suite_est_weighted(rng, t):
    n = int(rng.integers(1, 3))
    N = int(rng.integers(0, 9))
    f = basis.random_expansion(n, N, rng)
    delta = float(rng.uniform(0.1, 0.6)) / (32 * n)
    beta = tuple(int(b) for b in rng.integers(0, 2, size=n))
    r = est.weighted_check(f, delta, beta)
    return r.lhs_x + r.lhs_xi - r.rhs


@_trials(15, 500)
def suite_est_tails(rng, t):
    k = int(rng.integers(0, 21))
    a = math.sqrt(2 * k + 1) + float(rng.uniform(0.0, 3.0))
    exact, bound = est.hermite_tail_bound(k, a)
    return exact - bound - 1e-14


@functools.cache
def _c1():
    return est.tail_constant_cn(1).c


@_trials(16, 50)
def suite_est_tail_constant(rng, t):
    N = int(rng.integers(0, 31))
    f = basis.random_expansion(1, N, rng)
    a = _c1() * math.sqrt(N + 1)
    span = math.sqrt(2 * N + 1) + 12.0

    def density(x):
        return np.abs(f.evaluate(x)) ** 2

    hi, _, _ = composite_gauss_legendre(
        density, a, max(a + 1e-6, span), abs_tol=1e-12, min_panels=max(4, N)
    )
    lo, _, _ = composite_gauss_legendre(
        density, -max(a + 1e-6, span), -a, abs_tol=1e-12, min_panels=max(4, N)
    )
    return (hi + lo) - 0.25 * f.norm() ** 2 - 1e-9


# -- quadratic -------------------------------------------------------------------------


def _random_symbol(rng, n):
    M = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return qd.QuadraticSymbol(n, M + M.T)


@_trials(17, 40)
def suite_quad_hamilton(rng, t):
    n = int(rng.integers(1, 3))
    sym = _random_symbol(rng, n)
    F = qd.hamilton_map(sym)
    X = rng.standard_normal(2 * n)
    Y = rng.standard_normal(2 * n)
    dev = max(
        F.probe_deviation,
        abs(qd.symplectic_form(X, F.F @ Y, n) - complex(sym.polarized(X, Y))),
    )
    return dev - 1e-12 * max(float(np.max(np.abs(sym.Q))), 1.0)


@_trials(18, 30)
def suite_quad_singular_scaling(rng, t):
    sym = (qd.kfp_symbol(float(rng.uniform(0.2, 3.0)))
           if t % 2 == 0 else qd.harmonic_symbol(int(rng.integers(1, 3))))
    c = float(rng.uniform(0.05, 40.0))
    S1 = qd.singular_space(qd.hamilton_map(sym))
    S2 = qd.singular_space(qd.hamilton_map(sym.scaled(c)))
    return -1.0 if S1.k0 == S2.k0 and S1.dims == S2.dims else 1.0


@_trials(19, 25)
def suite_quad_weyl(rng, t):
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
    return max(lin, adj, diag)


@_trials(20, 15)
def suite_quad_semigroup(rng, t):
    sym = qd.kfp_symbol(float(rng.uniform(0.3, 2.0))) if t % 2 == 0 else qd.harmonic_symbol(1)
    N = 8
    A = qd.weyl_quantize(sym, N)
    f = basis.random_expansion(A.n, N, rng)
    s, u = float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))
    one = qd.evolve(A, f, s + u)
    two = qd.evolve(A, qd.evolve(A, f, u), s)
    semi = (one - two).norm() - 1e-9 * f.norm()
    contr = one.norm() - f.norm() * (1 + 1e-8)
    return max(semi, contr)


# -- control ----------------------------------------------------------------------------


@functools.cache
def _harmonic_problem(N, gamma=None):
    """The 1-D harmonic oscillator on E_N, observed on the whole line, or on
    the periodic thick set of fraction ``gamma``; one problem per process,
    so its HUM plans serve every trial."""
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    if gamma is None:
        return ct.ControlProblem(A, np.eye(A.size))
    reg = rg.make_periodic_thick(1, 1.0, gamma, rg.truncate_radius(N, 1) + 1)
    return ct.ControlProblem(A, gram.gram_matrix(reg, N).matrix)


@_trials(21, 10)
def suite_control_duality(rng, t):
    # observed everywhere, the mode of level l = 2k + 1 costs
    # |c_k|^2 2 l e^{-2l} / (1 - e^{-2l})
    f0 = basis.random_expansion(1, 8, rng)
    res = ct.hum_control(_harmonic_problem(8), 1.0, f0)
    want = float(sum(abs(c) ** 2 * 2 * lam * math.exp(-2 * lam) / (1 - math.exp(-2 * lam))
                     for lam, c in zip(range(1, 18, 2), f0.coeffs)))
    return abs(res.cost - want) / want - 1e-6, res.residual - 1e-9


def suite_control_monotone(seed=0, trials=1):
    margins = []
    N = 8
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    R = rg.truncate_radius(N, 1) + 1
    small = rg.make_periodic_thick(1, 1.0, 0.35, R)
    ((lows, highs),) = small.axes
    big = rg.Region([(np.concatenate([lows, highs]), np.concatenate([highs, highs + 0.25]))],
                    trunc_radius=R)
    p_small, p_big = (ct.ControlProblem(A, gram.gram_matrix(region, N).matrix)
                      for region in (small, big))
    cts = [rep.c_value for rep in ct.observability_constants(p_small, [0.5, 1.0, 2.0])]
    for a, b in zip(cts, cts[1:]):
        margins.append(b - a * (1 + 1e-9))  # C_T nonincreasing in T
    c_big = ct.observability_constant(p_big, 1.0).c_value
    margins.append(c_big - cts[1] * (1 + 1e-9))  # shrink raises C_T
    rng = _rng(seed, 22, 0)
    f0 = basis.random_expansion(1, N, rng)
    cost_small = ct.hum_control(p_small, 1.0, f0).cost
    cost_big = ct.hum_control(p_big, 1.0, f0).cost
    margins.append(cost_big - cost_small * (1 + 1e-9))  # larger region no dearer
    return _verdict("control_monotone", len(margins), margins, seed)


@_trials(23, 3)
def suite_control_staircase(rng, t):
    f0 = basis.random_expansion(1, 12, rng)
    res = ct.lr_staircase(_harmonic_problem(12, 0.6), 1.0, f0, target=1e-6)
    energies = [s["energy_after"] for s in res.stages]
    decays = all(b < a for a, b in zip(energies, energies[1:]))
    return res.residual - 1e-4, -1.0 if decays else 1.0, 0.0 if res.flag != "ok" else -1.0


# every suite_<name> above, in definition order
SUITES = {name[len("suite_"):]: fn for name, fn in globals().items() if name.startswith("suite_")}


def run_suites(names=None, seed=0, trials=None):
    """Run the selected suites (all by default) with one master seed.

    ``trials`` optionally overrides each randomized suite's default trial
    count; it must be at least 1, so that every suite checks something.
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
