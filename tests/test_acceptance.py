"""Acceptance suite: one test per criterion, each at its stated tolerance.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Criteria with runtime budgets assert their own elapsed time.
"""

import math
import time

import numpy as np
import pytest

from hermite_obs import basis, cli, control as ct, estimates as est, gram
from hermite_obs import quadratic as qd, regions as rg, verify
from oracles import singular_space_exact

MASTER_SEED = 7


# -- 1. orthonormality and ladder algebra ----------------------------------------


def test_c01_orthonormality_and_ladder_algebra():
    start = time.time()
    # <Phi_a, Phi_b> = delta_ab +- 1e-10 for |a|, |b| <= 10, n <= 3
    for n in (1, 2, 3):
        region = rg.full_space(n, rg.truncate_radius(10, n) + 1)
        G = gram.gram_matrix(region, 10)
        assert np.max(np.abs(G.matrix - np.eye(G.size))) <= 1e-10

    # commutator [a_-, a_+] = Id, exact on coefficients to 1e-12
    rng = np.random.default_rng(MASTER_SEED)
    for n in (1, 2, 3):
        N = 6
        f = basis.random_expansion(n, N, rng)
        for axis in range(n):
            up = basis.apply_ladder(basis.RAISE, axis, f)
            du = basis.apply_ladder(basis.LOWER, axis, up)
            dn = basis.apply_ladder(basis.LOWER, axis, f)
            ud = basis.apply_ladder(basis.RAISE, axis, dn)
            M = max(du.N, ud.N, f.N)
            resid = (du.padded(M) - ud.padded(M) - f.padded(M)).norm()
            assert resid <= 1e-12 * max(f.norm(), 1.0)

    # oscillator eigenrelation exact on coefficients to 1e-12
    for n in (1, 2):
        for alpha in [(0,) * n, (2,) + (0,) * (n - 1), (1,) * n]:
            N = sum(alpha) + 1
            f = basis.unit_expansion(n, N, alpha)
            total = None
            for axis in range(n):
                xx = basis.apply_ladder(
                    basis.POSITION, axis, basis.apply_ladder(basis.POSITION, axis, f)
                )
                dd = basis.apply_ladder(
                    basis.DERIVATIVE, axis, basis.apply_ladder(basis.DERIVATIVE, axis, f)
                )
                term = xx - dd
                total = term if total is None else total + term
            want = f.padded(total.N).scaled(2 * sum(alpha) + n)
            assert (total - want).norm() <= 1e-12
    assert time.time() - start < 60.0


# -- 2. Gram exactness --------------------------------------------------------------


def test_c02_half_line_gram_exactness():
    region = rg.half_line(rg.truncate_radius(1, 1) + 1)
    G = gram.gram_matrix(region, 1)
    off = 1.0 / math.sqrt(2.0 * math.pi)
    want = np.array([[0.5, off], [off, 0.5]])
    assert np.max(np.abs(G.matrix - want)) <= 1e-10
    res = gram.spectral_constant(G)
    closed = (0.5 - off) ** -0.5
    assert abs(res.c_value - closed) <= 1e-8


# -- 3. bound dominance ----------------------------------------------------------------


def test_c03_theoretical_bound_dominance():
    start = time.time()
    N_list = list(range(4, 65, 4))
    R = rg.truncate_radius(max(N_list), 1) + 1
    cases = [
        ("open ball(0,1)", rg.interval_region(-1.0, 1.0, trunc_radius=R),
         gram.open_params((0.0,), 1.0)),
        ("density half-line", rg.half_line(R), gram.density_params(1, 0.5)),
    ]
    for gamma in (0.3, 0.5, 0.8):
        cases.append(
            ("thick gamma=%.1f" % gamma,
             rg.make_periodic_thick(1, 1.0, gamma, R),
             gram.thick_params(1, 1.0, gamma))
        )
    for label, region, params in cases:
        report = gram.scaling_study(region, N_list, bound=params)
        assert all(r["flag"] == "ok" for r in report.rows), label
        for row in report.rows:
            assert not math.isnan(row["bound_log"]), (label, row["N"])
            assert row["C_log"] <= row["bound_log"], (label, row["N"])
        assert report.dominance_ok, label
    assert time.time() - start < 600.0


# -- 4. scaling shapes --------------------------------------------------------------------


def test_c04_thick_scaling_selects_sqrt_and_half_line_exponent():
    N_list = [9, 16, 25, 36, 49, 64]
    R = rg.truncate_radius(max(N_list), 1) + 1
    for gamma in (0.3, 0.5, 0.8):
        region = rg.make_periodic_thick(1, 1.0, gamma, R)
        report = gram.scaling_study(region, N_list)
        assert report.best_model == "sqrtN", (gamma, report.fits)
    half = gram.scaling_study(rg.half_line(R), N_list)
    assert half.exponent_p >= 0.7
    density_bound = gram.density_params(1, 0.5)
    for row in half.rows:
        blog = gram.theoretical_bound_log(density_bound, row["N"])
        assert row["C_log"] <= blog


# -- 5. randomized estimate suites -----------------------------------------------------------


@pytest.mark.parametrize(
    "suite,trials",
    [
        ("est_bernstein", 500),
        ("est_weighted", 500),
        ("est_tails", 500),
        ("est_tail_constant", 500),
        ("est_remez", 700),  # regenerated small subsets leave >= 500 checks
        ("est_kovrijkine", 500),
    ],
)
def test_c05_estimate_suites(suite, trials):
    verdict = verify.SUITES[suite](seed=MASTER_SEED, trials=trials)
    assert verdict["trials"] >= 500
    assert verdict["failures"] == 0, verdict


# -- 6. singular spaces ------------------------------------------------------------------------


def test_c06_singular_spaces():
    S = qd.singular_space(qd.hamilton_map(qd.harmonic_symbol(1)))
    assert S.k0 == 0 and S.basis.shape[1] == 0

    kfp = qd.kfp_symbol(1.0)
    S_kfp = qd.singular_space(qd.hamilton_map(kfp))
    k0_exact, _, kernel_exact = singular_space_exact(kfp)
    assert S_kfp.k0 == 1 and S_kfp.basis.shape[1] == 0
    assert k0_exact == 1 and kernel_exact == []

    free = qd.QuadraticSymbol(1, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
    S_free = qd.singular_space(qd.hamilton_map(free))
    assert S_free.basis.shape[1] >= 1

    for c in (0.2, 5.0, 300.0):
        for sym in (kfp, qd.harmonic_symbol(2), free):
            S1 = qd.singular_space(qd.hamilton_map(sym))
            S2 = qd.singular_space(qd.hamilton_map(sym.scaled(c)))
            assert S1.k0 == S2.k0 and S1.dims == S2.dims


# -- 7. dissipation ----------------------------------------------------------------------------


def test_c07_dissipation():
    # harmonic: the masked-propagator norm equals e^{-(2k+2+n) t} exactly
    n = 1
    A = qd.weyl_quantize(qd.harmonic_symbol(n), 12)
    rep = qd.dissipation_check(A, [0.25, 0.6, 1.0], [1, 3, 5], seed=MASTER_SEED)
    for it, t in enumerate(rep.t_grid):
        for jk, k in enumerate(rep.k_grid):
            want = math.exp(-(2 * k + 2 + n) * t)
            assert abs(rep.ratios[it, jk] - want) <= 1e-9

    # KFP: log decay linear in k at fixed t, R^2 >= 0.9, resolved with N >= 3k
    k_grid = [2, 3, 4, 5, 6]
    A_kfp = qd.weyl_quantize(qd.kfp_symbol(1.0), 3 * max(k_grid))
    rep_kfp = qd.dissipation_check(A_kfp, [0.5, 1.0], k_grid, seed=MASTER_SEED)
    for it in range(len(rep_kfp.t_grid)):
        assert rep_kfp.slope_per_t[it] < 0
        assert rep_kfp.r2_per_t[it] >= 0.9


# -- 8. control --------------------------------------------------------------------------------


def test_c08_control_full_space_duality_and_thick_hum():
    # omega = R: HUM cost matches the per-mode closed form to 1e-6 relative
    N = 8
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    prob = ct.ControlProblem(A, np.eye(A.size))
    rng = np.random.default_rng(MASTER_SEED)
    f0 = basis.random_expansion(1, N, rng)
    res = ct.hum_control(prob, 1.0, f0)
    lam = 2 * basis.index_levels(1, N) + 1
    closed = float(
        sum(
            abs(f0.coeffs[i]) ** 2
            * 2 * lam[i] * math.exp(-2 * lam[i]) / (1 - math.exp(-2 * lam[i]))
            for i in range(len(lam))
        )
    )
    assert abs(res.cost - closed) / closed <= 1e-6

    # thick region, N = 20, T = 1, 256-bit Gramian pipeline
    N = 20
    reg = rg.make_periodic_thick(1, 1.0, 0.6, rg.truncate_radius(N, 1) + 1)
    P = gram.gram_matrix(reg, N).matrix
    A20 = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    f0 = basis.random_expansion(1, N, np.random.default_rng(MASTER_SEED + 1))
    res20 = ct.hum_control(ct.ControlProblem(A20, P), 1.0, f0, precision_bits=256)
    assert res20.precision_bits >= 256
    assert res20.residual <= 1e-6


def test_c08_staircase_residual_and_decay():
    N = 24
    reg = rg.make_periodic_thick(1, 1.0, 0.6, rg.truncate_radius(N, 1) + 1)
    P = gram.gram_matrix(reg, N).matrix
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    f0 = basis.random_expansion(1, N, np.random.default_rng(MASTER_SEED + 2))
    res = ct.lr_staircase(ct.ControlProblem(A, P), 1.0, f0, target=1e-6)
    assert res.flag == "ok"
    assert res.residual <= 1e-4
    energies = [s["energy_after"] for s in res.stages]
    assert all(b < a for a, b in zip(energies, energies[1:]))


# -- 9. cost blowup ----------------------------------------------------------------------------


def test_c09_harmonic_blowup_shape():
    start = time.time()
    N = 16
    reg = rg.make_periodic_thick(1, 1.0, 0.2, rg.truncate_radius(N, 1) + 1)
    P = gram.gram_matrix(reg, N).matrix
    A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
    study = ct.cost_blowup_study(ct.ControlProblem(A, P), [1.0, 0.5, 0.25, 0.125])
    assert not study.excluded
    fit = study.fits[1]
    assert fit["slope"] > 0
    assert fit["r2"] >= 0.9
    assert time.time() - start < 900.0


def test_c09_kfp_model_selection():
    """Blowup-model comparison for the hypoelliptic example, k_0 = 1.

    The null-controllability cost of the full KFP equation is bounded by
    exp(C / T^(2 k_0 + 1)): the e^{C sqrt(k)} spectral inequality is paired
    with high-mode dissipation at the rate e^{-c t^(2 k_0 + 1) k}.  That is an
    upper bound for the whole equation, not the shape of C_T for the Galerkin
    system on E_N, which is capped by a finite-level ceiling:

    Ceiling.  Along the adjoint flow g(t) = e^{-tA^H} g0 on E_N,
    d/dt ||g||^2 = -g^H (A + A^H) g <= 0 when A is accretive, so
    ||g(t)|| >= ||g(T)|| on [0, T] and
        int_0^T g^H P g dt >= T lambda_min(P) ||g(T)||^2.
    Hence C_T <= 1 / (T lambda_min(P)) = C_N(w)^2 / T.

    Band.  Take g0 = v, a unit eigenvector of P for lambda_min.  Then
    ||g(t) - v|| <= e^{t||A||} - 1, so
    ||P^(1/2) g(t)|| <= sqrt(lambda_min) + sqrt(lambda_max) (e^{t||A||} - 1),
    and ||g(T)|| >= e^{-T||A||}.  Hence
        e^{-2T||A||} / (1 + sqrt(lambda_max/lambda_min) (e^{T||A||} - 1))^2
            <= T C_T lambda_min(P) <= 1,
    and T C_T lambda_min(P) -> 1 as T -> 0.  At N = 16 the ratio is
    0.06-0.28 on the study's horizons, so log C_T is concave in 1/T there
    and a least-squares fit cannot prefer T^-3 over T^-1.

    The exponent comparison is therefore made where the Galerkin model can
    show it: the short-time dissipation rate delta(t), fitted as
    delta(t) ~ t^p, must give p within 0.1 of 2 k_0 + 1 and nearer to it
    than to 1.
    """
    start = time.time()
    kfp = qd.kfp_symbol(1.0)
    k0 = qd.singular_space(qd.hamilton_map(kfp)).k0
    assert k0 == 1
    p_matched = 2 * k0 + 1

    N = 16
    reg = rg.make_periodic_thick(2, 1.0, 0.2, rg.truncate_radius(N, 2) + 1)
    P = gram.gram_matrix(reg, N).matrix
    A = qd.weyl_quantize(kfp, N)
    study = ct.cost_blowup_study(ct.ControlProblem(A, P), [1.0, 0.5, 0.25, 0.125])
    assert not study.excluded
    assert set(study.fits) == {1, p_matched}

    # the ceiling T C_T <= C_N(w)^2 = 1 / lambda_min(P), A accretive on E_N
    herm = 0.5 * (A.matrix + A.matrix.conj().T)
    assert np.linalg.eigvalsh(herm)[0] >= 0.0
    lam = np.linalg.eigvalsh(P)
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    for row in study.rows:
        assert row["T"] * row["C_T"] * lam_min <= 1.0 + 1e-9, row

    # the two-sided band at a short horizon
    T = 2.0 ** -10
    rep = ct.observability_constant(ct.ControlProblem(A, P), T)
    assert rep.flag == "ok"
    norm_A = float(np.linalg.norm(A.matrix, 2))
    lower = math.exp(-2 * T * norm_A) / (
        1 + math.sqrt(lam_max / lam_min) * math.expm1(T * norm_A)
    ) ** 2
    ratio = T * rep.c_value * lam_min
    assert lower <= ratio <= 1.0 + 1e-9, (lower, ratio)

    # the dissipation-matched exponent, measured on delta(t)
    A_d = qd.weyl_quantize(kfp, 24)
    diss = qd.dissipation_check(A_d, [0.05, 0.1, 0.2, 0.4], list(range(2, 9)),
                                seed=MASTER_SEED)
    p = diss.rate_constants["time_exponent"]
    assert abs(p - p_matched) <= 0.1, p
    assert abs(p - p_matched) < abs(p - 1), p
    assert time.time() - start < 900.0


# -- 10. determinism ----------------------------------------------------------------------------


def test_c10_verify_is_byte_deterministic(tmp_path):
    argv = ["verify", "--suite", "all", "--seed", str(MASTER_SEED), "--quiet"]
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    assert cli.run(argv + ["--out", out_a]) == cli.EXIT_OK
    assert cli.run(argv + ["--out", out_b]) == cli.EXIT_OK
    assert (tmp_path / "run_a.json").read_bytes() == (tmp_path / "run_b.json").read_bytes()
    assert (tmp_path / "run_a.csv").read_bytes() == (tmp_path / "run_b.csv").read_bytes()
