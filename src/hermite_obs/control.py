"""Finite-dimensional observability constants, minimal-norm control through
Gramian solves, the staircase low-mode/dissipation control strategy, and
cost-blowup studies in the control horizon.

The state space is E_N with a Galerkin generator A (from a Weyl-quantized
symbol); observation and control couple through the restriction Gram matrix
P of the control region, i.e. B = P is the Galerkin compression of
multiplication by the region indicator.  The observability constant over a
horizon T is the largest generalized eigenvalue of the pencil

    (e^{-TA} e^{-TA^H},  W),   W = int_0^T e^{-tA} P e^{-tA^H} dt,

and the minimal-norm steering control solves W_c lam = -e^{-TA} f0 with the
reachability Gramian W_c built from P^2 (the control enters through B = P
with cost ||u(t)||^2_{L2}).  Ill-conditioned Gramians escalate to software
floating point with the whole pipeline (propagators, solve, re-simulation)
rebuilt in that precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from mpmath import mp

from . import basis
from .basis import ContractViolation, HermiteExpansion
from .quadratic import GalerkinOperator

GRAMIAN_ORDER = 8
GRAMIAN_REL_TOL = 1e-8
MAX_SUBINTERVALS = 64


@dataclass
class ControlProblem:
    """Galerkin generator + region coupling + horizon."""

    A: GalerkinOperator
    piomega: np.ndarray
    T: float
    label: str = ""

    def __post_init__(self):
        if self.piomega.shape != (self.A.size, self.A.size):
            raise ContractViolation("coupling matrix must match the state dimension")
        if self.T <= 0:
            raise ContractViolation("horizon must be positive")
        dev = float(np.max(np.abs(self.piomega - self.piomega.T.conj())))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(self.piomega)))):
            raise ContractViolation("coupling matrix must be Hermitian")


# -- time quadrature ------------------------------------------------------------


@dataclass
class _Grid:
    nodes: list          # absolute times in (0, T)
    weights: list
    props: list          # expm(-s A) per node
    prop_T: object       # expm(-T A)
    subintervals: int


def _np_propagator_grid(Amat, T, subintervals, order=GRAMIAN_ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    h = T / subintervals
    offsets = 0.5 * h * (x + 1.0)
    weights = 0.5 * h * w
    E_off = [scipy.linalg.expm(-float(o) * Amat) for o in offsets]
    E_h = scipy.linalg.expm(-h * Amat)
    nodes, wts, props = [], [], []
    base = np.eye(Amat.shape[0], dtype=complex)
    for j in range(subintervals):
        for k in range(order):
            nodes.append(j * h + offsets[k])
            wts.append(weights[k])
            props.append(base @ E_off[k])
        base = base @ E_h
    return _Grid(nodes, wts, props, base, subintervals)


def _np_gramian(Amat, P, T, rel_tol=GRAMIAN_REL_TOL):
    """W = int_0^T e^{-tA} P e^{-tA^H} dt by composite Gauss, refined until
    the Frobenius norm stagnates to rel_tol."""
    prev = None
    subintervals = 1
    while True:
        grid = _np_propagator_grid(Amat, T, subintervals)
        W = np.zeros_like(Amat, dtype=complex)
        for wt, E in zip(grid.weights, grid.props):
            W += wt * (E @ P @ E.conj().T)
        W = 0.5 * (W + W.conj().T)
        if prev is not None:
            if np.linalg.norm(W - prev, "fro") <= rel_tol * np.linalg.norm(W, "fro"):
                return W, grid
        if subintervals >= MAX_SUBINTERVALS:
            return W, grid
        prev = W
        subintervals *= 2


def _mp_expm(Amat_mp):
    return mp.expm(Amat_mp)


def _to_mp_matrix(Amat):
    rows, cols = Amat.shape
    M = mp.matrix(rows, cols)
    for i in range(rows):
        for j in range(cols):
            z = complex(Amat[i, j])
            M[i, j] = mp.mpc(z.real, z.imag)
    return M


def _mp_propagator_grid(Amat_mp, T, subintervals, order=GRAMIAN_ORDER):
    x, w = np.polynomial.legendre.leggauss(order)
    h = mp.mpf(T) / subintervals
    offsets = [h * (mp.mpf(float(xi)) + 1) / 2 for xi in x]
    weights = [h * mp.mpf(float(wi)) / 2 for wi in w]
    E_off = [_mp_expm(-o * Amat_mp) for o in offsets]
    E_h = _mp_expm(-h * Amat_mp)
    nodes, wts, props = [], [], []
    base = mp.eye(Amat_mp.rows)
    for j in range(subintervals):
        for k in range(order):
            nodes.append(j * h + offsets[k])
            wts.append(weights[k])
            props.append(base * E_off[k])
        base = base * E_h
    return _Grid(nodes, wts, props, base, subintervals)


def _mp_hermitize(W):
    out = mp.matrix(W.rows, W.cols)
    for i in range(W.rows):
        for j in range(W.cols):
            out[i, j] = (W[i, j] + mp.conj(W[j, i])) / 2
    return out


def _mp_gramian(Amat_mp, P_mp, T, rel_tol=GRAMIAN_REL_TOL):
    def frob(M):
        return mp.sqrt(sum(abs(M[i, j]) ** 2 for i in range(M.rows) for j in range(M.cols)))

    prev = None
    subintervals = 1
    while True:
        grid = _mp_propagator_grid(Amat_mp, T, subintervals)
        W = mp.zeros(Amat_mp.rows)
        for wt, E in zip(grid.weights, grid.props):
            W += wt * (E * P_mp * E.transpose_conj())
        W = _mp_hermitize(W)
        if prev is not None and frob(W - prev) <= rel_tol * frob(W):
            return W, grid
        if subintervals >= MAX_SUBINTERVALS:
            return W, grid
        prev = W
        subintervals *= 2


# -- observability ---------------------------------------------------------------


@dataclass
class ObservabilityReport:
    T: float
    c_value: float
    c_log: float
    extremal: Optional[HermiteExpansion]
    method: str
    precision_bits: int
    flag: str  # 'ok' or 'singular_floor' (value then a certified lower bound)
    subintervals: int = 0


def observability_constant(problem: ControlProblem, precision_bits=53,
                           max_bits=4096) -> ObservabilityReport:
    """Best constant C_T with ||g(T)||^2 <= C_T int_0^T ||g(t)||^2_{L2(w)} dt
    along the adjoint flow g(t) = e^{-tA^H} g0 on E_N.

    Solved as the largest generalized eigenvalue of (e^{-TA} e^{-TA^H}, W).
    The pencil escalates to software floating point when W is too
    ill-conditioned for double precision; if W stays numerically singular
    even at the maximal mantissa, a certified lower bound is returned with a
    flag.
    """
    A = problem.A.matrix
    P = problem.piomega.astype(complex)
    T = problem.T

    if precision_bits <= 53:
        W, grid = _np_gramian(A, P, T)
        ET = grid.prop_T
        M = ET @ ET.conj().T
        try:
            cond = np.linalg.cond(W)
            if cond < 1e12:
                vals, vecs = scipy.linalg.eigh(M, W)
                idx = int(np.argmax(vals))
                c = float(vals[idx])
                g0 = vecs[:, idx]
                g0 = g0 / np.linalg.norm(g0)
                extremal = HermiteExpansion(problem.A.n, problem.A.N, g0)
                return ObservabilityReport(
                    T, c, math.log(c), extremal, "generalized-eigen", 53, "ok",
                    grid.subintervals,
                )
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
            pass
        precision_bits = 256

    bits = max(precision_bits, 256)
    while True:
        with mp.workprec(bits + 16):
            A_mp = _to_mp_matrix(A)
            P_mp = _to_mp_matrix(P)
            W, grid = _mp_gramian(A_mp, P_mp, T)
            ET = grid.prop_T
            M = _mp_hermitize(ET * ET.transpose_conj())
            try:
                L = mp.cholesky(W)
            except Exception:
                L = None
            if L is None:
                if bits >= max_bits:
                    ridge = mp.mnorm(W, "f") * mp.mpf(2) ** (-bits // 2)
                    Wr = W + ridge * mp.eye(W.rows)
                    L = mp.cholesky(Wr)
                    Li = _mp_triangular_inverse(L)
                    Mt = _mp_hermitize(Li * M * Li.transpose_conj())
                    ev = mp.eighe(Mt, eigvals_only=True)
                    c = ev[ev.rows - 1]
                    return ObservabilityReport(
                        T, float(c), float(mp.log(c)), None, "generalized-eigen",
                        bits, "singular_floor", grid.subintervals,
                    )
                bits *= 2
                continue
            Li = _mp_triangular_inverse(L)
            Mt = _mp_hermitize(Li * M * Li.transpose_conj())
            ev, Y = mp.eighe(Mt)
            c = ev[ev.rows - 1]
            y = Y[:, Y.cols - 1]
            g0_mp = Li.transpose_conj() * y
            g0 = np.array([complex(g0_mp[i]) for i in range(g0_mp.rows)])
            nrm = np.linalg.norm(g0)
            extremal = None
            if nrm > 0 and np.all(np.isfinite(g0)):
                extremal = HermiteExpansion(problem.A.n, problem.A.N, g0 / nrm)
            return ObservabilityReport(
                T, float(c), float(mp.log(c)), extremal, "generalized-eigen",
                bits, "ok", grid.subintervals,
            )


def _mp_triangular_inverse(L):
    """Inverse of a lower-triangular mp matrix by forward substitution."""
    m = L.rows
    inv = mp.zeros(m)
    for col in range(m):
        e = mp.zeros(m, 1)
        e[col] = mp.mpf(1)
        x = mp.zeros(m, 1)
        for i in range(m):
            s = e[i]
            for j in range(i):
                s -= L[i, j] * x[j]
            x[i] = s / L[i, i]
        for i in range(m):
            inv[i, col] = x[i]
    return inv


def harmonic_full_space_ct(n, N, T):
    """Closed-form C_T for the level-diagonal generator observed everywhere.

    Per eigenvalue lam = 2k + n the scalar constant is
    2 lam e^{-2 lam T} / (1 - e^{-2 lam T}); the worst mode is the lowest.
    """
    best = 0.0
    for k in range(N + 1):
        lam = 2.0 * k + n
        best = max(best, 2.0 * lam * math.exp(-2.0 * lam * T) / (1.0 - math.exp(-2.0 * lam * T)))
    return best


# -- minimal-norm control ---------------------------------------------------------


@dataclass
class ControlResult:
    times: list
    controls: list              # HermiteExpansion per time node
    cost: float
    residual: float             # ||f(T)|| / ||f0||
    gramian_cond: float
    precision_bits: int
    flag: str
    subintervals: int = 0


def hum_control(problem: ControlProblem, f0: HermiteExpansion,
                precision_bits=53, max_bits=4096) -> ControlResult:
    """Minimal-norm control steering f0 to (numerical) zero at time T.

    Solves W_c lam = -e^{-TA} f0 with the reachability Gramian
    W_c = int_0^T e^{-sA} P^2 e^{-sA^H} ds and applies
    u(t) = P e^{-(T-t)A^H} lam.  The verdict is the re-simulated relative
    residual on the same time grid; an uncontrollably ill-conditioned
    Gramian yields a partial control with the residual documented.
    """
    if f0.n != problem.A.n or f0.N != problem.A.N:
        raise ContractViolation("initial state lives on the wrong space")
    A = problem.A.matrix
    P = problem.piomega.astype(complex)
    T = problem.T
    nrm0 = f0.norm()
    if nrm0 == 0.0:
        return ControlResult([], [], 0.0, 0.0, 1.0, precision_bits, "ok")

    if precision_bits <= 53:
        W, grid = _np_gramian(A, P @ P, T)
        b = grid.prop_T @ f0.coeffs
        cond = float(np.linalg.cond(W))
        if cond < 1e12:
            lam = np.linalg.solve(W, -b)
            flag = "ok"
        else:
            lam, *_ = np.linalg.lstsq(W, -b, rcond=None)
            flag = "ill_conditioned"
        controls, times, cost = [], [], 0.0
        f_T = b.copy()
        for s, wt, E in zip(grid.nodes, grid.weights, grid.props):
            u = P @ (E.conj().T @ lam)
            controls.append(HermiteExpansion(f0.n, f0.N, u))
            times.append(T - s)
            cost += wt * float(np.vdot(u, u).real)
            f_T += wt * (E @ (P @ u))
        residual = float(np.linalg.norm(f_T)) / nrm0
        order = np.argsort(times)
        return ControlResult(
            [times[i] for i in order], [controls[i] for i in order],
            cost, residual, cond, 53, flag, grid.subintervals,
        )

    bits = max(precision_bits, 256)
    with mp.workprec(bits + 16):
        A_mp = _to_mp_matrix(A)
        P_mp = _to_mp_matrix(P)
        W, grid = _mp_gramian(A_mp, P_mp * P_mp, T)
        f0_mp = mp.matrix([[mp.mpc(complex(z).real, complex(z).imag)] for z in f0.coeffs])
        b = grid.prop_T * f0_mp
        lam = mp.lu_solve(W, -b)
        sv = mp.svd_c(W, compute_uv=False)
        cond = float(sv[0] / sv[sv.rows - 1]) if sv[sv.rows - 1] > 0 else math.inf
        controls, times, cost = [], [], mp.mpf(0)
        f_T = +b
        for s, wt, E in zip(grid.nodes, grid.weights, grid.props):
            u = P_mp * (E.transpose_conj() * lam)
            times.append(float(T - s))
            controls.append(
                HermiteExpansion(
                    f0.n, f0.N, np.array([complex(u[i]) for i in range(u.rows)])
                )
            )
            cost += wt * sum(abs(u[i]) ** 2 for i in range(u.rows))
            f_T += wt * (E * (P_mp * u))
        residual = float(mp.norm(f_T)) / nrm0
        order = np.argsort(times)
        return ControlResult(
            [times[i] for i in order], [controls[i] for i in order],
            float(cost), residual, cond, bits, "ok", grid.subintervals,
        )


# -- staircase strategy ------------------------------------------------------------


@dataclass
class StaircaseResult:
    stages: list                # dicts: stage, k_j, T_j, stage_cost, energy_after
    total_cost: float
    residual: float
    flag: str
    params: dict = field(default_factory=dict)


def lr_staircase(problem: ControlProblem, f0: HermiteExpansion, K0=2,
                 a=0.5, b=1.0, m=None, target=1e-6) -> StaircaseResult:
    """Iterative low-mode steering with free dissipation in between.

    Stage j works on the dyadic time slice T_j = T 2^{-j-1}: during the
    first half the modes of E_{k_j} (k_j = min(ceil(K0 2^j), N), a leading
    block in the graded order) are steered to zero through the Gramian of
    the compressed problem, during the second half the system evolves freely
    and dissipation crushes what the control spilled into higher modes.
    The run stops once the remaining energy is below ``target`` relative to
    the initial one, or after the stage that controls the full space.
    """
    if f0.n != problem.A.n or f0.N != problem.A.N:
        raise ContractViolation("initial state lives on the wrong space")
    A = problem.A.matrix
    P = problem.piomega.astype(complex)
    T = problem.T
    N = problem.A.N
    n = problem.A.n
    nrm0 = f0.norm()
    params = {"K0": K0, "a": a, "b": b, "m": m, "target": target}
    if nrm0 == 0.0:
        return StaircaseResult([], 0.0, 0.0, "ok", params)

    f = f0.coeffs.copy()
    stages = []
    total_cost = 0.0
    elapsed = 0.0
    j = 0
    flag = "ok"
    while True:
        k_j = min(int(math.ceil(K0 * 2**j)), N)
        T_j = T * 2.0 ** (-j - 1)
        tau = T_j / 2.0
        d = basis.space_dimension(n, k_j)
        A_j = A[:d, :d]
        P_j = P[:d, :d]
        W_j, grid = _np_gramian(A_j, P_j @ P_j, tau)
        b_j = grid.prop_T @ f[:d]
        try:
            cond = np.linalg.cond(W_j)
            if not np.isfinite(cond) or cond > 1e13:
                raise np.linalg.LinAlgError("gramian condition %.3g" % cond)
            lam = np.linalg.solve(W_j, -b_j)
        except np.linalg.LinAlgError:
            flag = "stage_gramian_failure:%d" % j
            break
        # active half: full-state simulation forced by the designed control
        E_full = scipy.linalg.expm(-tau * A)
        f_new = E_full @ f
        stage_cost = 0.0
        for s, wt, E_sub in zip(grid.nodes, grid.weights, grid.props):
            u_sub = P_j @ (E_sub.conj().T @ lam)
            u_full = np.zeros_like(f)
            u_full[:d] = u_sub
            force = P @ u_full
            f_new += wt * (scipy.linalg.expm(-(float(s)) * A) @ force)
            stage_cost += wt * float(np.vdot(u_sub, u_sub).real)
        # passive half: free dissipation
        f = scipy.linalg.expm(-tau * A) @ f_new
        elapsed += T_j
        total_cost += stage_cost
        energy = float(np.linalg.norm(f))
        stages.append(
            {
                "stage": j,
                "k_j": k_j,
                "T_j": T_j,
                "stage_cost": stage_cost,
                "energy_after": energy,
            }
        )
        if energy <= target * nrm0 or k_j >= N or j > 60:
            break
        j += 1
    if elapsed < T:
        f = scipy.linalg.expm(-(T - elapsed) * A) @ f
    residual = float(np.linalg.norm(f)) / nrm0
    return StaircaseResult(stages, total_cost, residual, flag, params)


# -- cost blowup -------------------------------------------------------------------


@dataclass
class BlowupStudy:
    rows: list                   # dicts: T, C_T, c_log, precision_bits, method, flag
    fits: dict                   # exponent -> {slope, intercept, r2, ssr}
    k0: int
    excluded: list = field(default_factory=list)


def cost_blowup_study(A: GalerkinOperator, piomega, T_list, k0,
                      precision_bits=53) -> BlowupStudy:
    """Observability constants over shrinking horizons and blowup-shape fits.

    Fits log C_T against T^(-(2 k0 + 1)) (the dissipation-matched shape) and
    against T^(-1) for model comparison; horizons whose pencil hit the
    precision ceiling are excluded from fits and listed.

    The fits are a comparison, not a law expected at fixed N.  For an
    accretive generator the adjoint flow does not grow in norm, so
    int_0^T g^H P g dt >= T lambda_min(P) ||g(T)||^2 and every horizon obeys
    the finite-level ceiling C_T <= 1 / (T lambda_min(P)) = C_N(w)^2 / T, with
    T C_T -> C_N(w)^2 as T -> 0.  The exp(C / T^(2 k0 + 1)) cost bound holds
    for the full equation; on E_N the ceiling keeps log C_T concave in 1/T.
    """
    T_list = list(T_list)
    if any(b >= a for a, b in zip(T_list, T_list[1:])):
        raise ContractViolation("T_list must be strictly decreasing")
    rows = []
    excluded = []
    for T in T_list:
        rep = observability_constant(
            ControlProblem(A, piomega, T), precision_bits=precision_bits
        )
        row = {
            "T": T,
            "C_T": rep.c_value,
            "c_log": rep.c_log,
            "precision_bits": rep.precision_bits,
            "method": rep.method,
            "flag": rep.flag,
        }
        rows.append(row)
        if rep.flag != "ok":
            excluded.append(T)
    fits = {}
    usable = [r for r in rows if r["flag"] == "ok"]
    exponents = sorted({1, 2 * k0 + 1})
    if len(usable) >= 3:
        y = np.array([r["c_log"] for r in usable])
        for p in exponents:
            g = np.array([r["T"] ** (-float(p)) for r in usable])
            Amat = np.column_stack([g, np.ones_like(g)])
            coef, *_ = np.linalg.lstsq(Amat, y, rcond=None)
            resid = y - Amat @ coef
            ssr = float(resid @ resid)
            tot = float(np.sum((y - y.mean()) ** 2))
            fits[p] = {
                "slope": float(coef[0]),
                "intercept": float(coef[1]),
                "ssr": ssr,
                "r2": 1.0 - ssr / tot if tot > 0 else 1.0,
            }
    return BlowupStudy(rows, fits, k0, excluded)
