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
with cost ||u(t)||^2_{L2}).  Gramians are exact (:func:`arith.taylor`): in
closed form for a diagonal generator (the harmonic oscillator's), else one
truncated Taylor table over a short step, then doubling up to T.  Both
pipelines are written once over a backend (:mod:`hermite_obs.arith`) under
mp.workprec(bits + 16), which is also the precision of log C_T.  An
ill-conditioned Gramian, or an explicit precision, runs the whole pipeline
(Gramian, solve, control grid, re-simulation) in fixed point at that
precision.  Each staircase stage is HUM on the leading block of its modes.
HUM's Gramian depends on the system, not on the initial state: a
ControlProblem keeps one plan per (precision, block, horizon), with W, its
factor and cond and the grid propagators, and each call applies it to its
initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from mpmath import mp

from . import arith, basis
from .basis import ContractViolation, HermiteExpansion
from .quadratic import GalerkinOperator, hamilton_map, singular_space

GRID_ORDER = 8  # Gauss nodes per subinterval of the control grid
COND_MAX = 1e12  # double-precision Gramians at or above this condition are flagged
STAIRCASE_K0 = 2  # cutoff of the first staircase stage's controlled modes
MAX_GRID = 2**15  # samples (steps x GRID_ORDER) of one HUM plan's control grid


@dataclass(frozen=True)
class ControlProblem:
    """Galerkin generator + region coupling, and what every pipeline builds on
    them: the coupling in each backend and the HUM plans.  The matrices are
    read-only copies taken at construction and the fields cannot be rebound,
    so a kept plan always describes its problem.  Horizons are arguments."""

    A: GalerkinOperator
    piomega: np.ndarray
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    couplings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.piomega.shape != (self.A.size, self.A.size):
            raise ContractViolation("coupling matrix must match the state dimension")
        if not np.all(np.isfinite(self.piomega)):
            raise ContractViolation("coupling matrix must be finite")
        dev = float(np.max(np.abs(self.piomega - self.piomega.T.conj())))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(self.piomega)))):
            raise ContractViolation("coupling matrix must be Hermitian")
        object.__setattr__(self, "A", replace(self.A, matrix=_read_only(self.A.matrix)))
        object.__setattr__(self, "piomega", _read_only(self.piomega))

    def coupling(self, ar):
        """P in ``ar``'s arithmetic, read once per precision into
        ``couplings``: the one place where P enters a backend."""
        if ar.bits not in self.couplings:
            self.couplings[ar.bits] = ar.from_np(self.piomega)
        return self.couplings[ar.bits]

    def plan(self, ar, d, T):
        """The HUM plan (:func:`_plan`) of the leading d modes over [0, T] at
        ``ar``'s precision, built on first use and kept in ``plans`` under
        (bits, d, T).  A grid of more than ``MAX_GRID`` samples is refused
        before any propagator is built."""
        if (key := (ar.bits, d, T)) not in self.plans:
            if (steps := arith.step_count(self.A.matrix[:d, :d], T)) * GRID_ORDER > MAX_GRID:
                raise ContractViolation("HUM grid of 2^%d steps x %d nodes is above MAX_GRID = %d"
                                        % (steps.bit_length() - 1, GRID_ORDER, MAX_GRID))
            self.plans[key] = _plan(ar, self.A.matrix, self.coupling(ar), d, T)
        return self.plans[key]


def _check_horizons(*Ts):
    """Refuse, before any work, a horizon that is not positive and finite."""
    if bad := [T for T in Ts if not (math.isfinite(T) and T > 0)]:
        raise ContractViolation("horizon must be positive and finite, got %r" % bad[0])


def _read_only(M):
    M = np.array(M)
    M.flags.writeable = False
    return M


# -- HUM on a leading block ----------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """HUM's Gramian, solver and grid on one block, precision and horizon."""

    d: int
    W: object
    L: object          # fixed point: the factor of W, or of the ridged W; double: None
    cond: float
    E_T: object        # e^{-TA_d}
    times: tuple       # T - s at the grid nodes, increasing
    weights: tuple     # Gauss weights of one step
    out: tuple         # per offset o: v_j -> u(jh + o)
    back: tuple        # per offset o: u -> weighted state increment
    E_ctl_H: object    # e^{-hA_d^H}
    E_sim: object      # e^{-hA}
    E: object          # e^{-TA}; E_T itself when the block is the whole space
    steps: int
    m: int


def _plan(ar, A, P, d, T):
    """The part of HUM on the leading d modes (the subscript d) that does not
    depend on the initial state: :func:`arith.taylor` of A_d, with Q = P_d^2,
    gives the Gramian W, e^{-TA_d} and the propagators at the ``GRID_ORDER``
    Gauss nodes of the 2^k steps of [0, T].  In fixed point one Cholesky factor of W
    serves cond(W) and every solve (the ridged W's factor if W does not
    factor); in double precision cond(W) is kept, and :func:`_hum` compares it
    with ``COND_MAX`` at each call.  The full generator's propagators at the
    grid offsets map the samples back into the state (``back``); e^{-TA} is
    e^{-hA} squared k times, unless the block is all of E_N.
    """
    x, w = ar.gauss(GRID_ORDER)
    P_d = P[:d, :d]
    props, W, E_T, steps, m = arith.taylor(ar, A[:d, :d], T, x, P_d @ P_d)
    if ar is arith.DOUBLE:
        L, cond = None, ar.cond(W)
    else:
        L = ar.cholesky(W)
        cond = math.inf if L is None else ar.cond(W, L)
        L = L or ar.cholesky(ar.ridged(W))
    h = T / steps
    offsets = [h * (xi + 1) / 2 for xi in x]
    weights = tuple(h * wi / 2 for wi in w)
    E_h, *ctl = props
    E_sim, *sim = props if d == A.shape[0] else arith.taylor(ar, A, h, x)[0]
    E = E_T
    if d < A.shape[0]:
        E = E_sim
        for _ in range(steps.bit_length() - 1):
            E = E @ E
    times = [float(T - (j * h + o)) for j in range(steps) for o in offsets]
    return _Plan(d, W, L, cond, E_T, tuple(times[::-1]), weights,
                 tuple(P_d @ ar.adj(E) for E in ctl),                        # v_j -> u
                 tuple((E @ P[:, :d]) * wt for wt, E in zip(weights, sim)),  # u -> state
                 ar.adj(E_h), E_sim, E, steps, m)


def _hum(ar, plan, f):
    """HUM's apply step: steer the full state f by the control of the leading
    block that ``plan`` (:func:`_plan`) describes.  W lam = -b, b =
    e^{-TA_d} f_d, is flagged unless cond(W) < ``COND_MAX`` in double
    precision (then solved in least squares) or W factors in fixed point
    (else ridged).  u(s) = P_d e^{-s A_d^H} lam, s the time to go, is sampled
    on the grid and drives the full state: e^{-sA} = (e^{-hA})^j e^{-oA} at
    s = jh + o acts on vectors, summed over the steps j in Horner form.
    v_j = e^{-jh A_d^H} lam is stepped once per step and the v_j stacked
    as the columns of one matrix V (``ar.stack``); each grid offset o then
    takes its samples at every step as one product U_o = out_o V, its cost
    as one Frobenius norm, and its forced pieces as one more product, the
    same arithmetic in both backends.
    Returns the flag, the sample blocks U_o in the backend, the cost
    sum w ||u||^2 (inf where a norm or its square passes the double range)
    and the state at T, e^{-TA} f plus the forced response
    sum w e^{-sA} P[:, :d] u(s).
    """
    b = plan.E_T @ f[:plan.d]
    if ar is arith.DOUBLE:
        flag = "ok" if plan.cond < COND_MAX else "ill_conditioned"
        lam = ar.solve(plan.W, -b) if flag == "ok" else np.linalg.lstsq(plan.W, -b, rcond=None)[0]
    else:
        flag = "ok" if plan.cond < math.inf else "ill_conditioned"
        lam = ar.solve(plan.W, -b, plan.L)
    vs = [lam]                                                     # v_j = e^{-jh A_d^H} lam
    while len(vs) < plan.steps:
        vs.append(plan.E_ctl_H @ vs[-1])
    V = ar.stack(vs)
    us = [U @ V for U in plan.out]                      # column j of us[o]: u at s = jh + o
    try:
        cost = sum(float(wt) * ar.norm(U) ** 2 for wt, U in zip(plan.weights, us))
    except OverflowError:  # a finite norm whose square is not
        cost = math.inf
    S = [B @ U for B, U in zip(plan.back, us)]
    S = sum(S[1:], S[0])                                # column j: sum_o back_o u_o at step j
    forced = S[:, plan.steps - 1]
    for j in reversed(range(plan.steps - 1)):
        forced = S[:, j] + plan.E_sim @ forced
    return flag, us, cost, plan.E @ f + forced


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
    subintervals: int = 0  # Gramian steps of length h = T / 2^k: 2^k
    taylor_degree: int = 0  # degree of the step's Taylor table; 0: closed form, no table


def observability_constant(problem: ControlProblem, T, precision_bits=53) -> ObservabilityReport:
    """:func:`observability_constants` at the one horizon T."""
    return observability_constants(problem, [T], precision_bits)[0]


def observability_constants(problem: ControlProblem, T_list, precision_bits=53) -> list:
    """Best constants C_T with ||g(T)||^2 <= C_T int_0^T ||g(t)||^2_{L2(w)} dt
    along the adjoint flow g(t) = e^{-tA^H} g0 on E_N, one per T in ``T_list``.

    Solved as the largest generalized eigenvalue of (e^{-TA} e^{-TA^H}, W):
    with W = L L^H, C_T is the top eigenvalue of X X^H, X = L^{-1} e^{-TA}.
    It walks ``arith.precisions(precision_bits)``: double precision serves
    while cond(W) < COND_MAX, fixed point while W is numerically positive
    definite, else the horizon moves to the next precision.  At each, the
    horizons that share a step h = T / ``arith.step_count`` share one call of
    :func:`arith.taylor`, at their longest: a diagonal generator's closed forms
    at each, else one Taylor table whose doubling chain they read W and
    e^{-TA} off.
    If W stays singular at the last, arith.MAX_BITS, a ridged W gives a
    certified lower bound, flagged.  The ridge covers the error W inherits
    from the double P, at most T dim eps ||P|| (e^{-tA} is a contraction), and
    the working rounding.  A zero W (P = 0, a region of measure zero) observes
    nothing, and no precision or ridge makes it factor: C_T is then inf,
    exactly, flagged 'singular_floor' at the first precision tried.
    """
    _check_horizons(*T_list)
    A = problem.A.matrix
    steps = [arith.step_count(A, T) for T in T_list]
    ladder, reports = arith.precisions(precision_bits), [None] * len(T_list)
    for bits in ladder:
        if not (todo := [i for i, rep in enumerate(reports) if rep is None]):
            break
        ar = arith.backend(bits)
        with mp.workprec(ar.bits + 16):
            Q = problem.coupling(ar)
            for h in dict.fromkeys(T_list[i] / steps[i] for i in todo):
                group = [i for i in todo if T_list[i] / steps[i] == h]
                reads = {steps[i] for i in group}
                with np.errstate(over="ignore", invalid="ignore"):  # _pencil refuses an overflow
                    _, chain, _, m = arith.taylor(ar, A, max(T_list[i] for i in group),
                                                  Q=Q, reads=reads)
                for i in group:
                    reports[i] = _pencil(ar, problem, T_list[i], *chain[steps[i]], steps[i],
                                         m, bits == ladder[-1])
    return reports


def _pencil(ar, problem, T, W, E_T, steps, m, last):
    """The report of horizon T from its Gramian W and E_T = e^{-TA}, or None
    while W asks for the next precision, before the ``last``.  A double chain
    that left the double range is refused: no precision repairs its
    2^k-fold doublings, as HUM's ``MAX_GRID`` refuses their grid.  In fixed
    point L^-1 lies 32 bits below its own rounding (``arith.Mp.inv_lower``),
    so X = L^-1 E_T and the extremal state carry their products' roundings."""
    A, piomega = problem.A, problem.piomega
    if ar is arith.DOUBLE and not (np.isfinite(W).all() and np.isfinite(E_T).all()):
        raise ContractViolation("the double Taylor chain over T ||A||_1 = %.6g is not finite"
                                % (T * float(np.abs(A.matrix).sum(axis=0).max())))
    L = ar.cholesky(W)
    if not last and piomega.any() and (L is None or ar is arith.DOUBLE
                                       and not ar.cond(W) < COND_MAX):
        return None
    flag = "ok" if L is not None else "singular_floor"
    if L is None and piomega.any():
        L = ar.cholesky(ar.ridged(W, T * A.size * np.finfo(float).eps * np.linalg.norm(piomega)))
    c, extremal = mp.inf, None  # kept if nothing factors: P = 0, or P's ridge underflowed to 0
    if L is not None:
        Li = ar.inv_lower(L)
        X = Li @ E_T
        c, y = ar.eigh_top(X @ ar.adj(X))
        if flag == "ok":
            g0 = ar.to_np(ar.adj(Li) @ ar.from_np(y))
            if (nrm := np.linalg.norm(g0)) > 0 and np.all(np.isfinite(g0)):
                extremal = HermiteExpansion(A.n, A.N, g0 / nrm)
    return ObservabilityReport(T, float(c), float(mp.log(c)), extremal, "generalized-eigen",
                               ar.bits, flag, steps, m)


# -- minimal-norm control ---------------------------------------------------------


@dataclass
class ControlResult:
    times: list
    controls: np.ndarray        # (nodes x dim): row i the coefficients of u at times[i]
    cost: float
    residual: float             # ||f(T)|| / ||f0||
    gramian_cond: float
    precision_bits: int
    flag: str
    subintervals: int = 0       # control-grid subintervals, 2^k
    taylor_degree: int = 0      # degree of the step's Taylor table; 0: closed form, no table


def hum_control(problem: ControlProblem, T, f0: HermiteExpansion,
                precision_bits=53) -> ControlResult:
    """Minimal-norm control steering f0 to (numerical) zero at time T.

    Solves W_c lam = -e^{-TA} f0 with the exact reachability Gramian
    W_c = int_0^T e^{-sA} P^2 e^{-sA^H} ds and applies
    u(t) = P e^{-(T-t)A^H} lam on the Gauss control grid.  The verdict is the
    relative residual of the state re-simulated on that grid, an independent
    check of the solve; an ill-conditioned Gramian yields a least-squares
    control in double precision, a ridged solve in fixed point, flagged, with
    the residual documented.  A zero Gramian (P = 0) gives the zero control
    in both, flagged, and the residual of the free flow.  A cost past the
    double range is inf, flagged 'cost_not_finite'.  A zero f0 reports
    the working precision and ``gramian_cond`` nan: nothing is computed.
    The Gramian, its factor and the grid come from the problem's plan at the
    working precision (:meth:`ControlProblem.plan`), built by the first call.
    """
    _check_horizons(T)
    if f0.n != problem.A.n or f0.N != problem.A.N:
        raise ContractViolation("initial state lives on the wrong space")
    ar = arith.backend(arith.precisions(precision_bits)[0])
    nrm0 = f0.norm()
    if nrm0 == 0.0:
        return ControlResult([], np.zeros((0, len(f0.coeffs)), dtype=complex), 0.0, 0.0,
                             float("nan"), ar.bits, "ok")
    with mp.workprec(ar.bits + 16):
        plan = problem.plan(ar, problem.A.size, T)
        flag, us, cost, state = _hum(ar, plan, ar.from_np(f0.coeffs))
        residual = ar.norm(state) / nrm0
    if flag == "ok" and not math.isfinite(cost):
        flag = "cost_not_finite"
    samples = np.concatenate([ar.to_np(U) for U in us]).T.reshape(-1, plan.d)  # (j, o) order
    return ControlResult(list(plan.times), samples[::-1], cost, residual, plan.cond, ar.bits,
                         flag, plan.steps, plan.m)


# -- staircase strategy ------------------------------------------------------------


@dataclass
class StaircaseResult:
    stages: list                # dicts: stage, k_j, T_j, stage_cost, energy_after
    total_cost: float
    residual: float
    flag: str                   # 'ok', 'cost_not_finite', 'target_missed' or
                                # 'stage_gramian_failure:<j>'


def lr_staircase(problem: ControlProblem, T, f0: HermiteExpansion,
                 target=1e-6, precision_bits=53) -> StaircaseResult:
    """Iterative low-mode steering with free dissipation in between.

    Stage j works on the dyadic time slice T_j = T 2^{-j-1}: during the
    first half the modes of E_{k_j} (k_j = min(ceil(STAIRCASE_K0 2^j), N), a
    leading block in the graded order) are steered to zero by HUM on that
    block, during the second half the system evolves freely and dissipation
    crushes what the control spilled into higher modes.  Every stage, the
    state and its norms run at ``arith.precisions(precision_bits)[0]``, as
    :func:`hum_control` does.  A stage whose Gramian HUM flags ends the run,
    flagged.  The run stops once the remaining energy is below ``target``
    relative to the initial one, or after the stage that controls the full
    space; the rest of [0, T] is free flow by the last stage's e^{-tau A},
    tau = T_j / 2, the propagator in that stage's HUM plan, which the
    problem keeps (:meth:`ControlProblem.plan`) for the next run.  A run
    whose total cost passes the double range is flagged 'cost_not_finite',
    else one whose final relative residual is above ``target``
    'target_missed'; a ``target`` that is not positive is refused.
    """
    _check_horizons(T)
    if f0.n != problem.A.n or f0.N != problem.A.N:
        raise ContractViolation("initial state lives on the wrong space")
    if not target > 0:
        raise ContractViolation("staircase target must be positive, got %r" % target)
    ar = arith.backend(arith.precisions(precision_bits)[0])
    N, n = problem.A.N, problem.A.n
    nrm0 = f0.norm()
    if nrm0 == 0.0:
        return StaircaseResult([], 0.0, 0.0, "ok")

    stages, total_cost, j, flag = [], 0.0, 0, "ok"
    with mp.workprec(ar.bits + 16):
        f = ar.from_np(f0.coeffs)
        while True:
            k_j = min(int(math.ceil(STAIRCASE_K0 * 2**j)), N)
            T_j = T * 2.0 ** (-j - 1)
            tau = T_j / 2.0
            d = basis.space_dimension(n, k_j)
            # active half: HUM on E_{k_j}, simulated on the full state; then the
            # passive half: free dissipation by the same e^{-tau A}
            plan = problem.plan(ar, d, tau)
            stage_flag, _, stage_cost, state = _hum(ar, plan, f)
            if stage_flag != "ok":
                flag = "stage_gramian_failure:%d" % j
                break
            f = plan.E @ state
            total_cost += stage_cost
            energy = ar.norm(f)
            stages.append({"stage": j, "k_j": k_j, "T_j": T_j, "stage_cost": stage_cost,
                           "energy_after": energy})
            if energy <= target * nrm0 or k_j >= N or j > 60:
                break
            j += 1
        for _ in range(2 if flag == "ok" else 4):  # the rest of [0, T]: T_j, or T_{j-1} if stage j failed
            f = plan.E @ f
        residual = ar.norm(f) / nrm0
    if flag == "ok" and not math.isfinite(total_cost):
        flag = "cost_not_finite"
    if flag == "ok" and residual > target:
        flag = "target_missed"
    return StaircaseResult(stages, total_cost, residual, flag)


# -- cost blowup -------------------------------------------------------------------


@dataclass
class BlowupStudy:
    rows: list                   # dicts: T, C_T, c_log, precision_bits, method, flag,
                                 # subintervals, taylor_degree
    fits: dict                   # exponent -> {slope, intercept, r2, ssr}
    k0: Optional[int]            # None when the symbol's singular space is not trivial
    excluded: list = field(default_factory=list)


def cost_blowup_study(problem: ControlProblem, T_list, precision_bits=53) -> BlowupStudy:
    """Observability constants over shrinking horizons and blowup-shape fits.

    Fits log C_T against T^(-(2 k0 + 1)) (the dissipation-matched shape), k0
    the index of A's symbol, and against T^(-1) for model comparison, given
    at least three usable horizons; a symbol whose singular space is not
    trivial has no k0 (None) and gets only the T^(-1) fit.  Horizons whose
    pencil hit the precision ceiling are excluded from fits and listed.

    The fits are a comparison, not a law expected at fixed N.  For an
    accretive generator the adjoint flow does not grow in norm, so
    int_0^T g^H P g dt >= T lambda_min(P) ||g(T)||^2 and every horizon obeys
    the finite-level ceiling C_T <= 1 / (T lambda_min(P)) = C_N(w)^2 / T, with
    T C_T -> C_N(w)^2 as T -> 0.  The exp(C / T^(2 k0 + 1)) cost bound holds
    for the full equation; on E_N the ceiling keeps log C_T concave in 1/T.
    """
    T_list = list(T_list)
    _check_horizons(*T_list)
    if any(b >= a for a, b in zip(T_list, T_list[1:])):
        raise ContractViolation("T_list must be strictly decreasing")
    k0 = singular_space(hamilton_map(problem.A.symbol)).k0
    rows = [{"T": rep.T, "C_T": rep.c_value, "c_log": rep.c_log,
             "precision_bits": rep.precision_bits, "method": rep.method, "flag": rep.flag,
             "subintervals": rep.subintervals, "taylor_degree": rep.taylor_degree}
            for rep in observability_constants(problem, T_list, precision_bits)]
    excluded = [row["T"] for row in rows if row["flag"] != "ok"]
    fits = {}
    usable = [r for r in rows if r["flag"] == "ok"]
    exponents = [1] if k0 is None else sorted({1, 2 * k0 + 1})
    if len(usable) >= 3:
        y = np.array([r["c_log"] for r in usable])
        for p in exponents:
            g = np.array([r["T"] ** (-float(p)) for r in usable])
            slope, intercept, ssr, r2 = basis.linear_fit(g, y)
            fits[p] = {"slope": slope, "intercept": intercept, "ssr": ssr, "r2": r2}
    return BlowupStudy(rows, fits, k0, excluded)
