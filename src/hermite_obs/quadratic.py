"""Complex quadratic symbols on phase space, Hamilton maps, singular spaces,
Weyl quantization into Hermite-basis matrices and Galerkin semigroups.

Phase-space points are ordered positions-then-momenta, X = (x, xi), and a
symbol is the quadratic form q(X) = X^T Q X with Q complex symmetric.  The
Hamilton map F is the unique matrix with q(X, Y) = sigma(X, F Y) for the
standard symplectic form sigma; concretely F = -J Q with J the symplectic
unit.  The singular space is the real intersection of the kernels of
Re F (Im F)^j for j = 0 .. 2n-1, and k_0 is the first j at which the
intersection becomes trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith, basis
from .basis import ContractViolation, HermiteExpansion


class ContractionViolation(RuntimeError):
    """The Galerkin semigroup gained mass although the symbol is accretive."""


def symplectic_unit(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def symplectic_form(X, Y, n):
    """sigma((x, xi), (y, eta)) = <xi, y> - <x, eta>."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    return X @ symplectic_unit(n) @ Y


@dataclass(frozen=True)
class QuadraticSymbol:
    """q(X) = X^T Q X with Q complex symmetric of size 2n x 2n."""

    n: int
    Q: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolation("symbol dimension n must be >= 1, not %d" % self.n)
        Q = np.asarray(self.Q, dtype=complex)
        if Q.shape != (2 * self.n, 2 * self.n):
            raise ContractViolation("Q must be 2n x 2n")
        if np.max(np.abs(Q - Q.T)) > 1e-14 * max(np.max(np.abs(Q)), 1.0):
            raise ContractViolation("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        Q.flags.writeable = False
        object.__setattr__(self, "Q", Q)

    def polarized(self, X, Y):
        return np.asarray(X, dtype=complex) @ self.Q @ np.asarray(Y, dtype=complex)

    @property
    def real_part_psd(self):
        """True when Re q >= 0 (accretive generator after quantization)."""
        w = np.linalg.eigvalsh(self.Q.real)
        return bool(w[0] >= -1e-12 * max(abs(w[-1]), 1.0))

    def scaled(self, c):
        return QuadraticSymbol(self.n, c * self.Q)

    def conjugated(self):
        return QuadraticSymbol(self.n, self.Q.conj())

    def to_json_dict(self):
        return {
            "n": self.n,
            "Q_re": self.Q.real.tolist(),
            "Q_im": self.Q.imag.tolist(),
        }


def harmonic_symbol(n=1):
    """q = |x|^2 + |xi|^2, the harmonic oscillator symbol."""
    return QuadraticSymbol(n, np.eye(max(2 * n, 0), dtype=complex))  # QuadraticSymbol refuses n < 1


def kfp_symbol(a=1.0):
    """Kramers-Fokker-Planck symbol with quadratic potential coupling a.

    Phase space is (x, v, xi, eta) and
    q = eta^2 + v^2/4 + i (v xi - a x eta); the real part is degenerate but
    nonnegative, and the singular space is trivial precisely when a != 0.
    """
    Q = np.zeros((4, 4), dtype=complex)
    Q[1, 1] = 0.25
    Q[3, 3] = 1.0
    Q[1, 2] = Q[2, 1] = 0.5j
    Q[0, 3] = Q[3, 0] = -0.5j * a
    return QuadraticSymbol(2, Q)


def parse_symbol(text):
    """Named symbols for the command line: 'harmonic[:n=..]' or 'kfp:a=..'."""
    head, opts = basis.parse_shorthand(text, {"harmonic": {"n": 1}, "kfp": {"a": 1.0}})
    if head == "harmonic":
        return harmonic_symbol(opts["n"])
    return kfp_symbol(opts["a"])


# -- Hamilton map and singular space -------------------------------------------


@dataclass(frozen=True)
class HamiltonMap:
    """F with q(X, Y) = sigma(X, F Y); assembled as F = -J Q."""

    n: int
    F: np.ndarray
    probe_deviation: float = 0.0

    @property
    def re(self):
        return self.F.real

    @property
    def im(self):
        return self.F.imag


def hamilton_map(sym: QuadraticSymbol) -> HamiltonMap:
    """Hamilton map of a quadratic symbol, with the defining identity
    sigma(X, F Y) = q(X, Y) checked on all canonical basis pairs at once:
    max |J F - Q|."""
    J = symplectic_unit(sym.n)
    F = -J @ sym.Q
    dev = float(np.max(np.abs(J @ F - sym.Q)))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(sym.Q)))):
        raise AssertionError("Hamilton map identity failed; this is a bug")
    Fro = F.copy()
    Fro.flags.writeable = False
    return HamiltonMap(sym.n, Fro, dev)


@dataclass(frozen=True)
class SingularSpace:
    """Orthonormal basis of S, the trivializing index k_0, and diagnostics.

    ``k0`` is None when the kernel intersection never becomes trivial (then
    the basis is nonempty).  ``tolerance_sensitive`` marks rank decisions
    within a factor 10 of the threshold; ``alternative_dims`` then reports
    the kernel dimensions obtained with the threshold divided and multiplied
    by 10.
    """

    basis: np.ndarray
    k0: Optional[int]
    dims: tuple
    tolerance_sensitive: bool = False
    alternative_dims: tuple = ()


def _kernel_dims_for_tol(svals_per_stack, tol):
    return tuple(int(np.sum(s <= tol)) for s in svals_per_stack)


def singular_space(H: HamiltonMap) -> SingularSpace:
    """Kernel intersection S = cap_j Ker[Re F (Im F)^j] over j = 0..2n-1.

    The intersection is computed through singular values of the stacked
    matrices [Re F; Re F Im F; ...]; singular values at most the rank
    tolerance, 1e-10 times the largest singular value of the full stack,
    count as kernel directions.  Rank decisions within a factor 10
    of the tolerance are flagged and both candidate answers are reported.
    A map whose stacked powers pass the double range is refused before any
    singular value is taken.
    """
    n = H.n
    two_n = 2 * n
    re, im = H.re, H.im
    blocks = []
    power = np.eye(two_n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for _ in range(two_n):
            blocks.append(re @ power)
            power = power @ im
    if not np.isfinite(blocks).all():
        raise ContractViolation("the Hamilton map's powers Re F (Im F)^j, j < %d, pass the double"
                                " range: the symbol is too large for its singular space" % two_n)
    svals_per_stack = []
    for j in range(two_n):
        stack = np.vstack(blocks[:j + 1])
        svals = np.linalg.svd(stack, compute_uv=False)
        svals = np.concatenate([svals, np.zeros(max(0, two_n - len(svals)))])
        svals_per_stack.append(np.sort(svals))
    rank_tol = 1e-10 * max(float(svals_per_stack[-1][-1]), 1e-300)

    dims = _kernel_dims_for_tol(svals_per_stack, rank_tol)
    sensitive = any(
        rank_tol / 10.0 < s < rank_tol * 10.0
        for svals in svals_per_stack
        for s in svals
    )
    alt = ()
    if sensitive:
        alt = (
            _kernel_dims_for_tol(svals_per_stack, rank_tol / 10.0),
            _kernel_dims_for_tol(svals_per_stack, rank_tol * 10.0),
        )

    k0 = next((j for j, d in enumerate(dims) if d == 0), None)
    _, s, Vt = np.linalg.svd(stack)
    s = np.concatenate([s, np.zeros(max(0, two_n - len(s)))])
    kernel_basis = Vt[s <= rank_tol].T if dims[-1] > 0 else np.zeros((two_n, 0))
    kernel_basis = np.ascontiguousarray(kernel_basis)
    return SingularSpace(kernel_basis, k0, dims, sensitive, alt)


def _fraction_kernel(rows):
    """Exact kernel basis of a matrix with Fraction entries (row echelon)."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1, 1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(cols) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        kernel.append(vec)
    return kernel


def singular_space_exact(sym: QuadraticSymbol):
    """Exact-rational singular space for symbols with rational entries.

    Returns (k0, kernel_basis) with Fractions throughout; used as the oracle
    for the floating-point kernel computation.
    """

    def to_frac(x):
        return Fraction(x).limit_denominator(10**12)

    n = sym.n
    two_n = 2 * n
    J = [[Fraction(0)] * two_n for _ in range(two_n)]
    for i in range(n):
        J[i][n + i] = Fraction(-1)
        J[n + i][i] = Fraction(1)
    Qre = [[to_frac(sym.Q[i, j].real) for j in range(two_n)] for i in range(two_n)]
    Qim = [[to_frac(sym.Q[i, j].imag) for j in range(two_n)] for i in range(two_n)]

    def matmul(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(two_n)) for j in range(two_n)]
            for i in range(two_n)
        ]

    def neg(A):
        return [[-v for v in row] for row in A]

    re_F = neg(matmul(J, Qre))
    im_F = neg(matmul(J, Qim))

    stacked = []
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(two_n)] for i in range(two_n)]
    k0 = None
    kernel = None
    for j in range(two_n):
        stacked.extend(matmul(re_F, power))
        power = matmul(power, im_F)
        kernel = _fraction_kernel(stacked)
        if not kernel and k0 is None:
            k0 = j
    return k0, kernel


# -- Weyl quantization and Galerkin semigroup -----------------------------------


@dataclass(frozen=True)
class GalerkinOperator:
    """Matrix of the Weyl-quantized symbol compressed to E_N.

    Entry [i, j] is the coefficient of Phi_i in q^w Phi_j; the quantization
    maps E_N into E_{N+2}, so building ladder products on the buffered cutoff
    N+2 and keeping rows/columns of E_N gives exact matrix elements.
    """

    n: int
    N: int
    matrix: np.ndarray
    symbol: QuadraticSymbol

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def accretive(self):
        return self.symbol.real_part_psd


@basis.frozen_cache
def _weyl_term(n, M, term, i, j):
    """The ladder product of one monomial on E_M: X_i X_j for term "xx",
    D_i D_j for "dd" and X_i D_j + D_j X_i for "xd", complex; built once per
    (n, M, term, i, j), when a symbol first needs it, and read-only."""
    X = {k: basis.position_matrix(n, M, k).astype(complex) for k in (i, j)}
    D = {k: basis.momentum_matrix(n, M, k) for k in (i, j)}
    if term == "xx":
        return X[i] @ X[j]
    if term == "dd":
        return D[i] @ D[j]
    return X[i] @ D[j] + D[j] @ X[i]


def weyl_quantize(sym: QuadraticSymbol, N) -> GalerkinOperator:
    """Galerkin matrix of the Weyl quantization of a quadratic symbol.

    Positions and momenta are substituted by their ladder combinations,
    x_j = (a_+ + a_-)/sqrt(2) and D_j = i (a_+ - a_-)/sqrt(2); the mixed
    monomials x_i xi_j quantize with the symmetrized ordering
    (x_i D_j + D_j x_i)/2.  Each monomial's ladder product is a table of
    the process (:func:`_weyl_term`), formed for the nonzero entries of Q.
    """
    if N < 0:
        raise ContractViolation("cutoff N must be >= 0")
    n = sym.n
    M = N + 2
    dim_M = basis.space_dimension(n, M)
    blocks = (("xx", sym.Q[:n, :n]), ("dd", sym.Q[n:, n:]), ("xd", sym.Q[:n, n:]))
    A = np.zeros((dim_M, dim_M), dtype=complex)
    for i in range(n):
        for j in range(n):
            for term, Q in blocks:
                if Q[i, j] != 0:
                    A += Q[i, j] * _weyl_term(n, M, term, i, j)
    dim_N = basis.space_dimension(n, N)
    return GalerkinOperator(n, N, np.ascontiguousarray(A[:dim_N, :dim_N]), sym)


def evolve(op: GalerkinOperator, f0: HermiteExpansion, t) -> HermiteExpansion:
    """Propagate f0 by the Galerkin semigroup, f(t) = e^{-tA} f0 (arith.taylor).

    For accretive symbols the expansion norm must not grow; a violation
    beyond 1e-8 relative is raised since it signals either a truncation
    artifact or a symbol whose real part is not PSD.
    """
    if t < 0:
        raise ContractViolation("time must be nonnegative")
    if f0.n != op.n or f0.N != op.N:
        raise ContractViolation("state space mismatch")
    c = arith.taylor(arith.DOUBLE, op.matrix, t)[2] @ f0.coeffs
    out = HermiteExpansion(op.n, op.N, c)
    if op.accretive and out.norm() > f0.norm() * (1.0 + 1e-8):
        raise ContractionViolation(
            "norm grew from %.17g to %.17g under an accretive symbol"
            % (f0.norm(), out.norm())
        )
    return out


@dataclass
class DissipationReport:
    """Measured high-mode decay of the Galerkin semigroup.

    ratios[i][j] is the worst observed ||(1 - pi_k) e^{-tA} f|| / ||f|| over
    the probe set at t = t_grid[i], k = k_grid[j]; slope_per_t fits the decay
    exponent of log ratio against k at fixed t.
    """

    t_grid: list
    k_grid: list
    ratios: np.ndarray
    slope_per_t: list = field(default_factory=list)
    r2_per_t: list = field(default_factory=list)
    rate_constants: dict = field(default_factory=dict)


def dissipation_check(op: GalerkinOperator, t_grid, k_grid, seed=0) -> DissipationReport:
    """Measure sup_f ||(1 - pi_k) e^{-tA} f|| / ||f|| on the given grids.

    The sup over f is the exact operator norm of the row-masked propagator
    e^{-tA} (arith.taylor), its largest singular value; four random unit probes
    cross-check it from below, and a violation of that ordering is reported
    as a failure.  At each t the decay exponent in k is fitted by least
    squares; the fitted intercept exp(c) estimates the prefactor C_0 and the
    slope estimates delta(t).
    """
    rng = np.random.default_rng(seed)
    lev = basis.index_levels(op.n, op.N)
    probe_vecs = []
    for _ in range(4):
        v = rng.standard_normal(op.size) + 1j * rng.standard_normal(op.size)
        probe_vecs.append(v / np.linalg.norm(v))
    ratios = np.zeros((len(t_grid), len(k_grid)))
    for it, t in enumerate(t_grid):
        E = arith.taylor(arith.DOUBLE, op.matrix, t)[2]
        evolved = [E @ v for v in probe_vecs]
        for jk, k in enumerate(k_grid):
            mask = lev > k
            norm = float(np.linalg.svd(E[mask, :], compute_uv=False)[0]) if mask.any() else 0.0
            for v in evolved:
                if float(np.linalg.norm(v[mask])) > norm * (1.0 + 1e-10):
                    raise AssertionError("probe above operator norm; this is a bug")
            ratios[it, jk] = norm
    report = DissipationReport(list(t_grid), list(k_grid), ratios)
    ks = np.asarray(k_grid, dtype=float)
    for it, t in enumerate(t_grid):
        slope, _, _, r2 = basis.linear_fit(ks, np.log(np.maximum(ratios[it], 1e-280)))
        report.slope_per_t.append(slope)
        report.r2_per_t.append(r2)
    slopes = np.array(report.slope_per_t)
    if len(t_grid) >= 2 and np.all(slopes < 0):
        exponent, log_prefactor, _, _ = basis.linear_fit(
            np.log(np.asarray(t_grid, dtype=float)), np.log(-slopes)
        )
        report.rate_constants = {
            "time_exponent": exponent,
            "log_prefactor": log_prefactor,
        }
    return report
