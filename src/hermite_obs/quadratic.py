"""Complex quadratic symbols on phase space, Hamilton maps, singular spaces,
Weyl quantization into Hermite-basis matrices and Galerkin semigroups.

Phase-space points are ordered positions-then-momenta, X = (x, xi), and a
symbol is the quadratic form q(X) = X^T Q X with Q complex symmetric.  The
Hamilton map F is the unique matrix with q(X, Y) = sigma(X, F Y) for the
standard symplectic form sigma; concretely F = -J Q with J the symplectic
unit.  The singular space is the real intersection of the kernels of
Re F (Im F)^j for j = 0 .. 2n-1, and k_0 is the first j at which the
intersection becomes trivial.  Both are decided exactly, by integer
elimination on the stored entries of F: no rank tolerance enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        if not np.isfinite(Q).all():
            raise ContractViolation("Q must be finite")
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
    """Orthonormal basis of S, the trivializing index k_0 (None when the
    intersection never becomes trivial; then the basis is nonempty), and
    dims[j] = dim cap_{l<=j} Ker[Re F (Im F)^l], j = 0 .. 2n-1, which never
    increase."""

    basis: np.ndarray
    k0: Optional[int]
    dims: tuple


def _integer_matrix(M):
    """M times the power of two that clears the denominators of its floats
    (dyadic rationals all), as rows of Python ints."""
    ratios = [[x.as_integer_ratio() for x in row] for row in M.tolist()]
    den = max(d for row in ratios for _, d in row)
    return [[p * (den // d) for p, d in row] for row in ratios]


def _primitive(row):
    """The int row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def singular_space(H: HamiltonMap) -> SingularSpace:
    """Kernel intersection S = cap_j Ker[Re F (Im F)^j] over j = 0..2n-1,
    decided exactly.

    F = -J Q only moves and negates entries of Q, so Re F and Im F are
    stored floats; a power of two each makes them integer matrices R and I.
    The rows of each block R I^j are reduced against those kept so far by
    fraction-free Gauss-Jordan elimination in Python ints, up to the first j
    of full rank or the first that adds none (the j-th intersection is
    Ker Re F cut with the Im F-preimage of the one before, so it stays put
    from there).  The answer is the rank of the stored floats; the command
    line's symbols owe their zeros to structure, not to cancellation between
    rounded entries.  A nontrivial kernel is read off the reduced rows, each
    vector scaled by its largest entry, and orthonormalized in double.
    """
    two_n = 2 * H.n
    R, I = _integer_matrix(H.re), _integer_matrix(H.im)
    kept = {}                                     # pivot column -> reduced row
    dims, block = [], R
    for j in range(two_n):
        for row in block:
            for c, piv in kept.items():
                if row[c]:
                    row = [piv[c] * x - row[c] * y for x, y in zip(row, piv)]
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is None:
                continue
            row = _primitive(row)
            for c, piv in kept.items():           # keep every row zero at the other pivots
                if piv[lead]:
                    kept[c] = _primitive([row[lead] * x - piv[lead] * y for x, y in zip(piv, row)])
            kept[lead] = row
        dims.append(two_n - len(kept))
        if not dims[-1] or dims[-2:] == dims[-1:] * 2:
            break
        block = [[sum(x * y for x, y in zip(r, col)) for col in zip(*I)] for r in block]
    k0 = j if not dims[-1] else None
    dims += dims[-1:] * (two_n - len(dims))
    scale = math.lcm(*(piv[c] for c, piv in kept.items()))
    vectors = []
    for free in (c for c in range(two_n) if c not in kept):
        v = [0] * two_n
        v[free] = scale
        for c, piv in kept.items():
            v[c] = -piv[free] * scale // piv[c]
        top = max(map(abs, v))
        vectors.append([x / top for x in v])
    basis = np.linalg.qr(np.array(vectors).T)[0] if vectors else np.zeros((two_n, 0))
    return SingularSpace(np.ascontiguousarray(basis), k0, tuple(dims))


# -- Weyl quantization and Galerkin semigroup -----------------------------------


@dataclass(frozen=True)
class GalerkinOperator:
    """Matrix of the Weyl-quantized symbol compressed to E_N.

    Entry [i, j] is the coefficient of Phi_i in q^w Phi_j, formed in closed
    form from two ladder steps (:func:`weyl_quantize`); the parts of q^w Phi_j
    outside E_N are dropped.
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


def weyl_quantize(sym: QuadraticSymbol, N) -> GalerkinOperator:
    """Galerkin matrix of the Weyl quantization of a quadratic symbol.

    With L = (a_+, a_-) the raising and lowering operators of the n axes,
    positions and momenta are (x, D) = P L / sqrt(2), P = [[I, I], [iI, -iI]],
    so the symmetric ordering of X^T Q X is q^w = sum_kl M_kl L_k L_l with
    M = P^T Q P / 2.  L_k L_l moves Phi_beta by the two unit steps s_l and
    s_k and multiplies it by sqrt(c_l c_k), each c the ladder count where
    its step acts: beta_j + 1 for a raise on axis j, beta_j for a lower.  The
    counts, their product and one sqrt are taken for every beta of E_N and
    nonzero M_kl at once, and the images inside E_N scattered into the matrix.
    """
    if N < 0:
        raise ContractViolation("cutoff N must be >= 0")
    n = sym.n
    E = np.eye(n, dtype=np.int64)
    step = np.concatenate([E, -E])                                    # s_k, the step of L_k
    P = np.concatenate([abs(step.T), 1j * step.T])                    # [[I, I], [iI, -iI]]
    M = P.T @ sym.Q @ P / 2
    k, l = np.nonzero(M)
    beta, level = basis._index_array(n, N), basis.index_levels(n, N)
    counts = ((beta[:, l % n].T + (l < n)[:, None])                     # [pair, column]
              * (beta[:, k % n].T + (step[l, k % n] + (k < n))[:, None]))
    shift = step[l] + step[k]                                          # [pair, axis]
    p, col = np.nonzero((counts > 0) & (level + shift.sum(axis=1)[:, None] <= N))
    both = np.concatenate([beta, beta[col] + shift[p]])
    order = np.lexsort((*both.T[::-1], both.sum(axis=1)))  # E_N's order; stable, so each
    rank = np.empty(len(both), dtype=np.int64)              # beta sorts ahead of its images
    rank[order] = np.cumsum(order < len(beta)) - 1          # the position in E_N
    A = np.zeros((len(beta), len(beta)), dtype=complex)
    np.add.at(A, (rank[len(beta):], col), M[k[p], l[p]] * np.sqrt(counts[p, col]))
    return GalerkinOperator(n, N, A, sym)


def evolve(op: GalerkinOperator, f0: HermiteExpansion, t) -> HermiteExpansion:
    """Propagate f0 by the Galerkin semigroup, f(t) = e^{-tA} f0 (arith.taylor:
    entrywise exponentials for a diagonal A, else the Taylor table).

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
    e^{-tA} (arith.taylor, in closed form for a diagonal A), its largest
    singular value; four random unit probes cross-check it from below, and a
    violation of that ordering is reported as a failure.  At each t the decay
    exponent in k is fitted by least squares; the fitted intercept exp(c)
    estimates the prefactor C_0 and the slope estimates delta(t).
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
