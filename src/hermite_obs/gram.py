"""Restriction Gram operators on E_N, sharp spectral constants, explicit
theoretical bounds and scaling studies.

For a region w and the space E_N of Hermite combinations, the Gram matrix
``G[a, b] = int_w Phi_a Phi_b`` represents the quadratic form
``||f||_{L2(w)}^2 = c^H G c`` while ``||f||_{L2(R^n)}^2 = ||c||^2``.  The
sharp constant in ``||f|| <= C_N(w) ||f||_{L2(w)}`` on E_N is therefore
``C_N = lambda_min(G)^(-1/2)``.  Since lambda_min decays exponentially for
sparse regions, it escalates to software floating point with a doubling
mantissa: the Gram entries are rebuilt in that precision from closed forms
(Wronskian identity, erf-seeded diagonal recurrence) and summed in fixed
point, and lambda_min is read from one integer Cholesky factor G = L L^H as
sigma_max(L^-1)^-2 (:mod:`hermite_obs.arith`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from mpmath import mp

from . import arith, basis, regions
from .basis import ContractViolation
from .estimates import hermite_tail_bound_log, remez_fraction, saturated, tail_constant_cn
from .regions import Region

DEFAULT_C_SOBOLEV = 10.0
DEFAULT_C_KOV = 300.0


def truncation_entry_error(n, N, radius):
    """Bound on the neglected |x| > radius part of any Gram entry."""
    a = radius / math.sqrt(n)
    if a < math.sqrt(2.0 * N + 1.0):
        return math.inf
    return n * math.exp(min(hermite_tail_bound_log(N, a), 700.0))


@dataclass
class GramOperator:
    """Hermitian PSD matrix of the restriction form on E_N and the rounding
    bound of each entry."""

    n: int
    N: int
    matrix: np.ndarray
    errors: np.ndarray
    region: Region

    @property
    def size(self):
        return self.matrix.shape[0]

    @property
    def tail(self):
        """Bound on the neglected |x| > trunc_radius part of any entry."""
        return truncation_entry_error(self.n, self.N, self.region.trunc_radius)

    @property
    def entry_error(self):
        return float(np.max(self.errors)) + self.tail

    def leading(self, N):
        """The Gram of E_N, N <= self.N: its leading block in the graded order."""
        if not 0 <= N <= self.N:
            raise ContractViolation("cutoff %r outside 0..%d of this Gram" % (N, self.N))
        d = len(basis.multi_indices(self.n, N))
        return GramOperator(self.n, N, self.matrix[:d, :d], self.errors[:d, :d], self.region)


def _times(outer, inner):
    """Entrywise product of an outer axis's sum with the inner axes' product.

    In double precision both carry (values, sum of |values|, bound), and the
    bound of the product is (A + E)(A' + E') - A A' = E (A' + E') + A E',
    written without the cancelling difference.
    """
    if len(outer) == 1:
        return [outer[0] * inner[0]]
    (T, A, E), (T2, A2, E2) = outer, inner
    return [T * T2, A * A2, E * (A2 + E2) + A * E2]


def _assemble(region: Region, N, mp=None):
    """The Gram of the product region: per axis, the sum of its intervals'
    pair tables, then the entrywise product of the axes' sums.

    One ``regions.interval_pair_tables`` call stacks the tables of the
    distinct intervals of all axes.  Each axis's sum is a running sum in the
    order of its intervals, an (N+1)^2 table spread onto the dim x dim
    multi-index grid; the axes multiply with ``_times``, outer axis times the
    product of the inner ones.  In double precision the result is
    ``[G, A, E]``: the Gram matrix, prod A_i and the bound
    prod(A_i + E_i) - prod A_i, where A_i is the axis's sum of |T| and E_i
    the sum of its tables' bounds; summed over the boxes of the product, the
    per-box bounds prod(|T| + E_T) - prod |T| give the same.  With an mpmath
    context the tables are rounded once to one exponent, sums and products
    are exact in integers, and ``[G]`` is an :class:`arith.Fx` rounded once.
    """
    n = region.n
    required = regions.truncate_radius(N, n)
    if region.trunc_radius + 1e-9 < required:
        raise ContractViolation("region truncated at %.6g but cutoff N=%d needs radius >= %.6g"
                                % (region.trunc_radius, N, required))
    idx = basis.multi_indices(n, N)
    if not region.box_count:
        zero = np.zeros((len(idx), len(idx)))
        return [zero] * 3 if mp is None else [arith.fixed(zero, mp.prec)]
    # spread[j] maps the (N+1)^2 table of axis j onto the dim x dim grid
    spread = [np.ix_(degrees, degrees) for degrees in np.array(idx).T]
    ends = np.concatenate([np.stack(axis, axis=-1) for axis in region.axes])
    keys, which = np.unique(ends, axis=0, return_inverse=True)
    tables, other = regions.interval_pair_tables(keys[:, 0], keys[:, 1], N, mp)
    if mp is not None:  # table i is tables[i] 2^other[i]; at 2^t the largest has mp.prec bits
        t = max((e + int(abs(T).max()).bit_length() for T, e in zip(tables, other) if T.any()),
                default=0) - mp.prec
        tables = np.stack([arith._shift(T, t - e) for T, e in zip(tables, other)])
    stack = [tables, np.abs(tables), other] if mp is None else [tables]
    # a running sum adds t_0 + t_1 + ... in order whatever the tables' size,
    # where numpy's sum pairs the terms of a (M, 1, 1) stack
    counts = np.cumsum([len(lows) for lows, _ in region.axes])[:-1]
    sums = [[np.cumsum(t[rows], axis=0)[-1][spread[j]] for t in stack]
            for j, rows in enumerate(np.split(which.reshape(-1), counts))]
    total = sums[-1]
    for outer in reversed(sums[:-1]):
        total = _times(outer, total)
    return total if mp is None else [arith.Fx(total[0], None, n * t, mp.prec)]


def gram_matrix(region: Region, N) -> GramOperator:
    """Assemble G[a, b] = int_region Phi_a Phi_b from closed-form 1-D tables.

    The region gives the dimension n.  Requires it to be truncated at least
    at ``regions.truncate_radius(N, n)``; the neglected tail is added to the
    entry error budget together with the rounding bounds of the tables.
    """
    G, _, E = _assemble(region, N)
    return GramOperator(region.n, N, G, E, region)


def gram_matrix_mp(region: Region, N) -> arith.Fx:
    """Gram matrix in fixed point at the current mpmath precision: closed-form
    tables, summed exactly in integers and rounded once."""
    (G,) = _assemble(region, N, mp)
    return G


@dataclass(frozen=True)
class SpectralResult:
    """Measured spectral constant C_N = lambda_min(G)^(-1/2)."""

    c_value: float
    c_log: float
    lam_min: float
    lam_min_log: float
    precision_bits: int
    flag: str  # 'ok' or 'singular_floor' (value is then a lower bound on C_N)


def spectral_constants(G: GramOperator, cutoffs, precision_bits=53):
    """Sharp constants of the spectral inequality on E_N for G's region, one
    per N <= G.N in ``cutoffs``, each from its leading block of G.

    Walks the precisions of ``arith.precisions(precision_bits)``.  In double
    precision a block is resolved once lambda_min clears 1e3 * eps *
    lambda_max and the accumulated entry error; in software floating point,
    where the Gram entries are rebuilt, once it clears 1e3 * 2^-bits *
    lambda_max + dim * tail.  A level builds one fixed-point Gram, at the
    largest cutoff left, factors it once and inverts that factor once, up to
    the largest left block inside the factored columns; each left block reads
    lambda_min from the leading block of that inverse (``arith.Mp.lam_mins``).
    A block past the first failed pivot of the Cholesky factorization
    (:mod:`hermite_obs.arith`) has lambda_min below its rounding, about 20
    dim^1.5 2^-(bits+16) lambda_max (Higham, Thm 10.7), under that floor for
    dim up to about 20,000, and goes to the next precision.  A block left at
    the last precision, ``arith.MAX_BITS``, is flagged with a certified lower
    bound on C_N.
    """
    ladder = arith.precisions(precision_bits)
    blocks = [G.leading(N) for N in cutoffs]
    results = [None] * len(blocks)
    for bits in ladder:
        if not (todo := [i for i, res in enumerate(results) if res is None]):
            break
        ar = arith.backend(bits)
        with mp.workprec(ar.bits + 16):
            if ar is not arith.DOUBLE:
                Gm = gram_matrix_mp(G.region, max(blocks[i].N for i in todo))
                lams = dict(zip(todo, ar.lam_mins(Gm, [blocks[i].size for i in todo])))
            for i in todo:
                B = blocks[i]
                if ar is arith.DOUBLE:
                    lam = np.linalg.eigvalsh(B.matrix)
                    lam_min, lam_max = float(lam[0]), float(lam[-1])
                    noise = max(1e3 * np.finfo(float).eps * max(lam_max, 0.0), B.size * B.entry_error)
                else:
                    if (lam_min := lams[i]) is None and bits != ladder[-1]:
                        continue  # the next precision decides, and lam_max is not read
                    lam_max = ar.eigh_top(Gm[:B.size, :B.size])[0]
                    noise = 1e3 * mp.mpf(2) ** (-bits) * lam_max + B.size * B.tail
                flag = "ok" if lam_min is not None and lam_min > noise else ""
                if not flag and bits == ladder[-1]:
                    lam_min, flag = noise, "singular_floor"
                if flag:
                    log = math.log if ar is arith.DOUBLE else mp.log  # no mpmath rounding at 53 bits
                    results[i] = SpectralResult(
                        float(lam_min ** -0.5), float(-log(lam_min) / 2), float(lam_min),
                        float(log(lam_min)), bits, flag,
                    )
    return results


def spectral_constant(G: GramOperator, precision_bits=53) -> SpectralResult:
    """:func:`spectral_constants` at G's own cutoff."""
    return spectral_constants(G, [G.N], precision_bits)[0]


# -- explicit bounds -----------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Hypothesis class and auxiliary constants for the explicit bounds.

    variant 'open'    : region contains the ball B(x0, r)
    variant 'density' : |w cap B(0,R)|/|B(0,R)| >= delta for R >= R0
    variant 'thick'   : w is gamma-thick at scale L

    The tail constant c_n (:func:`estimates.tail_constant_cn`) and the Sobolev
    and interval-lemma constants ``DEFAULT_C_SOBOLEV`` and ``DEFAULT_C_KOV``,
    which the theory never pins down, are fixed; every artifact records them.
    """

    n: int
    variant: str
    x0: tuple = ()
    r: float = 0.0
    delta: float = 0.0
    R0: float = 0.0
    L: float = 0.0
    gamma: float = 0.0


def open_params(x0, r):
    """The ball B(x0, r), in the dimension of its centre x0."""
    if r <= 0:
        raise ContractViolation("ball radius must be positive")
    return BoundParams(len(x0), "open", x0=tuple(x0), r=float(r))


def density_params(n, delta, R0=0.0):
    if not 0.0 < delta <= 1.0:
        raise ContractViolation("density fraction must lie in (0, 1]")
    return BoundParams(n, "density", delta=float(delta), R0=float(R0))


def thick_params(n, L, gamma):
    if not 0.0 < gamma <= 1.0 or L <= 0:
        raise ContractViolation("need 0 < gamma <= 1 and L > 0")
    return BoundParams(n, "thick", L=float(L), gamma=float(gamma))


def _log_sum_weighted_factorials(n, log_ratio):
    """log of the sum over multi-indices |b| <= n of ratio^{|b|} (|b|!)^2,
    given log(ratio): a log-sum-exp over k = |b|, which C(k+n-1, n-1) =
    (k+n-1)! / ((n-1)! k!) multi-indices share, in O(n) floats."""
    logs = [math.lgamma(k + n) + math.lgamma(k + 1) + k * log_ratio for k in range(n + 1)]
    top = max(logs)
    return top + math.log(sum(math.exp(t - top) for t in logs)) - math.lgamma(n)


def theoretical_bound_log(p: BoundParams, N):
    """log of the explicit spectral-constant bound; None when N is outside
    the validity range of the variant's derivation; N < 0 is refused."""
    if N < 0:
        raise ContractViolation("cutoff N must be >= 0, got %r" % N)
    n = p.n
    c_n = tail_constant_cn(n).c
    root = c_n * math.sqrt(N + 1.0)
    if p.variant == "open":
        x0_norm = math.sqrt(sum(v * v for v in p.x0))
        if root <= 2.0 * x0_norm + p.r:
            return None
        t = (
            (n - 1) * math.log(root + x0_norm)
            + (12 * N + n + 4) * math.log(2.0)
            - math.log(3.0)
            - (2 * N + n) * math.log(p.r)
            + (2 * N + 1) * math.log(root + x0_norm - p.r / 2.0)
        )
        return (
            math.log(2.0 / math.sqrt(3.0))
            + 0.5 * (x0_norm + p.r) ** 2
            + 0.5 * float(np.logaddexp(0.0, t))
        )
    if p.variant == "density":
        if root < p.R0:
            return None
        return (
            0.5 * ((4 * N + 6) * math.log(2.0) - math.log(9.0 * p.delta))
            + N * math.log(remez_fraction(n, p.delta / 4.0))
            + 0.5 * c_n * c_n * (N + 1.0)
        )
    if p.variant == "thick":
        # theta = log2(4 C_kov (pi n)^(n/2) / (Gamma(n/2) gamma)); at delta = 1 / (d_n L),
        # d_n = 2 sqrt(2^11 n^3 (2^n + 1)), e / (2 delta^2) = e s / 2 with s = (d_n L)^2 built
        # on L's mantissa, and the Sobolev ratio 32 delta^2 (2^n + 1) is 2^-8 n^-3 L^-2
        theta = (math.log(4.0 * DEFAULT_C_KOV) - math.log(p.gamma) + n / 2 * math.log(math.pi * n)
                 - math.lgamma(n / 2)) / math.log(2.0)
        m, k = math.frexp(p.L)
        s = saturated(lambda: math.ldexp(n**3 * (1.0 + 2.0**-n) * m * m, 13 + n + 2 * k))
        log_ratio = -8 * math.log(2.0) - 3 * math.log(n) - 2 * math.log(p.L)
        inner = (
            0.5 * n * math.log(4.0 * p.L)
            + math.log(DEFAULT_C_SOBOLEV)
            + math.e / 2 * s
            + 0.5 * _log_sum_weighted_factorials(n, log_ratio)
            + (math.sqrt(s) * math.sqrt(N) if N else 0.0)  # d_n L sqrt(N), never inf * 0
        )
        return 1.5 * math.log(2.0) - 0.5 * math.log(p.gamma) + theta * inner
    raise ContractViolation("unknown bound variant %r" % p.variant)


def theoretical_bound(p: BoundParams, N):
    """The explicit bound as a float (inf past the double range); None when
    the variant's validity condition excludes this N."""
    lg = theoretical_bound_log(p, N)
    return None if lg is None else saturated(lambda: math.exp(lg))


# -- scaling studies -----------------------------------------------------------


SCALING_MODELS = ("sqrtN", "N", "NlnN")


def _model_values(name, Ns):
    Ns = np.asarray(Ns, dtype=float)
    if name == "sqrtN":
        return np.sqrt(Ns)
    if name == "N":
        return Ns
    if name == "NlnN":
        return Ns * np.log(np.maximum(Ns, 1.0))  # 0 at N = 0, its limit
    raise ContractViolation("unknown model %r" % name)


@dataclass
class ScalingReport:
    """Measured constants over a range of cutoffs plus growth-model fits."""

    n: int
    rows: list = field(default_factory=list)  # dicts per N
    fits: dict = field(default_factory=dict)
    best_model: str = ""
    exponent_p: float = math.nan
    bound_variant: str = ""
    dominance_ok: bool = True
    aux_constants: dict = field(default_factory=dict)

    def csv_rows(self):
        header = ["N", "dim", "C_measured", "lambda_min", "bound", "bound_variant",
                  "precision_bits"]
        return header, [[row["N"], self.n, row["C_measured"], row["lambda_min"], row["bound"],
                         self.bound_variant, row["precision_bits"]] for row in self.rows]


def scaling_study(region: Region, N_list, bound: Optional[BoundParams] = None,
                  precision_bits=53) -> ScalingReport:
    """Measure C_N over increasing cutoffs, fit growth models, check bounds.

    Fits log C_N against sqrt(N), N and N log N; also fits the free exponent
    p in log C_N ~ N^p (over the cutoffs where log C_N is usefully positive).
    When a bound-parameter object is supplied, every measured constant is
    compared in log domain against the explicit bound and violations are
    recorded (never silently dropped); cutoffs whose Gram is numerically
    singular even at maximal precision are reported with flags.  One Gram,
    at the largest cutoff, serves every cutoff (:func:`spectral_constants`).
    """
    N_list, n = list(N_list), region.n
    if not N_list or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ContractViolation("N_list must be non-empty and strictly increasing")
    report = ScalingReport(n)
    if bound is not None:
        if bound.n != n:
            raise ContractViolation("a %d-D bound on a %d-D region" % (bound.n, n))
        report.bound_variant = bound.variant
        report.aux_constants = {"c_n": tail_constant_cn(n).c, "C_sobolev": DEFAULT_C_SOBOLEV,
                                "C_kov": DEFAULT_C_KOV}
    G = gram_matrix(region, N_list[-1])
    for N, res in zip(N_list, spectral_constants(G, N_list, precision_bits)):
        row = {"N": N, "C_measured": res.c_value, "C_log": res.c_log, "lambda_min": res.lam_min,
               "lambda_min_log": res.lam_min_log, "precision_bits": res.precision_bits,
               "flag": res.flag, "bound": math.nan, "bound_log": math.nan}
        if bound is not None:
            blog = theoretical_bound_log(bound, N)
            if blog is not None:
                row["bound_log"], row["bound"] = blog, theoretical_bound(bound, N)
                if res.flag == "ok" and res.c_log > blog:
                    report.dominance_ok = False
        report.rows.append(row)

    Ns = np.array([r["N"] for r in report.rows if r["flag"] == "ok"], dtype=float)
    logs = np.array([r["C_log"] for r in report.rows if r["flag"] == "ok"])
    if len(Ns) >= 3:
        for name in SCALING_MODELS:
            slope, intercept, ssr, r2 = basis.linear_fit(_model_values(name, Ns), logs)
            report.fits[name] = {"slope": slope, "intercept": intercept, "ssr": ssr, "r2": r2}
        report.best_model = min(report.fits, key=lambda k: report.fits[k]["ssr"])
        mask = (logs > 0.1) & (Ns > 0)
        if mask.sum() >= 3:
            p_slope, _, _, _ = basis.linear_fit(np.log(Ns[mask]), np.log(logs[mask]))
            report.exponent_p = p_slope
    return report
