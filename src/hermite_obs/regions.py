"""Measurable control regions as finite axis-aligned box unions.

A region is always normalized to a finite union of pairwise-disjoint boxes
inside a truncation ball; geometric diagnostics (thickness, density ratios)
are exact box arithmetic, and integrals of Hermite-function pairs over a
region reduce per axis to one-dimensional integrals over intervals, all in
closed form from the boundary values of phi_k and phi_k':

* ``j != k``: the Wronskian identity
  ``int_a^b phi_j phi_k = [phi_j phi_k' - phi_j' phi_k]_a^b / (2 (j - k))``,
  a consequence of both factors solving the oscillator equation.
* ``j == k``: the ladder recurrence
  ``I_{k+1} = I_k - [phi_k phi_{k+1}]_a^b / sqrt(2 (k + 1))`` seeded with
  ``I_0 = (erf(b) - erf(a)) / 2``; it follows from
  ``a^dagger phi_k = sqrt(k + 1) phi_{k+1}`` and one integration by parts
  of ``a^dagger = (x - d/dx) / sqrt(2)``.

The same formulas serve double precision (with a derived rounding bound)
and arbitrary precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import ContractViolation
from .estimates import tail_constant_cn
from .quadrature import composite_gauss_legendre

WRONSKIAN_EXACT = "wronskian_exact"
ERF_RECURRENCE = "erf_recurrence"


@dataclass(frozen=True)
class QuadratureAccount:
    """A numeric value together with an honest absolute error bound."""

    value: float
    abs_error_bound: float
    method: str

    def __post_init__(self):
        if self.abs_error_bound < 0:
            raise ContractViolation("error bound must be nonnegative")


def truncate_radius(N, n, safety=1.5):
    """Radius past which any f in E_N keeps at most a quarter of its mass.

    Returns ``safety * c_n * sqrt(N+1)`` with the certified dimensional
    constant c_n; safety > 1 shrinks the neglected mass far below the
    quarter-mass guarantee (the majorant exponent scales with safety^2).
    """
    if N < 0 or n < 1:
        raise ContractViolation("need N >= 0 and n >= 1")
    if safety < 1.0:
        raise ContractViolation("safety factor must be >= 1")
    return safety * tail_constant_cn(n).c * math.sqrt(N + 1.0)


def _merge_intervals(lows, highs, tol=1e-12):
    order = np.argsort(lows)
    lows, highs = lows[order], highs[order]
    reach = np.maximum.accumulate(highs)  # a run ends where the next interval starts past it
    start = np.flatnonzero(np.concatenate([[True], lows[1:] > reach[:-1] + tol]))
    return lows[start], np.maximum.reduceat(highs, start)


class Region:
    """Finite union of disjoint axis-aligned boxes in R^n.

    Attributes
    ----------
    n : spatial dimension
    lows, highs : arrays of shape (K, n), box corners
    generator : dict describing how the region was produced
    trunc_radius : radius of the ball inside which the region is faithful
    """

    def __init__(self, n, lows, highs, generator=None, trunc_radius=None):
        lows = np.atleast_2d(np.asarray(lows, dtype=float))
        highs = np.atleast_2d(np.asarray(highs, dtype=float))
        if lows.shape != highs.shape or (lows.size and lows.shape[1] != n):
            raise ContractViolation("box arrays must have shape (K, n)")
        if np.any(highs < lows):
            raise ContractViolation("box with negative side length")
        if not np.all(np.isfinite(lows)) or not np.all(np.isfinite(highs)):
            raise ContractViolation("box bounds must be finite")
        if n == 1 and lows.size:
            lo, hi = _merge_intervals(lows[:, 0], highs[:, 0])
            lows, highs = lo.reshape(-1, 1), hi.reshape(-1, 1)
        self.n = n
        self.lows = lows
        self.highs = highs
        self.generator = dict(generator or {"kind": "explicit"})
        if trunc_radius is None:
            trunc_radius = float(np.max(np.abs(np.concatenate([lows, highs])))) if lows.size else 0.0
        self.trunc_radius = float(trunc_radius)
        self._check_disjoint()
        self.lows.flags.writeable = False
        self.highs.flags.writeable = False

    def _check_disjoint(self):
        K = self.lows.shape[0]
        if K < 2:
            return
        vols = np.prod(self.highs - self.lows, axis=1)
        floor = 1e-12 * max(np.min(vols[vols > 0], initial=1.0), 1e-300)
        rows = max(1, 2**15 // (K * self.n))  # chunk of rows i, all j, ~2^15 coordinates
        for start in range(0, K - 1, rows):
            i = np.arange(start, min(start + rows, K - 1))
            lo = np.maximum(self.lows[i, None], self.lows[None, :])
            hi = np.minimum(self.highs[i, None], self.highs[None, :])
            overlap = np.all(hi > lo, axis=2) & (np.prod(hi - lo, axis=2) > floor)
            if np.any(overlap & (i[:, None] < np.arange(K))):
                raise ContractViolation("boxes overlap beyond tolerance")

    # -- measures -----------------------------------------------------------

    @property
    def box_count(self):
        return self.lows.shape[0]

    def measure(self):
        if not self.lows.size:
            return 0.0
        return float(np.sum(np.prod(self.highs - self.lows, axis=1)))

    def measure_in_cube(self, corner, side):
        """Exact |region cap (corner + [0, side]^n)| by box clipping."""
        corner = np.asarray(corner, dtype=float)
        if not self.lows.size:
            return 0.0
        lo = np.maximum(self.lows, corner)
        hi = np.minimum(self.highs, corner + side)
        edges = np.clip(hi - lo, 0.0, None)
        return float(np.sum(np.prod(edges, axis=1)))

    def intersect_interval(self, a, b):
        """1-D only: total length of region cap [a, b]."""
        if self.n != 1:
            raise ContractViolation("intersect_interval is one-dimensional")
        lo = np.maximum(self.lows[:, 0], a)
        hi = np.minimum(self.highs[:, 0], b)
        return float(np.sum(np.clip(hi - lo, 0.0, None)))

    def to_json_dict(self):
        return {
            "n": self.n,
            "generator": self.generator,
            "trunc_radius": self.trunc_radius,
            "boxes": [
                [list(map(float, lo)), list(map(float, hi))]
                for lo, hi in zip(self.lows, self.highs)
            ],
        }

    @staticmethod
    def from_json_dict(doc):
        lows = [b[0] for b in doc["boxes"]]
        highs = [b[1] for b in doc["boxes"]]
        return Region(doc["n"], lows, highs, doc.get("generator"),
                      doc.get("trunc_radius"))


# -- generators ---------------------------------------------------------------


def make_periodic_thick(n, L, gamma, r_trunc):
    """Periodic thick pattern: one corner sub-box of side gamma^(1/n) L per cell.

    Every lattice cell ``alpha + [0, L]^n`` meeting the ball B(0, r_trunc)
    contributes the sub-box anchored at its corner, so the region is exactly
    gamma-thick at scale L inside the truncation radius.
    """
    if not 0.0 < gamma <= 1.0:
        raise ContractViolation("thickness fraction gamma must lie in (0, 1]")
    if L <= 0.0 or r_trunc <= 0.0:
        raise ContractViolation("scale L and truncation radius must be positive")
    side = gamma ** (1.0 / n) * L
    jmax = int(math.floor(r_trunc / L)) + 1
    cells = itertools.product(range(-jmax - 1, jmax + 1), repeat=n)
    corners = np.array(list(cells), dtype=float) * L
    nearest = np.where(corners > 0, corners, np.minimum(corners + L, 0.0))
    corners = corners[np.linalg.norm(nearest, axis=1) < r_trunc]
    return Region(n, corners, corners + side,
                  {"kind": "periodic_thick", "L": L, "gamma": gamma}, trunc_radius=r_trunc)


def half_space(n, axis, c, r_trunc):
    """{x_axis > c} clipped to the truncation box [-R, R]^n."""
    if r_trunc <= 0 or c >= r_trunc:
        raise ContractViolation("truncation radius too small for the half-space")
    lo = np.full(n, -r_trunc)
    hi = np.full(n, r_trunc)
    lo[axis] = c
    return Region(n, lo[None, :], hi[None, :],
                  {"kind": "half_space", "axis": axis, "c": c},
                  trunc_radius=r_trunc)


def half_line(r_trunc):
    return half_space(1, 0, 0.0, r_trunc)


def full_space(n, r_trunc):
    """R^n truncated to the box [-R, R]^n."""
    lo = np.full((1, n), -float(r_trunc))
    hi = np.full((1, n), float(r_trunc))
    return Region(n, lo, hi, {"kind": "full"}, trunc_radius=r_trunc)


def interval_region(a, b, trunc_radius=None):
    """A single interval [a, b] in one dimension (e.g. a 1-D ball)."""
    return Region(1, [[a]], [[b]], {"kind": "explicit"},
                  trunc_radius=trunc_radius or max(abs(a), abs(b)))


def box_region(lo, hi, trunc_radius=None):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return Region(len(lo), lo[None, :], hi[None, :], {"kind": "explicit"},
                  trunc_radius=trunc_radius)


def ball_complement(r0, r_trunc):
    """1-D complement of (-r0, r0), truncated: two symmetric intervals."""
    if r0 <= 0 or r_trunc <= r0:
        raise ContractViolation("need 0 < r0 < truncation radius")
    return Region(
        1,
        [[-r_trunc], [r0]],
        [[-r0], [r_trunc]],
        {"kind": "ball_complement", "r0": r0},
        trunc_radius=r_trunc,
    )


def union(a: Region, b: Region):
    """Union of two regions with disjoint boxes (validated on construction)."""
    if a.n != b.n:
        raise ContractViolation("dimension mismatch")
    return Region(
        a.n,
        np.vstack([a.lows, b.lows]),
        np.vstack([a.highs, b.highs]),
        {"kind": "union"},
        trunc_radius=max(a.trunc_radius, b.trunc_radius),
    )


# -- geometric diagnostics -----------------------------------------------------


def thickness_check(region: Region, L, m=4):
    """Thickness fraction at scale L, sampled on a lattice of cube corners.

    Minimizes |region cap (x + [0,L]^n)| / L^n over corners x on a lattice of
    pitch L/m, restricted to cubes lying inside the truncation ball (outside
    it the region is artificially empty).  Box clipping makes each cube
    measure exact, but a minimum over lattice corners is in general an upper
    estimate of the infimum over all corners: for [-10, 0.15] u [1.05, 10],
    L = 1 and m = 4 it gives 0.15, while the infimum is 0.1.  For the
    periodic pattern at its own period L every cube has the same measure, so
    the value is exact there.
    """
    if L <= 0 or m < 1:
        raise ContractViolation("need L > 0 and m >= 1")
    R = region.trunc_radius
    if math.sqrt(region.n) * L >= 2 * R:
        raise ContractViolation("truncation ball too small for scale L")
    pitch = L / m
    half_span = R / math.sqrt(region.n)  # cube inside the ball
    lo_corner = -half_span
    hi_corner = half_span - L
    count = int(math.floor((hi_corner - lo_corner) / pitch)) + 1
    if count < 1:
        raise ContractViolation("no admissible cube positions")
    grid = [lo_corner + pitch * i for i in range(count)]
    return min(region.measure_in_cube(np.array(corner), L) / L**region.n
               for corner in itertools.product(grid, repeat=region.n))


def _clip_length(lo, hi, s):
    """Vectorized |[lo, hi] cap [-s, s]|."""
    return np.clip(np.minimum(hi, s) - np.maximum(lo, -s), 0.0, None)


def _box_ball_overlap(lo, hi, R, tol):
    """|box cap B(0,R)| by slicing along the first axis.

    The slice at x has overlap equal to a (d-1)-dimensional box/ball overlap
    at radius sqrt(R^2 - x^2); in two dimensions that inner overlap is a
    closed-form clipped interval length, so the outer integral is a single
    adaptive panel quadrature with an honest doubling estimate.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a = max(lo[0], -R)
    b = min(hi[0], R)
    if b <= a or R <= 0:
        return 0.0, 0.0
    if len(lo) == 1:
        return b - a, 0.0
    if len(lo) == 2:
        def f(x):
            s = np.sqrt(np.clip(R * R - x * x, 0.0, None))
            return _clip_length(lo[1], hi[1], s)
    else:
        def f(x):  # a slice past the ball has radius 0 and overlap 0
            return np.array([_box_ball_overlap(lo[1:], hi[1:], math.sqrt(max(R * R - t * t, 0.0)),
                                               tol / 10)[0] for t in x])
    v, e, _ = composite_gauss_legendre(f, a, b, abs_tol=tol, min_panels=32)
    return v, e


def density_ratio(region: Region, R, tol=1e-7):
    """|region cap B(0,R)| / |B(0,R)|.

    Exact interval arithmetic in one dimension; in higher dimension each box
    is sliced against the ball with adaptive quadrature whose doubling
    estimate certifies the error below ``tol`` of the ball volume.
    """
    if R <= 0:
        raise ContractViolation("radius must be positive")
    if R > region.trunc_radius + 1e-12:
        raise ContractViolation("radius exceeds the truncation radius")
    if region.n == 1:
        return region.intersect_interval(-R, R) / (2.0 * R)
    ball_vol = math.pi ** (region.n / 2.0) / math.gamma(region.n / 2.0 + 1.0) * R**region.n
    total, err = 0.0, 0.0
    budget = tol * ball_vol / max(region.box_count, 1)
    for lo, hi in zip(region.lows, region.highs):
        v, e = _box_ball_overlap(lo, hi, R, budget)
        total += v
        err += e
    if err > tol * ball_vol * max(region.box_count, 1) * 1.001:
        raise ContractViolation("slicing failed to certify the requested tolerance")
    return total / ball_vol


# -- Hermite pair integration ---------------------------------------------------


def interval_pair_tables(a, b, N, mp=None):
    """All integrals int_{a_i}^{b_i} phi_j phi_k for j, k <= N, in closed form.

    ``a`` and ``b`` hold the ends of M intervals, shape (M,).  The boundary
    values come from the weighted three-term recurrence, the off-diagonals
    from the Wronskian identity and the diagonals from the erf-seeded ladder
    recurrence (module docstring).  With ``mp=None`` everything runs in double
    precision, vectorized, and the result is ``(values, error_bounds)``, two
    (M, N+1, N+1) stacks whose bounds come from the rounding analysis below.
    With an mpmath context the same formulas run in its working precision and
    only the values are returned, an (M, N+1, N+1) object array of mpf.  No
    table depends on its batch: every entry sees the same operations in the
    same order, bit for bit, in chunks of about 2^15 bound temporaries.
    """
    ends = np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)], axis=-1)
    shape = (len(ends), N + 1, N + 1)
    out = (np.empty(shape, dtype=object),) if mp is not None else (np.empty(shape), np.empty(shape))
    rows = max(1, 2**15 // (2 * (N + 2) ** 2))  # G below holds 2 (N+2)^2 doubles per interval
    for start in range(0, len(ends), rows):
        for stack, part in zip(out, _pair_tables(ends[start:start + rows], N, mp)):
            stack[start:start + rows] = part
    return out[0] if mp is not None else out


def _pair_tables(x, N, mp):
    """``interval_pair_tables`` of the intervals ``x[i] = (a_i, b_i)``."""
    if mp is None:
        num, sqrt, exp, erf, erfc, pi, dtype = (
            float, math.sqrt, math.exp, math.erf, math.erfc, math.pi, float)
    else:
        num, sqrt, exp, erf, erfc, pi, dtype = (
            mp.mpf, mp.sqrt, mp.exp, mp.erf, mp.erfc, mp.pi, object)
    M, K = len(x), N + 1
    if mp is not None:
        x = np.frompyfunc(num, 1, 1)(x)
    c = np.array([sqrt(num(2) / (k + 1)) for k in range(K)], dtype=dtype)
    d = np.array([sqrt(num(k) / (k + 1)) for k in range(K)], dtype=dtype)
    root = np.array([sqrt(num(k)) for k in range(K + 1)], dtype=dtype)[:, None, None]

    # v[k, i] = (phi_k(a_i), phi_k(b_i)) for k <= N+1, dv[k, i] likewise phi_k' for k <= N;
    # the diagonal's seed I_0 = (erf(b) - erf(a)) / 2 leans right and takes erfc when
    # both ends share a sign, so that far intervals keep relative accuracy
    v = np.empty((K + 1, M, 2), dtype=dtype)
    F_lo, F_hi, sign = (np.empty(M, dtype=dtype) for _ in range(3))
    for i, (a, b) in enumerate(x):
        v[0, i] = [pi ** num(-0.25) * exp(-t * t / 2) for t in (a, b)]
        lo, hi = (a, b) if a + b >= 0 else (-b, -a)
        F, sign[i] = (erfc, -1) if lo >= 0 else (erf, 1)
        F_lo[i], F_hi[i] = F(lo), F(hi)
    xc = x * c[:, None, None]
    v[1] = xc[0] * v[0]
    for k in range(1, K):
        v[k + 1] = xc[k] * v[k] - d[k] * v[k - 1]
    below = np.concatenate([v[:1] * 0, v[:K - 1]])
    dv = (root[:K] * below - root[1:] * v[1:]) / sqrt(num(2))

    # off[., i] = [phi_j phi_k' - phi_j' phi_k]_{a_i}^{b_i} / (2 (j - k)) for j < k
    row, col = np.nonzero(np.arange(K)[:, None] < np.arange(K))
    wronskian = [v[row, :, e] * dv[col, :, e] - v[col, :, e] * dv[row, :, e] for e in (0, 1)]
    den = np.array([num(-2 * m) for m in range(K)], dtype=dtype)[col - row, None]
    off = (wronskian[1] - wronskian[0]) / den

    # diagonal: I_{k+1} = I_k - (c_k / 2) [phi_k phi_{k+1}]_a^b from I_0
    B = v[:N, :, 1] * v[1:K, :, 1] - v[:N, :, 0] * v[1:K, :, 0]
    step = c[:N, None] / 2 * B
    seed = sign * (F_hi - F_lo) / 2
    diag = np.cumsum(np.concatenate([seed[None], -step]), axis=0)
    vals = np.empty((M, K, K), dtype=dtype)
    vals[:, row, col] = vals[:, col, row] = off.T
    vals.reshape(M, -1)[:, ::K + 1] = diag.T
    if mp is not None:
        return (vals,)

    # Rounding bound.  eps = 2u dominates every gamma_m = m u / (1 - m u)
    # below.  The boundary values solve T v = phi_0 e_0, T unit lower
    # triangular with row k+1 reading v_{k+1} - x c_k v_k + d_k v_{k-1}.
    # Forward substitution with rounded coefficients gives
    # (T + dT) v^ = phi_0^ e_0 with |dT| <= 3 eps |T| (Higham, Accuracy and
    # Stability of Numerical Algorithms, Thm 8.5), so
    #     |v - v^| <= |T^-1| (3 eps |T| |v^| + |phi_0 - phi_0^| e_0),
    # where exp(-x^2/2) inherits the relative error u x^2/2 of x^2.  An
    # underflow adds at most half a subnormal step: the seed's share is
    # carried by T^-1, the rest by a floor of the smallest normal number.
    eps = np.finfo(float).eps
    tiny = np.finfo(float).smallest_subnormal
    av = np.abs(v)
    G = np.zeros((K + 1, M, 2, K + 1))  # G[k, i, e, m] = (T^-1)[k, m] at end e of interval i
    G[np.arange(K + 1), :, :, np.arange(K + 1)] = 1.0
    G[1] += xc[0, :, :, None] * G[0]
    for k in range(1, K):
        G[k + 1] += xc[k, :, :, None] * G[k] - d[k] * G[k - 1]
    Tv = av.copy()
    Tv[1:] += np.abs(xc) * av[:-1]
    Tv[2:] += d[1:, None, None] * av[:-2]
    r = 3 * eps * Tv + tiny
    r[0] = eps * (x * x / 4 + 3) * av[0] + tiny
    rho = (np.abs(G) * r.transpose(1, 2, 0)).sum(axis=3)
    # phi_k' carries its terms' errors and 3 eps of their size; products of
    # perturbed factors obey |pq - p^q^| <= dp |q^| + (|p^| + dp) dq
    sig = (root[:K] * (np.concatenate([rho[:1] * 0, rho[:K - 1]]) + 3 * eps * np.abs(below))
           + root[1:] * (rho[1:] + 3 * eps * av[1:])) / math.sqrt(2.0)
    adv = np.abs(dv)
    rho_j, av_j = rho[:K, None], av[:K, None]
    S = (rho_j * adv + (av_j + rho_j) * sig + 2 * eps * av_j * adv).sum(axis=3)
    err_B = (rho[:N] * av[1:K] + (av[:N] + rho[:N]) * rho[1:K]
             + 2 * eps * av[:N] * av[1:K]).sum(axis=2)
    err_seed = 4 * eps * (np.abs(F_lo) + np.abs(F_hi)) + eps * np.abs(seed)  # erf, erfc to 8 ulp
    err_step = c[:N, None] / 2 * err_B + 2 * eps * np.abs(step) + eps * np.abs(diag[1:])
    errs = np.empty((M, K, K))
    errs[:, row, col] = errs[:, col, row] = (
        (S[row, col] + S[col, row]) / np.abs(den) + eps * np.abs(off)).T
    errs.reshape(M, -1)[:, ::K + 1] = (err_seed + np.concatenate(
        [np.zeros((1, M)), np.cumsum(err_step, axis=0)])).T
    return vals, errs + np.finfo(float).tiny


def integrate_pair(region: Region, j, k):
    """int over a 1-D region of phi_j phi_k, with an honest error account.

    The result is one entry of ``interval_pair_tables`` summed in order over
    the region's intervals; the method tag names the closed form behind it,
    the Wronskian identity (j != k) or the erf-seeded recurrence (j == k).
    """
    if region.n != 1:
        raise ContractViolation("integrate_pair is a one-dimensional building block")
    if j < 0 or k < 0:
        raise ContractViolation("degrees must be >= 0")
    vals, errs = interval_pair_tables(region.lows[:, 0], region.highs[:, 0], max(j, k))
    return QuadratureAccount(float(vals.sum(axis=0)[j, k]), float(errs.sum(axis=0)[j, k]),
                             WRONSKIAN_EXACT if j != k else ERF_RECURRENCE)
