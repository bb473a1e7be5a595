"""Measurable control regions as products of one-dimensional interval unions.

A region is, per axis, a finite union of disjoint intervals, whose ends may
be infinite, and stands for the product of these unions; density ratios are
exact box arithmetic over the product's boxes, and integrals of
Hermite-function pairs over a region factor into one-dimensional integrals
over the intervals of each axis, all in closed form from the boundary values
of phi_k and phi_k', which are 0 at an infinite end, where erf is +-1:

* ``j != k``: the Wronskian identity
  ``int_a^b phi_j phi_k = [phi_j phi_k' - phi_j' phi_k]_a^b / (2 (j - k))``,
  a consequence of both factors solving the oscillator equation.
* ``j == k``: the ladder recurrence
  ``I_{k+1} = I_k - [phi_k phi_{k+1}]_a^b / sqrt(2 (k + 1))`` seeded with
  ``I_0 = (erf(b) - erf(a)) / 2``; it follows from
  ``a^dagger phi_k = sqrt(k + 1) phi_{k+1}`` and one integration by parts
  of ``a^dagger = (x - d/dx) / sqrt(2)``.

The same formulas serve double precision and, with the boundary
recurrences and the pair work in Python ints, arbitrary precision, each to a
derived bound.  So every region is exact but the periodic lattice, the one
region cut at a truncation radius (:func:`make_periodic_thick`).
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from . import arith, basis
from .basis import ContractViolation
from .estimates import tail_constant_cn

MAX_CELLS = 1 << 20  # lattice cells a periodic region may enumerate


def truncate_radius(N, n):
    """Radius past which any f in E_N keeps at most a quarter of its mass,
    times 1.5: ``1.5 c_n sqrt(N+1)`` with the certified dimensional constant
    c_n.  The factor 1.5 shrinks the neglected mass far below the
    quarter-mass guarantee (the majorant exponent scales with its square).
    """
    if N < 0 or n < 1:
        raise ContractViolation("need N >= 0 and n >= 1")
    return 1.5 * tail_constant_cn(n).c * math.sqrt(N + 1.0)


def _merge_intervals(lows, highs):
    order = np.argsort(lows)
    lows, highs = lows[order], highs[order]
    reach = np.maximum.accumulate(highs)  # a run ends where the next interval starts past it
    start = np.flatnonzero(np.concatenate([[True], lows[1:] > reach[:-1] + 1e-12]))
    return lows[start], np.maximum.reduceat(highs, start)


class Region:
    """Product of one-dimensional interval unions in R^n.

    Attributes
    ----------
    n : spatial dimension
    axes : n pairs (lows, highs), each axis's sorted, disjoint intervals
    generator : dict describing how the region was produced
    trunc_radius : radius of the ball inside which the region is faithful, inf but for the lattice

    ``axes`` takes, per axis, the interval ends as arrays or scalars, +-inf
    included; the intervals of an axis are merged where they overlap or
    touch.  The boxes of the product, in the order of ``itertools.product``
    over the axes, are ``lows`` and ``highs``, of shape (K, n).
    """

    def __init__(self, axes, generator=None, trunc_radius=math.inf):
        merged = []
        for lows, highs in axes:
            lows, highs = (np.asarray(c, dtype=float).reshape(-1) for c in (lows, highs))
            if lows.shape != highs.shape:
                raise ContractViolation("an axis needs as many low ends as high ends")
            if not (np.all(lows < math.inf) and np.all(highs > -math.inf)):  # nan fails both
                raise ContractViolation("interval ends must be numbers, no interval at infinity")
            if np.any(highs < lows):
                raise ContractViolation("interval with negative length")
            lows, highs = _merge_intervals(lows, highs) if lows.size else (lows.copy(), highs.copy())
            lows.flags.writeable = highs.flags.writeable = False
            merged.append((lows, highs))
        if not merged:
            raise ContractViolation("a region needs at least one axis")
        self.n = len(merged)
        self.axes = tuple(merged)
        self.generator = dict(generator or {"kind": "explicit"})
        self.trunc_radius = float(trunc_radius)

    # -- the boxes and measures -------------------------------------------------

    def _corners(self, end):
        grid = np.meshgrid(*(axis[end] for axis in self.axes), indexing="ij")
        return np.stack(grid, axis=-1).reshape(-1, self.n)

    @property
    def lows(self):
        return self._corners(0)

    @property
    def highs(self):
        return self._corners(1)

    @property
    def box_count(self):
        return math.prod(len(lows) for lows, _ in self.axes)

    def measure(self):  # a null axis times an infinite one is 0, not nan
        lengths = [np.sum(highs - lows) for lows, highs in self.axes]
        return 0.0 if min(lengths) == 0 else float(math.prod(lengths))

    def to_json_dict(self):
        """The region's definition, size and a SHA-256 of the little-endian
        float64 bytes of ``lows`` then ``highs``, which pins every box."""
        corners = b"".join(np.asarray(c, dtype="<f8").tobytes() for c in (self.lows, self.highs))
        return {
            "n": self.n,
            "generator": self.generator,
            "trunc_radius": self.trunc_radius,
            "box_count": self.box_count,
            "measure": self.measure(),
            "sha256": hashlib.sha256(corners).hexdigest(),
        }


# -- generators ---------------------------------------------------------------


def make_periodic_thick(n, L, gamma, r_trunc):
    """Periodic thick pattern: one corner sub-box of side gamma^(1/n) L per cell.

    Every lattice cell ``alpha + [0, L]^n`` meeting the cube (-r_trunc,
    r_trunc)^n contributes the sub-box anchored at its corner, so the region
    is exactly gamma-thick at scale L inside the truncation radius and is the
    product of n copies of one interval union: the axis's cells that meet
    (-r_trunc, r_trunc).  The cube holds the ball B(0, r_trunc), so the tail
    bound of :func:`gram.truncation_entry_error` covers it.  The lattice of
    (2 jmax + 2)^n cells, jmax = floor(r_trunc / L) + 1, is counted first and
    refused above ``MAX_CELLS``.
    """
    if not 0.0 < gamma <= 1.0:
        raise ContractViolation("thickness fraction gamma must lie in (0, 1]")
    if L <= 0.0 or r_trunc <= 0.0:
        raise ContractViolation("scale L and truncation radius must be positive")
    side = gamma ** (1.0 / n) * L
    jmax = math.floor(min(r_trunc / L, MAX_CELLS)) + 1  # r_trunc / L overflows for tiny L
    if (2 * jmax + 2) ** n > MAX_CELLS:
        raise ContractViolation("periodic L = %r at truncation radius %.6g needs more than "
                                "regions.MAX_CELLS = %d lattice cells" % (L, r_trunc, MAX_CELLS))
    corners = np.arange(-jmax - 1, jmax + 1, dtype=float) * L
    nearest = np.where(corners > 0, corners, np.minimum(corners + L, 0.0))
    corners = corners[np.abs(nearest) < r_trunc]
    return Region([(corners, corners + side)] * n,
                  {"kind": "periodic_thick", "L": L, "gamma": gamma}, trunc_radius=r_trunc)


def half_space(n, axis, c):
    """{x_axis > c} in R^n."""
    if not 0 <= axis < n:
        raise ContractViolation("half-space axis %d outside 0..%d" % (axis, n - 1))
    axes = [(-math.inf, math.inf)] * n
    axes[axis] = (c, math.inf)
    return Region(axes, {"kind": "half_space", "axis": axis, "c": c})


def half_line():
    return half_space(1, 0, 0.0)


def full_space(n):
    return Region([(-math.inf, math.inf)] * n, {"kind": "full"})


def ball_complement(r0):
    """1-D complement of (-r0, r0): two half-lines."""
    if not r0 > 0:
        raise ContractViolation("need r0 > 0")
    return Region([([-math.inf, r0], [-r0, math.inf])], {"kind": "ball_complement", "r0": r0})


# -- geometric diagnostics -----------------------------------------------------


def _quarter_disc(u, v, R):
    """|[0, u] x [0, v] cap B(0, R)| for 0 <= u, v <= R: vx up to
    x = min(u, sqrt(R^2 - v^2)), then int_x^u sqrt(R^2 - s^2) ds = S(u) - S(x),
    S(x) = (x y + R^2 asin(x / R)) / 2 with y = sqrt(R^2 - x^2); each asin is
    atan2(x, y) from the known y, which stays accurate near the circle."""
    x0 = np.sqrt((R - v) * (R + v))
    yu = np.sqrt((R - u) * (R + u))
    x, y = np.minimum(u, x0), np.where(u < x0, yu, v)
    return v * x + (u * yu - x * y) / 2 + R * R / 2 * (np.arctan2(u, yu) - np.arctan2(x, y))


def _octant_ball(u, v, w, R):
    """|[0, u] x [0, v] x [0, w] cap B(0, R)| for 0 <= u, v, w <= R.

    The slice at x is the quarter-disc rectangle at r = sqrt(R^2 - x^2): vw up
    to x_vw = sqrt(R^2 - v^2 - w^2), then T(v) + T(w) - pi r^2 / 4 with
    T(t) = int_0^min(t, r) sqrt(r^2 - s^2) ds, pi r^2 / 4 past x_t = sqrt(R^2 - t^2).
    Below x_t, by parts on (R^2 - x^2) asin(t / r) and s = sqrt(R^2 - t^2 - x^2),
    int T dx = P = t x s / 3 + t (R^2/2 - t^2/6) asin(x / sqrt(R^2 - t^2))
        + x (R^2 - x^2/3) asin(t / r) / 2 - (R^3 / 3) atan(t x / (R s)),
    each asin an atan2 of s.
    """
    def Q(a, b):  # int_a^b pi r^2 / 4 dx
        return math.pi / 4 * (b - a) * (R * R - (a * a + a * b + b * b) / 3)

    def P(t, x, s):
        return (t * x * s / 3 + t * (R * R / 2 - t * t / 6) * np.arctan2(x, s)
                + x * (R * R - x * x / 3) * np.arctan2(t, s) / 2
                - R**3 / 3 * np.arctan2(t * x, R * s))

    x_vw = np.sqrt(np.clip((R - v) * (R + v) - w * w, 0.0, None))
    a0 = np.minimum(u, x_vw)
    total = v * w * a0 - Q(a0, u)
    for t, other in ((v, w), (w, v)):
        x_t = np.sqrt((R - t) * (R + t))
        s_u = np.sqrt(np.clip((R - t) * (R + t) - u * u, 0.0, None))  # s at x = u
        c = np.minimum(x_t, u)
        s_a0 = np.where(u < x_vw, s_u, np.minimum(other, x_t))  # other, or x_t if x_vw = 0
        total += P(t, c, np.where(u < x_t, s_u, 0.0)) - P(t, a0, s_a0) + Q(c, u)
    return total


def density_ratio(region: Region, R):
    """|region cap B(0,R)| / |B(0,R)| in closed form, for n <= 3.

    Inclusion-exclusion over the 2^n corners c of each box of the product,
    high ends +, low ends -, of G(c) = prod_i sgn(c_i) g_n(min(|c|, R)), where
    g_n(u) is |[0, u_1] x ... x [0, u_n] cap B(0, R)|; the ball is
    2^n g_n(R, ..., R).
    Corner terms reach R^n and cancel, so the absolute error is a few eps R^n.
    """
    if R <= 0:
        raise ContractViolation("radius must be positive")
    if R > region.trunc_radius + 1e-12:
        raise ContractViolation("radius exceeds the truncation radius")
    n = region.n
    if n > 3:
        raise ContractViolation("box-ball volumes are closed forms only for n <= 3")
    g = {1: lambda u, R: u, 2: _quarter_disc, 3: _octant_ball}[n]
    lows, highs = region.lows, region.highs
    total = 0.0
    for high in itertools.product((False, True), repeat=n):
        c = np.where(high, highs, lows)
        sign = (-1) ** (n - sum(high))
        total = total + sign * np.prod(np.sign(c), axis=1) * g(*np.minimum(np.abs(c), R).T, R)
    ball = 2**n * g(*np.full((n, 1), float(R)), R)[0]
    return float(np.sum(total) / ball)


# -- Hermite pair integration ---------------------------------------------------


def interval_pair_tables(a, b, N, mp=None):
    """All integrals int_{a_i}^{b_i} phi_j phi_k for j, k <= N, in closed form.

    ``a`` and ``b`` hold the ends of M intervals, shape (M,).  The boundary
    values come from the weighted three-term recurrence, the off-diagonals
    from the Wronskian identity and the diagonals from the erf-seeded ladder
    recurrence (module docstring).  With ``mp=None`` everything runs in double
    precision, vectorized, and the result is ``(values, error_bounds)``, two
    (M, N+1, N+1) stacks whose bounds come from the rounding analysis below.
    An end past 64 is read at +-64: past 38.6, phi_0 (so every phi_k) and
    erfc are 0 in doubles and erf is +-1, and |phi_k| only falls past its
    turning point sqrt(2k + 1); an infinite end, where they are exactly 0,
    adds nothing to the bound.  A bound past the double range reads inf.
    With an mpmath context the result is ``(tables, exps)``, table i being
    the Python ints ``tables[i]`` times 2^exps[i].  Only the O(M) values
    phi_0, erf and erfc at the ends are mpf, at W = ``mp.prec + 64`` bits,
    and pi^(-1/4) is taken once.  Each end's recurrence for phi_k and phi_k'
    runs in ints at the scale 2^e of phi_0's W-bit mantissa, with the end at
    2^-W and the constants sqrt(2 / (k + 1)), sqrt(k / (k + 1)), sqrt(k) and
    sqrt(2) each below by less than 2^-W (:func:`_roots`), one rounding a
    step: it errs by units of 2^e where an mpf recurrence at W bits errs by
    units of its terms, and 2^e lies 32 bits below the interval's scale
    2^-s_i (32 bits past ``mp.prec`` for the larger of its largest boundary
    value and the root of its seed), as |phi_0| is at most that value.  One
    shift per end then rounds the values to 2^-s_i, the seed is rounded at
    2^-2s_i, and the Wronskian, the division by 2 (j - k) and the ladder run
    in ints, exps[i] = -2 s_i.  With A the largest |v|, |v'| in units 2^-s_i,
    each entry errs by at most (N + 1) (3 A + 1) units 2^exps[i].  No table
    depends on its batch: every entry sees the same operations in the same
    order, bit for bit, in chunks of about 2^15 bound temporaries.
    """
    ends = np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)], axis=-1)
    shape = (len(ends), N + 1, N + 1)
    out = (np.empty(shape), np.empty(shape)) if mp is None else (
        np.empty(shape, dtype=object), np.empty(len(ends), dtype=object))
    bits = None if mp is None else mp.prec + 32
    scope = np.errstate(over="ignore", invalid="ignore") if mp is None else mp.workprec(bits + 32)
    tables = scope(_pair_tables)  # in doubles an overflowed bound reads inf, with no warning
    rows = max(1, 2**15 // (2 * (N + 2) ** 2))  # G below holds 2 (N+2)^2 doubles per interval
    for start in range(0, len(ends), rows):
        for stack, part in zip(out, tables(ends[start:start + rows], N, mp, bits)):
            stack[start:start + rows] = part
    return out


def _roots(ratios, W):
    """[sqrt(p / q) for (p, q) in ratios] as floats for W None, else as the
    ints isqrt(p 4^W // q), each below the root times 2^W by less than 1."""
    if W is None:
        return np.array([math.sqrt(p / q) for p, q in ratios])
    return np.array([math.isqrt((p << 2 * W) // q) for p, q in ratios], dtype=object)


@basis.frozen_cache
def _root_rows(K, W):
    """The pair tables' constants of order K by :func:`_roots`, ints at
    2^-W (doubles for W None): c_k = sqrt(2 / (k + 1)) and d_k = sqrt(k / (k
    + 1)) for k < K, sqrt(k) for k <= K and sqrt(2), one row each.  A
    read-only table of the process, one per (K, W)."""
    ratios = ([(2, k + 1) for k in range(K)], [(k, k + 1) for k in range(K)],
              [(k, 1) for k in range(K + 1)], [(2, 1)])
    return tuple(_roots(r, W) for r in ratios)


ERF_HALF = 0.4769362762044699  # erf^-1(1/2) rounded up: a double below it lies below erf^-1(1/2)


def _boundary(x, K, mp, bits):
    """(v, dv, seed, s, F) of the intervals ``x[i] = (a_i, b_i)``: v[k, i] =
    (phi_k(a_i), phi_k(b_i)) for k <= K, dv[k, i] likewise phi_k' for k < K,
    and the diagonal's seed I_0 = (erf(b) - erf(a)) / 2 from the pair F of
    erf values, erfc when both ends share a sign and the far one lies at or
    past erf^-1(1/2), so that far intervals keep relative accuracy; on an
    interval inside [0, erf^-1(1/2)) both erf values lie below 1/2, where
    erfc's lie above it and cancel.  Floats with s None, or with an mpmath
    context ints, v and dv at 2^-s_i and the seed at 2^-2s_i
    (:func:`interval_pair_tables`).  An infinite end has phi_0 = 0, erf =
    +-1 and erfc = 0; its recurrence runs on the exact zero, so in fixed
    point the end reads 0 and takes the other end's scale 2^e, which it then
    moves neither for the interval nor for a shift.
    """
    exp, erf, erfc, pi = (getattr(mp or math, f) for f in ("exp", "erf", "erfc", "pi"))
    num, dtype, div = (float, float, np.true_divide) if mp is None else (mp.mpf, object, arith._rdiv)
    M, W = len(x), None if mp is None else mp.prec
    c, d, root, sqrt2 = _root_rows(K, W)
    v = np.empty((K + 1, M, 2), dtype=dtype)
    F_lo, F_hi, sign = np.empty((3, M), dtype=dtype)
    p = pi ** num(-0.25)
    for i, (a, b) in enumerate(x if mp is None else np.frompyfunc(num, 1, 1)(x)):
        v[0, i] = [p * exp(-t * t / 2) for t in (a, b)]
        lo, hi = (a, b) if a + b >= 0 else (-b, -a)
        F, sign[i] = (erfc, -1) if lo >= 0 and hi >= ERF_HALF else (erf, 1)
        F_lo[i], F_hi[i] = F(lo), F(hi)
    seed = sign * (F_hi - F_lo) / 2
    fit = 0  # a step's rounding to v's scale: none in doubles
    if mp is not None:  # phi_0 = m 2^e, m of W bits; x c_k and d_k at 2^-2W, one rounding a step
        v[0], e = np.frompyfunc(lambda t: (t.man << W - t.bc, t.exp + t.bc - W), 1, 2)(v[0])
        far = np.isinf(x)
        e = np.where(far, e[:, ::-1], e)
        x, d, fit = arith.rounded(np.where(far, 0.0, x), W), d << W, 2 * W
    xc = x * c[:, None, None]
    v[1] = arith._shift(xc[0] * v[0], fit)
    for k in range(1, K):
        v[k + 1] = arith._shift(xc[k] * v[k] - v[k - 1] * d[k], fit)
    below = np.concatenate([v[:1] * 0, v[:K - 1]])
    dv = div(root[:K, None, None] * below - root[1:, None, None] * v[1:], sqrt2[0])
    if mp is None:
        return v, dv, seed, None, (F_lo, F_hi)
    top = (np.frompyfunc(int.bit_length, 1, 1)(np.abs(v).max(axis=0)) + e).max(axis=1)
    s = np.array([bits - max(t, -(-mp.frexp(z)[1] // 2)) for t, z in zip(top, seed)], dtype=object)
    r = -(e + s[:, None])  # at least W - bits, as |v| >= phi_0
    v, dv = ((t + (1 << r - 1)) >> r for t in (v, dv))
    return v, dv, arith.rounded(seed, 2 * s), s, (F_lo, F_hi)


def _pair_tables(x, N, mp, bits):
    """``interval_pair_tables`` of the intervals ``x[i] = (a_i, b_i)``."""
    dtype, div = (float, np.true_divide) if mp is None else (object, arith._rdiv)
    M, K = len(x), N + 1
    if mp is None:  # no value changes: phi_0 underflows past 38.6
        far, x = np.isinf(x), np.clip(x, -64.0, 64.0)
    c, d, root, _ = _root_rows(K, None if mp is None else mp.prec)
    v, dv, seed, s, (F_lo, F_hi) = _boundary(x, K, mp, bits)
    if mp is not None:  # c_k / 2 at 2^-bits, ties to even
        h = mp.prec + 1 - bits
        half_c = (c[:N, None] + ((c[:N, None] >> h) & 1) + (1 << h - 1) - 1) >> h

    # off[., i] = [phi_j phi_k' - phi_j' phi_k]_{a_i}^{b_i} / (2 (j - k)) for j < k
    row, col = np.nonzero(np.arange(K)[:, None] < np.arange(K))
    wronskian = [v[row, :, e] * dv[col, :, e] - v[col, :, e] * dv[row, :, e] for e in (0, 1)]
    den = (-2 * (col - row)[:, None]).astype(dtype)
    off = div(wronskian[1] - wronskian[0], den)

    # diagonal: I_{k+1} = I_k - (c_k / 2) [phi_k phi_{k+1}]_a^b from I_0
    B = v[:N, :, 1] * v[1:K, :, 1] - v[:N, :, 0] * v[1:K, :, 0]
    step = c[:N, None] / 2 * B if mp is None else arith._shift(half_c * B, bits)
    diag = np.cumsum(np.concatenate([seed[None], -step]), axis=0)
    vals = np.empty((M, K, K), dtype=dtype)
    vals[:, row, col] = vals[:, col, row] = off.T
    vals.reshape(M, -1)[:, ::K + 1] = diag.T
    if mp is not None:
        return vals, -2 * s

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
    fi = np.finfo(float)
    eps, tiny = fi.eps, fi.smallest_subnormal
    av, xc, root = np.abs(v), x * c[:, None, None], root[:, None, None]
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
    np.abs(G, out=G)
    G *= r.transpose(1, 2, 0)
    rho = np.cumsum(G, axis=3)[..., -1]  # in order: no N in the bits
    rho[:, far] = 0.0  # phi_k and phi_k' are exactly 0 at an infinite end
    # phi_k' carries its terms' errors and 3 eps of their size; products of
    # perturbed factors obey |pq - p^q^| <= dp |q^| + (|p^| + dp) dq
    sig = (root[:K] * np.concatenate([rho[:1] * 0, rho[:K - 1] + 3 * eps * av[:K - 1]])
           + root[1:] * (rho[1:] + 3 * eps * av[1:])) / math.sqrt(2.0)
    adv = np.abs(dv)
    rho_j, av_j = rho[:K, None], av[:K, None]
    S = rho_j * adv  # S[j, k, i] sums over the two ends: a + b, as .sum would add them
    S += (av_j + rho_j) * sig
    S += 2 * eps * av_j * adv
    S = S[..., 0] + S[..., 1]
    err_B = rho[:N] * av[1:K] + (av[:N] + rho[:N]) * rho[1:K] + 2 * eps * av[:N] * av[1:K]
    err_B = err_B[..., 0] + err_B[..., 1]
    err_seed = 4 * eps * (np.abs(F_lo) + np.abs(F_hi)) + eps * np.abs(seed)  # erf, erfc to 8 ulp
    err_step = c[:N, None] / 2 * err_B + 2 * eps * np.abs(step) + eps * np.abs(diag[1:])
    errs = np.empty((M, K, K))
    errs[:, row, col] = errs[:, col, row] = (
        (S[row, col] + S[col, row]) / np.abs(den) + eps * np.abs(off)).T
    errs.reshape(M, -1)[:, ::K + 1] = (err_seed + np.concatenate(
        [np.zeros((1, M)), np.cumsum(err_step, axis=0)])).T
    errs[np.isnan(errs)] = np.inf  # inf - inf or inf * 0 where |T^-1| overflowed
    errs += fi.tiny
    return vals, errs

