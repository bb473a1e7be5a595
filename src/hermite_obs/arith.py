"""Arithmetic backends shared by the spectral and control pipelines, and
:func:`taylor`, behind every propagator and time Gramian: closed forms for a
diagonal generator (``closed``), else one Taylor table.

Matrices of both backends support +, -, @, unary -, real scalar * and slicing;
everything else goes through the methods here, under ``mp.workprec(bits +
16)``.  ``Mp`` takes and returns fixed-point matrices (``Fx``) only; mpmath
serves scalars (the diagonal closed forms among them, each rounded once),
while the Gauss rule and the Taylor coefficients are exact integer work at
the backend's own precision (``Double`` rounds the 128-bit Gauss rule to
doubles).  Products by a sparse generator go through its row
slots (``rows``).  Vectors stack (``stack``) as the columns of one matrix in
both backends, so a product with a block of them is one BLAS or one integer
product, rounded once as any matrix is.
``Mp`` answers every eigenproblem and solve through one Cholesky factor
G = L L^H in integers, which exists exactly when G is numerically positive
definite: lambda_min = sigma_max(L^-1)^-2, cond =
lambda_max / lambda_min, G^-1 b by two triangular solves.  Its error is
normwise, so with u = 2^-(bits+16) Higham's Thm 10.7 bounds it by about
20 d^{3/2} u ||G||, below the escalation floor 1e3 2^-bits lambda_max for d
up to about 20,000.  L^-1 runs its integer substitution only as wide as its
error account needs, prec + 2 bitlen(d) + 32 bits, which leaves every entry
32 bits below its own rounding; a solve's error grows with cond(L), so it
keeps 2 prec (:func:`_forward`).  Largest singular values and top
eigenpairs are well conditioned, so they are read in double precision after
an exact power-of-two rescale, to a few d eps.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np
from mpmath import mp
from mpmath.libmp import from_float, from_man_exp, to_float

from .basis import ContractViolation

MAX_BITS = 4096  # mantissa ceiling of every multiprecision escalation


def check_bits(bits):
    """Refuse a requested precision below 53 or above ``MAX_BITS``, before any work."""
    if bits < 53:
        raise ContractViolation("precision_bits %d is below 53, double precision" % bits)
    if bits > MAX_BITS:
        raise ContractViolation("precision_bits %d is above arith.MAX_BITS = %d" % (bits, MAX_BITS))


def precisions(precision_bits):
    """The precisions a pipeline asked for ``precision_bits`` tries, in order:
    first 53 (double) for 53, else max(precision_bits, 256); 256 follows 53,
    then each doubles; the last is ``MAX_BITS``.  A value outside 53 ..
    ``MAX_BITS`` is refused through :func:`check_bits`."""
    check_bits(precision_bits)
    ladder = [53 if precision_bits <= 53 else max(precision_bits, 256)]
    while ladder[-1] < MAX_BITS:
        ladder.append(min(256 if ladder[-1] == 53 else 2 * ladder[-1], MAX_BITS))
    return ladder


class Double:
    """numpy and LAPACK in IEEE double precision."""

    bits = 53

    def from_np(self, M):
        return np.array(M, dtype=complex)

    def to_np(self, v):
        return v

    def gauss(self, order):  # the integer rule on the 2^-128 grid, each value rounded once
        return tuple(tuple(to_float(v._mpf_, rnd="n") for v in part) for part in _gauss(128, order))

    def series(self, scales, terms):
        """[sum_k c^k / k! terms[k] for c in scales]."""
        C = [[c**k / math.factorial(k) for k in range(len(terms))] for c in scales]
        return list(np.tensordot(C, np.stack(terms), axes=1))

    def closed(self, a, t, Q=None):
        """e^{-t diag(a)}, or given Q the Gramian Q o t phi1(-t (a_i + conj a_j))
        entrywise, phi1(z) = (e^z - 1) / z and phi1(0) = 1, from numpy's exp
        and expm1."""
        if Q is None:
            return self.from_np(np.diag(np.exp(-t * a)))
        z = -t * (a[:, None] + a.conj())
        return Q * (t * np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0))

    def rows(self, B):  # BLAS takes the dense product
        return B

    def stack(self, vs):  # the vectors as the columns of one array
        return np.stack(vs, axis=1)

    def adj(self, M):
        return M.conj().T

    def solve(self, M, b):
        return np.linalg.solve(M, b)

    def cholesky(self, W):
        try:
            return np.linalg.cholesky(W)
        except np.linalg.LinAlgError:
            return None

    def inv_lower(self, L):
        X = np.zeros_like(L)  # forward substitution by rows: exactly lower triangular
        for i in range(len(L)):
            X[i, : i + 1] = np.append(-L[i, :i] @ X[:i, :i], 1) / L[i, i]
        return X

    def eigh_top(self, M):
        vals, vecs = np.linalg.eigh(M)
        return vals[-1], vecs[:, -1]

    def cond(self, W):
        return float(np.linalg.cond(W))

    def norm(self, v):  # inf, without a warning, past the double range
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(v))


def _shift(x, s):
    """x 2^-s rounded to integers (exact for s <= 0); x an int array or None,
    or anything at s = 0, which returns x itself."""
    if x is None or s == 0:
        return x
    return x << -s if s < 0 else (x + (1 << (s - 1))) >> s


def _plus(x, y):
    return x if y is None else y if x is None else x + y


def _dot(a, b, mul=operator.matmul):
    """The exact product a @ b of (re, im) pairs of int arrays, im None if
    real; entrywise with ``mul`` = operator.mul."""
    (p, q), (r, s) = a, b
    re = mul(p, r) if q is None or s is None else mul(p, r) - mul(q, s)
    return re, _plus(None if q is None else mul(q, r), None if s is None else mul(p, s))


def _rdiv(x, d):
    """x / d rounded to integers, d != 0."""
    return (2 * x + d) // (2 * d)


def coefficients(c, n, prec):
    """[c^k / k! 2^prec for k < n], each rounded once to an int, ties to even
    as in :func:`rounded`, and odd in c.

    With c = +-man 2^e, the term |c|^k / k! 2^(prec+g) is carried floored,
    t_{k+1} = floor(t_k man 2^e / (k + 1)), with u_{k+1} = ceil(u_k man 2^e /
    (k + 1)) + 1 above what the floors dropped, so the term lies in [t_k, t_k
    + u_k].  Where that window holds no tie point of the rounding at 2^g,
    t_k rounds as the term does; elsewhere (an exact tie, mostly) the term
    is the exact quotient man^k 2^(ek+prec) / k!.  As u_k <= 2 k max_{m<n}
    |c|^m / m!, the guard g = 64 plus the log2 of that largest term (at most
    n top and 1.5 2^top, |c| < 2^top) keeps each window near 2k 2^-64 of a
    rounding step, and the integers near prec + g bits, where man^k reaches
    k times man's."""
    sign, man, e, _ = c._mpf_ if hasattr(c, "_mpf_") else from_float(c)
    top = man.bit_length() + e
    g = 64 + (min(n * top, 3 << top - 1) if top > 0 else 0)
    half, up, down = 1 << g - 1, max(e, 0), max(-e, 0)
    t, u, out = 1 << prec + g, 0, []
    for k in range(n):
        q = (t + half) >> g
        if (t + half) & (2 * half - 1) == 0 or q != (t + u + half) >> g:  # a tie point in the window
            q = _exact_coefficient(man, e, k, prec)
        out.append(-q if sign and k & 1 else q)
        t = ((t * man << up) >> down) // (k + 1)
        u = 1 - ((-(u * man << up) >> down) // (k + 1))
    return out


def _exact_coefficient(man, e, k, prec):
    """man^k 2^(ek+prec) / k! rounded to an int, ties to even."""
    s = e * k + prec
    d = math.factorial(k) << max(-s, 0)
    q, r = divmod(man**k << max(s, 0), d)
    return q + ((2 * r, q & 1) > (d, 0))


@np.vectorize(otypes=[object])
def rounded(v, s):
    """v 2^s rounded to an int, ties to even, entrywise over floats or mpf v
    and ints s, read from the mantissa and exponent of v."""
    sign, m, e, _ = v._mpf_ if hasattr(v, "_mpf_") else from_float(v)
    q, r = divmod((-m if sign else m) << max(e + s, 0), 1 << max(-e - s, 0))
    return q + ((2 * r, q & 1) > (1 << max(-e - s, 0), 0))  # past half, or half and q odd


class Fx:
    """A complex matrix or vector (re + i im) 2^exp in fixed point: ``re``
    and ``im`` (None if real) are object arrays of Python ints, rounded to
    ``prec`` bits of the largest entry, so each operation errs by at most
    2^-prec of its result's largest entry, whatever the scale."""

    __slots__ = ("re", "im", "exp", "prec")

    def __init__(self, re, im, exp, prec):
        self.re, self.im, self.exp, self.prec = re, im, exp, prec
        s = self.bits() - prec
        if s > 0:
            self.re, self.im, self.exp = _shift(re, s), _shift(im, s), exp + s

    def bits(self):  # of the largest mantissa
        return max(int(abs(x).max()).bit_length() for x in (self.re, self.im) if x is not None)

    def __getitem__(self, key):
        return Fx(self.re[key], None if self.im is None else self.im[key], self.exp, self.prec)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __add__(self, other):  # exact at the finer exponent, then rounded
        t = min(self.exp, other.exp)
        a, b = t - self.exp, t - other.exp
        return Fx(_shift(self.re, a) + _shift(other.re, b),
                  _plus(_shift(self.im, a), _shift(other.im, b)), t, self.prec)

    def __mul__(self, c):
        """Product with a real scalar: an int, a float or an mpf."""
        e = mp.frexp(c)[1] - self.prec if c else 0
        m = int(mp.nint(mp.ldexp(c, -e)))
        return Fx(self.re * m, None if self.im is None else self.im * m, self.exp + e, self.prec)

    def __matmul__(self, other):
        return Fx(*_dot((self.re, self.im), (other.re, other.im)), self.exp + other.exp, self.prec)


def fixed(x, prec):
    """An array of reals (floats or mpf) as an Fx at one exponent, each entry
    rounded once, ties to even, to 2^-prec of the largest."""
    t = mp.frexp(np.max(np.abs(x), initial=0))[1] - prec
    return Fx(rounded(x, -t), None, t, prec)


def _forward(L, B, up=None):
    """L^-1 B by forward substitution in integers, row by row, for L lower
    triangular with a real positive diagonal below 2^prec and B lower
    trapezoidal (B[i, j] = 0 for j > i: the identity or a column).  B is
    first raised by ``up`` bits, 2 prec unless given.  The rounded quotients
    give L X^ = 2^up B + R with |R_ij| <= L_ii / 2, so for B the d x d
    identity, held at 2^(prec-1), ||X^ - X||_2 = ||L^-1 R||_2 <= d 2^-up
    ||X||_2, and each entry of X^ lies within d^2 2^-up of max|X|: ``up`` =
    prec + 2 bitlen(d) + 32 (:meth:`Mp.inv_lower`) puts that 32 bits below
    X's own rounding to prec bits.  A solve's relative error scales with
    cond(L) 2^-up instead, so a column keeps 2 prec."""
    up = 2 * B.prec if up is None else up
    rhs = [_shift(x, -up) for x in (B.re, B.im)]
    X = [np.zeros_like(rhs[0]), None if L.im is None and B.im is None else np.zeros_like(rhs[0])]
    for i in range(len(X[0])):
        c = _dot((L.re[i, :i], None if L.im is None else L.im[i, :i]),
                 tuple(None if x is None else x[:i, :i + 1] for x in X))
        for x, r, ci in zip(X, rhs, c):
            if x is not None:
                x[i, :i + 1] = _rdiv((0 if r is None else r[i, :i + 1]) - ci, L.re[i, i])
    return Fx(X[0], X[1], B.exp - up - L.exp, B.prec)


class _Rows:
    """A fixed-point B by its row slots: slot k holds one nonzero of each row
    (B[i, cols[k, i]], or 0 where the row has fewer), so B @ X is a sum of
    scaled row gathers of X with the same integers as the dense product.  A
    Weyl-quantized generator has at most 5 slots, a diagonal one 1."""

    def __init__(self, B):
        nz = B.re != 0 if B.im is None else (B.re != 0) | (B.im != 0)
        count = nz.sum(axis=1)
        self.cols = np.zeros((max(1, int(count.max())), len(nz)), dtype=int)
        for i, row in enumerate(nz):
            self.cols[:count[i], i] = np.flatnonzero(row)
        at, held = (np.arange(len(nz)), self.cols), np.arange(len(self.cols))[:, None] < count
        self.re, self.im = (None if x is None else np.where(held, x[at], 0) for x in (B.re, B.im))
        self.exp, self.prec = B.exp, B.prec

    def __matmul__(self, X):
        re = im = None
        for k, c in enumerate(self.cols):
            p, q = _dot((self.re[k][:, None], None if self.im is None else self.im[k][:, None]),
                        (X.re[c], None if X.im is None else X.im[c]), operator.mul)
            re, im = _plus(re, p), _plus(im, q)
        return Fx(re, im, self.exp + X.exp, self.prec)


NEWTON_STEPS = 16  # the budget of :func:`_gauss`


@functools.cache
def _gauss(prec, order):
    """The Gauss-Legendre rule (nodes ascending, weights) as mpf on the
    2^-prec grid, whatever mp.prec is, built once per (prec, order) and
    immutable.

    Newton steps on the Legendre recurrence in integers at 2^-(prec+8), each
    recurrence step rounded once, start from Tricomi's asymptotic nodes (Hale
    and Townsend, SIAM J. Sci. Comput. 35, 2013), good to 9 bits or more, and
    run on the nodes at or below 0; the others are their mirror images.  Near
    a root Newton takes an error e to about C e^2, C = |P''/2P'| = |x| / (1 -
    x^2) < n^2, so once a step corrects every node by at most m units of
    2^-(prec+8) with (2 n m)^2 <= 2^(prec+8), the next correction would be
    below a quarter unit and the iteration stops.  Order 128 at ``MAX_BITS``
    stops after 9 steps; ``NEWTON_STEPS`` steps without the stop end in
    ContractViolation.  w = 2 (1 - x^2) / (n P_{n-1}(x))^2 at the nodes."""
    wb, half = prec + 8, order // 2  # Newton on the nodes at or below 0, mirrored
    one, phi = 1 << wb, (4 * np.arange(1, order - half + 1) - 1) * math.pi / (4 * order + 2)
    X = rounded((1 - (order - 1) / (8 * order**3) - (39 - 28 / np.sin(phi) ** 2)
                 / (384 * order**4)) * -np.cos(phi), wb)

    def legendre(X):  # P_n(x), P_{n-1}(x) at 2^-wb; each step is _rdiv by (k + 1) 2^wb
        p0, p1 = X * 0 + one, X
        for k in range(1, order):
            t = (2 * k + 1) * X * p1 - (k * p0 << wb)
            p0, p1 = p1, ((2 * t + ((k + 1) << wb)) >> wb + 1) // (k + 1)
        return p1, p0

    for _ in range(NEWTON_STEPS):
        pn, pm = legendre(X)
        D = _rdiv(pn * (one * one - X * X), order * (pm * one - X * pn))
        X = X - D
        if (2 * order * int(abs(D).max())) ** 2 <= one:
            break
    else:
        raise ContractViolation("Gauss-Legendre order %d at 2^-%d: no convergence in %d Newton steps"
                                % (order, prec, NEWTON_STEPS))
    pm = legendre(X)[1]
    W = _rdiv(2 * one * (one * one - X * X), order * order * pm * pm)
    return tuple(tuple(mp.make_mpf(from_man_exp(int(v), -prec)) for v in (*Y, *s * Y[:half][::-1]))
                 for Y, s in ((_shift(X, wb - prec), -1), (_shift(W, wb - prec), 1)))


class Mp:
    """Fixed-point matrices and mpmath scalars, ``bits`` + 16 bits."""

    def __init__(self, bits):
        self.bits = bits
        self.prec = bits + 16

    def from_np(self, M):
        M = np.asarray(M, dtype=complex)
        return self._fixed(M.real, M.imag)

    def _fixed(self, re, im):
        """Real and imaginary parts (floats or mpf) as one Fx, each entry
        rounded once (:func:`fixed`) at one exponent for both parts."""
        F = fixed(np.stack([re, im]), self.prec)
        return Fx(F.re[0], F.re[1] if F.re[1].any() else None, F.exp, self.prec)

    def to_np(self, v):  # int / int true division rounds each entry once
        re, im = (0.0 if x is None else (x / (1 << -v.exp) if v.exp < 0 else x * 2.0**v.exp)
                  .astype(float) for x in (v.re, v.im))
        return re + 1j * im

    def _unit(self, M):
        """(X, e): M = 2^e X exactly, |X| < 1 in doubles, X real when it reads so."""
        b = M.bits()
        X = self.to_np(Fx(M.re, M.im, -b, M.prec))
        return (X if X.imag.any() else X.real), M.exp + b

    def gauss(self, order):
        return _gauss(self.prec, order)

    def series(self, scales, terms):
        """[sum_k c^k / k! terms[k] for c in scales] as one integer product,
        its coefficients exact (:func:`coefficients`)."""
        C = np.array([coefficients(c, len(terms), self.prec) for c in scales], dtype=object)
        t = max(M.exp + M.bits() for M in terms) - self.prec  # the terms stacked at 2^t
        re = np.array([_shift(M.re, t - M.exp).ravel() for M in terms])
        im = None if all(M.im is None for M in terms) else np.array(
            [_shift(0 * M.re if M.im is None else M.im, t - M.exp).ravel() for M in terms])
        S, shape = Fx(C, None, -self.prec, self.prec) @ Fx(re, im, t, self.prec), terms[0].re.shape
        return [Fx(S.re[i].reshape(shape), None if S.im is None else S.im[i].reshape(shape),
                   S.exp, self.prec) for i in range(len(C))]

    def closed(self, a, t, Q=None):
        """:meth:`Double.closed` from mpmath at 2^-prec, once per distinct
        a_i or a_i + conj a_j, each value rounded once to one grid
        (:meth:`_fixed`); Q's entrywise product is exact, then rounded as
        any Fx is."""
        u, k = np.unique(a, return_inverse=True)
        k, n = k.ravel(), len(u)
        with mp.workprec(self.prec):
            v = [mp.mpf(z.real) if z.imag == 0 else mp.mpc(z) for z in u]
            if Q is None:  # the distinct e^{-t a_i}, and 0 off the diagonal
                vals = [mp.exp(-t * z) for z in v] + [mp.zero]
                at = np.where(np.eye(len(k), dtype=bool), k, n)
            else:  # the distinct t phi1(-t s), s = a_i + conj a_j
                sums = {}
                at = np.array([sums.setdefault(y + mp.conj(z), len(sums)) for y in v for z in v])
                vals = [-mp.expm1(-t * s) / s if s else mp.mpf(t) for s in sums]
                at = at[k[:, None] * n + k]
        F = self._fixed(*(np.array([f(z) for z in vals], dtype=object) for f in (mp.re, mp.im)))
        M = Fx(F.re[at], None if F.im is None else F.im[at], F.exp, self.prec)
        return M if Q is None else Fx(*_dot((Q.re, Q.im), (M.re, M.im), operator.mul),
                                      Q.exp + M.exp, self.prec)

    def rows(self, B):
        return _Rows(B)

    def stack(self, vs):
        """The vectors as the columns of one Fx: each shifted exactly to the
        finest exponent, then rounded once, as any Fx is."""
        t = min(v.exp for v in vs)
        re = np.stack([_shift(v.re, t - v.exp) for v in vs], axis=1)
        im = None if all(v.im is None for v in vs) else np.stack(
            [_shift(0 * v.re if v.im is None else v.im, t - v.exp) for v in vs], axis=1)
        return Fx(re, im, t, self.prec)

    def adj(self, M):
        return Fx(M.re.T, None if M.im is None else -M.im.T, M.exp, M.prec)

    def solve(self, M, b, L=None):
        """M^-1 b by two triangular solves on the factor L of M, factored here
        if not given (of the ridged M if M is not numerically positive
        definite; 0, the least-squares solution, if M = 0, which no ridge
        makes factor); J L^H J is lower triangular."""
        L = L or self.cholesky(M) or self.cholesky(self.ridged(M))
        if L is None:
            return b * 0
        rev = (slice(None, None, -1),) * 2
        return _forward(self.adj(L)[rev], _forward(L, b[:, None])[rev])[rev][:, 0]

    def cholesky(self, W):  # W = L L^H, or None when a pivot fails (:meth:`factor`)
        L, k = self.factor(W)
        return L if k == len(W.re) else None

    def factor(self, W):
        """(L, k): the Cholesky factor of W's leading k x k block, k the
        columns factored before the first pivot below eps = 2^(1-prec) times
        W's largest diagonal entry (L None if k = 0), so that 2^k W factors
        exactly as W does for even k.  W is held at 2^(2f) with that entry at
        2 prec - 2 or 2 prec - 1 bits, so L (at 2^f) fits prec bits; each
        pivot is an isqrt and each column one object mat-vec."""
        p, d = self.prec, len(W.re)
        shift = 2 * p - 2 - int(abs(W.re.diagonal()).max()).bit_length()
        shift += (W.exp - shift) % 2
        G = [_shift(x, -shift) for x in (W.re, W.im)]
        top = int(abs(G[0].diagonal()).max())
        L = [None if x is None else np.zeros((d, d), dtype=object) for x in G]
        for j in range(d):
            c = _dot(tuple(None if x is None else x[j:, :j] for x in L),
                     (L[0][j, :j], None if L[1] is None else -L[1][j, :j]))
            s = G[0][j, j] - c[0][0]  # |L[j, :j]|^2 is real
            if s <= 0 or s << (p - 1) < top:
                d = j
                break
            L[0][j, j] = r = math.isqrt(s)
            for x, g, cj in zip(L, G, c):
                if x is not None:
                    x[j + 1:, j] = _rdiv(g[j + 1:, j] - cj[1:], r)
        if not d:
            return None, 0
        L = [None if x is None else x[:d, :d] for x in L]
        return Fx(L[0], L[1], (W.exp - shift) // 2, p), d

    def eye(self, d):  # from_np(np.eye(d)), built in integers
        return Fx(np.eye(d, dtype=object) << (self.prec - 1), None, 1 - self.prec, self.prec)

    def inv_lower(self, L):  # each entry within 2^-(prec+32) of max|L^-1| before its rounding
        d = len(L.re)
        return _forward(L, self.eye(d), self.prec + 2 * d.bit_length() + 32)

    def lam_min(self, G, L=None):
        """lambda_min(G) by :meth:`lam_mins`, from G's factor L if given; None
        when G is not numerically positive definite."""
        return self.lam_mins(G, [len(G.re)], L)[0]

    def lam_mins(self, G, sizes, L=None):
        """[lambda_min(G[:s, :s]) for s in sizes], None for an s past the
        columns :meth:`factor` (or the given L) factored: sigma_max(X)^-2, X
        the leading s x s block of one L^-1, inverted up to the largest s that
        fits.  Column j of L depends only on the columns before it, and L^-1
        leads with the inverse of L's leading block, so each value is that of
        the block's own factor when the block holds G's largest diagonal
        entry (L's scale and pivot floor).  L^-1 is rounded to prec bits of
        its largest entry; a factored block keeps about prec / 2 of them or
        more, above the 53 that sigma_max is read at."""
        L, k = self.factor(G) if L is None else (L, len(L.re))
        m = max((s for s in sizes if s <= k), default=0)
        X = self.inv_lower(L[:m, :m]) if m else None

        def lam(s):
            Y, e = self._unit(X[:s, :s])
            return mp.ldexp(mp.mpf(float(np.linalg.norm(Y, 2))), e) ** -2
        return [lam(s) if s <= k else None for s in sizes]

    def eigh_top(self, M):  # the vector in doubles
        X, e = self._unit(M)
        vals, vecs = np.linalg.eigh(X)
        return mp.ldexp(mp.mpf(vals[-1]), e), vecs[:, -1]

    def cond(self, W, L=None):
        lam = self.lam_min(W, L)
        return float("inf") if lam is None else float(self.eigh_top(W)[0] / lam)

    def norm(self, v):
        sq = sum(int((x * x).sum()) for x in (v.re, v.im) if x is not None)
        return float(mp.sqrt(mp.ldexp(sq, 2 * v.exp)))

    def ridged(self, W, floor=0):
        """W + (floor + ||W||_F 2^(-bits/2)) I, positive definite far above
        the rounding once ``floor`` covers W's distance from the PSD cone."""
        ridge = floor + mp.ldexp(self.norm(W), -self.bits // 2)
        return W + self.eye(len(W.re)) * ridge


DOUBLE = Double()


def backend(bits):
    return DOUBLE if bits <= 53 else Mp(bits)


def step_count(A, T):
    """The Taylor table's step count over [0, T]: the least power of two at or
    above T ||A||_1, at least 1.  A T ||A||_1 that is not finite has none."""
    frac, e = math.frexp(t := T * float(np.abs(A).sum(axis=0).max()))
    if not math.isfinite(t):
        raise ContractViolation("T ||A||_1 = %r is not finite" % t)
    return 1 << max(0, e - (frac == 0.5))


def taylor(ar, A, T, x=(), Q=None, reads=None):
    """Propagators and, given Q, the Gramian over [0, T]: closed forms for a
    diagonal A, else one Taylor table.

    h = T / 2^k, 2^k the :func:`step_count`, and the Gauss offsets c = (x +
    1) / 2 set what is read.  A = diag(a) (the harmonic generator) takes
    ``ar.closed`` at each time read: e^{-c h A} entrywise from e^{-t a_i},
    e^{-TA}, and W(t) = Q o t phi1(-t (a_i + conj a_j)) at t = 2^j h, with
    no table and no doubling (m = 0).

    Any other A: the powers of B = -hA up to the least m with nu^{m+1} /
    (m+1)! (m+2) / (m+2-nu) < 2^-(bits+16), nu the 1-norm of B or of Z = [[B,
    hQ], [0, -B^H]] (Higham, *Functions of Matrices*, 10.3), give E(h) =
    e^{-hA} and e^{-c h A}, one contraction each; without Q they are squared
    k times.  With Q, W(h) = V E(h)^H, V = sum R_j / j! the top-right block
    of e^Z with R_1 = hQ, R_{j+1} = B R_j + (-1)^j (B^j hQ)^H (Van Loan 1978;
    Q is Hermitian).  Every product of the table is B times a matrix, taken
    through ``ar.rows(B)``: B's row slots in fixed point, BLAS in double, so
    only the contractions, V E(h)^H and the doublings are dense.  k
    doublings W(2h) = W(h) + E(h) W(h) E(h)^H, E(2h) = E(h)^2 reach W =
    int_0^T e^{-tA} Q e^{-tA^H} dt and E = e^{-TA}.

    Returns the propagators (at c T without Q), W (or None), E, the step
    count 2^k and m; given Q and ``reads``, step counts 2^j <= 2^k, the
    propagators, {2^j: (W, E)} at 2^j h (each W averaged with W^H on its
    copy alone), the step count and m.
    """
    steps = step_count(A, T)
    h = T / steps
    scales = [1] + [(xi + 1) / 2 for xi in x]
    a, m = np.diagonal(A), 0
    if not (A - np.diag(a)).any():
        props = [ar.closed(a, c * (T if Q is None else h)) for c in scales]
        if Q is None:
            return props, None, props[0], steps, m
        chain = {r: (ar.closed(a, r * h, Q), ar.closed(a, r * h)) for r in reads or [steps]}
    else:
        nu = h * float(np.abs(A).sum(axis=0).max())
        if Q is not None:
            nu = max(nu, h * float((np.abs(ar.to_np(Q)).sum(axis=0) + np.abs(A).sum(axis=1)).max()))
        m = 1
        while nu and (m + 2 <= nu or (m + 1) * math.log(nu) - math.lgamma(m + 2)
                      + math.log((m + 2) / (m + 2 - nu)) > -(ar.bits + 16) * math.log(2)):
            m += 1
        B = ar.from_np(A) * -h
        rows = ar.rows(B)
        powers = [ar.from_np(np.eye(A.shape[0])), B]
        while len(powers) <= m:
            powers.append(rows @ powers[-1])
        props = ar.series(scales, powers)
        if Q is None:
            for _ in range(steps.bit_length() - 1):
                props = [M @ M for M in props]
            return props, None, props[0], steps, m
        R = [Q * 0, Q * h]
        BQ = R[1]                                                      # B^j hQ
        for j in range(1, m):
            BQ, BR = rows @ BQ, rows @ R[-1]
            R.append(BR - ar.adj(BQ) if j % 2 else BR + ar.adj(BQ))
        E = props[0]
        W = ar.series([1], R)[0] @ ar.adj(E)
        chain = {}
        for j in range(steps.bit_length()):
            if j:
                W, E = W + E @ W @ ar.adj(E), E @ E
            if 1 << j in (reads or [steps]):
                chain[1 << j] = W, E
    chain = {r: ((W + ar.adj(W)) * 0.5, E) for r, (W, E) in chain.items()}
    return (props, chain, steps, m) if reads else (props, *chain[steps], steps, m)
