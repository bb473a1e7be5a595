"""Arithmetic backends shared by the spectral and control pipelines, and the
one Taylor table (:func:`taylor`) behind every propagator and time Gramian.

Matrices of both backends support +, @, unary -, real scalar * and slicing;
everything else goes through the methods here, under ``mp.workprec(bits +
16)``.  ``Mp`` matrices are fixed point (``Fx``), so their error is normwise;
mpmath serves scalars and the once-per-run O(d^3) calls.  ``Mp`` answers
every eigenproblem through one Cholesky factor G = L L^H, which exists
exactly when G is numerically positive definite: lambda_min =
sigma_max(L^-1)^-2 and cond = lambda_max / lambda_min.  Largest singular
values and top eigenpairs are well conditioned, so they are read in double
precision after an exact power-of-two rescale, to a few d eps.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp


class Double:
    """numpy and LAPACK in IEEE double precision."""

    bits = 53

    def from_np(self, M):
        return np.array(M, dtype=complex)

    def to_np(self, v):
        return v

    def gauss(self, order):
        return np.polynomial.legendre.leggauss(order)

    def series(self, scales, terms):
        """[sum_k c^k / k! terms[k] for c in scales]."""
        C = [[c**k / math.factorial(k) for k in range(len(terms))] for c in scales]
        return list(np.tensordot(C, np.stack(terms), axes=1))

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

    def norm(self, v):
        return float(np.linalg.norm(v))


def _shift(x, s):
    """x 2^-s rounded to integers (exact for s <= 0); x an int array or None."""
    if x is None or s == 0:
        return x
    return x << -s if s < 0 else (x + (1 << (s - 1))) >> s


def _plus(x, y):
    return x if y is None else y if x is None else x + y


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
        a, b, c, d = self.re, self.im, other.re, other.im
        re = a @ c if b is None or d is None else a @ c - b @ d
        im = _plus(None if b is None else b @ c, None if d is None else a @ d)
        return Fx(re, im, self.exp + other.exp, self.prec)


class Mp:
    """Fixed-point matrices and mpmath scalars, ``bits`` + 16 bits."""

    def __init__(self, bits):
        self.bits = bits
        self.prec = bits + 16

    def from_np(self, M):
        M = np.asarray(M, dtype=complex)
        return self._fx(mp.matrix(M.reshape(len(M), -1).tolist()), M.shape)

    def to_np(self, v):  # int / int true division rounds each entry once
        re, im = (0.0 if x is None else (x / (1 << -v.exp) if v.exp < 0 else x * 2.0**v.exp)
                  .astype(float) for x in (v.re, v.im))
        return re + 1j * im

    def _fx(self, M, shape):
        """An mpmath matrix as an Fx of the given shape."""
        parts = [[f(x) for row in M.tolist() for x in row] for f in (mp.re, mp.im)]
        t = max((mp.frexp(x)[1] for part in parts for x in part if x), default=0) - self.prec
        re, im = (np.array([int(mp.nint(mp.ldexp(x, -t))) for x in part], dtype=object)
                  for part in parts)
        return Fx(re.reshape(shape), im.reshape(shape) if im.any() else None, t, self.prec)

    def gauss(self, order):
        return mp.gauss_quadrature(order, "legendre")

    def series(self, scales, terms):
        """[sum_k c^k / k! terms[k] for c in scales] as one integer product."""
        C = np.array([[int(mp.nint(mp.ldexp(mp.mpf(c) ** k / math.factorial(k), self.prec)))
                       for k in range(len(terms))] for c in scales], dtype=object)
        t = max(M.exp + M.bits() for M in terms) - self.prec  # the terms stacked at 2^t
        re = np.array([_shift(M.re, t - M.exp).ravel() for M in terms])
        im = None if all(M.im is None for M in terms) else np.array(
            [_shift(0 * M.re if M.im is None else M.im, t - M.exp).ravel() for M in terms])
        S, shape = Fx(C, None, -self.prec, self.prec) @ Fx(re, im, t, self.prec), terms[0].re.shape
        return [Fx(S.re[i].reshape(shape), None if S.im is None else S.im[i].reshape(shape),
                   S.exp, self.prec) for i in range(len(C))]

    def adj(self, M):
        return Fx(M.re.T, None if M.im is None else -M.im.T, M.exp, M.prec)

    def solve(self, M, b):
        return self._fx(mp.lu_solve(_mp(M), _mp(b)), b.re.shape)

    def cholesky(self, W):
        # pivots are held against eps times the largest diagonal entry, not
        # mpmath's absolute eps, so that 2^k W factors exactly as W does
        W = _mp(W)
        tol = mp.eps * max(abs(W[j, j]) for j in range(W.rows))
        try:
            return mp.cholesky(W, tol)
        except (ValueError, ZeroDivisionError):
            return None

    def inv_lower(self, L):
        return self._fx(_inv_lower(L), (L.rows, L.cols))

    def lam_min(self, G):
        """sigma_max(L^-1)^-2, or None when G is not numerically positive definite."""
        L = self.cholesky(G)
        if L is None:
            return None
        X, e = _scaled(_inv_lower(L))
        return mp.ldexp(mp.mpf(float(np.linalg.norm(X, 2))), e) ** -2

    def eigh_top(self, M):
        X, e = _scaled(_mp(M))
        vals, vecs = np.linalg.eigh(X)
        return mp.ldexp(mp.mpf(vals[-1]), e), self.from_np(vecs[:, -1])

    def cond(self, W):
        lam = self.lam_min(W)
        return float("inf") if lam is None else float(self.eigh_top(W)[0] / lam)

    def norm(self, v):
        sq = sum(int((x * x).sum()) for x in (v.re, v.im) if x is not None)
        return float(mp.sqrt(mp.ldexp(sq, 2 * v.exp)))

    def ridged(self, W):
        """W + ||W||_F 2^(-bits/2) I, positive definite for the floor bound."""
        W = _mp(W)
        return W + mp.eye(W.rows) * (mp.mnorm(W, "f") * mp.mpf(2) ** (-self.bits // 2))


def _mp(M):
    """An Fx as an mpmath matrix, a vector as a column; others pass through."""
    if not isinstance(M, Fx):
        return M
    re = M.re.reshape(len(M.re), -1)
    im = 0 * re if M.im is None else M.im.reshape(re.shape)
    return mp.matrix([[mp.mpc(mp.ldexp(a, M.exp), mp.ldexp(b, M.exp)) for a, b in zip(*rows)]
                      for rows in zip(re, im)])


def _inv_lower(L):
    n, rows = L.rows, L.tolist()
    cols = [[mp.zero] * n for _ in range(n)]  # forward substitution, by columns
    for i in range(n):
        cols[i][i] = d = 1 / rows[i][i]
        for j in range(i):
            cols[j][i] = -d * mp.fdot(rows[i][j:i], cols[j][j:i])
    return mp.matrix(cols).T


def _scaled(M):
    """(X, e): the double array X = 2^-e M, 2^e bounding M's largest real or
    imaginary part.  Zero parts are skipped: mp.frexp(0) has exponent 0."""
    entries = [x for row in M.tolist() for x in row]
    e = max((mp.frexp(p)[1] for x in entries for p in (mp.re(x), mp.im(x)) if p), default=0)
    scale = mp.ldexp(1, -e)
    X = np.array([complex(x * scale) for x in entries]).reshape(M.rows, M.cols)
    return (X if X.imag.any() else X.real), e


DOUBLE = Double()


def backend(bits):
    return DOUBLE if bits <= 53 else Mp(bits)


def taylor(ar, A, T, x=(), Q=None):
    """Propagators and, given Q, the Gramian over [0, T] from one Taylor table.

    At h = T / 2^k, k least with h ||A||_1 <= 1, the powers of B = -hA up to
    the least m with nu^{m+1} / (m+1)! (m+2) / (m+2-nu) < 2^-(bits+16), nu
    the 1-norm of B or of Z = [[B, hQ], [0, -B^H]] (Higham, *Functions of
    Matrices*, 10.3), give E(h) = e^{-hA} and e^{-c h A} at the Gauss offsets
    c = (x + 1) / 2, one contraction each; without Q they are squared k times.
    With Q, W(h) = V E(h)^H, V = sum R_j / j! the top-right block of e^Z with
    R_1 = hQ, R_{j+1} = B R_j + (-1)^j hQ (B^j)^H (Van Loan 1978); k doublings
    W(2h) = W(h) + E(h) W(h) E(h)^H, E(2h) = E(h)^2 reach
    W = int_0^T e^{-tA} Q e^{-tA^H} dt and E = e^{-TA}.  Returns the
    propagators, W (or None), E, the step count 2^k and m.
    """
    norm1 = float(np.abs(A).sum(axis=0).max())
    steps = 1
    while T * norm1 > steps:
        steps *= 2
    h = T / steps
    nu = h * norm1
    if Q is not None:
        nu = max(nu, h * float((np.abs(ar.to_np(Q)).sum(axis=0) + np.abs(A).sum(axis=1)).max()))
    m = 1
    while nu and (m + 2 <= nu or (m + 1) * math.log(nu) - math.lgamma(m + 2)
                  + math.log((m + 2) / (m + 2 - nu)) > -(ar.bits + 16) * math.log(2)):
        m += 1
    B = ar.from_np(A) * -h
    powers = [ar.from_np(np.eye(A.shape[0])), B]
    while len(powers) <= m:
        powers.append(B @ powers[-1])
    props = ar.series([1] + [(xi + 1) / 2 for xi in x], powers)
    if Q is None:
        for _ in range(steps.bit_length() - 1):
            props = [M @ M for M in props]
        return props, None, props[0], steps, m
    R = [Q * 0, Q * h]
    for j in range(1, m):
        R.append(B @ R[-1] + R[1] @ ar.adj(powers[j]) * (-1) ** j)
    E = props[0]
    W = ar.series([1], R)[0] @ ar.adj(E)
    for _ in range(steps.bit_length() - 1):
        W = W + E @ W @ ar.adj(E)
        E = E @ E
    return props, (W + ar.adj(W)) * 0.5, E, steps, m
