"""Arithmetic backends shared by the spectral and control pipelines.

Matrices of both backends support +, -, @, scalar * and slicing; everything
else goes through the methods here, under ``mp.workprec(bits + 16)``.  ``Mp``
answers every eigenproblem through one Cholesky factor G = L L^H, which
exists exactly when G is numerically positive definite: lambda_min =
sigma_max(L^-1)^-2 and cond = sigma_max(G) sigma_max(L^-1)^2.  Largest
singular values and top eigenpairs are well conditioned, so they are read in
double precision after an exact power-of-two rescale, to a few d eps.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
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

    def expm(self, M):
        return scipy.linalg.expm(M)

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
        return scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)

    def eigh_top(self, M):
        vals, vecs = np.linalg.eigh(M)
        return vals[-1], vecs[:, -1]

    def cond(self, W):
        return float(np.linalg.cond(W))

    def norm(self, v):
        return float(np.linalg.norm(v))


class Mp:
    """mpmath software floating point with a ``bits``-bit mantissa."""

    def __init__(self, bits):
        self.bits = bits

    def from_np(self, M):
        return mp.matrix(np.asarray(M, dtype=complex).tolist())

    def to_np(self, v):
        return np.array(v.tolist(), dtype=complex).reshape(-1)

    def gauss(self, order):
        return mp.gauss_quadrature(order, "legendre")

    def expm(self, M):
        return mp.expm(M)

    def adj(self, M):
        return M.H

    def solve(self, M, b):
        return mp.lu_solve(M, b)

    def cholesky(self, W):
        # pivots are held against eps times the largest diagonal entry, not
        # mpmath's absolute eps, so that 2^k W factors exactly as W does
        tol = mp.eps * max(abs(W[j, j]) for j in range(W.rows))
        try:
            return mp.cholesky(W, tol)
        except (ValueError, ZeroDivisionError):
            return None

    def inv_lower(self, L):
        n, rows = L.rows, L.tolist()
        cols = [[mp.zero] * n for _ in range(n)]  # forward substitution, by columns
        for i in range(n):
            cols[i][i] = d = 1 / rows[i][i]
            for j in range(i):
                cols[j][i] = -d * mp.fdot(rows[i][j:i], cols[j][j:i])
        return mp.matrix(cols).T

    def lam_min(self, G):
        """sigma_max(L^-1)^-2, or None when G is not numerically positive definite."""
        L = self.cholesky(G)
        return None if L is None else _sigma_max(self.inv_lower(L)) ** -2

    def eigh_top(self, M):
        X, e = _scaled(M)
        vals, vecs = np.linalg.eigh(X)
        return mp.ldexp(mp.mpf(vals[-1]), e), self.from_np(vecs[:, -1])

    def cond(self, W):
        L = self.cholesky(W)
        if L is None:
            return float("inf")
        return float(_sigma_max(W) * _sigma_max(self.inv_lower(L)) ** 2)

    def norm(self, v):
        return float(mp.norm(v))

    def ridged(self, W):
        """W + ||W||_F 2^(-bits/2) I, positive definite for the floor bound."""
        return W + mp.eye(W.rows) * (mp.mnorm(W, "f") * mp.mpf(2) ** (-self.bits // 2))


def _scaled(M):
    """(X, e): the double array X = 2^-e M, 2^e bounding M's largest real or
    imaginary part.  Zero parts are skipped: mp.frexp(0) has exponent 0."""
    entries = [x for row in M.tolist() for x in row]
    e = max((mp.frexp(p)[1] for x in entries for p in (mp.re(x), mp.im(x)) if p), default=0)
    scale = mp.ldexp(1, -e)
    X = np.array([complex(x * scale) for x in entries]).reshape(M.rows, M.cols)
    return (X if X.imag.any() else X.real), e


def _sigma_max(M):
    X, e = _scaled(M)
    return mp.ldexp(mp.mpf(float(np.linalg.norm(X, 2))), e)


DOUBLE = Double()


def backend(bits):
    return DOUBLE if bits <= 53 else Mp(bits)
