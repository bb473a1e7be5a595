"""Closed-form oracles that only the tests use, kept apart from the program
whose results they check."""

import math
from fractions import Fraction

import numpy as np

from hermite_obs import basis


def hermite_derivatives(N, x, values=None):
    """Values of phi_k'(x) for k = 0..N.

    phi_k' = (sqrt(k) phi_{k-1} - sqrt(k+1) phi_{k+1}) / sqrt(2), which is the
    annihilation-minus-creation combination of neighbouring degrees.
    """
    x = np.asarray(x, dtype=float)
    if values is None or values.shape[0] < N + 2:
        values = basis.hermite_values(N + 1, x)
    der = np.empty((N + 1,) + x.shape, dtype=float)
    for k in range(N + 1):
        lower = math.sqrt(k) * values[k - 1] if k > 0 else 0.0
        der[k] = (lower - math.sqrt(k + 1.0) * values[k + 1]) / math.sqrt(2.0)
    return der


def raise_matrix(n, M, axis):
    """Matrix of a_{axis,+} on E_M (images beyond level M are dropped).

    Compose ladder matrices only on a buffered cutoff: a product of p
    raise-type factors applied to columns with |alpha| <= M - p is exact.
    """
    src, tgt, fac = basis._ladder_table(n, M, axis)
    A = np.zeros((basis.space_dimension(n, M),) * 2)
    A[tgt, src] = fac
    return A


def position_matrix(n, M, axis):
    """Matrix of x_j = (a_+ + a_-)/sqrt(2) on E_M."""
    R = raise_matrix(n, M, axis)
    return (R + R.T) / math.sqrt(2.0)


def momentum_matrix(n, M, axis):
    """Matrix of D_j = -i d/dx_j = i (a_+ - a_-)/sqrt(2) on E_M."""
    R = raise_matrix(n, M, axis)
    return 1j * (R - R.T) / math.sqrt(2.0)


def harmonic_full_space_ct(n, N, T):
    """Closed-form C_T for the level-diagonal generator observed everywhere.

    Per eigenvalue lam = 2k + n the scalar constant is
    2 lam e^{-2 lam T} / (1 - e^{-2 lam T}); the worst mode is the lowest.
    """
    return max(2.0 * lam * math.exp(-2.0 * lam * T) / -math.expm1(-2.0 * lam * T)
               for lam in (2.0 * k + n for k in range(N + 1)))


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


def singular_space_exact(sym):
    """Singular space of a symbol's stored floats in exact rationals.

    Fraction(x) of a float is exact.  The Hamilton map F = -J Q is formed
    with Fraction products, and every stack [Re F; Re F Im F; ...] up to
    j = 2n-1 gets its kernel by Gauss-Jordan elimination.  Returns
    (k0, dims, kernel) with the last stack's kernel basis in Fractions: the
    oracle for the integer elimination of ``quadratic.singular_space``.
    """
    n = sym.n
    two_n = 2 * n
    J = [[Fraction(0)] * two_n for _ in range(two_n)]
    for i in range(n):
        J[i][n + i] = Fraction(-1)
        J[n + i][i] = Fraction(1)
    Qre = [[Fraction(sym.Q[i, j].real) for j in range(two_n)] for i in range(two_n)]
    Qim = [[Fraction(sym.Q[i, j].imag) for j in range(two_n)] for i in range(two_n)]

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
    dims = []
    kernel = None
    for j in range(two_n):
        stacked.extend(matmul(re_F, power))
        power = matmul(power, im_F)
        kernel = _fraction_kernel(stacked)
        dims.append(len(kernel))
        if not kernel and k0 is None:
            k0 = j
    return k0, tuple(dims), kernel


def thickness(region, L, half_span, m=4):
    """Thickness fraction of a product region at scale L, on a lattice of
    cube corners: the least |region cap (x + [0, L]^n)| / L^n over corners x
    of pitch L / m whose cubes lie inside the window [-half_span,
    half_span]^n.

    The measure in a cube is the product over the axes of the length the
    axis's intervals leave in the cube's side, so the least measure is the
    product of the per-axis least lengths.  A minimum over lattice corners
    is in general an upper estimate of the infimum over all corners; at the
    periodic pattern's own period every cube has the same measure.
    """
    n = region.n
    pitch = L / m
    grid = -half_span + pitch * np.arange(int(math.floor((2 * half_span - L) / pitch)) + 1)
    least = [np.min(np.sum(np.clip(np.minimum(highs[:, None], grid + L)
                                   - np.maximum(lows[:, None], grid), 0.0, None), axis=0))
             for lows, highs in region.axes]
    return float(math.prod(least)) / L**n


def boundary_values_mp(ends, K, mp):
    """phi_k (k <= K) and phi_k' (k < K) at the interval ends, an (M, 2)
    float array, as mpf from the three-term recurrence run in mpf at
    mp.prec, the constants correctly rounded: the recurrence the integer
    pair tables replaced, kept as their oracle."""
    x = np.frompyfunc(mp.mpf, 1, 1)(np.asarray(ends, dtype=float))
    c = [mp.sqrt(mp.mpf(2) / (k + 1)) for k in range(K)]
    d = [mp.sqrt(mp.mpf(k) / (k + 1)) for k in range(K)]
    v = np.empty((K + 1,) + x.shape, dtype=object)
    v[0] = mp.pi ** mp.mpf(-0.25) * np.frompyfunc(lambda t: mp.exp(-t * t / 2), 1, 1)(x)
    v[1] = x * c[0] * v[0]
    for k in range(1, K):
        v[k + 1] = x * c[k] * v[k] - v[k - 1] * d[k]
    dv = np.array([(mp.sqrt(k) * v[k - 1] if k else 0 * v[0]) - mp.sqrt(k + 1) * v[k + 1]
                   for k in range(K)]) / mp.sqrt(2)
    return v, dv


def thick_bound_log_mp(n, L, gamma, Ns, mp, C_kov=300, C_sobolev=10):
    """The thick-set log bound at each N in ``Ns``, in mpf at mp.prec, in the
    form it had before its closed form: d_n = 2 sqrt(2^11 n^3 (2^n + 1)),
    delta = 1 / (d_n L), theta = log2(2 C_kov n^(n/2) |S^(n-1)| / gamma) and
    the Sobolev chain constant C_sob e^(e / (2 delta^2)) (sum_|b|<=n ratio^|b|
    (|b|!)^2)^(1/2) with ratio = 32 delta^2 (2^n + 1)."""
    L, gamma = mp.mpf(L), mp.mpf(gamma)
    dn = 2 * mp.sqrt(2**11 * mp.mpf(n) ** 3 * (mp.mpf(2) ** n + 1))
    delta = 1 / (dn * L)
    area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
    theta = mp.log(2 * C_kov * mp.mpf(n) ** (mp.mpf(n) / 2) * area / gamma) / mp.log(2)
    ratio = 32 * delta**2 * (mp.mpf(2) ** n + 1)
    weighted = mp.fsum(math.comb(k + n - 1, n - 1) * math.factorial(k) ** 2 * ratio**k
                       for k in range(n + 1))
    sobolev = mp.log(C_sobolev) + mp.e / (2 * delta**2) + mp.log(weighted) / 2
    return [mp.mpf(3) / 2 * mp.log(2) - mp.log(gamma) / 2
            + theta * (mp.mpf(n) / 2 * mp.log(4 * L) + sobolev + dn * L * mp.sqrt(N)) for N in Ns]
