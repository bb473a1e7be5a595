"""Closed-form oracles that only the tests use, kept apart from the program
whose results they check."""

import math

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


def thickness(region, L, m=4):
    """Thickness fraction of a product region at scale L, on a lattice of
    cube corners: the least |region cap (x + [0, L]^n)| / L^n over corners x
    of pitch L / m whose cubes lie inside [-R/sqrt(n), R/sqrt(n)]^n, R the
    truncation radius, where the region is faithful.

    The measure in a cube is the product over the axes of the length the
    axis's intervals leave in the cube's side, so the least measure is the
    product of the per-axis least lengths.  A minimum over lattice corners
    is in general an upper estimate of the infimum over all corners; at the
    periodic pattern's own period every cube has the same measure.
    """
    n = region.n
    half_span = region.trunc_radius / math.sqrt(n)
    pitch = L / m
    grid = -half_span + pitch * np.arange(int(math.floor((2 * half_span - L) / pitch)) + 1)
    least = [np.min(np.sum(np.clip(np.minimum(highs[:, None], grid + L)
                                   - np.maximum(lows[:, None], grid), 0.0, None), axis=0))
             for lows, highs in region.axes]
    return float(math.prod(least)) / L**n
