"""Composite Gauss-Legendre quadrature with panel-doubling error control."""

from __future__ import annotations

import math

import numpy as np

from . import basis

ORDER = 20  # Gauss-Legendre nodes per panel
MAX_DOUBLINGS = 16


@basis.frozen_cache
def gauss_legendre(order):
    """The Gauss-Legendre rule (nodes ascending, weights) of one order: a
    read-only table of the process, shared by every caller."""
    return np.polynomial.legendre.leggauss(order)


def composite_gauss_legendre(f, a, b, abs_tol=1e-13, min_panels=1):
    """Integrate a smooth vectorizable callable over [a, b].

    Panels are doubled, at most ``MAX_DOUBLINGS`` times, until two
    successive composite values agree to ``abs_tol``; the last observed
    difference is returned as an honest error estimate (it dominates the true
    error for panel counts past the resolution threshold of a fixed-order
    Gauss rule).

    Returns
    -------
    (value, err_estimate, panels)
    """
    if b <= a:
        return 0.0, 0.0, 0
    panels = max(1, int(min_panels))
    X, W = gauss_legendre(ORDER)
    prev = None
    value = 0.0
    err = math.inf
    for _ in range(MAX_DOUBLINGS):
        edges = np.linspace(a, b, panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = (mid[:, None] + half[:, None] * X[None, :]).ravel()
        vals = np.asarray(f(pts), dtype=float).reshape(panels, ORDER)
        value = float(np.sum(np.sort((vals * W[None, :] * half[:, None]).ravel())))
        if prev is not None:
            err = abs(value - prev)
            if err <= abs_tol:
                return value, max(err, 1e-300), panels
        prev = value
        panels *= 2
    return value, err, panels
