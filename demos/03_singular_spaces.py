"""Hamilton maps and singular spaces of complex quadratic symbols.

A quadratic symbol q(x, xi) = X^T Q X quantizes to a (generally
non-selfadjoint) operator; whether its semigroup smooths and dissipates in
every phase-space direction is decided by a purely linear-algebra object:
the singular space

    S = intersection of Ker[Re F (Im F)^j], j = 0 .. 2n-1,

built from the Hamilton map F = -J Q.  S = {0} means every degenerate
direction of Re q is eventually rotated into a dissipative one by Im q; the
first index k_0 at which the intersection dies controls the time power in
the dissipation rate, delta(t) ~ t^(2 k_0 + 1).
"""

import numpy as np

from hermite_obs import quadratic as qd

examples = {
    "harmonic |x|^2 + |xi|^2": qd.harmonic_symbol(1),
    "Kramers-Fokker-Planck (a=1)": qd.kfp_symbol(1.0),
    "free Laplacian xi^2": qd.QuadraticSymbol(
        1, np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    ),
}

for label, sym in examples.items():
    F = qd.hamilton_map(sym)
    S = qd.singular_space(F)
    print("\n==", label)
    print("  Re F:\n", F.re)
    print("  Im F:\n", F.im)
    print("  kernel dims along the intersection chain:", S.dims)
    if S.k0 is not None:
        print("  singular space trivial at index k_0 =", S.k0)
        print("  dissipation time power: t^%d" % (2 * S.k0 + 1))
    else:
        print("  singular space is NOT trivial; basis:")
        print(" ", S.basis.T)
        print("  no hypoelliptic smoothing in those directions")

