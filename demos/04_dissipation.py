"""High-mode dissipation of Galerkin semigroups.

For the harmonic oscillator the decay of mass above energy level k is exact:
||(1 - pi_k) e^{-tA}|| = e^{-(2k + 2 + n) t}.  For the Kramers-Fokker-Planck
operator the decay rate delta(t) in

    ||(1 - pi_k) e^{-tA} f|| <= C_0 e^{-delta(t) k} ||f||

is governed by the singular-space index k_0 = 1: at short times the rate
follows the t^(2 k_0 + 1) = t^3 law, because the undamped position direction
only feels the dissipation after rotating through the velocity variable.
The measured sup over f is the exact operator norm of the masked propagator.
"""

import math

import numpy as np

from hermite_obs import quadratic as qd

print("== harmonic oscillator: exact level decay")
A = qd.weyl_quantize(qd.harmonic_symbol(1), 12)
rep = qd.dissipation_check(A, [0.25, 0.75], [1, 3, 5], seed=0)
for i, t in enumerate(rep.t_grid):
    for j, k in enumerate(rep.k_grid):
        print(
            "  t=%.2f k=%d: measured %.6e   exact %.6e"
            % (t, k, rep.ratios[i, j], math.exp(-(2 * k + 3) * t))
        )

print("\n== Kramers-Fokker-Planck: k-linear log decay and the t^3 law")
A = qd.weyl_quantize(qd.kfp_symbol(1.0), 30)
ts = [0.05, 0.08, 0.12, 0.18, 0.28, 0.42, 0.63, 0.95, 1.4]
rep = qd.dissipation_check(A, ts, [2, 3, 4, 5, 6, 7, 8], seed=0)
print("    t      delta(t)     t^3     (R^2 of k-fit)")
for i, t in enumerate(ts):
    print(
        "  %5.2f   %9.5f  %8.5f   %.4f"
        % (t, -rep.slope_per_t[i], t**3, rep.r2_per_t[i])
    )
print("  fitted time exponent of delta(t):", round(rep.rate_constants["time_exponent"], 3))
print("  (compare with 2 k_0 + 1 = 3)")
