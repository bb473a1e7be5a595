"""Null-controllability at Galerkin scale: observability, minimal-norm
control, and the staircase strategy.

The adjoint-observability constant C_T bounds the steering cost; the
minimal-norm control follows from one Gramian solve; and the staircase
strategy alternates finite-dimensional steering of the low energy levels
with free dissipation, the level schedule doubling while the dyadic time
slices shrink.  All three are exercised on a thick control region.
"""

import numpy as np

from hermite_obs import basis, control as ct, gram, quadratic as qd, regions

N = 16
region = regions.make_periodic_thick(1, 1.0, 0.4, regions.truncate_radius(N, 1) + 1)
P = gram.gram_matrix(region, N).matrix
A = qd.weyl_quantize(qd.harmonic_symbol(1), N)
prob = ct.ControlProblem(A, P)  # one problem: its coupling and plans serve every call

print("== observability constants over shrinking horizons")
for T in (1.0, 0.5, 0.25, 0.125):
    rep = ct.observability_constant(prob, T)
    print("  T=%.3f   log C_T = %8.3f   (bits=%d)" % (T, rep.c_log, rep.precision_bits))

study = ct.cost_blowup_study(prob, [1.0, 0.5, 0.25, 0.125])
fit = study.fits[1]
print(
    "  fit log C_T ~ %.3f / T + %.3f   (R^2 = %.3f)"
    % (fit["slope"], fit["intercept"], fit["r2"])
)

print("\n== minimal-norm control of a random initial state (T = 1)")
f0 = basis.random_expansion(1, N, np.random.default_rng(3))
res = ct.hum_control(prob, 1.0, f0)
print("  cost %.4f   final residual %.2e   Gramian condition %.2e"
      % (res.cost, res.residual, res.gramian_cond))

print("\n== staircase strategy on the same problem")
stair = ct.lr_staircase(prob, 1.0, f0, target=1e-6)
print("  stage  k_j   stage cost     energy after")
for s in stair.stages:
    print("   %3d   %3d   %10.3e   %12.5e" % (s["stage"], s["k_j"], s["stage_cost"],
                                              s["energy_after"]))
print("  total cost %.4f   residual %.2e" % (stair.total_cost, stair.residual))
print("  cost ratio staircase / one-shot: %.1f" % (stair.total_cost / res.cost))
