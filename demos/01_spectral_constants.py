"""How much of a finite Hermite combination can hide outside a control set?

The sharp answer on E_N is the spectral constant C_N(w): the smallest C with
||f||_{L2(R)} <= C ||f||_{L2(w)} for every f spanned by Hermite functions of
degree at most N.  It equals lambda_min(G)^(-1/2) for the restriction Gram
matrix G of the region, and its growth in N encodes the geometry of w:

  * thick sets     -> log C_N grows like sqrt(N)
  * half-line      -> log C_N grows linearly in N
  * a bounded ball -> log C_N grows like N log N

This script measures all three on the same cutoff grid.
"""

import math

from hermite_obs import gram, regions

N_GRID = [4, 9, 16, 25, 36, 49]
RADIUS = regions.truncate_radius(max(N_GRID), 1) + 1.0

cases = {
    "thick (L=1, gamma=0.5)": regions.make_periodic_thick(1, 1.0, 0.5, RADIUS),
    "half-line (0, inf)": regions.half_line(RADIUS),
    "ball (-1, 1)": regions.interval_region(-1.0, 1.0, trunc_radius=RADIUS),
}

for label, region in cases.items():
    print("\n==", label)
    print("   N    log C_N     lambda_min     bits")
    report = gram.scaling_study(region, N_GRID)
    for row in report.rows:
        print(
        "  %3d   %8.3f    %11.3e   %5d"
            % (row["N"], row["C_log"], row["lambda_min"], row["precision_bits"])
        )
    print("  best growth model:", report.best_model)
    if not math.isnan(report.exponent_p):
        print("  free exponent fit: log C_N ~ N^%.2f" % report.exponent_p)

print(
    "\nNote how the half-line needs extended precision early: lambda_min"
    "\ndecays exponentially, which is exactly why the Gram entries are"
    "\nrebuilt in software floating point before each escalated eigensolve."
)
