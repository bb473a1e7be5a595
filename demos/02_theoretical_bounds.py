"""Measured spectral constants against the fully explicit theoretical bounds.

Three hypothesis classes come with closed-form bounds on C_N(w):

  (open)    w contains a ball B(x0, r): a bound of shape
            exp(N log N / 2 + O(N)), built from a one-dimensional Remez
            argument along rays plus the quarter-mass tail radius;
  (density) w keeps a fraction delta of every large ball: exp(O(N)), from
            the ball Remez lemma at radius c_n sqrt(N+1);
  (thick)   w is gamma-thick at scale L: exp(O(sqrt N)), through good/bad
            cube bookkeeping, a Sobolev chain and the analytic-interval
            propagation lemma.

The constants are explicit but generous (the thick chain in particular is
astronomically large), so everything is compared in log domain.
"""

from hermite_obs import gram, regions

N_GRID = [4, 16, 36, 64]
RADIUS = regions.truncate_radius(max(N_GRID), 1) + 1.0

cases = [
    (
        "ball (-1,1) vs open-set bound",
        regions.interval_region(-1.0, 1.0, trunc_radius=RADIUS),
        gram.open_params((0.0,), 1.0),
    ),
    (
        "half-line vs density bound (delta = 1/2)",
        regions.half_line(RADIUS),
        gram.density_params(1, 0.5),
    ),
    (
        "thick gamma=0.5 vs thick bound",
        regions.make_periodic_thick(1, 1.0, 0.5, RADIUS),
        gram.thick_params(1, 1.0, 0.5),
    ),
]

for label, region, params in cases:
    print("\n==", label)
    print("   N    measured log C_N    log bound")
    report = gram.scaling_study(region, N_GRID, bound=params)
    for row in report.rows:
        print("  %3d        %9.3f      %11.3f" % (row["N"], row["C_log"], row["bound_log"]))
    print("  dominance holds:", report.dominance_ok)

print(
    "\nThe auxiliary constants (Sobolev embedding, analytic-interval lemma)"
    "\nare never pinned down by the theory; the defaults used here are"
    "\nrecorded in every emitted artifact and can be overridden."
)
