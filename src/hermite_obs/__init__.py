"""Spectral constants for finite Hermite combinations, explicit theoretical
bounds, and Galerkin-scale null-controllability studies for quadratic
differential operators."""

import os
import sys

# OpenBLAS sums some double products in another order when it threads them,
# so artifacts would depend on the thread count: pin one thread, which BLAS
# reads when numpy loads.  A caller that loaded numpy first keeps its own.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

__version__ = "0.1.0"

from . import basis, control, estimates, gram, quadratic, regions  # noqa: E402, F401
