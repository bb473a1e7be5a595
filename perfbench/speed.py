"""Host-speed sampling for the timed parts of a pass.

On a shared virtual machine the same instructions take 10-40% longer in one
minute than in the next, and up to twice as long within a second; on top of
that the host now and then takes the vCPU away for a while.  Raw wall times
of identical work therefore spread more than any useful regression bound.

``SpeedProbe`` measures the program's time in CPU seconds of this process,
so time the vCPU spent taken away is left out, and samples the speed of the
CPU while the program runs: an interval timer (SIGALRM every
``INTERVAL_S``) interrupts the main thread between two bytecodes, and the
handler times a fixed calibration kernel.  The kernel uses the program's two
compute backends: a 256-bit mpmath LU solve of a small matrix (a fresh copy
each time, so mpmath's LU cache is not hit) and double-precision LAPACK
eigensolves of a small symmetric matrix.  It runs on the same vCPU as the
program, in the same instants.  Of the kernels tried (an interpreter loop,
random reads of 1 to 32 MB buffers, the eigensolves alone, and mpmath alone
or with the eigensolves), the mpmath ones left the smallest pass-to-pass
spread over the three workloads together.  Kernels that read large buffers
did worst: their time depends on what the program has just evicted from the
caches.

``reference_seconds(c0, c1)`` converts the program's CPU time in
``[c0, c1]`` into seconds at the reference speed, ``CAL_REF_S`` per kernel:
each stretch of CPU time between samples, less the handler's own, is scaled
by ``CAL_REF_S / kernel time``.  A program change that halves the work
halves the result; a host that runs at half speed for a while does not
change it.
"""

from __future__ import annotations

import bisect
import signal
import time

import mpmath
import numpy

INTERVAL_S = 0.05
CAL_DIM = 4
CAL_PREC = 256
CAL_EIGH = (24, 2)       # matrix order, solves per kernel
CAL_REF_S = 1.0e-3       # about the kernel's time on a quiet 2-vCPU Xeon VM


class SpeedProbe:
    def __init__(self):
        self.ctx = mpmath.MPContext()
        self.ctx.prec = CAL_PREC
        self.mat = self.ctx.hilbert(CAL_DIM)
        self.rhs = self.ctx.ones(CAL_DIM, 1)
        n = CAL_EIGH[0]
        self.sym = numpy.add.outer(numpy.arange(n), numpy.arange(n)) % 7 + numpy.eye(n) * n
        self.t = []          # process CPU time at which each handler returned
        self.cal = []        # CPU time of the kernel in each sample
        self.cost = []       # CPU time of each handler, kernel included
        self._old = None

    def kernel(self):
        self.ctx.lu_solve(self.mat.copy(), self.rhs)
        for _ in range(CAL_EIGH[1]):
            numpy.linalg.eigh(self.sym)

    def _handler(self, signum, frame):
        t_in = time.process_time()
        self.kernel()
        t_out = time.process_time()
        self.cal.append(t_out - t_in)
        self.t.append(time.process_time())
        self.cost.append(self.t[-1] - t_in)

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def reference_seconds(self, t0, t1):
        """CPU time in [t0, t1], less sampling cost, at the reference speed.

        Each sample stands for the gap since the previous one; the stretch
        after the last sample in the window takes the last sample's speed,
        and a window with no sample inside takes the nearest later one's.
        """
        if not self.t:
            raise ValueError("no speed samples were taken")
        lo = bisect.bisect_right(self.t, t0)
        hi = bisect.bisect_right(self.t, t1)
        total, prev = 0.0, t0
        for i in range(lo, hi):
            total += max(self.t[i] - self.cost[i] - prev, 0.0) * CAL_REF_S / self.cal[i]
            prev = self.t[i]
        last = min(max(hi - 1, lo), len(self.t) - 1)
        return total + (t1 - prev) * CAL_REF_S / self.cal[last]
