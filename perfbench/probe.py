"""Traced breakdown of a single hermite-obs command.

    python3 perfbench/probe.py [--top K] -- CLI ARGS...

Runs ``hermite_obs.cli.run(CLI ARGS + ["--quiet"])`` once in this process
with the tracer installed and prints, per span name, the call count, self
time, inclusive time (outermost activations) and the self-time share of the
command's wall time.  Use it to check a hand figure, e.g.

    python3 perfbench/probe.py -- gram --region periodic:L=1,gamma=0.5 --n 2 --N 16
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    if not cli_args:
        parser.error("give the hermite-obs command after --")

    from hermite_obs import cli
    from tracer import trace_hermite_obs

    tracer = trace_hermite_obs()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(cli_args + ["--quiet"])
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()

    spans = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    print("command: hermite-obs %s   exit %d   wall %.3f s" % (" ".join(cli_args), code, wall))
    print("%-44s %10s %10s %10s %7s" % ("span", "calls", "self_s", "incl_s", "self%"))
    for name, s in spans[:args.top]:
        print("%-44s %10d %10.4f %10.4f %6.1f%%" % (
            name, s["calls"], s["self_s"], s["incl_s"], 100.0 * s["self_s"] / wall))
    print("%-44s %10s %10.4f" % ("(sum of self times)", "", sum(s["self_s"] for _, s in spans)))
    for key, value in sorted(tracer.counters.items()):
        print("counter %s = %s" % (key, value))
    return code


if __name__ == "__main__":
    sys.exit(main())
