"""One pass of a workload in a fresh interpreter.

Started by ``run.py`` with the spawn time on the shared monotonic clock.  It
starts the host-speed probe (``speed.py``), imports hermite_obs, builds the
command list from the seed (set-up ends here), issues every command through
``hermite_obs.cli.run`` one after another, then checks each artifact and
writes a JSON report for the parent:

    python3 perfbench/worker.py WORKLOAD SEED SMOKE TRACE OUTDIR T_SPAWN
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _digests(outdir):
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name.endswith((".json", ".csv")):
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv):
    workload, seed, smoke, trace, outdir, t_spawn = argv
    seed, smoke, trace, t_spawn = int(seed), smoke == "1", trace == "1", float(t_spawn)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from speed import SpeedProbe
    probe = SpeedProbe().start()
    from hermite_obs import cli
    import workloads
    from tracer import trace_hermite_obs

    commands = workloads.commands(workload, seed, smoke)
    os.makedirs(outdir, exist_ok=True)
    t_ready, c_ready = time.monotonic(), time.process_time()

    tracer = trace_hermite_obs() if trace else None
    codes, spans = [], []
    sink = io.StringIO()
    t0, c0 = time.monotonic(), time.process_time()
    for cmd in commands:
        stem = os.path.join(outdir, cmd.label)
        t_cmd, c_cmd = time.monotonic(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.run(list(cmd.argv) + ["--out", stem, "--quiet"]))
        except Exception:  # a raising command is a failed command; keep going
            codes.append("raised: " + traceback.format_exc(limit=3))
        spans.append((t_cmd, time.monotonic(), c_cmd, time.process_time()))
    t1, c1 = time.monotonic(), time.process_time()
    probe.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(os.path.join(outdir, "spans.npz"))

    report = {
        "setup_s": probe.reference_seconds(0.0, c_ready),
        "wall_s": probe.reference_seconds(c0, c1),
        "raw_setup_s": t_ready - t_spawn,
        "raw_wall_s": t1 - t0,
        "speed_samples": len(probe.cal),
        "speed_kernel_ms": 1e3 * sorted(probe.cal)[len(probe.cal) // 2],
        "cpu_s": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": [
            {"label": cmd.label, "argv": list(cmd.argv), "exit": code,
             "wall_s": probe.reference_seconds(ca, cb), "raw_wall_s": b - a,
             "problems": workloads.check_artifact(cmd, code, os.path.join(outdir, cmd.label))}
            for cmd, code, (a, b, ca, cb) in zip(commands, codes, spans)
        ],
        "digests": _digests(outdir),
    }
    if tracer is not None:
        report["spans"] = tracer.summary()
        report["counters"] = tracer.counters
    with open(os.path.join(outdir, "pass.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
