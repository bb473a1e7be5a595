"""hermite-obs benchmark: one workload, several passes, one result line.

    python3 perfbench/run.py --workload {spectral,control,verify} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a source tree (``src/hermite_obs`` beside this
directory).  Each pass is one fresh interpreter (``worker.py``) that issues
the workload's command list through ``hermite_obs.cli.run`` one command
after another, so set-up, memory and caches belong to the pass as they do to
a ``hermite-obs`` invocation.  Passes repeat while another one still fits in
``--seconds``; timings are medians over passes, in reference seconds:
CPU time scaled by the host speed sampled during the pass (``speed.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the traced passes must reproduce the untraced artifacts
byte for byte and the same call counts.  ``--smoke`` runs seconds-long
sizes of each workload.  The last stdout line is the JSON result; the full
record (provenance, every pass, every span) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0      # a run must end within 180 s
MIN_ROUNDS = 2
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PROBE = """
import json, platform, numpy, scipy, mpmath, hermite_obs.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                  "blas": blas.get("openblas configuration") or blas.get("name")}))
"""


class BenchError(Exception):
    pass


def child_env():
    """Environment of every pass: the source tree on the path, BLAS pinned
    to one thread so that runs on a shared machine stay comparable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_ENV:
        env[var] = "1"
    return env


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def provenance(seed, versions):
    git = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git = done.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "hermite_obs")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    env = child_env()
    return {
        "seed": seed,
        "git_commit": git,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {var: env[var] for var in THREAD_ENV},
        **versions,
    }


def run_pass(workload, seed, smoke, trace, passdir, deadline):
    """Run one pass in a fresh interpreter and return its report."""
    os.makedirs(passdir)
    t_spawn = time.monotonic()
    timeout = max(1.0, deadline - t_spawn)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
             "1" if smoke else "0", "1" if trace else "0", passdir, repr(t_spawn)],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("pass exceeded the %.0f s run limit" % RUN_LIMIT_S)
    path = os.path.join(passdir, "pass.json")
    if done.returncode != 0 or not os.path.exists(path):
        raise BenchError("pass worker failed (exit %d):\n%s" % (done.returncode, done.stderr[-2000:]))
    with open(path) as fh:
        report = json.load(fh)
    report["trace"] = trace
    report["elapsed_s"] = time.monotonic() - t_spawn
    return report


def run_passes(workload, seed, smoke, trace, seconds, outdir, deadline):
    """Repeat rounds of passes (untraced, or untraced then traced) while one
    more fits in ``seconds``, and at least MIN_ROUNDS times, so that every
    run compares artifacts and call counts between passes."""
    modes = (False, True) if trace else (False,)
    passes, rounds = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for mode in modes:
            passdir = os.path.join(outdir, "pass%02d%s" % (len(passes), "-traced" if mode else ""))
            passes.append(run_pass(workload, seed, smoke, mode, passdir, deadline))
        rounds.append(time.monotonic() - t0)
        if (len(rounds) >= MIN_ROUNDS
                and time.monotonic() - start + statistics.median(rounds) > seconds):
            return passes


def judge(passes):
    """Failed commands and run-level problems.

    A command fails if it raised, exited non-zero or missed its check, or if
    its artifact differs from the same command's artifact in the first pass
    (same seed, so artifacts must be byte-identical, traced or not).
    """
    first = passes[0]["digests"]
    attempted, failed, problems = 0, [], []
    for i, p in enumerate(passes):
        for cmd in p["commands"]:
            attempted += 1
            issues = list(cmd["problems"])
            for ext in (".json", ".csv"):
                name = cmd["label"] + ext
                if p["digests"].get(name) != first.get(name):
                    issues.append("%s differs from pass 0" % name)
            if issues:
                failed.append({"pass": i, "traced": p["trace"], "label": cmd["label"],
                               "problems": issues})
    traced = [p for p in passes if p["trace"]]
    for p in traced[1:]:
        if ({k: v["calls"] for k, v in p["spans"].items()}
                != {k: v["calls"] for k, v in traced[0]["spans"].items()}):
            problems.append("per-layer call counts differ between traced passes")
        if p["counters"] != traced[0]["counters"]:
            problems.append("trace counters differ between traced passes")
    return attempted, failed, problems


def span_table(traced):
    """Per span: calls of the first traced pass, median self and inclusive s.

    Span times are raw wall time; each traced pass's are scaled by that
    pass's ``wall_s / raw_wall_s`` so that they are reference seconds, like
    ``wall_s`` (see ``speed.py``).
    """
    names = sorted(set().union(*(p["spans"] for p in traced)))
    zero = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def ref(name, stat):
        return statistics.median(p["spans"].get(name, zero)[stat] * p["wall_s"] / p["raw_wall_s"]
                                 for p in traced)

    return {
        name: {
            "calls": traced[0]["spans"].get(name, zero)["calls"],
            "self_s": ref(name, "self_s"),
            "incl_s": ref(name, "incl_s"),
        }
        for name in names
    }


def layer_value(metric, table, counters, extra):
    """Value of a per-layer metric ``<span>.<stat>``.

    ``calls`` is a call count; ``self_s`` and ``s`` are self time, so kernel
    time is charged to the kernel and not to the layer that called it.
    ``verify.<suite>`` names the span ``verify.suite_<suite>``.
    """
    if metric in extra:
        return extra[metric]
    if metric in counters:
        return counters[metric]
    span, stat = metric.rsplit(".", 1)
    if span.startswith("verify."):
        span = "verify.suite_" + span[len("verify."):]
    rec = table.get(span, {"calls": 0, "self_s": 0.0})
    if stat == "calls":
        return rec["calls"]
    if stat in ("self_s", "s"):
        return rec["self_s"]
    raise BenchError("per-layer metric %r has unknown statistic %r" % (metric, stat))


def metrics(spec, passes, attempted, failed, trace):
    plain = [p for p in passes if not p["trace"]]
    if not trace:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "pass_frac": (attempted - len(failed)) / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        traced = [p for p in passes if p["trace"]]
        table = span_table(traced)
        extra = {
            "process.cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                                 - statistics.median(p["wall_s"] for p in plain)),
        }
        values = {m["name"]: layer_value(m["name"], table, traced[0]["counters"], extra)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "hermite_obs", "__init__.py")):
        sys.stderr.write("error: no hermite_obs sources under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    load_before = loadavg()
    # untimed start-up: warms the file cache and reads the library versions
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        sys.stderr.write("error: cannot import hermite_obs:\n%s" % probe.stderr[-2000:])
        return 2
    info = provenance(args.seed, json.loads(probe.stdout.strip().splitlines()[-1]))

    run_id = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                      "-smoke" if args.smoke else "")
    outdir = os.path.join(OUT, run_id)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    try:
        passes = run_passes(args.workload, args.seed, args.smoke, bool(args.trace),
                            args.seconds, outdir, deadline)
        attempted, failed, problems = judge(passes)
        values = metrics(spec, passes, attempted, failed, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    info["loadavg_before"], info["loadavg_after"] = load_before, loadavg()

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "provenance": info, "metrics": values,
              "attempted": attempted, "failed": failed, "problems": problems,
              "passes": passes}
    if args.trace:
        record["spans"] = span_table([p for p in passes if p["trace"]])
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("workload %s  seed %d  trace %d  passes %d (%s)  nproc %s  load %s -> %s" % (
        args.workload, args.seed, args.trace, len(passes),
        "+".join("T" if p["trace"] else "U" for p in passes),
        info["nproc"], " ".join(load_before or []), " ".join(info["loadavg_after"] or [])))
    labels = sorted({c["label"] for c in passes[0]["commands"]})
    bad = {f["label"] for f in failed}
    for label in labels:
        print("  check %-24s %s" % (label, "FAIL" if label in bad else "ok"))
    for f in failed:
        print("  failed pass %d %s: %s" % (f["pass"], f["label"], "; ".join(f["problems"])))
    for p in problems:
        print("  problem: %s" % p)
    print("  fail_frac = %.6g (%d of %d commands)" % (len(failed) / attempted, len(failed), attempted))
    for name, m in values.items():
        print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failed and not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
