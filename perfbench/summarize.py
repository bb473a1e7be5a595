"""Markdown tables from benchmark records.

    python3 perfbench/summarize.py end-to-end RESULT.json...
    python3 perfbench/summarize.py layers RESULT.json

``end-to-end`` takes the ``result.json`` records of untraced runs (any mix
of workloads and seeds) and prints, per workload and metric, the median, the
quartiles and the quartile spread as a share of the median, as the
acceptance rule computes them.  ``layers`` takes one traced record and
prints every span with its calls, self time and self-time share of the
traced pass.
"""

from __future__ import annotations

import json
import statistics
import sys


def end_to_end(paths):
    by_workload = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        by_workload.setdefault(rec["workload"], []).append(rec)
    print("| workload | metric | runs | median | q1 | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, recs in sorted(by_workload.items()):
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            print("| %s | %s (%s) | %d | %.4g | %.4g | %.4g | %.3f |" % (
                workload, name, recs[0]["metrics"][name]["unit"], len(values), med, q1, q3,
                (q3 - q1) / med if med else float("nan")))


def layers(path):
    with open(path) as fh:
        rec = json.load(fh)
    traced = [p for p in rec["passes"] if p["trace"]]
    wall = statistics.median(p["wall_s"] for p in traced)
    plain = statistics.median(p["wall_s"] for p in rec["passes"] if not p["trace"])
    spans = sorted(rec["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    print("workload %s, seed %d: traced pass %.3f s, untraced %.3f s, %d traced pass(es)\n" % (
        rec["workload"], rec["provenance"]["seed"], wall, plain, len(traced)))
    print("| span | calls | self_s | incl_s | self share |")
    print("|---|---|---|---|---|")
    for name, s in spans:
        print("| %s | %d | %.4f | %.4f | %.1f%% |" % (
            name, s["calls"], s["self_s"], s["incl_s"], 100.0 * s["self_s"] / wall))
    total = sum(s["self_s"] for _, s in spans)
    print("| (all spans) | | %.4f | | %.1f%% |" % (total, 100.0 * total / wall))


def main(argv):
    if len(argv) < 2 or argv[0] not in ("end-to-end", "layers"):
        sys.stderr.write(__doc__)
        return 1
    if argv[0] == "end-to-end":
        end_to_end(argv[1:])
    else:
        layers(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
