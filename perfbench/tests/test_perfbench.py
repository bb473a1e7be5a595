"""Tests of the benchmark itself (smoke sizes only).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run_cli(cmd, stem):
    from hermite_obs import cli

    return cli.run(list(cmd.argv) + ["--out", str(stem), "--quiet"])


def _command(workload, label):
    return next(c for c in workloads.commands(workload, 3, smoke=True) if c.label == label)


def test_tampered_artifact_counts_as_failed(tmp_path):
    cmd = _command("control", "observability-full")
    stem = tmp_path / cmd.label
    assert _run_cli(cmd, stem) == 0
    assert workloads.check_artifact(cmd, 0, str(stem)) == []

    path = tmp_path / (cmd.label + ".json")
    doc = json.loads(path.read_text())
    doc["result"]["C_T"] *= 1.0 + 1e-6
    path.write_text(json.dumps(doc))
    assert workloads.check_artifact(cmd, 0, str(stem))

    path.write_text("{")
    assert workloads.check_artifact(cmd, 0, str(stem))
    assert workloads.check_artifact(cmd, 2, str(stem)) == ["exit code 2"]


def test_scaling_check_rejects_decreasing_constant():
    rows = [{"N": 4, "C_log": 1.0, "flag": "ok"}, {"N": 8, "C_log": 0.9, "flag": "ok"}]
    assert workloads.check_scaling({"rows": rows, "dominance_ok": True})
    rows[1]["C_log"] = 1.0 - 0.5 * workloads.LOG_C_N_SLACK
    assert workloads.check_scaling({"rows": rows, "dominance_ok": True}) == []
    assert workloads.check_scaling({"rows": rows, "dominance_ok": False})


def test_judge_counts_artifact_drift():
    def report(digest, trace=False):
        return {"trace": trace, "digests": {"a.json": digest},
                "commands": [{"label": "a", "problems": []}],
                "spans": {"x": {"calls": 1}}, "counters": {}}

    attempted, failed, problems = run.judge([report("d0"), report("d0", True)])
    assert (attempted, failed, problems) == (2, [], [])
    attempted, failed, _ = run.judge([report("d0"), report("d1", True)])
    assert attempted == 2 and [f["pass"] for f in failed] == [1]


def test_tracer_wraps_by_name_imports_and_nests():
    from mpmath import mp
    import scipy.linalg

    import hermite_obs
    from hermite_obs import basis, estimates, verify
    from hermite_obs.basis import LadderMap

    original = basis.apply_ladder
    f = basis.unit_expansion(1, 4, (2,))
    modules = [getattr(hermite_obs, m) for m in
               ("basis", "control", "estimates", "gram", "quadratic", "regions", "verify")]
    tracer = Tracer()
    tracer.install(modules, mp=mp, scipy_linalg=scipy.linalg)
    try:
        assert estimates.apply_ladder is basis.apply_ladder is not original
        assert verify.SUITES["est_weighted"] is verify.suite_est_weighted
        estimates.apply_ladder(LadderMap(basis.POSITION, 0, 4), f)
        outer_end = tracer.span_end[0]
        outer = outer_end - tracer.span_start[0]
    finally:
        tracer.uninstall()
    assert basis.apply_ladder is original and estimates.apply_ladder is original
    assert verify.SUITES["est_weighted"].__name__ == "suite_est_weighted"
    assert not hasattr(verify.SUITES["est_weighted"], "__wrapped__")
    assert "eigsy" not in vars(mp)

    spans = tracer.summary()
    assert spans["basis.apply_ladder"]["calls"] >= 3      # position = raise + lower
    assert spans["basis.apply_ladder"]["incl_s"] == pytest.approx(outer)
    total_self = sum(s["self_s"] for s in spans.values())
    assert total_self == pytest.approx(outer, rel=1e-9, abs=1e-12)
    assert list(tracer.span_parent[:1]) == [-1] and min(tracer.span_parent[1:]) == 0


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                  "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in spec]
    if trace == "1":
        record_path = os.path.join(run.OUT, "%s-seed5-trace1-smoke" % workload, "result.json")
        with open(record_path) as fh:
            passes = json.load(fh)["passes"]
        plain = [p for p in passes if not p["trace"]]
        traced = [p for p in passes if p["trace"]]
        assert len(traced) >= 2 and plain[0]["digests"] and all(
            p["digests"] == plain[0]["digests"] for p in passes)
        calls = [{k: v["calls"] for k, v in p["spans"].items()} for p in traced]
        assert all(c == calls[0] for c in calls)
        assert all(p["counters"] == traced[0]["counters"] for p in traced)
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_reference_seconds_scales_by_sampled_speed():
    from speed import CAL_REF_S, SpeedProbe

    probe = SpeedProbe()
    # samples at CPU times 1, 2, 3, each handler costing 0.1 s
    probe.t, probe.cost = [1.0, 2.0, 3.0], [0.1, 0.1, 0.1]
    probe.cal = [CAL_REF_S] * 3
    assert probe.reference_seconds(0.0, 3.5) == pytest.approx(3.5 - 0.3)
    probe.cal = [2 * CAL_REF_S] * 3                  # a host at half speed
    assert probe.reference_seconds(0.0, 3.5) == pytest.approx((3.5 - 0.3) / 2)
    probe.cal = [CAL_REF_S, 2 * CAL_REF_S, 2 * CAL_REF_S]
    assert probe.reference_seconds(0.5, 2.5) == pytest.approx(0.4 + 0.9 / 2 + 0.5 / 2)
    # a window with no sample inside takes the next sample's speed
    assert probe.reference_seconds(1.2, 1.4) == pytest.approx(0.2 / 2)


def test_speed_probe_samples_while_running():
    from speed import SpeedProbe

    probe = SpeedProbe().start()
    try:
        c0 = time.process_time()
        while time.process_time() - c0 < 0.3:
            sum(i * i for i in range(1000))
        c1 = time.process_time()
    finally:
        probe.stop()
    assert len(probe.cal) >= 2 and all(c > 0 for c in probe.cal)
    assert 0 < probe.reference_seconds(c0, c1) < 10 * (c1 - c0)
