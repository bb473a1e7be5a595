"""Workload command lists and the correctness check of each command.

A workload is a fixed list of README-style ``hermite-obs`` command lines.
The workload seed orders the list and is passed as ``--seed`` to every
command that does not fix its own; the control workload's random initial
states come from it.  Region and symbol parameters are the README's and stay
fixed, so runs with different seeds do the same amount of work.  The verify
workload fixes its master seeds to a pool: the cost of a verify trial varies
up to fourfold with its draw (the weighted-norm series length), so a
seed-drawn trial set would measure the draw, not the program.

Every command writes its JSON/CSV artifact under an output directory; its
check reads the artifact back and returns a list of problems (empty means
the command passed).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("spectral", "control", "verify")

HUM_RESIDUAL_MAX = 1e-6
STAIRCASE_RESIDUAL_MAX = 1e-4
LOG_C_N_SLACK = 1e-9        # E_N are nested, so log C_N may not decrease
ORACLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: Callable          # check(result) -> list of problem strings


def _num(value):
    """Artifact floats are numbers or the strings 'nan' / 'inf' / '-inf'."""
    return float(value)


# -- checks --------------------------------------------------------------------


def _flags(rows):
    return ["%s: flag %s" % (r.get("N", r.get("T")), r["flag"]) for r in rows if r["flag"] != "ok"]


def check_scaling(res):
    problems = _flags(res["rows"])
    if res.get("dominance_ok") is not True:
        problems.append("dominance_ok is %r" % res.get("dominance_ok"))
    logs = [(r["N"], _num(r["C_log"])) for r in res["rows"]]
    for (n_a, a), (n_b, b) in zip(logs, logs[1:]):
        if not b >= a - LOG_C_N_SLACK:
            problems.append("log C_N falls from N=%d to N=%d: %r -> %r" % (n_a, n_b, a, b))
    return problems


def check_constant(res):
    problems = [] if res["flag"] == "ok" else ["flag %s" % res["flag"]]
    if not math.isfinite(_num(res["log_C_N"])):
        problems.append("log C_N not finite")
    return problems


def check_blowup(res):
    problems = _flags(res["rows"])
    if res.get("excluded"):
        problems.append("excluded horizons %r" % res["excluded"])
    rows = sorted(res["rows"], key=lambda r: _num(r["T"]))
    for short, long in zip(rows, rows[1:]):
        if not _num(long["C_T"]) <= _num(short["C_T"]):
            problems.append("C_T increases from T=%r to T=%r" % (short["T"], long["T"]))
    return problems


def _residual_check(limit):
    def check(res):
        problems = [] if res["flag"] == "ok" else ["flag %s" % res["flag"]]
        residual = _num(res["residual"])
        if not residual <= limit:
            problems.append("residual %r above %g" % (residual, limit))
        return problems
    return check


def harmonic_full_space_oracle(n, N, T):
    """Closed-form C_T of the harmonic oscillator observed on all of R^n.

    The generator is diagonal with eigenvalues lam = 2k + n, k = 0..N; each
    mode's observability constant is 2 lam e^{-2 lam T} / (1 - e^{-2 lam T})
    and C_T is the worst of them.  Written here, apart from the program, so
    the check does not depend on the code it checks.
    """
    return max(
        2.0 * lam * math.exp(-2.0 * lam * T) / -math.expm1(-2.0 * lam * T)
        for lam in (2.0 * k + n for k in range(N + 1))
    )


def _oracle_check(n, N, T):
    def check(res):
        problems = [] if res["flag"] == "ok" else ["flag %s" % res["flag"]]
        want = harmonic_full_space_oracle(n, N, T)
        got = _num(res["C_T"])
        if not abs(got - want) <= ORACLE_REL_TOL * want:
            problems.append("C_T %r differs from closed form %r" % (got, want))
        return problems
    return check


def check_verify(res):
    problems = ["suite %s: %d failures" % (v["suite"], v["failures"])
                for v in res["verdicts"] if v["failures"]]
    if res.get("all_passed") is not True:
        problems.append("all_passed is %r" % res.get("all_passed"))
    return problems


def check_artifact(command, exit_code, stem):
    """Problems of one finished command: exit code, artifact, its check."""
    if exit_code != 0:
        return ["exit code %r" % (exit_code,)]
    try:
        with open(stem + ".json") as fh:
            result = json.load(fh)["result"]
        return command.check(result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["unreadable artifact: %s: %s" % (type(exc).__name__, exc)]


# -- command lists ---------------------------------------------------------------


def _spectral(smoke):
    if smoke:
        return [
            ("scaling-periodic-2d", "scaling --region periodic:L=1,gamma=0.5 --n 2 --N 2:4:2 --variant thick", check_scaling),
            ("scaling-periodic-1d", "scaling --region periodic:L=1,gamma=0.5 --n 1 --N 4:12:4 --variant thick", check_scaling),
            ("scaling-halfline", "scaling --region halfline --n 1 --N 8:24:8 --variant density", check_scaling),
            ("constant-ball", "constant --region ball:r=1 --n 1 --N 16", check_constant),
        ]
    return [
        ("scaling-periodic-2d", "scaling --region periodic:L=1,gamma=0.5 --n 2 --N 4:6:2 --variant thick", check_scaling),
        ("scaling-periodic-1d", "scaling --region periodic:L=1,gamma=0.5 --n 1 --N 4:32:4 --variant thick", check_scaling),
        ("scaling-halfline", "scaling --region halfline --n 1 --N 8:32:8 --variant density", check_scaling),
        ("constant-ball", "constant --region ball:r=1 --n 1 --N 48", check_constant),
    ]


def _control(smoke):
    kfp_N, harm_N, mp_N, hum_N, stair_N, full_N = (4, 8, 4, 8, 8, 8) if smoke else (6, 16, 7, 20, 24, 16)
    horizons = "1,0.5,0.25,0.125"
    return [
        ("observability-kfp", "observability --symbol kfp:a=1 --region periodic:L=1,gamma=0.2 --N %d --T %s" % (kfp_N, horizons), check_blowup),
        ("observability-harmonic", "observability --symbol harmonic --region periodic:L=1,gamma=0.2 --N %d --T %s" % (harm_N, horizons), check_blowup),
        ("hum-256bit", "control --symbol harmonic --region periodic:L=1,gamma=0.6 --N %d --T 1 --precision-bits 256" % mp_N, _residual_check(HUM_RESIDUAL_MAX)),
        ("hum-double", "control --symbol harmonic --region periodic:L=1,gamma=0.6 --N %d --T 1" % hum_N, _residual_check(HUM_RESIDUAL_MAX)),
        ("staircase", "control --symbol harmonic --region periodic:L=1,gamma=0.6 --N %d --T 1 --staircase" % stair_N, _residual_check(STAIRCASE_RESIDUAL_MAX)),
        ("observability-full", "observability --symbol harmonic --region full --N %d --T 1" % full_N, _oracle_check(1, full_N, 1.0)),
    ]


def _verify(smoke):
    trials, pool = (2, 1) if smoke else (5, 4)
    return [("verify-all-seed%d" % m, "verify --suite all --trials %d --seed %d" % (trials, m), check_verify)
            for m in range(pool)]


def commands(workload, seed, smoke=False):
    """The workload's commands in seeded order."""
    builders = {"spectral": _spectral, "control": _control, "verify": _verify}
    if workload not in builders:
        raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
    table = builders[workload](smoke)
    random.Random(seed).shuffle(table)
    out = []
    for label, line, check in table:
        argv = tuple(line.split())
        if "--seed" not in argv:
            argv += ("--seed", str(seed))
        out.append(Command(label, argv, check))
    return out
