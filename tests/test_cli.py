import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hermite_obs import arith, cli, gram, regions as rg
from hermite_obs.gram import spectral_constant, gram_matrix


def run_cli(argv, capsys=None):
    code = cli.run(argv)
    return code


class TestParsing:
    def test_int_range(self):
        assert cli.parse_int_range("4:64:4") == list(range(4, 65, 4))
        assert cli.parse_int_range("8") == [8]
        assert cli.parse_int_range("4,9,16") == [4, 9, 16]

    def test_float_list(self):
        assert cli.parse_float_list("1,0.5,0.25") == [1.0, 0.5, 0.25]
        for text in ("nan", "1,inf", "-inf"):
            with pytest.raises(cli.UsageError):
                cli.parse_float_list(text)

    def test_region_shorthands(self):
        r = cli.parse_region("periodic:L=1,gamma=0.5", 1, 8)
        assert r.generator["kind"] == "periodic_thick"
        assert cli.parse_region("halfline", 1, 4).generator["kind"] == "half_space"
        assert cli.parse_region("ball:r=1", 1, 4).measure() == pytest.approx(2.0)
        assert cli.parse_region("full", 2, 4).box_count == 1

    def test_region_radius_scales_with_cutoff(self):
        small = cli.parse_region("periodic", 1, 4)
        big = cli.parse_region("periodic", 1, 32)
        assert big.trunc_radius > small.trunc_radius


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli.run(["nonsense"]) == cli.EXIT_USAGE

    def test_contract_violation(self, capsys):
        code = cli.run(["constant", "--region", "periodic:L=1,gamma=1.5",
                        "--n", "1", "--N", "4", "--quiet"])
        assert code == cli.EXIT_CONTRACT

    def test_density_beyond_three_dimensions(self, capsys):
        # box-ball volumes are closed forms for n <= 3 only
        code = cli.run(["scaling", "--region", "full", "--n", "4", "--N", "0",
                        "--variant", "density", "--quiet"])
        assert code == cli.EXIT_CONTRACT
        assert "n <= 3" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flag", [
        (["--N", "24"], "ill_conditioned"),
        (["--N", "12", "--staircase"], "stage_gramian_failure:3"),
    ])
    def test_flagged_control_exits_3(self, extra, flag, capsys, tmp_path):
        # HUM and each staircase stage flag their Gramian by one rule, and a
        # flagged result exits 3 like every other subcommand's
        out = str(tmp_path / "c")
        code = cli.run(["control", "--symbol", "harmonic", "--region", "ball:r=1",
                        "--T", "0.5", "--quiet", "--out", out] + extra)
        assert code == cli.EXIT_PRECISION
        assert json.loads((tmp_path / "c.json").read_text())["result"]["flag"] == flag

    @pytest.mark.parametrize("argv, flag", [
        (["observability"], "singular_floor"),
        (["control", "--precision-bits", "256"], "ill_conditioned"),
    ])
    def test_zero_coupling_is_flagged(self, argv, flag, capsys, monkeypatch, tables, tmp_path):
        # a measure-zero region makes P and so W zero, which no precision or
        # ridge makes factor: observability, under the full 4,096-bit ceiling,
        # ends flagged with C_T inf after its first Taylor table, and HUM at
        # 256 bits gives the control 0
        if argv[0] == "control":
            monkeypatch.setattr(arith, "MAX_BITS", 256)
        common = ["--symbol", "harmonic", "--region", "interval:a=0,b=0", "--N", "4",
                  "--T", "1", "--quiet", "--out"]
        assert cli.run(argv + common + [str(tmp_path / "z")]) == cli.EXIT_PRECISION
        res = json.loads((tmp_path / "z.json").read_text())["result"]
        assert res["flag"] == flag
        if argv[0] == "observability":
            assert res["C_T"] == res["log_C_T"] == "inf"
            assert tables == [53] and res["precision_bits"] == 53
        else:  # the free flow, as the double-precision least-squares control
            assert cli.run(["control"] + common + [str(tmp_path / "d")]) == cli.EXIT_PRECISION
            dbl = json.loads((tmp_path / "d.json").read_text())["result"]
            assert res["cost"] == dbl["cost"] == 0.0
            assert res["residual"] == pytest.approx(dbl["residual"], rel=1e-12)

    @pytest.mark.parametrize("region, variant", [
        ("ballcomp:r0=1", "open"),
        ("halfline", "open"),
        ("periodic:L=1,gamma=0.5", "open"),
        ("halfline", "thick"),
        ("full", "thick"),
        ("ball:r=1", "thick"),
    ])
    def test_bound_outside_its_hypothesis_is_refused(self, region, variant, capsys):
        # open needs a box containing [x0 - r, x0 + r]^n, thick a periodic
        # region's own L and gamma
        code = cli.run(["scaling", "--region", region, "--N", "4:8:4",
                        "--variant", variant, "--quiet"])
        assert code == cli.EXIT_CONTRACT
        assert capsys.readouterr().err.startswith("contract violation: %s bound: " % variant)

    def test_open_bound_is_the_intervals_own_ball(self, capsys, tmp_path):
        out = str(tmp_path / "s")
        code = cli.run(["scaling", "--region", "interval:a=1,b=3", "--N", "8:16:8",
                        "--variant", "open", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        rows = json.loads((tmp_path / "s.json").read_text())["result"]["rows"]
        params = gram.open_params((2.0,), 1.0)
        assert [r["bound_log"] for r in rows] == [gram.theoretical_bound_log(params, N)
                                                  for N in (8, 16)]

    def test_io_failure(self, capsys, tmp_path):
        missing = str(tmp_path / "no" / "such" / "dir" / "x")
        code = cli.run(["basis", "--n", "1", "--N", "4", "--quiet", "--out", missing])
        assert code == cli.EXIT_IO

    def test_mkdirs_flag_creates(self, capsys, tmp_path):
        target = str(tmp_path / "made" / "here" / "x")
        code = cli.run(["basis", "--n", "1", "--N", "4", "--quiet",
                        "--out", target, "--mkdirs"])
        assert code == cli.EXIT_OK
        assert os.path.exists(target + ".json")


@pytest.mark.parametrize("argv", [
    ["constant", "--region", "periodic:L=x"],
    ["constant", "--region", "interval:a=1"],
    ["constant", "--region", "ball:radius=1"],
    ["scaling", "--region", "halfline", "--N", "4:x"],
    ["observability", "--T", "1,x"],
    ["quantize", "--symbol", "kfp:a=x"],
    ["verify", "--suite", "nosuch"],
    ["control", "--N", "4", "--f0", "/nonexistent"],
    ["evolve", "--t", "1", "--f0", "."],
    ["scaling", "--N", "8:4"],
    ["scaling", "--N", "4:64:-4"],
    ["verify", "--suite", "est_tails", "--trials", "0"],
    ["control", "--N", "4", "--T", "1,2"],
    ["observability", "--T", "nan"],
    ["control", "--T", "nan"],
    ["observability", "--T", "inf"],
    ["scaling", "--region", "periodic:L=nan"],
    ["control", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["symbol", "--symbol", "harmonic:n=1.5"],
    ["gram", "--region", "halfspace:axis=0.5", "--n", "2", "--N", "2"],
])
def test_malformed_input_is_one_usage_line(argv, capsys):
    assert cli.run(argv + ["--quiet"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gram", "--region", "halfspace:axis=5", "--N", "2"],
    ["gram", "--region", "halfspace:axis=-1", "--n", "2", "--N", "2"],
    ["symbol", "--symbol", "harmonic:n=0"],
    ["symbol", "--symbol", "harmonic:n=-1"],
    ["gram", "--region", "periodic:L=0.001", "--n", "2", "--N", "4"],
    ["gram", "--region", "periodic:L=1,gamma=0.5", "--n", "5", "--N", "4"],
    ["gram", "--region", "periodic:L=1e-320", "--N", "2"],
    ["constant", "--N", "2", "--precision-bits", "0"],
    ["control", "--N", "2", "--precision-bits", "-7"],
    ["observability", "--N", "2", "--precision-bits", "10"],
    ["control", "--N", "2", "--staircase", "--precision-bits", "52"],
    ["remez", "--d", "2", "--t", "0.5", "--n", "0"],
    ["remez", "--d", "2", "--rho", "0.5", "--n", "0"],
    ["remez", "--d", "2", "--t", "0.5", "--n", "-1"],
])
def test_out_of_range_input_is_one_contract_line(argv, capsys, monkeypatch):
    # an integer shorthand key outside its range, a periodic lattice above
    # regions.MAX_CELLS (refused before a cell is built), a precision below
    # double and a Remez dimension below 1 are contract violations: one
    # line, exit 2
    monkeypatch.setattr(itertools, "product", None)
    assert cli.run(argv + ["--quiet"]) == cli.EXIT_CONTRACT
    err = capsys.readouterr().err
    assert err.startswith("contract violation: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["observability", "--n", "2"],
    ["control", "--n", "2"],
    ["gram", "--precision-bits", "256"],
    ["verify", "--precision-bits", "999"],
    ["basis", "--plot-data"],
    ["bernstein"],
    ["control", "--N", "4", "--target", "0.5"],
    ["tails", "--a", "3"],
    ["tails", "--k", "3"],
    ["tails", "--n", "2", "--k", "3", "--a", "5"],
    ["remez", "--d", "3", "--rho", "0.5", "--complex-poly"],
    ["bounds", "--variant", "thick", "--N", "4", "--delta", "0.3"],
    ["bounds", "--variant", "open", "--L", "2"],
    ["bounds", "--N", "4", "--x0", "1"],
    ["bounds", "--variant", "density", "--gamma", "0.5"],
])
def test_flag_a_subcommand_never_reads_is_a_usage_error(argv, capsys):
    assert cli.run(argv + ["--quiet"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0].startswith("error: ") and "Traceback" not in err
    assert sum(line.startswith("error: ") for line in lines) == 1


@pytest.mark.parametrize("argv", [
    ["evolve", "--t", "inf"],
    ["evolve", "--t", "nan"],
    ["tails", "--k", "2", "--a", "nan"],
    ["bounds", "--variant", "thick", "--L", "nan"],
    ["control", "--N", "4", "--staircase", "--target", "inf"],
])
def test_non_finite_flag_is_a_usage_error(argv, capsys):
    # a float flag takes finite numbers only: argparse refuses the rest
    assert cli.run(argv + ["--quiet"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0].startswith("error: argument ") and "finite" in lines[0]
    assert sum(line.startswith("error: ") for line in lines) == 1 and "Traceback" not in err


@pytest.mark.parametrize("text, code", [
    ("not json", cli.EXIT_USAGE),
    ('{"n": 1, "N": 4, "order": "grlex"}', cli.EXIT_USAGE),
    ("[1, 2]", cli.EXIT_USAGE),
    ('{"n": 1, "N": 4, "order": "lex", "coeffs": []}', cli.EXIT_CONTRACT),
    ('{"n": 1, "N": 4, "order": "grlex", "coeffs": [[NaN, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}',
     cli.EXIT_USAGE),
    ('{"n": 1, "N": 4, "order": "grlex", "coeffs": [[1, 0], [0, Infinity], [0, 0], [0, 0],'
     ' [0, 0]]}', cli.EXIT_USAGE),
])
def test_malformed_initial_state_file(text, code, capsys, tmp_path):
    f0 = tmp_path / "f0.json"
    f0.write_text(text)
    assert cli.run(["evolve", "--N", "4", "--t", "1", "--f0", str(f0), "--quiet"]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_precision_variable_has_no_effect(capsys, monkeypatch, tmp_path):
    # the escalation start is a recorded input (--precision-bits), never the
    # environment, so the artifact is the same whatever the variable holds
    argv = ["constant", "--region", "ball:r=1", "--n", "1", "--N", "48", "--quiet", "--out"]
    artifacts = []
    for value in (None, "1024", "x"):
        if value is None:
            monkeypatch.delenv("HERMITE_OBS_PRECISION_BITS", raising=False)
        else:
            monkeypatch.setenv("HERMITE_OBS_PRECISION_BITS", value)
        out = str(tmp_path / ("c%d" % len(artifacts)))
        assert cli.run(argv + [out]) == cli.EXIT_OK
        artifacts.append(Path(out + ".json").read_bytes())
    assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]
    assert json.loads(artifacts[0])["result"]["precision_bits"] == 512


def test_import_loads_no_scipy():
    # scipy is a test-only oracle: the runtime needs numpy and mpmath alone
    code = ("import sys, hermite_obs.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_fresh_process_builds_only_the_parsers_it_runs():
    # one top-level parser, one subcommand parser per command run (control
    # twice), and the Gauss rules come from integers: no numpy.polynomial
    code = """
import argparse, json, sys
from hermite_obs import cli
built, init = [], argparse.ArgumentParser.__init__
def count(self, *args, **kw):
    built.append(kw.get("prog"))
    init(self, *args, **kw)
argparse.ArgumentParser.__init__ = count
for line in ("control --N 4", "control --N 4 --precision-bits 256", "observability --N 4",
             "constant --N 4"):
    assert cli.run(line.split() + ["--quiet"]) == 0, line
print(json.dumps([built, "numpy.polynomial" in sys.modules]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    built, polynomial = json.loads(done.stdout)
    assert built == ["hermite-obs", "hermite-obs control", "hermite-obs observability",
                     "hermite-obs constant"]
    assert not polynomial


@pytest.mark.parametrize("line", [
    "scaling --region periodic:L=1,gamma=0.5 --n 2 --N 12:16:4",
    "observability --symbol harmonic --region periodic:L=1,gamma=0.6 --N 16 --T 1,0.5,0.25,0.125",
    "control --symbol harmonic --region periodic:L=1,gamma=0.6 --N 20 --T 1",
])
def test_artifacts_do_not_depend_on_the_blas_threads(line, tmp_path):
    # each of these moved in its last bits under two OpenBLAS threads; the
    # package pins one before numpy loads, so the environment's count does
    # not reach the bytes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    runs = []
    for threads in ("1", "2"):
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                                 threads))
        out = tmp_path / threads
        done = subprocess.run([sys.executable, "-m", "hermite_obs.cli", *shlex.split(line),
                               "--out", str(out)], env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append([done.stdout] + [Path(str(out) + ext).read_bytes()
                                     for ext in (".json", ".csv")])
    assert runs[0] == runs[1]


# edge values of bounds, remez and tails: n and N far out, lengths, fractions
# and ratios near 0 and 1e300, degrees up to 1e5
EDGE_LINES = [
    "bounds --variant thick --n 99 --N 4",
    "bounds --variant thick --n 255 --N 4",
    "bounds --variant thick --n 256 --N 4",
    "bounds --variant thick --n 1000 --N 4",
    "bounds --variant thick --n 100000 --N 4",
    "bounds --variant thick --n 1 --N 4 --L 1e160",
    "bounds --variant thick --n 1 --N 4 --L 1e300",
    "bounds --variant thick --n 1 --N 4 --L 1e-300",
    "bounds --variant thick --n 98 --N 100000 --L 1e-300 --gamma 1e-300",
    "bounds --variant thick --n 255 --N 0 --L 1e300 --gamma 1e-300",
    "bounds --variant open --n 1 --N 4 --r 1e-300",
    "bounds --variant open --n 1 --N 4 --r 1e300",
    "bounds --variant open --n 1 --N 100000 --x0 1e300",
    "bounds --variant open --n 1000 --N 100000 --r 1e-300",
    "bounds --variant open --n 1 --N 0 --x0=-1e300 --r 1e300",
    "bounds --variant density --n 1 --N 100000 --delta 1e-300",
    "bounds --variant density --n 1 --N 4 --R0 1e300",
    "bounds --variant density --n 1000 --N 100000 --delta 1e-300 --R0 1e-300",
    "bounds --variant density --n 1 --N 4 --delta 1",
    "remez --d 100000 --t 0.5",
    "remez --d 100000 --t 1e-300 --complex-poly",
    "remez --n 1000 --d 100000 --t 0.999",
    "remez --n 1000 --d 5 --rho 1e-300",
    "remez --d 1 --t 1e300",
    "remez --d 3 --rho 1e300",
    "tails --n 1000",
    "tails --k 100000 --a 1e-300",
    "tails --k 0 --a 1e300",
    "control --N 4 --T 1e-300",
    "control --N 4 --T 1e-300 --staircase",
    "control --N 4 --T 1e-160 --precision-bits 256",
    "symbol --symbol kfp:a=1e300",
    "observability --symbol kfp:a=1e300 --N 2",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_edge_values_end_in_a_result_or_one_refusal(line, capsys):
    # no traceback and no warning: a result (exit 0, or 3 when flagged) or
    # one contract line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(shlex.split(line) + ["--quiet"])
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONTRACT, cli.EXIT_PRECISION)
    assert "Traceback" not in err
    if code == cli.EXIT_CONTRACT:
        assert err.startswith("contract violation: ") and err.count("\n") == 1


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) >= 7
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "hermite-obs"
        cli.build_parser().parse_args(words[1:])


class TestConfig:
    def test_flags_override_config_with_warning(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "12", "seed": 3}))
        out = str(tmp_path / "b")
        code = cli.run(["--config", str(cfg), "basis", "--n", "1", "--N", "6",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert "overridden by flag" in captured.err
        doc = json.loads((tmp_path / "b.json").read_text())
        assert doc["result"]["N"] == 6
        assert doc["provenance"]["seed"] == 3

    def test_config_fills_flags_with_parser_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "est_tails", "trials": 2}))
        out = str(tmp_path / "v")
        assert cli.run(["--config", str(cfg), "verify", "--quiet", "--out", out]) == 0
        assert "overridden" not in capsys.readouterr().err
        verdicts = json.loads((tmp_path / "v.json").read_text())["result"]["verdicts"]
        assert [(v["suite"], v["trials"]) for v in verdicts] == [("est_tails", 2)]

        cfg.write_text(json.dumps({"gamma": 0.9}))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.run(["--config", str(cfg), "bounds", "--N", "4", "--quiet", "--out", a]) == 0
        assert cli.run(["bounds", "--N", "4", "--gamma", "0.9", "--quiet", "--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_config_key_without_a_flag_is_not_recorded(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision_bits": 512}))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.run(["--config", str(cfg), "gram", "--quiet", "--out", a]) == 0
        assert cli.run(["gram", "--quiet", "--out", b]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_config_precision_bits_reaches_the_staircase(self, monkeypatch, capsys, tmp_path):
        # config precision_bits runs the staircase at that precision, the
        # same artifact as the flag gives
        seen = []
        backend = arith.backend
        monkeypatch.setattr(arith, "backend", lambda bits: seen.append(bits) or backend(bits))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision_bits": 256}))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        argv = ["control", "--N", "4", "--staircase", "--quiet", "--out"]
        assert cli.run(["--config", str(cfg)] + argv + [a]) == cli.EXIT_OK
        assert seen == [256]
        assert cli.run(argv + [b, "--precision-bits", "256"]) == cli.EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("doc, argv, message", [
        ({"gamma": 0.3}, ["bounds", "--variant", "open"], "bounds --variant open takes no --gamma"),
        ({"n": 2}, ["tails", "--k", "3", "--a", "5"],
         "tails --k --a bounds one Hermite tail; it takes no --n"),
    ])
    def test_config_value_the_mode_never_reads_is_refused(self, doc, argv, message, capsys,
                                                          tmp_path):
        # a config value is refused where a flag would be; the mode that reads
        # it takes the same file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.run(["--config", str(cfg)] + argv + ["--quiet"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: %s\n" % message
        assert cli.run(["--config", str(cfg), argv[0], "--quiet"]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", ["bounds", "scaling"])
    def test_config_values_take_the_flags_choices(self, command, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "bogus"}))
        assert cli.run(["--config", str(cfg), command, "--N", "4", "--quiet"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: config field 'variant' must be one of open, density, thick\n"
        cfg.write_text(json.dumps({"variant": "density"}))
        assert cli.run(["--config", str(cfg), command, "--N", "4", "--quiet"]) == cli.EXIT_OK

    def test_empty_config_plus_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert cli.run(["--config", str(cfg), "basis", "--n", "2", "--N", "3",
                        "--quiet"]) == cli.EXIT_OK

    def test_out_of_range_gamma_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 1.5}))
        assert cli.run(["--config", str(cfg), "basis", "--n", "1", "--N", "4",
                        "--quiet"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("doc, command, message", [
        ({"x0": 0.5}, "bounds", "unknown config field 'x0'"),  # a flag, not a config key
        ({"gamma": 0}, "bounds", "config field 'gamma' out of range (0, 1]"),
        ({"region": "periodic:L=1,gamma=2"}, "gram", "config region gamma out of range (0, 1]"),
        ({"n": 0}, "basis", "config field 'n' must be >= 1"),
        ([1, 2], "basis", "config root must be an object"),
        ({"n": "two"}, "basis", "config field 'n' has invalid value 'two'"),
        ({"seed": 1.5}, "basis", "config field 'seed' has invalid value 1.5"),
        ({"n": True}, "basis", "config field 'n' has invalid value True"),
        ({"gamma": True}, "bounds", "config field 'gamma' has invalid value True"),
        ({"seed": math.inf}, "basis", "config field 'seed' has invalid value inf"),
        ({"gamma": math.nan}, "bounds", "config field 'gamma' has invalid value nan"),
        ({"seed": -1}, "verify", "seed must be a non-negative integer, not -1"),
        ({"T": "inf"}, "observability", "malformed number list 'inf'"),
    ])
    def test_config_refusals_are_usage_errors(self, doc, command, message, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.run(["--config", str(cfg), command, "--quiet"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_integral_config_values_convert(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        artifacts = []
        for value in (2, 2.0, "2"):
            cfg.write_text(json.dumps({"seed": value, "n": value}))
            out = tmp_path / ("b%d" % len(artifacts))
            assert cli.run(["--config", str(cfg), "basis", "--quiet", "--out", str(out)]) == 0
            artifacts.append(out.with_suffix(".json").read_bytes())
        assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]
        doc = json.loads(artifacts[0])
        assert doc["result"]["n"] == doc["provenance"]["seed"] == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--gamma", "0"],
        ["gram", "--region", "periodic:L=1,gamma=2"],
        ["basis", "--n", "0"],
    ])
    def test_the_same_values_as_flags_are_contract_violations(self, argv, capsys):
        assert cli.run(argv + ["--quiet"]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err.startswith("contract violation: ")

    def test_precision_above_the_ceiling_is_refused(self, capsys, monkeypatch, tmp_path):
        # a flag value is a contract violation, a config value an error when
        # the file is read, whatever the subcommand
        monkeypatch.setattr(arith, "MAX_BITS", 256)
        argv = ["control", "--N", "2", "--T", "1", "--quiet"]
        assert cli.run(argv + ["--precision-bits", "512"]) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            "contract violation: precision_bits 512 is above arith.MAX_BITS = 256\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision_bits": 512}))
        assert cli.run(["--config", str(cfg), "basis", "--quiet"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: config field 'precision_bits' above arith.MAX_BITS = 256\n")
        assert cli.run(argv + ["--precision-bits", "256"]) == cli.EXIT_OK

    @pytest.mark.parametrize("bits", [0, -7, 10, 52])
    def test_precision_below_double_is_refused(self, bits, capsys, tmp_path):
        # as the ceiling: a config value is an error when the file is read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"precision_bits": bits}))
        assert cli.run(["--config", str(cfg), "basis", "--quiet"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: config field 'precision_bits' below 53, double precision\n")
        argv = ["control", "--N", "2", "--T", "1", "--quiet", "--precision-bits", str(bits)]
        assert cli.run(argv) == cli.EXIT_CONTRACT
        assert capsys.readouterr().err == (
            "contract violation: precision_bits %d is below 53, double precision\n" % bits)

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = cli.run(["--config", str(cfg), "basis", "--quiet"])
        assert code == cli.EXIT_USAGE
        assert "line" in capsys.readouterr().err


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch, tmp_path):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(cli, "_PARSER", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "3"}))
        assert cli.run(["basis", "--quiet"]) == cli.EXIT_OK
        assert cli.run(["--config", str(cfg), "basis", "--quiet"]) == cli.EXIT_OK
        assert cli.run(["basis", "--bogus"]) == cli.EXIT_USAGE
        assert cli.run(["gram", "--N", "2", "--quiet"]) == cli.EXIT_OK
        assert builds == [1]

    def test_one_parse_per_run(self, capsys, monkeypatch, tmp_path):
        # the parse holds the flags given; the config and the defaults fill
        # the rest without parsing again
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        parses = []
        parse = cli._PARSER.parse_args
        monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: parses.append(1) or parse(argv))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "3", "seed": 2, "suite": "est_tails"}))
        assert cli.run(["basis", "--quiet"]) == cli.EXIT_OK
        assert len(parses) == 1
        assert cli.run(["--config", str(cfg), "basis", "--n", "2", "--quiet"]) == cli.EXIT_OK
        assert len(parses) == 2
        assert cli.run(["--config", str(cfg), "verify", "--trials", "1", "--quiet"]) == 0
        assert len(parses) == 3

    @pytest.mark.parametrize("argv, doc, config_argv, code, warns", [
        # fills trials and seed; the seed flag overrides its config value
        (["verify", "--suite", "est_tails"], {"trials": 2, "seed": 3},
         ["verify", "--suite", "est_tails", "--seed", "5"], cli.EXIT_OK, True),
        # refused by the choices check before anything is filled
        (["bounds", "--N", "4"], {"variant": "bogus", "gamma": 0.9},
         ["bounds", "--N", "4"], cli.EXIT_USAGE, False),
        # fills trials and suite, then the suite is refused
        (["verify", "--suite", "est_tails"], {"trials": 2, "suite": "bogus"},
         ["verify"], cli.EXIT_USAGE, False),
        # a usage error in the parse
        (["verify", "--suite", "est_tails"], {"trials": 2, "seed": 3},
         ["verify", "--bogus"], cli.EXIT_USAGE, False),
    ])
    def test_no_state_outlives_a_run(self, argv, doc, config_argv, code, warns, capsys,
                                     monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_PARSER", None)  # a fresh parser, whatever ran before
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.run(argv + ["--quiet", "--out", a]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert cli.run(["--config", str(cfg)] + config_argv + ["--quiet"]) == code
        assert ("overridden by flag" in capsys.readouterr().err) == warns
        assert cli.run(argv + ["--quiet", "--out", b]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestOutputs:
    def test_constant_matches_library(self, capsys, tmp_path):
        out = str(tmp_path / "c")
        code = cli.run(["constant", "--region", "halfline", "--n", "1",
                        "--N", "8", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "c.json").read_text())
        region = rg.half_line()
        res = spectral_constant(gram_matrix(region, 8))
        assert doc["result"]["C_N"] == pytest.approx(res.c_value, rel=1e-12)
        assert doc["result"]["lambda_min"] == pytest.approx(res.lam_min, rel=1e-12)

    def test_scaling_csv_schema(self, capsys, tmp_path):
        out = str(tmp_path / "s")
        code = cli.run(["scaling", "--region", "periodic:L=1,gamma=0.5",
                        "--n", "1", "--N", "4:12:4", "--variant", "thick",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "N,dim,C_measured,lambda_min,bound,bound_variant,precision_bits"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "4"

    def test_region_is_recorded_by_digest(self, capsys, tmp_path):
        out = str(tmp_path / "s")
        code = cli.run(["scaling", "--region", "periodic:L=1,gamma=0.5", "--n", "2",
                        "--N", "2:4:2", "--variant", "thick", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        region = json.loads((tmp_path / "s.json").read_text())["result"]["region"]
        built = cli.parse_region("periodic:L=1,gamma=0.5", 2, 4)
        assert "boxes" not in region
        assert region["box_count"] == built.box_count > 1
        assert region["measure"] == built.measure()
        assert region["sha256"] == built.to_json_dict()["sha256"]

    def test_density_scaling_in_three_dimensions(self, capsys, tmp_path):
        out = str(tmp_path / "d")
        code = cli.run(["scaling", "--region", "periodic:L=1,gamma=0.5", "--n", "3",
                        "--N", "2", "--variant", "density", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        result = json.loads((tmp_path / "d.json").read_text())["result"]
        assert result["bound_variant"] == "density"
        assert [row["N"] for row in result["rows"]] == [2]

    def test_plot_data_companion(self, capsys, tmp_path):
        out = str(tmp_path / "s")
        cli.run(["scaling", "--region", "periodic:L=1,gamma=0.5", "--n", "1",
                 "--N", "4:12:4", "--quiet", "--out", out, "--plot-data"])
        data = (tmp_path / "s_logC_vs_sqrtN.dat").read_text().splitlines()
        assert len(data) == 3
        x0 = float(data[0].split()[0])
        assert x0 == pytest.approx(math.sqrt(4.0))

    def test_verify_deterministic_bytes(self, capsys, tmp_path):
        argv = ["verify", "--suite", "basis_ladder,est_chebyshev", "--seed", "7",
                "--quiet"]
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        assert cli.run(argv + ["--out", a]) == cli.EXIT_OK
        assert cli.run(argv + ["--out", b]) == cli.EXIT_OK
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_symbol_subcommand(self, capsys, tmp_path):
        out = str(tmp_path / "k")
        assert cli.run(["symbol", "--symbol", "kfp:a=1", "--quiet", "--out", out]) == 0
        doc = json.loads((tmp_path / "k.json").read_text())
        assert doc["result"]["k0"] == 1
        assert doc["result"]["singular_space_trivial"] is True

    def test_observability_closed_form(self, capsys, tmp_path):
        from oracles import harmonic_full_space_ct

        out = str(tmp_path / "o")
        code = cli.run(["observability", "--symbol", "harmonic", "--region", "full",
                        "--N", "6", "--T", "1.0", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "o.json").read_text())
        want = harmonic_full_space_ct(1, 6, 1.0)
        assert doc["result"]["C_T"] == pytest.approx(want, rel=1e-5)

    def test_control_subcommand(self, capsys, tmp_path):
        out = str(tmp_path / "ctl")
        code = cli.run(["control", "--symbol", "harmonic",
                        "--region", "periodic:L=1,gamma=0.6", "--N", "10",
                        "--T", "1", "--f0", "random", "--seed", "5",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "ctl.json").read_text())
        assert doc["result"]["residual"] <= 1e-6
        assert doc["result"]["subintervals"] == 32 and doc["result"]["taylor_degree"] == 0

    def test_staircase_stage_csv(self, capsys, tmp_path):
        out = str(tmp_path / "st")
        code = cli.run(["control", "--symbol", "harmonic",
                        "--region", "periodic:L=1,gamma=0.6", "--N", "10",
                        "--T", "1", "--f0", "random", "--seed", "5", "--staircase",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        lines = (tmp_path / "st.csv").read_text().splitlines()
        assert lines[0] == "stage,k_j,stage_cost,energy_after"
        assert len(lines) >= 2

    def test_bounds_subcommand_validity_column(self, capsys, tmp_path):
        out = str(tmp_path / "bd")
        code = cli.run(["bounds", "--variant", "open", "--n", "1", "--N", "0,8,20",
                        "--x0", "4.0", "--r", "0.5", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "bd.json").read_text())
        rows = {r["N"]: r for r in doc["result"]["rows"]}
        assert rows[0]["log_bound"] == "nan"  # below the validity threshold
        assert isinstance(rows[20]["log_bound"], float)

    def test_precision_floor_exit_code(self, capsys, monkeypatch):
        # lambda_min far below a capped mantissa must exit 3, not fail
        monkeypatch.setattr(arith, "MAX_BITS", 256)
        code = cli.run(["constant", "--region", "ball:r=1", "--n", "1",
                        "--N", "48", "--quiet"])
        assert code == cli.EXIT_PRECISION

    def test_explicit_precision_forces_mp_pipeline(self, capsys, tmp_path):
        out = str(tmp_path / "o")
        code = cli.run(["observability", "--symbol", "harmonic", "--region", "full",
                        "--N", "4", "--T", "1.0", "--precision-bits", "256",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["result"]["precision_bits"] >= 256
        # the artifact records the Gramian's step count and Taylor degree, 0
        # for the harmonic generator's closed forms
        from hermite_obs import control as ct, quadratic as qd

        A = qd.weyl_quantize(qd.harmonic_symbol(1), 4)
        P = gram_matrix(cli.parse_region("full", 1, 4), 4).matrix
        rep = ct.observability_constant(ct.ControlProblem(A, P), 1.0, 256)
        assert doc["result"]["subintervals"] == rep.subintervals == 16
        assert doc["result"]["taylor_degree"] == rep.taylor_degree == 0

    def test_explicit_precision_reaches_every_horizon(self, capsys, tmp_path):
        out = str(tmp_path / "o")
        code = cli.run(["observability", "--symbol", "harmonic", "--region", "full",
                        "--N", "4", "--T", "1,0.5,0.25", "--precision-bits", "256",
                        "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        rows = json.loads((tmp_path / "o.json").read_text())["result"]["rows"]
        assert len(rows) == 3
        assert all(r["precision_bits"] >= 256 for r in rows)
        assert [r["subintervals"] for r in rows] == [16, 8, 4]
        assert all(r["taylor_degree"] == 0 for r in rows)

    def test_constant_starts_at_the_requested_precision(self, capsys, tmp_path):
        # 512 bits run no double attempt, whose floor error on log C_N is 7.6e-9
        logs = []
        for bits in ("512", "1024"):
            out = str(tmp_path / bits)
            assert cli.run(["constant", "--region", "halfline", "--N", "8", "--precision-bits",
                            bits, "--quiet", "--out", out]) == cli.EXIT_OK
            res = json.loads((tmp_path / (bits + ".json")).read_text())["result"]
            assert res["precision_bits"] == int(bits) and res["flag"] == "ok"
            logs.append(res["log_C_N"])
        assert logs[0] == pytest.approx(logs[1], abs=1e-12)

    def test_constant_escalation_ends_at_the_ceiling(self, capsys, tmp_path):
        # 300, 600, 1200, 2400, then arith.MAX_BITS, not 4,800; the empty
        # interval is exact, so its floor is 0 and C_N reads inf
        out = str(tmp_path / "z")
        assert cli.run(["constant", "--region", "interval:a=0,b=0", "--N", "2",
                        "--precision-bits", "300", "--quiet", "--out", out]) == cli.EXIT_PRECISION
        res = json.loads((tmp_path / "z.json").read_text())["result"]
        assert res["precision_bits"] == arith.MAX_BITS and res["flag"] == "singular_floor"
        assert (res["C_N"], res["log_C_N"], res["lambda_min"], res["lambda_min_log"]) == (
            "inf", "inf", 0.0, "-inf")

    @pytest.mark.parametrize("region, N, bits", [("interval:a=0,b=0.2", 24, 512),
                                                 ("interval:a=0,b=1", 100, 1024)])
    def test_bounded_interval_resolves_with_no_tail(self, region, N, bits, capsys, tmp_path):
        # nothing of a bounded interval is neglected, so no truncation tail
        # holds its floor above lambda_min: it resolves, and agrees with a run
        # at twice the bits
        got = []
        for start in (53, 2 * bits):
            out = str(tmp_path / str(start))
            assert cli.run(["constant", "--region", region, "--N", str(N), "--precision-bits",
                            str(start), "--quiet", "--out", out]) == cli.EXIT_OK
            got.append(json.loads((tmp_path / (str(start) + ".json")).read_text())["result"])
        assert [(r["precision_bits"], r["flag"]) for r in got] == [(bits, "ok"), (2 * bits, "ok")]
        assert got[0]["lambda_min"] == pytest.approx(got[1]["lambda_min"], rel=1e-15)

    def test_evolve_ground_state(self, capsys, tmp_path):
        out = str(tmp_path / "e")
        code = cli.run(["evolve", "--symbol", "harmonic", "--N", "6",
                        "--t", "0.5", "--f0", "ground", "--quiet", "--out", out])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["result"]["final_norm"] == pytest.approx(math.exp(-0.5), rel=1e-10)
