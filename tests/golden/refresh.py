"""Golden artifacts of the hermite-obs command line: the command list, the
runner that replays one entry, and the field-by-field diff.

    python tests/golden/refresh.py            # rewrite manifest.json
    python tests/golden/refresh.py --check    # replay it; exit 1 on a change

Every entry runs through ``hermite_obs.cli.run`` in this one interpreter,
one BLAS thread (OpenBLAS rounds some double products differently with
more), in a fresh temporary directory, with stdout and stderr captured and
argparse's line width fixed at 80 columns.  In an entry's argv, ``{out}`` is the
artifact stem and ``{tmp}`` the directory; ``{cfg}`` is the config file,
written from the entry's ``config`` text.  The manifest records the exit
code, the SHA-256 of stdout and of every file the stem got (JSON, CSV, plot
data), stderr with the directory written as ``{tmp}``, and the JSON
artifact's ``result``, from which a mismatch is reported field by field.
The digests pin this host's numpy and LAPACK; the field diff is the
portable part.  ``tests/test_golden.py`` runs the check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().with_name("manifest.json")

HUM = "control --symbol harmonic --region periodic:L=1,gamma=0.6"
OBS = "observability --symbol harmonic --region periodic:L=1,gamma=0.2"
KFP = "--symbol kfp:a=1 --region periodic:L=1,gamma=0.2"

# (name, command line after ``hermite-obs``, config text or None)
ENTRIES = [
    # the README's command lines
    ("readme-constant", "constant --region halfline --n 1 --N 8 --out {out}", None),
    ("readme-scaling", "scaling --region periodic:L=1,gamma=0.5 --n 1 --N 4:64:4 --variant thick"
     " --out {tmp}/runs/thick --plot-data --mkdirs", None),
    ("readme-bounds", "bounds --variant density --n 1 --N 4:32:4 --delta 0.5 --out {out}", None),
    ("readme-symbol", "symbol --symbol kfp:a=1 --out {out}", None),
    ("readme-observability", OBS + " --N 16 --T 1,0.5,0.25,0.125 --out {out}", None),
    ("readme-control", HUM + " --N 20 --T 1 --out {out}", None),
    ("readme-verify", "verify --suite all --seed 7 --out {out}", None),
    # the spectral, control and verify workloads at seed 1
    ("spectral-scaling-periodic-2d", "scaling --region periodic:L=1,gamma=0.5 --n 2 --N 4:6:2"
     " --variant thick --seed 1 --out {out}", None),
    ("spectral-scaling-periodic-1d", "scaling --region periodic:L=1,gamma=0.5 --n 1 --N 4:32:4"
     " --variant thick --seed 1 --out {out}", None),
    ("spectral-scaling-halfline", "scaling --region halfline --n 1 --N 8:32:8 --variant density"
     " --seed 1 --out {out}", None),
    ("spectral-constant-ball", "constant --region ball:r=1 --n 1 --N 48 --seed 1 --out {out}", None),
    ("control-observability-kfp", "observability " + KFP + " --N 6 --T 1,0.5,0.25,0.125"
     " --seed 1 --out {out}", None),
    ("control-observability-harmonic", OBS + " --N 16 --T 1,0.5,0.25,0.125 --seed 1 --out {out}",
     None),
    ("control-hum-256bit", HUM + " --N 7 --T 1 --precision-bits 256 --seed 1 --out {out}", None),
    ("control-hum-double", HUM + " --N 20 --T 1 --seed 1 --out {out}", None),
    ("control-staircase", HUM + " --N 24 --T 1 --staircase --seed 1 --out {out}", None),
    ("control-observability-full", "observability --symbol harmonic --region full --N 16 --T 1"
     " --seed 1 --out {out}", None),
    ("verify-all-seed0", "verify --suite all --trials 5 --seed 0 --out {out}", None),
    ("verify-all-seed1", "verify --suite all --trials 5 --seed 1 --out {out}", None),
    ("verify-all-seed2", "verify --suite all --trials 5 --seed 2 --out {out}", None),
    ("verify-all-seed3", "verify --suite all --trials 5 --seed 3 --out {out}", None),
    # fixed-point control lines of the last byte-identity sweep
    ("fx-harm7-256-s2", HUM + " --N 7 --T 1 --precision-bits 256 --seed 2 --out {out}", None),
    ("fx-harm7-512", HUM + " --N 7 --T 1 --precision-bits 512 --seed 1 --out {out}", None),
    ("fx-kfp4-512", "control " + KFP + " --N 4 --T 0.25 --precision-bits 512 --seed 3"
     " --out {out}", None),
    ("fx-ball16-256", "control --symbol harmonic --region ball:r=1 --N 16 --T 1 --precision-bits 256"
     " --seed 1 --out {out}", None),
    ("fx-halfline8-256", "control --symbol harmonic --region halfline --N 8 --T 0.5"
     " --precision-bits 256 --seed 4 --out {out}", None),
    ("fx-zero-256", "control --symbol harmonic --region interval:a=0,b=0 --N 4 --T 1"
     " --precision-bits 256 --seed 1 --out {out}", None),
    ("fx-singular-256", "control --symbol harmonic --region interval:a=0,b=1e-20 --N 4 --T 1"
     " --precision-bits 256 --seed 1 --out {out}", None),
    ("fx-obs-ball24", "observability --symbol harmonic --region ball:r=1 --N 24 --T 0.5 --out {out}",
     None),
    ("fx-obs-harm8-512", OBS + " --N 8 --T 1 --precision-bits 512 --out {out}", None),
    ("fx-obs-halfline12-256", "observability --symbol harmonic --region halfline --N 12 --T 0.5"
     " --precision-bits 256 --out {out}", None),
    # horizon studies: one dyadic step in fixed point, mixed precisions, three steps
    ("fx-obs-kfp4-list-256", "observability " + KFP + " --N 4 --T 1,0.5,0.25,0.125"
     " --precision-bits 256 --out {out}", None),
    ("obs-ball16-mixed-bits", "observability --symbol harmonic --region ball:r=1 --N 16"
     " --T 2,1,0.5,0.25 --out {out}", None),
    ("obs-kfp6-nondyadic", "observability " + KFP + " --N 6 --T 1,0.3,0.1 --out {out}", None),
    ("fx-staircase-ball12-256", "control --symbol harmonic --region ball:r=1 --T 0.5 --N 12"
     " --staircase --precision-bits 256 --seed 1 --out {out}", None),
    ("fx-constant-halfline8-512", "constant --region halfline --N 8 --precision-bits 512"
     " --out {out}", None),
    ("fx-constant-halfspace14-2d", "constant --region halfspace:axis=0,c=1 --n 2 --N 14"
     " --out {out}", None),
    ("fx-constant-periodic8-2d-256", "constant --region periodic:L=1,gamma=0.5 --n 2 --N 8"
     " --precision-bits 256 --out {out}", None),
    # the other subcommands
    ("basis", "basis --n 2 --N 3 --out {out}", None),
    ("gram", "gram --region halfline --n 1 --N 4 --out {out}", None),
    ("gram-2d", "gram --region periodic:L=1,gamma=0.5 --n 2 --N 2 --out {out}", None),
    ("gram-interval-far", "gram --region interval:a=-1e200,b=1e200 --N 2 --out {out}", None),
    ("scaling-open", "scaling --region interval:a=1,b=3 --N 8:16:8 --variant open --out {out}",
     None),
    ("scaling-density-2d", "scaling --region periodic:L=1,gamma=0.5 --n 2 --N 2 --variant density"
     " --out {out}", None),
    ("scaling-density-3d", "scaling --region full --n 3 --N 2:4:2 --variant density --out {out}",
     None),
    ("scaling-thick-3d", "scaling --region periodic:L=1,gamma=0.5 --n 3 --N 2:4:2 --variant thick"
     " --out {out}", None),
    ("bounds-default", "bounds --out {out}", None),
    ("bounds-open", "bounds --variant open --n 1 --N 0,8,20 --x0 4.0 --r 0.5 --out {out}", None),
    ("bounds-thick", "bounds --variant thick --N 4:8:4 --L 2 --gamma 0.3 --out {out}", None),
    ("remez", "remez --n 1 --d 4 --t 0.5 --rho 0.5 --out {out}", None),
    ("remez-complex", "remez --n 1 --d 4 --t 0.5 --complex-poly --out {out}", None),
    ("remez-d-only", "remez --d 3 --out {out}", None),
    ("remez-small-t-3d", "remez --n 3 --d 3 --t 1e-14 --out {out}", None),
    ("remez-t-below-eps", "remez --d 3 --t 1e-17 --out {out}", None),
    ("remez-rho-below-eps", "remez --d 3 --rho 1e-17 --out {out}", None),
    ("bounds-density-below-eps", "bounds --variant density --delta 1e-17 --N 4 --out {out}", None),
    ("remez-past-double-range", "remez --d 2000 --t 0.1 --out {out}", None),
    ("remez-complex-past-double-range", "remez --d 2000 --t 0.1 --complex-poly --out {out}", None),
    ("remez-ball-past-double-range", "remez --d 200 --rho 0.01 --out {out}", None),
    ("bounds-thick-n99", "bounds --variant thick --n 99 --N 4 --out {out}", None),
    ("bounds-thick-n255", "bounds --variant thick --n 255 --N 4 --out {out}", None),
    ("bounds-thick-n256", "bounds --variant thick --n 256 --N 4 --out {out}", None),
    ("bounds-thick-n1000", "bounds --variant thick --n 1000 --N 4 --out {out}", None),
    ("bounds-thick-N0-L-huge", "bounds --variant thick --n 1 --N 0 --L 1e307 --out {out}", None),
    ("bounds-thick-delta-underflow", "bounds --variant thick --n 1 --N 4 --L 1e160 --out {out}",
     None),
    ("bounds-thick-L-tiny", "bounds --variant thick --n 1 --N 4 --L 1e-300 --out {out}", None),
    ("bounds-open-far", "bounds --variant open --n 1000 --N 100000 --r 1e-300 --out {out}", None),
    ("bounds-density-far", "bounds --variant density --n 1000 --N 100000 --delta 1e-300"
     " --R0 1e-300 --out {out}", None),
    ("remez-far", "remez --n 1000 --d 100000 --t 0.999 --out {out}", None),
    ("tails-n1000", "tails --n 1000 --out {out}", None),
    ("tails-default", "tails --out {out}", None),
    ("tails-n2", "tails --n 2 --out {out}", None),
    ("tails-k-a", "tails --k 3 --a 5 --out {out}", None),
    ("tails-far", "tails --k 0 --a 1e300 --out {out}", None),
    ("symbol-harmonic2", "symbol --symbol harmonic:n=2 --out {out}", None),
    ("symbol-kfp-a0", "symbol --symbol kfp:a=0 --out {out}", None),
    ("quantize-kfp", "quantize --symbol kfp:a=1 --N 2 --out {out}", None),
    ("quantize-default", "quantize --out {out}", None),
    ("evolve-ground", "evolve --symbol harmonic --N 6 --t 0.5 --f0 ground --out {out}", None),
    ("evolve-kfp", "evolve --symbol kfp:a=1 --N 8 --t 0.5 --seed 1 --out {out}", None),
    ("observability-one-256", "observability --symbol harmonic --region full --N 4 --T 1.0"
     " --precision-bits 256 --out {out}", None),
    ("observability-list-256", "observability --symbol harmonic --region full --N 4 --T 1,0.5,0.25"
     " --precision-bits 256 --out {out}", None),
    ("control-seed5", HUM + " --N 10 --T 1 --f0 random --seed 5 --out {out}", None),
    ("staircase-seed5", HUM + " --N 10 --T 1 --f0 random --seed 5 --staircase --out {out}", None),
    ("staircase-target", HUM + " --N 10 --T 1 --staircase --target 1e-3 --out {out}", None),
    ("verify-two-suites", "verify --suite basis_ladder,est_chebyshev --seed 7 --out {out}", None),
    ("quiet", "basis --n 1 --N 4 --quiet --out {out}", None),
    ("mkdirs", "basis --n 1 --N 4 --out {tmp}/made/here/x --mkdirs", None),
    # flagged results (exit 3)
    ("flagged-hum-ball24", "control --symbol harmonic --region ball:r=1 --T 0.5 --N 24 --out {out}",
     None),
    ("flagged-staircase-ball12", "control --symbol harmonic --region ball:r=1 --T 0.5 --N 12"
     " --staircase --out {out}", None),
    ("flagged-staircase-target-ball24-256", "control --symbol harmonic --region ball:r=1 --T 1"
     " --N 24 --staircase --seed 1 --precision-bits 256 --out {out}", None),
    ("flagged-observability-zero", "observability --symbol harmonic --region interval:a=0,b=0"
     " --N 4 --T 1 --out {out}", None),
    ("flagged-observability-zero-list", "observability --symbol harmonic --region interval:a=0,b=0"
     " --N 4 --T 1,0.5 --out {out}", None),
    ("flagged-control-zero", "control --symbol harmonic --region interval:a=0,b=0 --N 4 --T 1"
     " --out {out}", None),
    ("flagged-constant-zero-300", "constant --region interval:a=0,b=0 --N 2 --precision-bits 300"
     " --out {out}", None),
    ("flagged-control-cost", "control --N 4 --T 1e-300 --out {out}", None),
    ("flagged-staircase-cost", "control --N 4 --T 1e-300 --staircase --out {out}", None),
    ("flagged-control-cost-256", "control --N 4 --T 1e-160 --precision-bits 256 --out {out}", None),
    # contract violations and failed verification (exit 2), output failures (exit 4)
    ("contract-gamma", "constant --region periodic:L=1,gamma=1.5 --n 1 --N 4", None),
    ("contract-density-4d", "scaling --region full --n 4 --N 0 --variant density", None),
    ("contract-open-ballcomp", "scaling --region ballcomp:r0=1 --N 4:8:4 --variant open", None),
    ("contract-open-periodic", "scaling --region periodic:L=1,gamma=0.5 --N 4:8:4 --variant open",
     None),
    ("contract-thick-halfline", "scaling --region halfline --N 4:8:4 --variant thick", None),
    ("contract-thick-ball", "scaling --region ball:r=1 --N 4:8:4 --variant thick", None),
    ("contract-bounds-gamma", "bounds --gamma 0", None),
    ("contract-gram-gamma", "gram --region periodic:L=1,gamma=2", None),
    ("contract-basis-n0", "basis --n 0", None),
    ("contract-halfline-2d", "constant --region halfline --n 2 --N 4", None),
    ("contract-f0-order", "evolve --N 4 --t 1 --f0 {cfg}",
     '{"n": 1, "N": 4, "order": "lex", "coeffs": []}'),
    ("contract-halfspace-axis-5", "gram --region halfspace:axis=5 --N 2", None),
    ("contract-halfspace-axis-neg", "gram --region halfspace:axis=-1 --n 2 --N 2", None),
    ("contract-harmonic-n0", "symbol --symbol harmonic:n=0", None),
    ("contract-harmonic-n-neg", "symbol --symbol harmonic:n=-1", None),
    ("contract-periodic-cells-2d", "gram --region periodic:L=0.001 --n 2 --N 4", None),
    ("contract-periodic-cells-5d", "gram --region periodic:L=1,gamma=0.5 --n 5 --N 4", None),
    ("contract-bits-0", "constant --N 2 --precision-bits 0", None),
    ("contract-bits-neg", "control --N 2 --precision-bits -7", None),
    ("contract-bits-10", "observability --N 2 --precision-bits 10", None),
    ("contract-staircase-target-0", "control --N 4 --staircase --target 0", None),
    ("contract-staircase-target-neg", "control --N 4 --staircase --target -1", None),
    ("contract-remez-n0", "remez --d 2 --t 0.5 --n 0", None),
    ("contract-bounds-thick-N-neg", "bounds --variant thick --N=-3", None),
    ("contract-bounds-open-N-neg", "bounds --variant open --N=-3", None),
    ("contract-bounds-density-N-neg", "bounds --variant density --N=-3", None),
    ("contract-bounds-density-N-1", "bounds --variant density --N=-1 --out {out}", None),
    ("contract-control-grid-T", "control --T 1e300 --N 4", None),
    ("contract-control-grid-kfp", "control --symbol kfp:a=1e300 --N 2", None),
    ("contract-symbol-kfp-huge", "symbol --symbol kfp:a=1e300", None),
    ("contract-observability-kfp-huge", "observability --symbol kfp:a=1e300 --N 2", None),
    ("contract-observability-kfp-chain", "observability --symbol kfp:a=1e20 --N 2", None),
    ("contract-observability-kfp-chain-far", "observability --symbol kfp:a=1e150 --N 2", None),
    ("io-missing-dir", "basis --n 1 --N 4 --out {tmp}/no/such/dir/x", None),
    # usage errors (exit 1)
    ("usage-none", "", None),
    ("usage-unknown-command", "nonsense", None),
    ("usage-bogus-flag", "basis --bogus", None),
    ("usage-region-x", "constant --region periodic:L=x", None),
    ("usage-region-a", "constant --region interval:a=1", None),
    ("usage-region-radius", "constant --region ball:radius=1", None),
    ("usage-N-x", "scaling --region halfline --N 4:x", None),
    ("usage-T-x", "observability --T 1,x", None),
    ("usage-symbol-x", "quantize --symbol kfp:a=x", None),
    ("usage-suite", "verify --suite nosuch", None),
    ("usage-f0-missing", "control --N 4 --f0 {tmp}/nonexistent", None),
    ("usage-f0-dir", "evolve --t 1 --f0 {tmp}", None),
    ("usage-N-empty", "scaling --N 8:4", None),
    ("usage-N-negative-step", "scaling --N 4:64:-4", None),
    ("usage-trials-0", "verify --suite est_tails --trials 0", None),
    ("usage-control-two-T", "control --N 4 --T 1,2", None),
    ("usage-T-nan", "observability --T nan", None),
    ("usage-control-T-inf", "control --N 4 --T inf", None),
    ("usage-evolve-t-inf", "evolve --t inf", None),
    ("usage-region-L-nan", "scaling --region periodic:L=nan", None),
    ("usage-harmonic-n-half", "symbol --symbol harmonic:n=1.5", None),
    ("usage-halfspace-axis-half", "gram --region halfspace:axis=0.5 --n 2 --N 2", None),
    ("usage-seed-negative", "control --N 4 --seed -1", None),
    ("config-seed-negative", "--config {cfg} verify", '{"seed": -1}'),
    ("usage-single-N", "constant --N 4:8", None),
    ("usage-observability-n", "observability --n 2", None),
    ("usage-control-n", "control --n 2", None),
    ("usage-gram-bits", "gram --precision-bits 256", None),
    ("usage-verify-bits", "verify --precision-bits 999", None),
    ("usage-basis-plot-data", "basis --plot-data", None),
    ("usage-bernstein", "bernstein", None),
    ("usage-staircase-bits", "control --N 4 --staircase --precision-bits 256", None),
    ("usage-hum-target", "control --N 4 --target 0.5", None),
    ("usage-tails-k", "tails --k 3", None),
    ("usage-remez-no-d", "remez --t 0.5", None),
    ("usage-variant-choice", "bounds --variant bogus", None),
    ("usage-f0-not-json", "evolve --N 4 --t 1 --f0 {cfg}", "not json"),
    ("usage-f0-no-coeffs", "evolve --N 4 --t 1 --f0 {cfg}", '{"n": 1, "N": 4, "order": "grlex"}'),
    ("usage-f0-list", "evolve --N 4 --t 1 --f0 {cfg}", "[1, 2]"),
    # help and usage text
    ("help", "--help", None),
    ("help-observability", "observability --help", None),
    ("help-control", "control --help", None),
    ("help-tails", "tails --help", None),
    # config files
    ("config-override-warns", "--config {cfg} basis --n 1 --N 6 --out {out}",
     '{"N": "12", "seed": 3}'),
    ("config-verify", "--config {cfg} verify --out {out}", '{"suite": "est_tails", "trials": 2}'),
    ("config-bounds-gamma", "--config {cfg} bounds --N 4 --out {out}", '{"gamma": 0.9}'),
    ("config-gram-ignores-bits", "--config {cfg} gram --out {out}", '{"precision_bits": 512}'),
    ("config-staircase-bits", "--config {cfg} control --N 4 --staircase", '{"precision_bits": 256}'),
    ("config-hum-bits", "--config {cfg} control --N 4 --out {out}", '{"precision_bits": 256}'),
    ("config-bounds-variant-bogus", "--config {cfg} bounds --N 4", '{"variant": "bogus"}'),
    ("config-scaling-variant-bogus", "--config {cfg} scaling --N 4", '{"variant": "bogus"}'),
    ("config-bounds-variant", "--config {cfg} bounds --N 4 --out {out}", '{"variant": "density"}'),
    ("config-scaling-variant", "--config {cfg} scaling --N 4 --out {out}", '{"variant": "density"}'),
    ("config-empty", "--config {cfg} basis --n 2 --N 3 --out {out}", "{}"),
    ("config-gamma-range", "--config {cfg} basis --n 1 --N 4", '{"gamma": 1.5}'),
    ("config-x0", "--config {cfg} bounds", '{"x0": 0.5}'),
    ("config-gamma-0", "--config {cfg} bounds", '{"gamma": 0}'),
    ("config-region-gamma", "--config {cfg} gram", '{"region": "periodic:L=1,gamma=2"}'),
    ("config-n-0", "--config {cfg} basis", '{"n": 0}'),
    ("config-root-list", "--config {cfg} basis", "[1, 2]"),
    ("config-n-two", "--config {cfg} basis", '{"n": "two"}'),
    ("config-seed-1.5", "--config {cfg} basis", '{"seed": 1.5}'),
    ("config-n-true", "--config {cfg} basis", '{"n": true}'),
    ("config-gamma-true", "--config {cfg} bounds", '{"gamma": true}'),
    ("config-seed-inf", "--config {cfg} basis", '{"seed": Infinity}'),
    ("config-int-2", "--config {cfg} basis --out {out}", '{"seed": 2, "n": 2}'),
    ("config-int-2.0", "--config {cfg} basis --out {out}", '{"seed": 2.0, "n": 2.0}'),
    ("config-int-str", "--config {cfg} basis --out {out}", '{"seed": "2", "n": "2"}'),
    ("config-malformed", "--config {cfg} basis", "{not json"),
    ("config-missing-file", "--config {tmp}/missing.json basis", None),
    ("config-no-command", "--config {cfg}", '{"n": 2}'),
    ("config-N", "--config {cfg} basis --out {out}", '{"N": "3"}'),
    ("config-verify-seed-flag", "--config {cfg} verify --suite est_tails --seed 5 --out {out}",
     '{"trials": 2, "seed": 3}'),
    ("config-bogus-variant-gamma", "--config {cfg} bounds --N 4", '{"variant": "bogus", "gamma": 0.9}'),
    ("config-bogus-suite", "--config {cfg} verify", '{"trials": 2, "suite": "bogus"}'),
    ("config-then-bogus-flag", "--config {cfg} verify --bogus", '{"trials": 2, "seed": 3}'),
    ("config-shared", "--config {cfg} observability --N 4 --T 1 --out {out}",
     '{"region": "halfline", "symbol": "harmonic", "n": 2, "T": "0.5", "seed": 9, "trials": 3,'
     ' "suite": "est_tails", "gamma": 0.5, "variant": "open", "out": "ignored"}'),
    # refused: a flag or config value the mode never reads, --k0, and a
    # precision above arith.MAX_BITS or below 53
    ("k0-flag", OBS + " --N 8 --T 1,0.5,0.25 --k0 2 --out {out}", None),
    ("unread-tails-a", "tails --a 3 --out {out}", None),
    ("unread-tails-n-k-a", "tails --n 2 --k 3 --a 5 --out {out}", None),
    ("unread-remez-complex", "remez --d 3 --rho 0.5 --complex-poly --out {out}", None),
    ("unread-bounds-thick-delta", "bounds --variant thick --N 4 --delta 0.3 --out {out}", None),
    ("unread-bounds-open-L", "bounds --variant open --N 4 --L 2 --out {out}", None),
    ("unread-bounds-density-x0", "bounds --variant density --N 4 --x0 1 --out {out}", None),
    ("unread-config-gamma-open", "--config {cfg} bounds --variant open --N 4 --out {out}",
     '{"gamma": 0.3}'),
    ("unread-config-n-tails-k", "--config {cfg} tails --k 3 --a 5 --out {out}", '{"n": 2}'),
    ("bits-above-ceiling", "constant --region halfline --N 4 --precision-bits 5000 --out {out}",
     None),
    ("bits-below-double-config", "--config {cfg} constant --region halfline --N 4 --out {out}",
     '{"precision_bits": 10}'),
    ("bits-above-ceiling-config", "--config {cfg} constant --region halfline --N 4 --out {out}",
     '{"precision_bits": 5000}'),
]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def _columns(width):
    """argparse wraps help and usage at $COLUMNS; pin it for the run."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def run_entry(entry):
    """Run one manifest entry ({name, argv, config}); returns its record."""
    from hermite_obs import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        if entry["config"] is not None:
            Path(cfg).write_text(entry["config"])
        argv = [a.replace("{out}", out).replace("{cfg}", cfg).replace("{tmp}", tmp)
                for a in entry["argv"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with _columns(80), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.run(argv)
            except SystemExit as exc:  # --help ends in argparse's own exit
                code = exc.code
        files, result = {}, None
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file() and path.name != "cfg.json":
                files[path.relative_to(tmp).as_posix()] = _sha(path.read_bytes())
                if path.suffix == ".json":
                    result = json.loads(path.read_text())["result"]
        return {"exit": code, "stdout_sha256": _sha(stdout.getvalue().encode()),
                "stderr": stderr.getvalue().replace(tmp, "{tmp}"), "files": files,
                "result": result}


def field_changes(old, new, path="result"):
    """One line per leaf that differs, numbers with their relative change."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(set(old) | set(new))
                for line in field_changes(old.get(key), new.get(key), "%s.%s" % (path, key))]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in field_changes(a, b, "%s[%d]" % (path, i))]
    if old == new:
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers and old:
        return ["%s: %r -> %r (relative change %.3g)" % (path, old, new, abs(new - old) / abs(old))]
    return ["%s: %s -> %s" % (path, _brief(old), _brief(new))]


def _brief(value):
    if isinstance(value, (dict, list)):
        return "%s of %d" % (type(value).__name__, len(value))
    return repr(value)


def differences(want, got):
    """What moved between a manifest record and a fresh run of its entry."""
    lines = []
    for key in ("exit", "stderr", "files", "stdout_sha256"):
        if want[key] != got[key]:
            lines.append("%s: %r -> %r" % (key, want[key], got[key]))
    return lines + field_changes(want["result"], got["result"])


def check():
    """Replay the manifest; one block per entry that moved.  Returns 0 or 1."""
    moved = 0
    for want in json.loads(MANIFEST.read_text()):
        lines = differences(want, run_entry(want))
        if lines:
            moved += 1
            print("%s: hermite-obs %s" % (want["name"], shlex.join(want["argv"])))
            print("".join("  %s\n" % line for line in lines), end="")
    return 1 if moved else 0


def refresh():
    records = []
    for name, line, config in ENTRIES:
        entry = {"name": name, "argv": shlex.split(line), "config": config}
        records.append(dict(entry, **run_entry(entry)))
    MANIFEST.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print("wrote %d entries to %s" % (len(records), MANIFEST))
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy loads, which is after this
    sys.path.insert(0, str(MANIFEST.parents[2] / "src"))
    sys.exit(check() if sys.argv[1:] == ["--check"] else refresh())
