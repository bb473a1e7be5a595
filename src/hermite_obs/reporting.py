"""Deterministic emission of CSV/JSON result artifacts.

Identical (config, seed) pairs must produce byte-identical files: floats are
formatted to 17 significant digits, CSV columns keep a fixed order with LF
line endings, JSON keys are sorted, and provenance carries only stable fields
(version, config hash, auxiliary-constant defaults, seed) -- never wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from . import __version__


class EmitError(OSError):
    """Raised when an output artifact cannot be written."""


def fmt_float(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def sanitize(obj):
    """Make an object JSON-serializable with deterministic float text."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else fmt_float(obj)
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            return sanitize(obj.item())
        except (AttributeError, ValueError):
            pass
    return obj


def config_hash(config):
    canon = json.dumps(sanitize(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def provenance(config, seed, defaults):
    return {
        "version": __version__,
        "config_hash": config_hash(config),
        "seed": seed,
        "defaults": defaults,
    }


def _open_out(path, mkdirs):
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        if mkdirs:
            os.makedirs(directory, exist_ok=True)
        else:
            raise EmitError("output directory does not exist: %s" % directory)
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise EmitError(str(exc)) from exc


def write_csv(path, header, rows, mkdirs=False):
    with _open_out(path, mkdirs) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) for v in row) + "\n")


def write_json(path, obj, mkdirs=False):
    with _open_out(path, mkdirs) as fh:
        fh.write(json.dumps(sanitize(obj), sort_keys=True, indent=2))
        fh.write("\n")


def write_xy_series(path, xs, ys, mkdirs=False):
    """Companion plot-data file: one 'x y' pair per line."""
    with _open_out(path, mkdirs) as fh:
        for x, y in zip(xs, ys):
            fh.write("%s %s\n" % (fmt_float(float(x)), fmt_float(float(y))))
