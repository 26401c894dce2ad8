"""Deterministic serialization for run reports and model files.

Reports must be byte-identical across runs with the same inputs, so floats
are rendered with a fixed repr ("%.17g", which round-trips doubles), keys
are emitted sorted, and non-finite values are rejected outright rather than
silently becoming NaN tokens that other tools cannot parse.  Config and
model files are read back by read_json, whose errors name the file.
"""

import csv
import io
import json
import math

import numpy as np

from .errors import ConfigError


def _render(obj, out):
    if obj is None:
        out.write("null")
    elif obj is True:
        out.write("true")
    elif obj is False:
        out.write("false")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ConfigError("canonical_json: non-finite float in report")
        if x == int(x) and abs(x) < 1e16:
            out.write(f"{x:.1f}")
        else:
            out.write(f"{x:.17g}")
    elif isinstance(obj, str):
        out.write(
            '"'
            + obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
            + '"'
        )
    elif isinstance(obj, dict):
        out.write("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ConfigError("canonical_json: dict keys must be strings")
            if k:
                out.write(",")
            _render(key, out)
            out.write(":")
            _render(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.write("[")
        for k, item in enumerate(seq):
            if k:
                out.write(",")
            _render(item, out)
        out.write("]")
    else:
        raise ConfigError(f"canonical_json: unsupported type {type(obj).__name__}")


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, %.17g floats, no NaN/inf."""
    out = io.StringIO()
    _render(obj, out)
    return out.getvalue()


def write_csv(path, header, columns):
    """Write columns (equal-length 1-D arrays) under ``header`` names."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header):
        raise ConfigError("write_csv: header and column count differ")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ConfigError("write_csv: columns have unequal lengths")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in zip(*cols):
            w.writerow([f"{v:.17g}" for v in row])


def read_json(path, what):
    """Parse the JSON file at path; ConfigError names it as ``what`` and gives
    the line and column of a parse error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} {path} is not valid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
