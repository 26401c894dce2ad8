"""Canonical JSON and CSV round-trips."""

import math

import numpy as np
import pytest

from distort.errors import ConfigError
from distort.report import canonical_json, write_csv

from conftest import read_csv


def test_canonical_json_sorts_keys_and_is_stable():
    a = canonical_json({"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}})
    b = canonical_json({"c": {"x": None, "y": True}, "a": [1.5, 2], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')


def test_canonical_json_float_text_is_shortest_roundtrip():
    text = canonical_json({"v": 0.1, "w": 1.0 / 3.0})
    assert "0.10000000000000001" in text
    assert float(text.split('"w":')[1].rstrip("}")) == 1.0 / 3.0


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ConfigError):
        canonical_json({"v": math.nan})
    with pytest.raises(ConfigError):
        canonical_json({"v": math.inf})


def test_canonical_json_handles_numpy_scalars():
    text = canonical_json({"v": np.float64(0.25), "n": np.int64(3)})
    assert '"v":0.25' in text.replace(" ", "")
    assert '"n":3' in text.replace(" ", "")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    x = np.linspace(-1.0, 1.0, 7)
    y = np.exp(x)
    write_csv(path, ["x", "y"], [x, y])
    header, cols = read_csv(path)
    assert header == ["x", "y"]
    assert np.array_equal(cols[0], x)
    assert np.array_equal(cols[1], y)


def test_csv_lines_end_with_newline_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a"], [np.array([1.0, 2.0])])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_shape_errors(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ConfigError):
        write_csv(path, ["a", "b"], [np.array([1.0])])
    with pytest.raises(ConfigError):
        write_csv(path, ["a", "b"], [np.array([1.0]), np.array([1.0, 2.0])])
