"""Shared fixtures and independent high-precision oracles.

The mpmath oracles use the erfc route so they keep full relative precision
arbitrarily deep in the tails, independently of the scipy implementations
used inside the package.  read_csv reads back the CSVs the package writes;
traced_peak measures the memory a call allocates.
"""

import csv
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

mp.mp.dps = 40


def mp_cdf(z):
    return mp.erfc(-mp.mpf(z) / mp.sqrt(2)) / 2


def mp_sf(z):
    return mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2


def mp_pdf(z):
    z = mp.mpf(z)
    return mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)


def mp_quantile(p):
    """Root of Phi(z) = p, solved in log space so tails stay well conditioned."""
    p = mp.mpf(p)
    if p <= 0 or p >= 1:
        raise ValueError("interior p required")
    if p > mp.mpf("0.5"):
        return -mp_quantile(1 - p)
    guess = -mp.sqrt(-2 * mp.log(p)) if p < mp.mpf("0.4") else mp.mpf(0)
    return mp.findroot(lambda z: mp.log(mp_cdf(z)) - mp.log(p), guess)


def mp_wang(alpha, p):
    return mp_cdf(mp_quantile(p) + mp.mpf(alpha))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def mp_phi(d, p):
    """phi(p) of a time-invariant distortion, from its dict form, at 40 digits."""
    spec = d.to_dict()
    family = spec["family"]
    p = mp.mpf(p)
    q = 1 - p
    if family == "identity":
        return p
    if family == "power":
        return p ** mp.mpf(spec["gamma"])
    if family == "kahneman_tversky":
        g = mp.mpf(spec["gamma"])
        return p**g / (p**g + q**g) ** (1 / g)
    if family == "tversky_fox":
        a, g = mp.mpf(spec["alpha"]), mp.mpf(spec["gamma"])
        return a * p**g / (a * p**g + q**g)
    if family == "prelec":
        return mp.exp(-mp.mpf(spec["gamma"]) * (-mp.log(p)) ** mp.mpf(spec["alpha"]))
    if family == "wang":
        return mp_wang(spec["alpha"], p)
    raise ValueError(f"no oracle for family {family!r}")


def read_csv(path):
    """Read a numeric CSV written by report.write_csv: returns (header, columns)."""
    with open(path, encoding="utf-8", newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        rows = [[float(v) for v in row] for row in r if row]
    if not rows:
        return header, [np.array([]) for _ in header]
    arr = np.asarray(rows, dtype=float)
    return header, [arr[:, k] for k in range(arr.shape[1])]


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes traced by tracemalloc while fn ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
