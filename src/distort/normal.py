"""Standard normal CDF, density, and quantile, with tail-stable variants.

The CDF rides on scipy's ndtr (erfc based, relative accuracy near machine
precision over the whole double range).  The quantile applies one Halley
refinement step on top of ndtri, which keeps the result within a couple of
ulps of the true quantile and makes the accuracy independent of the rational
approximation underneath.

``quantile_from_pair`` takes the probability together with its complement so
that deep-tail quantiles can be recovered at full relative precision even
when one of the two values has rounded to 0 or 1 in double arithmetic.
"""

import math

import numpy as np
from scipy import special

SQRT2PI = math.sqrt(2.0 * math.pi)

# pdf underflows to exactly 0 past |z| ~ 38.6; beyond that ndtri is left alone
_PDF_FLOOR = 1e-300


def pdf(z):
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / SQRT2PI
    return out if out.ndim else float(out)


def cdf(z):
    out = special.ndtr(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def sf(z):
    """Survival function 1 - cdf(z), computed without cancellation."""
    out = special.ndtr(-np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def _refine_lower_half(p):
    """Halley-refined quantile for p in (0, 0.5] (z <= 0, full relative precision)."""
    z0 = special.ndtri(p)
    d = np.exp(-0.5 * z0 * z0) / SQRT2PI
    with np.errstate(divide="ignore", invalid="ignore"):
        u = (special.ndtr(z0) - p) / d
        z1 = z0 - u / (1.0 + 0.5 * u * z0)
    return np.where((d > _PDF_FLOOR) & np.isfinite(z0), z1, z0)


def quantile(p):
    """Inverse CDF on (0, 1); endpoints map to -inf/+inf.

    The refinement runs once, on min(p, 1-p), where ndtr has full relative
    precision, and the sign is flipped above 1/2; 1-p is exact for
    p >= 0.5, so both tails come out clean.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore"):
        z = _refine_lower_half(np.minimum(p, 1.0 - p))
    out = np.where(p > 0.5, -z, z)
    return out if out.ndim else float(out)


def quantile_from_pair(p, comp):
    """Inverse CDF given both p and its complement 1-p.

    Uses whichever of the two is smaller, so the result keeps full relative
    precision in both tails (p itself may have rounded to 1.0 while the
    complement still carries the information, and vice versa).
    """
    p = np.asarray(p, dtype=float)
    comp = np.asarray(comp, dtype=float)
    small = np.minimum(p, comp)
    z = quantile(small)
    out = np.where(p <= comp, z, -z)
    return out if out.ndim else float(out)
