"""Parametric probability distortion families.

A distortion is a continuous, strictly increasing map of [0,1] onto itself
with fixed endpoints.  Every family here evaluates phi_t(p) and the three
derivative quantities the distorted drift reads: dp phi (``derivatives``),
the time ratio dt phi / dp phi (zero unless the schedule is time varying)
and the curvature ratio dpp phi / dp phi, all vectorized over numpy arrays.
Each family has one formula per quantity; dt phi is dp * time_ratio and
dpp phi is dp * curvature_ratio.

Derivative evaluation clamps p into [EPS_P, 1-EPS_P] instead of raising,
because in every downstream use phi is composed with a survival probability
that is interior by construction; it counts nothing (``compute_mu`` counts
the clamped survival cells), so every method is pure and thread-safe.
``curvature_ratio`` takes the complement 1-p as a separately computed
quantity, which keeps the ratio exact deep in the tails where 1-p would
round to 1 (the quantile-composition family needs this for tail drift
evaluation).
"""

import math

import numpy as np

from . import normal
from .errors import ConfigError, DomainError

EPS_P = 1e-12

# the smallest and the largest double strictly inside (0, 1): eval keeps the
# image of an interior p between them
_TINY = 5e-324
_BELOW_ONE = 0.9999999999999999


def _asarray_prob(p, where):
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"{where}: probability outside [0, 1]")
    return arr


def _scalar_like(value, template):
    if np.ndim(template) == 0 and np.ndim(value) == 0:
        return float(value)
    return value


class Distortion:
    """Base class; subclasses implement the interior formulas _value, _d1
    (dp) and _curvature (dpp / dp, which curvature_ratio reads)."""

    time_varying = False

    # -- interior formulas, p guaranteed in (0, 1), q = 1 - p trusted --------
    def _value(self, p, q):
        raise NotImplementedError

    def _d1(self, p, q):
        """dp phi on interior arrays."""
        raise NotImplementedError

    # -- public API ----------------------------------------------------------
    def eval(self, t, p):
        """phi_t(p) with the endpoints pinned exactly.

        t is one time, or an array of times that broadcasts against p, one
        per point (a (K, 1) column against a (K, w) block holds one time a
        row); time-invariant families ignore it.  The formula runs only on
        the p strictly inside (0, 1); 0 and 1 are written as such.  An
        interior p maps strictly inside (0, 1): a value that rounds to 0
        (p**2 at a subnormal p) or to 1 is moved by at most one ulp to the
        nearest interior double, so the order against the endpoints is kept.
        """
        arr = _asarray_prob(p, type(self).__name__ + ".eval")
        out = np.asarray(arr == 1.0, dtype=float)
        interior = (arr > 0.0) & (arr < 1.0)
        # an interior scalar is evaluated as a numpy scalar: numpy's scalar
        # pow differs from its vector loop in the last ulp
        inner = arr[()] if arr.ndim == 0 and interior else arr[interior]
        # called even with no interior point left, so a schedule that is not
        # a distortion at t (a SeparableProduct weight above 1) still raises
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = self._value_t(t, inner, 1.0 - inner, interior)
            out[interior] = np.clip(value, _TINY, _BELOW_ONE)
        return _scalar_like(out, p)

    def _value_t(self, t, p, q, interior):
        """phi_t at the interior points p (the entries of the block where
        ``interior`` is set); t as eval takes it."""
        return self._value(p, q)

    def derivatives(self, t, p):
        """dp phi at (t, p), with p clamped into [EPS_P, 1-EPS_P]."""
        arr = _asarray_prob(p, type(self).__name__ + ".derivatives")
        pc = np.clip(arr, EPS_P, 1.0 - EPS_P)
        return _scalar_like(self._d1(pc, 1.0 - pc), p)

    def curvature_ratio(self, t, p, comp):
        """d2 phi / d1 phi at (t, p), with comp = 1-p computed separately
        (tail-exact where 1-p would round to 1)."""
        pa = np.asarray(p, dtype=float)
        qa = np.asarray(comp, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._curvature(pa, qa)
        return _scalar_like(out, p)

    def time_ratio(self, t, p):
        """dt phi / dp phi at (t, p); identically zero for static schedules."""
        out = np.zeros_like(np.asarray(p, dtype=float))
        return _scalar_like(out, p)

    def to_dict(self):
        raise NotImplementedError

    def __repr__(self):
        items = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items() if k != "family")
        return f"{type(self).__name__}({items})"

    def __eq__(self, other):
        return isinstance(other, Distortion) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(repr(self.to_dict()))


class Identity(Distortion):
    """phi(p) = p."""

    def _value(self, p, q):
        return p

    def _d1(self, p, q):
        return np.ones_like(p)

    def _curvature(self, p, q):
        return np.zeros_like(p)

    def to_dict(self):
        return {"family": "identity"}


class Power(Distortion):
    """phi(p) = p**gamma, gamma > 0."""

    def __init__(self, gamma):
        gamma = float(gamma)
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise ConfigError(f"Power: gamma must be positive and finite, got {gamma}")
        self.gamma = gamma

    def _value(self, p, q):
        return p**self.gamma

    def _d1(self, p, q):
        g = self.gamma
        return g * p ** (g - 1.0)

    def _curvature(self, p, q):
        return (self.gamma - 1.0) / p

    def to_dict(self):
        return {"family": "power", "gamma": self.gamma}


class KahnemanTversky(Distortion):
    """phi(p) = p**g / (p**g + (1-p)**g)**(1/g).

    The inverse-S weighting function; it is increasing only for g above
    roughly 0.279, so construction rejects gamma below 0.28.
    """

    GAMMA_FLOOR = 0.28

    def __init__(self, gamma):
        gamma = float(gamma)
        if not (self.GAMMA_FLOOR <= gamma < 1.0):
            raise ConfigError(
                "KahnemanTversky: gamma must lie in [0.28, 1); below about 0.279 "
                f"the curve stops being increasing (got {gamma})"
            )
        self.gamma = gamma

    def _value(self, p, q):
        g = self.gamma
        return p**g / (p**g + q**g) ** (1.0 / g)

    def _log_cascade(self, p, q):
        """(value, L1, D, D1) where L1 = phi'/phi and D = p**g + q**g."""
        g = self.gamma
        pg1 = p ** (g - 1.0)
        qg1 = q ** (g - 1.0)
        D = p * pg1 + q * qg1
        D1 = g * (pg1 - qg1)
        val = (p * pg1) * D ** (-1.0 / g)
        L1 = g / p - D1 / (g * D)
        return val, L1, D, D1

    def _d1(self, p, q):
        val, L1, _, _ = self._log_cascade(p, q)
        return val * L1

    def _curvature(self, p, q):
        g = self.gamma
        _, L1, D, D1 = self._log_cascade(p, q)
        D2 = g * (g - 1.0) * (p ** (g - 2.0) + q ** (g - 2.0))
        L1p = -g / p**2 - (D2 * D - D1 * D1) / (g * D * D)
        return L1 + L1p / L1

    def to_dict(self):
        return {"family": "kahneman_tversky", "gamma": self.gamma}


class TverskyFox(Distortion):
    """phi(p) = a*p**g / (a*p**g + (1-p)**g), a > 0, 0 < g < 1."""

    def __init__(self, alpha, gamma):
        alpha = float(alpha)
        gamma = float(gamma)
        if not (alpha > 0.0 and math.isfinite(alpha)):
            raise ConfigError(f"TverskyFox: alpha must be positive, got {alpha}")
        if not (0.0 < gamma < 1.0):
            raise ConfigError(f"TverskyFox: gamma must lie in (0, 1), got {gamma}")
        self.alpha = alpha
        self.gamma = gamma

    def _value(self, p, q):
        a, g = self.alpha, self.gamma
        apg = a * p**g
        return apg / (apg + q**g)

    def _m_cascade(self, p, q):
        """(d1, M) where M = phi''/phi'."""
        a, g = self.alpha, self.gamma
        pg1 = p ** (g - 1.0)
        qg1 = q ** (g - 1.0)
        S = a * p * pg1 + q * qg1
        S1 = a * g * pg1 - g * qg1
        d1 = a * g * (p * q) ** (g - 1.0) / (S * S)
        M = (g - 1.0) * (1.0 / p - 1.0 / q) - 2.0 * S1 / S
        return d1, M

    def _d1(self, p, q):
        return self._m_cascade(p, q)[0]

    def _curvature(self, p, q):
        return self._m_cascade(p, q)[1]

    def to_dict(self):
        return {"family": "tversky_fox", "alpha": self.alpha, "gamma": self.gamma}


class Prelec(Distortion):
    """phi(p) = exp(-g * (-ln p)**a), g > 0, 0 < a < 1."""

    def __init__(self, gamma, alpha):
        gamma = float(gamma)
        alpha = float(alpha)
        if not (gamma > 0.0 and math.isfinite(gamma)):
            raise ConfigError(f"Prelec: gamma must be positive, got {gamma}")
        if not (0.0 < alpha < 1.0):
            raise ConfigError(f"Prelec: alpha must lie in (0, 1), got {alpha}")
        self.gamma = gamma
        self.alpha = alpha

    def _value(self, p, q):
        g, a = self.gamma, self.alpha
        w = -np.log(p)
        return np.exp(-g * w**a)

    def _m_cascade(self, p, q):
        """(d1, M) where M = phi''/phi'."""
        g, a = self.gamma, self.alpha
        # -ln p read off the trusted complement above 1/2, where p may have
        # rounded to 1 (w = 0 would make w**(a-1) infinite)
        w = np.where(p > 0.5, -np.log1p(-q), -np.log(p))
        wa1 = w ** (a - 1.0)
        val = np.exp(-g * w * wa1)
        d1 = val * g * a * wa1 / p
        M = g * a * wa1 / p - (a - 1.0) / (w * p) - 1.0 / p
        return d1, M

    def _d1(self, p, q):
        return self._m_cascade(p, q)[0]

    def _curvature(self, p, q):
        return self._m_cascade(p, q)[1]

    def to_dict(self):
        return {"family": "prelec", "gamma": self.gamma, "alpha": self.alpha}


class Wang(Distortion):
    """phi(p) = F(F^{-1}(p) + alpha) with F the standard normal CDF.

    The curvature ratio phi''/phi' equals -alpha / F'(F^{-1}(p)); with the
    complement supplied it stays exact arbitrarily deep in either tail.
    """

    def __init__(self, alpha):
        alpha = float(alpha)
        if not math.isfinite(alpha):
            raise ConfigError(f"Wang: alpha must be finite, got {alpha}")
        self.alpha = alpha

    def _z(self, p, q):
        return normal.quantile_from_pair(p, q)

    def _value(self, p, q):
        return normal.cdf(self._z(p, q) + self.alpha)

    def _d1(self, p, q):
        a = self.alpha
        z = self._z(p, q)
        return np.exp(a * (-z - 0.5 * a))  # pdf(z + a) / pdf(z) without underflow

    def _curvature(self, p, q):
        z = self._z(p, q)
        with np.errstate(divide="ignore", over="ignore"):
            return -self.alpha / normal.pdf(z)

    def to_dict(self):
        return {"family": "wang", "alpha": self.alpha}


class TimeWeight:
    """Scalar weight f(t) with f(anchor) = 1 by construction.

    kinds: "constant" (f = 1), "exp" (f = exp(rate*(t-anchor))),
    "linear" (f = 1 + rate*(t-anchor)).
    """

    KINDS = ("constant", "exp", "linear")

    def __init__(self, kind="constant", rate=0.0, anchor=0.0):
        if kind not in self.KINDS:
            raise ConfigError(f"TimeWeight: unknown kind {kind!r}, expected one of {self.KINDS}")
        rate = float(rate)
        anchor = float(anchor)
        if not (math.isfinite(rate) and math.isfinite(anchor)):
            raise ConfigError("TimeWeight: rate and anchor must be finite")
        self.kind = kind
        self.rate = rate
        self.anchor = anchor

    def value(self, t):
        if self.kind == "constant":
            return 1.0
        if self.kind == "exp":
            return math.exp(self.rate * (t - self.anchor))
        return 1.0 + self.rate * (t - self.anchor)

    def derivative(self, t):
        if self.kind == "constant":
            return 0.0
        if self.kind == "exp":
            return self.rate * self.value(t)
        return self.rate

    def to_dict(self):
        return {"kind": self.kind, "rate": self.rate, "anchor": self.anchor}

    @classmethod
    def from_dict(cls, obj):
        extra = set(obj) - {"kind", "rate", "anchor"}
        if extra:
            raise ConfigError(f"TimeWeight: unknown keys {sorted(extra)}")
        return cls(obj.get("kind", "constant"), obj.get("rate", 0.0), obj.get("anchor", 0.0))


class SeparableProduct(Distortion):
    """Time-varying schedule phi_t(p) = f(t) * phi0(p) on the interior.

    Endpoints stay pinned to 0 and 1 exactly; for the schedule to be a valid
    distortion at time t the weight must satisfy 0 < f(t) <= 1, which eval
    enforces pointwise (larger weights would push interior values above 1).
    """

    time_varying = True

    def __init__(self, time_weight, base):
        if not isinstance(time_weight, TimeWeight):
            raise ConfigError("SeparableProduct: time_weight must be a TimeWeight")
        if not isinstance(base, Distortion):
            raise ConfigError("SeparableProduct: base must be a Distortion")
        if base.time_varying:
            raise ConfigError("SeparableProduct: base schedule must be time-invariant")
        self.time_weight = time_weight
        self.base = base

    def _weight_checked(self, t):
        f = self.time_weight.value(t)
        if not (0.0 < f <= 1.0 + 1e-12):
            raise DomainError(
                f"SeparableProduct: weight f({t}) = {f} leaves (0, 1]; the schedule is "
                "not a distortion at this time"
            )
        return min(f, 1.0)

    def _value_t(self, t, p, q, interior):
        if np.ndim(t) == 0:
            return self._weight_checked(t) * self.base._value(p, q)
        # f is read once per run of equal times through the scalar
        # TimeWeight.value, so each weight is bit for bit that of a scalar-t
        # call, and checked even where the run holds no interior point
        t = np.broadcast_to(t, interior.shape).ravel()
        run = np.ones(t.size, dtype=bool)
        run[1:] = t[1:] != t[:-1]
        start = np.flatnonzero(run)
        f = np.repeat([self._weight_checked(s) for s in t[start]], np.diff(start, append=t.size))
        return f[interior.ravel()] * self.base._value(p, q)

    def _value(self, p, q):
        return self.base._value(p, q)

    def derivatives(self, t, p):
        arr = _asarray_prob(p, "SeparableProduct.derivatives")
        pc = np.clip(arr, EPS_P, 1.0 - EPS_P)
        return _scalar_like(self._weight_checked(t) * self.base._d1(pc, 1.0 - pc), p)

    def curvature_ratio(self, t, p, comp):
        return self.base.curvature_ratio(t, p, comp)

    def time_ratio(self, t, p):
        arr = _asarray_prob(p, "SeparableProduct.time_ratio")
        pc = np.clip(arr, EPS_P, 1.0 - EPS_P)
        qc = 1.0 - pc
        f = self._weight_checked(t)
        fdot = self.time_weight.derivative(t)
        out = (fdot / f) * self.base._value(pc, qc) / self.base._d1(pc, qc)
        return _scalar_like(out, p)

    def to_dict(self):
        return {
            "family": "separable",
            "time_weight": self.time_weight.to_dict(),
            "base": self.base.to_dict(),
        }


# ---------------------------------------------------------------------------
# serialization

_FAMILY_KEYS = {
    "identity": set(),
    "power": {"gamma"},
    "kahneman_tversky": {"gamma"},
    "tversky_fox": {"alpha", "gamma"},
    "prelec": {"gamma", "alpha"},
    "wang": {"alpha"},
    "separable": {"time_weight", "base"},
}


def distortion_from_dict(obj):
    """Build a Distortion from its JSON dict form; rejects unknown keys."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError("distortion spec must be a dict with a 'family' key")
    family = obj["family"]
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"unknown distortion family {family!r}")
    extra = set(obj) - _FAMILY_KEYS[family] - {"family"}
    if extra:
        raise ConfigError(f"distortion family {family!r}: unknown keys {sorted(extra)}")
    missing = _FAMILY_KEYS[family] - set(obj)
    if missing:
        raise ConfigError(f"distortion family {family!r}: missing keys {sorted(missing)}")
    if family == "identity":
        return Identity()
    if family == "power":
        return Power(obj["gamma"])
    if family == "kahneman_tversky":
        return KahnemanTversky(obj["gamma"])
    if family == "tversky_fox":
        return TverskyFox(obj["alpha"], obj["gamma"])
    if family == "prelec":
        return Prelec(obj["gamma"], obj["alpha"])
    if family == "wang":
        return Wang(obj["alpha"])
    return SeparableProduct(TimeWeight.from_dict(obj["time_weight"]), distortion_from_dict(obj["base"]))
