"""Parametric probability distortion families.

A distortion is a continuous, strictly increasing map of [0,1] onto itself
with fixed endpoints.  Every family here evaluates phi_t(p) and the three
derivative quantities the distorted drift reads: dp phi (``derivatives``),
the time ratio dt phi / dp phi and the curvature ratio dpp phi / dp phi,
all vectorized over numpy arrays.  Each family has one formula per
quantity; dt phi is dp * time_ratio and dpp phi is dp * curvature_ratio.
The time-shifted Wang family, Wang(alpha, k) with k > 0, is the one
schedule that varies in time; every other family, and Wang with k = 0,
has a time ratio of zero.

Derivative evaluation clamps p into [EPS_P, 1-EPS_P] instead of raising,
because in every downstream use phi is composed with a survival probability
that is interior by construction; it counts nothing (``compute_mu`` counts
the clamped survival cells), so every method is pure and thread-safe.
``curvature_ratio`` and ``time_ratio`` take the complement 1-p as a
separately computed quantity, which keeps the ratios exact deep in the tails
where 1-p would round to 1 (the quantile-composition family needs this for
tail drift evaluation).
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
    # np.min and np.max both carry a NaN, which fails either comparison
    if arr.size and not (np.min(arr) >= 0.0 and np.max(arr) <= 1.0):
        raise DomainError(f"{where}: probability outside [0, 1]")
    return arr


def _scalar_like(value, template):
    if np.ndim(template) == 0 and np.ndim(value) == 0:
        return float(value)
    return value


class Distortion:
    """Base class; subclasses implement the interior formulas _value, _d1
    (dp) and _curvature (dpp / dp, which curvature_ratio reads)."""

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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = self._value_t(t, inner, 1.0 - inner, interior)
            out[interior] = np.clip(value, _TINY, _BELOW_ONE)
        return _scalar_like(out, p)

    def _value_t(self, t, p, q, interior):
        """phi_t at the interior points p (the entries of the block where
        ``interior`` is set); t as eval takes it."""
        return self._value(p, q)

    def _at(self, t):
        """The time-invariant distortion that equals phi_t at the one time t."""
        return self

    def derivatives(self, t, p):
        """dp phi at one time t, with p clamped into [EPS_P, 1-EPS_P]."""
        arr = _asarray_prob(p, type(self).__name__ + ".derivatives")
        pc = np.clip(arr, EPS_P, 1.0 - EPS_P)
        return _scalar_like(self._at(t)._d1(pc, 1.0 - pc), p)

    def curvature_ratio(self, t, p, comp):
        """d2 phi / d1 phi at one time t, with comp = 1-p computed
        separately (tail-exact where 1-p would round to 1)."""
        pa = np.asarray(p, dtype=float)
        qa = np.asarray(comp, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = self._at(t)._curvature(pa, qa)
        return _scalar_like(out, p)

    def time_ratio(self, t, p, comp):
        """dt phi / dp phi at one time t, with comp = 1-p as curvature_ratio
        takes it; identically zero for static schedules."""
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
    """phi_t(p) = F(F^{-1}(p) + a(t)), a(t) = alpha t**k, F the standard
    normal CDF; k = 0 (the default) is the static shift by alpha.

    Under a unit-sigma diffusion with b = 0 the distorted law of X_t is
    N(x0 + m(t), t), m(t) = alpha t**(k + 1/2), which gives the closed forms
    of dynamics.wang_mu_closed, wang_phi_closed and wang_value_closed.  The
    curvature ratio phi''/phi' equals -a(t) / F'(F^{-1}(p)) and the time
    ratio dt phi / dp phi equals a'(t) F'(F^{-1}(p)); with the complement
    supplied both stay exact arbitrarily deep in either tail.  With k = 0
    no time is read: a(t) is alpha itself, with no power taken.
    """

    def __init__(self, alpha, k=0.0):
        alpha, k = float(alpha), float(k)
        if not math.isfinite(alpha):
            raise ConfigError(f"Wang: alpha must be finite, got {alpha}")
        if not (k >= 0.0 and math.isfinite(k)):
            raise ConfigError(f"Wang: k must be nonnegative and finite, got {k}")
        self.alpha = alpha
        self.k = k

    def _time(self, t):
        """One time or an array of times as an array, checked t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise DomainError(f"Wang: the shift alpha t**k needs t >= 0, got t = {np.min(t)}")
        return t

    def _at(self, t):
        return Wang(self.alpha * self._time(t) ** self.k) if self.k else self

    def _z(self, p, q):
        return normal.quantile_from_pair(p, q)

    def _value(self, p, q):
        return normal.cdf(self._z(p, q) + self.alpha)

    def _value_t(self, t, p, q, interior):
        if not self.k:
            return self._value(p, q)
        if np.ndim(t):
            t = np.broadcast_to(t, interior.shape)[interior]
        return normal.cdf(self._z(p, q) + self.alpha * self._time(t) ** self.k)

    def _d1(self, p, q):
        a = self.alpha
        z = self._z(p, q)
        return np.exp(a * (-z - 0.5 * a))  # pdf(z + a) / pdf(z) without underflow

    def _curvature(self, p, q):
        z = self._z(p, q)
        with np.errstate(divide="ignore", over="ignore"):
            return -self.alpha / normal.pdf(z)

    def time_ratio(self, t, p, comp):
        if not self.k:
            return super().time_ratio(t, p, comp)
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = self.alpha * self.k * self._time(t) ** (self.k - 1.0)  # a'(t)
            out = rate * normal.pdf(self._z(p, comp))
        return _scalar_like(out, p)

    def to_dict(self):
        return {"family": "wang", "alpha": self.alpha, **({"k": self.k} if self.k else {})}


# ---------------------------------------------------------------------------
# serialization

# each family's constructor, its required keys and its optional keys
_FAMILIES = {
    "identity": (Identity, (), ()),
    "power": (Power, ("gamma",), ()),
    "kahneman_tversky": (KahnemanTversky, ("gamma",), ()),
    "tversky_fox": (TverskyFox, ("alpha", "gamma"), ()),
    "prelec": (Prelec, ("gamma", "alpha"), ()),
    "wang": (Wang, ("alpha",), ("k",)),
}


def distortion_from_dict(obj):
    """Build a Distortion from its JSON dict form; rejects unknown keys."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise ConfigError("distortion spec must be a dict with a 'family' key")
    family = obj["family"]
    if family not in _FAMILIES:
        raise ConfigError(
            f"unknown distortion family {family!r} (known: {', '.join(_FAMILIES)})"
        )
    cls, required, optional = _FAMILIES[family]
    extra = set(obj) - set(required) - set(optional) - {"family"}
    if extra:
        raise ConfigError(f"distortion family {family!r}: unknown keys {sorted(extra)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"distortion family {family!r}: missing keys {sorted(missing)}")
    return cls(**{key: obj[key] for key in (*required, *optional) if key in obj})
