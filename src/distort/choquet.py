"""Static distorted (Choquet) expectations.

For a nonnegative random variable xi the distorted expectation is the
integral of phi(P(xi >= x)) over x > 0.  For a finitely supported law this
telescopes into a weighted sum with the distorted probability mass
q_k = phi(P(eta >= x_k)) - phi(P(eta >= x_{k+1})); for a law with a density
it becomes an integral of g * rho * phi'(G), or after integration by parts
g(min) + integral of phi(G) dg, which is the better conditioned form on
gridded survival data.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError


@dataclass(frozen=True)
class DiscreteRV:
    """Finitely supported law: strictly increasing finite support, positive
    finite probs summing to 1."""

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.ndim != 1 or probs.shape != support.shape or support.size < 1:
            raise DomainError("DiscreteRV: support and probs must be equal-length 1-d arrays")
        for name, arr in (("support", support), ("probs", probs)):
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise DomainError(f"DiscreteRV: {name}[{bad[0]}] = {arr[bad[0]]} is not finite")
        if np.any(np.diff(support) <= 0.0):
            raise DomainError("DiscreteRV: support values must be strictly increasing")
        if np.any(probs <= 0.0):
            raise DomainError("DiscreteRV: all probabilities must be positive")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DomainError(f"DiscreteRV: probabilities sum to {probs.sum()}, not 1")

    def scaled(self, c):
        """The law of c * eta for finite c >= 0.

        Scaling can round distinct support points together (a subnormal c,
        or c = 0); those merge into one point carrying their summed
        probability, so the result is always a valid law."""
        c = float(c)
        if not (0.0 <= c < np.inf):
            raise DomainError(f"DiscreteRV.scaled: scale factor {c} is not finite and nonnegative")
        with np.errstate(over="ignore"):  # an overflow is reported just below
            support = self.support * c
        if not np.all(np.isfinite(support)):
            raise DomainError(f"DiscreteRV.scaled: scale factor {c} overflows the support")
        starts = np.flatnonzero(np.append(True, np.diff(support) > 0.0))
        return DiscreteRV(support[starts], np.add.reduceat(self.probs, starts))


def survival_sum(law, j=0):
    """P(eta >= x_k) over the increasing states of ``law``, summed from the top.

    A 2-D ``law`` holds one law per row, zero-padded past its top state; the
    padding sums to survival 0 and leaves each row's sum bit for bit that of
    the row alone.  The states at or below index j are certain, so their
    survival is written as exactly 1: summation rounding must not survive
    there, because families with unbounded endpoint slope amplify a one-ulp
    deficit into a visible mass defect."""
    surv = np.cumsum(law[..., ::-1], axis=-1)[..., ::-1]
    surv[..., : j + 1] = 1.0
    return surv


def choquet_increments(phi_surv):
    """phi(G_k) - phi(G_{k+1}) from the values phi(G_k); past the top state
    G is 0, where every distortion is 0."""
    return phi_surv - np.append(phi_surv[1:], 0.0)


@dataclass(frozen=True)
class MonotoneGrid:
    """A monotone function sampled on a strictly increasing grid."""

    x: np.ndarray
    values: np.ndarray
    increasing: bool = True

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "values", values)
        if x.ndim != 1 or values.shape != x.shape or x.size < 2:
            raise DomainError("MonotoneGrid: need matching 1-d arrays with at least 2 points")
        if np.any(np.diff(x) <= 0.0):
            raise DomainError("MonotoneGrid: abscissae must be strictly increasing")
        d = np.diff(values)
        if self.increasing and np.any(d < 0.0):
            raise DomainError("MonotoneGrid: ordinates not increasing as declared")
        if not self.increasing and np.any(d > 0.0):
            raise DomainError("MonotoneGrid: ordinates not decreasing as declared")

    def __call__(self, xq):
        return np.interp(xq, self.x, self.values)


def distorted_pmf(rv, d, t=0.0):
    """Distorted probability mass q_k; nonnegative, sums to 1 by telescoping."""
    phi = np.asarray(d.eval(t, np.clip(survival_sum(rv.probs), 0.0, 1.0)))
    return np.maximum(choquet_increments(phi), 0.0)


def choquet_expectation_discrete(rv, d, t=0.0):
    """Distorted expectation of a nonnegative finitely supported variable."""
    if rv.support[0] < 0.0:
        raise DomainError("choquet_expectation_discrete: support must be nonnegative")
    return float(rv.support @ distorted_pmf(rv, d, t))


def _trapezoid_stieltjes(phi_vals, g_vals):
    """Trapezoid approximation of the Stieltjes integral of phi(G) dg."""
    return float(np.sum(0.5 * (phi_vals[1:] + phi_vals[:-1]) * np.diff(g_vals)))


def choquet_expectation_density(survival, g, d, t=0.0, agreement_tol=None):
    """Distorted expectation of g(eta) from a gridded survival curve.

    Evaluates both the density form (integral of g * rho * phi'(G)) and the
    integration-by-parts form (g(min) + integral of phi(G) dg), returns the
    by-parts value, and raises if the two disagree beyond the estimated
    quadrature error.
    """
    if not isinstance(survival, MonotoneGrid) or survival.increasing:
        raise DomainError("choquet_expectation_density: survival must be a decreasing MonotoneGrid")
    if not isinstance(g, MonotoneGrid) or not g.increasing:
        raise DomainError("choquet_expectation_density: g must be an increasing MonotoneGrid")
    if np.any(g.values < 0.0):
        raise DomainError("choquet_expectation_density: g must be nonnegative")
    G = survival.values
    if G[0] < 1.0 - 5e-3 or G[-1] > 5e-3:
        raise DomainError(
            "choquet_expectation_density: survival grid must span from about 1 down to about 0 "
            f"(got {G[0]:.6f} .. {G[-1]:.6f})"
        )
    x = survival.x
    g_vals = g(x)
    phi_vals = np.asarray(d.eval(t, np.clip(G, 0.0, 1.0)))

    # integration-by-parts form, with Richardson error estimate from the
    # every-other-point subgrid
    by_parts = float(g_vals[0]) + _trapezoid_stieltjes(phi_vals, g_vals)
    coarse = float(g_vals[0]) + _trapezoid_stieltjes(phi_vals[::2], g_vals[::2])
    err_b = abs(by_parts - coarse) / 3.0

    # density form: rho = -dG/dx by centered differences, phi' from the
    # schedule's analytic .derivatives (the by-parts form reads .eval)
    rho = -np.gradient(G, x)
    dp = d.derivatives(t, np.clip(G, 0.0, 1.0))
    integrand = g_vals * rho * np.asarray(dp)
    density_form = float(np.trapezoid(integrand, x))
    density_coarse = float(np.trapezoid(integrand[::2], x[::2]))
    err_a = abs(density_form - density_coarse) / 3.0

    tol = agreement_tol if agreement_tol is not None else max(1e-8, 10.0 * (err_a + err_b))
    if abs(by_parts - density_form) > tol:
        raise AccuracyError(
            "choquet_expectation_density: quadrature forms disagree "
            f"({by_parts} vs {density_form}, tol {tol}); refine the grid"
        )
    return by_parts
