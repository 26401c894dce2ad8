"""Independent references and the acceptance checks of the benchmark.

Nothing here imports distort.  The references are closed forms and
quadratures evaluated with scipy, or sums the benchmark forms itself from the
inputs it generated, so a check compares the program with a computation the
program did not make.  Each check returns a list of problems (empty when the
output is acceptable); the reasons for every width are in README.md.
"""

import math

import numpy as np
from scipy import integrate, special

# Monte Carlo estimates may sit this many batch-means standard errors from
# the reference, on top of a stated discretisation allowance
MC_WIDTH_SE = 5.0


def smoothed_step(x):
    """The increasing payload every value check uses: a tanh ramp from 0 to 1
    around 0.2, of width 0.25 (so its slope is at most 2)."""
    return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - 0.2) / 0.25))


SMOOTHED_STEP_MAX_SLOPE = 2.0


# ---------------------------------------------------------------------------
# closed forms and quadratures

def wang_phi(alpha, s, t, p):
    """Dynamic curve Phi(s, t, 0; p) of the quantile-shift family with b = 0."""
    shift = alpha * (math.sqrt(t) - math.sqrt(s)) / math.sqrt(t - s)
    return special.ndtr(special.ndtri(np.asarray(p, dtype=float)) + shift)


def wang_drift(alpha, t):
    """Distorted drift of the quantile-shift family with b = 0: alpha / (2 sqrt t)."""
    return alpha / (2.0 * np.sqrt(np.asarray(t, dtype=float)))


def wang_value(alpha, g, s, t_end, x):
    """E[g(x + alpha (sqrt t_end - sqrt s) + Z sqrt(t_end - s))] by adaptive quadrature."""
    shift = alpha * (math.sqrt(t_end) - math.sqrt(s))
    sd = math.sqrt(t_end - s)
    val, _ = integrate.quad(
        lambda z: float(g(x + shift + sd * z)) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi),
        -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13, limit=200,
    )
    return val


def ou_density(t, x):
    """Transition density of dX = -X dt + dB from (0, 0) to (t, x)."""
    var = 0.5 * (1.0 - math.exp(-2.0 * t))
    return math.exp(-x * x / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def phi_formula(family, param):
    """The benchmark's own evaluation of a time-invariant distortion."""
    if family == "power":
        return lambda p: np.asarray(p, dtype=float) ** param
    if family == "wang":
        return lambda p: special.ndtr(special.ndtri(np.asarray(p, dtype=float)) + param)
    if family == "kahneman_tversky":
        def kt(p):
            p = np.asarray(p, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = p**param / (p**param + (1.0 - p) ** param) ** (1.0 / param)
            return np.where(p <= 0.0, 0.0, np.where(p >= 1.0, 1.0, out))
        return kt
    raise ValueError(f"unknown family {family!r}")


def choquet_value(survival, phi, g):
    """sum_k g_k (phi(G_k) - phi(G_{k+1})) for survival weights G_k = P(X >= x_k)."""
    w_hi = phi(np.clip(survival, 0.0, 1.0))
    return float(np.asarray(g, dtype=float) @ (w_hi - np.append(w_hi[1:], 0.0)))


def tree_terminal_survival(up_prob):
    """Terminal survival weights of a recombining tree, by a forward pass.

    The lowest state is reached with certainty, so its weight is exactly 1:
    a summed 1 - ulp would move phi there by (ulp)^gamma for the families
    with an infinite slope at 1."""
    w = np.array([1.0])
    for p in up_prob:
        w = np.append(w * (1.0 - p), 0.0) + np.insert(w * p, 0, 0.0)
    surv = np.cumsum(w[::-1])[::-1]
    surv[0] = 1.0
    return surv


def binomial_survival(n):
    """P(K >= k), k = 0..n, for K ~ Binomial(n, 1/2): the driftless lattice."""
    # imported here, after the timed rounds, to keep scipy.stats (half a
    # second of imports) out of the measured set-up; special.bdtrc is off by
    # 3e-12 at n = 4096, binom.sf by 4e-16
    from scipy.stats import binom

    return binom.sf(np.arange(n + 1) - 1, n, 0.5)


# ---------------------------------------------------------------------------
# checks

def within(label, gap, tol):
    if not (math.isfinite(gap) and abs(gap) <= tol):
        return [f"{label}: gap {gap:.3e} exceeds {tol:.3e}"]
    return []


def max_gap(got, ref):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - ref)))


def mc_within(label, est, se, ref, allowance):
    """|est - ref| <= MC_WIDTH_SE * se + allowance, with a positive finite se."""
    if not (math.isfinite(est) and math.isfinite(se) and se > 0.0):
        return [f"{label}: estimate {est} with standard error {se} is not usable"]
    bound = MC_WIDTH_SE * se + allowance
    gap = abs(est - ref)
    if gap > bound:
        return [f"{label}: |{est:.6g} - {ref:.6g}| = {gap:.3e} exceeds "
                f"{MC_WIDTH_SE:g} SE + {allowance:.2e} = {bound:.3e} ({gap / se:.1f} SE)"]
    return []


def euler_allowance(alpha, s, t, steps):
    """Weak-error allowance of the left-point Euler scheme under the drift
    alpha / (2 sqrt r): reading the decreasing drift at the left end of each
    step overshoots the mean position by about (dt / 2)(mu(s) - mu(t)), and
    the payload moves by at most its largest slope times that."""
    dt = (t - s) / steps
    lag = 0.5 * dt * (wang_drift(alpha, s) - wang_drift(alpha, t))
    return float(SMOOTHED_STEP_MAX_SLOPE * lag)


def bridge_allowance(ref, t, x, steps):
    """Allowance for the O(1/steps) bias of the left-point bridge exponent.

    The discrete quadratic variation of a bridge from (0, 0) pinned at (t, x)
    misses t by (x^2 - t) / steps and the left Riemann sum of b^2 = x^2 lags
    by about x^2 dt / 2; the relative bias of exp(I) is of the order of
    (t + x^2) / (2 steps)."""
    return float(ref * (t + x * x) / (2.0 * steps))


def convergence(label, n_list, errors, c_over_n, slope_range):
    """First-order lattice convergence: errors strictly decrease, each stays
    below c_over_n / N, and the log-log slope lies in slope_range."""
    problems = []
    if len(n_list) != len(errors):
        return [f"{label}: {len(n_list)} lattices but {len(errors)} errors"]
    for n, e in zip(n_list, errors):
        if not (math.isfinite(e) and e <= c_over_n / n):
            problems.append(f"{label}: error {e:.3e} at N={n} exceeds {c_over_n:g}/N")
    if any(a <= b for a, b in zip(errors, errors[1:])):
        problems.append(f"{label}: errors do not decrease: {errors}")
    if len(n_list) >= 2:
        fit = np.polyfit(np.log(np.asarray(n_list, float)),
                         np.log(np.maximum(errors, 1e-300)), 1)
        slope = float(fit[0])
        if not slope_range[0] <= slope <= slope_range[1]:
            problems.append(f"{label}: log-log slope {slope:.3f} outside {slope_range}")
    return problems
