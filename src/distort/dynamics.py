"""Distorted dynamics in continuous time.

Under the distorted measure, values of increasing payoffs become ordinary
conditional expectations of a diffusion whose drift picks up two correction
terms along the survival field G(t, x) of the original process:

    mu(t, x) = b + dt_phi(t, G) / (dp_phi(t, G) rho)
                 - sigma^2 rho dpp_phi(t, G) / (2 dp_phi(t, G)).

This module evaluates mu (also for alternative diffusion coefficients of the
distorted process), solves the backward value PDE, simulates the distorted
dynamics, assembles the dynamic distortion curve

    Phi(s, t, x; p) = Gq(Gp^{-1}(p))

from the paired conditional survival curves, and discretizes the diffusion
to a binomial lattice for convergence studies against the PDE.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import normal
from ._cn import march, march_adjoint, uniform_spacing
from .density import (
    DensityField,
    blend_rows,
    bounded_read,
    bounded_rows,
    draw_normals,
    gaussian_field,
    normals_buffer,
    run_batches,
    solve_survival_pde,
)
from .distortion import SeparableProduct
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    SingularityError,
)
from .tree import PhiCurve, TreeModel, backward_induction, distort_tree

_DENOM_FLOOR = 1e-300
# half-width of the usable-density window, in standard deviations: survival
# ratios stay representable out to ~37 sigma, with margin for drift terms
_Z_USABLE = 34.0
# half-width of the y probes of build_phi_curve, in sqrt(t - s)
_Y_WIDTH = 3.9
# the Euler engine steps this many consecutive batches as one row: a step is
# about 22 small numpy calls whatever the row's width, so a wider row spreads
# their dispatch cost over more paths
_EULER_GROUP = 4


# ---------------------------------------------------------------------------
# distorted drift

class GridLookup:
    """Piecewise-linear lookup on one x grid, held at the grid ends.

    Returns np.interp(xs, x_grid, row) bit for bit.  xs is clipped to the
    grid (the clipped points are the extrapolated ones).  Given a slope
    table, the lookup skips np.interp's binary search: the cell comes from
    index arithmetic, j = trunc((xc - x0) / dx), corrected by one against
    the actual nodes (xc < x[j], xc >= x[j+1]), which gives exactly the cell
    np.interp uses, and the value is np.interp's own
    slope[j] * (xc - x[j]) + row[j].  The slope table ends in a zero past
    the last node, so xc = x[-1] returns row[-1] exactly.  The correction reaches one cell, so a grid whose nodes
    stray a quarter cell or more from x0 + k dx, or a row whose slopes
    overflow, is handed to np.interp instead.  A NaN query returns NaN and
    counts as outside the grid.
    """

    def __init__(self, x_grid):
        xg = np.asarray(x_grid, dtype=float)
        self.x_grid = xg
        self.lo, self.hi = float(xg[0]), float(xg[-1])
        self.dx = (self.hi - self.lo) / (xg.size - 1)
        self.uniform = bool(
            np.max(np.abs(xg - (self.lo + self.dx * np.arange(xg.size)))) < 0.25 * self.dx
        )
        self._cell_dx = np.diff(xg)
        self._next = np.append(xg[1:], np.inf)

    def slopes(self, rows):
        """np.interp's cell slopes for rows (..., nx), zero past the last node;
        None when the grid is not uniform or a slope overflows."""
        if not self.uniform:
            return None
        slope = np.zeros_like(rows)
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(np.diff(rows, axis=-1), self._cell_dx, out=slope[..., :-1])
        return slope if np.all(np.isfinite(slope)) else None

    def __call__(self, xs, row, slope):
        """(values at xs, count of xs outside the grid) for one row and its
        slope row from slopes().  slope None means np.interp, which is the
        cheaper route for a row read once: it builds its slopes as it goes,
        and its search is nearly free on sorted queries such as a grid."""
        xc = np.minimum(np.maximum(xs, self.lo), self.hi)
        n_out = int(np.count_nonzero(xc != xs))
        if slope is None:
            return np.interp(xc, self.x_grid, row), n_out
        with np.errstate(invalid="ignore"):  # NaN queries; take(mode="clip") keeps them NaN
            j = ((xc - self.lo) / self.dx).astype(np.intp)
        j -= xc < np.take(self.x_grid, j, mode="clip")
        j += xc >= np.take(self._next, j, mode="clip")
        out = xc - np.take(self.x_grid, j, mode="clip")
        out *= np.take(slope, j, mode="clip")
        out += np.take(row, j, mode="clip")
        return out, n_out


@dataclass
class DriftField:
    """mu(t, x) on a grid, with interpolation and extension diagnostics.

    Rows are blended linearly in t (held at the time ends) and looked up in
    x by a GridLookup, exactly as np.interp would; every x query outside the
    grid adds one to extrapolations.  mu_at reads each row once and hands it
    to np.interp; table() serves many lookups at fixed times from rows and
    slopes built once, 16 bytes per node per time, by index arithmetic.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    mu: np.ndarray
    extrapolations: int = 0

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.x_grid = np.asarray(self.x_grid, dtype=float)
        self.mu = np.asarray(self.mu, dtype=float)
        if self.mu.shape != (self.t_grid.size, self.x_grid.size):
            raise DomainError("DriftField: mu shape does not match the grids")
        if self.x_grid.size < 2 or np.any(np.diff(self.x_grid) <= 0.0):
            raise DomainError("DriftField: x_grid must be increasing with >= 2 points")
        if not np.all(np.isfinite(self.mu)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(self.mu))), self.mu.shape)
            raise NumericError(
                f"DriftField: non-finite drift {self.mu[i, j]} at t={self.t_grid[i]}, "
                f"x={self.x_grid[j]} (the first such cell)"
            )
        self._lookup = GridLookup(self.x_grid)

    def row_at(self, t):
        """Drift slice at time t on the field's x grid (time held at the ends)."""
        return blend_rows(self.t_grid, t, self.mu)[0]

    def table(self, times):
        """look(k, xs) -> (the drift at (times[k], xs), the count of xs
        outside the grid), with xs clipped to the grid and read as np.interp
        would bit for bit, from rows and slopes built once.

        look changes nothing, so worker threads may share it; the caller
        adds the counts to extrapolations."""
        rows = np.array([self.row_at(t) for t in times])
        slopes = self._lookup.slopes(rows)

        def look(k, xs):
            return self._lookup(xs, rows[k], None if slopes is None else slopes[k])

        return look

    def mu_at(self, t, x):
        """Bilinear evaluation; x outside the grid extends by the edge slope
        and is counted."""
        row, xg = self.row_at(t), self.x_grid
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out, n_out = self._lookup(xs, row, None)
        self.extrapolations += n_out
        if n_out:
            lo_slope = (row[1] - row[0]) / (xg[1] - xg[0])
            hi_slope = (row[-1] - row[-2]) / (xg[-1] - xg[-2])
            out = np.where(xs < xg[0], row[0] + lo_slope * (xs - xg[0]), out)
            out = np.where(xs > xg[-1], row[-1] + hi_slope * (xs - xg[-1]), out)
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return float(out[0])
        return out

    def growth_constant(self):
        """max |mu| / (1 + |x - c|) over the grid, c its midpoint (the
        linear-growth gauge)."""
        c = 0.5 * (self.x_grid[0] + self.x_grid[-1])
        scale = 1.0 + np.abs(self.x_grid - c)
        return float(np.max(np.abs(self.mu) / scale))


def _mu_core(d, field, b_rows, sigma_sq):
    """The distortion part of the drift: time term plus curvature term.

    Ratios are evaluated through the (p, 1-p) pair so that deep-tail cells
    keep the exact cancellation between a huge curvature ratio and a tiny
    density; a clamped evaluation would zero the drift out there.
    """
    t_grid = field.t_grid
    if isinstance(d, SeparableProduct):
        for t in t_grid:
            f = d.time_weight.value(t)
            if f < 1.0:
                raise DomainError(
                    f"distorted drift: SeparableProduct jumps at p = 1 at t={t}: "
                    f"phi_t(1-) = f(t) = {f} < 1 puts mass {1.0 - f:.3g} at -inf, "
                    "which no finite grid can carry"
                )
    rho = field.rho
    mu = np.empty_like(rho)
    for i, t in enumerate(t_grid):
        g_row = field.G[i]
        c_row = field.G_comp[i]
        dp = np.asarray(d.derivatives(t, g_row).dp, dtype=float)
        denom = dp * rho[i]
        if np.any(denom < _DENOM_FLOOR):
            j = int(np.argmax(denom < _DENOM_FLOOR))
            raise SingularityError(
                f"distorted drift singular at t={t}, x={field.x_grid[j]} "
                f"(dp_phi * rho = {denom[j]:.3e}); restrict the field to cells "
                "with usable density"
            )
        tr = np.asarray(d.time_ratio(t, g_row), dtype=float)
        cr = np.asarray(d.curvature_ratio(t, g_row, c_row), dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            time_term = np.where(tr == 0.0, 0.0, tr / rho[i])
        curv_term = 0.5 * sigma_sq[i] * cr * rho[i]
        mu[i] = b_rows[i] + time_term - curv_term
    return mu


def compute_mu(d, field, b):
    """Distorted drift on the field's grid for unit sigma."""
    x = field.x_grid
    b_rows = np.vstack(
        [np.broadcast_to(np.asarray(b(t, x), dtype=float), x.shape) for t in field.t_grid]
    )
    mu = _mu_core(d, field, b_rows, np.ones((field.t_grid.size, 1)))
    return DriftField(field.t_grid.copy(), x.copy(), mu)


def general_sigma_mu(d, field, b, sigma, sigma_check):
    """Drift of the distorted dynamics when its diffusion coefficient is
    chosen as sc = sigma_check instead of sigma:

        mu = b - sigma d_x sigma + sc d_x sc
             + (sc^2 - sigma^2) d_x rho / (2 rho)
             + dt_phi / (dp_phi rho) - sc^2 rho dpp_phi / (2 dp_phi).

    With sigma_check identical to sigma the extra terms cancel exactly and
    the result reduces to compute_mu."""
    x = field.x_grid
    t_grid = field.t_grid
    shape = x.shape

    def rows(fn):
        return np.vstack(
            [np.broadcast_to(np.asarray(fn(t, x), dtype=float), shape) for t in t_grid]
        )

    b_rows = rows(b)
    sig = rows(sigma)
    sig_c = rows(sigma_check)
    if not all((np.isfinite(s) & (s > 0.0)).all() for s in (sig, sig_c)):
        raise DomainError("general_sigma_mu: diffusion coefficients must be positive and finite")
    core = _mu_core(d, field, b_rows, sig_c**2)
    dsig = np.gradient(sig, x, axis=1)
    dsig_c = np.gradient(sig_c, x, axis=1)
    extra = sig_c * dsig_c - sig * dsig
    factor = 0.5 * (sig_c**2 - sig**2)
    if np.any(factor != 0.0):
        drho = np.gradient(field.rho, x, axis=1)
        bad = (factor != 0.0) & (field.rho < _DENOM_FLOOR)
        if np.any(bad):
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise SingularityError(
                f"general_sigma_mu: d_x rho / rho undefined at t={t_grid[i]}, "
                f"x={x[j]} where the density vanishes"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = drho / field.rho
        extra = extra + np.where(factor != 0.0, factor * ratio, 0.0)
    return DriftField(t_grid.copy(), x.copy(), core + extra)


def smoothed_step_payload(center=0.2, width=0.25):
    """Bounded increasing payload: a tanh ramp from 0 to 1 around center."""
    c, w = float(center), float(width)
    if w <= 0.0:
        raise DomainError("smoothed_step_payload: width must be positive")
    return lambda x: 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - c) / w))


def wang_mu_closed(alpha):
    """The exact distorted drift for the quantile-shift family with b = 0."""
    a = float(alpha)

    def mu(t, x):
        return (a / (2.0 * np.sqrt(np.asarray(t, dtype=float)))) * np.ones_like(
            np.asarray(x, dtype=float)
        )

    return mu


# ---------------------------------------------------------------------------
# backward value PDE

@dataclass(frozen=True)
class PDESolution:
    """u(s, x) with u(t_end, .) = g; increasing slices, maximum principle."""

    s_grid: np.ndarray
    x_grid: np.ndarray
    u: np.ndarray
    g_range: tuple
    projection: float = 0.0
    max_principle_defect: float = 0.0

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        x = np.asarray(self.x_grid, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if u.shape != (s.size, x.size):
            raise DomainError("PDESolution: shape mismatch")
        if not np.all(np.isfinite(u)):
            raise NumericError("PDESolution: non-finite values")
        lo, hi = self.g_range
        defect = float(max(np.max(u) - hi, lo - np.min(u), 0.0))
        if defect > 1e-9:
            raise NumericError(
                f"PDESolution: maximum principle violated by {defect:.2e}"
            )
        u = np.clip(u, lo, hi)
        proj = np.maximum.accumulate(u, axis=1)
        object.__setattr__(self, "projection", float(np.max(np.abs(proj - u))))
        object.__setattr__(self, "max_principle_defect", defect)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "u", proj)

    def u_at(self, s, x):
        """u(s, x), blended linearly in s and interpolated in x; DomainError
        for s or x outside the grids."""
        return bounded_read(self.x_grid, bounded_rows(self.s_grid, s, self.u)[0], x)


def _payload_on_grid(g, x):
    vals = np.asarray(g(x) if callable(g) else g, dtype=float)
    if vals.shape != x.shape:
        raise DomainError("payload does not match the grid")
    if np.any(np.diff(vals) < -1e-12):
        raise DomainError("payload must be nondecreasing")
    return vals


def _velocity_from(mu, x_grid):
    if isinstance(mu, DriftField):
        return lambda tm: mu.mu_at(tm, x_grid)
    if callable(mu):
        return lambda tm: np.broadcast_to(
            np.asarray(mu(tm, x_grid), dtype=float), x_grid.shape
        ).copy()
    raise DomainError("mu must be a DriftField or a callable (t, x) -> drift")


def solve_distorted_pde(mu, g, s_min, t_end, x_grid, n_steps=400):
    """Backward CN sweep of d_s u + 1/2 d_xx u + mu d_x u = 0 on n_steps
    equal steps from t_end back to s_min.

    Marches the time-reversed equation with reflecting boundaries and two
    Rannacher start steps; slices are clipped to the payload range and
    projected monotone, with both magnitudes recorded on the solution.  A
    visible payload gradient at the spatial boundary means the domain cut
    off transported mass, reported as an accuracy error."""
    x = np.asarray(x_grid, dtype=float)
    uniform_spacing(x)
    if not (0.0 <= s_min < t_end):
        raise DomainError("solve_distorted_pde: need 0 <= s_min < t_end")
    s_grid = np.linspace(s_min, t_end, n_steps + 1)
    g_vals = _payload_on_grid(g, x)
    vel = _velocity_from(mu, x)
    tau = t_end - s_grid[::-1]

    u_tau = march(
        g_vals, x, tau, 0.5, lambda tm: vel(t_end - tm),
        bc="neumann", theta=0.5, rannacher=2, keep_all=True,
    )
    u = u_tau[::-1]
    dx = x[1] - x[0]
    rng_g = (float(np.min(g_vals)), float(np.max(g_vals)))
    # a near-constant payload has no boundary layer to detect; floor the
    # normalization at roundoff scale of the payload magnitude
    span = max(rng_g[1] - rng_g[0], 1e-9 * (1.0 + abs(rng_g[1])))
    edge = max(
        float(np.max(np.abs(u[:, 1] - u[:, 0]))),
        float(np.max(np.abs(u[:, -1] - u[:, -2]))),
    ) / (dx * span)
    if edge > 1e-4:
        raise AccuracyError(
            f"solve_distorted_pde: boundary gradient {edge:.2e} (payload range "
            "per unit x); widen x_grid"
        )
    return PDESolution(s_grid, x, u, g_range=rng_g)


# ---------------------------------------------------------------------------
# Monte Carlo of the distorted dynamics

@dataclass(frozen=True)
class QSimResult:
    mean: float
    std_error: float
    paths: int
    seed: int
    extrapolations: int


def simulate_q_dynamics(mu, s, x, t, paths=100_000, steps=200, seed=0, g=None):
    """Euler scheme for the distorted dynamics (unit sigma) from (s, x) to time t.

    Drift queries outside the field hold the nearest value and are counted.
    Returns mean and batch-means standard error of g at the terminal time
    (identity payoff if g is None).

    A DriftField is read through DriftField.table, built once per call: the
    drift rows at the step times and their slopes, 16 * steps * nx bytes
    (2.6 MB for 100 steps on 1601 nodes).  The batches of
    density.batch_generators run through density.run_batches, one share per
    core, _EULER_GROUP consecutive batches stepped side by side as one row;
    each worker holds one (steps, row width) noise buffer, step k reading
    one contiguous row (8 MB for 100k paths x 100 steps).  A callable mu is
    called from the worker threads on those rows, and g on each batch's
    slice of them, so both must be pure elementwise functions.  Results
    equal a per-batch, per-step loop that clips the paths to the grid and
    reads the blended row by np.interp, bit for bit, whatever the worker
    count; the extrapolation count is added to mu.extrapolations here, in
    the calling thread, once the call succeeds."""
    if not (isinstance(mu, DriftField) or callable(mu)):
        raise DomainError("simulate_q_dynamics: mu must be a DriftField or callable")
    if not (s < t):
        raise DomainError("simulate_q_dynamics: need s < t")
    if paths < 1 or steps < 1:
        raise DomainError("simulate_q_dynamics: need paths >= 1 and steps >= 1")
    dt = (t - s) / steps
    sqdt = math.sqrt(dt)
    times = s + np.arange(steps) * dt
    if isinstance(mu, DriftField):
        look = mu.table(times)
    else:
        look = lambda k, xs: (
            np.broadcast_to(np.asarray(mu(float(times[k]), xs), dtype=float), xs.shape), 0
        )

    def work(buf, batches):
        noise, draw = buf
        sizes = [size for _, size, _ in batches]
        rows = noise[:, :sum(sizes)]
        start = 0
        for _, size, rng in batches:
            draw_normals(rng, rows[:, start:start + size], draw)
            start += size
        rows *= sqdt
        cur = np.full(rows.shape[1], float(x))
        n_out = 0
        for k in range(steps):
            drift, n = look(k, cur)
            n_out += n
            step = drift * dt
            step += cur
            step += rows[k]
            cur = step
        if not np.all(np.isfinite(cur)):
            raise NumericError("simulate_q_dynamics: paths diverged")
        ends = np.cumsum(sizes)[:-1]
        means = [np.mean(g(part) if g is not None else part) for part in np.split(cur, ends)]
        return means, n_out

    done = run_batches(
        seed, paths, work, lambda width: (np.empty((steps, width)), normals_buffer(steps)),
        group=_EULER_GROUP,
    )
    means = np.asarray([m for group_means, _ in done for m in group_means], dtype=float)
    mean = float(np.mean(means))
    se = (
        float(np.std(means, ddof=1) / np.sqrt(len(means)))
        if len(means) > 1 else float("nan")
    )
    n_extrap = sum(n for _, n in done)
    if isinstance(mu, DriftField):
        mu.extrapolations += n_extrap
    return QSimResult(mean=mean, std_error=se, paths=paths, seed=seed,
                      extrapolations=n_extrap)


def pde_mc_check(mu, sol, g, probes, t_end, paths, steps, seed):
    """The value PDE solution sol against Euler Monte Carlo of the dynamics
    with drift mu: at each probe (s, x), the gap between u(s, x) and the
    mean of g(X_t_end) against 3 SE + 1e-3.

    Returns the table (columns s, x, pde, mc, se, gap) and the worst excess
    of a gap over its allowance.  Positive means rejected.  The standard
    error comes from batch means, so paths must be at least 2.  Every probe
    is read off sol, and must lie before t_end, before any path is
    simulated; a DomainError names the first probe that does not."""
    if paths < 2:
        raise DomainError(
            f"pde_mc_check: paths={paths} gives no standard error; need paths >= 2"
        )
    read = []
    for s, x in probes:
        s, x = float(s), float(x)
        where = f"pde_mc_check: probe (s={s}, x={x})"
        if not s < t_end:
            raise DomainError(f"{where} is not before t_end={t_end}")
        try:
            read.append((s, x, sol.u_at(s, x)))
        except DomainError as exc:
            raise DomainError(f"{where}: {exc}") from exc
    cols = {k: [] for k in ("s", "x", "pde", "mc", "se", "gap")}
    worst = -float("inf")
    for s, x, u_val in read:
        res = simulate_q_dynamics(mu, s, x, t_end, paths=paths, steps=steps, seed=seed, g=g)
        gap = abs(u_val - res.mean)
        worst = max(worst, gap - (3.0 * res.std_error + 1e-3))
        for col, v in zip(cols.values(), (s, x, u_val, res.mean, res.std_error, gap)):
            col.append(v)
    return cols, worst


# ---------------------------------------------------------------------------
# the dynamic distortion curve

def _invert_decreasing(fn, lo, hi, v_lo, v_hi, targets):
    """Bisection inverses of a decreasing curve to 1e-12, all targets at once.

    fn maps an array of y to its values.  Each target runs its own bisection
    on [lo, hi] (v_lo and v_hi the values there), with its own stop and at
    most 200 halvings; a target at or past v_lo or v_hi returns lo or hi.
    Equal values form a flat stretch; the tie goes to the smaller y, so
    equality at the midpoint pulls the right bracket in."""
    targets = np.asarray(targets, dtype=float)
    lo = np.full(targets.shape, float(lo))
    hi = np.full(targets.shape, float(hi))
    run = (targets < v_lo) & (targets > v_hi)
    for _ in range(200):
        run &= hi - lo > 1e-12 * np.maximum(np.maximum(1.0, np.abs(lo)), np.abs(hi))
        if not run.any():
            break
        mid = 0.5 * (lo + hi)
        above = fn(mid) > targets
        lo = np.where(run & above, mid, lo)
        hi = np.where(run & ~above, mid, hi)
    return np.where(targets >= v_lo, lo, hi)


def _sqrt_graded(s, t, n):
    """Time points with equal sqrt increments; resolves drifts ~ 1/sqrt(t)."""
    root = np.linspace(math.sqrt(s), math.sqrt(t), n + 1)
    grid = root**2
    grid[0], grid[-1] = s, t
    return grid


def _smoothed_indicators(y_grid, x, width):
    z = (x[None, :] - y_grid[:, None]) / width
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _interp_weights(x_grid, xq):
    """Weights e with e @ f == np.interp(xq, x_grid, f), to roundoff, for xq in the grid."""
    j = int(np.clip(np.searchsorted(x_grid, xq) - 1, 0, x_grid.size - 2))
    frac = (xq - x_grid[j]) / (x_grid[j + 1] - x_grid[j])
    e = np.zeros(x_grid.size)
    e[j], e[j + 1] = 1.0 - frac, frac
    return e


def _debias_smoothed(y_grid, surv, width):
    """Remove the leading smoothing bias of the logistic payload.

    The smoothed indicator equals the exact survival convolved in y with a
    logistic kernel of variance pi^2 width^2 / 3, so subtracting
    var/2 * d2 surv / dy2 cancels the second-order term."""
    var = (math.pi * width) ** 2 / 3.0
    d2 = np.gradient(np.gradient(surv, y_grid), y_grid)
    return surv - 0.5 * var * d2


def _field_equals_drift(mu_field, drift):
    """True when every drift-field row equals the base drift bit for bit."""
    for i, ti in enumerate(mu_field.t_grid):
        row = np.asarray(drift(float(ti), mu_field.x_grid), dtype=float)
        row = np.broadcast_to(row, mu_field.x_grid.shape)
        if not np.array_equal(mu_field.mu[i], row):
            return False
    return True


def _trimmed_pde_field(spec, s, t, nx, half):
    """Survival-PDE field of spec on [s, t], trimmed to usable density, and
    the x grid it was solved on (nx points within 8 sqrt(T) of x0).

    A survival field carried in floats saturates at G = 1 near seven
    standard deviations, where the density read off the grid collapses to
    exact zeros.  The field keeps the times from s on (to 1e-12) and the x
    within min(half, 7 sqrt(s)) of x0, stopping short of the first x on
    either side of x0 whose density is exactly 0 at a kept time; callers
    extend the drift past the trimmed edges."""
    wide_half = 8.0 * math.sqrt(spec.T)
    wide = np.linspace(spec.x0 - wide_half, spec.x0 + wide_half, nx)
    full = solve_survival_pde(spec, np.linspace(1e-3, t, 801), wide)
    keep_t = full.t_grid >= s - 1e-12
    keep_x = np.abs(wide - spec.x0) <= min(half, 7.0 * math.sqrt(s)) + 1e-12
    zero = np.flatnonzero((full.rho == 0.0)[keep_t].any(axis=0))
    k0 = int(np.argmin(np.abs(wide - spec.x0)))
    keep_x[: np.max(zero[zero < k0], initial=-1) + 1] = False
    keep_x[np.min(zero[zero > k0], initial=wide.size):] = False
    cells = np.ix_(keep_t, keep_x)
    field = DensityField(full.t_grid[keep_t], wide[keep_x], full.rho[cells],
                         full.G[cells], G_comp=full.G_comp[cells])
    return field, wide


def build_phi_curve(d, spec, s, t, x, p_grid=None, drift_const=None, mu=None,
                    s_min=None, n_steps=800, n_march=1601, n_y=161):
    """Assemble Phi(s, t, x; .) by pairing conditional survival curves.

    The undistorted curve Gp comes from the Gaussian closed form when the
    drift is declared constant (drift_const), else from a survival-PDE
    restart at (s, x) regularized to a narrow Gaussian.  The distorted curve
    Gq solves the backward value PDE for a sweep of smoothed indicator
    payloads read at x; by discrete duality all of them come from one
    adjoint (Kolmogorov forward) march of the probe at x, paired with each
    payload.  The smoothing bias is then removed.  The y probes span 3.9
    sqrt(t - s) on either side of the drifted center.
    The drift of the distorted dynamics is taken from mu when given (field
    or callable), else computed from a Gaussian field for constant drift, or
    from the trimmed survival-PDE field (_trimmed_pde_field).  The inverse
    of Gp is taken by bisection to 1e-12, ties toward the smaller y."""
    if s <= 0.0:
        raise DomainError(
            "build_phi_curve: s = 0 is rejected; the time-zero law is a point "
            "mass and the curve is the static distortion by definition"
        )
    if s_min is None:
        s_min = 0.01 * spec.T
    if s < s_min:
        raise DomainError(
            f"build_phi_curve: s={s} below s_min={s_min}; pass s_min explicitly "
            "to query conditional curves this close to time zero"
        )
    if not (s < t <= spec.T + 1e-12):
        raise DomainError("build_phi_curve: need 0 < s < t <= T")
    if p_grid is None:
        p_grid = np.linspace(0.002, 0.998, 499)
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any((p_grid < 0.0) | (p_grid > 1.0)):
        raise DomainError("build_phi_curve: p_grid must lie in [0, 1]")

    gap = t - s
    sq_gap = math.sqrt(gap)
    if drift_const is not None:
        b_sx = float(drift_const)
    else:
        b_sx = float(np.asarray(spec.drift(s, np.asarray([x], dtype=float)))[0])
    center = x + b_sx * gap
    y_grid = np.linspace(center - _Y_WIDTH * sq_gap, center + _Y_WIDTH * sq_gap, n_y)

    # undistorted conditional survival at the y probes
    if drift_const is not None:
        surv_p = normal.sf((y_grid - center) / sq_gap)
    else:
        half_c = (_Y_WIDTH + 5.0) * sq_gap
        xg_c = np.linspace(x - half_c, x + half_c, max(n_march, 2401))
        tg_c = np.linspace(s, t, 401)
        cond = solve_survival_pde(spec, tg_c, xg_c, initial=(x + b_sx * 1e-4, 1e-4))
        surv_p = np.interp(y_grid, xg_c, cond.G[-1])

    # march domain for the distorted survival sweep, centered on the anchor
    # so the evaluation point is an exact node
    half_m = (_Y_WIDTH + 5.6) * sq_gap + abs(center - x)
    pde_x = x + np.linspace(-half_m, half_m, n_march)
    dx = pde_x[1] - pde_x[0]

    mu_src = "given"
    if mu is None:
        if drift_const is not None:
            half_f = min(half_m + abs(x - spec.x0), _Z_USABLE * math.sqrt(s))
            nf = max(801, int(2.0 * half_f / dx) | 1)
            xg_f = np.linspace(spec.x0 - half_f, spec.x0 + half_f, nf)
            field = gaussian_field(spec.x0, _sqrt_graded(s, t, 200), xg_f, drift=b_sx)
            mu_src = "gaussian-field"
        else:
            # the march extends the trimmed drift by the edge slope
            field, _ = _trimmed_pde_field(spec, s, t, max(n_march, 1601),
                                          half_m + abs(x - spec.x0))
            mu_src = "pde-field"
        mu = compute_mu(d, field, spec.drift)
    knots_p = np.concatenate(([0.0], np.unique(p_grid[(p_grid > 0.0) & (p_grid < 1.0)]), [1.0]))

    # when the computed drift equals the base drift bit for bit (identity
    # schedule, any base dynamics) the distorted and undistorted survival
    # curves solve the same PDE from the same data, so the pairing is the
    # diagonal exactly; return it without a march
    if isinstance(mu, DriftField) and _field_equals_drift(mu, spec.drift):
        return PhiCurve(
            s=float(s), t=float(t), x=float(x), p_grid=knots_p, values=knots_p.copy(),
            y_grid=y_grid, surv_p=surv_p, surv_q=surv_p.copy(),
            meta={"distortion": d.to_dict(), "mu_source": mu_src,
                  "debias": 0.0, "identity_dynamics": True},
        )

    # distorted conditional survival: the backward value march of every
    # smoothed-indicator payload, read at x, equals the payloads paired with
    # one adjoint march of the interpolation weights of x
    width = 2.0 * dx
    payloads = _smoothed_indicators(y_grid, pde_x, width)
    vel = _velocity_from(mu, pde_x)
    r_grid = _sqrt_graded(s, t, n_steps)
    tau = t - r_grid[::-1]
    w = march_adjoint(
        _interp_weights(pde_x, x), pde_x, tau, 0.5, lambda tm: vel(t - tm),
        bc="neumann", theta=0.5, rannacher=2,
    )
    surv_q_raw = np.clip(payloads @ w, 0.0, 1.0)
    surv_q = np.clip(_debias_smoothed(y_grid, surv_q_raw, width), 0.0, 1.0)
    surv_q = np.minimum.accumulate(surv_q)

    # cubic interpolants keep the curve pairing from reintroducing the
    # O(dy^2) kink error of piecewise-linear reads
    if drift_const is not None:
        gp = lambda yv: normal.sf((yv - center) / sq_gap)
    else:
        gp = CubicSpline(y_grid, surv_p)
    y_star = _invert_decreasing(gp, y_grid[0], y_grid[-1],
                                float(surv_p[0]), float(surv_p[-1]), knots_p[1:-1])
    knots_v = np.concatenate(([0.0], np.clip(CubicSpline(y_grid, surv_q)(y_star), 0.0, 1.0),
                              [1.0]))
    debias_mag = float(np.max(np.abs(surv_q - np.clip(surv_q_raw, 0.0, 1.0))))
    return PhiCurve(
        s=float(s), t=float(t), x=float(x),
        p_grid=knots_p, values=knots_v,
        y_grid=y_grid, surv_p=surv_p, surv_q=surv_q,
        meta={"distortion": d.to_dict(), "mu_source": mu_src, "debias": debias_mag},
    )


def wang_phi_closed(alpha, s, t):
    """Closed-form curve for the quantile-shift family with b = 0."""
    shift = alpha * (math.sqrt(t) - math.sqrt(s)) / math.sqrt(t - s)

    def curve(p):
        arr = np.asarray(p, dtype=float)
        inner = np.clip(arr, 1e-300, 1.0 - 1e-16)
        out = normal.cdf(normal.quantile(inner) + shift)
        out = np.where(arr <= 0.0, 0.0, np.where(arr >= 1.0, 1.0, out))
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out

    return curve


def wang_value_closed(alpha, g, s, t_end, x):
    """Quadrature reference for the distorted value of an increasing payload
    under the quantile-shift family with b = 0:

        u(s, x) = E[ g(x + alpha (sqrt(t_end) - sqrt(s)) + Z sqrt(t_end - s)) ].
    """
    shift = alpha * (math.sqrt(t_end) - math.sqrt(s))
    sq = math.sqrt(t_end - s)
    z = np.linspace(-12.0, 12.0, 4801)
    w = normal.pdf(z)
    vals = np.asarray(g(x + shift + sq * z), dtype=float)
    return float(np.trapezoid(vals * w, z))


# ---------------------------------------------------------------------------
# lattice discretization and convergence

def lattice_from_diffusion(spec, N):
    """Binomial lattice on the sqrt(h) grid with moment-matched transitions:
    states x0 + (2j - i) sqrt(h), up-probability 1/2 + 1/2 b sqrt(h).

    The one-step mean is b h exactly and the raw second moment is h, so the
    variance is h - (b h)^2."""
    if N < 1:
        raise DomainError("lattice_from_diffusion: need N >= 1")
    h = spec.T / N
    sq = math.sqrt(h)
    times = np.linspace(0.0, spec.T, N + 1)
    states = [spec.x0 + (2.0 * np.arange(i + 1) - i) * sq for i in range(N + 1)]
    up_prob = []
    for i in range(N):
        b_row = np.broadcast_to(
            np.asarray(spec.drift(times[i], states[i]), dtype=float), states[i].shape
        )
        p = 0.5 + 0.5 * b_row * sq
        if not np.all((p > 0.0) & (p < 1.0)):
            bad = ~np.isfinite(b_row)
            if bad.any():
                j = int(np.argmax(bad))
                raise DomainError(
                    f"lattice_from_diffusion: drift {b_row[j]} at level {i}, "
                    f"state {states[i][j]} is not finite"
                )
            worst = float(np.max(np.abs(b_row)))
            n_min = int(math.ceil(spec.T * worst**2)) + 1
            raise DomainError(
                f"lattice_from_diffusion: |b| sqrt(h) >= 1 at level {i}; "
                f"this drift needs N > {n_min}"
            )
        up_prob.append(np.asarray(p, dtype=float))
    return TreeModel(times, states, up_prob)


@dataclass(frozen=True)
class ConvergenceReport:
    N_list: list
    errors: list
    slope: float
    skipped: list
    reference: float


def convergence_study(spec, d, g, N_list, eval_t, eval_x, u_ref=None, strict=True):
    """Backward-induction values on refining lattices against a PDE reference.

    The reference is u_ref, or when None the value PDE at (eval_t, eval_x)
    with the drift computed on the trimmed survival-PDE field
    (_trimmed_pde_field) from eval_t on.  Each N gets its own survival
    weights and distorted transitions; the value is read at (eval_t,
    eval_x), interpolated across the level when the state is off-lattice.  Lattices whose transitions violate the
    interleaving condition are skipped and reported.  The slope is the
    least-squares fit of log error against log N."""
    if u_ref is None:
        trimmed, xg = _trimmed_pde_field(spec, eval_t, spec.T, 1601, math.inf)
        mu = compute_mu(d, trimmed, spec.drift)
        sol = solve_distorted_pde(mu, g, eval_t, spec.T, xg, n_steps=800)
        u_ref = sol.u_at(eval_t, eval_x)
    errors = []
    used = []
    skipped = []
    for N in N_list:
        tree = lattice_from_diffusion(spec, int(N))
        try:
            dt_tree = distort_tree(tree, d, strict=strict)
        except ConsistencyError:
            skipped.append(int(N))
            continue
        g_term = _payload_on_grid(g, tree.states[-1])
        levels = backward_induction(dt_tree, g_term)
        i_float = eval_t / (spec.T / int(N))
        i = int(round(i_float))
        if abs(i_float - i) > 1e-9:
            raise DomainError(
                f"convergence_study: eval_t={eval_t} is not a lattice level "
                f"for N={N}"
            )
        val = float(np.interp(eval_x, tree.states[i], levels[i]))
        errors.append(abs(val - u_ref))
        used.append(int(N))
    slope = float("nan")
    if len(used) >= 2:
        A = np.vstack([np.log(np.asarray(used, float)), np.ones(len(used))]).T
        coef, *_ = np.linalg.lstsq(A, np.log(np.maximum(errors, 1e-300)), rcond=None)
        slope = float(coef[0])
    return ConvergenceReport(
        N_list=used, errors=[float(e) for e in errors], slope=slope,
        skipped=skipped, reference=float(u_ref),
    )
