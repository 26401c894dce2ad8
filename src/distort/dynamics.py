"""Distorted dynamics in continuous time.

Under the distorted measure, values of increasing payoffs become ordinary
conditional expectations of a unit-sigma diffusion whose drift picks up two
correction terms along the survival field G(t, x) of the original process:

    mu(t, x) = b + dt_phi(t, G) / (dp_phi(t, G) rho)
                 - rho dpp_phi(t, G) / (2 dp_phi(t, G)).

mu(t, .) reads only that time's G, 1 - G and rho, so it is formed one time
at a time (_mu_row), from the rows of a field, of a survival march read a
block at a time, or of the Gaussian closed form; the last two never hold
the law over the whole (t, x) grid.

This module evaluates mu, solves the backward value PDE, simulates the
distorted dynamics, assembles the dynamic distortion curve

    Phi(s, t, x; p) = Gq(Gp^{-1}(p))

from the paired conditional survival curves, and discretizes the diffusion
to a binomial lattice for convergence studies against the PDE.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import normal
from ._cn import march, march_adjoint, uniform_spacing
from .density import (
    ConstantDrift,
    _whole,
    blend_rows,
    bounded_read,
    bounded_rows,
    draw_normals,
    gaussian_field,
    normals_buffer,
    owned,
    row_blocks,
    run_batches,
    survival_blocks,
)
from .distortion import EPS_P
from .errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    SingularityError,
)
from .tree import (
    PhiCurve,
    TreeModel,
    _constant_level,
    _grid_levels,
    _terminal_values,
    _triangle_levels,
    backward_induction,
    distort_tree,
)

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
    """Piecewise-linear reads on one x grid in np.interp's arithmetic.

    cells(xs) gives each query's cell j (x_j <= x < x_j+1; the last node
    for x on it) and offset x - x_j; table(row) puts a row above its cell
    slopes; read gathers both at the cells in one take and returns
    slope * offset + row[j], with row[j] itself where on_node holds, as
    np.interp returns it on a node.  Inside the grid, with on_node =
    (offset == 0), that is np.interp bit for bit.  The caller sets what
    happens past the grid: it clips its queries to the grid before cells,
    then keeps that offset (the edge value held) or the unclipped one (the
    edge slope extended).  A uniform grid finds j by index arithmetic,
    trunc((x - x0) / dx), corrected by one against the nodes; a grid whose
    nodes stray a quarter cell or more from x0 + k dx uses np.searchsorted.
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

    def cells(self, xs):
        """(j, xs - x_j) for xs within the grid."""
        xg = self.x_grid
        if self.uniform:
            j = ((xs - self.lo) / self.dx).astype(np.intp)
            j -= xs < np.take(xg, j, mode="clip")
            j += xs >= np.take(self._next, j, mode="clip")
        else:
            j = np.searchsorted(xg, xs, side="right") - 1
        return j, xs - np.take(xg, j, mode="clip")

    def table(self, row):
        """The (2, nx) table of one row: the row above its cell slopes, the
        last node taking the last cell's slope."""
        tab = np.empty((2, row.size))
        tab[0] = row
        np.subtract(row[1:], row[:-1], out=tab[1, :-1])
        tab[1, :-1] /= self._cell_dx
        tab[1, -1] = tab[1, -2]
        return tab

    @staticmethod
    def read(table, j, offset, on_node):
        """slope * offset + row[j] at the cells j of one (2, nx) table, and
        row[j] itself where on_node holds."""
        at = np.take(table, j, axis=1, mode="clip")
        out = at[1] * offset
        out += at[0]
        np.copyto(out, at[0], where=on_node)
        return out


@dataclass(frozen=True)
class DriftField:
    """mu(t, x) on a grid, with interpolation and extension.

    Rows are blended linearly in t (held at the time ends) and read in x by
    one GridLookup; reading changes nothing.  reader(nodes) serves a march:
    it finds the fixed nodes' cells once and extends the drift past the
    grid by the edge slope.  table(times) serves the Euler engine: it holds
    the edge value past the grid, where a path may wander without bound.
    clamps counts the survival cells that compute_mu clamped into [EPS_P,
    1 - EPS_P] (0 for a field built otherwise).
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    mu: np.ndarray
    clamps: int = 0

    def __post_init__(self):
        for name in ("t_grid", "x_grid", "mu"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
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
        object.__setattr__(self, "_lookup", GridLookup(self.x_grid))

    def row_at(self, t):
        """Drift slice at time t on the field's x grid (time held at the ends)."""
        return blend_rows(self.t_grid, t, self.mu)

    def table(self, times):
        """look(k, xs) -> (the drift at (times[k], xs) with xs clipped to
        the grid, the count of xs outside it), from the tables of all times
        built once into one array, 16 bytes per node per time.

        look changes nothing, so worker threads may share it; the caller
        sums the counts."""
        lookup = self._lookup
        tables = np.empty((len(times), 2, self.x_grid.size))
        for k, t in enumerate(times):
            tables[k] = lookup.table(self.row_at(t))

        def look(k, xs):
            xc = np.minimum(np.maximum(xs, lookup.lo), lookup.hi)
            j, offset = lookup.cells(xc)
            out = lookup.read(tables[k], j, offset, offset == 0.0)
            return out, int(np.count_nonzero(xc != xs))

        return look

    def reader(self, nodes):
        """(read, outside): read(t) is the row blended at t at the 1-D array
        nodes, extended past the grid by the edge slope, and outside counts
        the nodes past the grid.  Their cells are found once."""
        nodes = np.asarray(nodes, dtype=float)
        lookup = self._lookup
        xc = np.minimum(np.maximum(nodes, lookup.lo), lookup.hi)
        j, _ = lookup.cells(xc)
        offset = nodes - np.take(self.x_grid, j, mode="clip")
        on_node = offset == 0.0

        def read(t):
            return lookup.read(lookup.table(self.row_at(t)), j, offset, on_node)

        return read, int(np.count_nonzero(xc != nodes))

    def growth_constant(self):
        """max |mu| / (1 + |x - c|) over the grid, c its midpoint (the
        linear-growth gauge)."""
        c = 0.5 * (self.x_grid[0] + self.x_grid[-1])
        scale = 1.0 + np.abs(self.x_grid - c)
        return float(np.max(np.abs(self.mu) / scale))


def compute_mu(d, field, b):
    """Distorted drift on the field's grid for unit sigma.

    Both ratios are evaluated through the (p, 1-p) pair so that deep-tail
    cells keep the exact cancellation between a huge curvature ratio, or a
    tiny time ratio, and a tiny density; a clamped evaluation would zero the
    drift out there, or blow it up.  Each G
    cell that the derivatives clamp into [EPS_P, 1 - EPS_P] counts once.
    """
    return _drift_of_rows(d, field.t_grid, field.x_grid,
                          zip(field.G, field.G_comp, field.rho), b)


def _drift_of_rows(d, t_grid, x, rows, b):
    """compute_mu's DriftField from rows, one (G, 1 - G, rho) per time of
    t_grid on the nodes x, each read once and then dropped."""
    mu = np.empty((t_grid.size, x.size))
    clamps = 0
    for i, (t, (g_row, c_row, rho_row)) in enumerate(zip(t_grid, rows)):
        clamps += int(np.count_nonzero(_clamped(g_row)))
        mu[i] = _mu_row(d, t, x, g_row, c_row, rho_row, b)
    return DriftField(t_grid.copy(), x.copy(), mu, clamps)


def _gaussian_drift(d, x0, t_grid, x_grid, drift, b):
    """compute_mu(d, gaussian_field(x0, t_grid, x_grid, drift), b) bit for
    bit, the field formed one time at a time, so only the drift is held
    over the whole grid.  The times are first checked as the whole field
    checks them, on one column."""
    gaussian_field(x0, t_grid, x_grid[:1], drift)
    fields = (gaussian_field(x0, t_grid[i:i + 1], x_grid, drift) for i in range(t_grid.size))
    return _drift_of_rows(d, t_grid, x_grid, ((f.G[0], f.G_comp[0], f.rho[0]) for f in fields), b)


def _clamped(g_row):
    """The G cells that the derivatives clamp into [EPS_P, 1 - EPS_P]."""
    return (g_row < EPS_P) | (g_row > 1.0 - EPS_P)


def _raise_singular(t, x, bad, denom):
    """The SingularityError of the first cell where bad holds in a row at
    time t on the nodes x, denom its dp_phi * rho."""
    j = int(np.argmax(bad))
    raise SingularityError(
        f"distorted drift singular at t={t}, x={x[j]} "
        f"(dp_phi * rho = {denom[j]:.3e}); restrict the field to cells "
        "with usable density"
    )


def _mu_row(d, t, x, g_row, c_row, rho_row, b, singular=_raise_singular):
    """mu at time t on the nodes x from that time's G, 1 - G and rho: the
    one place the drift is formed.  Where dp_phi * rho lies below the floor,
    singular(t, x, bad, denom) is called before either ratio is read; the
    default raises for the first such cell."""
    dp = np.asarray(d.derivatives(t, g_row), dtype=float)
    denom = dp * rho_row
    bad = denom < _DENOM_FLOOR
    if np.any(bad):
        singular(t, x, bad, denom)
    tr = np.asarray(d.time_ratio(t, g_row, c_row), dtype=float)
    cr = np.asarray(d.curvature_ratio(t, g_row, c_row), dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        time_term = np.where(tr == 0.0, 0.0, tr / rho_row)
    curv_term = 0.5 * cr * rho_row
    return np.asarray(b(t, x), dtype=float) + time_term - curv_term


def smoothed_step_payload(center=0.2, width=0.25):
    """Bounded increasing payload: a tanh ramp from 0 to 1 around center."""
    c, w = float(center), float(width)
    if w <= 0.0:
        raise DomainError("smoothed_step_payload: width must be positive")
    return lambda x: 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - c) / w))


def _wang_root_power(t, k):
    """t**(k + 1/2) as t**k sqrt(t), so that m(t) = alpha t**(k + 1/2), the
    mean shift of the time-shifted Wang family, takes no power at k = 0."""
    return t**k * np.sqrt(t)


def wang_mu_closed(alpha, k=0.0):
    """The exact distorted drift of Wang(alpha, k) with b = 0: m'(t) =
    alpha (k + 1/2) t**k / sqrt(t), alpha / (2 sqrt(t)) at k = 0."""
    a, k = float(alpha), float(k)

    def mu(t, x):
        t = np.asarray(t, dtype=float)
        return (a * (k + 0.5) * t**k / np.sqrt(t)) * np.ones_like(np.asarray(x, dtype=float))

    return mu


# ---------------------------------------------------------------------------
# backward value PDE

@dataclass(frozen=True)
class PDESolution:
    """u(s, x) with u(t_end, .) = g; increasing slices, maximum principle.

    Like DensityField, the solution takes over the u it is given and clips
    and projects it in place.  extrapolations counts the drift reads of the
    march outside the drift's grid, one per node and step."""

    s_grid: np.ndarray
    x_grid: np.ndarray
    u: np.ndarray
    g_range: tuple
    projection: float = 0.0
    max_principle_defect: float = 0.0
    extrapolations: int = 0

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=float)
        x = np.asarray(self.x_grid, dtype=float)
        u = owned(self.u)
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
        np.clip(u, lo, hi, out=u)
        projection = 0.0
        for blk in row_blocks(u):
            clipped = blk.copy()
            np.maximum.accumulate(blk, axis=1, out=blk)
            projection = max(projection, float(np.max(np.abs(blk - clipped))))
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "max_principle_defect", defect)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "u", u)

    def u_at(self, s, x):
        """u(s, x), blended linearly in s and interpolated in x; DomainError
        for s or x outside the grids."""
        return bounded_read(self.x_grid, bounded_rows(self.s_grid, s, self.u), x)


def _velocity_from(mu, x_grid):
    """(read, outside): the march's drift reader t -> mu(t, x_grid) on its
    fixed nodes, and how many of those nodes lie outside a DriftField's
    grid (see DriftField.reader).  A callable's value is passed on as it
    is (a scalar or any shape that broadcasts to the grid); the march's
    bands broadcast it.  A ConstantDrift is read once, as the fixed array
    every call would return, so the march builds its bands once."""
    if isinstance(mu, DriftField):
        return mu.reader(x_grid)
    if isinstance(mu, ConstantDrift):
        return mu(0.0, x_grid), 0
    if callable(mu):
        return (lambda tm: mu(tm, x_grid)), 0
    raise DomainError("mu must be a DriftField or a callable (t, x) -> drift")


def _reversed(vel, t_end):
    """The velocity of a march in reversed time tau = t_end - t: vel read
    at t_end - tau, a fixed array as it is."""
    return (lambda tm: vel(t_end - tm)) if callable(vel) else vel


def solve_distorted_pde(mu, g, s_min, t_end, x_grid, n_steps=400):
    """Backward CN sweep of d_s u + 1/2 d_xx u + mu d_x u = 0 on n_steps
    equal steps from t_end back to s_min.

    Marches the time-reversed equation with reflecting boundaries and two
    Rannacher start steps; slices are clipped to the payload range and
    projected monotone, with both magnitudes and the count of drift reads
    outside the drift's grid recorded on the solution.  A
    visible payload gradient at the spatial boundary means the domain cut
    off transported mass, reported as an accuracy error.  The payload g (its
    values on x_grid, or a callable giving them) is checked once, as
    tree._terminal_values checks a lattice's: finite and nondecreasing."""
    x = np.asarray(x_grid, dtype=float)
    uniform_spacing(x)
    if not (0.0 <= s_min < t_end):
        raise DomainError("solve_distorted_pde: need 0 <= s_min < t_end")
    n_steps = _whole(n_steps, "solve_distorted_pde: n_steps")
    s_grid = np.linspace(s_min, t_end, n_steps + 1)
    g_vals = _terminal_values(g(x) if callable(g) else g, x.size - 1, "solve_distorted_pde")
    vel, n_out = _velocity_from(mu, x)
    tau = t_end - s_grid[::-1]

    u_tau = march(g_vals, x, tau, 0.5, _reversed(vel, t_end), bc="neumann", rannacher=2)
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
    return PDESolution(s_grid, x, u, g_range=rng_g, extrapolations=n_out * n_steps)


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
    (identity payoff if g is None).  A DomainError names a non-finite s, t
    or x, or a non-integral paths or steps, before any path is drawn.

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
    count, and so does the count of drift queries outside the grid."""
    if not (isinstance(mu, DriftField) or callable(mu)):
        raise DomainError("simulate_q_dynamics: mu must be a DriftField or callable")
    for name, v in (("s", s), ("t", t), ("x", x)):
        if not math.isfinite(v):
            raise DomainError(f"simulate_q_dynamics: {name}={v} must be finite")
    if not (s < t):
        raise DomainError("simulate_q_dynamics: need s < t")
    paths = _whole(paths, "simulate_q_dynamics: paths")
    steps = _whole(steps, "simulate_q_dynamics: steps")
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
    return QSimResult(mean=mean, std_error=se, paths=paths, seed=seed,
                      extrapolations=sum(n for _, n in done))


def pde_mc_check(mu, sol, g, probes, t_end, paths, steps, seed):
    """The value PDE solution sol against Euler Monte Carlo of the dynamics
    with drift mu: at each probe (s, x), the gap between u(s, x) and the
    mean of g(X_t_end) against 3 SE + 1e-3.

    Returns the table (columns s, x, pde, mc, se, gap), the worst excess of
    a gap over its allowance (positive means rejected) and the paths' drift
    queries outside the grid, summed over the probes.  The standard
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
    extrapolations = 0
    for s, x, u_val in read:
        res = simulate_q_dynamics(mu, s, x, t_end, paths=paths, steps=steps, seed=seed, g=g)
        extrapolations += res.extrapolations
        gap = abs(u_val - res.mean)
        worst = max(worst, gap - (3.0 * res.std_error + 1e-3))
        for col, v in zip(cols.values(), (s, x, u_val, res.mean, res.std_error, gap)):
            col.append(v)
    return cols, worst, extrapolations


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


def _pde_window(spec, s, nx, half):
    """(wide, radius, near): the survival-PDE field's x grid, nx points
    within 8 sqrt(T) of x0, the half-width min(half, 7 sqrt(s)) of the
    drift's window, and the indices of the grid points within it."""
    wide_half = 8.0 * math.sqrt(spec.T)
    wide = np.linspace(spec.x0 - wide_half, spec.x0 + wide_half, nx)
    radius = min(half, 7.0 * math.sqrt(s))
    return wide, radius, np.flatnonzero(np.abs(wide - spec.x0) <= radius + 1e-12)


def _trimmed_pde_field(d, spec, s, t, nx, half):
    """The drift of spec's survival-PDE field on [s, t], trimmed to usable
    density, and the x grid the field was solved on (nx points within
    8 sqrt(T) of x0).

    A survival field carried in floats saturates at G = 1 near seven
    standard deviations, where the density read off the grid collapses to
    exact zeros.  The drift keeps the times from s on (to 1e-12) and the x
    within min(half, 7 sqrt(s)) of x0, stopping short of the first x on
    either side of x0 whose density is exactly 0 at a kept time; callers
    extend the drift past the trimmed edges.

    It equals compute_mu on solve_survival_pde's field on 801 times from
    1e-3 to t, cut to those cells, bit for bit, its clamps and its
    SingularityError included, and runs every check that field runs; but no
    array of the field's size is formed.  The march is read a block of rows
    at a time (survival_blocks), and each kept row's rho and G, projected by
    a running minimum from the first column, feed _mu_row on the columns not
    yet cut.  The cut only narrows as rows arrive, so clamps and the first
    singular cell are kept per column and read inside the final cut."""
    wide, radius, near = _pde_window(spec, s, nx, half)
    if near.size == 0:
        raise DomainError(f"_trimmed_pde_field: no grid point within {radius} of x0={spec.x0}")
    lo, hi = int(near[0]), int(near[-1]) + 1
    x = wide[lo:hi]
    k0 = int(np.argmin(np.abs(wide - spec.x0))) - lo
    t_grid, _, blocks = survival_blocks(spec, np.linspace(1e-3, t, 801), wide)
    r0 = int(np.searchsorted(t_grid, s - 1e-12))  # the kept times are a suffix
    times = t_grid[r0:]
    mu = np.empty((times.size, x.size))
    clamps = np.zeros(x.size, dtype=np.intp)
    first_bad = np.full(x.size, times.size)  # each column's first singular row
    bad_denom = np.empty(x.size)
    c0, c1 = 0, x.size  # the columns with density at every kept row so far

    def singular(t_i, x_row, bad, denom):
        # called from the current row's _mu_row: i and cols are that row's
        new = bad & (first_bad[cols] == times.size)
        first_bad[cols][new] = i
        bad_denom[cols][new] = denom[new]

    for a, G, rho in blocks:
        for r in range(max(r0 - a, 0), G.shape[0]):
            zero = np.flatnonzero(rho[r, lo:hi] == 0.0)
            c0 = max(c0, int(np.max(zero[zero < k0], initial=-1)) + 1)
            c1 = min(c1, int(np.min(zero[zero > k0], initial=x.size)))
            i, cols = a + r - r0, slice(c0, c1)
            g = np.minimum.accumulate(G[r, :lo + c1])[lo + c0:]
            clamps[cols] += _clamped(g)
            mu[i, cols] = _mu_row(d, times[i], x[cols], g, 1.0 - g,
                                  rho[r, lo + c0:lo + c1], spec.drift, singular)
    cut = slice(c0, c1)
    i = int(np.min(first_bad[cut]))
    if i < times.size:
        _raise_singular(times[i], x[cut], first_bad[cut] == i, bad_denom[cut])
    return DriftField(times.copy(), x[cut].copy(), mu[:, cut], int(np.sum(clamps[cut]))), wide


def build_phi_curve(d, spec, s, t, x, p_grid=None, drift_const=None, mu=None,
                    s_min=None, n_steps=800, n_march=1601, n_y=161):
    """Assemble Phi(s, t, x; .) by pairing conditional survival curves.

    Both curves solve the backward value PDE for a sweep of smoothed
    indicator payloads read at x, the distorted curve Gq with the drift mu
    and the undistorted curve Gp with the base drift; by discrete duality
    each sweep is one adjoint (Kolmogorov forward) march of the probe at x
    on the same grid and times, paired with each payload.  The smoothing
    bias is then removed.  When the drift is declared constant (drift_const)
    Gp is the Gaussian closed form instead; a drift_const that disagrees
    with the spec's ConstantDrift is a DomainError, and so is a size too
    small for the grids, named before any drift is built.  The y probes
    span 3.9 sqrt(t - s) on either side of the drifted center.
    The drift of the distorted dynamics is taken from mu when given (field
    or callable), else computed row by row from a Gaussian field for
    constant drift (_gaussian_drift), or from the trimmed survival-PDE field
    (_trimmed_pde_field); the clamps of
    a drift computed here go in meta["derivative_clamps"], and the march's
    drift reads outside the drift's grid, one per node and step, in
    meta["mu_extrapolations"].  The inverse
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
    for name, v in (("x", x), ("drift_const", drift_const)):
        if v is not None and not math.isfinite(v):
            raise DomainError(f"build_phi_curve: {name}={v} must be finite")
    if isinstance(spec.drift, ConstantDrift) and drift_const not in (None, spec.drift.c):
        raise DomainError(
            f"build_phi_curve: drift_const={drift_const} contradicts the spec's "
            f"constant drift {spec.drift.c}"
        )
    n_steps = _whole(n_steps, "build_phi_curve: n_steps")
    n_march = _whole(n_march, "build_phi_curve: n_march")
    n_y = _whole(n_y, "build_phi_curve: n_y")
    for name, v, what, least in (("n_steps", n_steps, "time steps", 1),
                                 ("n_march", n_march, "march nodes", 3),
                                 ("n_y", n_y, "y probes", 2)):
        if v < least:
            raise DomainError(f"build_phi_curve: {name}={v} {what}; need {name} >= {least}")
    if p_grid is None:
        p_grid = np.linspace(0.002, 0.998, 499)
    p_grid = np.asarray(p_grid, dtype=float)
    outside = ~((p_grid >= 0.0) & (p_grid <= 1.0))  # a NaN is outside too
    if outside.any():
        raise DomainError(f"build_phi_curve: p_grid must lie in [0, 1], got {p_grid[outside][0]}")

    gap = t - s
    sq_gap = math.sqrt(gap)
    if drift_const is not None:
        b_sx = float(drift_const)
    else:
        b_sx = float(np.asarray(spec.drift(s, np.asarray([x], dtype=float)))[0])
    center = x + b_sx * gap
    y_grid = np.linspace(center - _Y_WIDTH * sq_gap, center + _Y_WIDTH * sq_gap, n_y)

    # march domain for both survival sweeps, centered on the anchor so the
    # evaluation point is an exact node
    half_m = (_Y_WIDTH + 5.6) * sq_gap + abs(center - x)
    pde_x = x + np.linspace(-half_m, half_m, n_march)
    dx = pde_x[1] - pde_x[0]
    tau = t - _sqrt_graded(s, t, n_steps)[::-1]
    # a gap too short for doubles collapses a time grid or leaves the march
    # nodes uneven; say so before any field is built
    try:
        uniform_spacing(pde_x)
        even = all(np.all(np.diff(g) > 0.0) for g in (tau, _sqrt_graded(s, t, 200), y_grid))
    except DomainError:
        even = False
    if not even:
        raise DomainError(
            f"build_phi_curve: t - s = {gap:.3g} is too short for the grids in double "
            f"precision (n_steps={n_steps}, n_y={n_y}, n_march={n_march} about x={x}); "
            "widen [s, t]"
        )
    nx = max(n_march, 1601)  # the survival-PDE field's grid
    if mu is None and drift_const is None:
        _, radius, near = _pde_window(spec, s, nx, half_m + abs(x - spec.x0))
        if near.size < 2:
            raise DomainError(
                f"build_phi_curve: s={s} and t={t} keep the survival-PDE drift within "
                f"{radius:.3g} of x0={spec.x0}, which holds {near.size} of its {nx} grid "
                "points; need 2 (raise s or t - s, or pass drift_const or mu)"
            )

    mu_src, clamps = "given", 0
    if mu is None:
        if drift_const is not None:
            half_f = min(half_m + abs(x - spec.x0), _Z_USABLE * math.sqrt(s))
            nf = max(801, int(2.0 * half_f / dx) | 1)
            xg_f = np.linspace(spec.x0 - half_f, spec.x0 + half_f, nf)
            mu = _gaussian_drift(d, spec.x0, _sqrt_graded(s, t, 200), xg_f, b_sx, spec.drift)
            mu_src = "gaussian-field"
        else:
            # the march extends the trimmed drift by the edge slope
            mu, _ = _trimmed_pde_field(d, spec, s, t, nx, half_m + abs(x - spec.x0))
            mu_src = "pde-field"
        clamps = mu.clamps
    knots_p = np.concatenate(([0.0], np.unique(p_grid[(p_grid > 0.0) & (p_grid < 1.0)]), [1.0]))

    # conditional survival at the y probes under a drift read by vel: the
    # backward value march of every smoothed-indicator payload, read at x,
    # equals the payloads paired with one adjoint march of the interpolation
    # weights of x; built after the drift, so none of it is alive while the
    # drift's survival field is
    width = 2.0 * dx
    payloads = _smoothed_indicators(y_grid, pde_x, width)
    probe = _interp_weights(pde_x, x)

    def conditional_survival(vel):
        w = march_adjoint(probe, pde_x, tau, 0.5, _reversed(vel, t), bc="neumann", rannacher=2)
        raw = np.clip(payloads @ w, 0.0, 1.0)
        debiased = np.clip(_debias_smoothed(y_grid, raw, width), 0.0, 1.0)
        return raw, np.minimum.accumulate(debiased)

    if drift_const is not None:
        surv_p = normal.sf((y_grid - center) / sq_gap)
    else:
        surv_p = conditional_survival(_velocity_from(spec.drift, pde_x)[0])[1]

    # when the computed drift equals the base drift bit for bit (identity
    # schedule, any base dynamics) the distorted and undistorted survival
    # curves solve the same PDE from the same data, so the pairing is the
    # diagonal exactly; return it without a march
    if isinstance(mu, DriftField) and _field_equals_drift(mu, spec.drift):
        return PhiCurve(
            s=float(s), t=float(t), x=float(x), p_grid=knots_p, values=knots_p.copy(),
            y_grid=y_grid, surv_p=surv_p, surv_q=surv_p.copy(),
            meta={"distortion": d.to_dict(), "mu_source": mu_src,
                  "debias": 0.0, "identity_dynamics": True, "derivative_clamps": clamps,
                  "mu_extrapolations": 0},
        )

    vel, n_out = _velocity_from(mu, pde_x)
    surv_q_raw, surv_q = conditional_survival(vel)

    # cubic interpolants keep the curve pairing from reintroducing the
    # O(dy^2) kink error of piecewise-linear reads; scipy.interpolate is
    # imported here, its only use, so importing the package does not load it
    from scipy.interpolate import CubicSpline

    if drift_const is not None:
        gp = lambda yv: normal.sf((yv - center) / sq_gap)
    else:
        gp = CubicSpline(y_grid, surv_p)
    y_star = _invert_decreasing(gp, y_grid[0], y_grid[-1],
                                float(surv_p[0]), float(surv_p[-1]), knots_p[1:-1])
    knots_v = np.concatenate(([0.0], np.clip(CubicSpline(y_grid, surv_q)(y_star), 0.0, 1.0),
                              [1.0]))
    debias_mag = float(np.max(np.abs(surv_q - surv_q_raw)))
    return PhiCurve(
        s=float(s), t=float(t), x=float(x),
        p_grid=knots_p, values=knots_v,
        y_grid=y_grid, surv_p=surv_p, surv_q=surv_q,
        meta={"distortion": d.to_dict(), "mu_source": mu_src, "debias": debias_mag,
              "derivative_clamps": clamps, "mu_extrapolations": n_out * n_steps},
    )


def wang_phi_closed(alpha, s, t, k=0.0):
    """Closed-form curve of Wang(alpha, k) with b = 0: Phi(s, t, x; p) =
    F(F^{-1}(p) + (m(t) - m(s)) / sqrt(t - s)), m(t) = alpha t**(k + 1/2)."""
    shift = alpha * (_wang_root_power(t, k) - _wang_root_power(s, k)) / math.sqrt(t - s)

    def curve(p):
        arr = np.asarray(p, dtype=float)
        inner = np.clip(arr, 1e-300, 1.0 - 1e-16)
        out = normal.cdf(normal.quantile(inner) + shift)
        out = np.where(arr <= 0.0, 0.0, np.where(arr >= 1.0, 1.0, out))
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out

    return curve


def wang_value_closed(alpha, g, s, t_end, x, k=0.0):
    """Quadrature reference for the distorted value of an increasing payload
    under Wang(alpha, k) with b = 0:

        u(s, x) = E[ g(x + m(t_end) - m(s) + Z sqrt(t_end - s)) ],

    m(t) = alpha t**(k + 1/2).
    """
    shift = alpha * (_wang_root_power(t_end, k) - _wang_root_power(s, k))
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
    variance is h - (b h)^2.  The tree is TreeModel.on_grid's: every level
    is a read-only strided view of the one grid x0 + k sqrt(h), k = -N..N,
    and the tree is checked on that grid.  The drift's type picks the route.
    A ConstantDrift is read once: one up-probability, one range check, and
    every level a read-only stride-0 view of that value, so the build costs
    O(N).  Any other drift is read once per level into level i of one
    buffer at offset i (i + 1) / 2, as distort_tree's q_up.  Both routes
    give the per-level formula's values bit for bit and name a drift out
    of range at its first level.  Copy a level before mutating it."""
    N = _whole(N, "lattice_from_diffusion: N")
    if N < 1:
        raise DomainError("lattice_from_diffusion: need N >= 1")
    h = spec.T / N
    sq = math.sqrt(h)
    times = np.linspace(0.0, spec.T, N + 1)
    if isinstance(spec.drift, ConstantDrift):
        b = np.array([spec.drift.c])
        p = 0.5 + 0.5 * b * sq
        _check_transitions(p, b, 0, [spec.x0], spec.T)
        return TreeModel.on_grid(times, spec.x0, sq,
                                 [_constant_level(p[0], i + 1) for i in range(N)])
    _, states = _grid_levels(spec.x0, sq, N)
    up_prob = _triangle_levels(np.empty(N * (N + 1) // 2), N)
    for i, p in enumerate(up_prob):
        b_row = np.broadcast_to(
            np.asarray(spec.drift(times[i], states[i]), dtype=float), p.shape
        )
        p[:] = 0.5 + 0.5 * b_row * sq
        _check_transitions(p, b_row, i, states[i], spec.T)
    return TreeModel.on_grid(times, spec.x0, sq, up_prob)


def _check_transitions(p, b_row, i, x_row, T):
    """DomainError unless level i's up-probabilities p lie in (0, 1); it names
    a non-finite drift b_row by its state in x_row, else the N it needs on T."""
    if np.all((p > 0.0) & (p < 1.0)):
        return
    bad = ~np.isfinite(b_row)
    if bad.any():
        j = int(np.argmax(bad))
        raise DomainError(
            f"lattice_from_diffusion: drift {b_row[j]} at level {i}, "
            f"state {x_row[j]} is not finite"
        )
    n_min = int(math.ceil(T * float(np.max(np.abs(b_row)))**2)) + 1
    raise DomainError(
        f"lattice_from_diffusion: |b| sqrt(h) >= 1 at level {i}; "
        f"this drift needs N > {n_min}"
    )


@dataclass(frozen=True)
class ConvergenceReport:
    N_list: list
    errors: list
    slope: float
    skipped: list
    reference: float
    derivative_clamps: int
    extrapolations: int


def convergence_study(spec, d, g, N_list, eval_t, eval_x, u_ref=None):
    """Backward-induction values on refining lattices against a PDE reference.

    The reference is u_ref, or when None the value PDE at (eval_t, eval_x)
    with the drift computed on the trimmed survival-PDE field
    (_trimmed_pde_field) from eval_t on.  Before either is built, a
    DomainError names the first N of which eval_t is no level i, or whose
    level i, x0 +- i sqrt(h), does not reach eval_x.  Each N gets its own
    survival weights and distorted transitions; the value is read at
    (eval_t, eval_x), interpolated across the level when the state is
    off-lattice, and backward induction keeps that level only.  Lattices
    whose transitions violate the interleaving condition are skipped and
    reported.  The slope is the least-squares fit of log error against
    log N.  derivative_clamps counts the clamps of the reference's drift
    and extrapolations its march's drift reads outside the drift's grid
    (both 0 when u_ref is given)."""
    if not 0.0 < eval_t < spec.T:
        raise DomainError(f"convergence_study: eval_t={eval_t} must lie in (0, T) = (0, {spec.T})")
    for name, v in (("eval_x", eval_x), ("u_ref", u_ref)):
        if v is not None and not math.isfinite(v):
            raise DomainError(f"convergence_study: {name}={v} must be finite")
    N_list = [_whole(N, "convergence_study: N") for N in N_list]
    levels = []
    for N in N_list:
        h = spec.T / N
        i = int(round(eval_t / h))
        if abs(eval_t / h - i) > 1e-9:
            raise DomainError(f"convergence_study: eval_t={eval_t} is not a lattice level for N={N}")
        lo, hi = spec.x0 - i * math.sqrt(h), spec.x0 + i * math.sqrt(h)
        if not lo <= eval_x <= hi:
            raise DomainError(f"convergence_study: eval_x={eval_x} lies outside level {i} "
                              f"of the N={N} lattice, [{lo}, {hi}]")
        levels.append(i)
    clamps = extrapolations = 0
    if u_ref is None:
        mu, xg = _trimmed_pde_field(d, spec, eval_t, spec.T, 1601, math.inf)
        clamps = mu.clamps
        sol = solve_distorted_pde(mu, g, eval_t, spec.T, xg, n_steps=800)
        u_ref = sol.u_at(eval_t, eval_x)
        extrapolations = sol.extrapolations
    errors = []
    used = []
    skipped = []
    for N, i in zip(N_list, levels):
        tree = lattice_from_diffusion(spec, N)
        try:
            dt_tree = distort_tree(tree, d)
        except ConsistencyError:
            skipped.append(N)
            continue
        u_i = backward_induction(dt_tree, g(tree.states[-1]), levels=(i,))[i]
        val = float(np.interp(eval_x, tree.states[i], u_i))
        errors.append(abs(val - u_ref))
        used.append(N)
    slope = float("nan")
    if len(used) >= 2:
        A = np.vstack([np.log(np.asarray(used, float)), np.ones(len(used))]).T
        coef, *_ = np.linalg.lstsq(A, np.log(np.maximum(errors, 1e-300)), rcond=None)
        slope = float(coef[0])
    return ConvergenceReport(
        N_list=used, errors=[float(e) for e in errors], slope=slope,
        skipped=skipped, reference=float(u_ref), derivative_clamps=clamps,
        extrapolations=extrapolations,
    )
