"""Survival/density fields for dX = b dt + dB and their estimators.

Three independent routes to rho(t, x) and G(t, x) = P(X_t >= x):

  * closed form (driftless or constant drift): Gaussian kernels;
  * a forward finite-difference solve of d_t G = 1/2 d_xx G - b d_x G,
    started from a narrow Gaussian bump because the time-zero point mass has
    no density;
  * Monte Carlo over Brownian bridges pinned at (t, x): the density equals
    the Gaussian kernel times E[exp(I)], where I integrates the drift along
    the bridge.

The routes share no code, so pairwise agreement is a real check.

The finite-difference route is read a block of rows at a time
(survival_blocks), so a caller that keeps only part of the field, such as
the distorted drift on a window, never holds the whole of it;
solve_survival_pde fills the whole field from the same blocks.
"""

import numbers
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import normal
from ._cn import march_blocks, uniform_spacing
from .errors import AccuracyError, ConfigError, DomainError, NumericError
from .report import write_csv

_T_INIT_MIN = 1e-3
# Monte Carlo paths run in at most this many batches (the batch-means SE)
_MAX_BATCHES = 40
# Monte Carlo normals are drawn, and the bridge exponent is reduced, this
# many paths at a time, so no worker holds a (paths, steps) temporary
DRAW_ROWS = 128
_MAGIC = b"DFLD"
_BINARY_VERSION = 1
# fields are clipped, projected and differenced in place this many rows at a
# time, so no step allocates a second array the size of the field
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class DiffusionSpec:
    """dX = b(t, X) dt + dB from (x0, 0) to T, with unit diffusion coefficient.

    drift must accept (t, x) with array x and broadcast.
    """

    drift: object
    x0: float
    T: float

    def __post_init__(self):
        if not callable(self.drift):
            raise DomainError("DiffusionSpec: drift must be callable")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise DomainError("DiffusionSpec: T must be positive")
        if not np.isfinite(self.x0):
            raise DomainError("DiffusionSpec: x0 must be finite")
        b0 = np.asarray(self.drift(0.0, np.array([self.x0])), dtype=float)
        if not np.all(np.isfinite(b0)):
            raise DomainError("DiffusionSpec: drift is not finite at (0, x0)")


@dataclass(frozen=True)
class ConstantDrift:
    """The drift b(t, x) = c, a callable like any other drift that also
    carries c: survival_blocks, the value and Gp marches and
    lattice_from_diffusion read c once instead of calling it per step or
    per level."""

    c: float

    def __call__(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.c)


def constant_drift(c):
    """The drift b(t, x) = c as a ConstantDrift; a call returns the same
    array a plain ``lambda t, x: np.full_like(x, c)`` over float x does."""
    return ConstantDrift(float(c))


def default_grids(spec, nt=800, nx=1601, width=8.0):
    """nt times from _T_INIT_MIN to T and nx points within width sqrt(T) of x0."""
    if not spec.T > _T_INIT_MIN:
        raise DomainError(f"default_grids: T={spec.T} must exceed the first field time {_T_INIT_MIN}")
    if nt < 2:
        raise DomainError(f"default_grids: nt={nt} gives no time step; need nt >= 2")
    half = width * np.sqrt(spec.T)
    x_grid = np.linspace(spec.x0 - half, spec.x0 + half, nx)
    t_grid = np.linspace(_T_INIT_MIN, spec.T, nt)
    return t_grid, x_grid


def _whole(value, name):
    """value as an int; a DomainError names a value that is not integral
    (16.0 passes)."""
    if not (isinstance(value, numbers.Real) and float(value).is_integer()):
        raise DomainError(f"{name}={value!r} must be an integer")
    return int(value)


def blend_rows(grid, t, stack):
    """The (nt, nx) stack's rows blended linearly at time t between the two
    grid rows around it.  The weight is clipped to [0, 1], so t past either
    end reads that end's row; a one-row grid returns its row."""
    if grid.size == 1:
        return stack[0]
    # scalar min and max: np.clip costs more than the blend of a short row
    k = min(max(int(np.searchsorted(grid, t)) - 1, 0), grid.size - 2)
    w = min(max((t - grid[k]) / (grid[k + 1] - grid[k]), 0.0), 1.0)
    return (1.0 - w) * stack[k] + w * stack[k + 1]


def bounded_rows(grid, t, stack):
    """blend_rows for t within the grid (to 1e-12) of at least two rows;
    DomainError otherwise."""
    if grid.size < 2:
        raise DomainError("interpolation needs at least two grid entries")
    if not (grid[0] - 1e-12 <= t <= grid[-1] + 1e-12):
        raise DomainError(f"time {t} outside grid [{grid[0]}, {grid[-1]}]")
    return blend_rows(grid, t, stack)


def row_blocks(a):
    """Views of consecutive blocks of _BLOCK_ROWS rows of a.

    Row-wise work done in place block by block allocates at most one block:
    numpy copies the whole input of an accumulate whose output overlaps it,
    and np.gradient builds several arrays the size of its input."""
    return (a[i:i + _BLOCK_ROWS] for i in range(0, a.shape[0], _BLOCK_ROWS))


def owned(a):
    """a as a float array a constructor may overwrite: a itself when it is a
    writeable float64 array, else a copy."""
    a = np.asarray(a, dtype=float)
    return a if a.flags.writeable else a.copy()


def bounded_read(x_grid, row, x):
    """np.interp of row at x (scalar in, scalar out); DomainError for x more
    than 1e-12 outside the grid."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < x_grid[0] - 1e-12) or np.any(xs > x_grid[-1] + 1e-12):
        raise DomainError("query outside the x grid")
    out = np.interp(xs, x_grid, row)
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


@dataclass(frozen=True)
class DensityField:
    """rho and G on a (t, x) grid, with G projected monotone in x.

    G_comp holds 1 - G computed by whatever accurate route the producer had
    available (the complement loses all precision near G = 1 if formed by
    subtraction, which is exactly where the drift's ratio evaluation needs it).

    The field takes over the arrays it is given: writeable float64 rho, G
    and G_comp are clipped and projected in place (others are copied first),
    so building a field allocates no second array of its size.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    rho: np.ndarray
    G: np.ndarray
    G_comp: np.ndarray = None
    projection: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        x = np.asarray(self.x_grid, dtype=float)
        rho = owned(self.rho)
        G = owned(self.G)
        if t.ndim != 1 or x.ndim != 1 or not (t.size and x.size):
            raise DomainError("DensityField: grids must be 1-D and non-empty")
        if not (np.isfinite(t).all() and np.isfinite(x).all()):
            raise DomainError("DensityField: grids must be finite")
        if not (np.all(np.diff(t) > 0) and np.all(np.diff(x) > 0)):
            raise DomainError("DensityField: grids must be increasing")
        if rho.shape != (t.size, x.size) or G.shape != rho.shape:
            raise DomainError("DensityField: field shapes do not match the grids")
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(G))):
            raise NumericError("DensityField: non-finite field values")
        comp = None if self.G_comp is None else owned(self.G_comp)
        if comp is not None and comp.shape != rho.shape:
            raise DomainError(
                f"DensityField: G_comp shape {comp.shape} does not match the "
                f"field shape {rho.shape}"
            )
        if comp is not None and not np.all(np.isfinite(comp)):
            raise NumericError("DensityField: non-finite G_comp values")
        if np.min(rho) < -1e-9:
            raise NumericError("DensityField: density has significant negative values")
        np.maximum(rho, 0.0, out=rho)
        projection = 0.0
        for blk in row_blocks(G):
            raw = blk.copy()
            np.clip(blk, 0.0, 1.0, out=blk)
            np.minimum.accumulate(blk, axis=1, out=blk)
            projection = max(projection, float(np.max(np.abs(blk - raw))))
        if comp is None:
            comp = 1.0 - G
        np.clip(comp, 0.0, 1.0, out=comp)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "G_comp", comp)

    def rho_at(self, t, x):
        return bounded_read(self.x_grid, bounded_rows(self.t_grid, t, self.rho), x)


def gaussian_field(x0, t_grid, x_grid, drift=0.0):
    """Closed-form field for unit diffusion: X_t ~ N(x0 + drift*t, t)."""
    t = np.asarray(t_grid, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("gaussian_field: all grid times must be positive")
    sd = np.sqrt(t)[:, None]
    z = (x[None, :] - x0 - drift * t[:, None]) / sd
    rho = normal.pdf(z) / sd
    return DensityField(t, x, rho, normal.sf(z), G_comp=normal.cdf(z))


def survival_blocks(spec, t_grid, x_grid):
    """(t, x, blocks): the checked forward CN solve of d_t G = 1/2 d_xx G -
    b d_x G with G(t, -inf) = 1 on the grids, read a block of rows at a time.

    The march starts at t_grid[0] from the driftless kernel at t_grid[0]
    shifted by b(0, x0) * t_grid[0]; a ConstantDrift is marched as one
    fixed velocity, whose bands are built once.  The grids and the start
    are checked here; blocks yields (a, G, rho) for the rows from a on, G
    clipped to [0, 1] in place but not projected and rho = max(-d_x G, 0),
    each a block of _BLOCK_ROWS rows that the next block overwrites.  After
    the last block it runs the checks a DensityField of the whole history
    would run, so a caller that keeps only some cells still checks them
    all: the leak (AccuracyError), then rho and G finite and rho at least
    -1e-9 (NumericError).  Once a block fails to be finite no further block
    is handed over."""
    t = np.asarray(t_grid, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    uniform_spacing(x)
    if t.ndim != 1 or t.size < 2 or np.any(np.diff(t) <= 0.0):
        raise DomainError("solve_survival_pde: t_grid must be increasing")
    if t[0] < _T_INIT_MIN:
        raise DomainError(
            f"solve_survival_pde: first grid time {t[0]} below {_T_INIT_MIN}; "
            "the time-zero law is a point mass and has no density"
        )
    b0 = float(np.asarray(spec.drift(0.0, np.array([spec.x0])), dtype=float)[0])
    z0 = (x - (spec.x0 + b0 * t[0])) / np.sqrt(t[0])
    g0 = normal.sf(z0)
    if g0[0] < 1.0 - 1e-9 or g0[-1] > 1e-9:
        raise AccuracyError("solve_survival_pde: initial bump touches the boundary; widen x_grid")

    if isinstance(spec.drift, ConstantDrift):
        velocity = np.full_like(x, -spec.drift.c)  # one set of bands for the march
    else:
        def velocity(tm):
            return -np.asarray(spec.drift(tm, x), dtype=float)

    def blocks():
        top = bottom = -np.inf
        finite, low = True, 0.0
        # two implicit start steps damp the high frequencies of the initial bump
        for a, G in march_blocks(g0, x, t, 0.5, velocity, bc="dirichlet",
                                 bc_values=(1.0, 0.0), rannacher=2, rows=_BLOCK_ROWS):
            np.clip(G, 0.0, 1.0, out=G)
            # np.maximum keeps a NaN, as the maximum over the whole history does
            top = np.maximum(top, np.max(1.0 - G[:, 1]))
            bottom = np.maximum(bottom, np.max(G[:, -2]))
            rho = np.negative(np.gradient(G, x, axis=1))
            finite = finite and bool(np.all(np.isfinite(rho)) and np.all(np.isfinite(G)))
            if finite:
                low = min(low, float(np.min(rho)))
                np.maximum(rho, 0.0, out=rho)
                yield a, G, rho
        # mass conservation is automatic with pinned boundary values (the
        # density integral telescopes to G_left - G_right), so a leak shows up
        # as the solution visibly touching the boundary instead
        leak = float(max(top, bottom))
        if leak > 1e-3:
            raise AccuracyError(
                f"solve_survival_pde: solution reaches the boundary (leak {leak:.2e}); "
                "widen x_grid"
            )
        if not finite:
            raise NumericError("DensityField: non-finite field values")
        if low < -1e-9:
            raise NumericError("DensityField: density has significant negative values")

    return t, x, blocks()


def solve_survival_pde(spec, t_grid, x_grid):
    """The whole field of survival_blocks: its rho, and its G projected
    monotone in x by the DensityField, which takes both arrays over."""
    t, x, blocks = survival_blocks(spec, t_grid, x_grid)
    G = np.empty((t.size, x.size))
    rho = np.empty_like(G)
    for a, g_blk, rho_blk in blocks:
        G[a:a + g_blk.shape[0]] = g_blk
        rho[a:a + g_blk.shape[0]] = rho_blk
    return DensityField(t, x, rho, G)


# ---------------------------------------------------------------------------
# Brownian bridge Monte Carlo

@dataclass(frozen=True)
class BridgeEstimate:
    value: float
    std_error: float
    paths: int
    seed: int


def batch_generators(seed, paths):
    """Split paths into at most _MAX_BATCHES near-equal batches and yield
    (idx, size, rng) for each, rng = Generator(Philox(key=[seed, idx])).

    The key depends only on the seed and the batch index, so every batch
    draws the same numbers whatever order, and whatever thread, the batches
    run in; run_batches relies on this to run one share of them per core."""
    nb = min(_MAX_BATCHES, paths)
    base, extra = divmod(paths, nb)
    for idx in range(nb):
        key = np.array([seed, idx], dtype=np.uint64)
        yield idx, base + (1 if idx < extra else 0), np.random.Generator(np.random.Philox(key=key))


def _worker_count(shares):
    """The cores this process may run on, capped by the number of shares."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cores = os.cpu_count() or 1
    return max(1, min(cores, shares))


def run_batches(seed, paths, work, scratch, group=1):
    """work(buf, batches) over the batches of batch_generators(seed, paths),
    group consecutive batches per call, one thread per core.

    The groups are cut into one contiguous share per worker; the worker
    count is the number of cores available to the process, capped by the
    number of groups, and a single worker runs inline without a pool.
    scratch(width), width the most paths in one group, is called once per
    worker here in the calling thread, and its result is the buf of every
    work call of that worker: the scratch memory is one buffer per worker.
    work may run on a worker thread, so it may change nothing but buf and
    what it allocates, and whatever it calls (a drift, a payoff) must be a pure
    elementwise function of its arguments; numpy's error state is the
    caller's.

    Returns work's results, one per group, in batch order, so a reduction
    over them in the calling thread is that of a serial run bit for bit.  A
    share stops at its first failing group, and the error raised is that of
    the lowest-index failing group: the one a serial run would raise."""
    batches = list(batch_generators(seed, paths))
    groups = [batches[i:i + group] for i in range(0, len(batches), group)]
    n = _worker_count(len(groups))
    shares = [groups[w * len(groups) // n:(w + 1) * len(groups) // n] for w in range(n)]
    width = max(sum(size for _, size, _ in grp) for grp in groups)
    bufs = [scratch(width) for _ in range(n)]
    err = np.geterr()

    def run_share(w):
        done = []
        with np.errstate(**err):
            for grp in shares[w]:
                try:
                    done.append(work(bufs[w], grp))
                except Exception as exc:
                    return done, exc
        return done, None

    if n == 1:
        outcomes = [run_share(0)]
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            outcomes = list(pool.map(run_share, range(n)))
    results = []
    for done, exc in outcomes:
        if exc is not None:
            raise exc
        results.extend(done)
    return results


def normals_buffer(steps):
    """The path-major buffer draw_normals draws through: DRAW_ROWS paths of
    steps normals."""
    return np.empty((DRAW_ROWS, steps))


def draw_normals(rng, out, draw):
    """Fill out, (steps, size), with rng.standard_normal((size, steps)).T.

    The normals are drawn DRAW_ROWS paths at a time into draw (from
    normals_buffer) and copied in transposed; consecutive draws on one
    generator continue its stream, so out holds the one-block draw's numbers
    and no (size, steps) block is allocated."""
    size = out.shape[1]
    for a in range(0, size, DRAW_ROWS):
        block = draw[:min(DRAW_ROWS, size - a)]
        rng.standard_normal(out=block)
        out[:, a:a + block.shape[0]] = block.T


def _sample_bridge(rng, path, draw, t, x0, x):
    """Exact sequential draw of the bridge from (0, x0) to (t, x) into the
    step-major buffer path, (steps + 1, size); the conditional law of the
    next point is Gaussian, so no scheme error enters the path law itself,
    only the exponent quadrature.

    The normals are those of one (size, steps) block (draw_normals), so the
    draw does not depend on the memory layout.  Each step reads and writes
    one contiguous row.  The final step is not computed: its point is the
    pinned end x."""
    steps = path.shape[0] - 1
    dt = t / steps
    path[0] = x0
    draw_normals(rng, path[1:], draw)
    mean = np.empty(path.shape[1])
    cur = path[0]
    for k in range(steps - 1):
        remain = t - k * dt
        var = dt * (remain - dt) / remain
        nxt = path[k + 1]
        nxt *= np.sqrt(max(var, 0.0))
        np.subtract(x, cur, out=mean)
        mean *= dt / remain
        mean += cur
        nxt += mean
        cur = nxt
    path[-1] = x


def bridge_density_mc(spec, t, x, paths=100_000, steps=200, seed=0):
    """Estimate rho(t, x) as Gaussian kernel times E[exp(I)] over bridges.

    I is the drift functional along the bridge, by left-point Ito sums.
    Standard error by batch means over counter-keyed generators.  The
    batches run through run_batches, one share per core; each worker holds
    one step-major path buffer of (steps + 1) x (paths in a batch) doubles
    (3.2 MB at 40k paths x 400 steps) and two of DRAW_ROWS paths.  The
    estimate is the same whatever the worker count.  spec.drift is called
    from the worker threads on slices of DRAW_ROWS paths, its t argument
    the (steps,) row of left-point times, so it must be a pure elementwise
    function.
    """
    if not (0.0 < t <= spec.T):
        raise DomainError(f"bridge_density_mc: t={t} outside (0, T]")
    if not np.isfinite(x):
        raise DomainError(f"bridge_density_mc: x={x} must be finite")
    paths = _whole(paths, "bridge_density_mc: paths")
    steps = _whole(steps, "bridge_density_mc: steps")
    if paths < 1 or steps < 2:
        raise DomainError("bridge_density_mc: need paths >= 1 and steps >= 2")
    x0 = spec.x0
    kernel = np.exp(-((x - x0) ** 2) / (2.0 * t)) / np.sqrt(2.0 * np.pi * t)
    dt = t / steps
    s_left = dt * np.arange(steps)

    def work(buf, batches):
        (idx, size, rng), = batches
        path, draw, rows = buf[0][:, :size], buf[1], buf[2]
        _sample_bridge(rng, path, draw, t, x0, x)
        # the exponent DRAW_ROWS paths at a time, each path a contiguous row
        expo = np.empty(size)
        for a in range(0, size, DRAW_ROWS):
            n = min(DRAW_ROWS, size - a)
            seg = rows[:n]
            np.copyto(seg, path[:, a:a + n].T)
            b_left = np.asarray(spec.drift(s_left, seg[:, :-1]), dtype=float)
            incr = np.subtract(seg[:, 1:], seg[:, :-1], out=draw[:n])
            with np.errstate(over="ignore", invalid="ignore"):
                # both products overwrite incr's buffer once it is read
                drift_sum = np.sum(np.multiply(b_left, incr, out=incr), axis=1)
                square_sum = np.sum(np.square(b_left, out=incr), axis=1)
                expo[a:a + n] = drift_sum - 0.5 * dt * square_sum
        if not np.all(np.isfinite(expo)):
            raise NumericError(
                f"bridge_density_mc: non-finite exponent in batch {idx} "
                f"(drift blowup along the bridge near t={t}, x={x})"
            )
        return np.mean(np.exp(expo))

    means = np.asarray(run_batches(seed, paths, work, lambda width: (
        np.empty((steps + 1, width)), normals_buffer(steps), np.empty((DRAW_ROWS, steps + 1))
    )))
    est = float(kernel * np.mean(means))
    if len(means) > 1:
        se = float(kernel * np.std(means, ddof=1) / np.sqrt(len(means)))
    else:
        se = float("nan")
    return BridgeEstimate(value=est, std_error=se, paths=paths, seed=seed)


def density_cross_check(b, x0, T, field, seed):
    """The three routes to the density of dX = b dt + dB from (0, x0), checked
    pairwise: the Gaussian closed form, field.rho_at and bridge_density_mc
    (80k paths x 100 steps), at t in {T/4, T} and x = x0 + b t + {-0.8, 0,
    0.6} sqrt(T).

    Returns the table (columns t, x, closed, pde, bridge, se) and the worst
    excess of a pairwise gap over its allowance: 1e-3 between the closed
    form and the field, max(1e-3, 3 SE) against the bridge.  Positive means
    rejected."""
    spec = DiffusionSpec(drift=constant_drift(b), x0=x0, T=T)
    sq = float(np.sqrt(T))
    cols = {k: [] for k in ("t", "x", "closed", "pde", "bridge", "se")}
    worst = -float("inf")
    for t in (0.25 * T, T):
        rt = float(np.sqrt(t))
        for off in (-0.8 * sq, 0.0, 0.6 * sq):
            x = x0 + b * t + off
            closed = float(normal.pdf((x - x0 - b * t) / rt) / rt)
            pde = field.rho_at(t, x)
            est = bridge_density_mc(spec, t, x, paths=80_000, steps=100, seed=seed)
            se3 = 3.0 * est.std_error
            worst = max(
                worst,
                abs(closed - pde) - 1e-3,
                abs(closed - est.value) - max(1e-3, se3),
                abs(pde - est.value) - max(1e-3, se3),
            )
            for col, v in zip(cols.values(), (t, x, closed, pde, est.value, est.std_error)):
                col.append(v)
    return cols, worst


# ---------------------------------------------------------------------------
# serialization

def field_to_csv(field, path):
    nt, nx = field.rho.shape
    tt = np.repeat(field.t_grid, nx)
    xx = np.tile(field.x_grid, nt)
    write_csv(path, ["t", "x", "rho", "G"], [tt, xx, field.rho.ravel(), field.G.ravel()])


def field_to_binary(field, path):
    nt, nx = field.rho.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIII", _MAGIC, _BINARY_VERSION, nt, nx))
        for arr in (field.t_grid, field.x_grid, field.rho, field.G):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def field_from_binary(path):
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16:
            raise ConfigError("field_from_binary: truncated header")
        magic, version, nt, nx = struct.unpack("<4sIII", head)
        if magic != _MAGIC:
            raise ConfigError(f"field_from_binary: bad magic {magic!r}")
        if version != _BINARY_VERSION:
            raise ConfigError(f"field_from_binary: unsupported version {version}")
        body = np.fromfile(fh, dtype="<f8")
    want = nt + nx + 2 * nt * nx
    if body.size != want:
        raise ConfigError(f"field_from_binary: expected {want} doubles, found {body.size}")
    t_grid = body[:nt]
    x_grid = body[nt : nt + nx]
    rho = body[nt + nx : nt + nx + nt * nx].reshape(nt, nx)
    G = body[nt + nx + nt * nx :].reshape(nt, nx)
    return DensityField(t_grid, x_grid, rho, G)
