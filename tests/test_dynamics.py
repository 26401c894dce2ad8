"""Tests for the distorted drift, value PDE, simulation, and Phi curves."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from distort import normal
from distort.density import (
    ConstantDrift,
    DensityField,
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    gaussian_field,
    solve_survival_pde,
)
from scipy.interpolate import CubicSpline

from distort.distortion import (
    EPS_P,
    Identity,
    KahnemanTversky,
    Power,
    Prelec,
    TverskyFox,
    Wang,
)
from distort.dynamics import (
    ConvergenceReport,
    DriftField,
    GridLookup,
    build_phi_curve,
    compute_mu,
    convergence_study,
    lattice_from_diffusion,
    pde_mc_check,
    simulate_q_dynamics,
    solve_distorted_pde,
    wang_mu_closed,
    wang_phi_closed,
    wang_value_closed,
)
from distort._cn import march
from distort import density, dynamics
from distort.tree import PhiCurve
from distort.dynamics import (
    _debias_smoothed,
    _invert_decreasing,
    _smoothed_indicators,
    _sqrt_graded,
    _trimmed_pde_field,
    _velocity_from,
)
from distort.errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    NumericError,
    SingularityError,
)

from conftest import traced_peak

ZERO = constant_drift(0.0)


def smoothed_step(x):
    return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - 0.2) / 0.25))


@pytest.fixture(scope="module")
def wang_field():
    tg = np.linspace(0.1, 1.0, 46)
    xg = np.linspace(-4.0, 4.0, 161)
    return gaussian_field(0.0, tg, xg)


@pytest.fixture(scope="module")
def value_field():
    tg = np.linspace(0.2, 1.0, 81)
    xg = np.linspace(-8.0, 8.0, 1601)
    return gaussian_field(0.0, tg, xg)


# ---------------------------------------------------------------------------
# drift field and compute_mu

def test_identity_schedule_leaves_drift_unchanged(wang_field):
    mu = compute_mu(Identity(), wang_field, constant_drift(0.3))
    assert np.max(np.abs(mu.mu - 0.3)) == 0.0


def test_wang_mu_matches_closed_form(wang_field):
    """The quantile-shift drift is alpha / (2 sqrt(t)), uniformly in x."""
    mu = compute_mu(Wang(0.5), wang_field, ZERO)
    exact = 0.5 / (2.0 * np.sqrt(wang_field.t_grid))[:, None]
    assert np.max(np.abs(mu.mu - exact)) <= 1e-6


def _time_shifted_drift_gap(field, d):
    mu = compute_mu(d, field, ZERO)
    exact = wang_mu_closed(d.alpha, d.k)(field.t_grid[:, None], field.x_grid)
    return mu, np.abs(mu.mu - exact)


@pytest.mark.parametrize("alpha, k", [(0.5, 1.0), (0.3, 2.0)])
def test_time_shifted_wang_mu_matches_closed_form_on_every_cell(wang_field, alpha, k):
    """The drift of Wang(alpha, k) is m'(t) = alpha (k + 1/2) t**(k - 1/2),
    its time term a'(t) sqrt(t) included.  The time ratio a'(t) pdf(z)
    reads z off the (G, 1 - G) pair, so the cells whose G the derivatives
    clamp are exact too (read off the clamped G they were off by up to 1e23)."""
    mu, gap = _time_shifted_drift_gap(wang_field, Wang(alpha, k))
    assert mu.clamps == 410
    assert np.max(gap) <= 1e-12


def test_time_shifted_wang_mu_fails_without_its_time_term(wang_field, monkeypatch):
    monkeypatch.setattr(Wang, "time_ratio", lambda self, t, p, comp: 0.0 * np.asarray(p))
    for d, lost in ((Wang(0.5, k=1), 0.5), (Wang(0.3, k=2), 0.6)):
        # the time term is a'(t) sqrt(t) = alpha k t**(k - 1/2), largest at t = 1
        assert np.max(_time_shifted_drift_gap(wang_field, d)[1]) == pytest.approx(lost, rel=1e-9)


def test_wang_mu_exact_in_deep_tail():
    # at |x - x0| = 4 and t = 0.1 the survival weight is ~ 5.7e-37; the
    # curvature ratio blows up exactly as fast as the density vanishes and
    # the product must survive the cancellation
    tg = np.array([0.1, 0.2])
    xg = np.linspace(-4.0, 4.0, 81)
    mu = compute_mu(Wang(0.5), gaussian_field(0.0, tg, xg), ZERO)
    exact = 0.5 / (2.0 * math.sqrt(0.1))
    assert abs(mu.mu[0, 0] - exact) <= 1e-6 * exact


def test_power_two_mu_at_center(wang_field):
    mu = compute_mu(Power(2.0), wang_field, ZERO)
    i = int(np.argmin(np.abs(wang_field.t_grid - 1.0)))
    j = int(np.argmin(np.abs(wang_field.x_grid)))
    assert mu.mu[i, j] == -0.3989422804014327


def test_mu_singularity_names_the_cell():
    tg = np.array([0.005, 1.0])
    xg = np.linspace(-45.0, 45.0, 91)
    field = gaussian_field(0.0, tg, xg)
    with pytest.raises(SingularityError, match="singular at t=0.005"):
        compute_mu(Wang(0.5), field, ZERO)


def test_drift_field_validation():
    with pytest.raises(DomainError):
        DriftField(np.array([0.1, 0.2]), np.array([0.0, 1.0]), np.zeros((3, 2)))
    with pytest.raises(NumericError):
        DriftField(np.array([0.1]), np.array([0.0, 1.0]), np.array([[np.nan, 0.0]]))


def test_drift_field_names_the_first_non_finite_cell():
    mu = np.zeros((3, 4))
    mu[1, 2] = np.inf
    mu[2, 0] = np.nan
    with pytest.raises(NumericError, match=r"non-finite drift inf at t=0.2, x=2.0 "):
        DriftField(np.array([0.1, 0.2, 0.3]), np.arange(4.0), mu)


def test_prelec_drift_is_finite_where_the_survival_rounds_to_one():
    """w = -ln G is 0 where G rounds to 1; read off the complement it is not.
    There the drift follows the lower-tail asymptote -(1 - a) rho / (2 (1 - G))."""
    field = gaussian_field(0.0, np.linspace(0.1, 1.0, 46), np.linspace(-7.0, 7.0, 281))
    saturated = field.G == 1.0
    assert np.any(saturated)
    mu = compute_mu(Prelec(0.8, 0.9), field, ZERO)
    assert np.all(np.isfinite(mu.mu))
    tail = -0.5 * (1.0 - 0.9) * field.rho[saturated] / field.G_comp[saturated]
    assert np.max(np.abs(mu.mu[saturated] / tail - 1.0)) <= 1e-6


SATURATING_FIELD_X = np.linspace(-7.0, 7.0, 281)


def test_compute_mu_counts_each_clamped_survival_cell_once():
    """The derivatives clamp G into [EPS_P, 1 - EPS_P]; compute_mu counts
    each cell outside that range once, whatever the family.  The
    time-shifted Wang reads G twice (dp and the time ratio) and still counts
    each cell once."""
    field = gaussian_field(0.0, np.linspace(0.1, 1.0, 46), SATURATING_FIELD_X)
    expected = int(np.count_nonzero((field.G < EPS_P) | (field.G > 1.0 - EPS_P)))
    assert 0 < expected < field.G.size
    for d in (Identity(), Power(1.5), KahnemanTversky(0.6), TverskyFox(0.9, 0.6),
              Prelec(0.8, 0.9), Wang(0.5), Wang(0.5, k=1)):
        assert compute_mu(d, field, ZERO).clamps == expected, d


def test_compute_mu_clamp_counts_do_not_mix_across_threads():
    """Threads computing drifts on different fields each get the count of
    their own field, as a single thread does: three threads on two cores,
    switching every 10 microseconds."""
    fields = [gaussian_field(0.0, np.linspace(0.1, 1.0, 46), SATURATING_FIELD_X * h)
              for h in (1.0, 0.85, 0.7)]
    single = [compute_mu(Wang(0.5), f, ZERO).clamps for f in fields]
    assert single[0] > single[1] > single[2] > 0

    def counts(f):
        return [compute_mu(Wang(0.5), f, ZERO).clamps for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            got = list(pool.map(counts, fields, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == [[n] * 5 for n in single]


def test_drift_field_interpolation_and_extension():
    f = DriftField(
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0, 2.0]),
        np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]),
    )
    assert f.reader([1.0])[0](0.5)[0] == pytest.approx(1.5)
    assert f.reader([3.0])[0](0.0)[0] == pytest.approx(3.0)  # edge slope continues
    vals, n_out = f.table([0.0])(0, np.array([3.0]))
    assert vals[0] == pytest.approx(2.0)  # table holds
    assert n_out == 1  # the caller sums table counts
    assert f.clamps == 0  # no survival field behind it
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.clamps = 1


def _interp_row(f, t):
    """The drift row at t as one scalar blend, written out independently."""
    tg = f.t_grid
    t = min(max(t, tg[0]), tg[-1])
    if tg.size == 1:
        return f.mu[0]
    k = int(np.clip(np.searchsorted(tg, t) - 1, 0, tg.size - 2))
    w = np.clip((t - tg[k]) / (tg[k + 1] - tg[k]), 0.0, 1.0)
    return (1.0 - w) * f.mu[k] + w * f.mu[k + 1]


def _interp_mu_at(f, t, xs, extrapolate):
    """reader() ("slope") or table() ("hold") by np.interp: (values, queries
    below the grid, above it)."""
    row, xg = _interp_row(f, t), f.x_grid
    out = np.interp(xs, xg, row)
    below, above = xs < xg[0], xs > xg[-1]
    if extrapolate == "slope":
        lo_slope = (row[1] - row[0]) / (xg[1] - xg[0])
        hi_slope = (row[-1] - row[-2]) / (xg[-1] - xg[-2])
        out = np.where(below, row[0] + lo_slope * (xs - xg[0]), out)
        out = np.where(above, row[-1] + hi_slope * (xs - xg[-1]), out)
    return out, int(np.count_nonzero(below)), int(np.count_nonzero(above))


def _probe_points(xg, rng):
    """Every node, one ulp either side of it, both edges, points outside and
    inside the grid."""
    span = xg[-1] - xg[0]
    return np.concatenate([
        xg, np.nextafter(xg, np.inf), np.nextafter(xg, -np.inf),
        [xg[0], xg[-1], xg[0] - span, xg[-1] + span, -np.inf, np.inf],
        rng.uniform(xg[0] - 0.5 * span, xg[-1] + 0.5 * span, 200),
    ])


LOOKUP_GRIDS = {
    "uniform": np.linspace(-8.0, 8.0, 1601),
    "two-node": np.array([-0.2, 0.2]),
    "offset": np.linspace(1e3, 1e3 + 1e-3, 50),
    "non-uniform": np.array([-1.0, -0.9, -0.5, 0.0, 0.1, 0.7, 2.0]),
}


def _held_read(lk, row, xs):
    """GridLookup's read of row at xs clipped to the grid, on-node mask
    given, as DriftField.table reads a path."""
    j, offset = lk.cells(np.clip(xs, lk.lo, lk.hi))
    return lk.read(lk.table(row), j, offset, offset == 0.0)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", list(LOOKUP_GRIDS))
def test_grid_lookup_equals_np_interp(name):
    """Cells, table and gather read np.interp bit for bit, the sign of a
    zero on a node included."""
    rng = np.random.default_rng(len(name))
    xg = LOOKUP_GRIDS[name]
    lk = GridLookup(xg)
    assert lk.uniform == (name != "non-uniform")
    row = rng.normal(size=xg.size)
    row[0] = -0.0
    xs = _probe_points(xg, rng)
    assert _same_bits(_held_read(lk, row, xs), np.interp(xs, xg, row))
    # the last node returns the last value exactly, not by a vanishing slope
    assert _held_read(lk, row, xg[-1:])[0] == row[-1]


@pytest.mark.parametrize("name", list(LOOKUP_GRIDS))
@pytest.mark.parametrize("extrapolate", ["hold", "slope"])
def test_mu_at_equals_the_np_interp_lookup(name, extrapolate):
    """The reader extends by the edge slope (a march reads it through
    _velocity_from, which counts its nodes outside the grid); table() holds
    the edge value and counts the queries outside the grid."""

    def read(t, xs):
        if extrapolate == "slope":
            vel, n_out = _velocity_from(f, xs)
            return vel(t), n_out
        return f.table([t])(0, xs)

    rng = np.random.default_rng(7)
    xg = LOOKUP_GRIDS[name]
    f = DriftField(np.array([0.1, 0.4, 1.0]), xg, rng.normal(size=(3, xg.size)))
    xs = _probe_points(xg, rng)
    xs = xs[np.isfinite(xs)]  # the edge slope is not finite at infinity
    for t in (0.0, 0.1, 0.25, 0.4, 0.7, 1.0, 2.0):
        ref, below, above = _interp_mu_at(f, t, xs, extrapolate)
        vals, n_out = read(t, xs)
        assert np.array_equal(vals, ref)
        assert n_out == below + above > 0
        last = read(t, xs[-1:])[0]
        assert np.all(last == ref[-1])


@pytest.mark.parametrize("name", ["uniform", "non-uniform"])
@pytest.mark.parametrize("nt", [1, 3])
def test_drift_reader_equals_np_interp_with_edge_slopes(name, nt):
    """The reader finds each node's cell once and reads np.interp of the
    blended row bit for bit, the sign of a zero on a node included (node 2
    sits below a rising cell, where slope * 0 + row would read +0), and
    past either end the edge slope's extension; it counts the nodes
    outside the grid."""
    rng = np.random.default_rng(11)
    xg = LOOKUP_GRIDS[name]
    mu = rng.normal(size=(nt, xg.size))
    mu[:, 2], mu[:, 3] = -0.0, 1.0
    f = DriftField(np.linspace(0.2, 0.8, nt), xg, mu)
    span = xg[-1] - xg[0]
    below = xg[0] - span * rng.uniform(0.01, 1.0, 5)
    above = xg[-1] + span * rng.uniform(0.01, 1.0, 7)
    nodes = np.sort(np.concatenate([rng.uniform(xg[0], xg[-1], 50), xg, below, above]))
    read, outside = f.reader(nodes)
    assert outside == 12
    for t in (0.0, 0.2, 0.35, 0.8, 1.5):
        ref, lo, hi = _interp_mu_at(f, t, nodes, "slope")
        out = read(t)
        assert (lo, hi) == (5, 7)
        assert _same_bits(out, ref)


@pytest.mark.parametrize("name", list(LOOKUP_GRIDS))
def test_table_and_reader_agree(name):
    """Both readers of a DriftField go through one GridLookup: inside the
    grid table and reader read the same bits, and past it table reads what
    reader reads at the clipped point; both count the same reads outside."""
    rng = np.random.default_rng(13)
    xg = LOOKUP_GRIDS[name]
    mu = rng.normal(size=(3, xg.size))
    mu[:, 0] = -0.0
    f = DriftField(np.array([0.1, 0.4, 1.0]), xg, mu)
    xs = _probe_points(xg, rng)
    xs = xs[np.isfinite(xs)]
    xc = np.clip(xs, xg[0], xg[-1])
    times = [0.0, 0.25, 0.4, 0.7, 2.0]
    look = f.table(times)
    (at_clipped, n_clipped), (extended, n_out) = f.reader(xc), f.reader(xs)
    inside = xc == xs
    assert n_clipped == 0 and n_out == np.count_nonzero(~inside) > 0
    for k, t in enumerate(times):
        held, n_held = look(k, xs)
        assert n_held == n_out
        assert _same_bits(held, at_clipped(t))
        assert _same_bits(held[inside], extended(t)[inside])


def test_grid_lookup_fuzz_against_np_interp():
    """Random grids from 2 to 400 nodes, exact and jittered by a fraction of
    a cell, at offsets far larger than the cell."""
    rng = np.random.default_rng(20261018)
    for trial in range(300):
        n = int(rng.integers(2, 401))
        x0, span = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-6, 4)
        xg = np.linspace(x0, x0 + span, n)
        if trial % 2:
            xg = xg + rng.uniform(-0.2, 0.2, n) * span / max(n - 1, 1)
            if np.any(np.diff(xg) <= 0.0):
                continue
        row = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        lk = GridLookup(xg)
        xs = _probe_points(xg, rng)
        assert np.array_equal(_held_read(lk, row, xs), np.interp(xs, xg, row)), (trial, n)
        look = DriftField(np.array([0.0]), xg, row[None, :]).table([0.0])
        assert look(0, xs)[1] == np.count_nonzero((xs < xg[0]) | (xs > xg[-1]))


def test_grid_lookup_overflowing_slopes_equal_np_interp():
    """Slopes that overflow to inf still read np.interp's values: inf off
    a node, and the row value itself on one."""
    xg = np.array([0.0, 1e-10, 2e-10])
    row = np.array([0.0, 1e300, -1e300])
    lk = GridLookup(xg)
    xs = np.array([0.0, 5e-11, 1e-10, 1.5e-10, 2e-10, 3e-10])
    ref = np.interp(xs, xg, row)
    with np.errstate(over="ignore", invalid="ignore"):
        assert lk.uniform and np.all(np.isinf(lk.table(row)[1]))
        assert np.array_equal(_held_read(lk, row, xs), ref)
        look = DriftField(np.array([0.0]), xg, row[None, :]).table([0.0])
        assert np.array_equal(look(0, xs)[0], ref)


def test_growth_constant_is_the_linear_gauge(wang_field):
    mu = compute_mu(Wang(0.5), wang_field, ZERO)
    c = mu.growth_constant()
    assert np.isfinite(c)
    assert c == pytest.approx(0.5 / (2.0 * math.sqrt(0.1)), rel=1e-9)


# ---------------------------------------------------------------------------
# measure flow of the distorted drift

@pytest.fixture(scope="module")
def flow_field():
    return gaussian_field(0.0, np.linspace(0.1, 1.0, 401), np.linspace(-7.0, 7.0, 1601))


def _flow_gaps(field, d):
    """sup |H - phi_t(G)| for H = phi_t(G) marched from the first time under
    -mu, and marched with no velocity at all."""
    x, tg = field.x_grid, field.t_grid
    mu = compute_mu(d, field, ZERO)
    exact = np.array([d.eval(t, row) for t, row in zip(tg, field.G)])

    def flow_gap(velocity):
        h = march(exact[0], x, tg, 0.5, velocity, bc="dirichlet", bc_values=(1.0, 0.0),
                  rannacher=2)
        return float(np.max(np.abs(h - exact)))

    read, _ = mu.reader(x)
    return flow_gap(lambda t: -read(t)), flow_gap(None)


@pytest.mark.parametrize("d", [Wang(0.5), Power(2.0), KahnemanTversky(0.6),
                               TverskyFox(0.9, 0.6), Prelec(0.8, 0.9), Wang(0.3, k=2)],
                         ids=repr)
def test_distorted_drift_carries_the_distorted_survival(flow_field, d):
    """Unit sigma, b = 0: the distorted survival H = phi_t(G) solves
    d_t H = H_xx / 2 - mu d_x H with the drift compute_mu returns, so H
    marched from t = 0.1 under that drift stays on phi_t(G) at every time;
    marched without the drift it drifts off."""
    with_drift, without = _flow_gaps(flow_field, d)
    assert with_drift <= 2e-4
    assert without >= 0.05


def test_distorted_drift_of_a_time_shifted_schedule_needs_its_time_term(flow_field, monkeypatch):
    """Wang(0.3, k=2) moves phi_t(G) in time as well as in x; a drift
    without the time term leaves H off phi_t(G)."""
    monkeypatch.setattr(Wang, "time_ratio", lambda self, t, p, comp: 0.0 * np.asarray(p))
    assert _flow_gaps(flow_field, Wang(0.3, k=2))[0] >= 0.05


# ---------------------------------------------------------------------------
# backward value PDE

def test_heat_value_matches_quadrature():
    xg = np.linspace(-8.0, 8.0, 1601)
    sol = solve_distorted_pde(lambda t, x: np.zeros_like(x), smoothed_step,
                              0.25, 1.0, xg, n_steps=400)
    ref = wang_value_closed(0.0, smoothed_step, 0.25, 1.0, 0.3)
    assert abs(sol.u_at(0.25, 0.3) - ref) <= 1e-5


def test_wang_value_probes_match_quadrature():
    xg = np.linspace(-8.0, 8.0, 1601)
    sol = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.25, 1.0,
                              xg, n_steps=400)
    for s, x in [(0.25, 0.0), (0.25, 0.6), (0.5, -0.4), (0.8, 0.2)]:
        ref = wang_value_closed(0.5, smoothed_step, s, 1.0, x)
        assert abs(sol.u_at(s, x) - ref) <= 1e-4


def test_field_mu_and_callable_mu_agree(value_field):
    xg = value_field.x_grid
    muf = compute_mu(Wang(0.5), value_field, ZERO)
    a = solve_distorted_pde(muf, smoothed_step, 0.25, 1.0, xg, n_steps=400)
    b = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.25, 1.0,
                            xg, n_steps=400)
    assert np.max(np.abs(a.u - b.u)) <= 1e-4


def test_constant_payload_stays_constant():
    xg = np.linspace(-6.0, 6.0, 801)
    sol = solve_distorted_pde(wang_mu_closed(1.0), np.full(xg.shape, 0.7),
                              0.25, 1.0, xg, n_steps=100)
    assert np.max(np.abs(sol.u - 0.7)) <= 1e-13


def test_max_principle_and_monotone_slices():
    xg = np.linspace(-8.0, 8.0, 1601)
    sol = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.1, 1.0,
                              xg, n_steps=300)
    assert sol.max_principle_defect <= 1e-12
    assert sol.projection <= 1e-9
    assert np.all(sol.u >= 0.0) and np.all(sol.u <= 1.0)
    assert np.all(np.diff(sol.u, axis=1) >= 0.0)


def test_narrow_grid_raises_accuracy_error():
    xg = np.linspace(-1.5, 1.5, 301)
    with pytest.raises(AccuracyError, match="widen x_grid"):
        solve_distorted_pde(lambda t, x: np.zeros_like(x), smoothed_step,
                            0.25, 1.0, xg, n_steps=100)


def test_pde_composition_matches_direct_solve():
    """Solving t_end -> s in one sweep or in two stitched sweeps agrees;
    values under the distorted measure nest like conditional expectations."""
    xg = np.linspace(-8.0, 8.0, 1601)
    direct = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.25, 1.0,
                                 xg, n_steps=600)
    inner = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.5, 1.0,
                                xg, n_steps=400)
    outer = solve_distorted_pde(wang_mu_closed(0.5), inner.u[0], 0.25, 0.5,
                                xg, n_steps=200)
    m = np.abs(xg) <= 4.0
    assert np.max(np.abs(outer.u[0] - direct.u[0])[m]) <= 1e-5


def test_pde_solution_built_in_blocks_equals_the_whole_array_formulas():
    """Clipped and projected in place a block of rows at a time, a solution
    holds the whole-array results bit for bit: u clipped to the payload
    range and made nondecreasing, the projection its largest change after
    the clip, the defect the largest excursion past the range."""
    rng = np.random.default_rng(6)
    ns, nx = 150, 40  # three blocks of rows, the last one short
    u = np.sort(rng.uniform(0.0, 1.0, size=(ns, nx)), axis=1)
    u += rng.normal(scale=1e-4, size=(ns, nx)) * (rng.random((ns, nx)) < 0.1)
    u = np.clip(u, 0.0, 1.0)
    u[3, -1], u[70, 0] = 1.0 + 4e-10, -3e-10  # past the range, within the defect gate
    u[145, 20] -= 0.3  # the largest change falls in the last block
    clipped = np.clip(u, 0.0, 1.0)
    want_u = np.maximum.accumulate(clipped, axis=1)
    want_projection = float(np.max(np.abs(want_u - clipped)))
    want_defect = float(max(np.max(u) - 1.0, -np.min(u), 0.0))
    sol = dynamics.PDESolution(np.linspace(0.0, 1.0, ns), np.linspace(-1.0, 1.0, nx),
                               u, g_range=(0.0, 1.0))
    assert sol.u.tobytes() == want_u.tobytes()
    assert sol.projection == want_projection > 0.2
    assert sol.max_principle_defect == want_defect > 0.0


def test_value_solve_peak_stays_below_four_fields():
    """The history is marched into one array and clipped and projected in
    place: an n_steps = 400 solve on 1601 nodes peaks below 4 arrays of the
    (401, 1601) solution (5.0 with a copy per step, a stacked history and a
    clipped and a projected copy)."""
    xg = np.linspace(-8.0, 8.0, 1601)
    sol, peak = traced_peak(solve_distorted_pde, wang_mu_closed(0.5), smoothed_step,
                            0.1, 1.0, xg, n_steps=400)
    assert sol.u.shape == (401, 1601)
    assert peak < 4.0 * sol.u.nbytes


def test_pde_solution_guards():
    xg = np.linspace(-6.0, 6.0, 601)
    sol = solve_distorted_pde(lambda t, x: np.zeros_like(x), smoothed_step,
                              0.25, 1.0, xg, n_steps=50)
    with pytest.raises(DomainError):
        sol.u_at(0.1, 0.0)
    with pytest.raises(DomainError):
        sol.u_at(0.5, 7.0)
    with pytest.raises(DomainError):
        solve_distorted_pde(lambda t, x: np.zeros_like(x), smoothed_step,
                            1.0, 0.5, xg)
    decreasing = np.linspace(1.0, 0.0, xg.size)
    with pytest.raises(DomainError):
        solve_distorted_pde(lambda t, x: np.zeros_like(x), decreasing,
                            0.25, 1.0, xg)


# ---------------------------------------------------------------------------
# Euler simulation of the distorted dynamics

def test_sim_constant_payload_has_zero_se():
    res = simulate_q_dynamics(lambda t, x: np.zeros_like(x), 0.0, 1.5, 1.0,
                              paths=400, steps=10, seed=1,
                              g=lambda x: np.ones_like(x))
    assert res.mean == 1.0
    assert res.std_error == 0.0


def test_sim_wang_terminal_mean():
    """From (s, x) = (0.25, 0) the distorted mean is alpha (sqrt(t) - sqrt(s));
    alpha = 1 gives 0.5 at t = 1."""
    res = simulate_q_dynamics(wang_mu_closed(1.0), 0.25, 0.0, 1.0,
                              paths=40_000, steps=200, seed=7)
    assert abs(res.mean - 0.5) <= 3.0 * res.std_error + 2e-3


def test_sim_matches_pde_value(value_field):
    muf = compute_mu(Wang(0.5), value_field, ZERO)
    sol = solve_distorted_pde(muf, smoothed_step, 0.25, 1.0,
                              value_field.x_grid, n_steps=400)
    res = simulate_q_dynamics(muf, 0.5, -0.5, 1.0, paths=40_000, steps=100,
                              seed=11, g=smoothed_step)
    assert abs(sol.u_at(0.5, -0.5) - res.mean) <= 3.0 * res.std_error + 1e-3


def test_pde_mc_check_rejects_the_undistorted_value(value_field):
    muf = compute_mu(Wang(0.5), value_field, ZERO)
    probes = [(0.25, 0.0), (0.5, -0.5)]
    sol = solve_distorted_pde(muf, smoothed_step, 0.25, 1.0, value_field.x_grid, n_steps=200)
    cols, worst, n_out = pde_mc_check(muf, sol, smoothed_step, probes, 1.0, 20_000, 50, 11)
    assert worst <= 0.0
    assert cols["s"] == [0.25, 0.5] and cols["x"] == [0.0, -0.5]
    assert cols["gap"] == [abs(p - m) for p, m in zip(cols["pde"], cols["mc"])]
    assert n_out == sum(
        simulate_q_dynamics(muf, s, x, 1.0, paths=20_000, steps=50, seed=11,
                            g=smoothed_step).extrapolations
        for s, x in probes
    )
    # the same Monte Carlo against the value of the base dynamics, b = 0
    base = solve_distorted_pde(ZERO, smoothed_step, 0.25, 1.0, value_field.x_grid, n_steps=200)
    _, worst_base, _ = pde_mc_check(muf, base, smoothed_step, probes, 1.0, 20_000, 50, 11)
    assert worst_base > 0.0


def test_pde_mc_check_rejects_fewer_than_two_paths(value_field):
    muf = compute_mu(Wang(0.5), value_field, ZERO)
    sol = solve_distorted_pde(muf, smoothed_step, 0.25, 1.0, value_field.x_grid, n_steps=50)
    for paths in (1, 0):
        with pytest.raises(DomainError, match="paths"):
            pde_mc_check(muf, sol, smoothed_step, [(0.25, 0.0)], 1.0, paths, 10, 11)


@pytest.mark.parametrize("probe, named", [
    ((0.5, 20.0), "x grid"),
    ((0.1, 0.0), "time 0.1 outside grid"),
    ((1.0, 0.0), "t_end"),
])
def test_pde_mc_check_rejects_a_probe_before_simulating(value_field, monkeypatch,
                                                        probe, named):
    """A probe off the value solution, or not before t_end, is named in the
    error before any path is simulated, even after a valid probe."""
    muf = compute_mu(Wang(0.5), value_field, ZERO)
    sol = solve_distorted_pde(muf, smoothed_step, 0.25, 1.0, value_field.x_grid, n_steps=50)
    calls = []
    monkeypatch.setattr(dynamics, "simulate_q_dynamics", lambda *a, **k: calls.append(a))
    with pytest.raises(DomainError) as err:
        pde_mc_check(muf, sol, smoothed_step, [(0.5, 0.0), probe], 1.0, 100_000, 100, 11)
    assert f"probe (s={probe[0]}, x={probe[1]})" in str(err.value)
    assert named in str(err.value)
    assert calls == []


def test_sim_counts_extrapolated_drift_queries():
    narrow = DriftField(
        np.array([0.0, 1.0]), np.array([-0.2, 0.2]),
        np.zeros((2, 2)),
    )
    res = simulate_q_dynamics(narrow, 0.0, 0.0, 1.0, paths=200, steps=50, seed=2)
    assert res.extrapolations > 0


def _reference_q_dynamics(f, s, x, t, paths, steps, seed, g=None):
    """The Euler loop with a per-batch, per-step np.interp drift lookup held
    at the grid ends, and the batches split and keyed inline."""
    dt = (t - s) / steps
    sqdt = math.sqrt(dt)
    nb = min(40, paths)
    base, extra = divmod(paths, nb)
    means, below, above = [], 0, 0
    for idx in range(nb):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, idx], dtype=np.uint64)))
        z = rng.standard_normal((base + (1 if idx < extra else 0), steps))
        cur = np.full(z.shape[0], float(x))
        for k in range(steps):
            drift, lo, hi = _interp_mu_at(f, s + k * dt, cur, "hold")
            below, above = below + lo, above + hi
            cur = cur + drift * dt + 1.0 * sqdt * z[:, k]
        means.append(np.mean(g(cur) if g is not None else cur))
    means = np.asarray(means)
    return dict(
        mean=float(np.mean(means)),
        std_error=float(np.std(means, ddof=1) / np.sqrt(len(means))),
        below=below, above=above,
    )


def _narrow_field(xg):
    rng = np.random.default_rng(3)
    return DriftField(np.linspace(0.0, 1.0, 7), xg, rng.normal(size=(7, xg.size)))


@pytest.mark.parametrize("case", ["narrow", "narrow-non-uniform", "wang"])
def test_sim_equals_the_per_step_np_interp_loop(case, value_field):
    if case == "wang":
        f, g = compute_mu(Wang(0.5), value_field, ZERO), smoothed_step
        s, x, t, paths, steps = 0.25, 0.5, 1.0, 4001, 50
    else:
        xg = np.linspace(-0.3, 0.5, 9)
        if case == "narrow-non-uniform":
            xg = np.array([-0.3, -0.25, -0.05, 0.0, 0.3, 0.5])
        f, g = _narrow_field(xg), None
        s, x, t, paths, steps = 0.1, 0.05, 0.9, 3001, 37
    ref = _reference_q_dynamics(f, s, x, t, paths, steps, 4, g)
    res = simulate_q_dynamics(f, s, x, t, paths=paths, steps=steps, seed=4, g=g)
    assert res.mean == ref["mean"] and res.std_error == ref["std_error"]
    assert res.extrapolations == ref["below"] + ref["above"]
    if g is None:
        assert ref["below"] > 0 and ref["above"] > 0  # both edges extrapolate


def test_sim_determinism_and_seed_sensitivity():
    a = simulate_q_dynamics(wang_mu_closed(0.5), 0.25, 0.0, 1.0,
                            paths=2000, steps=20, seed=5)
    b = simulate_q_dynamics(wang_mu_closed(0.5), 0.25, 0.0, 1.0,
                            paths=2000, steps=20, seed=5)
    c = simulate_q_dynamics(wang_mu_closed(0.5), 0.25, 0.0, 1.0,
                            paths=2000, steps=20, seed=6)
    assert a.mean == b.mean
    assert a.mean != c.mean


def test_sim_diverging_drift_raises():
    blow = lambda t, x: 1e200 * np.asarray(x, dtype=float)
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        simulate_q_dynamics(blow, 0.0, 1.0, 1.0, paths=10, steps=30, seed=0)


@pytest.mark.parametrize("kwargs, match", [
    ({"x": math.nan}, r"x=nan must be finite"),
    ({"x": math.inf}, r"x=inf must be finite"),
    ({"x": -math.inf}, r"x=-inf must be finite"),
    ({"t": math.inf}, r"t=inf must be finite"),
    ({"paths": 2.5}, r"paths=2.5 must be an integer"),
], ids=["nan-x", "inf-x", "minus-inf-x", "inf-t", "fractional-paths"])
@pytest.mark.parametrize("drift", ["field", "callable"])
def test_sim_rejects_edge_inputs_by_name(monkeypatch, kwargs, match, drift):
    """Each is named before any path is drawn; none surfaces as diverged
    paths or a numpy TypeError."""
    mu = _narrow_field(np.linspace(-0.3, 0.5, 9)) if drift == "field" else wang_mu_closed(0.5)
    monkeypatch.setattr(dynamics, "run_batches", lambda *a, **k: pytest.fail("paths drawn"))
    args = {"x": 0.0, "t": 1.0, "paths": 100, **kwargs}
    with pytest.raises(DomainError, match="simulate_q_dynamics: " + match):
        simulate_q_dynamics(mu, 0.25, args["x"], args["t"], paths=args["paths"], steps=5)


def test_sim_domain_guards():
    with pytest.raises(DomainError):
        simulate_q_dynamics(wang_mu_closed(0.5), 1.0, 0.0, 0.5, paths=10, steps=5)
    with pytest.raises(DomainError):
        simulate_q_dynamics(wang_mu_closed(0.5), 0.0, 0.0, 1.0, paths=0, steps=5)
    with pytest.raises(DomainError):
        simulate_q_dynamics("not a drift", 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the dynamic distortion curve

SPEC0 = DiffusionSpec(drift=ZERO, x0=0.0, T=1.0)
P_CHECK = np.linspace(0.05, 0.95, 181)


@pytest.fixture(scope="module")
def wang_curve():
    return build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0, drift_const=0.0)


def test_phi_identity_schedule_is_the_diagonal():
    curve = build_phi_curve(Identity(), SPEC0, 0.25, 1.0, 0.0, drift_const=0.0,
                            n_steps=400)
    assert np.max(np.abs(curve(P_CHECK) - P_CHECK)) == 0.0
    assert curve.meta["identity_dynamics"] is True
    assert curve.meta["mu_extrapolations"] == 0  # no march


def test_phi_identity_detection_holds_for_state_dependent_drift():
    ou = DiffusionSpec(drift=lambda t, x: -0.3 * np.asarray(x, dtype=float),
                       x0=0.0, T=1.0)
    curve = build_phi_curve(Identity(), ou, 0.25, 1.0, 0.2, n_steps=200)
    assert np.max(np.abs(curve(P_CHECK) - P_CHECK)) == 0.0


def test_phi_wang_matches_closed_form(wang_curve):
    ref = wang_phi_closed(0.5, 0.25, 1.0)
    assert np.max(np.abs(wang_curve(P_CHECK) - ref(P_CHECK))) <= 1e-4
    assert wang_curve.meta["mu_extrapolations"] == 0  # the field spans the march


def test_phi_time_shifted_wang_matches_closed_form(monkeypatch):
    """Wang(0.5, k=1): Phi = F(F^-1(p) + (m(t) - m(s)) / sqrt(t - s)) with
    m(t) = 0.5 t**1.5; the drift's time term carries most of that shift."""
    ref = wang_phi_closed(0.5, 0.25, 1.0, k=1)(P_CHECK)
    curve = build_phi_curve(Wang(0.5, k=1), SPEC0, 0.25, 1.0, 0.0, drift_const=0.0)
    assert np.max(np.abs(curve(P_CHECK) - ref)) <= 1e-4
    monkeypatch.setattr(Wang, "time_ratio", lambda self, t, p, comp: 0.0 * np.asarray(p))
    curve = build_phi_curve(Wang(0.5, k=1), SPEC0, 0.25, 1.0, 0.0, drift_const=0.0)
    assert np.max(np.abs(curve(P_CHECK) - ref)) >= 0.05


def test_phi_does_not_depend_on_the_anchor_state(wang_curve):
    """With state-independent drift the curve is a function of (s, t) only."""
    off = build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.8, drift_const=0.0)
    assert np.max(np.abs(off(P_CHECK) - wang_curve(P_CHECK))) <= 1e-4


def test_phi_pde_route_matches_closed_form():
    curve = build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0, n_steps=400)
    assert curve.meta["mu_source"] == "pde-field"
    # 920 of the march's 1601 nodes lie past the trimmed drift grid, read
    # at each of 400 steps
    assert curve.meta["mu_extrapolations"] == 920 * 400
    ref = wang_phi_closed(0.5, 0.25, 1.0)
    assert np.max(np.abs(curve(P_CHECK) - ref(P_CHECK))) <= 2e-4


def test_phi_near_zero_s_recovers_static_curve():
    """At s = 1e-4 the curve collapses onto the static distortion."""
    d = Wang(0.5)
    curve = build_phi_curve(d, SPEC0, 1e-4, 1.0, 0.0, drift_const=0.0,
                            mu=wang_mu_closed(0.5), s_min=0.0,
                            n_march=2401, n_steps=1200)
    static = d.eval(0.0, P_CHECK)
    assert np.max(np.abs(curve(P_CHECK) - static)) <= 2e-3


def test_phi_mc_cross_check_state_dependent_drift():
    """PDE-built distorted survival agrees with the simulated dynamics'
    mean of the indicator of X_t >= y, at five y probes, when both use the
    same drift construction."""
    ou = DiffusionSpec(drift=lambda t, x: -0.3 * np.asarray(x, dtype=float),
                       x0=0.0, T=1.0)
    curve = build_phi_curve(Wang(0.5), ou, 0.25, 1.0, 0.2, n_steps=400)
    wide = np.linspace(-8.0, 8.0, 1601)
    full = solve_survival_pde(ou, np.linspace(1e-3, 1.0, 801), wide)
    keep_t = full.t_grid >= 0.25 - 1e-12
    keep_x = np.abs(wide) <= 3.5 + 1e-12
    field = DensityField(
        full.t_grid[keep_t], wide[keep_x],
        full.rho[np.ix_(keep_t, keep_x)], full.G[np.ix_(keep_t, keep_x)],
        G_comp=full.G_comp[np.ix_(keep_t, keep_x)],
    )
    mu = compute_mu(Wang(0.5), field, ou.drift)
    for k in np.linspace(20, 140, 5).astype(int):
        y = curve.y_grid[k]
        sim = simulate_q_dynamics(mu, 0.25, 0.2, 1.0, paths=40_000, steps=200, seed=3,
                                  g=lambda v, y=y: (v >= y).astype(float))
        assert abs(sim.mean - curve.surv_q[k]) <= 0.012


def test_phi_survival_route_peak_stays_below_one_field():
    """The Power(2) curve on the survival-PDE route, at the default sizes,
    peaks below one array of the (801, 1601) survival grid: both conditional
    survivals are adjoint marches of one probe, built after the drift, and
    the drift is formed row by row off a survival march read a block at a
    time (2.00 when the march history and the trimmed field were formed,
    2.03 when Gp came from a survival-PDE restart, 4.1 when both built whole
    fields, 8.3 when the conditional field was kept and each step of a field
    build allocated a field of its own)."""
    spec = DiffusionSpec(drift=ZERO, x0=0.0, T=1.0)
    curve, peak = traced_peak(build_phi_curve, Power(2.0), spec, 0.25, 1.0, 0.0,
                              drift_const=None)
    assert curve.meta["mu_source"] == "pde-field"
    assert peak < 1.0 * 801 * 1601 * 8


def test_phi_gaussian_route_peak_stays_below_nine_tenths_of_a_field():
    """The Power(2) curve on the drift_const route peaks below 0.9 arrays of
    the (801, 1601) grid: the Gaussian field is formed one time at a time,
    so of its (201, 1601) grid only the drift is held (1.62 when the whole
    Gaussian field was formed)."""
    curve, peak = traced_peak(build_phi_curve, Power(2.0), SPEC0, 0.25, 1.0, 0.0,
                              drift_const=0.0)
    assert curve.meta["mu_source"] == "gaussian-field"
    assert peak < 0.9 * 801 * 1601 * 8


def test_trimmed_field_peak_stays_below_eight_tenths_of_a_field():
    """No array of the (801, 1601) survival grid is formed: the march is
    read a block of rows at a time and only the drift on the (601, 701)
    window is held, 0.33 of the grid (2.5 arrays when the march history was
    formed and the window's rho and G were read off it)."""
    (mu, _), peak = traced_peak(_trimmed_pde_field, Power(2.0), SPEC0, 0.25, 1.0, 1601,
                                math.inf)
    assert mu.mu.shape == (601, 701)
    assert peak < 0.8 * 801 * 1601 * 8


@pytest.mark.parametrize("kwargs, name", [
    ({"n_steps": 2.5}, "n_steps=2.5"),
    ({"n_march": 1600.5}, "n_march=1600.5"),
    ({"n_y": 2.5}, "n_y=2.5"),
], ids=["n-steps", "n-march", "n-y"])
def test_phi_rejects_non_integral_sizes_by_name(kwargs, name):
    """They used to raise a TypeError from np.linspace; named before any
    drift is built."""
    with pytest.raises(DomainError, match=rf"^build_phi_curve: {name} must be an integer$"):
        build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0, drift_const=0.0, **kwargs)


def test_value_pde_rejects_a_non_integral_step_count_by_name():
    """n_steps=2.5 used to raise a TypeError from np.linspace; 40.0 runs as 40."""
    x = np.linspace(-6.0, 6.0, 241)
    with pytest.raises(DomainError, match=r"^solve_distorted_pde: n_steps=2.5 must be an integer$"):
        solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.1, 1.0, x, n_steps=2.5)
    sol = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.1, 1.0, x, n_steps=40.0)
    ref = solve_distorted_pde(wang_mu_closed(0.5), smoothed_step, 0.1, 1.0, x, n_steps=40)
    assert sol.u.tobytes() == ref.u.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_value_pde_names_a_non_finite_payload(bad):
    """It used to reach the march and fail as `march data contains
    non-finite entries`; the payload check names the value and its node,
    for a callable and for the values themselves."""
    x = np.linspace(-6.0, 6.0, 241)
    g = np.where(x == 0.0, bad, smoothed_step(x))
    for payload in (g, lambda xs: g):
        with pytest.raises(DomainError, match=rf"^solve_distorted_pde: terminal value {bad} "
                                              r"at state 120 is not finite$"):
            solve_distorted_pde(wang_mu_closed(0.5), payload, 0.1, 1.0, x, n_steps=40)


def test_phi_rejects_time_zero_and_below_s_min():
    with pytest.raises(DomainError, match="s = 0 is rejected"):
        build_phi_curve(Wang(0.5), SPEC0, 0.0, 1.0, 0.0)
    with pytest.raises(DomainError, match="below s_min"):
        build_phi_curve(Wang(0.5), SPEC0, 0.005, 1.0, 0.0)
    with pytest.raises(DomainError):
        build_phi_curve(Wang(0.5), SPEC0, 0.5, 0.25, 0.0)
    with pytest.raises(DomainError):
        build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0,
                        p_grid=np.array([-0.1, 0.5]))


@pytest.mark.parametrize("kwargs, match", [
    ({"n_y": 1}, r"n_y=1 y probes; need n_y >= 2"),
    ({"x": math.nan}, r"x=nan must be finite"),
    ({"x": math.inf}, r"x=inf must be finite"),
    ({"p_grid": np.array([0.2, math.nan, 0.8])}, r"p_grid must lie in \[0, 1\], got nan"),
    ({"drift_const": math.nan}, r"drift_const=nan must be finite"),
], ids=["one-y-probe", "nan-x", "inf-x", "nan-p", "nan-drift-const"])
def test_phi_rejects_edge_inputs_by_name(kwargs, match):
    """Each is named up front, before any field or march, and does not
    surface as an IndexError, a float-to-int ValueError or a dropped knot."""
    args = {"x": 0.0, **kwargs}
    x = args.pop("x")
    with pytest.raises(DomainError, match=match):
        build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, x, **args)


def test_phi_curve_is_the_same_under_a_marked_constant_drift():
    """On the survival-PDE route (drift_const=None) the survival march and
    the Gp march read a ConstantDrift as one fixed velocity; the curve is
    that of the same constant as a plain callable, bit for bit."""
    curves = [build_phi_curve(Power(2.0), DiffusionSpec(drift, 0.0, 1.0), 0.25, 1.0, 0.1,
                              drift_const=None, n_steps=200, n_march=801, n_y=41)
              for drift in (constant_drift(0.3), _unmarked(0.3))]
    for name in ("p_grid", "values", "y_grid", "surv_p", "surv_q"):
        assert getattr(curves[0], name).tobytes() == getattr(curves[1], name).tobytes(), name
    assert curves[0].meta == curves[1].meta
    assert curves[0].meta["mu_source"] == "pde-field"


def test_value_pde_is_the_same_under_a_marked_constant_drift():
    x = np.linspace(-6.0, 6.0, 241)
    sols = [solve_distorted_pde(drift, smoothed_step, 0.1, 1.0, x, n_steps=40)
            for drift in (constant_drift(-0.4), _unmarked(-0.4))]
    assert sols[0].u.tobytes() == sols[1].u.tobytes()


def test_phi_rejects_a_drift_const_that_contradicts_the_spec(monkeypatch):
    """A drift-0 spec with drift_const=0.5 used to mix a field at drift 0.5
    with a base drift of 0 and return Phi(0.5) = 0.4426 (0.6136 is right)."""
    monkeypatch.setattr(dynamics, "_gaussian_drift", lambda *a: pytest.fail("solved"))
    with pytest.raises(DomainError, match=r"^build_phi_curve: drift_const=0\.5 contradicts "
                                          r"the spec's constant drift 0\.0$"):
        build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0, drift_const=0.5)


@pytest.mark.parametrize("s, t, kwargs, match", [
    (1e-10, 1.0, {"s_min": 1e-12, "n_march": 1602},
     r"s=1e-10 and t=1\.0 keep the survival-PDE drift within 7e-05 of x0=0\.0, which "
     r"holds 0 of its 1602 grid points"),
    (1e-10, 1.0, {"s_min": 1e-12},
     r"s=1e-10 and t=1\.0 keep the survival-PDE drift within 7e-05 of x0=0\.0, which "
     r"holds 1 of its 1601 grid points"),
    (0.25, 0.25 + 1e-15, {}, r"t - s = 9\.99e-16 is too short for the grids"),
    (0.25, 0.25 + 1e-15, {"drift_const": 0.0}, r"t - s = 9\.99e-16 is too short"),
    (0.25, 1.0, {"n_march": 2}, r"n_march=2 march nodes; need n_march >= 3"),
    (0.25, 1.0, {"n_steps": 0}, r"n_steps=0 time steps; need n_steps >= 1"),
], ids=["no-node-near-x0", "one-node-near-x0", "tiny-gap", "tiny-gap-gaussian",
        "two-nodes", "no-steps"])
def test_phi_rejects_degenerate_sizes_by_their_inputs(monkeypatch, s, t, kwargs, match):
    """Each used to surface from an internal constructor (no grid point
    near x0, a DriftField or DensityField whose grid does not increase, or
    the march's grid check); each is named before any drift is built."""
    for name in ("_trimmed_pde_field", "_gaussian_drift"):
        monkeypatch.setattr(dynamics, name, lambda *a: pytest.fail("solved"))
    with pytest.raises(DomainError, match="^build_phi_curve: " + match):
        build_phi_curve(Power(2.0), SPEC0, s, t, 0.0, **kwargs)


def test_phi_curve_endpoint_validation():
    with pytest.raises(ConsistencyError):
        PhiCurve(0.25, 1.0, 0.0,
                 p_grid=np.array([0.0, 0.5, 1.0]),
                 values=np.array([0.1, 0.5, 1.0]),
                 y_grid=np.zeros(3), surv_p=np.zeros(3), surv_q=np.zeros(3))


def test_phi_adjoint_route_matches_the_multi_payload_march(wang_field, monkeypatch):
    """Gq from one adjoint march equals the backward march of every smoothed
    indicator payload read at x; the drift is read at the same times on the
    same nodes, some of them outside its grid."""
    times, reads = [], []
    row_at, read = DriftField.row_at, GridLookup.read

    def recorded_row(f, tm):
        times.append(tm)
        return row_at(f, tm)

    def recorded_read(table, j, offset, on_node):
        reads.append((j, offset))
        return read(table, j, offset, on_node)

    monkeypatch.setattr(DriftField, "row_at", recorded_row)
    monkeypatch.setattr(GridLookup, "read", staticmethod(recorded_read))
    s, t, x, n_steps, n_march, n_y, y_width = 0.25, 1.0, 0.3, 200, 401, 41, 3.9
    mu = compute_mu(Wang(0.5), wang_field, ZERO)
    curve = build_phi_curve(Wang(0.5), SPEC0, s, t, x, drift_const=0.0, mu=mu,
                            n_steps=n_steps, n_march=n_march, n_y=n_y)
    curve_times, curve_reads = times[:], reads[:]
    times.clear()
    reads.clear()

    sq_gap = math.sqrt(t - s)
    y_grid = np.linspace(x - y_width * sq_gap, x + y_width * sq_gap, n_y)
    half_m = (y_width + 5.6) * sq_gap
    pde_x = x + np.linspace(-half_m, half_m, n_march)
    width = 2.0 * (pde_x[1] - pde_x[0])
    vel, n_out = _velocity_from(mu, pde_x)
    tau = t - _sqrt_graded(s, t, n_steps)[::-1]
    u_final = march(_smoothed_indicators(y_grid, pde_x, width), pde_x, tau, 0.5,
                    lambda tm: vel(t - tm), bc="neumann", rannacher=2)[-1]
    raw = np.array([np.interp(x, pde_x, row) for row in np.clip(u_final, 0.0, 1.0)])
    ref = np.clip(_debias_smoothed(y_grid, raw, width), 0.0, 1.0)
    ref = np.minimum.accumulate(ref)

    assert np.array_equal(curve.y_grid, y_grid)
    assert np.max(np.abs(curve.surv_q - ref)) <= 1e-12
    assert len(times) == len(reads) == len(curve_reads) == n_steps
    assert sorted(curve_times) == sorted(times)
    # each node's cell, and its offset from it, as searchsorted finds them
    xg = mu.x_grid
    cell = np.clip(np.searchsorted(xg, pde_x, side="right") - 1, 0, xg.size - 1)
    assert all(np.array_equal(j, cell) and np.array_equal(offset, pde_x - xg[cell])
               for j, offset in curve_reads + reads)
    assert n_out == np.count_nonzero((pde_x < xg[0]) | (pde_x > xg[-1])) > 0


def _scalar_bisection(fn, lo, hi, v_lo, v_hi, target):
    """One knot at a time, as build_phi_curve inverted its knots before."""
    if target >= v_lo:
        return float(lo)
    if target <= v_hi:
        return float(hi)
    lo, hi = float(lo), float(hi)
    for _ in range(200):
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        mid = 0.5 * (lo + hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi


def _flat_middle(y):
    """Decreasing, with the value 0.6 on all of [0.4, 0.6]."""
    y = np.asarray(y, dtype=float)
    return np.where(y < 0.4, 1.0 - y, np.where(y < 0.6, 0.6, 1.2 - y))


def _inversion_cases():
    sq_gap = math.sqrt(0.75)
    center = 0.13
    y_gauss = np.linspace(center - 7.5 * sq_gap, center + 7.5 * sq_gap, 161)
    y_spline = np.linspace(-4.0, 4.0, 161)
    spline = CubicSpline(y_spline, normal.sf(y_spline / 0.9) ** 1.1)
    return {
        "normal_sf": (lambda yv: normal.sf((yv - center) / sq_gap), y_gauss,
                      normal.sf((y_gauss - center) / sq_gap)),
        "cubic_spline": (spline, y_spline, spline(y_spline)),
        "flat_stretch": (_flat_middle, np.linspace(0.0, 1.0, 11),
                         _flat_middle(np.linspace(0.0, 1.0, 11))),
    }


@pytest.mark.parametrize("case", ["normal_sf", "cubic_spline", "flat_stretch"])
def test_batched_inversion_equals_the_scalar_bisection(case):
    fn, y, surv = _inversion_cases()[case]
    v_lo, v_hi = float(surv[0]), float(surv[-1])
    targets = np.concatenate([
        np.linspace(0.002, 0.998, 499), surv[::7], [v_lo, v_hi, 1.0, 0.0, 0.6],
        [np.nextafter(v_lo, 0.0), np.nextafter(v_hi, 1.0)],
    ])
    got = _invert_decreasing(fn, y[0], y[-1], v_lo, v_hi, targets)
    ref = [_scalar_bisection(lambda yv: float(fn(yv)), y[0], y[-1], v_lo, v_hi, p)
           for p in targets]
    assert got.shape == targets.shape
    assert got.tobytes() == np.asarray(ref).tobytes()
    if case == "flat_stretch":
        # the tie at the flat value goes to the smaller y
        assert abs(got[targets == 0.6][0] - 0.4) <= 1e-12


def test_phi_curve_is_nondecreasing(wang_curve):
    assert wang_curve.p_grid[0] == 0.0 and wang_curve.p_grid[-1] == 1.0
    assert wang_curve.values[0] == 0.0 and wang_curve.values[-1] == 1.0
    assert np.all(np.diff(wang_curve.values) >= 0.0)


def test_value_oracle_gaussian_payload():
    # E[F(a + Z)] = F(a / sqrt(2)) gives the quadrature an exact target;
    # at s=0, x=0, alpha=0.5 this is the one-period distorted mean of F
    val = wang_value_closed(0.5, normal.cdf, 0.0, 1.0, 0.0)
    assert abs(val - 0.63816319508411847) <= 1e-12
    val2 = wang_value_closed(0.5, normal.cdf, 0.25, 1.0, 0.3)
    a = 0.3 + 0.5 * (1.0 - 0.5)
    assert abs(val2 - normal.cdf(a / math.sqrt(1.75))) <= 1e-12


# ---------------------------------------------------------------------------
# lattice discretization

def test_lattice_reproduces_symmetric_tree():
    spec = DiffusionSpec(drift=ZERO, x0=0.0, T=2.0)
    tree = lattice_from_diffusion(spec, 2)
    assert np.array_equal(tree.times, np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(tree.states[2], np.array([-2.0, 0.0, 2.0]))
    assert np.array_equal(tree.up_prob[0], np.array([0.5]))
    assert np.array_equal(tree.up_prob[1], np.array([0.5, 0.5]))


def test_lattice_moment_matching_state_dependent_drift():
    spec = DiffusionSpec(
        drift=lambda t, x: -0.4 * np.asarray(x, dtype=float), x0=0.0, T=1.0
    )
    N = 16
    tree = lattice_from_diffusion(spec, N)
    h = 1.0 / N
    sq = math.sqrt(h)
    for i in [1, 7, 15]:
        b_row = -0.4 * tree.states[i]
        assert np.allclose(tree.up_prob[i], 0.5 + 0.5 * b_row * sq, atol=1e-15)


@pytest.mark.parametrize("N", [1, 64, 4096])
@pytest.mark.parametrize("drift", [
    constant_drift(0.7),
    # OU with a halved pull: -x fails the range check, since at N = 64 the
    # top node x0 + N sqrt(h) = 8.2 gives |b| sqrt(h) > 1
    lambda t, x: -0.5 * np.asarray(x, dtype=float),
    lambda t, x: (0.5 + np.sin(3.0 * t)) * np.ones_like(np.asarray(x, dtype=float)),
], ids=["constant", "ou", "time-dependent"])
def test_lattice_increments_match_the_drift_moments(drift, N):
    """Each one-step law on {+sqrt(h), -sqrt(h)} has mean b h and variance
    h - (b h)^2, with b read at the node."""
    spec = DiffusionSpec(drift=drift, x0=0.2, T=1.0)
    tree = lattice_from_diffusion(spec, N)
    h = 1.0 / N
    sq = math.sqrt(h)
    for i, p in enumerate(tree.up_prob):
        b = np.broadcast_to(np.asarray(drift(tree.times[i], tree.states[i]), float), p.shape)
        mean = p * sq - (1.0 - p) * sq
        var = p * h + (1.0 - p) * h - mean**2
        assert np.max(np.abs(mean - b * h)) <= 1e-12 * max(1.0, sq)
        assert np.max(np.abs(var - (h - (b * h) ** 2))) <= 1e-12 * max(1.0, h)


def test_lattice_resolution_error_suggests_minimal_n():
    spec = DiffusionSpec(drift=constant_drift(3.0), x0=0.0, T=1.0)
    with pytest.raises(DomainError, match="needs N > 10"):
        lattice_from_diffusion(spec, 4)


def _unmarked(c):
    """The constant drift c as a plain callable, which no consumer can read
    as constant."""
    return lambda t, x: np.full_like(np.asarray(x, dtype=float), c)


class CountingDrift(ConstantDrift):
    """A ConstantDrift that records the time of every call."""

    calls = []

    def __call__(self, t, x):
        CountingDrift.calls.append(t)
        return super().__call__(t, x)


@pytest.mark.parametrize("c, N", [(0.0, 1), (0.3, 64), (-0.7, 4096)])
def test_constant_drift_lattice_is_the_per_level_lattice_without_a_drift_call(c, N):
    """A ConstantDrift is read once: no drift call, and every level equal,
    byte for byte, to the per-level route's."""
    spec = DiffusionSpec(CountingDrift(c), 0.2, 1.5)
    CountingDrift.calls.clear()  # the spec's own check calls it once
    tree = lattice_from_diffusion(spec, N)
    assert CountingDrift.calls == []
    ref = lattice_from_diffusion(DiffusionSpec(_unmarked(c), 0.2, 1.5), N)
    assert tree.times.tobytes() == ref.times.tobytes()
    for got, want in ((tree.states, ref.states), (tree.up_prob, ref.up_prob)):
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def test_constant_drift_lattice_names_an_unresolved_drift_as_the_per_level_route():
    for drift in (constant_drift(3.0), _unmarked(3.0)):
        with pytest.raises(DomainError) as err:
            lattice_from_diffusion(DiffusionSpec(drift, 0.0, 1.0), 4)
        assert str(err.value) == (
            "lattice_from_diffusion: |b| sqrt(h) >= 1 at level 0; this drift needs N > 10"
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lattice_names_a_non_finite_drift(bad):
    """A drift that turns non-finite at one node is named by level and
    state, before the resolution hint reads max |b|."""
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where((t == 0.5) & (x == 1.0), bad, 0.1)

    spec = DiffusionSpec(drift=drift, x0=0.0, T=1.0)
    with pytest.raises(DomainError, match=r"drift (nan|inf|-inf) at level 2, state 1\.0 is not finite"):
        lattice_from_diffusion(spec, 4)


# ---------------------------------------------------------------------------
# convergence study

def test_convergence_wang_refines_first_order():
    u_ref = wang_value_closed(0.5, smoothed_step, 0.5, 1.0, 0.0)
    rep = convergence_study(SPEC0, Wang(0.5), smoothed_step,
                            [64, 256, 1024, 4096], 0.5, 0.0, u_ref=u_ref)
    assert rep.skipped == []
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    assert rep.errors[-1] <= 1e-2
    assert rep.slope < -0.8


def test_convergence_skips_interleaving_failures():
    """A shift a(t) = 3 t moves faster than the lattice's survival weights
    can follow: every level's quotients leave (0, 1)."""
    rep = convergence_study(SPEC0, Wang(3.0, k=1), smoothed_step, [8, 16], 0.5, 0.0,
                            u_ref=0.0)
    assert rep.skipped == [8, 16]
    assert rep.N_list == []
    assert isinstance(rep, ConvergenceReport)
    # no drift computed for a given u_ref
    assert (rep.derivative_clamps, rep.extrapolations) == (0, 0)


@pytest.mark.parametrize("eval_t", [2.0, -0.5, 0.0, 1.0])
def test_convergence_rejects_eval_t_outside_the_horizon(eval_t):
    """Named up front, before any field, drift or lattice is built."""
    with pytest.raises(DomainError, match=rf"eval_t={eval_t} must lie in \(0, T\) = \(0, 1.0\)"):
        convergence_study(SPEC0, Wang(0.5), smoothed_step, [16], eval_t, 0.0)


@pytest.mark.parametrize("N, shown", [(64.5, "64.5"), ("8", "'8'"), (math.nan, "nan")])
def test_lattice_rejects_a_non_integral_size(N, shown):
    with pytest.raises(DomainError, match=rf"lattice_from_diffusion: N={shown} must be an integer"):
        lattice_from_diffusion(SPEC0, N)


def test_lattice_accepts_an_integral_float_size():
    a, b = lattice_from_diffusion(SPEC0, 16.0), lattice_from_diffusion(SPEC0, 16)
    assert a.n_periods == 16 and np.array_equal(a.times, b.times)
    assert [p.tobytes() for p in a.up_prob] == [p.tobytes() for p in b.up_prob]


def test_convergence_rejects_a_non_integral_size():
    """16.5 used to run as N = 16 and be reported as 16; it is named up
    front, before the reference is solved, while 16.0 runs as 16."""
    with pytest.raises(DomainError, match=r"convergence_study: N=16.5 must be an integer"):
        convergence_study(SPEC0, Wang(0.5), smoothed_step, [8, 16.5], 0.5, 0.0)
    rep = convergence_study(SPEC0, Wang(0.5), smoothed_step, [16.0], 0.5, 0.0, u_ref=0.5)
    assert rep.N_list == [16] and isinstance(rep.N_list[0], int)


@pytest.mark.parametrize("kwargs, match", [
    ({"eval_x": math.nan}, r"eval_x=nan must be finite"),
    ({"u_ref": math.nan}, r"u_ref=nan must be finite"),
], ids=["nan-eval-x", "nan-u-ref"])
def test_convergence_rejects_non_finite_inputs_by_name(monkeypatch, kwargs, match):
    """Named before the reference solve; they used to return errors [nan,
    nan] and a nan slope."""
    monkeypatch.setattr(dynamics, "_trimmed_pde_field", lambda *a: pytest.fail("solved"))
    args = {"eval_x": 0.0, "u_ref": None, **kwargs}
    with pytest.raises(DomainError, match="convergence_study: " + match):
        convergence_study(SPEC0, Wang(0.5), smoothed_step, [16, 64], 0.5, **args)


def _no_reference_or_lattice(monkeypatch):
    monkeypatch.setattr(dynamics, "_trimmed_pde_field", lambda *a: pytest.fail("solved"))
    monkeypatch.setattr(dynamics, "lattice_from_diffusion", lambda *a: pytest.fail("built"))


def test_convergence_checks_every_lattice_level_before_the_reference(monkeypatch):
    """eval_t = 0.3 is level 3 of N = 10 but no level of N = 16; that used
    to be named after the reference solve and the N = 10 lattice."""
    _no_reference_or_lattice(monkeypatch)
    with pytest.raises(DomainError,
                       match=r"convergence_study: eval_t=0.3 is not a lattice level for N=16"):
        convergence_study(SPEC0, Wang(0.5), smoothed_step, [10, 16], 0.3, 0.0)


@pytest.mark.parametrize("eval_x, N, level", [
    (-1.9, 4, r"level 2 of the N=4 lattice, \[-1.0, 1.0\]"),
    (2.5, 16, r"level 8 of the N=16 lattice, \[-2.0, 2.0\]"),
])
def test_convergence_rejects_an_eval_x_outside_the_level(monkeypatch, eval_x, N, level):
    """np.interp would hold the level's edge value: eval_x = -1.9 at N = 4
    used to give a slope of -1.48 against u_ref = 0.01.  Named before the
    reference or any lattice is built."""
    _no_reference_or_lattice(monkeypatch)
    with pytest.raises(DomainError, match=rf"convergence_study: eval_x={eval_x} lies outside " + level):
        convergence_study(SPEC0, Wang(0.5), smoothed_step, [N, 64], 0.5, eval_x)


def test_convergence_reference_is_the_same_under_a_marked_constant_drift():
    """survival_blocks marches a ConstantDrift as one fixed velocity; the
    reference, its clamps and extrapolations and the lattice errors are
    those of the same constant as a plain callable, bit for bit."""
    reps = [convergence_study(DiffusionSpec(drift, 0.0, 1.0), Wang(0.5), smoothed_step,
                              [16, 64], 0.5, 0.0)
            for drift in (constant_drift(0.3), _unmarked(0.3))]
    assert dataclasses.asdict(reps[0]) == dataclasses.asdict(reps[1])
    assert reps[0].N_list == [16, 64]


def test_convergence_internal_reference_close_to_closed_form():
    rep = convergence_study(SPEC0, Wang(0.5), smoothed_step, [256], 0.5, 0.0)
    closed = wang_value_closed(0.5, smoothed_step, 0.5, 1.0, 0.0)
    assert abs(rep.reference - closed) <= 5e-4
    assert rep.derivative_clamps == 0  # its field is trimmed to cells of usable density
    # the reference march reads 612 of its 1601 nodes, those past the
    # trimmed field's +- 7 sqrt(0.5), outside the drift grid at each of 800 steps
    assert rep.extrapolations == 612 * 800
    assert rep.errors[0] <= 5e-3


OU = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)


def _window_field(full, keep_t, keep_x):
    """The DensityField of full's cells in keep_t x keep_x."""
    cells = np.ix_(keep_t, keep_x)
    return DensityField(full.t_grid[keep_t], full.x_grid[keep_x], full.rho[cells],
                        full.G[cells], G_comp=full.G_comp[cells])


def test_trimmed_field_stops_short_of_zero_density():
    # the OU law at t = 0.5 has sd 0.56, so 7 sqrt(0.5) reaches 8.8 sd, where
    # the survival field saturates and its density is exactly 0
    mu, wide = _trimmed_pde_field(Wang(0.5), OU, 0.5, 1.0, 1601, math.inf)
    assert mu.t_grid[0] >= 0.5 - 1e-12 and mu.t_grid[-1] == 1.0
    assert mu.x_grid[0] > -7.0 * math.sqrt(0.5) and mu.x_grid[-1] < 7.0 * math.sqrt(0.5)
    assert set(mu.x_grid) <= set(wide) and wide.size == 1601
    # the density is positive on every kept cell; the saturated left tail
    # stops the drift where a kept time reads 0, the right tail at the window
    full = solve_survival_pde(OU, np.linspace(1e-3, 1.0, 801), wide)
    kept = full.rho[full.t_grid >= 0.5 - 1e-12]
    lo, hi = np.searchsorted(wide, mu.x_grid[[0, -1]])
    assert np.all(kept[:, lo:hi + 1] > 0.0)
    assert np.any(kept[:, lo - 1] == 0.0)
    assert mu.x_grid[-1] == wide[wide <= 7.0 * math.sqrt(0.5) + 1e-12][-1]
    # the base case keeps its full window
    mu0, _ = _trimmed_pde_field(Wang(0.5), SPEC0, 0.5, 1.0, 1601, math.inf)
    assert mu0.x_grid[-1] == pytest.approx(7.0 * math.sqrt(0.5), abs=0.01)


TRIM_DRIFTS = {
    "zero": ZERO,
    "ou": OU.drift,
    "time-varying": lambda t, x: 0.3 * t - 0.2 * np.asarray(x, dtype=float),
}
# one family per drift: a time ratio (Wang k = 1), a steep endpoint slope
# (KahnemanTversky) and a curvature ratio 1 / p (Power)
TRIM_FAMILIES = {"zero": Wang(0.5, k=1.0), "ou": KahnemanTversky(0.7),
                 "time-varying": Power(2.0)}


@pytest.mark.parametrize("drift", list(TRIM_DRIFTS))
@pytest.mark.parametrize("s, half", [(0.25, math.inf), (0.5, math.inf), (0.25, 2.0)])
def test_trimmed_field_is_the_whole_field_cut_to_its_window(drift, s, half):
    """The streamed drift equals compute_mu on the whole survival field cut
    by np.ix_ with the same trimming, bit for bit, clamps included."""
    spec = DiffusionSpec(drift=TRIM_DRIFTS[drift], x0=0.0, T=1.0)
    d = TRIM_FAMILIES[drift]
    mu, wide = _trimmed_pde_field(d, spec, s, 1.0, 1601, half)
    full = solve_survival_pde(spec, np.linspace(1e-3, 1.0, 801), wide)
    keep_t = full.t_grid >= s - 1e-12
    keep_x = np.abs(wide) <= min(half, 7.0 * math.sqrt(s)) + 1e-12
    zero = np.flatnonzero((full.rho == 0.0)[keep_t].any(axis=0))
    keep_x[: np.max(zero[zero < 800], initial=-1) + 1] = False
    keep_x[np.min(zero[zero > 800], initial=wide.size):] = False
    ref = compute_mu(d, _window_field(full, keep_t, keep_x), spec.drift)
    assert np.array_equal(mu.t_grid, full.t_grid[keep_t])
    assert np.array_equal(mu.x_grid, wide[keep_x])
    assert mu.mu.tobytes() == ref.mu.tobytes()
    assert mu.clamps == ref.clamps


def _late_cut_column(mu, wide, full, s):
    """The column just left of the trimmed drift's grid, and the kept rows
    of the whole field's rho: under OU from s = 0.5 its density is positive
    at every node between it and x0 for the first seven kept times, so the
    cut drops it only at a later one."""
    kept = full.rho[full.t_grid >= s - 1e-12]
    j = int(np.flatnonzero(wide < mu.x_grid[0])[-1])
    assert np.all(kept[:7, j:801] > 0.0) and np.any(kept[:, j] == 0.0)
    return j, kept


def test_trimmed_field_counts_clamps_inside_the_cut_only():
    """The cut narrows as the kept rows arrive; the clamps of a column that
    a later row cuts are not counted, as compute_mu on the cut field never
    sees them."""
    d = Power(2.0)
    mu, wide = _trimmed_pde_field(d, OU, 0.5, 1.0, 1601, math.inf)
    full = solve_survival_pde(OU, np.linspace(1e-3, 1.0, 801), wide)
    j, _ = _late_cut_column(mu, wide, full, 0.5)
    G = full.G[full.t_grid >= 0.5 - 1e-12]
    clamped = (G < 1e-12) | (G > 1.0 - 1e-12)
    assert np.all(clamped[:7, j])
    assert mu.clamps == np.count_nonzero(clamped[:, np.isin(wide, mu.x_grid)])


def test_trimmed_field_raises_for_the_first_singular_cell_of_the_cut(monkeypatch):
    """A singular cell is raised only inside the final cut, and the cell
    named is the one compute_mu on the cut field names: the first in time,
    then in x.  A singular cell in a column that a later row cuts is not
    raised."""
    d = Power(2.0)
    mu, wide = _trimmed_pde_field(d, OU, 0.5, 1.0, 1601, math.inf)
    full = solve_survival_pde(OU, np.linspace(1e-3, 1.0, 801), wide)
    j_out, _ = _late_cut_column(mu, wide, full, 0.5)
    j_in = j_out + 6
    real = dynamics._mu_row
    spoiled_cells, seen = [], []  # (time, column): rho there reads 1e-310

    def spoiled(d_, t, x, g, c, rho, b, singular=dynamics._raise_singular):
        first = int(np.searchsorted(wide, x[0]))
        for tk, jk in spoiled_cells:
            if t == tk and first <= jk < first + x.size:
                rho = rho.copy()
                rho[jk - first] = 1e-310
                seen.append((tk, jk))
        return real(d_, t, x, g, c, rho, b, singular)

    monkeypatch.setattr(dynamics, "_mu_row", spoiled)
    times = mu.t_grid
    spoiled_cells[:] = [(times[3], j_out)]
    again, _ = _trimmed_pde_field(d, OU, 0.5, 1.0, 1601, math.inf)
    assert seen == spoiled_cells
    assert again.mu.tobytes() == mu.mu.tobytes() and again.clamps == mu.clamps
    spoiled_cells[:] = [(times[7], j_in + 2), (times[3], j_out), (times[7], j_in),
                        (times[9], j_in - 1)]
    with pytest.raises(SingularityError) as got:
        _trimmed_pde_field(d, OU, 0.5, 1.0, 1601, math.inf)
    assert f"at t={times[7]}, x={wide[j_in]} (dp_phi * rho = " in str(got.value)


def test_trimmed_field_projects_from_the_first_column(monkeypatch):
    """A dip left of the window, too shallow to fail the density check,
    lowers the projected G inside it: the running minimum starts at the
    first column, as it does over the whole field."""
    t_grid, wide = np.linspace(1e-3, 1.0, 801), np.linspace(-8.0, 8.0, 1601)
    row = int(np.searchsorted(t_grid, 0.25 - 1e-12))  # the first kept time
    lo = int(np.argmax(wide >= -3.5 - 1e-12))  # the window's first column
    d = Power(2.0)
    plain, _ = _trimmed_pde_field(d, SPEC0, 0.25, 1.0, 1601, math.inf)
    real = density.march_blocks

    def dipped(*args, **kwargs):
        for a, G in real(*args, **kwargs):
            if a <= row < a + G.shape[0]:
                G[row - a, 100] = G[row - a, lo] - 1e-13  # G there is 1 - 1.3e-12
            yield a, G

    monkeypatch.setattr(density, "march_blocks", dipped)
    mu, _ = _trimmed_pde_field(d, SPEC0, 0.25, 1.0, 1601, math.inf)
    full = solve_survival_pde(SPEC0, t_grid, wide)
    keep_x = np.isin(wide, mu.x_grid)
    assert full.G[row, lo] < 1.0 - 1.3e-12 and keep_x[lo]
    ref = compute_mu(d, _window_field(full, t_grid >= 0.25 - 1e-12, keep_x), ZERO)
    assert mu.mu.tobytes() == ref.mu.tobytes()
    assert mu.mu[0, 0] != plain.mu[0, 0] and np.array_equal(mu.mu[1:], plain.mu[1:])


def test_trimmed_field_without_a_node_near_x0_is_rejected():
    # 1602 nodes leave none at x0, and half = 1e-6 keeps none within reach
    with pytest.raises(DomainError, match="no grid point within 1e-06 of x0=0.0"):
        _trimmed_pde_field(Wang(0.5), SPEC0, 0.5, 1.0, 1602, 1e-6)


GAUSSIAN_FAMILIES = {"wang-k1": Wang(0.5, k=1.0), "kahneman-tversky": KahnemanTversky(0.7),
                     "power": Power(2.0), "prelec": Prelec(0.65, 0.8)}


@pytest.mark.parametrize("name", list(GAUSSIAN_FAMILIES))
def test_gaussian_drift_is_compute_mu_on_the_whole_field(name):
    """The Gaussian field formed one time at a time gives compute_mu's drift
    on the whole field bit for bit, clamps included (the grid reaches 9 sd,
    where G saturates)."""
    d = GAUSSIAN_FAMILIES[name]
    t_grid, x_grid = _sqrt_graded(0.3, 1.0, 60), np.linspace(-4.6, 5.4, 1201)
    mu = dynamics._gaussian_drift(d, 0.2, t_grid, x_grid, 0.4, OU.drift)
    ref = compute_mu(d, gaussian_field(0.2, t_grid, x_grid, drift=0.4), OU.drift)
    assert np.array_equal(mu.t_grid, ref.t_grid) and np.array_equal(mu.x_grid, ref.x_grid)
    assert mu.mu.tobytes() == ref.mu.tobytes()
    assert mu.clamps == ref.clamps > 0


@pytest.mark.parametrize("times", [[0.3, 0.6, 0.6, 0.9], [0.3, 0.6, 1.0, 0.9]],
                         ids=["repeated", "decreasing"])
def test_gaussian_drift_checks_its_times_as_the_whole_field(times):
    """Every time is checked before the first row is formed, with the whole
    field's error: a bad time after a singular row is still the error."""
    times, x_grid = np.array(times), np.linspace(-60.0, 60.0, 801)
    with pytest.raises(SingularityError):  # rho underflows at the edges
        compute_mu(Wang(0.5), gaussian_field(0.0, times[:2], x_grid), ZERO)
    with pytest.raises(DomainError, match="DensityField: grids must be increasing"):
        dynamics._gaussian_drift(Wang(0.5), 0.0, times, x_grid, 0.0, ZERO)


def test_gaussian_drift_names_the_first_singular_cell():
    x_grid = np.linspace(-60.0, 60.0, 801)
    t_grid = np.array([0.3, 0.6, 0.9])
    with pytest.raises(SingularityError) as want:
        compute_mu(Wang(0.5), gaussian_field(0.0, t_grid, x_grid), ZERO)
    with pytest.raises(SingularityError) as got:
        dynamics._gaussian_drift(Wang(0.5), 0.0, t_grid, x_grid, 0.0, ZERO)
    assert str(got.value) == str(want.value)


def test_phi_conditional_curve_is_the_multi_payload_march_under_the_base_drift():
    """Gp off the survival route equals the backward march of every smoothed
    indicator payload under the base drift, read at x: the same adjoint route
    as Gq, with the base drift in place of mu."""
    s, t, x, n_steps, n_march = 0.25, 1.0, 0.2, 50, 401
    curve = build_phi_curve(Wang(0.5), OU, s, t, x, mu=wang_mu_closed(0.5),
                            n_steps=n_steps, n_march=n_march)
    sq_gap = math.sqrt(t - s)
    center = x - x * (t - s)
    y_grid = np.linspace(center - 3.9 * sq_gap, center + 3.9 * sq_gap, 161)
    half_m = (3.9 + 5.6) * sq_gap + abs(center - x)
    pde_x = x + np.linspace(-half_m, half_m, n_march)
    width = 2.0 * (pde_x[1] - pde_x[0])
    tau = t - _sqrt_graded(s, t, n_steps)[::-1]
    u_final = march(_smoothed_indicators(y_grid, pde_x, width), pde_x, tau, 0.5,
                    lambda tm: OU.drift(t - tm, pde_x), bc="neumann", rannacher=2)[-1]
    raw = np.array([np.interp(x, pde_x, row) for row in np.clip(u_final, 0.0, 1.0)])
    ref = np.minimum.accumulate(np.clip(_debias_smoothed(y_grid, raw, width), 0.0, 1.0))
    assert np.array_equal(curve.y_grid, y_grid)
    assert np.max(np.abs(curve.surv_p - ref)) <= 1e-12


def _ou_law(s, t, x):
    """Mean and standard deviation of X_t given X_s = x under dX = -X dt + dW."""
    return x * math.exp(-(t - s)), math.sqrt(-0.5 * math.expm1(-2.0 * (t - s)))


@pytest.mark.parametrize("spec, s, t, x", [(SPEC0, 0.5, 1.0, 0.7), (OU, 0.5, 0.6, -0.4)],
                         ids=["driftless", "ou"])
def test_phi_conditional_curve_matches_the_exact_conditional_survival(spec, s, t, x):
    """Gp off the survival route against the Gaussian law of X_t given
    X_s = x, over the 161 probes (1.4e-4 for OU from the restart solve)."""
    curve = build_phi_curve(Wang(0.5), spec, s, t, x, mu=wang_mu_closed(0.5))
    mean, sd = _ou_law(s, t, x) if spec is OU else (x, math.sqrt(t - s))
    exact = normal.sf((curve.y_grid - mean) / sd)
    assert np.max(np.abs(curve.surv_p - exact)) <= 2e-5


@pytest.mark.parametrize("s, t, x", [(0.5, 0.6, -0.4), (0.1, 1.0, 1.0)])
def test_wang_phi_under_ou_matches_its_closed_form(s, t, x):
    """Under Wang(alpha) the OU drift gains alpha / (2 sqrt(v(t))),
    v(t) = (1 - e^(-2t)) / 2, so both conditional laws are Gaussian with the
    same variance and Phi(p) = sf(quantile(1 - p) - shift / sd), shift the
    integral of e^(-(t - r)) alpha / (2 sqrt(v(r))) over [s, t] (1.6e-4 at
    (0.5, 0.6, -0.4) when Gp came from the restart solve)."""
    alpha = 0.5

    def mu(tm, xs):
        v = -0.5 * math.expm1(-2.0 * tm)
        return -np.asarray(xs, dtype=float) + alpha / (2.0 * math.sqrt(v))

    curve = build_phi_curve(Wang(alpha), OU, s, t, x, mu=mu)
    r = np.linspace(s, t, 20001)
    shift = np.trapezoid(np.exp(r - t) * alpha / (2.0 * np.sqrt(-0.5 * np.expm1(-2.0 * r))), r)
    _, sd = _ou_law(s, t, x)
    p = np.linspace(0.05, 0.95, 181)
    closed = normal.sf(normal.quantile(1.0 - p) - shift / sd)
    assert np.max(np.abs(curve(p) - closed)) <= 1.5e-5


SPOILED_HISTORIES = {
    # row 5 (t < 0.01) and columns 3-5 (x near -7.9) lie outside the kept window
    "non-finite": (lambda g: g.__setitem__(3, np.nan), "non-finite field values"),
    "negative density": (lambda g: g.__setitem__(4, 0.5), "significant negative values"),
}


@pytest.mark.parametrize("spoil", list(SPOILED_HISTORIES), ids=lambda k: f"window-{k}")
def test_spoiled_history_outside_the_window_is_rejected(monkeypatch, spoil):
    """The trimmed drift reads only a window of its survival march but
    checks all of it, as a DensityField checks its field."""
    change, message = SPOILED_HISTORIES[spoil]
    real = density.march_blocks

    def spoiled(*args, **kwargs):
        for a, G in real(*args, **kwargs):
            if a == 0:
                change(G[5])
            yield a, G

    monkeypatch.setattr(density, "march_blocks", spoiled)
    with pytest.raises(NumericError, match=message):
        _trimmed_pde_field(Wang(0.5), OU, 0.5, 1.0, 1601, math.inf)


def test_convergence_internal_reference_for_ou_drift():
    rep = convergence_study(OU, Wang(0.5), smoothed_step, [64, 256, 1024], 0.5, 0.0)
    assert rep.skipped == []
    assert all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    assert -1.2 < rep.slope < -0.8
    # closed form: under Wang(alpha) the OU drift gains alpha / (2 sqrt(v(t))),
    # v(t) = (1 - e^(-2t)) / 2, so X_1 from (0.5, 0) is Gaussian with mean
    # int_0.5^1 e^(-(1 - r)) alpha / (2 sqrt(v(r))) dr and variance v(0.5)
    r = np.linspace(0.5, 1.0, 20001)
    v = -0.5 * np.expm1(-2.0 * r)
    mean = np.trapezoid(np.exp(r - 1.0) * 0.25 / np.sqrt(v), r)
    z = np.linspace(-12.0, 12.0, 4801)
    closed = np.trapezoid(smoothed_step(mean + math.sqrt(v[0]) * z) * normal.pdf(z), z)
    assert abs(rep.reference - closed) <= 1e-5
