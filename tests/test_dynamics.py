"""Tests for the distorted drift, value PDE, simulation, and Phi curves."""

import math

import numpy as np
import pytest

from distort import normal
from distort.density import (
    DensityField,
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    gaussian_field,
    solve_survival_pde,
)
from scipy.interpolate import CubicSpline

from distort.distortion import Identity, Power, Prelec, SeparableProduct, TimeWeight, Wang
from distort.dynamics import (
    ConvergenceReport,
    DriftField,
    GridLookup,
    build_phi_curve,
    compute_mu,
    convergence_study,
    general_sigma_mu,
    lattice_from_diffusion,
    pde_mc_check,
    simulate_q_dynamics,
    solve_distorted_pde,
    wang_mu_closed,
    wang_phi_closed,
    wang_value_closed,
)
from distort._cn import march
from distort import dynamics
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

ZERO = constant_drift(0.0)


def smoothed_step(x):
    return 0.5 * (1.0 + np.tanh((np.asarray(x, dtype=float) - 0.2) / 0.25))


def ones_sigma(t, x):
    return np.ones_like(np.asarray(x, dtype=float))


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


def test_compute_mu_rejects_a_separable_schedule_with_a_jump_at_one(wang_field):
    """f(t) < 1 leaves mass 1 - f(t) at -inf, which no finite grid carries."""
    sched = SeparableProduct(TimeWeight("exp", rate=-0.5, anchor=0.0), Power(1.5))
    with pytest.raises(DomainError, match=r"jumps at p = 1 at t=0.1: phi_t\(1-\) = f\(t\) = 0.951"):
        compute_mu(sched, wang_field, ZERO)
    flat = SeparableProduct(TimeWeight("constant"), Power(1.5))
    assert np.array_equal(compute_mu(flat, wang_field, ZERO).mu,
                          compute_mu(Power(1.5), wang_field, ZERO).mu)


def test_drift_field_interpolation_and_extension():
    f = DriftField(
        np.array([0.0, 1.0]),
        np.array([0.0, 1.0, 2.0]),
        np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 4.0]]),
    )
    assert f.mu_at(0.5, 1.0) == pytest.approx(1.5)
    assert f.mu_at(0.0, 3.0) == pytest.approx(3.0)  # edge slope continues
    assert f.extrapolations == 1
    vals, n_out = f.table([0.0])(0, np.array([3.0]))
    assert vals[0] == pytest.approx(2.0)  # table holds
    assert n_out == 1 and f.extrapolations == 1  # the caller adds table counts


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
    """mu_at ("slope") or table() ("hold") by np.interp: (values, queries
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


@pytest.mark.parametrize("name", list(LOOKUP_GRIDS))
def test_grid_lookup_equals_np_interp(name):
    rng = np.random.default_rng(len(name))
    xg = LOOKUP_GRIDS[name]
    lk = GridLookup(xg)
    assert lk.uniform == (name != "non-uniform")
    assert (lk.slopes(np.zeros(xg.size)) is None) == (name == "non-uniform")
    row = rng.normal(size=xg.size)
    xs = _probe_points(xg, rng)
    out, n_out = lk(xs, row, lk.slopes(row))
    assert np.array_equal(out, np.interp(xs, xg, row))
    assert n_out == np.count_nonzero((xs < xg[0]) | (xs > xg[-1]))
    # the last node returns the last value exactly, not by a vanishing slope
    assert lk(xg[-1:], row, lk.slopes(row))[0][0] == row[-1]


@pytest.mark.parametrize("name", list(LOOKUP_GRIDS))
@pytest.mark.parametrize("extrapolate", ["hold", "slope"])
def test_mu_at_equals_the_np_interp_lookup(name, extrapolate):
    """mu_at extends by the edge slope; table() holds the edge value."""

    def read(t, xs):
        if extrapolate == "slope":
            return f.mu_at(t, xs)
        vals, n_out = f.table([t])(0, np.atleast_1d(xs))
        f.extrapolations += n_out
        return vals

    rng = np.random.default_rng(7)
    xg = LOOKUP_GRIDS[name]
    f = DriftField(np.array([0.1, 0.4, 1.0]), xg, rng.normal(size=(3, xg.size)))
    xs = _probe_points(xg, rng)
    xs = xs[np.isfinite(xs)]  # the edge slope is not finite at infinity
    for t in (0.0, 0.1, 0.25, 0.4, 0.7, 1.0, 2.0):
        before = f.extrapolations
        ref, below, above = _interp_mu_at(f, t, xs, extrapolate)
        assert np.array_equal(read(t, xs), ref)
        assert f.extrapolations - before == below + above > 0
        assert np.all(read(t, float(xs[-1])) == ref[-1])


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
        out, n_out = lk(xs, row, lk.slopes(row))
        assert np.array_equal(out, np.interp(xs, xg, row)), (trial, n)
        assert n_out == np.count_nonzero((xs < xg[0]) | (xs > xg[-1]))


def test_grid_lookup_overflowing_slopes_fall_back_to_np_interp():
    xg = np.array([0.0, 1e-10, 2e-10])
    row = np.array([0.0, 1e300, -1e300])
    lk = GridLookup(xg)
    assert lk.uniform and lk.slopes(row) is None
    xs = np.array([5e-11, 1e-10, 3e-10])
    assert np.array_equal(lk(xs, row, None)[0], np.interp(xs, xg, row))


def test_growth_constant_is_the_linear_gauge(wang_field):
    mu = compute_mu(Wang(0.5), wang_field, ZERO)
    c = mu.growth_constant()
    assert np.isfinite(c)
    assert c == pytest.approx(0.5 / (2.0 * math.sqrt(0.1)), rel=1e-9)


# ---------------------------------------------------------------------------
# general diffusion coefficient for the distorted dynamics

def test_general_sigma_reduces_to_compute_mu(wang_field):
    ref = compute_mu(Wang(0.5), wang_field, ZERO)
    gen = general_sigma_mu(Wang(0.5), wang_field, ZERO, ones_sigma, ones_sigma)
    assert np.max(np.abs(gen.mu - ref.mu)) <= 1e-12


def test_general_sigma_density_ratio_term():
    """sigma_check = sqrt(2), identity schedule: mu = d_x rho / (2 rho),
    which is -(x - x0) / (2 t) for the Gaussian field."""
    tg = np.linspace(0.5, 1.0, 11)
    xg = np.linspace(-4.0, 4.0, 801)
    field = gaussian_field(0.0, tg, xg)
    rt2 = lambda t, x: math.sqrt(2.0) * np.ones_like(np.asarray(x, dtype=float))
    gen = general_sigma_mu(Identity(), field, ZERO, ones_sigma, rt2)
    exact = -(xg[None, :]) / (2.0 * tg[:, None])
    inner = np.abs(xg) <= 1.5
    assert np.max(np.abs(gen.mu - exact)[:, inner]) <= 1e-3


def test_general_sigma_rejects_nonpositive_sigma(wang_field):
    for value in (0.0, -1.0, math.nan, math.inf):
        bad = lambda t, x: np.full_like(np.asarray(x, dtype=float), value)
        for sigma, sigma_check in [(ones_sigma, bad), (bad, ones_sigma)]:
            with pytest.raises(DomainError, match="must be positive and finite"):
                general_sigma_mu(Identity(), wang_field, ZERO, sigma, sigma_check)


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
    cols, worst = pde_mc_check(muf, sol, smoothed_step, probes, 1.0, 20_000, 50, 11)
    assert worst <= 0.0
    assert cols["s"] == [0.25, 0.5] and cols["x"] == [0.0, -0.5]
    assert cols["gap"] == [abs(p - m) for p, m in zip(cols["pde"], cols["mc"])]
    # the same Monte Carlo against the value of the base dynamics, b = 0
    base = solve_distorted_pde(ZERO, smoothed_step, 0.25, 1.0, value_field.x_grid, n_steps=200)
    _, worst_base = pde_mc_check(muf, base, smoothed_step, probes, 1.0, 20_000, 50, 11)
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


def test_phi_identity_detection_holds_for_state_dependent_drift():
    ou = DiffusionSpec(drift=lambda t, x: -0.3 * np.asarray(x, dtype=float),
                       x0=0.0, T=1.0)
    curve = build_phi_curve(Identity(), ou, 0.25, 1.0, 0.2, n_steps=200)
    assert np.max(np.abs(curve(P_CHECK) - P_CHECK)) == 0.0


def test_phi_wang_matches_closed_form(wang_curve):
    ref = wang_phi_closed(0.5, 0.25, 1.0)
    assert np.max(np.abs(wang_curve(P_CHECK) - ref(P_CHECK))) <= 1e-4


def test_phi_does_not_depend_on_the_anchor_state(wang_curve):
    """With state-independent drift the curve is a function of (s, t) only."""
    off = build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.8, drift_const=0.0)
    assert np.max(np.abs(off(P_CHECK) - wang_curve(P_CHECK))) <= 1e-4


def test_phi_pde_route_matches_closed_form():
    curve = build_phi_curve(Wang(0.5), SPEC0, 0.25, 1.0, 0.0, n_steps=400)
    assert curve.meta["mu_source"] == "pde-field"
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


def test_phi_curve_endpoint_validation():
    with pytest.raises(ConsistencyError):
        PhiCurve(0.25, 1.0, 0.0,
                 p_grid=np.array([0.0, 0.5, 1.0]),
                 values=np.array([0.1, 0.5, 1.0]),
                 y_grid=np.zeros(3), surv_p=np.zeros(3), surv_q=np.zeros(3))


def test_phi_adjoint_route_matches_the_multi_payload_march(wang_field):
    """Gq from one adjoint march equals the backward march of every smoothed
    indicator payload read at x; the drift is queried at the same points."""
    s, t, x, n_steps, n_march, n_y, y_width = 0.25, 1.0, 0.3, 200, 401, 41, 3.9
    mu = compute_mu(Wang(0.5), wang_field, ZERO)
    curve = build_phi_curve(Wang(0.5), SPEC0, s, t, x, drift_const=0.0, mu=mu,
                            n_steps=n_steps, n_march=n_march, n_y=n_y)

    ref_mu = DriftField(mu.t_grid, mu.x_grid, mu.mu)
    sq_gap = math.sqrt(t - s)
    y_grid = np.linspace(x - y_width * sq_gap, x + y_width * sq_gap, n_y)
    half_m = (y_width + 5.6) * sq_gap
    pde_x = x + np.linspace(-half_m, half_m, n_march)
    width = 2.0 * (pde_x[1] - pde_x[0])
    vel = _velocity_from(ref_mu, pde_x)
    tau = t - _sqrt_graded(s, t, n_steps)[::-1]
    u_final = march(_smoothed_indicators(y_grid, pde_x, width), pde_x, tau, 0.5,
                    lambda tm: vel(t - tm), bc="neumann", theta=0.5, rannacher=2)
    raw = np.array([np.interp(x, pde_x, row) for row in np.clip(u_final, 0.0, 1.0)])
    ref = np.clip(_debias_smoothed(y_grid, raw, width), 0.0, 1.0)
    ref = np.minimum.accumulate(ref)

    assert np.array_equal(curve.y_grid, y_grid)
    assert np.max(np.abs(curve.surv_q - ref)) <= 1e-12
    assert mu.extrapolations == ref_mu.extrapolations > 0


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
    sched = SeparableProduct(TimeWeight("exp", rate=-2.0, anchor=0.0), Power(2.0))
    rep = convergence_study(SPEC0, sched, smoothed_step, [8, 16], 0.5, 0.0,
                            u_ref=0.0)
    assert rep.skipped == [8, 16]
    assert rep.N_list == []
    assert isinstance(rep, ConvergenceReport)


def test_convergence_internal_reference_close_to_closed_form():
    rep = convergence_study(SPEC0, Wang(0.5), smoothed_step, [256], 0.5, 0.0)
    closed = wang_value_closed(0.5, smoothed_step, 0.5, 1.0, 0.0)
    assert abs(rep.reference - closed) <= 5e-4
    assert rep.errors[0] <= 5e-3


OU = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)


def test_trimmed_field_stops_short_of_zero_density():
    # the OU law at t = 0.5 has sd 0.56, so 7 sqrt(0.5) reaches 8.8 sd, where
    # the survival field saturates and its density is exactly 0
    field, wide = _trimmed_pde_field(OU, 0.5, 1.0, 1601, math.inf)
    assert np.all(field.rho > 0.0)
    assert field.t_grid[0] >= 0.5 - 1e-12 and field.t_grid[-1] == 1.0
    assert field.x_grid[0] > -7.0 * math.sqrt(0.5) and field.x_grid[-1] < 7.0 * math.sqrt(0.5)
    assert set(field.x_grid) <= set(wide) and wide.size == 1601
    # the base case keeps its full window
    field0, _ = _trimmed_pde_field(SPEC0, 0.5, 1.0, 1601, math.inf)
    assert field0.x_grid[-1] == pytest.approx(7.0 * math.sqrt(0.5), abs=0.01)


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
