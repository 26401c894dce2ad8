"""Density/survival estimators: closed form, PDE, bridge MC, serialization."""

import math

import numpy as np
import pytest

from distort import density, normal
from distort.density import (
    BridgeEstimate,
    DensityField,
    DiffusionSpec,
    _sample_bridge,
    batch_generators,
    bridge_density_mc,
    constant_drift,
    default_grids,
    density_cross_check,
    field_from_binary,
    field_to_binary,
    field_to_csv,
    gaussian_field,
    normals_buffer,
    solve_survival_pde,
)
from distort.errors import AccuracyError, ConfigError, DomainError, NumericError
from distort.selftest import ou_bridge_excess, ou_density, wang_ou_drift_excess

from conftest import mp_cdf, read_csv, traced_peak

ZERO_DRIFT = constant_drift(0.0)


def small_field():
    t = np.array([0.5, 0.75, 1.0])
    x = np.linspace(-4.0, 4.0, 17)
    return gaussian_field(0.0, t, x)


# ---------------------------------------------------------------------------
# spec and field plumbing

def test_spec_validation():
    with pytest.raises(DomainError):
        DiffusionSpec(drift=1.0, x0=0.0, T=1.0)
    with pytest.raises(DomainError):
        DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=0.0)
    with pytest.raises(DomainError):
        DiffusionSpec(drift=lambda t, x: x * np.nan, x0=0.0, T=1.0)
    # the diffusion coefficient is 1: there is no field to set it
    with pytest.raises(TypeError):
        DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0, sigma=ZERO_DRIFT)


def test_field_shape_and_value_checks():
    t = np.array([0.5, 1.0])
    x = np.linspace(-1.0, 1.0, 5)
    good = np.full((2, 5), 0.1)
    G = np.tile(np.linspace(1.0, 0.0, 5), (2, 1))
    with pytest.raises(DomainError):
        DensityField(t, x, good[:, :4], G)
    with pytest.raises(NumericError):
        DensityField(t, x, good * np.nan, G)
    with pytest.raises(NumericError):
        DensityField(t, x, good - 1.0, G)


@pytest.mark.parametrize("nt, nx", [(0, 5), (2, 0)])
def test_field_rejects_an_empty_grid(nt, nx):
    """An empty field has no values to check or project; it is named here
    instead of failing in a reduction further down."""
    with pytest.raises(DomainError, match="1-D and non-empty"):
        DensityField(np.linspace(0.5, 1.0, nt), np.linspace(-1.0, 1.0, nx),
                     np.zeros((nt, nx)), np.zeros((nt, nx)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("offset", [1, 3 + 16], ids=["t", "x"])
def test_binary_reader_rejects_a_non_finite_grid(tmp_path, offset, bad):
    """A non-finite grid entry in a field file (after the 16-byte header,
    3 times, then 17 states) raises instead of reading back as a field whose
    rho_at returns nan."""
    path = tmp_path / "field.dfld"
    field_to_binary(small_field(), path)
    raw = bytearray(path.read_bytes())
    at = 16 + 8 * offset
    raw[at:at + 8] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="grids must be finite"):
        field_from_binary(path)


def test_field_monotone_projection_recorded():
    t = np.array([0.5, 1.0])
    x = np.linspace(-1.0, 1.0, 5)
    rho = np.full((2, 5), 0.1)
    G = np.tile(np.array([1.0, 0.7, 0.72, 0.3, 0.0]), (2, 1))
    field = DensityField(t, x, rho, G)
    assert field.projection == pytest.approx(0.02, abs=1e-15)
    assert np.all(np.diff(field.G, axis=1) <= 0.0)
    assert np.allclose(field.G_comp, 1.0 - field.G)


def test_field_built_in_blocks_equals_the_whole_array_formulas():
    """Clipped and projected in place a block of rows at a time, a field holds
    the whole-array results bit for bit, across block boundaries: rho
    clipped at 0 (-0.0 included), G clipped to [0, 1] and made
    nonincreasing, the projection its largest change, and 1 - G clipped."""
    rng = np.random.default_rng(5)
    nt, nx = 150, 40  # three blocks of rows, the last one short
    t = np.linspace(0.1, 1.0, nt)
    x = np.linspace(-2.0, 2.0, nx)
    rho = rng.uniform(-1e-10, 1.0, size=(nt, nx))
    rho[::7, ::3] = -0.0
    G = np.sort(rng.uniform(-0.1, 1.1, size=(nt, nx)), axis=1)[:, ::-1]
    G = G + rng.normal(scale=1e-3, size=(nt, nx))
    G[140, 20] += 0.5  # the largest change falls in the last block
    want_rho = np.maximum(rho, 0.0)
    want_G = np.minimum.accumulate(np.clip(G, 0.0, 1.0), axis=1)
    want_projection = float(np.max(np.abs(want_G - G)))
    want_comp = np.clip(1.0 - want_G, 0.0, 1.0)
    field = DensityField(t, x, rho, G)
    assert field.rho.tobytes() == want_rho.tobytes()
    assert field.G.tobytes() == want_G.tobytes()
    assert field.G_comp.tobytes() == want_comp.tobytes()
    assert field.projection == want_projection > 0.4


def test_field_takes_over_writeable_arrays_and_copies_read_only_ones():
    t = np.array([0.5, 1.0])
    x = np.linspace(-1.0, 1.0, 5)
    raw = np.tile(np.array([1.0, 0.7, 0.72, 0.3, 0.0]), (2, 1))
    rho, G = np.full((2, 5), 0.1), raw.copy()
    field = DensityField(t, x, rho, G)
    assert field.rho is rho and field.G is G
    assert G[0, 2] == 0.7
    frozen = raw.copy()
    frozen.flags.writeable = False
    field = DensityField(t, x, np.full((2, 5), 0.1), frozen)
    assert frozen[0, 2] == 0.72 and field.G[0, 2] == 0.7


@pytest.mark.parametrize("comp, error, message", [
    (np.full(3, 0.5), DomainError, r"G_comp shape \(3,\) does not match the field shape \(2, 5\)"),
    (np.full((2, 5), np.nan), NumericError, "non-finite G_comp"),
], ids=["shape", "nan"])
def test_field_rejects_a_bad_complement(comp, error, message):
    """A complement of the wrong shape or with non-finite entries is named at
    construction, not found later by compute_mu as an IndexError or a
    non-finite drift."""
    t = np.array([0.5, 1.0])
    x = np.linspace(-1.0, 1.0, 5)
    G = np.tile(np.linspace(1.0, 0.0, 5), (2, 1))
    with pytest.raises(error, match=message):
        DensityField(t, x, np.full((2, 5), 0.1), G, G_comp=comp)


def test_field_interpolation():
    field = small_field()
    x = field.x_grid
    assert field.rho_at(0.75, x[3]) == pytest.approx(field.rho[1, 3], rel=1e-14)
    assert field.G[2, 8] == pytest.approx(0.5, abs=1e-14)
    mid = field.rho_at(0.875, 0.0)
    assert mid == pytest.approx(0.5 * (field.rho[1, 8] + field.rho[2, 8]), rel=1e-13)
    with pytest.raises(DomainError):
        field.rho_at(0.1, 0.0)
    with pytest.raises(DomainError):
        field.rho_at(0.75, 9.0)


def test_single_time_field_rejects_interpolation():
    field = gaussian_field(0.0, [1.0], np.linspace(-4, 4, 33))
    with pytest.raises(DomainError):
        field.rho_at(1.0, 0.0)


# ---------------------------------------------------------------------------
# closed form

def test_gaussian_field_values():
    field = small_field()
    assert field.rho_at(1.0, 0.0) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-14)
    assert field.G[2, 8] == pytest.approx(0.5, abs=1e-15)
    quarter = gaussian_field(0.0, [0.25], np.array([0.5, 1.0, 1.5]))
    assert quarter.rho[0, 1] == pytest.approx(np.exp(-2.0) / np.sqrt(np.pi / 2.0), rel=1e-14)
    with pytest.raises(DomainError):
        gaussian_field(0.0, [0.0, 1.0], np.linspace(-1, 1, 5))


def test_gaussian_field_complement_deep_tail():
    x = np.array([-22.0, -20.0, 0.0])
    field = gaussian_field(0.0, [1.0], x)
    ref = float(mp_cdf(-20.0))
    assert field.G_comp[0, 1] == pytest.approx(ref, rel=5e-13)
    assert field.G[0, 1] == 1.0  # the survival itself rounds to one here


def test_field_mass_is_one():
    t, x = default_grids(DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0), nt=5, nx=801)
    field = gaussian_field(0.0, t, x)
    mass = np.trapezoid(field.rho, field.x_grid, axis=1)
    assert np.max(np.abs(mass - 1.0)) <= 1e-6


# ---------------------------------------------------------------------------
# survival PDE

def pde_vs_reference(drift_fn, drift_const, x0=0.0, tol=1e-3):
    spec = DiffusionSpec(drift=drift_fn, x0=x0, T=1.0)
    t_grid, x_grid = default_grids(spec)
    field = solve_survival_pde(spec, t_grid, x_grid)
    ref = gaussian_field(x0, t_grid, x_grid, drift=drift_const)
    sel = t_grid >= 0.1
    g_err = float(np.max(np.abs(field.G[sel] - ref.G[sel])))
    r_err = float(np.max(np.abs(field.rho[sel] - ref.rho[sel])))
    assert g_err <= tol, f"G error {g_err}"
    assert r_err <= tol, f"rho error {r_err}"
    return field


def test_pde_matches_heat_kernel():
    pde_vs_reference(ZERO_DRIFT, 0.0)


def test_pde_matches_shifted_kernel():
    pde_vs_reference(constant_drift(0.5), 0.5)


def test_pde_time_dependent_drift():
    # b(t, x) = 0.5 t gives X_t ~ N(x0 + 0.25 t^2, t)
    spec = DiffusionSpec(drift=lambda t, x: 0.5 * t * np.ones_like(np.asarray(x, float)), x0=0.0, T=1.0)
    t_grid, x_grid = default_grids(spec)
    field = solve_survival_pde(spec, t_grid, x_grid)
    sd = np.sqrt(t_grid)[:, None]
    z = (x_grid[None, :] - 0.25 * t_grid[:, None] ** 2) / sd
    sel = t_grid >= 0.1
    assert float(np.max(np.abs(field.G[sel] - normal.sf(z)[sel]))) <= 1e-3


def test_pde_ou_moments():
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.5, T=1.0)
    t_grid, x_grid = default_grids(spec)
    field = solve_survival_pde(spec, t_grid, x_grid)
    rho1 = field.rho[-1]
    mean = float(np.trapezoid(x_grid * rho1, x_grid))
    var = float(np.trapezoid(x_grid**2 * rho1, x_grid)) - mean**2
    assert mean == pytest.approx(0.5 * np.exp(-1.0), abs=1e-2)
    assert var == pytest.approx(0.5 * (1.0 - np.exp(-2.0)), abs=1e-2)


def test_survival_solve_peak_stays_below_five_and_a_half_fields():
    """The march history is filled in place and rho, the clip, the projection
    and the complement are built in place or by row blocks, so the traced
    peak of an 801 x 1601 solve stays below 5.5 arrays of the field's size
    (6.0 when each of these steps allocated a field of its own)."""
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    t_grid, x_grid = default_grids(spec, nt=801)
    field, peak = traced_peak(solve_survival_pde, spec, t_grid, x_grid)
    assert field.G.shape == (801, 1601)
    assert peak < 5.5 * field.G.nbytes


SPOILED_CELLS = {
    # (row, column): value written into the march before the clip
    "leak": ({(5, 1): 0.5}, AccuracyError, r"reaches the boundary \(leak 5.00e-01\)"),
    "leak-before-a-later-nan": ({(5, 1): 0.5, (600, 3): np.nan}, AccuracyError, "leak"),
    "leak-after-an-earlier-nan": ({(5, 3): np.nan, (600, -2): 0.5}, AccuracyError, "leak"),
    "nan-in-the-leak-column": ({(5, 1): np.nan}, NumericError, "non-finite field values"),
    "nan-before-negative": ({(700, 4): 0.5, (650, 3): np.nan}, NumericError, "non-finite"),
    "negative": ({(700, 4): 0.5}, NumericError, "significant negative values"),
}


@pytest.mark.parametrize("name", list(SPOILED_CELLS))
def test_survival_checks_every_row_in_order(monkeypatch, name):
    """The block reader runs the whole field's checks after its last block,
    in the order the whole field ran them: the leak, then non-finite
    values, then negative densities, whichever block spoils them.  A NaN
    where the leak is read passes the leak check, as np.max then max()
    over the whole history let it."""
    cells, error, message = SPOILED_CELLS[name]
    real = density.march_blocks

    def spoiled(*args, **kwargs):
        for a, G in real(*args, **kwargs):
            for (row, col), value in cells.items():
                if a <= row < a + G.shape[0]:
                    G[row - a, col] = value
            yield a, G

    monkeypatch.setattr(density, "march_blocks", spoiled)
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    with pytest.raises(error, match=message):
        solve_survival_pde(spec, np.linspace(1e-3, 1.0, 801), np.linspace(-8.0, 8.0, 1601))


def test_pde_guards():
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    with pytest.raises(DomainError):
        solve_survival_pde(spec, np.linspace(1e-5, 1, 50), np.linspace(-8, 8, 401))
    with pytest.raises(AccuracyError):
        solve_survival_pde(spec, np.linspace(0.001, 1, 200), np.linspace(-2, 2, 401))


def test_pde_rejects_a_nan_grid_node_by_its_index():
    """A NaN node fails the spacing check at once, named by its index, not
    later in the march as non-finite data."""
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    x_grid = np.linspace(-8, 8, 401)
    x_grid[200] = np.nan
    with pytest.raises(DomainError, match="grid node 200 is nan"):
        solve_survival_pde(spec, np.linspace(0.1, 1, 50), x_grid)


# ---------------------------------------------------------------------------
# bridge Monte Carlo

def test_bridge_driftless_is_exact():
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    for t, x in [(1.0, 1.0), (0.25, 0.3)]:
        est = bridge_density_mc(spec, t, x, paths=4000, steps=50, seed=1)
        kernel = normal.pdf((x - 0.0) / np.sqrt(t)) / np.sqrt(t)
        assert est.value == kernel
        assert est.std_error == 0.0


def test_bridge_constant_drift_direct_route():
    # for constant b the Ito sum telescopes, so even the direct route is
    # deterministic; t != 1 exercises the time scaling of the bridge law
    spec = DiffusionSpec(drift=constant_drift(1.0), x0=0.0, T=1.0)
    t, x = 0.25, 0.4
    est = bridge_density_mc(spec, t, x, paths=2000, steps=100, seed=3)
    ref = normal.pdf((x - t) / np.sqrt(t)) / np.sqrt(t)
    assert est.value == pytest.approx(ref, rel=1e-12)
    assert est.std_error <= 1e-12 * ref


def ou_reference(x, t):
    var = 0.5 * (1.0 - np.exp(-2.0 * t))
    return normal.pdf(x / np.sqrt(var)) / np.sqrt(var)


def test_bridge_ou_direct_route():
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)
    for x in (0.0, 1.0, -1.0):
        est = bridge_density_mc(spec, 1.0, x, paths=20000, steps=800, seed=7)
        ref = ou_reference(x, 1.0)
        assert abs(est.value - ref) <= 3.0 * est.std_error + 2e-4, (x, est)


def test_bridge_ou_short_horizon():
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)
    est = bridge_density_mc(spec, 0.25, 0.5, paths=20000, steps=400, seed=9)
    ref = ou_reference(0.5, 0.25)
    assert abs(est.value - ref) <= 3.0 * est.std_error + 2e-4


def test_bridge_determinism_and_batching():
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)
    a = bridge_density_mc(spec, 1.0, 0.5, paths=3000, steps=60, seed=21)
    b = bridge_density_mc(spec, 1.0, 0.5, paths=3000, steps=60, seed=21)
    c = bridge_density_mc(spec, 1.0, 0.5, paths=3000, steps=60, seed=22)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.value != c.value
    assert isinstance(a, BridgeEstimate) and a.paths == 3000


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_bridge_rejects_a_non_finite_endpoint(x):
    """Named up front, not reported as a drift blowup along the bridge."""
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)
    with pytest.raises(DomainError, match=rf"bridge_density_mc: x={x} must be finite"):
        bridge_density_mc(spec, 1.0, x, paths=1000, steps=10, seed=1)


@pytest.mark.parametrize("kwargs, shown", [({"paths": 2.5}, "paths=2.5"),
                                           ({"steps": 10.5}, "steps=10.5")])
def test_bridge_rejects_a_non_integral_count(kwargs, shown):
    """Named up front, not reported as a numpy TypeError."""
    spec = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)
    args = {"paths": 1000, "steps": 10, **kwargs}
    with pytest.raises(DomainError, match=rf"bridge_density_mc: {shown} must be an integer"):
        bridge_density_mc(spec, 1.0, 0.5, seed=1, **args)


def _strided_bridge(rng, size, steps, t, x0, x):
    """The bridge recursion written path-major, one strided column per step."""
    dt = t / steps
    path = np.empty((size, steps + 1))
    path[:, 0] = x0
    z = rng.standard_normal((size, steps))
    cur = np.full(size, x0)
    for k in range(steps):
        remain = t - k * dt
        mean = cur + (x - cur) * (dt / remain)
        var = dt * (remain - dt) / remain
        cur = mean + np.sqrt(max(var, 0.0)) * z[:, k]
        path[:, k + 1] = cur
    path[:, -1] = x
    return path


@pytest.mark.parametrize("size,steps,t,x0,x", [
    (1000, 400, 1.0, 0.0, 0.5), (7, 2, 0.25, -0.3, 1.2), (33, 61, 2.0, 1.0, -1.0),
])
def test_sample_bridge_equals_the_strided_loop(size, steps, t, x0, x):
    def rng():
        return np.random.Generator(np.random.Philox(key=np.array([5, 3], dtype=np.uint64)))

    # a wider buffer, as a worker's holds for its largest batch
    path = np.full((steps + 1, size + 3), np.nan)[:, :size]
    _sample_bridge(rng(), path, normals_buffer(steps), t, x0, x)
    want = _strided_bridge(rng(), size, steps, t, x0, x)
    assert path.T.shape == want.shape
    assert np.ascontiguousarray(path.T).tobytes() == want.tobytes()


@pytest.mark.parametrize("paths", [1, 39, 40, 3001])
def test_batch_generators_split_and_key(paths):
    got = list(batch_generators(9, paths))
    nb = min(40, paths)
    base, extra = divmod(paths, nb)
    assert [idx for idx, _, _ in got] == list(range(nb))
    assert [size for _, size, _ in got] == [base + (k < extra) for k in range(nb)]
    for idx, _, rng in got:
        ref = np.random.Generator(np.random.Philox(key=np.array([9, idx], dtype=np.uint64)))
        assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


def test_wang_drift_gate_rejects_the_driftless_density():
    """Selftest criterion 5's gate must fail the Wang drift read from the
    wrong law, the driftless bridge estimate (exact, zero variance), at its
    cells, and pass the OU density, whose drift is the closed form."""
    driftless = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    for t in (0.25, 1.0):
        for x in (-1.0, 0.0, 1.0):
            est = bridge_density_mc(driftless, t, x, paths=4000, steps=200, seed=29)
            assert est.std_error == 0.0
            assert wang_ou_drift_excess(0.5, t, x, est.value, est.std_error, 200) > 0.0
            # at the exact density the drift formula meets the closed form to
            # roundoff, far inside any bias allowance
            assert wang_ou_drift_excess(0.5, t, x, ou_density(t, x), 0.0, 10**12) < 0.0


def test_ou_gate_rejects_the_driftless_density():
    """Selftest criterion 9's OU gate must fail an estimate of the wrong law:
    the driftless bridge estimate (exact, zero variance) at the OU probes."""
    driftless = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    for x in (0.0, 1.0, -1.0):
        est = bridge_density_mc(driftless, 1.0, x, paths=4000, steps=400, seed=31)
        assert est.value == pytest.approx(normal.pdf(x), rel=1e-12)
        assert ou_bridge_excess(1.0, x, est.value, est.std_error, 400) > 0.0
        assert ou_bridge_excess(1.0, x, ou_density(1.0, x), 0.0, 400) < 0.0
    assert ou_density(1.0, 0.5) == pytest.approx(ou_reference(0.5, 1.0), rel=1e-14)


def test_bridge_guards():
    spec = DiffusionSpec(drift=ZERO_DRIFT, x0=0.0, T=1.0)
    with pytest.raises(DomainError):
        bridge_density_mc(spec, 0.0, 0.5)
    with pytest.raises(DomainError):
        bridge_density_mc(spec, 2.0, 0.5)
    blowup = DiffusionSpec(drift=lambda t, x: np.asarray(x, float) * 1e200, x0=0.0, T=1.0)
    with pytest.raises(NumericError):
        bridge_density_mc(blowup, 1.0, 1.0, paths=100, steps=10, seed=1)


def test_density_cross_check_rejects_a_scaled_density():
    field = gaussian_field(0.3, np.linspace(0.1, 1.0, 37), np.linspace(-5.0, 5.0, 501), drift=0.5)
    cols, worst = density_cross_check(0.5, 0.3, 1.0, field, 5)
    assert worst <= 0.0
    assert cols["t"] == [0.25] * 3 + [1.0] * 3
    assert cols["x"][1] == 0.3 + 0.5 * 0.25 and cols["x"][4] == 0.3 + 0.5
    scaled = DensityField(field.t_grid, field.x_grid, 1.05 * field.rho, field.G)
    _, worst_scaled = density_cross_check(0.5, 0.3, 1.0, scaled, 5)
    assert worst_scaled > 0.0


# ---------------------------------------------------------------------------
# serialization

def test_csv_round_trip(tmp_path):
    field = small_field()
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    header, (tt, xx, rho, G) = read_csv(path)
    nt, nx = field.rho.shape
    assert header == ["t", "x", "rho", "G"]
    assert np.array_equal(tt, np.repeat(field.t_grid, nx))
    assert np.array_equal(xx, np.tile(field.x_grid, nt))
    assert np.array_equal(rho.reshape(nt, nx), field.rho)
    assert np.array_equal(G.reshape(nt, nx), field.G)


def test_binary_round_trip(tmp_path):
    field = small_field()
    path = tmp_path / "field.dfld"
    field_to_binary(field, path)
    back = field_from_binary(path)
    assert np.array_equal(back.t_grid, field.t_grid)
    assert np.array_equal(back.rho, field.rho)
    assert np.array_equal(back.G, field.G)


def test_binary_rejects_corruption(tmp_path):
    field = small_field()
    path = tmp_path / "field.dfld"
    field_to_binary(field, path)
    raw = bytearray(path.read_bytes())
    bad_magic = tmp_path / "bad_magic.dfld"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ConfigError):
        field_from_binary(bad_magic)
    bad_version = tmp_path / "bad_version.dfld"
    bad_version.write_bytes(bytes(raw[:4]) + b"\x09\x00\x00\x00" + bytes(raw[8:]))
    with pytest.raises(ConfigError):
        field_from_binary(bad_version)
    short = tmp_path / "short.dfld"
    short.write_bytes(bytes(raw[:40]))
    with pytest.raises(ConfigError):
        field_from_binary(short)
    stub = tmp_path / "stub.dfld"
    stub.write_bytes(b"\x00\x01")
    with pytest.raises(ConfigError):
        field_from_binary(stub)
