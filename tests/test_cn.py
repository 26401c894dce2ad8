"""Tests for the theta-scheme step and march, and the adjoint march."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from distort import _cn
from distort._cn import (
    apply_operator,
    march,
    march_adjoint,
    march_blocks,
    operator_bands,
    theta_step,
)
from distort.dynamics import _sqrt_graded
from distort.errors import DomainError

X = np.linspace(-3.0, 3.0, 61)
UNIFORM = np.linspace(0.0, 1.0, 41)
GRADED = _sqrt_graded(0.05, 1.0, 40)


def strong_velocity(t):
    """Large enough that |v| dx > 2 D in many cells (upwinded there)."""
    return 40.0 * np.sin(3.0 * X + t) + 5.0 * t


def _unit(j):
    e = np.zeros(X.size)
    e[j] = 1.0
    return e


def test_strong_velocity_switches_cells_to_upwinding():
    dx = X[1] - X[0]
    v = strong_velocity(0.3)
    upwinded = np.count_nonzero(np.abs(v) * dx > 2.0 * 0.5)
    assert 10 < upwinded < X.size - 5


@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("times", [UNIFORM, GRADED], ids=["uniform", "graded"])
@pytest.mark.parametrize("velocity", [None, 1.5 * np.cos(X), strong_velocity],
                         ids=["none", "fixed", "callable"])
def test_adjoint_reads_every_payload_at_a_node(bc, rannacher, times, velocity):
    rng = np.random.default_rng(7)
    payloads = rng.normal(size=(6, X.size))
    u = march(payloads, X, times, 0.5, velocity, bc=bc, rannacher=rannacher)[-1]
    for j in (0, 1, 29, 30, 59, 60):
        w = march_adjoint(_unit(j), X, times, 0.5, velocity, bc=bc, rannacher=rannacher)
        assert np.max(np.abs(payloads @ w - u[:, j])) <= 1e-12


def test_adjoint_of_a_general_functional():
    rng = np.random.default_rng(8)
    payloads = rng.normal(size=(4, X.size))
    probe = rng.normal(size=X.size)
    u = march(payloads, X, GRADED, 0.5, strong_velocity, bc="neumann")[-1]
    w = march_adjoint(probe, X, GRADED, 0.5, strong_velocity, bc="neumann")
    assert np.max(np.abs(payloads @ w - u @ probe)) <= 1e-12


def test_adjoint_evaluates_velocity_at_the_forward_midpoints():
    seen_fwd, seen_adj = [], []

    def recording(seen):
        def vel(t):
            seen.append(t)
            return strong_velocity(t)
        return vel

    march(np.ones(X.size), X, GRADED, 0.5, recording(seen_fwd), rannacher=2)
    march_adjoint(_unit(3), X, GRADED, 0.5, recording(seen_adj), rannacher=2)
    assert seen_adj == seen_fwd[::-1]


@pytest.mark.parametrize("bc_values", [None, (1.0, 0.0)], ids=["free", "pinned"])
@pytest.mark.parametrize("rannacher", [0, 2])
@pytest.mark.parametrize("velocity", [1.5 * np.cos(X), strong_velocity],
                         ids=["fixed", "callable"])
def test_history_rows_are_the_final_slices_of_shorter_marches(velocity, rannacher,
                                                              bc_values):
    """Row k of the kept history is, bit for bit, what a march over the
    first k + 1 times returns."""
    u0 = 0.5 * (1.0 - np.tanh(X))
    history = march(u0, X, GRADED, 0.5, velocity, bc_values=bc_values,
                    rannacher=rannacher)
    assert history.shape == (GRADED.size, X.size)
    assert history[0].tobytes() == u0.tobytes()
    for k in range(1, GRADED.size):
        last = march(u0, X, GRADED[:k + 1], 0.5, velocity, bc_values=bc_values,
                     rannacher=rannacher)[-1]
        assert history[k].tobytes() == last.tobytes()


@pytest.mark.parametrize("rows", [1, 7, 41, None])
@pytest.mark.parametrize("shape", [(X.size,), (3, X.size)], ids=["one", "three"])
def test_blocks_are_the_history_a_block_at_a_time(shape, rows):
    """The blocks tile march's history in order, bit for bit, each a view
    of one buffer of at most ``rows`` states; a consumer that overwrites a
    block changes none of the states that follow."""
    u0 = 0.5 * (1.0 - np.tanh(X)) * np.ones(shape)
    history = march(u0, X, GRADED, 0.5, strong_velocity, bc_values=(1.0, 0.0), rannacher=2)
    seen = 0
    for a, blk in march_blocks(u0, X, GRADED, 0.5, strong_velocity, bc_values=(1.0, 0.0),
                               rannacher=2, rows=rows):
        first = blk if a == 0 else first
        assert a == seen and blk.shape[1:] == shape and np.shares_memory(blk, first)
        assert blk.shape[0] <= (GRADED.size if rows is None else rows)
        assert blk.tobytes() == history[a:a + blk.shape[0]].tobytes()
        blk[...] = np.nan
        seen += blk.shape[0]
    assert seen == GRADED.size


def test_transposed_bands_match_the_dense_transpose(monkeypatch):
    """The adjoint makes the march's theta_step calls in reverse order, each
    on the exact transpose of the march's operator with the same step
    length and theta (Rannacher half steps included)."""
    def dense(bands):
        sub, diag, sup = bands
        return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)

    step = _cn.theta_step

    def recording(calls):
        def rec(u, bands, dt, theta=0.5, bc_values=None):
            calls.append((dense(bands), dt, theta))
            return step(u, bands, dt, theta=theta, bc_values=bc_values)
        return rec

    fwd, adj = [], []
    monkeypatch.setattr(_cn, "theta_step", recording(fwd))
    march(np.ones(X.size), X, GRADED, 0.5, strong_velocity, bc="neumann", rannacher=2)
    monkeypatch.setattr(_cn, "theta_step", recording(adj))
    march_adjoint(_unit(3), X, GRADED, 0.5, strong_velocity, bc="neumann", rannacher=2)
    assert len(fwd) == len(adj) == GRADED.size + 1
    for (op, dt, theta), (op_t, dt_t, theta_t) in zip(fwd, adj[::-1]):
        assert (dt, theta) == (dt_t, theta_t)
        assert np.array_equal(op_t, op.T)


def test_adjoint_guards():
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size - 1), X, UNIFORM, 0.5)
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size), X, UNIFORM[::-1], 0.5)
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size), X, UNIFORM, 0.5, bc="periodic")


def _banded_reference(u, bands, dt, theta, bc_values=None):
    """theta_step as the banded LAPACK route of scipy.linalg.solve_banded."""
    sub, diag, sup = bands
    rhs = u + ((1.0 - theta) * dt) * apply_operator(u, bands) if theta < 1.0 else u.copy()
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = -theta * dt * sup
    ab[1, :] = 1.0 - theta * dt * diag
    ab[2, :-1] = -theta * dt * sub
    out = solve_banded((1, 1), ab, rhs.T).T
    if bc_values is not None:
        out[..., 0] = bc_values[0]
        out[..., -1] = bc_values[1]
    return out


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("shape", [(X.size,), (3, X.size)], ids=["one", "three"])
def test_theta_step_equals_the_banded_solve_bit_for_bit(theta, bc, shape):
    rng = np.random.default_rng(11)
    u = rng.normal(size=shape)
    bands = operator_bands(X, 0.5, strong_velocity(0.4), bc)
    pins = (1.0, 0.0) if bc == "dirichlet" else None
    for dt in (0.01, 0.37):
        got = theta_step(u, bands, dt, theta=theta, bc_values=pins)
        assert got.shape == shape
        assert np.array_equal(got, _banded_reference(u, bands, dt, theta, pins))


def test_theta_step_leaves_its_input_alone():
    u = np.linspace(0.0, 1.0, X.size)
    keep = u.copy()
    theta_step(u, operator_bands(X, 0.5), 0.1, theta=1.0)
    assert np.array_equal(u, keep)


def test_singular_step_raises_linalg_error():
    n = X.size
    # I - dt L vanishes on the diagonal and L has no off-diagonal entries
    bands = (np.zeros(n - 1), np.ones(n), np.zeros(n - 1))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        theta_step(np.ones(n), bands, 1.0, theta=1.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        theta_step(np.ones((3, n)), bands, 1.0, theta=1.0)


@pytest.mark.parametrize("velocity", [None, strong_velocity], ids=["none", "callable"])
def test_march_rejects_a_non_uniform_grid(velocity):
    bent = X + 0.01 * X**2
    with pytest.raises(DomainError, match="uniform"):
        march(np.ones(X.size), bent, UNIFORM, 0.5, velocity)
    with pytest.raises(DomainError, match="uniform"):
        march_adjoint(_unit(3), bent, UNIFORM, 0.5, velocity)


@pytest.mark.parametrize("velocity", [None, strong_velocity], ids=["none", "callable"])
def test_march_checks_the_grid_once(velocity, monkeypatch):
    calls = []
    real = _cn.uniform_spacing

    def counting(x):
        calls.append(1)
        return real(x)

    monkeypatch.setattr(_cn, "uniform_spacing", counting)
    march(np.ones(X.size), X, GRADED, 0.5, velocity, rannacher=2)
    march_adjoint(_unit(3), X, GRADED, 0.5, velocity, rannacher=2)
    assert len(calls) == 2


def test_operator_bands_are_in_the_solver_layout():
    """sub and sup hold the n - 1 off-diagonal entries of L, and L u is
    their product with u row by row."""
    sub, diag, sup = bands = operator_bands(X, 0.5, strong_velocity(0.2), "dirichlet")
    assert (sub.size, diag.size, sup.size) == (X.size - 1, X.size, X.size - 1)
    u = np.cos(X)
    dense = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
    assert np.max(np.abs(apply_operator(u, bands) - dense @ u)) <= 1e-12


@pytest.mark.parametrize("node, value", [(30, np.nan), (X.size - 1, np.inf)],
                         ids=["nan", "inf"])
def test_march_rejects_a_non_finite_grid_node(node, value):
    bad = X.copy()
    bad[node] = value
    with pytest.raises(DomainError, match=f"grid node {node} "):
        march(np.ones(X.size), bad, UNIFORM, 0.5)
    with pytest.raises(DomainError, match=f"grid node {node} "):
        march_adjoint(_unit(3), bad, UNIFORM, 0.5)


def test_march_rejects_non_finite_data():
    bad = np.ones(X.size)
    bad[7] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        march(bad, X, UNIFORM, 0.5)
    with pytest.raises(DomainError, match="non-finite"):
        march_adjoint(bad, X, UNIFORM, 0.5)
    with pytest.raises(DomainError, match="times"):
        march(np.ones(X.size), X, np.array([0.0, np.nan, 1.0]), 0.5)
    for d in (np.nan, np.inf, 0.0):
        with pytest.raises(DomainError, match="diffusion"):
            march(np.ones(X.size), X, UNIFORM, d)
