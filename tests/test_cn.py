"""Tests for the adjoint of the theta-scheme march."""

import numpy as np
import pytest

from distort._cn import _transposed_bands, march, march_adjoint, operator_bands
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
    u = march(payloads, X, times, 0.5, velocity, bc=bc, rannacher=rannacher)
    for j in (0, 1, 29, 30, 59, 60):
        w = march_adjoint(_unit(j), X, times, 0.5, velocity, bc=bc, rannacher=rannacher)
        assert np.max(np.abs(payloads @ w - u[:, j])) <= 1e-12


def test_adjoint_of_a_general_functional_and_implicit_theta():
    rng = np.random.default_rng(8)
    payloads = rng.normal(size=(4, X.size))
    probe = rng.normal(size=X.size)
    u = march(payloads, X, GRADED, 0.5, strong_velocity, bc="neumann", theta=1.0)
    w = march_adjoint(probe, X, GRADED, 0.5, strong_velocity, bc="neumann", theta=1.0)
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


def test_transposed_bands_match_the_dense_transpose():
    def dense(bands):
        lower, diag, upper = bands
        return np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)

    bands = operator_bands(X, 0.5, strong_velocity(0.2), "neumann")
    assert np.array_equal(dense(_transposed_bands(bands)), dense(bands).T)


def test_adjoint_guards():
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size - 1), X, UNIFORM, 0.5)
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size), X, UNIFORM[::-1], 0.5)
    with pytest.raises(DomainError):
        march_adjoint(np.zeros(X.size), X, UNIFORM, 0.5, bc="periodic")
