"""Shared theta-scheme stepper for the 1-D parabolic solvers.

Discretizes L u = D u'' + v u' on a uniform grid with centered differences,
switching to one-sided advection in cells where |v| dx > 2 D (the centered
stencil loses positivity there and Crank-Nicolson would oscillate).  Both
survival and value equations march through here; they differ only in the
sign convention of the velocity and the boundary treatment.

march_adjoint runs the transposed steps in reverse order.  Where many
payloads are marched only to be read through one linear functional (the
value at a node), that functional marched once gives the same numbers by
discrete duality: e . (M_{N-1} ... M_0 u0) = (M_0^T ... M_{N-1}^T e) . u0.
For the backward value equation this is the discrete Kolmogorov forward
equation started from the probe.

A march checks its grid and its data once and rebuilds the bands of each
step from the spacing, checking only that step's diffusion and velocity;
each step is one direct LAPACK gtsv solve.  Bands are kept in gtsv's own
layout, (sub, diag, sup) of lengths n - 1, n, n - 1, so a step passes them
without slicing and the transposed step swaps sub and sup.  No band or
velocity tables are built for all steps at once: on the Phi curve that was
no faster than the per-step route and raised peak memory from 211 to 246 MB.
march_blocks steps into one buffer of a given number of rows and hands over
each block of states as it fills, so a consumer that reads the history a
block at a time (the survival field) never holds all of it.  march is the
one-block case: its buffer is the whole history, one (nt,) + u0.shape array
allocated up front and filled a slice per step, so it holds the history and
a few slices, not the history twice.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DomainError


def uniform_spacing(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise DomainError("grid must be 1-D with at least 3 points")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"grid node {bad[0]} is {x[bad[0]]}; grid nodes must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0.0) or (dx.max() - dx.min()) > 1e-9 * dx.mean():
        raise DomainError("grid must be uniform and increasing")
    return float(dx.mean())


def operator_bands(x, diffusion, velocity=None, bc="dirichlet"):
    """Tridiagonal bands (sub, diag, sup) of L u = D u'' + v u', of lengths
    n - 1, n and n - 1 as gtsv takes them: sub[i] = L[i + 1, i] and
    sup[i] = L[i, i + 1].

    Dirichlet rows are zeroed so boundary values stay frozen; Neumann rows
    use a reflected ghost node (zero normal derivative)."""
    return _bands(uniform_spacing(x), np.asarray(x).size, diffusion, velocity, bc)


def _bands(dx, n, diffusion, velocity, bc):
    """operator_bands on a grid of n nodes already checked to have spacing dx."""
    d = np.asarray(diffusion, dtype=float)
    if not (np.isfinite(d) & (d > 0.0)).all():
        raise DomainError("diffusion coefficient must be positive and finite")
    # read-only views: d and v are only read below
    d = np.broadcast_to(d, (n,))
    v = np.zeros(n) if velocity is None else np.broadcast_to(
        np.asarray(velocity, dtype=float), (n,)
    )
    if not np.isfinite(v).all():
        raise DomainError("velocity contains non-finite entries")
    base = d / dx**2
    half = v / (2.0 * dx)
    lower = base - half
    upper = base + half
    diag = -2.0 * base
    wind = np.abs(v) * dx > 2.0 * d
    if np.any(wind):
        pos = wind & (v > 0.0)
        neg = wind & (v < 0.0)
        lower[pos] = base[pos]
        upper[pos] = base[pos] + v[pos] / dx
        diag[pos] = -2.0 * base[pos] - v[pos] / dx
        lower[neg] = base[neg] - v[neg] / dx
        upper[neg] = base[neg]
        diag[neg] = -2.0 * base[neg] + v[neg] / dx
    if bc == "dirichlet":
        lower[-1] = diag[0] = diag[-1] = upper[0] = 0.0
    elif bc == "neumann":
        diag[0] = -2.0 * base[0]
        upper[0] = 2.0 * base[0]
        lower[-1] = 2.0 * base[-1]
        diag[-1] = -2.0 * base[-1]
    else:
        raise DomainError(f"unknown boundary condition {bc!r}")
    return lower[1:], diag, upper[:-1]


def apply_operator(u, bands):
    sub, diag, sup = bands
    out = diag * u
    out[..., :-1] += sup * u[..., 1:]
    out[..., 1:] += sub * u[..., :-1]
    return out


def theta_step(u, bands, dt, theta=0.5, bc_values=None):
    """Advance (I - theta dt L) u_next = (I + (1-theta) dt L) u by one step.

    u may be (n,) or (k, n) for several payloads sharing the operator.  The
    solve checks no entry for being finite; march checks its data once."""
    sub, diag, sup = bands
    rhs = u + ((1.0 - theta) * dt) * apply_operator(u, bands) if theta < 1.0 else u.copy()
    _, _, _, out, info = dgtsv(
        -theta * dt * sub, 1.0 - theta * dt * diag, -theta * dt * sup,
        rhs.T, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    out = out.T
    if bc_values is not None:
        out[..., 0] = bc_values[0]
        out[..., -1] = bc_values[1]
    return out


def _checked_times(times):
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size < 2 or not np.all(np.isfinite(times))
            or np.any(np.diff(times) <= 0.0)):
        raise DomainError("times must be increasing with at least 2 entries")
    return times


def _check_finite(u):
    """The gtsv steps do not check their data, so a march checks it once."""
    if not np.all(np.isfinite(u)):
        raise DomainError("march data contains non-finite entries")


def _step_bands(x, diffusion, velocity, bc):
    """bands(t) for the steps of a march, with the grid checked once.

    A fixed velocity gives one set of bands; a callable one is read at t and
    its bands rebuilt from the checked spacing."""
    if velocity is None or not callable(velocity):
        bands = operator_bands(x, diffusion, velocity, bc)
        return lambda t: bands
    dx, n = uniform_spacing(x), np.asarray(x).size
    return lambda t: _bands(dx, n, diffusion, velocity(t), bc)


def _interval_step(u, bands, dt, rannacher, bc_values=None):
    """u across one interval of length dt: two fully implicit half steps on
    a Rannacher interval, one Crank-Nicolson step otherwise."""
    if rannacher:
        u = theta_step(u, bands, 0.5 * dt, theta=1.0, bc_values=bc_values)
        return theta_step(u, bands, 0.5 * dt, theta=1.0, bc_values=bc_values)
    return theta_step(u, bands, dt, bc_values=bc_values)


def march(u0, x, times, diffusion, velocity=None, bc="dirichlet", bc_values=None,
          rannacher=0):
    """March u0 across ``times`` by Crank-Nicolson steps.

    velocity: None, a fixed array over x, or a callable t -> array over x
    (evaluated at interval midpoints).  The first ``rannacher`` intervals are
    integrated with two fully implicit half steps to damp rough payloads.
    Returns the history, one (nt,) + u0.shape array written step by step;
    its last slice [-1] is the state at times[-1].
    """
    # one block: the buffer is the whole history
    (_, history), = march_blocks(u0, x, times, diffusion, velocity, bc, bc_values, rannacher)
    return history


def march_blocks(u0, x, times, diffusion, velocity=None, bc="dirichlet", bc_values=None,
                 rannacher=0, rows=None):
    """march's history a block at a time: yields (a, block), block the
    states at times[a:a + len(block)].

    Every block is a view of one buffer of ``rows`` states (all of them when
    None), stepped into in place and handed over when full, and the last
    block when the march ends; a consumer may change a block, which the
    march does not read back, but must copy what it keeps past the next one.
    """
    times = _checked_times(times)
    u = np.array(u0, dtype=float)
    if u.shape[-1] != np.asarray(x).size:
        raise DomainError("initial data does not match the grid")
    _check_finite(u)
    bands_at = _step_bands(x, diffusion, velocity, bc)
    buf = np.empty((times.size if rows is None else min(rows, times.size),) + u.shape)
    buf[0] = u
    a, n = 0, 1
    for k in range(times.size - 1):
        if n == buf.shape[0]:
            yield a, buf
            a, n = a + n, 0
        bands = bands_at(0.5 * (times[k] + times[k + 1]))
        u = _interval_step(u, bands, times[k + 1] - times[k], k < rannacher, bc_values)
        buf[n] = u
        n += 1
    yield a, buf[:n]


def march_adjoint(w, x, times, diffusion, velocity=None, bc="dirichlet", rannacher=0):
    """Transpose of ``march``: march(u0, ...) @ w == u0 @ march_adjoint(w, ...).

    Runs the intervals from last to first, applying the transposed step
    M_k^T = B^T A^-T with A = I - dt L / 2 and B = I + dt L / 2; the
    Rannacher half steps on the first ``rannacher`` intervals are transposed
    the same way.  A and B are polynomials in L and commute, so theta_step on
    the transposed bands, which forms A^-T B^T, applies the same matrix;
    only the rounding differs.  The velocity is evaluated
    at the same interval midpoints as in ``march``.  Boundary values are not
    supported: pinning them makes the step affine, which has no transpose.
    """
    times = _checked_times(times)
    w = np.array(w, dtype=float)
    if w.shape != np.asarray(x).shape:
        raise DomainError("adjoint data does not match the grid")
    _check_finite(w)
    bands_at = _step_bands(x, diffusion, velocity, bc)
    for k in range(times.size - 2, -1, -1):
        sub, diag, sup = bands_at(0.5 * (times[k] + times[k + 1]))
        w = _interval_step(w, (sup, diag, sub), times[k + 1] - times[k], k < rannacher)
    return w
