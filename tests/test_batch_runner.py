"""The Monte Carlo batch runner: results and errors do not depend on how
many worker threads run the batches, and no thread outlives a call."""

import sys
import threading

import numpy as np
import pytest

from distort import density
from distort.density import (
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    run_batches,
)
from distort.dynamics import DriftField, simulate_q_dynamics
from distort.errors import NumericError

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def workers(monkeypatch):
    """set(k): run every batch runner call on at most k worker threads."""

    def set_count(k):
        monkeypatch.setattr(density, "_worker_count", lambda shares: min(k, shares))

    return set_count


def _narrow_field():
    """7 x 9 random drift on [-0.3, 0.5]: paths leave it at both edges."""
    rng = np.random.default_rng(3)
    xg = np.linspace(-0.3, 0.5, 9)
    return DriftField(np.linspace(0.0, 1.0, 7), xg, rng.normal(size=(7, xg.size)))


def _euler_bytes(res):
    return (np.float64(res.mean).tobytes(), np.float64(res.std_error).tobytes(),
            res.extrapolations)


def _bridge_bytes(est):
    return np.float64(est.value).tobytes(), np.float64(est.std_error).tobytes()


def _ou(t, x):
    return -np.asarray(x, dtype=float)


def _payoff(x):
    return np.tanh(np.asarray(x, dtype=float))


def _engine_results():
    """Every engine case."""
    out = {}
    for paths in (1, 17, 39, 41, 3001):
        f = _narrow_field()
        res = simulate_q_dynamics(f, 0.1, 0.05, 0.9, paths=paths, steps=37, seed=4)
        out[f"narrow-{paths}"] = _euler_bytes(res)
    res = simulate_q_dynamics(lambda t, x: np.sin(t) - x, 0.0, 0.3, 1.0, paths=2003,
                              steps=30, seed=8, g=_payoff)
    out["callable"] = _euler_bytes(res)
    ou = DiffusionSpec(drift=_ou, x0=0.0, T=1.0)
    for paths in (1, 7, 41, 40 * 129):
        out[f"ou-{paths}"] = _bridge_bytes(
            bridge_density_mc(ou, 0.7, -0.4, paths=paths, steps=33, seed=5))
    cst = DiffusionSpec(drift=constant_drift(0.5), x0=0.0, T=1.0)
    out["constant"] = _bridge_bytes(bridge_density_mc(cst, 0.5, 0.2, paths=3000, steps=20,
                                                      seed=7))
    return out


def test_engine_results_do_not_depend_on_the_worker_count(workers):
    got = {}
    for k in WORKER_COUNTS:
        workers(k)
        got[k] = _engine_results()
    assert got[2] == got[1] and got[3] == got[1]
    assert got[1]["narrow-3001"][2] > 0  # paths leave the grid: the count is compared


def test_engine_results_survive_frequent_thread_switches(workers):
    """Three workers on two cores, switching every 10 microseconds."""
    workers(1)
    ref = _engine_results()
    workers(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = _engine_results()
    finally:
        sys.setswitchinterval(interval)
    assert got == ref


def _diverging(t, x):
    return 50.0 * np.asarray(x, dtype=float) ** 3


def _blows_up_far_out(t, x):
    # at seed 2, 4001 paths and 30 steps, bridges to (1, 0) pass 1.8 in
    # batches 23 and 33 only: in one share of two workers, two shares of three
    return np.where(np.abs(x) > 1.8, np.inf, 0.0)


def test_errors_do_not_depend_on_the_worker_count(workers):
    spec = DiffusionSpec(drift=_blows_up_far_out, x0=0.0, T=1.0)
    for k in WORKER_COUNTS:
        workers(k)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="paths diverged"):
                simulate_q_dynamics(_diverging, 0.0, 0.5, 1.0, paths=3001, steps=30, seed=3)
        with pytest.raises(NumericError, match="in batch 23 "):
            bridge_density_mc(spec, 1.0, 0.0, paths=4001, steps=30, seed=2)


def test_runner_raises_the_lowest_failing_batch(workers):
    def work(buf, batches):
        (idx, size, _rng), = batches
        if idx in (13, 27, 35):
            raise ValueError(f"batch {idx}")
        return idx, size

    for k in WORKER_COUNTS:
        workers(k)
        with pytest.raises(ValueError, match="batch 13"):
            run_batches(1, 400, work, lambda width: None)
        got = run_batches(1, 41, lambda buf, b: [i for i, _, _ in b], lambda w: None, group=4)
        assert got == [list(range(i, i + 4)) for i in range(0, 40, 4)]


def test_scratch_is_made_once_per_worker_in_the_calling_thread(workers):
    made, used = [], set()

    def scratch(width):
        made.append((threading.get_ident(), width))
        return [len(made)]

    def work(buf, batches):
        used.add(buf[0])
        return sum(size for _, size, _ in batches)

    for k in WORKER_COUNTS:
        workers(k)
        made.clear()
        used.clear()
        sizes = run_batches(0, 1001, work, scratch, group=4)
        assert sum(sizes) == 1001
        # 40 batches of 25 or 26 paths, four to a group: the widest group holds 101
        assert made == [(threading.get_ident(), 101)] * k
        assert used == set(range(1, k + 1))


def test_no_thread_outlives_an_engine_call(workers):
    workers(2)
    before = threading.active_count()
    f = _narrow_field()
    simulate_q_dynamics(f, 0.1, 0.05, 0.9, paths=401, steps=11, seed=4)
    assert threading.active_count() == before
    bridge_density_mc(DiffusionSpec(drift=_ou, x0=0.0, T=1.0), 0.5, 0.1, paths=400,
                      steps=10, seed=1)
    assert threading.active_count() == before
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            simulate_q_dynamics(_diverging, 0.0, 0.5, 1.0, paths=3001, steps=30, seed=3)
    assert threading.active_count() == before
    with pytest.raises(NumericError):
        bridge_density_mc(DiffusionSpec(drift=_blows_up_far_out, x0=0.0, T=1.0), 1.0, 0.0,
                          paths=4001, steps=30, seed=2)
    assert threading.active_count() == before
