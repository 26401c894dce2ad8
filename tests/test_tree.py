"""Tree construction, distorted transitions, and consistency checks.

The two-period workhorse: symmetric lattice, p = 1/2, square distortion,
payoff g = (0, 1, 2) on states (-2, 0, 2).  All reference numbers below are
exact rational arithmetic done by hand:

    G_1 = (1, 1/2)            G_2 = (1, 3/4, 1/4)
    q_00 = 1/4                q_1 = (5/12, 1/4)
    u_1 = (5/12, 5/4)         u_0 = 5/8  (= static Choquet value)
    naive nested value = 1/2  (weights 9/16, 3/8, 1/16; gap 1/8)
    Q-survival at the horizon = (1, 9/16, 1/16) = phi(G_2)
    node curves: Phi(1/2) = 5/12 at the down node, 1/4 at the up node
"""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from distort import (
    ConsistencyError,
    DomainError,
    Identity,
    KahnemanTversky,
    Power,
    Wang,
)
from distort.choquet import DiscreteRV, choquet_expectation_discrete
from distort.density import DiffusionSpec, constant_drift
from distort.dynamics import lattice_from_diffusion
from distort.report import canonical_json
from distort.tree import (
    DistortedTree,
    _blocks,
    _constant_level,
    _grid_levels,
    _conditional_survival,
    _forward_laws,
    _last_law,
    TreeModel,
    backward_induction,
    crossing_tree_residual,
    distort_tree,
    load_tree,
    naive_nested_expectation,
    phi_at_node,
    random_monotone_payoff,
    random_tree,
    static_distorted_value,
    survival_probabilities,
    verify_initial_consistency,
    verify_tower,
)

from conftest import traced_peak

G_PAYOFF = np.array([0.0, 1.0, 2.0])
SRC = Path(__file__).resolve().parent.parent / "src"


def symmetric_tree(n, p=0.5):
    times = np.arange(n + 1, dtype=float)
    states = [np.arange(-i, i + 1, 2, dtype=float) for i in range(n + 1)]
    up_prob = [np.full(i + 1, p) for i in range(n)]
    return TreeModel(times, states, up_prob)


@pytest.fixture
def two_period():
    return symmetric_tree(2)


@pytest.fixture
def square_tree(two_period):
    return distort_tree(two_period, Power(2.0))


# ---------------------------------------------------------------------------
# model validation

def test_model_basic_properties(two_period):
    assert two_period.n_periods == 2
    assert two_period.states[2].tolist() == [-2.0, 0.0, 2.0]


def test_model_rejects_bad_input():
    with pytest.raises(DomainError):
        TreeModel([0.0], [[0.0]], [])
    with pytest.raises(DomainError):
        TreeModel([0.0, 0.0], [[0.0], [-1.0, 1.0]], [[0.5]])
    with pytest.raises(DomainError):
        TreeModel([0.0, 1.0], [[0.0], [1.0, -1.0]], [[0.5]])
    with pytest.raises(DomainError):
        TreeModel([0.0, 1.0], [[0.0], [-1.0, 1.0]], [[1.0]])
    with pytest.raises(DomainError):
        TreeModel([0.0, 1.0], [[0.0], [-1.0, 1.0]], [[0.5], [0.5, 0.5]])
    # children must straddle the parent
    with pytest.raises(DomainError):
        TreeModel([0.0, 1.0], [[0.0]], [[0.5]])
    with pytest.raises(DomainError):
        TreeModel([0.0, 1.0], [[0.0], [1.0, 2.0]], [[0.5]])


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("times, states, up_prob, message", [
    ([0.0, 1.0], [[0.0], [-1.0, 1.0]], [[NAN]], "up_prob at level 0"),
    ([0.0, 1.0, 2.0], [[0.0], [-1.0, 1.0], [-2.0, 0.0, 2.0]], [[0.5], [0.5, NAN]],
     "up_prob at level 1"),
    ([0.0, 1.0], [[NAN], [-1.0, 1.0]], [[0.5]], "children at level 1"),
    ([0.0, 1.0], [[0.0], [-1.0, NAN]], [[0.5]], "states at level 1"),
    ([0.0, 1.0], [[0.0], [-1.0, INF]], [[0.5]], "states at level 1 must be finite"),
    ([0.0, 1.0, 2.0], [[0.0], [-1.0, 1.0], [-INF, 0.0, 2.0]], [[0.5], [0.5, 0.5]],
     "states at level 2 must be finite"),
    ([0.0, NAN], [[0.0], [-1.0, 1.0]], [[0.5]], "times"),
    ([NAN, 1.0], [[0.0], [-1.0, 1.0]], [[0.5]], "times"),
    ([0.0, INF], [[0.0], [-1.0, 1.0]], [[0.5]], "times must be finite"),
], ids=["p0", "p1", "x0", "state", "inf-state", "inf-bottom", "time", "time0", "inf-time"])
def test_model_rejects_non_finite_entries(times, states, up_prob, message):
    with pytest.raises(DomainError, match=message):
        TreeModel(times, states, up_prob)


def _defect(level_list, level, value):
    out = list(level_list)
    out[level] = value(out[level].copy())
    return out


def _set(index, x):
    def put(level):
        level[index] = x
        return level
    return put


# each defect sits in a level past the first block of _blocks (levels 0 .. 89)
LATE_DEFECTS = {
    "shape": ("states", 150, lambda s: np.zeros(3), "level 150 must hold 151 states"),
    "increasing": ("states", 150, _set(7, -150.0), "states at level 150 not strictly increasing"),
    "block-start": ("states", 90, _set(1, -90.0), "states at level 90 not strictly increasing"),
    "p-shape": ("up_prob", 200, lambda p: p[:-1], "up_prob at level 200 must hold 201 entries"),
    "p-range": ("up_prob", 200, _set(5, 1.0), "up_prob at level 200 must lie strictly in (0, 1)"),
    "p-nan": ("up_prob", 145, _set(0, NAN), "up_prob at level 145 must lie strictly in (0, 1)"),
    "straddle": ("states", 200, lambda s: s + 1.5, "children at level 200 must straddle"),
    "last-finite": ("states", 300, _set(-1, INF), "states at level 300 must be finite"),
}


@pytest.mark.parametrize("kind", LATE_DEFECTS)
def test_model_names_the_level_of_a_defect_in_a_later_block(kind):
    """The checks run on blocks of levels; the message and the level it
    names are those of the level-by-level checks."""
    tree = symmetric_tree(300)
    field_name, level, change, message = LATE_DEFECTS[kind]
    parts = {"states": tree.states, "up_prob": tree.up_prob}
    parts[field_name] = _defect(parts[field_name], level, change)
    with pytest.raises(DomainError, match=re.escape("TreeModel: " + message)):
        TreeModel(tree.times, parts["states"], parts["up_prob"])


@pytest.mark.parametrize("defects, message", [
    ([("states", 120, lambda s: s + 1.5), ("states", 250, _set(3, -250.0))],
     "states at level 250 not strictly increasing"),
    ([("states", 250, lambda s: np.zeros(2)), ("states", 200, _set(3, -200.0))],
     "states at level 200 not strictly increasing"),
    ([("states", 130, lambda s: np.zeros(2)), ("states", 250, _set(3, -250.0))],
     "level 130 must hold 131 states"),
    ([("up_prob", 120, _set(0, 0.0)), ("up_prob", 200, lambda p: p[:-1])],
     "up_prob at level 120 must lie strictly in (0, 1)"),
    ([("up_prob", 220, _set(0, 0.0)), ("up_prob", 200, lambda p: p[:-1])],
     "up_prob at level 200 must hold 201 entries"),
    ([("states", 100, lambda s: s + 1.5), ("up_prob", 280, _set(0, 2.0))],
     "up_prob at level 280 must lie strictly in (0, 1)"),
], ids=["straddle+increasing", "shape+increasing", "shape-first", "range-first",
        "p-shape-first", "straddle+range"])
def test_model_reports_the_defect_that_comes_first_in_check_order(defects, message):
    """All states (shape and order, level by level), then all up_prob, then
    the straddling: a later kind waits for every level of the earlier ones."""
    tree = symmetric_tree(300)
    parts = {"states": tree.states, "up_prob": tree.up_prob}
    for field_name, level, change in defects:
        parts[field_name] = _defect(parts[field_name], level, change)
    with pytest.raises(DomainError, match=re.escape("TreeModel: " + message)):
        TreeModel(tree.times, parts["states"], parts["up_prob"])


def _grid_case(n=120, x0=0.3, step=0.5, times=None, levels=None):
    """on_grid's arguments for an n-level tree: one-value levels of 0.4,
    with level 100 varying, unless a field is replaced."""
    up_prob = [_constant_level(0.4, i + 1) for i in range(n)]
    up_prob[100] = np.linspace(0.3, 0.6, 101)
    return (np.arange(n + 1, dtype=float) if times is None else np.asarray(times, dtype=float),
            x0, step, up_prob if levels is None else levels(up_prob))


def _put_level(i, value):
    def change(up_prob):
        out = list(up_prob)
        out[i] = value
        return out
    return change


GRID_DEFECTS = {
    "one-time": dict(times=[0.0]),
    "repeated-time": dict(times=[0.0, 1.0, 1.0, *range(3, 121)]),
    "nan-time": dict(times=[0.0, NAN, *range(2, 121)]),
    "inf-time": dict(times=[*range(120), INF]),
    "grid-rounds-flat": dict(x0=1e20, step=1.0),
    "nan-x0": dict(x0=NAN),
    "inf-x0": dict(x0=INF),
    "nan-step": dict(step=NAN),
    "inf-step": dict(step=INF),
    "zero-step": dict(step=0.0),
    "one-value-p-at-one": dict(levels=_put_level(50, _constant_level(1.0, 51))),
    "one-value-p-nan": dict(levels=_put_level(50, _constant_level(NAN, 51))),
    "varying-p-at-zero": dict(levels=_put_level(100, np.r_[np.full(100, 0.5), 0.0])),
    "varying-p-nan": dict(levels=_put_level(100, np.r_[0.5, NAN, np.full(99, 0.5)])),
    "too-few-levels": dict(levels=lambda up: up[:-1]),
    "too-many-levels": dict(levels=lambda up: [*up, np.full(121, 0.5)]),
    "level-shape": dict(levels=_put_level(70, np.full(70, 0.5))),
}


# on_grid names these itself, before it forms the grid
NAMED_GRID_DEFECTS = {"nan-x0": "x0=nan", "inf-x0": "x0=inf",
                      "nan-step": "step=nan", "inf-step": "step=inf"}


@pytest.mark.parametrize("kind", GRID_DEFECTS)
def test_grid_tree_rejects_what_tree_model_rejects_with_its_message(kind):
    """TreeModel.on_grid checks the grid, not every level's states, and
    names each defect as TreeModel does on the same levels, without a
    warning; a non-finite x0 or step it names by its input."""
    times, x0, step, up_prob = _grid_case(**GRID_DEFECTS[kind])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as got:
            TreeModel.on_grid(times, x0, step, up_prob)
    if kind in NAMED_GRID_DEFECTS:
        assert str(got.value) == f"TreeModel.on_grid: {NAMED_GRID_DEFECTS[kind]} must be finite"
        return
    with pytest.raises(DomainError) as want:
        TreeModel(times, _grid_levels(x0, step, times.size - 1)[1], up_prob)
    assert str(got.value) == str(want.value)


def test_grid_tree_is_the_tree_model_of_its_levels():
    times, x0, step, up_prob = _grid_case()
    tree = TreeModel.on_grid(times, x0, step, up_prob)
    ref = TreeModel(times, _grid_levels(x0, step, 120)[1], up_prob)
    assert tree.times.tobytes() == ref.times.tobytes()
    assert [(s.tobytes(), s.strides) for s in tree.states] == \
        [(s.tobytes(), s.strides) for s in ref.states]
    assert all(p is q for p, q in zip(tree.up_prob, up_prob))
    assert np.shares_memory(tree.states[0], tree.states[-1])
    with pytest.raises(ValueError):
        tree.states[3][0] = 0.0


def test_load_tree_rejects_nan_in_the_file(tmp_path):
    """Python's json reads NaN; the model names the level instead of a
    later probability error in the distortion."""
    path = tmp_path / "tree.json"
    path.write_text('{"times": [0, 1], "states": [[0], [-1, 1]], "up_prob": [[NaN]]}')
    with pytest.raises(DomainError, match="up_prob at level 0"):
        load_tree(path)


def test_model_round_trip(two_period, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(canonical_json(two_period.to_dict()))
    back = load_tree(path)
    assert np.array_equal(back.times, two_period.times)
    for a, b in zip(back.states, two_period.states):
        assert np.array_equal(a, b)
    for a, b in zip(back.up_prob, two_period.up_prob):
        assert np.array_equal(a, b)


def test_from_dict_rejects_unknown_and_missing_keys():
    with pytest.raises(DomainError):
        TreeModel.from_dict({"times": [0, 1], "states": [[0], [-1, 1]], "up_prob": [[0.5]], "x": 1})
    with pytest.raises(DomainError):
        TreeModel.from_dict({"times": [0, 1], "states": [[0], [-1, 1]]})


# ---------------------------------------------------------------------------
# survival probabilities

def test_occupation_and_survival_exact(two_period):
    occ = _last_law(two_period.up_prob, 0, 0, 2)
    assert occ.tolist() == [0.25, 0.5, 0.25]
    surv = survival_probabilities(two_period)
    assert surv[1].tolist() == [1.0, 0.5]
    assert surv[2].tolist() == [1.0, 0.75, 0.25]


def test_survival_three_periods():
    surv = survival_probabilities(symmetric_tree(3))
    assert surv[3].tolist() == [1.0, 0.875, 0.5, 0.125]


def test_survival_leftmost_is_exactly_one():
    rng = np.random.default_rng(7)
    tree = random_tree(rng, 9)
    for g in survival_probabilities(tree):
        assert g[0] == 1.0


# ---------------------------------------------------------------------------
# distorted transitions

def test_square_distortion_transitions_exact(two_period, square_tree):
    assert square_tree.q_up[0][0] == pytest.approx(0.25, rel=1e-15)
    assert square_tree.q_up[1][0] == pytest.approx(5.0 / 12.0, rel=1e-15)
    assert square_tree.q_up[1][1] == pytest.approx(0.25, rel=1e-15)
    # every edge interleaves strictly: phi(G_0, G_1, G_2) = (1), (1, 1/4), (1, 9/16, 1/16)
    phi = [Power(2.0).eval(t, g)
           for t, g in zip(two_period.times, survival_probabilities(two_period))]
    assert [v.tolist() for v in phi] == [[1.0], [1.0, 0.25], [1.0, 0.5625, 0.0625]]
    for hi, nxt in zip(phi, phi[1:]):
        lo, mid = np.append(hi[1:], 0.0), nxt[1:]
        assert np.all((lo < mid) & (mid < hi))
    assert square_tree.violations == []
    assert square_tree.degenerate_edges == 0


def test_identity_distortion_recovers_base(two_period):
    dt = distort_tree(two_period, Identity())
    for q, p in zip(dt.q_up, two_period.up_prob):
        assert np.allclose(q, p, rtol=0.0, atol=1e-15)


def test_fast_decaying_schedule_breaks_interleaving(two_period):
    """The shift a(t) = -2 t lowers phi_2(G_2) below phi_1(G_{1,1}) at
    the first node of level 1."""
    sched = Wang(-2.0, k=1)
    with pytest.raises(ConsistencyError, match=re.escape("node (i=1, j=0)")):
        distort_tree(two_period, sched, strict=True)
    dt = distort_tree(two_period, sched, strict=False)
    assert (1, 0) in dt.violations
    q = dt.q_up[1][0]
    assert 0.0 < q < 1.0


def test_degenerate_edge_falls_back_to_base_transition():
    tree = TreeModel(
        [0.0, 1.0, 2.0],
        [[0.0], [-1.0, 1.0], [-2.0, 0.0, 2.0]],
        [[1e-150], [0.3, 0.7]],
    )
    dt = distort_tree(tree, Power(2.0), strict=True)
    assert dt.degenerate_edges == 1
    assert dt.q_up[1][1] == 0.7
    assert dt.violations == []


def test_deep_lattice_roundoff_ties_pass_strict_mode():
    """Near-one survival weights can map to tied or ulp-inverted phi values;
    a time-invariant schedule cannot truly violate interleaving, so these
    count as degenerate edges rather than consistency failures."""
    n = 1024
    h = 1.0 / n
    times = np.arange(n + 1) * h
    states = [np.sqrt(h) * (2.0 * np.arange(i + 1) - i) for i in range(n + 1)]
    up = [np.full(i + 1, 0.5) for i in range(n)]
    tree = TreeModel(times, states, up)
    dt = distort_tree(tree, Power(2.0), strict=True)
    assert dt.violations == []
    assert dt.degenerate_edges > 0


# ---------------------------------------------------------------------------
# backward induction and the static value

def test_backward_induction_exact_values(square_tree):
    levels = backward_induction(square_tree, G_PAYOFF, levels=(0, 1))
    assert levels[1][0] == pytest.approx(5.0 / 12.0, rel=1e-14)
    assert levels[1][1] == pytest.approx(1.25, rel=1e-14)
    assert levels[0][0] == pytest.approx(0.625, rel=1e-14)


def test_backward_induction_matches_static(square_tree, two_period):
    u0 = backward_induction(square_tree, G_PAYOFF)[0][0]
    static = static_distorted_value(two_period, Power(2.0), G_PAYOFF)
    assert static == pytest.approx(0.625, rel=1e-15)
    assert u0 == pytest.approx(static, abs=1e-14)


def test_static_agrees_with_discrete_choquet(two_period):
    d = KahnemanTversky(0.61)
    rv = DiscreteRV(G_PAYOFF, _last_law(two_period.up_prob, 0, 0, 2))
    # the payoff value 0 contributes nothing, so the discrete form (which
    # needs strictly increasing support) sees the same value
    a = choquet_expectation_discrete(rv, d, t=2.0)
    b = static_distorted_value(two_period, d, G_PAYOFF)
    assert a == pytest.approx(b, rel=1e-14)


def test_backward_induction_input_checks(square_tree):
    with pytest.raises(DomainError):
        backward_induction(square_tree, [0.0, 1.0])
    with pytest.raises(DomainError):
        backward_induction(square_tree, [0.0, 2.0, 1.0])
    with pytest.raises(DomainError):
        backward_induction(square_tree, [-1.0, 0.0, 1.0])


def _decreasing_at(n, bad_levels):
    """An n-period tree under the identity whose q at each of bad_levels is
    -2j at node j: on the payoff g_j = j every value level has slope 1, so
    that level has slope -1 and decreases."""
    tree = symmetric_tree(n)
    q_up = [q.copy() for q in distort_tree(tree, Identity()).q_up]
    for i in bad_levels:
        q_up[i] = -2.0 * np.arange(i + 1)
    return DistortedTree(base=tree, schedule=Identity(), q_up=q_up, violations=[],
                         degenerate_edges=0)


@pytest.mark.parametrize("n, bad_levels, named", [
    (8, [5], 5),
    (200, [199], 199),      # the first level the walk forms
    (200, [160, 150], 160), # the higher of two in one block
    (200, [145], 145),      # the lowest level of a block
    (200, [89], 89),        # the top level of the lowest block of several
    (200, [1], 1),
    (200, [30, 170], 170),  # two blocks apart
])
def test_backward_induction_names_the_highest_decreasing_level(n, bad_levels, named):
    """Transitions outside [0, 1] make a level decrease; the guard names the
    highest such level, the first one a walk from the horizon forms."""
    dt = _decreasing_at(n, bad_levels)
    with pytest.raises(DomainError, match=rf"^backward_induction level {named}: values"):
        backward_induction(dt, np.arange(n + 1.0))


def _every_level(dt, g, n):
    """The full level list of a plain horizon-to-root loop."""
    levels = [None] * (n + 1)
    levels[n] = np.array(g, dtype=float)
    for i in range(n - 1, -1, -1):
        q, nxt = dt.q_up[i], levels[i + 1]
        levels[i] = (1.0 - q) * nxt[: i + 1] + q * nxt[1:]
    return levels


def test_backward_induction_keeps_the_requested_levels_bit_for_bit():
    """The blocked walk that keeps only the requested levels gives those of
    the full level list byte for byte, below a shorter horizon too."""
    rng = np.random.default_rng(1616)
    cases = [distort_tree(random_tree(rng, int(rng.integers(1, 40))), d)
             for d in (Power(2.0), Wang(0.5), KahnemanTversky(0.8)) for _ in range(6)]
    cases.append(distort_tree(_unit_lattice(1024), Power(2.0)))
    for dt in cases:
        n = int(rng.integers(1, dt.n_periods + 1))
        g = random_monotone_payoff(rng, n + 1)
        ref = _every_level(dt, g, n)
        r, s = sorted(int(k) for k in rng.integers(0, n + 1, size=2))
        got = backward_induction(dt, g, horizon=n, levels=(s, r))
        assert list(got) == sorted({r, s})
        assert [got[i].tobytes() for i in (r, s)] == [ref[i].tobytes() for i in (r, s)]
        assert backward_induction(dt, g, horizon=n)[0].tobytes() == ref[0].tobytes()


def test_backward_induction_rejects_levels_past_the_horizon(square_tree):
    for levels in ((3,), (-1,), (0, 2, 3)):
        with pytest.raises(DomainError, match=re.escape("must lie in 0..2")):
            backward_induction(square_tree, G_PAYOFF, levels=levels)
    with pytest.raises(DomainError, match=re.escape("must lie in 0..1")):
        backward_induction(square_tree, [0.0, 1.0], horizon=1, levels=(2,))


NON_FINITE_PAYOFF_CALLS = {
    "backward_induction": lambda dt, g: backward_induction(dt, g),
    "static_distorted_value": lambda dt, g: static_distorted_value(dt.base, Power(2.0), g),
    "naive_nested_expectation": lambda dt, g: naive_nested_expectation(dt.base, Power(2.0), g),
    "verify_tower": lambda dt, g: verify_tower(dt, g),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", list(NON_FINITE_PAYOFF_CALLS))
def test_non_finite_terminal_value_is_rejected_by_name(square_tree, name, bad):
    """A NaN used to return a NaN value, or a tower gap of 0.0 (max()
    dropped it); it is named before any value is formed."""
    g = np.array([0.0, bad, 2.0])
    with pytest.raises(DomainError,
                       match=rf"^{name}: terminal value {bad} at state 1 is not finite$"):
        NON_FINITE_PAYOFF_CALLS[name](square_tree, g)


@pytest.mark.parametrize("kwargs, match", [
    ({"levels": (1.5,)}, "level=1.5"),
    ({"levels": (0, 2.0, 0.5)}, "level=0.5"),
    ({"horizon": 1.5}, "horizon=1.5"),
], ids=["level", "one-level-of-three", "horizon"])
def test_backward_induction_rejects_non_integral_levels_by_name(square_tree, kwargs, match):
    """levels=(1.5,) used to return level 1, horizon=1.5 to start from
    level 1; 2.0 still reads level 2."""
    with pytest.raises(DomainError, match=rf"^backward_induction: {match} must be an integer$"):
        backward_induction(square_tree, G_PAYOFF, **kwargs)
    got = backward_induction(square_tree, G_PAYOFF, levels=(2.0, 0))
    assert list(got) == [0, 2] and got[2].tobytes() == G_PAYOFF.tobytes()


@pytest.mark.parametrize("args, match", [
    ((1.5, 0), "i=1.5"), ((1, 0.5), "j=0.5"), ((0, 0, 1.5), "n=1.5"),
], ids=["i", "j", "n"])
def test_phi_at_node_rejects_non_integral_indices_by_name(square_tree, args, match):
    """phi_at_node(dt, 1.5, 0) used to raise a numpy TypeError."""
    with pytest.raises(DomainError, match=rf"^phi_at_node: {match} must be an integer$"):
        phi_at_node(square_tree, *args)
    whole = phi_at_node(square_tree, 1.0, 0.0, 2.0)
    assert whole.surv_q.tobytes() == phi_at_node(square_tree, 1, 0, 2).surv_q.tobytes()


@pytest.mark.parametrize("kwargs, match", [
    ({"r": 0.5}, "r=0.5"), ({"s": 1.5}, "s=1.5"), ({"n": 2.5}, "n=2.5"),
], ids=["r", "s", "n"])
def test_tower_rejects_non_integral_levels_by_name(square_tree, kwargs, match):
    with pytest.raises(DomainError, match=rf"^verify_tower: {match} must be an integer$"):
        verify_tower(square_tree, G_PAYOFF, **kwargs)


def test_tower_keeps_a_nan_gap():
    """A NaN transition makes the node curves' sums NaN; the gap is NaN, so
    a check `gap <= tol` fails (Python's max() dropped it and read 0.0)."""
    rng = np.random.default_rng(1)
    dt = distort_tree(random_tree(rng, 8), Power(2.0))
    q_up = [q.copy() for q in dt.q_up]
    q_up[3][1] = np.nan
    g = random_monotone_payoff(rng, 9)
    assert verify_tower(dt, g) <= 1e-12
    assert math.isnan(verify_tower(dataclasses.replace(dt, q_up=q_up), g))


# ---------------------------------------------------------------------------
# naive nesting is inconsistent

def test_naive_value_and_gap(two_period):
    naive = naive_nested_expectation(two_period, Power(2.0), G_PAYOFF)
    assert naive == 0.5
    static = static_distorted_value(two_period, Power(2.0), G_PAYOFF)
    assert static - naive == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("size", [2, 4])
def test_static_value_rejects_a_payoff_of_the_wrong_length(two_period, size):
    with pytest.raises(DomainError, match=r"static_distorted_value: expected 3 terminal values"):
        static_distorted_value(two_period, Power(2.0), np.arange(size, dtype=float))


def test_naive_identity_has_no_gap(two_period):
    naive = naive_nested_expectation(two_period, Identity(), G_PAYOFF)
    static = static_distorted_value(two_period, Identity(), G_PAYOFF)
    assert naive == pytest.approx(1.0, rel=1e-15)
    assert naive == pytest.approx(static, abs=1e-15)


# ---------------------------------------------------------------------------
# conditional survival under both measures

def test_q_survival_matches_distorted_marginal(square_tree):
    q2 = phi_at_node(square_tree, 0, 0, 2).surv_q
    assert np.allclose(q2, [1.0, 9.0 / 16.0, 1.0 / 16.0], rtol=0.0, atol=1e-15)


def test_conditional_survival_from_interior_node(square_tree):
    curve = phi_at_node(square_tree, 1, 0, 2)
    p, q = curve.surv_p, curve.surv_q
    assert (curve.s, curve.t, curve.x, curve.y_grid.tolist()) == (1.0, 2.0, -1.0, [-2.0, 0.0, 2.0])
    assert p.tolist() == [1.0, 0.5, 0.0]
    assert np.allclose(q, [1.0, 5.0 / 12.0, 0.0], rtol=0.0, atol=1e-15)


def test_conditional_survival_index_validation(square_tree):
    with pytest.raises(DomainError):
        phi_at_node(square_tree, 2, 0, 2)
    with pytest.raises(DomainError):
        phi_at_node(square_tree, 0, 1, 2)
    with pytest.raises(DomainError):
        phi_at_node(square_tree, 0, 0, 5)


def test_initial_consistency_is_tight(square_tree):
    assert verify_initial_consistency(square_tree) <= 1e-15


def test_initial_consistency_rejects_transitions_not_from_the_schedule():
    """Uniform(0.05, 0.95) draws in place of the distorted transitions move
    the Q-marginals off phi(G), which only the measure-flow check sees: the
    node curves pair P with the same Q the induction uses, so verify_tower
    still reads roundoff."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        dt = distort_tree(random_tree(rng, 8), Power(2.0))
        wrong = dataclasses.replace(
            dt, q_up=[rng.uniform(0.05, 0.95, size=i + 1) for i in range(8)])
        g = random_monotone_payoff(rng, 9)
        assert verify_initial_consistency(dt) <= 1e-12
        assert verify_initial_consistency(wrong) > 0.1
        assert verify_tower(wrong, g) <= 1e-12


def test_initial_consistency_fails_on_a_nan_transition():
    """A NaN transition makes every later Q-survival NaN; the gap is NaN, so
    a check `gap <= tol` fails (Python's max() would drop a NaN and read 0)."""
    dt = distort_tree(random_tree(np.random.default_rng(1), 8), Power(2.0))
    q_up = [q.copy() for q in dt.q_up]
    q_up[3][1] = np.nan
    assert math.isnan(verify_initial_consistency(dataclasses.replace(dt, q_up=q_up)))


@pytest.mark.parametrize("d", [Power(2.0), Wang(-0.7), KahnemanTversky(0.8)], ids=str)
def test_initial_consistency_single_pass_matches_per_level_loop(d):
    """The forward pass reads each level exactly as re-propagating from the
    root to that level does, so the result is bit-identical."""
    rng = np.random.default_rng(21)
    trees = [random_tree(rng, int(rng.integers(1, 13))) for _ in range(8)]
    trees.append(_unit_lattice(256))  # four blocks of levels
    for tree in trees:
        dt = distort_tree(tree, d, strict=False)
        survival = survival_probabilities(dt.base)
        per_level = 0.0
        for n in range(1, dt.n_periods + 1):
            phi = d.eval(dt.times[n], np.clip(survival[n], 0.0, 1.0))
            q_surv = _conditional_survival(dt.q_up, 0, 0, n)
            per_level = max(per_level, float(np.max(np.abs(phi - q_surv))))
        assert verify_initial_consistency(dt) == per_level


# ---------------------------------------------------------------------------
# node distortion curves

def test_node_curves_two_period(square_tree):
    down = phi_at_node(square_tree, 1, 0)
    up = phi_at_node(square_tree, 1, 1)
    assert down(0.5) == pytest.approx(5.0 / 12.0, rel=1e-14)
    assert up(0.5) == pytest.approx(0.25, rel=1e-14)
    for curve in (down, up):
        assert curve(0.0) == 0.0
        assert curve(1.0) == 1.0
        vals = curve(np.linspace(0.0, 1.0, 11))
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("N", [1024, 4096])
def test_node_curves_stay_pinned_on_deep_lattices(N):
    """At (N/4, N/8) the P-survival sums past 1 and clips to p = 1 where the
    Q-survival does not (by less than 1e-9): the pair is checked against the
    endpoint, which stays at (1, 1)."""
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    dt = distort_tree(lattice_from_diffusion(spec, N), Power(2.0))
    curves = [phi_at_node(dt, i, j, N) for i, j in ((N // 4, N // 8), (N // 4, 0), (N // 2, N // 4))]
    for curve in curves:
        assert (curve.p_grid[0], curve.values[0]) == (0.0, 0.0)
        assert (curve.p_grid[-1], curve.values[-1]) == (1.0, 1.0)
        assert curve(1.0) == 1.0 and curve(0.0) == 0.0
    at_one = np.clip(curves[0].surv_p, 0.0, 1.0) == 1.0
    assert np.any(at_one & (curves[0].surv_q != 1.0))


def test_root_curve_matches_initial_distortion(square_tree):
    curve = phi_at_node(square_tree, 0, 0, 2)
    for p in (0.25, 0.75):
        assert curve(p) == pytest.approx(p * p, abs=1e-14)


# ---------------------------------------------------------------------------
# tower property

def test_tower_two_period(square_tree):
    assert verify_tower(square_tree, G_PAYOFF) <= 1e-14


@pytest.mark.parametrize(
    "d", [Power(2.0), Power(0.5), KahnemanTversky(0.61), Wang(0.5)], ids=str
)
def test_tower_random_tree(d):
    rng = np.random.default_rng(11)
    tree = random_tree(rng, 6)
    dt = distort_tree(tree, d)
    g = random_monotone_payoff(rng, 7)
    assert verify_tower(dt, g, r=0, s=3, n=6) <= 1e-12
    assert verify_tower(dt, g, r=1, s=4, n=6) <= 1e-12


def test_tower_rejects_bad_split(square_tree):
    with pytest.raises(DomainError):
        verify_tower(square_tree, G_PAYOFF, r=0, s=0, n=2)
    with pytest.raises(DomainError):
        verify_tower(square_tree, G_PAYOFF, r=1, s=1, n=2)


# ---------------------------------------------------------------------------
# locality of the node curves

def test_node_curve_reads_only_subtree_data(square_tree):
    tree3 = symmetric_tree(3)
    dt = distort_tree(tree3, Power(2.0))
    before = phi_at_node(dt, 1, 1, 3)
    mutated = copy.deepcopy(dt)
    # (1,0) and its transition are outside the subtree rooted at (1,1)
    mutated.q_up[1][0] = 0.9
    mutated.base.up_prob[1][0] = 0.9
    after = phi_at_node(mutated, 1, 1, 3)
    assert np.array_equal(before.p_grid, after.p_grid)
    assert np.array_equal(before.values, after.values)


def test_rederived_curve_depends_on_sibling_transition():
    # Changing the base up-probability at the sibling node changes the
    # marginal survival weights, hence the re-derived q inside the subtree:
    # the construction is global in P even though the curve lookup is local.
    tree = symmetric_tree(3)
    dt = distort_tree(tree, Power(2.0))
    assert phi_at_node(dt, 1, 0, 3).surv_q[2] == pytest.approx(5.0 / 32.0, rel=1e-13)

    bumped = symmetric_tree(3)
    bumped.up_prob[1][1] = 0.7
    dt2 = distort_tree(bumped, Power(2.0))
    assert phi_at_node(dt2, 1, 0, 3).surv_q[2] == pytest.approx(15.0 / 88.0, rel=1e-13)


# ---------------------------------------------------------------------------
# crossing tree

def test_crossing_residual_square():
    assert crossing_tree_residual(0.5, 0.5, Power(2.0), Power(2.0)) == -0.125


def test_crossing_residual_identity_vanishes():
    for p1, p2 in [(0.5, 0.5), (0.3, 0.8), (0.9, 0.1)]:
        assert abs(crossing_tree_residual(p1, p2, Identity(), Identity())) <= 1e-15


def test_crossing_residual_root():
    # with the square distortion at the far time, the residual vanishes iff
    # phi_1(1/2) = 3/8, i.e. Power(gamma) with gamma = log2(8/3)
    root = brentq(
        lambda c: crossing_tree_residual(0.5, 0.5, Power(c), Power(2.0)), 1.0, 3.0, xtol=1e-14
    )
    assert root == pytest.approx(1.4150374992788437, abs=1e-12)


def test_crossing_residual_rejects_degenerate_probs():
    with pytest.raises(DomainError):
        crossing_tree_residual(0.0, 0.5, Identity(), Identity())


# ---------------------------------------------------------------------------
# generators

def test_random_tree_is_valid_and_deterministic():
    t1 = random_tree(np.random.default_rng(3), 5)
    t2 = random_tree(np.random.default_rng(3), 5)
    for a, b in zip(t1.up_prob, t2.up_prob):
        assert np.array_equal(a, b)
    assert t1.n_periods == 5


def test_random_payoff_monotone_and_scaled():
    g = random_monotone_payoff(np.random.default_rng(5), 12, scale=3.0)
    assert np.all(np.diff(g) >= 0.0)
    assert g[0] >= 0.0
    assert g[-1] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# the lattice path without discarded work, against the eager routes

def _occupation_list(tree):
    """Every level's occupation masses, materialised."""
    levels = [np.array([1.0])]
    for i in range(tree.n_periods):
        w, p = levels[-1], tree.up_prob[i]
        nxt = np.zeros(i + 2)
        nxt[: i + 1] += w * (1.0 - p)
        nxt[1:] += w * p
        levels.append(nxt)
    return levels


def _survival_list(tree):
    out = []
    for w in _occupation_list(tree):
        g = np.cumsum(w[::-1])[::-1]
        g[0] = 1.0
        out.append(g)
    return out


def _eager_distort_tree(tree, schedule, strict):
    """phi on every level up front, then the edge loop."""
    survival = _survival_list(tree)
    phi = [np.array([1.0])] + [
        np.asarray(schedule.eval(tree.times[i], np.clip(survival[i], 0.0, 1.0)))
        for i in range(1, tree.n_periods + 1)
    ]
    q_up, mon2_ok, violations, degenerate = [], [], [], 0
    for i in range(tree.n_periods):
        hi, lo, mid = phi[i], np.append(phi[i][1:], 0.0), phi[i + 1][1:]
        den, num = hi - lo, mid - lo
        ok = (lo < mid) & (mid < hi)
        scale = np.maximum(1e-280, 16.0 * np.finfo(float).eps * hi)
        dead = (den < scale) | (~ok & (np.maximum(lo - mid, mid - hi) <= scale))
        with np.errstate(divide="ignore", invalid="ignore"):
            q = num / den
        if np.any(dead):
            q = np.where(dead, tree.up_prob[i], q)
            ok = ok | dead
            degenerate += int(np.count_nonzero(dead))
        bad = ~ok
        if np.any(bad):
            if strict:
                j = int(np.argmax(bad))
                raise ConsistencyError(f"distorted transition at node (i={i}, j={j}) leaves (0, 1)")
            violations.extend((i, int(j)) for j in np.nonzero(bad)[0])
            q = np.clip(q, 1e-9, 1.0 - 1e-9)
        q_up.append(q)
        mon2_ok.append(ok)
    return q_up, mon2_ok, violations, degenerate


def _tree_cases():
    rng = np.random.default_rng(808)
    cases = []
    for k in range(60):
        n = int(rng.integers(1, 13))
        d = [Power(float(rng.uniform(0.3, 3.0))), Wang(float(rng.uniform(-1.5, 1.5))),
             KahnemanTversky(float(rng.uniform(0.3, 0.95))),
             Wang(float(rng.uniform(-0.6, 0.6)), k=1)][k % 4]
        cases.append((random_tree(rng, n, p_range=(0.05, 0.95)), d))
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    cases.append((lattice_from_diffusion(spec, 64), KahnemanTversky(0.6)))
    cases.append((lattice_from_diffusion(spec, 200), Wang(0.5)))
    # lattices of several blocks under time-shifted schedules; alpha > 0,
    # since a negative shift meets the saturated survival of deep levels
    lattice = lattice_from_diffusion(spec, 256)
    cases.append((lattice, Wang(0.5, k=1)))
    cases.append((lattice, Wang(0.4, k=2)))
    cases.append((_late_violation_tree(), Wang(1.0, k=1)))
    return cases


def _late_violation_tree():
    """130 periods whose first 91 times (levels 0 .. 90) lie below 1e-18,
    where a shift alpha t moves no phi value: a time-shifted schedule first
    moves at level 91, so the first interleaving failure is at i = 90, the
    first row of the second block."""
    n = 130
    times = np.concatenate([np.arange(91) * 1e-20, 1.0 + 0.01 * np.arange(n - 90)])
    rng = np.random.default_rng(4)
    states = [np.arange(-i, i + 1, 2, dtype=float) for i in range(n + 1)]
    return TreeModel(times, states, [rng.uniform(0.3, 0.7, i + 1) for i in range(n)])


def test_distort_tree_per_level_phi_matches_eager_route():
    """phi a block of levels at a time gives the eager route's transitions
    bit for bit in both modes, the non-strict clip and the strict rejection
    included, on trees of one block and of several."""
    clipped = rejected = multi_block = late_first = 0
    for tree, d in _tree_cases():
        starts = [a for a, _ in _blocks(tree.n_periods)]
        ref = _eager_distort_tree(tree, d, strict=False)
        multi_block += len(starts) > 1
        late_first += bool(ref[2]) and ref[2][0][0] in starts[1:]
        dt = distort_tree(tree, d, strict=False)
        assert [q.tobytes() for q in dt.q_up] == [q.tobytes() for q in ref[0]]
        assert dt.violations == [(i, int(j)) for i, ok in enumerate(ref[1])
                                 for j in np.nonzero(~ok)[0]]
        assert (dt.violations, dt.degenerate_edges) == (ref[2], ref[3])
        clipped += bool(ref[2])
        try:
            strict_ref = _eager_distort_tree(tree, d, strict=True)
        except ConsistencyError as exc:
            rejected += 1
            with pytest.raises(ConsistencyError, match=re.escape(str(exc))):
                distort_tree(tree, d)
        else:
            dt = distort_tree(tree, d)
            assert [q.tobytes() for q in dt.q_up] == [q.tobytes() for q in strict_ref[0]]
            assert (dt.violations, dt.degenerate_edges) == ([], strict_ref[3])
    assert clipped >= 5 and rejected >= 5  # both the clip and the rejection ran
    assert multi_block >= 4 and late_first >= 1


def test_kahneman_tversky_lattice_rejected_at_level_58():
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    with pytest.raises(ConsistencyError, match=re.escape("node (i=58, j=1)")):
        distort_tree(lattice_from_diffusion(spec, 64), KahnemanTversky(0.6))


def test_last_level_reads_match_the_occupation_list_route():
    """static_distorted_value, the last law and the level lists read one
    forward pass; each equals its materialised-list route bit for bit."""
    for tree, d in _tree_cases():
        occ = _occupation_list(tree)
        surv = _survival_list(tree)
        laws = [np.array([1.0]), *_forward_laws(tree.up_prob, 0, 0, tree.n_periods)]
        assert [w.tobytes() for w in laws] == [w.tobytes() for w in occ]
        assert [g.tobytes() for g in survival_probabilities(tree)] == [g.tobytes() for g in surv]
        g = np.cumsum(np.linspace(0.1, 1.0, tree.n_periods + 1))
        w_hi = np.asarray(d.eval(float(tree.times[-1]), np.clip(surv[-1], 0.0, 1.0)))
        assert static_distorted_value(tree, d, g) == float(g @ (w_hi - np.append(w_hi[1:], 0.0)))
        assert _last_law(tree.up_prob, 0, 0, tree.n_periods).tobytes() == occ[-1].tobytes()


# ---------------------------------------------------------------------------
# memory: the tree layer keeps only what its results need

def _unit_lattice(N):
    return lattice_from_diffusion(DiffusionSpec(constant_drift(0.0), 0.0, 1.0), N)


def test_distort_tree_peak_stays_near_its_transitions():
    """Streaming the survival levels leaves q_up as the only list the build
    allocates (a stored survival list would double the peak)."""
    dt, peak = traced_peak(distort_tree, _unit_lattice(1024), Power(2.0))
    assert peak < 1.5 * sum(q.nbytes for q in dt.q_up)


def test_initial_consistency_peak_stays_below_a_megabyte():
    """The P and Q laws are walked in lockstep, one level of each at a time."""
    dt = distort_tree(_unit_lattice(1024), Power(2.0))
    _, peak = traced_peak(verify_initial_consistency, dt)
    assert peak < 1_000_000


def test_backward_induction_peak_stays_near_one_block():
    """The walk keeps one block of levels and the requested level 0, where
    the full level list would hold as many bytes as q_up."""
    tree = _unit_lattice(1024)
    dt = distort_tree(tree, Power(2.0))
    _, peak = traced_peak(backward_induction, dt, np.maximum(tree.states[-1], 0.0))
    assert peak < 0.05 * sum(q.nbytes for q in dt.q_up)


def test_lattice_transitions_are_views_of_one_buffer():
    """Every level of up_prob of a drift not marked constant, one that
    depends on time only included, is a view of one buffer that holds
    level i at offset i (i + 1) / 2, as every level of q_up is; every level
    of a ConstantDrift lattice is a read-only stride-0 view of its value.
    Every level holds the per-level formula's values bit for bit."""
    N = 300  # four blocks of levels
    triangle = [i * (i + 1) // 2 for i in range(N)]

    def buffer_offsets(levels):
        flat = levels[0].base
        assert flat.size == N * (N + 1) // 2 and all(x.base is flat for x in levels)
        start = flat.__array_interface__["data"][0]
        return [(x.__array_interface__["data"][0] - start) // 8 for x in levels]

    drifts = {
        "x-dependent": lambda t, x: 0.4 - 0.3 * x + 0.1 * t,
        "constant": constant_drift(0.3),
        "time-only": lambda t, x: np.full_like(x, 0.4 + 0.1 * t),
    }
    for name, drift in drifts.items():
        spec = DiffusionSpec(drift, 0.2, 1.5)
        tree = lattice_from_diffusion(spec, N)
        sq = math.sqrt(spec.T / N)
        ref = [0.5 + 0.5 * drift(t, x) * sq for t, x in zip(tree.times, tree.states[:-1])]
        assert [p.tobytes() for p in tree.up_prob] == [p.tobytes() for p in ref], name
        if name == "constant":
            for p in tree.up_prob:
                assert p.strides == (0,) and not p.flags.writeable
            with pytest.raises(ValueError):
                tree.up_prob[N // 2][0] = 0.5
        else:
            assert buffer_offsets(tree.up_prob) == triangle, name
        assert buffer_offsets(distort_tree(tree, Wang(0.5)).q_up) == triangle


FRAGMENTATION_PROBE = """
import numpy as np
from distort import Power, backward_induction, distort_tree
from distort.density import DiffusionSpec, constant_drift
from distort.dynamics import lattice_from_diffusion

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

def run(N):
    tree = lattice_from_diffusion(DiffusionSpec(DRIFT, 0.0, 1.0), N)
    dt = distort_tree(tree, Power(2.0))
    backward_induction(dt, np.maximum(tree.states[-1], 0.0))
    return tree, dt

run(64)
before = peak_kb()
tree, dt = run(2048)
grown = 1024 * (peak_kb() - before)
print(grown / sum(x.nbytes for x in COUNTED))
"""


def probe_growth(drift, counted):
    """FRAGMENTATION_PROBE's growth ratio, run in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = FRAGMENTATION_PROBE.replace("DRIFT", drift).replace("COUNTED", counted)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_lattice_path_resident_growth_stays_near_its_transitions():
    """A fresh process's peak resident set grows by little more than the
    bytes of up_prob and q_up at N = 2048 under a drift that varies in x
    (1.5 times them when each level was its own array between the builds'
    temporaries, which fragments the heap).  tracemalloc cannot see
    fragmentation, and a spawned process's ru_maxrss starts at its parent's
    peak on Linux (a child of this test process would read no growth), so
    the probe reads its own VmHWM."""
    assert probe_growth("lambda t, x: -0.5 * x", "[*tree.up_prob, *dt.q_up]") <= 1.15


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux VmHWM")
def test_constant_drift_lattice_resident_growth_stays_near_q_up():
    """Under a constant drift every up_prob level is one value, so the
    growth is bounded by the bytes of q_up alone (2.07 times them when
    up_prob was a buffer too)."""
    assert probe_growth("constant_drift(0.0)", "dt.q_up") <= 1.15


def test_lattice_states_are_read_only_views_of_one_grid():
    spec = DiffusionSpec(constant_drift(0.3), 0.2, 1.5)
    N = 64
    tree = lattice_from_diffusion(spec, N)
    assert np.shares_memory(tree.states[0], tree.states[-1])
    with pytest.raises(ValueError):
        tree.states[5][2] = 0.0
    # the views hold the per-level formula's states bit for bit
    sq = math.sqrt(spec.T / N)
    ref = [spec.x0 + (2.0 * np.arange(i + 1) - i) * sq for i in range(N + 1)]
    assert [s.tobytes() for s in tree.states] == [s.tobytes() for s in ref]
