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
import re

import numpy as np
import pytest
from scipy.optimize import brentq

from distort import (
    ConsistencyError,
    DomainError,
    Identity,
    KahnemanTversky,
    Power,
    SeparableProduct,
    TimeWeight,
    Wang,
)
from distort.choquet import DiscreteRV, choquet_expectation_discrete
from distort.density import DiffusionSpec, constant_drift
from distort.dynamics import lattice_from_diffusion
from distort.report import canonical_json
from distort.tree import (
    DistortedTree,
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

G_PAYOFF = np.array([0.0, 1.0, 2.0])


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

def test_square_distortion_transitions_exact(square_tree):
    assert square_tree.q_up[0][0] == pytest.approx(0.25, rel=1e-15)
    assert square_tree.q_up[1][0] == pytest.approx(5.0 / 12.0, rel=1e-15)
    assert square_tree.q_up[1][1] == pytest.approx(0.25, rel=1e-15)
    assert all(np.all(ok) for ok in square_tree.mon2_ok)
    assert square_tree.violations == []
    assert square_tree.degenerate_edges == 0


def test_identity_distortion_recovers_base(two_period):
    dt = distort_tree(two_period, Identity())
    for q, p in zip(dt.q_up, two_period.up_prob):
        assert np.allclose(q, p, rtol=0.0, atol=1e-15)


def test_fast_decaying_schedule_breaks_interleaving(two_period):
    sched = SeparableProduct(TimeWeight("exp", rate=-2.0, anchor=1.0), Power(2.0))
    with pytest.raises(ConsistencyError, match=r"i=1"):
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
    levels = backward_induction(square_tree, G_PAYOFF)
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


# ---------------------------------------------------------------------------
# naive nesting is inconsistent

def test_naive_value_and_gap(two_period):
    naive = naive_nested_expectation(two_period, Power(2.0), G_PAYOFF)
    assert naive == 0.5
    static = static_distorted_value(two_period, Power(2.0), G_PAYOFF)
    assert static - naive == pytest.approx(0.125, abs=1e-15)


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


@pytest.mark.parametrize("d", [Power(2.0), Wang(-0.7), KahnemanTversky(0.8)], ids=str)
def test_initial_consistency_single_pass_matches_per_level_loop(d):
    """The forward pass reads each level exactly as re-propagating from the
    root to that level does, so the result is bit-identical."""
    rng = np.random.default_rng(21)
    for _ in range(8):
        dt = distort_tree(random_tree(rng, int(rng.integers(1, 13))), d, strict=False)
        per_level = 0.0
        for n in range(1, dt.n_periods + 1):
            phi = d.eval(dt.times[n], np.clip(dt.survival[n], 0.0, 1.0))
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
             SeparableProduct(TimeWeight("exp", rate=float(rng.uniform(-0.6, 0.0))),
                              Power(2.0))][k % 4]
        cases.append((random_tree(rng, n, p_range=(0.05, 0.95)), d))
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    cases.append((lattice_from_diffusion(spec, 64), KahnemanTversky(0.6)))
    cases.append((lattice_from_diffusion(spec, 200), Wang(0.5)))
    return cases


def test_distort_tree_per_level_phi_matches_eager_route():
    """phi one level at a time gives the eager route's transitions bit for
    bit in both modes, the non-strict clip and the strict rejection
    included."""
    clipped = rejected = 0
    for tree, d in _tree_cases():
        ref = _eager_distort_tree(tree, d, strict=False)
        dt = distort_tree(tree, d, strict=False)
        assert [q.tobytes() for q in dt.q_up] == [q.tobytes() for q in ref[0]]
        assert [ok.tolist() for ok in dt.mon2_ok] == [ok.tolist() for ok in ref[1]]
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
