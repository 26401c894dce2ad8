"""Randomized invariants of the distorted-tree construction.

Time-invariant schedules satisfy the interleaving condition automatically
(the marginal survivals interleave strictly whenever every base transition
lies in (0,1)), so strict mode must never raise here and the whole chain of
identities has to hold to rounding accuracy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from distort import Identity
from distort.tree import (
    _forward_laws,
    backward_induction,
    distort_tree,
    phi_at_node,
    random_monotone_payoff,
    random_tree,
    static_distorted_value,
    verify_initial_consistency,
    verify_tower,
)

from test_distortion import family_strategy


@st.composite
def tree_strategy(draw, max_periods=6):
    n = draw(st.integers(2, max_periods))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    lo = draw(st.floats(0.05, 0.4))
    hi = draw(st.floats(0.6, 0.95))
    return random_tree(rng, n, p_range=(lo, hi)), rng


@given(tree_strategy(), family_strategy())
@settings(max_examples=60, deadline=None)
def test_property_tower(params, d):
    tree, rng = params
    dt = distort_tree(tree, d)
    g = random_monotone_payoff(rng, tree.n_periods + 1)
    n = tree.n_periods
    assert verify_tower(dt, g, r=0, s=n // 2 if n > 2 else 1, n=n) <= 1e-10


@given(tree_strategy(), family_strategy())
@settings(max_examples=60, deadline=None)
def test_property_q_flow_matches_distorted_marginals(params, d):
    tree, _ = params
    dt = distort_tree(tree, d)
    assert verify_initial_consistency(dt) <= 1e-10


@given(tree_strategy(), family_strategy())
@settings(max_examples=60, deadline=None)
def test_property_static_equals_backward_value(params, d):
    tree, rng = params
    dt = distort_tree(tree, d)
    g = random_monotone_payoff(rng, tree.n_periods + 1)
    u0 = backward_induction(dt, g)[0][0]
    assert abs(u0 - static_distorted_value(tree, d, g)) <= 1e-12


@given(tree_strategy())
@settings(max_examples=40, deadline=None)
def test_property_identity_distortion_is_neutral(params):
    # q - p is the roundoff of the survival cumsums divided by the node
    # occupation mass, so the attainable accuracy degrades like eps / w
    tree, _ = params
    dt = distort_tree(tree, Identity())
    eps = np.finfo(float).eps
    occ = [np.array([1.0]), *_forward_laws(tree.up_prob, 0, 0, tree.n_periods)]
    for i, (q, p, w) in enumerate(zip(dt.q_up, tree.up_prob, occ)):
        assert np.all(np.abs(q - p) <= 8.0 * eps * (i + 1.0) / w)


@given(tree_strategy(), family_strategy())
@settings(max_examples=60, deadline=None)
def test_property_transitions_are_probabilities(params, d):
    tree, _ = params
    dt = distort_tree(tree, d)
    for q in dt.q_up:
        assert np.all((q > 0.0) & (q < 1.0))
    assert dt.violations == []
    # no edge is flagged either when the build may clip
    lax = distort_tree(tree, d, strict=False)
    assert lax.violations == []
    assert [q.tobytes() for q in lax.q_up] == [q.tobytes() for q in dt.q_up]


@given(tree_strategy(), family_strategy())
@settings(max_examples=40, deadline=None)
def test_property_node_curves_are_distortions(params, d):
    tree, _ = params
    dt = distort_tree(tree, d)
    n = tree.n_periods
    for j in range(2):
        curve = phi_at_node(dt, 1, j, n)
        assert curve(0.0) == 0.0
        assert curve(1.0) == 1.0
        vals = curve(np.linspace(0.0, 1.0, 17))
        assert np.all(np.diff(vals) >= -1e-12)
