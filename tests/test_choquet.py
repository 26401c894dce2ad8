"""Static Choquet expectations: discrete sums, density quadrature, shape checks."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distort import AccuracyError, DomainError, Identity, Power, Wang
from distort import normal
from distort.choquet import (
    DiscreteRV,
    MonotoneGrid,
    choquet_expectation_density,
    choquet_expectation_discrete,
    distorted_pmf,
)

from test_distortion import family_strategy


# ---------------------------------------------------------------------------
# discrete law

def test_bernoulli_is_phi_of_success_probability():
    for p, d in [(0.3, Power(2.0)), (0.6, Wang(0.5)), (0.5, Power(0.5))]:
        rv = DiscreteRV(np.array([0.0, 1.0]), np.array([1.0 - p, p]))
        assert choquet_expectation_discrete(rv, d) == pytest.approx(d.eval(0.0, p), abs=1e-15)


def test_identity_gives_ordinary_mean(rng):
    support = np.sort(rng.uniform(0.0, 5.0, 7))
    support += np.arange(7) * 1e-6  # enforce strict ordering
    probs = rng.dirichlet(np.ones(7))
    probs = probs / probs.sum()
    rv = DiscreteRV(support, probs)
    assert choquet_expectation_discrete(rv, Identity()) == pytest.approx(
        float(support @ probs), abs=1e-12
    )


def test_three_point_law_with_square_distortion():
    rv = DiscreteRV(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
    d = Power(2.0)
    pmf = distorted_pmf(rv, d)
    assert pmf == pytest.approx([7 / 16, 1 / 2, 1 / 16], abs=1e-15)
    assert choquet_expectation_discrete(rv, d) == pytest.approx(0.625, abs=1e-15)


def test_bernoulli_distorted_pmf_formula():
    p = 0.37
    rv = DiscreteRV(np.array([0.0, 1.0]), np.array([1.0 - p, p]))
    pmf = distorted_pmf(rv, Power(2.0))
    assert pmf == pytest.approx([1.0 - p**2, p**2], abs=1e-15)


def test_identity_pmf_recovers_probs(rng):
    probs = rng.dirichlet(np.ones(5))
    rv = DiscreteRV(np.arange(5.0), probs / probs.sum())
    assert distorted_pmf(rv, Identity()) == pytest.approx(rv.probs, abs=1e-12)


def test_negative_support_rejected():
    rv = DiscreteRV(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        choquet_expectation_discrete(rv, Identity())


def test_discrete_rv_validation():
    with pytest.raises(DomainError):
        DiscreteRV(np.array([1.0, 1.0]), np.array([0.5, 0.5]))  # tied support
    with pytest.raises(DomainError):
        DiscreteRV(np.array([0.0, 1.0]), np.array([0.7, 0.4]))  # sums past 1
    with pytest.raises(DomainError):
        DiscreteRV(np.array([0.0, 1.0]), np.array([1.0, 0.0]))  # zero atom


def test_scaled_law_merges_points_rounded_together():
    rv = DiscreteRV(np.array([1.0, 2.0, 2.5]), np.array([0.2, 0.3, 0.5]))
    tiny = rv.scaled(5e-324)  # support rounds to [5e-324, 1e-323, 1e-323]
    assert tiny.support.tolist() == [5e-324, 1e-323]
    assert tiny.probs.tolist() == [0.2, 0.8]
    zero = rv.scaled(0.0)
    assert zero.support.tolist() == [0.0] and zero.probs.tolist() == [1.0]
    doubled = rv.scaled(2.0)
    assert doubled.support.tolist() == [2.0, 4.0, 5.0]
    assert np.array_equal(doubled.probs, rv.probs)


@pytest.mark.parametrize("support, probs, match", [
    ([0.0, 1.0], [np.nan, 1.0], r"probs\[0\] = nan"),
    ([0.0, 1.0], [0.5, np.inf], r"probs\[1\] = inf"),
    ([np.nan, 1.0], [0.5, 0.5], r"support\[0\] = nan"),
    ([0.0, np.inf], [0.5, 0.5], r"support\[1\] = inf"),
], ids=["nan-prob", "inf-prob", "nan-support", "inf-support"])
def test_discrete_rv_rejects_non_finite_entries_by_name(support, probs, match):
    """[nan, 1.0] used to pass the positivity and the sum checks, and a NaN
    support point the ordering check; the expectation then read NaN."""
    with pytest.raises(DomainError, match=rf"^DiscreteRV: {match} is not finite$"):
        DiscreteRV(np.array(support), np.array(probs))


def test_scaled_law_rejects_negative_infinite_and_overflowing_factors():
    rv = DiscreteRV(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    for c in (-1.0, np.inf, np.nan, 1e308):
        with pytest.raises(DomainError, match="scale factor"):
            rv.scaled(c)


def test_scaled_law_overflow_raises_without_a_warning():
    rv = DiscreteRV(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the support"):
            rv.scaled(1e308)


# ---------------------------------------------------------------------------
# nonlinearity witness: complementary indicators

def test_square_distortion_is_subadditive_here():
    p = 0.5
    d = Power(2.0)
    e1 = choquet_expectation_discrete(DiscreteRV(np.array([0.0, 1.0]), np.array([1 - p, p])), d)
    e2 = choquet_expectation_discrete(DiscreteRV(np.array([0.0, 1.0]), np.array([p, 1 - p])), d)
    assert e1 + e2 == pytest.approx(0.5, abs=1e-15)  # sum of parts below E[1] = 1


def test_sqrt_distortion_is_superadditive_here():
    p = 0.5
    d = Power(0.5)
    e1 = choquet_expectation_discrete(DiscreteRV(np.array([0.0, 1.0]), np.array([1 - p, p])), d)
    e2 = choquet_expectation_discrete(DiscreteRV(np.array([0.0, 1.0]), np.array([p, 1 - p])), d)
    assert e1 + e2 == pytest.approx(2 * np.sqrt(0.5), abs=1e-15)
    assert e1 + e2 > 1.0


# ---------------------------------------------------------------------------
# density route

def test_uniform_survival_square_distortion_closed_form():
    x = np.linspace(0.0, 1.0, 2001)
    survival = MonotoneGrid(x, 1.0 - x, increasing=False)
    g = MonotoneGrid(x, x.copy())
    val = choquet_expectation_density(survival, g, Power(2.0))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_wang_of_normal_cdf_payoff_closed_form():
    # with eta standard normal and g = F, the distorted mean is F(alpha/sqrt(2))
    alpha = 0.5
    x = np.linspace(-8.0, 8.0, 4001)
    survival = MonotoneGrid(x, normal.sf(x), increasing=False)
    g = MonotoneGrid(x, normal.cdf(x))
    val = choquet_expectation_density(survival, g, Wang(alpha))
    assert val == pytest.approx(0.63816319508411847, abs=1e-6)
    assert val == pytest.approx(normal.cdf(alpha / np.sqrt(2.0)), abs=1e-6)


def test_constant_payoff_returns_constant():
    x = np.linspace(-8.0, 8.0, 1001)
    survival = MonotoneGrid(x, normal.sf(x), increasing=False)
    g = MonotoneGrid(x, np.full_like(x, 3.5))
    assert choquet_expectation_density(survival, g, Power(2.0)) == pytest.approx(3.5, abs=1e-12)


def test_density_route_rejects_bad_inputs():
    x = np.linspace(0.0, 1.0, 101)
    survival = MonotoneGrid(x, 1.0 - x, increasing=False)
    rising = MonotoneGrid(x, x.copy())
    with pytest.raises(DomainError):
        choquet_expectation_density(rising, rising, Identity())  # increasing survival
    with pytest.raises(DomainError):
        choquet_expectation_density(survival, MonotoneGrid(x, x - 2.0), Identity())  # negative g
    short = np.linspace(0.2, 0.8, 61)
    with pytest.raises(DomainError):
        choquet_expectation_density(
            MonotoneGrid(short, 1.0 - short, increasing=False),
            MonotoneGrid(short, short.copy()),
            Identity(),
        )  # survival does not span 1 .. 0


def test_quadrature_disagreement_raises():
    x = np.linspace(0.0, 1.0, 9)
    survival = MonotoneGrid(x, 1.0 - x, increasing=False)
    g = MonotoneGrid(x, x.copy())
    with pytest.raises(AccuracyError):
        choquet_expectation_density(survival, g, Power(3.0), agreement_tol=1e-30)


def test_smoothed_discrete_law_approaches_discrete_value():
    rv = DiscreteRV(np.array([0.0, 1.0, 2.0]), np.array([0.25, 0.5, 0.25]))
    d = Power(2.0)
    exact = choquet_expectation_discrete(rv, d)
    w = 1e-3
    x = np.linspace(-0.1, 2.1, 8001)
    G = sum(pk * normal.sf((x - xk) / w) for xk, pk in zip(rv.support, rv.probs))
    survival = MonotoneGrid(x, G, increasing=False)
    g = MonotoneGrid(x, np.clip(x, 0.0, 2.0))
    smoothed = choquet_expectation_density(survival, g, d)
    assert smoothed == pytest.approx(exact, abs=1e-2)


# ---------------------------------------------------------------------------
# monotonicity suite

def test_monotonicity_suite_passes():
    """E[c] = c, E[c xi] = c E[xi], and xi1 <= xi2 gives E[xi1] <= E[xi2]."""
    d = Power(2.0)
    for c in (3.5, 0.0):
        const = DiscreteRV(np.array([c]), np.array([1.0]))
        assert abs(choquet_expectation_discrete(const, d) - c) < 1e-15
    rv = DiscreteRV(np.array([0.0, 1.0]), np.array([0.4, 0.6]))
    base = choquet_expectation_discrete(rv, d)
    for c in (2.0, 0.0):
        assert abs(choquet_expectation_discrete(rv.scaled(c), d) - c * base) < 1e-15
    lo = DiscreteRV(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    hi = DiscreteRV(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
    assert choquet_expectation_discrete(lo, d) <= choquet_expectation_discrete(hi, d)


def test_scaling_value_matches_formula():
    # E[c * Bernoulli] = c * phi(p)
    p, c = 0.6, 2.0
    rv = DiscreteRV(np.array([0.0, 1.0]), np.array([1 - p, p]))
    d = Power(2.0)
    scaled = DiscreteRV(rv.support * c, rv.probs)
    assert choquet_expectation_discrete(scaled, d) == pytest.approx(c * d.eval(0, p), abs=1e-15)


# ---------------------------------------------------------------------------
# property tests

@st.composite
def discrete_rv_strategy(draw):
    n = draw(st.integers(1, 8))
    gaps = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    support = np.cumsum(np.asarray(gaps))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    probs = np.asarray(weights)
    probs = probs / probs.sum()
    # renormalize exactly enough for the 1e-12 gate
    probs[-1] = 1.0 - probs[:-1].sum()
    return DiscreteRV(support, probs)


@given(discrete_rv_strategy(), family_strategy())
@settings(max_examples=120, deadline=None)
def test_property_distorted_pmf_is_probability(rv, d):
    pmf = distorted_pmf(rv, d)
    assert np.all(pmf >= 0.0)
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)


@given(discrete_rv_strategy(), family_strategy(), st.floats(0.0, 3.0))
@example(DiscreteRV(np.array([1.0, 2.0, 2.5]), np.array([0.2, 0.3, 0.5])), Power(2.0),
         5e-324)
@settings(max_examples=60, deadline=None)
def test_property_scaling_homogeneous(rv, d, c):
    base = choquet_expectation_discrete(rv, d)
    scaled = rv.scaled(c)
    assert choquet_expectation_discrete(scaled, d) == pytest.approx(c * base, rel=1e-10, abs=1e-12)
