"""Normal CDF/quantile layer against an independent mpmath oracle."""

import numpy as np
import pytest

from distort import normal

from conftest import mp_cdf, mp_pdf, mp_quantile


CDF_POINTS = [-12.65, -8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 6.0, 10.0]
DEEP_TAIL_POINTS = [-37.0, -20.0, 20.0, 37.0]


@pytest.mark.parametrize("z", CDF_POINTS)
def test_cdf_matches_oracle(z):
    got = normal.cdf(z)
    ref = float(mp_cdf(z))
    assert got == pytest.approx(ref, rel=2e-14, abs=0.0)


@pytest.mark.parametrize("z", DEEP_TAIL_POINTS)
def test_cdf_deep_tail(z):
    # at the underflow edge the relative error of the erfc kernel grows to
    # about 1e-13; absolute accuracy stays far below 1e-14
    got = normal.cdf(z)
    ref = float(mp_cdf(z))
    assert got == pytest.approx(ref, rel=5e-13, abs=0.0)
    assert abs(got - ref) < 1e-14


@pytest.mark.parametrize("z", CDF_POINTS)
def test_sf_is_tail_stable(z):
    # sf keeps relative precision where 1 - cdf would cancel
    got = normal.sf(z)
    ref = float(mp_cdf(-z))
    assert got == pytest.approx(ref, rel=2e-14, abs=0.0)


def test_pdf_values():
    assert normal.pdf(0.0) == pytest.approx(0.3989422804014327, rel=1e-15)
    ref = float(mp_pdf(3.5))
    assert normal.pdf(3.5) == pytest.approx(ref, rel=1e-14)


QUANTILE_POINTS = [1e-300, 1e-100, 1e-37, 1e-12, 1e-3, 0.25, 0.5, 0.75, 0.999, 1 - 1e-12]


@pytest.mark.parametrize("p", QUANTILE_POINTS)
def test_quantile_matches_oracle(p):
    got = normal.quantile(p)
    ref = float(mp_quantile(p))
    if ref == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(ref, rel=5e-15, abs=0.0)


def test_quantile_endpoints():
    assert normal.quantile(0.0) == -np.inf
    assert normal.quantile(1.0) == np.inf


def test_quantile_round_trip():
    p = np.linspace(1e-6, 1 - 1e-6, 1001)
    z = normal.quantile(p)
    back = normal.cdf(z)
    assert np.max(np.abs(back - p)) < 5e-16


def test_quantile_from_pair_deep_tails():
    # p has rounded to 1.0; the complement still recovers the quantile
    comp = float(mp_cdf(-12.648521463981771))
    z = normal.quantile_from_pair(1.0, comp)
    assert z == pytest.approx(12.648521463981771, rel=1e-13)
    z2 = normal.quantile_from_pair(comp, 1.0)
    assert z2 == pytest.approx(-12.648521463981771, rel=1e-13)


def test_vectorized_shapes():
    p = np.array([[0.1, 0.5], [0.9, 0.2]])
    assert normal.quantile(p).shape == (2, 2)
    assert normal.cdf(np.zeros(3)).shape == (3,)
    assert isinstance(normal.cdf(0.0), float)
    assert isinstance(normal.quantile(0.3), float)


def _quantile_two_branch(p):
    """Both halves refined over the whole array, one kept: the quantile's
    result with the work it now skips."""
    p = np.asarray(p, dtype=float)
    lower = np.minimum(p, 0.5)
    upper_comp = np.minimum(1.0 - p, 0.5)
    with np.errstate(invalid="ignore"):
        out = np.where(p <= 0.5, normal._refine_lower_half(lower),
                       -normal._refine_lower_half(upper_comp))
    return out if out.ndim else float(out)


def _pair_two_branch(p, comp):
    p = np.asarray(p, dtype=float)
    comp = np.asarray(comp, dtype=float)
    z = _quantile_two_branch(np.minimum(p, comp))
    out = np.where(p <= comp, z, -z)
    return out if out.ndim else float(out)


def _quantile_points():
    rng = np.random.default_rng(606)
    tails = 10.0 ** -rng.uniform(0.0, 323.0, 300)
    fixed = [0.0, 1.0, -0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 5e-324,
             1e-300, 1e-20, 0.9999999999999999, 1.0 - 1e-12, 0.25, 0.75]
    return np.concatenate([fixed, tails, 1.0 - tails, rng.uniform(0.0, 1.0, 300)])


def test_quantile_one_branch_bit_identical():
    """Refining min(p, 1-p) once and flipping the sign above 1/2 gives the
    two-branch result bit for bit, at the endpoints, 0.5 +- 1 ulp and both
    tails, and outside [0, 1]."""
    p = np.concatenate([_quantile_points(), [-0.1, 1.5, 2.0, -np.inf, np.inf]])
    assert normal.quantile(p).tobytes() == _quantile_two_branch(p).tobytes()
    for x in p[::5]:
        got = normal.quantile(float(x))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(_quantile_two_branch(float(x))).tobytes()


def test_quantile_from_pair_one_branch_bit_identical():
    p = _quantile_points()
    rng = np.random.default_rng(607)
    for comp in (1.0 - p, rng.permutation(p), 10.0 ** -rng.uniform(0.0, 323.0, p.size)):
        got = normal.quantile_from_pair(p, comp)
        assert got.tobytes() == _pair_two_branch(p, comp).tobytes()
        back = normal.quantile_from_pair(comp, p)
        assert back.tobytes() == _pair_two_branch(comp, p).tobytes()
    for x in p[::5]:
        got = normal.quantile_from_pair(float(x), 1.0 - float(x))
        assert type(got) is float
        ref = _pair_two_branch(float(x), 1.0 - float(x))
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
