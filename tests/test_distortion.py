"""Distortion families: values, derivatives, curvature ratios, serialization."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distort import (
    ConfigError,
    DomainError,
    Identity,
    KahnemanTversky,
    Power,
    Prelec,
    TverskyFox,
    Wang,
    distortion_from_dict,
)
from distort.distortion import EPS_P

from conftest import mp_cdf, mp_pdf, mp_phi, mp_quantile, mp_wang

ALL_FAMILIES = [
    Identity(),
    Power(2.0),
    Power(0.5),
    KahnemanTversky(0.61),
    TverskyFox(0.77, 0.69),
    Prelec(1.0, 0.65),
    Wang(0.5),
    Wang(-0.75),
    Wang(0.5, k=1),
]


# ---------------------------------------------------------------------------
# values

def test_power_example():
    assert Power(2.0).eval(0.0, 0.75) == 0.5625


def test_identity_example():
    assert Identity().eval(1.3, 0.37) == 0.37


def test_wang_half_against_oracle():
    ref = float(mp_wang(0.5, 0.5))
    assert Wang(0.5).eval(0.0, 0.5) == pytest.approx(ref, abs=1e-15)


def test_wang_composition_identity_dual_route():
    # library evaluation vs an independent erfc-based composition
    w = Wang(0.5)
    for p in [0.01, 0.1, 0.3, 0.5, 0.8, 0.97, 0.999]:
        assert w.eval(0.0, p) == pytest.approx(float(mp_wang(0.5, p)), abs=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_endpoints_pinned_exactly(d):
    for t in [0.0, 0.7, 2.0]:
        assert d.eval(t, 0.0) == 0.0
        assert d.eval(t, 1.0) == 1.0


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_strictly_increasing_on_grid(d):
    p = np.linspace(0.0, 1.0, 201)
    vals = d.eval(0.5, p)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


_TINY, _BELOW_ONE = 5e-324, 0.9999999999999999
EVAL_FAMILIES = [
    Identity(),
    Power(2.0),
    Power(0.3),
    Power(3.7),
    KahnemanTversky(0.5),
    KahnemanTversky(0.61),
    TverskyFox(0.77, 0.69),
    Prelec(1.0, 0.65),
    Wang(0.5),
    Wang(-1.5),
    Wang(0.3, k=0.5),
    Wang(-0.4, k=2.7),
]


def _eval_overwrite(d, t, p):
    """The formula on every point, p clipped into (0, 1), and the endpoints
    overwritten afterwards: eval's result, with the work it now skips."""
    arr = np.asarray(p, dtype=float)
    inner = np.clip(arr, _TINY, _BELOW_ONE)
    every = np.ones(arr.shape, dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = np.clip(d._value_t(t, inner, 1.0 - inner, every), _TINY, _BELOW_ONE)
    out = np.where(arr == 0.0, 0.0, np.where(arr == 1.0, 1.0, raw))
    return float(out) if np.ndim(p) == 0 else out


def _eval_points():
    rng = np.random.default_rng(505)
    fixed = [0.0, 1.0, 5e-324, 1e-323, 0.9999999999999999, 0.9999999999999998, 1e-300,
             1e-20, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 1e-16, 1.0, 0.0, -0.0]
    tails = 10.0 ** -rng.uniform(0.0, 323.0, 400)
    return np.concatenate([fixed, tails, 1.0 - tails, rng.uniform(0.0, 1.0, 400), fixed])


@pytest.mark.parametrize("d", EVAL_FAMILIES, ids=lambda d: repr(d))
def test_eval_skips_endpoints_bit_identically(d):
    """The formula runs only at interior p; the result is bit for bit that
    of evaluating every point and overwriting the endpoints."""
    p = _eval_points()
    for t in (0.0, 0.7):
        for arr in (p, p.reshape(-1, 5), p[p == 0.0], p[p == 1.0], p[:0]):
            got = d.eval(t, arr)
            assert isinstance(got, np.ndarray) and got.shape == arr.shape
            assert got.tobytes() == _eval_overwrite(d, t, arr).tobytes()
        for x in p[::7]:
            for scalar in (float(x), np.float64(x), np.array(x)):
                got = d.eval(t, scalar)
                assert type(got) is float
                assert np.float64(got).tobytes() == np.float64(_eval_overwrite(d, t, scalar)).tobytes()


@pytest.mark.parametrize("d", EVAL_FAMILIES, ids=lambda d: repr(d))
def test_eval_on_a_block_with_a_column_of_times_matches_each_row(d):
    """A (K, 1) column of times against a (K, w) block gives, row by row,
    the scalar-t result bit for bit; a time-varying shift is read per row."""
    p = _eval_points()[:1230].reshape(6, 205)
    t = np.array([0.0, 0.1, 0.7, 1.3, 2.0, 4.5])[:, None]
    got = d.eval(t, p)
    assert got.shape == p.shape
    for r in range(p.shape[0]):
        assert got[r].tobytes() == d.eval(t[r, 0], p[r]).tobytes()
    # one time per point, as the tree sweeps pass the values of several levels
    assert d.eval(np.repeat(t[:, 0], p.shape[1]), p.ravel()).tobytes() == got.tobytes()


def test_eval_rejects_out_of_range():
    with pytest.raises(DomainError):
        Power(2.0).eval(0.0, -0.1)
    with pytest.raises(DomainError):
        Wang(1.0).eval(0.0, 1.0001)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, 1.0000000000000002])
def test_eval_and_derivatives_reject_any_entry_outside_the_unit_interval(bad):
    p = np.array([[0.5, 0.2], [bad, 1.0]])
    with pytest.raises(DomainError, match=r"Power\.eval: probability outside \[0, 1\]"):
        Power(2.0).eval(0.0, p)
    with pytest.raises(DomainError, match=r"Wang\.derivatives: probability outside"):
        Wang(0.5).derivatives(0.0, p)


def test_eval_and_derivatives_pass_empty_probabilities():
    assert Power(2.0).eval(0.0, np.array([])).shape == (0,)
    assert Wang(0.5).derivatives(0.0, np.zeros((3, 0))).shape == (3, 0)


# ---------------------------------------------------------------------------
# derivatives: frozen high-precision spot values (40-digit oracle)

SPOT = [
    (KahnemanTversky(0.61), 0.18630256637717415, 0.91400126349075883,
     -5.1398958779731521, 83.114652701694335),
    (TverskyFox(0.77, 0.69), 0.14461832744168722, 0.9483963122073639,
     -3.2622018707439402, 47.502177924080523),
    (Prelec(1.0, 0.65), 0.17912873725973016, 0.8695671603192815,
     -3.152653593798209, 55.113415989183368),
    (Wang(0.5), 0.21723908042730519, 1.6749373854749292,
     -4.7719467388421331, 48.441880271261604),
]


def _dpp(d, t, p):
    """phi'' as the drift reads it: dp times the curvature ratio."""
    return d.derivatives(t, p) * d.curvature_ratio(t, p, 1.0 - p)


@pytest.mark.parametrize("d,val,d1,d2,d3", SPOT, ids=lambda x: repr(x) if hasattr(x, "eval") else "")
def test_derivative_cascades_at_tenth(d, val, d1, d2, d3):
    assert d.eval(0.0, 0.1) == pytest.approx(val, rel=1e-14)
    dp = d.derivatives(0.0, 0.1)
    assert dp == pytest.approx(d1, rel=1e-13)
    assert _dpp(d, 0.0, 0.1) == pytest.approx(d2, rel=1e-13)
    # the oracle's phi''' is the slope of that phi'': a central difference
    # of it at h = 1e-5 reads gaps of about 1.5e-8
    h = 1e-5
    fd3 = (_dpp(d, 0.0, 0.1 + h) - _dpp(d, 0.0, 0.1 - h)) / (2 * h)
    assert fd3 == pytest.approx(d3, rel=1e-7)
    assert dp * d.time_ratio(0.0, 0.1, 0.9) == 0.0


def test_power_two_derivatives_at_half():
    dp = Power(2.0).derivatives(0.0, 0.5)
    assert dp == pytest.approx(1.0, abs=1e-15)
    assert _dpp(Power(2.0), 0.0, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert dp * Power(2.0).time_ratio(0.0, 0.5, 0.5) == 0.0


def test_identity_derivatives():
    d = Identity()
    dp = d.derivatives(0.0, 0.3)
    assert (dp, dp * d.time_ratio(0.0, 0.3, 0.7), d.curvature_ratio(0.0, 0.3, 0.7)) == (1.0, 0.0, 0.0)


def test_wang_curvature_ratio_formula():
    # dpp/dp must equal -alpha / pdf(quantile(p))
    alpha = 0.8
    w = Wang(alpha)
    for p in [0.05, 0.3, 0.5, 0.9]:
        ref = -alpha / float(mp_pdf(mp_quantile(p)))
        assert w.curvature_ratio(0.0, p, 1.0 - p) == pytest.approx(ref, rel=1e-12)


def test_wang_tail_ratio_with_complement():
    # survival so deep in the tail that 1-p rounds to 1; the complement path
    # must still give the exact curvature ratio
    z = -12.648521463981771
    comp = float(mp_cdf(z))  # tiny survival complement
    w = Wang(0.5)
    rc = w.curvature_ratio(0.0, 1.0, comp=comp)
    ref = -0.5 / float(mp_pdf(-z))
    assert rc == pytest.approx(ref, rel=1e-12)
    rc_left = w.curvature_ratio(0.0, comp, comp=1.0)
    ref_left = -0.5 / float(mp_pdf(z))
    assert rc_left == pytest.approx(ref_left, rel=1e-12)


def _mp_curvature(d, p):
    """phi''/phi' of the 40-digit oracle, by mpmath differentiation."""
    f = lambda x: mp_phi(d, x)
    return mp.diff(f, mp.mpf(p), 2) / mp.diff(f, mp.mpf(p), 1)


@pytest.mark.parametrize("d", [Power(2.0), Power(0.5), KahnemanTversky(0.61), KahnemanTversky(0.3),
                               TverskyFox(0.77, 0.69), Prelec(1.0, 0.65), Prelec(0.8, 0.9)],
                         ids=lambda d: repr(d))
def test_curvature_ratio_against_mpmath(d):
    """The ratio compute_mu reads, inside and in both tails; near 1 the
    complement is handed over, as the drift hands over 1 - G."""
    points = [(p, 1.0 - p) for p in (0.05, 0.3, 0.5, 0.9)]
    points += [(1e-12, 1.0 - 1e-12), (1.0 - 2.0**-30, 2.0**-30)]
    for p, comp in points:
        ref = float(_mp_curvature(d, p))
        assert d.curvature_ratio(0.0, p, comp) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_first_derivative_vs_central_difference(d):
    h = 1e-5
    t = 0.4
    for p in np.linspace(0.05, 0.95, 19):
        fd = (d.eval(t, p + h) - d.eval(t, p - h)) / (2 * h)
        assert d.derivatives(t, p) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_second_derivative_vs_central_difference(d):
    h = 1e-4
    t = 0.4
    for p in np.linspace(0.1, 0.9, 9):
        fd = (d.eval(t, p + h) - 2 * d.eval(t, p) + d.eval(t, p - h)) / h**2
        assert _dpp(d, t, p) == pytest.approx(fd, rel=2e-5, abs=1e-7)


def test_derivatives_clamp_the_endpoints():
    """derivatives read p = 0 and p = 1 at EPS_P and 1 - EPS_P (compute_mu
    counts such cells; the derivatives count nothing)."""
    for d in (Power(2.0), Wang(0.5, k=1)):
        assert d.derivatives(0.5, 0.0) == d.derivatives(0.5, EPS_P)
        assert np.array_equal(d.derivatives(0.5, np.array([0.0, 0.5, 1.0])),
                              d.derivatives(0.5, np.array([EPS_P, 0.5, 1.0 - EPS_P])))


# ---------------------------------------------------------------------------
# time-varying schedule

def test_time_shifted_wang_time_derivatives():
    """phi_t(p) = F(F^-1(p) + alpha t**k): dp phi = pdf(z + a) / pdf(z) and
    dt phi = pdf(z + a) alpha k t**(k - 1), with a = alpha t**k."""
    d = Wang(0.5, k=2)
    t, p = 0.8, 0.4
    z = float(mp_quantile(p))
    a = 0.5 * t**2
    dp = d.derivatives(t, p)
    dt = dp * d.time_ratio(t, p, 1.0 - p)
    assert dp == pytest.approx(float(mp_pdf(z + a) / mp_pdf(z)), rel=1e-13)
    assert dt == pytest.approx(float(mp_pdf(z + a)) * 0.5 * 2 * t, rel=1e-13)
    h = 1e-6
    fd_t = (d.eval(t + h, p) - d.eval(t - h, p)) / (2 * h)
    assert dt == pytest.approx(fd_t, rel=1e-7)
    # at t = 0.8 the schedule is the static shift by a(0.8)
    static = Wang(a)
    assert d.eval(t, p) == static.eval(0.0, p)
    assert d.curvature_ratio(t, p, 1.0 - p) == static.curvature_ratio(0.0, p, 1.0 - p)


def test_time_ratio_reads_the_trusted_complement():
    """Deep in the upper tail p rounds to 1; the time ratio a'(t) pdf(z)
    is read off the complement, as the curvature ratio is."""
    z = -12.648521463981771
    comp = float(mp_cdf(z))
    d = Wang(0.5, k=1)
    assert d.time_ratio(0.5, 1.0, comp) == pytest.approx(0.5 * float(mp_pdf(z)), rel=1e-12)
    assert d.time_ratio(0.5, comp, 1.0) == pytest.approx(0.5 * float(mp_pdf(z)), rel=1e-12)


def test_static_wang_reads_no_time():
    """k = 0 is the static shift: the same bits at every time, no time
    ratio, and the dict form of before."""
    d = Wang(0.5)
    p = _eval_points()
    assert d.eval(7.3, p).tobytes() == d.eval(0.0, p).tobytes()
    assert d.eval(np.linspace(0.0, 3.0, p.size), p).tobytes() == d.eval(0.0, p).tobytes()
    assert np.all(d.time_ratio(0.4, p, 1.0 - p) == 0.0)
    assert d.to_dict() == {"family": "wang", "alpha": 0.5}
    assert Wang(0.5, k=0.0) == d


def test_time_shifted_wang_rejects_negative_times():
    with pytest.raises(DomainError, match=r"needs t >= 0, got t = -0.5"):
        Wang(0.5, k=1).eval(np.array([0.0, -0.5]), np.array([0.3, 0.6]))


# ---------------------------------------------------------------------------
# construction-time validation

def test_kt_gamma_floor():
    with pytest.raises(ConfigError):
        KahnemanTversky(0.27)
    KahnemanTversky(0.28)  # boundary accepted


@pytest.mark.parametrize(
    "build",
    [
        lambda: Power(0.0),
        lambda: Power(-1.0),
        lambda: KahnemanTversky(1.0),
        lambda: TverskyFox(0.0, 0.5),
        lambda: TverskyFox(1.0, 1.0),
        lambda: Prelec(-1.0, 0.5),
        lambda: Prelec(1.0, 1.0),
        lambda: Wang(float("nan")),
        lambda: Wang(0.5, k=-1.0),
        lambda: Wang(0.5, k=float("inf")),
    ],
)
def test_bad_parameters_rejected_at_construction(build):
    with pytest.raises(ConfigError):
        build()


# ---------------------------------------------------------------------------
# serialization

@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: repr(d))
def test_json_round_trip(d):
    obj = d.to_dict()
    back = distortion_from_dict(obj)
    assert back.to_dict() == obj
    assert back == d
    p = np.linspace(0.01, 0.99, 7)
    assert np.array_equal(back.eval(0.3, p), d.eval(0.3, p))


def test_from_dict_rejects_unknown_family_and_keys():
    with pytest.raises(ConfigError):
        distortion_from_dict({"family": "cubic"})
    with pytest.raises(ConfigError):
        distortion_from_dict({"family": "wang", "alpha": 0.5, "beta": 1.0})
    with pytest.raises(ConfigError):
        distortion_from_dict({"family": "power"})
    with pytest.raises(ConfigError, match="unknown distortion family 'separable'"):
        distortion_from_dict({"family": "separable", "time_weight": {"kind": "constant"},
                              "base": {"family": "power", "gamma": 1.5}})
    with pytest.raises(ConfigError, match="Wang: k must be nonnegative"):
        distortion_from_dict({"family": "wang", "alpha": 0.5, "k": -1})
    assert distortion_from_dict({"family": "wang", "alpha": 0.5, "k": 1}) == Wang(0.5, k=1)


# ---------------------------------------------------------------------------
# property tests

@st.composite
def family_strategy(draw):
    kind = draw(st.sampled_from(["identity", "power", "kt", "tf", "prelec", "wang"]))
    if kind == "identity":
        return Identity()
    if kind == "power":
        return Power(draw(st.floats(0.3, 4.0)))
    if kind == "kt":
        return KahnemanTversky(draw(st.floats(0.3, 0.95)))
    if kind == "tf":
        return TverskyFox(draw(st.floats(0.3, 2.5)), draw(st.floats(0.3, 0.95)))
    if kind == "prelec":
        return Prelec(draw(st.floats(0.3, 2.5)), draw(st.floats(0.2, 0.9)))
    return Wang(draw(st.floats(-1.5, 1.5)))


# eval's relative error against mp_phi reaches about 3e-13 where Wang's and
# Prelec's values near underflow, and a few 1e-16 elsewhere; below 1e-300
# only an absolute error is meaningful
_EVAL_REL = 1e-12
_EVAL_ABS = 1e-300


@given(family_strategy(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=120, deadline=None)
@example(Power(2.0), 0.0, 5e-324)  # p**2 underflows to 0 at the smallest double
@example(Power(0.3), 0.9999999999999999, 1.0)  # p**0.3 rounds to 1 one ulp below 1
@example(Power(4.0), 5e-324, 1e-323)  # both images round to 0: a tie at 5e-324
@example(Wang(0.5), 0.26556202886220426, 0.2655620288622043)  # images 1 ulp inverted
@example(KahnemanTversky(0.3), 0.7019494763859895, 0.7019494763859896)  # by 3 ulps
def test_property_range_and_order(d, p1, p2):
    """eval maps [0, 1] into [0, 1] in order, as far as doubles can show it.

    Power(gamma > 1) sends distinct subnormals to one double, and a formula
    rounded several times maps adjacent doubles to images that tie or invert
    by a few ulps.  So order is checked up to the evaluation error, strictly
    wherever the exact values lie further apart than that error, and strictly
    against the pinned endpoints."""
    v1, v2 = d.eval(0.0, p1), d.eval(0.0, p2)
    assert 0.0 <= v1 <= 1.0
    if p1 == p2:
        assert v1 == v2
    if not p1 < p2:
        return
    assert v1 <= v2 + _EVAL_REL * v2 + _EVAL_ABS
    if p1 == 0.0 or p2 == 1.0:
        assert v1 < v2
        return
    e1, e2 = mp_phi(d, p1), mp_phi(d, p2)
    if e2 - e1 > _EVAL_REL * (e1 + e2) + _EVAL_ABS:
        assert v1 < v2


@given(family_strategy(), st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=80, deadline=None)
def test_property_derivative_positive(d, p):
    assert d.derivatives(0.0, p) > 0.0
