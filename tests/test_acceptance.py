"""Acceptance gate: every numbered criterion, at its stated tolerance.

The criteria run once through the same registry the command line uses, so a
green run here certifies `distort selftest` as well.  Each test reports the
measured detail string on failure.
"""

import pytest

from distort.selftest import CRITERIA, run_selftest

EXPECTED = [
    (1, "tree-naive-vs-static"),
    (2, "tree-two-period-construction"),
    (3, "tree-random-property-suite"),
    (4, "tree-crossing-residual"),
    (5, "dynamics-wang-drift"),
    (6, "dynamics-wang-phi-curve"),
    (7, "dynamics-lattice-convergence"),
    (8, "dynamics-pde-vs-mc"),
    (9, "density-cross-estimators"),
    (10, "invariant-suites"),
]


@pytest.fixture(scope="module")
def suite():
    import io

    stream = io.StringIO()
    results, code = run_selftest(stream=stream)
    print(stream.getvalue())
    return {r.number: r for r in results}, code


def test_registry_is_complete():
    assert [(num, name) for num, name, _ in CRITERIA] == EXPECTED


@pytest.mark.parametrize("number,name", EXPECTED)
def test_criterion(suite, number, name):
    results, _ = suite
    r = results[number]
    assert r.name == name
    assert r.passed, f"criterion {number} ({name}): {r.detail}"


def test_total_runtime_under_budget(suite):
    results, code = suite
    total = sum(r.seconds for r in results.values())
    assert total < 180.0, f"suite took {total:.1f}s"
    assert code == 0


def test_invariants_criterion_fails_on_a_wrong_curvature(monkeypatch):
    """Criterion 10's phi'' check reads the curvature formula the drift
    uses, so a one-percent error in one family's formula fails it."""
    import re

    from distort.distortion import Power
    from distort.selftest import _criterion_invariants

    curvature = Power._curvature
    monkeypatch.setattr(Power, "_curvature", lambda self, p, q: 1.01 * curvature(self, p, q))
    passed, detail = _criterion_invariants()
    assert not passed
    gap = float(re.search(r"derivative fd gap=(\S+)", detail).group(1))
    assert gap > 1e-5, detail


def test_invariants_criterion_fails_on_a_wrong_time_ratio(monkeypatch):
    """Criterion 10's dt phi check reads dp * time_ratio, the time term the
    drift uses, so a one-percent error in the time-shifted Wang's time ratio
    fails it."""
    import re

    from distort.distortion import Wang
    from distort.selftest import _criterion_invariants

    time_ratio = Wang.time_ratio
    monkeypatch.setattr(Wang, "time_ratio",
                        lambda self, t, p, comp: 1.01 * time_ratio(self, t, p, comp))
    passed, detail = _criterion_invariants()
    assert not passed
    gap = float(re.search(r"derivative fd gap=(\S+)", detail).group(1))
    assert gap > 1e-5, detail


@pytest.mark.parametrize("criterion, measured", [
    ("_criterion_wang_drift", r"time-shifted sup=(\S+)"),
    ("_criterion_wang_phi", r"time-shifted sup=(\S+)"),
    ("_criterion_convergence", r"reference gap=(\S+)"),
], ids=["drift", "phi-curve", "lattice"])
def test_time_shifted_cases_fail_without_the_time_term(monkeypatch, criterion, measured):
    """The time-shifted Wang cases of criteria 5, 6 and 7 read the drift's
    time term: with the time ratio scaled by 0 each of them fails."""
    import re

    import numpy as np

    from distort import selftest
    from distort.distortion import Wang

    monkeypatch.setattr(Wang, "time_ratio", lambda self, t, p, comp: 0.0 * np.asarray(p))
    passed, detail = getattr(selftest, criterion)()
    assert not passed
    assert float(re.search(measured, detail).group(1)) >= 0.01, detail
