"""Acceptance suite: one callable per criterion, runnable without a test runner.

Each criterion function returns a CriterionResult with a measured detail
string, so a failing run says what number came out, not just that it failed.
The registry order is the documented criterion numbering.
"""

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import normal
from .choquet import DiscreteRV, distorted_pmf
from .density import (
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    density_cross_check,
    gaussian_field,
    solve_survival_pde,
)
from .distortion import (
    Identity,
    KahnemanTversky,
    Power,
    Prelec,
    TverskyFox,
    Wang,
)
from .dynamics import (
    build_phi_curve,
    compute_mu,
    convergence_study,
    pde_mc_check,
    smoothed_step_payload,
    solve_distorted_pde,
    wang_mu_closed,
    wang_phi_closed,
    wang_value_closed,
)
from .tree import (
    TreeModel,
    backward_induction,
    crossing_tree_residual,
    distort_tree,
    naive_nested_expectation,
    phi_at_node,
    random_monotone_payoff,
    random_tree,
    static_distorted_value,
    verify_initial_consistency,
    verify_tower,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _two_period_tree():
    return TreeModel(
        times=[0.0, 1.0, 2.0],
        states=[[0.0], [-1.0, 1.0], [-2.0, 0.0, 2.0]],
        up_prob=[[0.5], [0.5, 0.5]],
    )


def _criterion_naive_vs_static():
    tree = _two_period_tree()
    d = Power(2.0)
    g = np.array([0.0, 1.0, 2.0])
    naive_nested_expectation(tree, d, g)  # warm caches before timing
    static_distorted_value(tree, d, g)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        naive = naive_nested_expectation(tree, d, g)
        static = static_distorted_value(tree, d, g)
        best = min(best, time.perf_counter() - t0)
    ok = (
        abs(naive - 0.5) <= 1e-12
        and abs(static - 0.625) <= 1e-12
        and best < 1e-3
    )
    return ok, f"naive={naive:.17g} static={static:.17g} warm={best * 1e6:.0f}us"


def _criterion_two_period_construction():
    tree = _two_period_tree()
    d = Power(2.0)
    g = np.array([0.0, 1.0, 2.0])
    dt = distort_tree(tree, d)
    q00 = float(dt.q_up[0][0])
    lo = float(phi_at_node(dt, 1, 0, 2)(0.5))
    hi = float(phi_at_node(dt, 1, 1, 2)(0.5))
    tower = float(backward_induction(dt, g)[0][0])
    gaps = [
        abs(q00 - 0.25),
        abs(lo - 5.0 / 12.0),
        abs(hi - 0.25),
        abs(tower - 0.625),
    ]
    ok = max(gaps) <= 1e-12
    return ok, (
        f"q00={q00:.17g} phi(1,2,-1;1/2)={lo:.17g} phi(1,2,1;1/2)={hi:.17g} "
        f"tower={tower:.17g}"
    )


def _random_schedule(rng):
    k = int(rng.integers(0, 4))
    if k == 0:
        return Power(float(rng.uniform(1.0, 3.0)))
    if k == 1:
        return Wang(float(rng.uniform(-1.0, 1.0)))
    if k == 2:
        return KahnemanTversky(float(rng.uniform(0.4, 0.95)))
    return Prelec(float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.4, 0.95)))


def _criterion_random_tree_suite():
    rng = np.random.default_rng(20260816)
    worst_tower = 0.0
    worst_qflow = 0.0
    t0 = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 13))
        tree = random_tree(rng, n)
        d = _random_schedule(rng)
        dt = distort_tree(tree, d)
        worst_qflow = max(worst_qflow, verify_initial_consistency(dt))
        for _ in range(5):
            g = random_monotone_payoff(rng, n + 1, scale=float(rng.uniform(0.5, 3.0)))
            if n >= 2:
                worst_tower = max(worst_tower, verify_tower(dt, g))
    elapsed = time.perf_counter() - t0
    ok = worst_tower <= 1e-10 and worst_qflow <= 1e-10 and elapsed < 10.0
    return ok, f"tower={worst_tower:.3e} qflow={worst_qflow:.3e} in {elapsed:.1f}s"


def _criterion_crossing():
    r_sq = crossing_tree_residual(0.5, 0.5, Power(2.0), Power(2.0))
    r_id = crossing_tree_residual(0.5, 0.5, Identity(), Identity())
    ok = abs(r_sq - (-0.125)) <= 1e-12 and r_id == 0.0
    verdict = "no consistent curve" if abs(r_sq) > 1e-12 else "consistent"
    return ok, f"square residual={r_sq:.17g} ({verdict}), identity residual={r_id:.17g}"


def _criterion_wang_drift():
    alpha = 0.5
    t_grid = np.linspace(0.1, 1.0, 46)
    x_grid = np.linspace(-4.0, 4.0, 161)
    field = gaussian_field(0.0, t_grid, x_grid)
    # the static shift, and a time-shifted one whose drift carries the time term
    sups = []
    for d in (Wang(alpha), Wang(alpha, k=1)):
        mu = compute_mu(d, field, constant_drift(0.0))
        exact = wang_mu_closed(d.alpha, d.k)(t_grid[:, None], x_grid)
        sups.append(float(np.max(np.abs(mu.mu - exact))))

    # the OU drift b = -x from 0, with the density replaced by its bridge-MC
    # estimate at a few cells; the estimate has variance, so the gate can fail
    t0 = time.perf_counter()
    worst = -math.inf
    for t in (0.25, 1.0):
        for x in (-1.0, 0.0, 1.0):
            est = bridge_density_mc(OU_SPEC, t, x, paths=40_000, steps=200, seed=29)
            worst = max(worst, wang_ou_drift_excess(alpha, t, x, est.value, est.std_error, 200))
    elapsed = time.perf_counter() - t0
    ok = max(sups) <= 1e-6 and worst <= 0.0 and elapsed < 30.0
    return ok, (f"analytic sup={sups[0]:.3e} time-shifted sup={sups[1]:.3e} "
                f"OU bridge worst excess={worst:.2e} mc={elapsed:.1f}s")


def _criterion_wang_phi():
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    d = Wang(0.5)
    p = np.linspace(0.05, 0.95, 181)
    sups = []
    for dk in (d, Wang(0.5, k=1)):
        curve = build_phi_curve(dk, spec, 0.25, 1.0, 0.0, drift_const=0.0)
        ref = wang_phi_closed(dk.alpha, 0.25, 1.0, dk.k)
        sups.append(float(np.max(np.abs(curve(p) - ref(p)))))

    early = build_phi_curve(d, spec, 1e-4, 1.0, 0.0, drift_const=0.0,
                            mu=wang_mu_closed(0.5), s_min=0.0,
                            n_march=2401, n_steps=1200)
    sup_static = float(np.max(np.abs(early(p) - d.eval(0.0, p))))
    ok = max(sups) <= 1e-3 and sup_static <= 2e-3
    return ok, (f"closed-form sup={sups[0]:.3e} time-shifted sup={sups[1]:.3e} "
                f"static-slice sup={sup_static:.3e}")


def _criterion_convergence():
    spec = DiffusionSpec(drift=constant_drift(0.0), x0=0.0, T=1.0)
    g = smoothed_step_payload()
    n_list = [64, 256, 1024, 4096]
    t0 = time.perf_counter()
    rep = convergence_study(spec, Wang(0.5), g, n_list, 0.5, 0.0,
                            u_ref=wang_value_closed(0.5, g, 0.5, 1.0, 0.0))
    # the time-shifted schedule against its PDE reference, whose drift
    # carries the time term, and that reference against the closed form
    shifted = convergence_study(spec, Wang(0.5, k=1), g, n_list, 0.5, 0.0)
    ref_gap = abs(shifted.reference - wang_value_closed(0.5, g, 0.5, 1.0, 0.0, k=1))
    elapsed = time.perf_counter() - t0
    ok = ref_gap <= 1e-4 and elapsed < 60.0 and all(
        r.skipped == [] and r.errors[-1] <= 1e-2
        and all(a > b for a, b in zip(r.errors, r.errors[1:])) for r in (rep, shifted))
    errs = [",".join(f"{e:.2e}" for e in r.errors) for r in (rep, shifted)]
    return ok, (f"errors=[{errs[0]}] slope={rep.slope:.2f} time-shifted errors=[{errs[1]}] "
                f"slope={shifted.slope:.2f} reference gap={ref_gap:.1e} in {elapsed:.1f}s")


def _criterion_pde_vs_mc():
    field = gaussian_field(0.0, np.linspace(0.2, 1.0, 81), np.linspace(-8.0, 8.0, 1601))
    mu = compute_mu(Wang(0.5), field, constant_drift(0.0))
    g = smoothed_step_payload()
    sol = solve_distorted_pde(mu, g, 0.2, 1.0, field.x_grid, n_steps=400)
    probes = [(0.25, 0.0), (0.25, 0.5), (0.5, -0.5), (0.5, 0.0), (0.75, 0.25)]
    t0 = time.perf_counter()
    cols, worst, _ = pde_mc_check(mu, sol, g, probes, 1.0, 100_000, 100, 11)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and elapsed < 30.0
    gaps = ",".join(f"{gap:.1e}" for gap in cols["gap"])
    return ok, f"gaps=[{gaps}] worst excess={worst:.2e} in {elapsed:.1f}s"


# Ornstein-Uhlenbeck drift b(t, x) = -x from 0: state-dependent, so a bridge
# estimate of its density has variance, and closed forms stay available
OU_SPEC = DiffusionSpec(drift=lambda t, x: -np.asarray(x, dtype=float), x0=0.0, T=1.0)


def ou_density(t, x):
    """Closed-form density of dX = -X dt + dB from X_0 = 0: N(0, v), v = (1 - e^(-2t)) / 2."""
    v = -0.5 * math.expm1(-2.0 * t)
    return math.exp(-x * x / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)


def ou_bridge_excess(t, x, value, std_error, steps):
    """How far a bridge estimate of the OU density lies beyond its allowance,
    5 SE + rho (t + x^2) / (2 steps); positive means rejected.

    The second term bounds the O(1/steps) bias of the left-point exponent:
    the bridge's discrete quadratic variation misses t by (x^2 - t) / steps
    and the Riemann sum of b^2 lags by about x^2 dt / 2."""
    rho = ou_density(t, x)
    return abs(value - rho) - (5.0 * std_error + rho * (t + x * x) / (2.0 * steps))


def wang_ou_drift_excess(alpha, t, x, value, std_error, steps):
    """How far the Wang(alpha) drift read from a bridge estimate of the OU
    density lies beyond its allowance; positive means rejected.

    For dX = -X dt + dB from 0 the distorted law at t is N(alpha sqrt(v), v),
    so the distorted drift is mu = -x + alpha / (2 sqrt(v)), v = (1 - e^(-2t)) / 2.
    The estimate mu-hat = b + dt_phi / (dp_phi rho) - (dpp_phi / dp_phi) rho / 2
    moves with rho at the rate |sens|; the allowance is |sens| times 3 SE plus
    the left-point bias allowance of ou_bridge_excess."""
    d = Wang(alpha)
    v = -0.5 * math.expm1(-2.0 * t)
    z = x / math.sqrt(v)
    g, comp = normal.sf(z), normal.cdf(z)
    tr = d.time_ratio(t, g, comp)
    cr = d.curvature_ratio(t, g, comp)
    mu_hat = -x + tr / value - 0.5 * cr * value
    sens = abs(-tr / value**2 - 0.5 * cr)
    bias = ou_density(t, x) * (t + x * x) / (2.0 * steps)
    return abs(mu_hat - (-x + alpha / (2.0 * math.sqrt(v)))) - sens * (3.0 * std_error + bias)


def _criterion_density_estimators():
    worst = -math.inf
    zero_var = True
    for b in (0.0, 0.5):
        spec = DiffusionSpec(drift=constant_drift(b), x0=0.0, T=1.0)
        full = solve_survival_pde(
            spec, np.linspace(1e-3, 1.0, 401), np.linspace(-8.0, 8.0, 1201)
        )
        cols, excess = density_cross_check(b, 0.0, 1.0, full, 31)
        worst = max(worst, excess)
        if b == 0.0:
            zero_var = all(se == 0.0 for se in cols["se"])
    # a state-dependent drift, so the bridge estimate has variance to test
    ou_worst = -math.inf
    for x in (0.0, 1.0, -1.0):
        est = bridge_density_mc(OU_SPEC, 1.0, x, paths=40_000, steps=400, seed=31)
        ou_worst = max(ou_worst, ou_bridge_excess(1.0, x, est.value, est.std_error, 400))
    ok = worst <= 0.0 and zero_var and ou_worst <= 0.0
    return ok, (
        f"worst pairwise excess={worst:.2e} driftless bridge exact={zero_var} "
        f"OU worst excess={ou_worst:.2e}"
    )


def _criterion_invariants():
    msgs = []
    ok = True

    # maximum principle and monotone slices of the backward value solver
    g = smoothed_step_payload()
    xg = np.linspace(-8.0, 8.0, 1601)
    sol = solve_distorted_pde(wang_mu_closed(0.5), g, 0.1, 1.0, xg, n_steps=300)
    mono = float(np.min(np.diff(sol.u, axis=1)))
    if sol.max_principle_defect > 1e-12 or mono < 0.0:
        ok = False
    msgs.append(f"pde defect={sol.max_principle_defect:.1e}")

    # distorted pmf normalization over random laws and schedules
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 12))
        vals = np.sort(rng.normal(size=n))
        probs = rng.dirichlet(np.ones(n))
        rv = DiscreteRV(vals, probs)
        d = _random_schedule(rng)
        w = distorted_pmf(rv, d, t=float(rng.uniform(0.0, 2.0)))
        worst_sum = max(worst_sum, abs(float(np.sum(w)) - 1.0))
    if worst_sum > 1e-12:
        ok = False
    msgs.append(f"pmf sum gap={worst_sum:.1e}")

    # derivatives against central differences for every family; dt phi is
    # dp * time_ratio and phi'' is dp * curvature_ratio, the formulas the
    # drift reads
    pool = [
        Power(2.0), Wang(0.7), KahnemanTversky(0.5), Prelec(0.8, 0.9),
        TverskyFox(0.9, 0.6), Wang(0.5, k=1),
    ]
    worst_fd = 0.0
    for d in pool:
        for p in np.linspace(0.1, 0.9, 9):
            t = 0.4
            dp = d.derivatives(t, p)
            h = 1e-5
            fd1 = (d.eval(t, p + h) - d.eval(t, p - h)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd1 - dp) / max(1.0, abs(dp)))
            h = 1e-4
            fd2 = (d.eval(t, p + h) - 2 * d.eval(t, p) + d.eval(t, p - h)) / h**2
            dpp = dp * d.curvature_ratio(t, p, 1.0 - p)
            worst_fd = max(worst_fd, abs(fd2 - dpp) / max(1.0, abs(dpp)))
            h = 1e-6
            fdt = (d.eval(t + h, p) - d.eval(t - h, p)) / (2 * h)
            dt = dp * d.time_ratio(t, p, 1.0 - p)
            worst_fd = max(worst_fd, abs(fdt - dt) / max(1.0, abs(dt)))
    if worst_fd > 1e-5:
        ok = False
    msgs.append(f"derivative fd gap={worst_fd:.1e}")
    return ok, "; ".join(msgs)


CRITERIA = [
    (1, "tree-naive-vs-static", _criterion_naive_vs_static),
    (2, "tree-two-period-construction", _criterion_two_period_construction),
    (3, "tree-random-property-suite", _criterion_random_tree_suite),
    (4, "tree-crossing-residual", _criterion_crossing),
    (5, "dynamics-wang-drift", _criterion_wang_drift),
    (6, "dynamics-wang-phi-curve", _criterion_wang_phi),
    (7, "dynamics-lattice-convergence", _criterion_convergence),
    (8, "dynamics-pde-vs-mc", _criterion_pde_vs_mc),
    (9, "density-cross-estimators", _criterion_density_estimators),
    (10, "invariant-suites", _criterion_invariants),
]


def run_selftest(filter_substr=None, stream=None):
    """Run the acceptance criteria; returns (results, exit_code)."""
    stream = sys.stdout if stream is None else stream
    selected = [
        (num, name, fn)
        for num, name, fn in CRITERIA
        if filter_substr is None or filter_substr in name
    ]
    if not selected:
        print(f"no criteria match filter {filter_substr!r}", file=stream)
        return [], 2
    results = []
    total0 = time.perf_counter()
    for num, name, fn in selected:
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure with the message kept
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        results.append(CriterionResult(num, name, passed, detail, seconds))
        verdict = "PASS" if passed else "FAIL"
        print(f"{verdict} {num:>2} {name:<32} {detail} [{seconds:.2f}s]", file=stream)
    total = time.perf_counter() - total0
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed in {total:.1f}s", file=stream)
    if total >= 180.0 and filter_substr is None:
        print("FAIL total runtime exceeded 180s", file=stream)
        return results, 4
    return results, 0 if n_pass == len(results) else 4
