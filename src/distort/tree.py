"""Recombining binomial trees and the time-consistent distorted measure.

Applying a distortion naively to each one-step conditional expectation is not
consistent with the static distorted expectation (the two-period example
below exhibits the gap).  Consistency is restored by distorting the marginal
survival weights instead: with G_ij the survival P(X_i >= x_ij), the
distorted up-probabilities

    q_ij = [phi_{t_{i+1}}(G_{i+1,j+1}) - phi_{t_i}(G_{i,j+1})]
           / [phi_{t_i}(G_ij) - phi_{t_i}(G_{i,j+1})]

define an equivalent measure under which plain linear backward induction
reproduces the static Choquet value of every increasing terminal payoff, and
the induced node-wise distortion curves satisfy the tower property.  The
construction needs the interleaving condition ("mon2")

    phi_{t_i}(G_{i,j+1}) < phi_{t_{i+1}}(G_{i+1,j+1}) < phi_{t_i}(G_ij)

at every edge, which holds automatically for time-invariant schedules.
"""

from dataclasses import dataclass, field

import numpy as np

from .choquet import choquet_increments, survival_sum
from .errors import ConfigError, ConsistencyError, DomainError
from .report import read_json

# occupation masses below this underflow double precision so badly that the
# distorted-transition quotient becomes 0/0; such edges fall back to the
# undistorted transition (their contribution to any value is < 1e-280)
_DEGENERATE_DENOMINATOR = 1e-280
# near the other end of the scale, survival weights a few ulps below 1 map to
# phi values one ulp apart; a denominator at roundoff level relative to phi
# carries no information either (deep lattices hit this at the top tail)
_SATURATION_ULPS = 16.0 * np.finfo(float).eps
_PERMISSIVE_EPS = 1e-9


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial tree: level i has states x_i0 < ... < x_ii."""

    times: np.ndarray
    states: list
    up_prob: list

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = [np.asarray(s, dtype=float) for s in self.states]
        up_prob = [np.asarray(p, dtype=float) for p in self.up_prob]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "up_prob", up_prob)
        n = times.size - 1
        if n < 1:
            raise DomainError("TreeModel: need at least two time points")
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0.0)):
            raise DomainError("TreeModel: times must be finite and strictly increasing")
        if len(states) != n + 1 or len(up_prob) != n:
            raise DomainError(
                f"TreeModel: expected {n + 1} state levels and {n} transition levels, "
                f"got {len(states)} and {len(up_prob)}"
            )
        for i, s in enumerate(states):
            if s.shape != (i + 1,):
                raise DomainError(f"TreeModel: level {i} must hold {i + 1} states")
            if not np.all(np.diff(s) > 0.0):
                raise DomainError(f"TreeModel: states at level {i} not strictly increasing")
        for i, p in enumerate(up_prob):
            if p.shape != (i + 1,):
                raise DomainError(f"TreeModel: up_prob at level {i} must hold {i + 1} entries")
            if not np.all((p > 0.0) & (p < 1.0)):
                raise DomainError(f"TreeModel: up_prob at level {i} must lie strictly in (0, 1)")
        for i in range(n):
            lo, hi = states[i + 1][:-1], states[i + 1][1:]
            if not (np.all(lo <= states[i]) and np.all(states[i] <= hi)):
                raise DomainError(
                    f"TreeModel: children at level {i + 1} must straddle their parent states"
                )
        # straddling puts every state within the last level's end states
        if not np.isfinite(states[n][[0, -1]]).all():
            raise DomainError(f"TreeModel: states at level {n} must be finite")

    @property
    def n_periods(self):
        return self.times.size - 1

    def to_dict(self):
        return {
            "times": [float(t) for t in self.times],
            "states": [[float(x) for x in level] for level in self.states],
            "up_prob": [[float(p) for p in level] for level in self.up_prob],
        }

    @classmethod
    def from_dict(cls, obj):
        extra = set(obj) - {"times", "states", "up_prob"}
        if extra:
            raise DomainError(f"TreeModel: unknown keys {sorted(extra)}")
        try:
            return cls(obj["times"], obj["states"], obj["up_prob"])
        except KeyError as exc:
            raise DomainError(f"TreeModel: missing key {exc}") from exc


def load_tree(path):
    """Read a TreeModel from a JSON object file; ConfigError names the path."""
    obj = read_json(path, "tree file")
    if not isinstance(obj, dict):
        raise ConfigError(f"tree file {path} must hold a JSON object, not a {type(obj).__name__}")
    return TreeModel.from_dict(obj)


def survival_probabilities(tree):
    """G_ij = P(X_i >= x_ij) for every node, as a list of level arrays."""
    laws = _forward_laws(tree.up_prob, 0, 0, tree.n_periods)
    return [np.array([1.0]), *(survival_sum(w) for w in laws)]


@dataclass(frozen=True)
class DistortedTree:
    """A TreeModel together with its distorted transition data."""

    base: TreeModel
    schedule: object
    survival: list
    q_up: list
    mon2_ok: list
    violations: list
    degenerate_edges: int

    @property
    def times(self):
        return self.base.times

    @property
    def states(self):
        return self.base.states

    @property
    def n_periods(self):
        return self.base.n_periods


def _phi_level(tree, schedule, survival, i):
    """phi_{t_i}(G_i) on level i >= 1.  The root level is {1} under every
    schedule (G there is {1}, where every schedule is pinned)."""
    return np.asarray(schedule.eval(tree.times[i], np.clip(survival[i], 0.0, 1.0)))


def distort_tree(tree, schedule, strict=True):
    """Build the distorted transitions q_ij from the marginal survival weights.

    phi is evaluated one level at a time, so a strict rejection stops at the
    failing level.  In strict mode an interleaving violation raises
    ConsistencyError naming the first offending node; otherwise the quotient
    is clamped into [1e-9, 1 - 1e-9] and the node is recorded in
    ``violations``.
    """
    survival = survival_probabilities(tree)
    q_up = []
    mon2_ok = []
    violations = []
    degenerate = 0
    hi = np.array([1.0])                 # phi_{t_i}(G_ij), j = 0..i
    for i in range(tree.n_periods):
        nxt = _phi_level(tree, schedule, survival, i + 1)
        lo = np.append(hi[1:], 0.0)      # phi_{t_i}(G_{i,j+1}), convention G_{i,i+1} = 0
        mid = nxt[1:]                    # phi_{t_{i+1}}(G_{i+1,j+1})
        den = hi - lo
        num = mid - lo
        ok = (lo < mid) & (mid < hi)
        roundoff_scale = np.maximum(_DEGENERATE_DENOMINATOR, _SATURATION_ULPS * hi)
        dead = den < roundoff_scale
        # a tie or inversion whose magnitude is itself at roundoff scale is a
        # representation artifact, not a schedule violation: the interior
        # value provably lies strictly between its neighbours whenever the
        # exact phi values do, and here they differ by a few ulps at most
        dead |= ~ok & (np.maximum(lo - mid, mid - hi) <= roundoff_scale)
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
                raise ConsistencyError(
                    f"distorted transition at node (i={i}, j={j}) leaves (0, 1): the "
                    "schedule moves too fast between these levels (interleaving "
                    "condition failed)"
                )
            violations.extend((i, int(j)) for j in np.nonzero(bad)[0])
            q = np.clip(q, _PERMISSIVE_EPS, 1.0 - _PERMISSIVE_EPS)
        q_up.append(q)
        mon2_ok.append(ok)
        hi = nxt
    return DistortedTree(
        base=tree,
        schedule=schedule,
        survival=survival,
        q_up=q_up,
        mon2_ok=mon2_ok,
        violations=violations,
        degenerate_edges=degenerate,
    )


def _check_increasing(values, where, tol=1e-12):
    if np.any(np.diff(values) < -tol):
        raise DomainError(f"{where}: values must be nondecreasing")


def backward_induction(dt, terminal_values, horizon=None):
    """Linear backward induction under the distorted transitions.

    terminal_values: payoff at every level-``horizon`` state, nondecreasing
    and nonnegative.  Returns the value arrays u_i for i = 0 .. horizon; each
    level is a convex combination of the next, so monotonicity propagates.
    """
    n = dt.n_periods if horizon is None else int(horizon)
    g = np.asarray(terminal_values, dtype=float)
    if g.shape != (n + 1,):
        raise DomainError(f"backward_induction: expected {n + 1} terminal values")
    _check_increasing(g, "backward_induction terminal payoff")
    if np.any(g < 0.0):
        raise DomainError("backward_induction: terminal payoff must be nonnegative")
    levels = [None] * (n + 1)
    levels[n] = g.copy()
    for i in range(n - 1, -1, -1):
        q = dt.q_up[i]
        nxt = levels[i + 1]
        levels[i] = (1.0 - q) * nxt[: i + 1] + q * nxt[1:]
        _check_increasing(levels[i], f"backward_induction level {i}")
    return levels


def _forward_laws(trans, i, j, n):
    """Yield the laws of X_{i+1}, ..., X_n given node (i, j), under ``trans``.

    The law of X_k is indexed by the k + 1 states of level k."""
    w = np.zeros(i + 1)
    w[j] = 1.0
    for k in range(i, n):
        p = trans[k]
        nxt = np.zeros(k + 2)
        nxt[: k + 1] += w * (1.0 - p)
        nxt[1:] += w * p
        w = nxt
        yield w


def _last_law(trans, i, j, n):
    """The law of X_n given node (i, j), under ``trans``."""
    for w in _forward_laws(trans, i, j, n):
        pass
    return w


def _conditional_survival(trans, i, j, n):
    """Survival of X_n over level-n states given node (i, j), under ``trans``."""
    return survival_sum(_last_law(trans, i, j, n), j)


@dataclass(frozen=True)
class PhiCurve:
    """Phi(s, t, x; p), assembled from paired conditional survival curves.

    surv_p and surv_q are P(X_t >= y | X_s = x) and Q(X_t >= y | X_s = x) at
    the states y_grid; the curve maps the first onto the second.  It is known
    at the knots p_grid, strictly increasing from 0 to 1, with values pinned
    to 0 and 1 at the ends, and read by linear interpolation in between.
    """

    s: float
    t: float
    x: float
    p_grid: np.ndarray
    values: np.ndarray
    y_grid: np.ndarray
    surv_p: np.ndarray
    surv_q: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.shape != v.shape:
            raise DomainError("PhiCurve: grid/value shape mismatch")
        if p[0] != 0.0 or p[-1] != 1.0 or v[0] != 0.0 or v[-1] != 1.0:
            raise ConsistencyError("PhiCurve: endpoints must be pinned to (0,0), (1,1)")
        if (p[1:] <= p[:-1]).any():
            raise DomainError("PhiCurve: p_grid must be strictly increasing")
        if (v[1:] - v[:-1] < -1e-9).any():
            raise ConsistencyError("PhiCurve: values must be nondecreasing in p")
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", np.maximum.accumulate(v))

    def __call__(self, p):
        out = np.interp(np.asarray(p, dtype=float), self.p_grid, self.values)
        return float(out) if np.isscalar(p) or np.asarray(p).ndim == 0 else out


def phi_at_node(dt, i, j, n=None):
    """Distortion curve of the consistent construction at node (i, j), horizon n:
    a PhiCurve with s = t_i, t = t_n, x = x_ij and y_grid the level-n states.

    The knots are the attained base-measure survivals.  A survival attained
    at two states, or at 0 or 1, must map to values within 1e-9 of each
    other or of the pinned endpoint.  Reads only the transition data of the
    subtree rooted at (i, j)."""
    n = dt.n_periods if n is None else int(n)
    if not (0 <= i < n <= dt.n_periods) or not (0 <= j <= i):
        raise DomainError(f"phi_at_node: invalid indices (i={i}, j={j}, n={n})")
    surv_p = _conditional_survival(dt.base.up_prob, i, j, n)
    surv_q = _conditional_survival(dt.q_up, i, j, n)
    pts = {}  # interior knots; a pair at 0 or 1 is checked, never stored
    for pk, qk in zip(np.clip(surv_p, 0.0, 1.0).tolist(), np.clip(surv_q, 0.0, 1.0).tolist()):
        known = pk if pk in (0.0, 1.0) else pts.get(pk, qk)
        if abs(known - qk) > 1e-9:
            raise ConsistencyError(
                f"phi_at_node: node (i={i}, j={j}) maps survival {pk} to two values"
            )
        if 0.0 < pk < 1.0:
            pts[pk] = qk
    knots = sorted(pts)
    return PhiCurve(
        s=float(dt.times[i]), t=float(dt.times[n]), x=float(dt.states[i][j]),
        p_grid=[0.0, *knots, 1.0], values=[0.0, *(pts[k] for k in knots), 1.0],
        y_grid=dt.states[n], surv_p=surv_p, surv_q=surv_q,
    )


def _choquet_with_curve(curve, values):
    """Choquet sum of an increasing payoff against a node distortion curve."""
    return float(values @ choquet_increments(curve(np.clip(curve.surv_p, 0.0, 1.0))))


def verify_tower(dt, terminal_values, r=0, s=None, n=None):
    """Max discrepancy between the direct and the composed distorted expectations.

    Both are evaluated two ways at every level-r node: linear backward
    induction under the distorted transitions, and explicit Choquet sums
    against the node distortion curves (direct over [r, n], and composed over
    [r, s] of the inner values over [s, n]).

    The node curves pair P with the same distorted transitions Q that the
    induction uses, so both sides are Q-expectations: this checks the
    Choquet-sum code and the induction code against each other, not the
    distortion.  Transitions that do not come from the schedule pass it;
    verify_initial_consistency is the check against phi.
    """
    n = dt.n_periods if n is None else int(n)
    s = (r + n) // 2 if s is None else int(s)
    if not (0 <= r < s < n <= dt.n_periods):
        raise DomainError(f"verify_tower: need r < s < n, got ({r}, {s}, {n})")
    g = np.asarray(terminal_values, dtype=float)
    levels = backward_induction(dt, g, horizon=n)
    u_r, u_s = levels[r], levels[s]

    worst = 0.0
    for j in range(s + 1):
        curve = phi_at_node(dt, s, j, n)
        inner = _choquet_with_curve(curve, g)
        worst = max(worst, abs(inner - u_s[j]))
    inner_vals = u_s
    for j in range(r + 1):
        direct_curve = phi_at_node(dt, r, j, n)
        direct = _choquet_with_curve(direct_curve, g)
        outer_curve = phi_at_node(dt, r, j, s)
        composed = _choquet_with_curve(outer_curve, inner_vals)
        worst = max(worst, abs(direct - u_r[j]))
        worst = max(worst, abs(composed - direct))
    return worst


def verify_initial_consistency(dt):
    """Max over all levels and states of |phi_{t_n}(G_nk) - Q(X_n >= x_nk)|.

    One forward pass of the distorted law from the root reads every level."""
    worst = 0.0
    laws = _forward_laws(dt.q_up, 0, 0, dt.n_periods)
    for n, w in enumerate(laws, start=1):
        phi = _phi_level(dt.base, dt.schedule, dt.survival, n)
        worst = max(worst, float(np.max(np.abs(phi - survival_sum(w)))))
    return worst


def naive_nested_expectation(tree, d, terminal_values):
    """Level-by-level one-step distorted expectations, composed backward.

    This is the naive construction that fails the tower property; it is
    defined here for time-invariant schedules (each one-step expectation uses
    the distortion at the child's time)."""
    g = np.asarray(terminal_values, dtype=float)
    n = tree.n_periods
    if g.shape != (n + 1,):
        raise DomainError(f"naive_nested_expectation: expected {n + 1} terminal values")
    _check_increasing(g, "naive_nested_expectation terminal payoff")
    u = g.copy()
    for i in range(n - 1, -1, -1):
        p = tree.up_prob[i]
        w = np.asarray(d.eval(tree.times[i + 1], p))
        lo, hi = u[: i + 1], u[1 : i + 2]
        u = lo + (hi - lo) * w
        _check_increasing(u, f"naive_nested_expectation level {i}")
    return float(u[0])


def static_distorted_value(tree, d, terminal_values):
    """Static Choquet expectation of an increasing terminal payoff."""
    g = np.asarray(terminal_values, dtype=float)
    _check_increasing(g, "static_distorted_value terminal payoff")
    surv = _conditional_survival(tree.up_prob, 0, 0, tree.n_periods)
    t_n = float(tree.times[-1])
    w_hi = np.asarray(d.eval(t_n, np.clip(surv, 0.0, 1.0)), dtype=float)
    return float(g @ choquet_increments(w_hi))


def crossing_tree_residual(p1, p2, d1, d2):
    """Consistency residual of the two-period tree with crossing middle edges,
    periods at t = 1 (schedule d1) and t = 2 (schedule d2).

    Zero is necessary for a time-consistent node distortion to exist on that
    (non-recombining) geometry; the square distortion at p1 = p2 = 1/2 gives
    -1/8, the identity gives 0 for every (p1, p2)."""
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0):
        raise DomainError("crossing_tree_residual: probabilities must lie in (0, 1)")
    a = d2.eval(2.0, (1.0 + p2) / 2.0)
    b = d2.eval(2.0, (1.0 - p1 + p2) / 2.0)
    c = d2.eval(2.0, (1.0 - p1) / 2.0)
    return float(d1.eval(1.0, 0.5) - (a - b + c))


# ---------------------------------------------------------------------------
# generators for randomized suites

def random_tree(rng, n_periods, p_range=(0.2, 0.8)):
    """Symmetric lattice states 2j - i at times 0, 1, ..., n_periods, with
    independently drawn up-probabilities."""
    times = np.arange(n_periods + 1, dtype=float)
    states = [np.arange(-i, i + 1, 2, dtype=float) for i in range(n_periods + 1)]
    up_prob = [rng.uniform(p_range[0], p_range[1], size=i + 1) for i in range(n_periods)]
    return TreeModel(times, states, up_prob)


def random_monotone_payoff(rng, n_states, scale=1.0):
    """Nonnegative nondecreasing payoff: normalized cumulative positive increments."""
    inc = rng.uniform(0.0, 1.0, size=n_states)
    g = np.cumsum(inc)
    top = g[-1]
    if top <= 0.0:
        return np.zeros(n_states)
    return scale * g / top
