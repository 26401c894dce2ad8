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

import math
from dataclasses import dataclass, field

import numpy as np

from .choquet import choquet_increments, survival_sum
from .density import _whole
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
# the level sweeps (distort_tree, verify_initial_consistency, the TreeModel
# checks) take consecutive levels in blocks of at most this many nodes,
# zero-padded to the widest level: one round of numpy calls per block
# instead of per level, with each block's arrays at most 64 kB
_BLOCK_NODES = 8192


def _blocks(n):
    """Split levels 0 .. n - 1 into runs [a, b) of K = b - a levels with
    K * (b + 1) <= _BLOCK_NODES, or of one level where one is wider."""
    a = 0
    while a < n:
        k = (math.isqrt((a + 1) ** 2 + 4 * _BLOCK_NODES) - a - 1) // 2
        b = min(n, a + max(k, 1))
        yield a, b
        a = b


def _first_bad_level(levels, stop, node_ok):
    """First level i < stop with a node where node_ok fails, or None; each
    block of levels (level i holds i + 1 nodes) is concatenated once and
    node_ok(nodes, a, b) called once."""
    for a, b in _blocks(stop):
        ok = node_ok(np.concatenate(levels[a:b]), a, b)
        if not ok.all():
            ends = np.cumsum(np.arange(a + 1, b + 1))
            return a + int(np.searchsorted(ends, np.argmin(ok), side="right"))
    return None


def _increasing_within_levels(x, a, b):
    """Per node of levels a .. b - 1: whether the next node of its level
    lies above it (the top node of each level passes)."""
    ok = np.ones(x.size, dtype=bool)
    ok[:-1] = np.diff(x) > 0.0
    ok[np.cumsum(np.arange(a + 1, b + 1)) - 1] = True
    return ok


def _in_open_unit(p, a, b):
    return (p > 0.0) & (p < 1.0)


@dataclass(frozen=True)
class TreeModel:
    """Recombining binomial tree: level i has states x_i0 < ... < x_ii.

    Levels are kept as given (asarray, no copy), so a level may be a view:
    TreeModel.on_grid's states are read-only views of one grid, a
    ConstantDrift lattice and a generated CLI tree store each transition
    level as a read-only stride-0 view of its one value, and the levels of
    any other lattice share one buffer.  Copy a level before mutating it."""

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
        # level by level, a shape defect is found before any later defect
        # of its kind: the value checks run on the levels below it
        shaped = next((i for i, s in enumerate(states) if s.shape != (i + 1,)), n + 1)
        i = _first_bad_level(states, shaped, _increasing_within_levels)
        if i is not None:
            raise DomainError(f"TreeModel: states at level {i} not strictly increasing")
        if shaped <= n:
            raise DomainError(f"TreeModel: level {shaped} must hold {shaped + 1} states")
        shaped = next((i for i, p in enumerate(up_prob) if p.shape != (i + 1,)), n)
        i = _first_bad_level(up_prob, shaped, _in_open_unit)
        if i is not None:
            raise DomainError(f"TreeModel: up_prob at level {i} must lie strictly in (0, 1)")
        if shaped < n:
            raise DomainError(f"TreeModel: up_prob at level {shaped} must hold {shaped + 1} entries")

        def straddled(parents, a, b):
            # node j of level i lies between nodes j and j + 1 of level
            # i + 1: the pairs of neighbours within each child level
            children = np.concatenate(states[a + 1 : b + 1])
            pair = np.ones(children.size - 1, dtype=bool)
            pair[np.cumsum(np.arange(a + 2, b + 1)) - 1] = False
            lo, hi = children[:-1][pair], children[1:][pair]
            return (lo <= parents) & (parents <= hi)

        i = _first_bad_level(states, n, straddled)
        if i is not None:
            raise DomainError(
                f"TreeModel: children at level {i + 1} must straddle their parent states"
            )
        # straddling puts every state within the last level's end states
        if not np.isfinite(states[n][[0, -1]]).all():
            raise DomainError(f"TreeModel: states at level {n} must be finite")

    @classmethod
    def on_grid(cls, times, x0, step, up_prob):
        """The tree whose level i holds the states x0 + (2j - i) step, j =
        0..i: read-only views of the one grid x0 + k step, k = -N..N, level i
        every second point of its middle 2i + 1, with the transitions
        up_prob kept as given.

        Checking it costs what its data costs, not one pass over every
        level's states: the times; the 2N + 1 grid points, finite and
        strictly increasing, which makes every level increasing and every
        pair of children straddle its parent; the count and shape of the
        transition levels; and their values in (0, 1), a stride-0 level on
        its one value.  A non-finite x0 or step is named before the grid is
        formed; where any other check fails, the tree is built as
        TreeModel(times, levels, up_prob), whose checks name the defect."""
        for name, v in (("x0", x0), ("step", step)):
            if not math.isfinite(v):
                raise DomainError(f"TreeModel.on_grid: {name}={v} must be finite")
        times = np.asarray(times, dtype=float)
        grid, states = _grid_levels(x0, step, times.size - 1)
        up_prob = [np.asarray(p, dtype=float) for p in up_prob]
        if not _grid_tree_ok(times, grid, up_prob):
            return cls(times, states, up_prob)
        # the checks above stand for __post_init__'s, which would walk
        # every level's states
        tree = object.__new__(cls)
        for name, value in (("times", times), ("states", states), ("up_prob", up_prob)):
            object.__setattr__(tree, name, value)
        return tree

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


def _grid_levels(x0, step, n):
    """The read-only grid x0 + k step, k = -n..n, and the states x0 + (2j -
    i) step of levels i = 0..n as views of it, level i every second point
    of its middle 2i + 1."""
    grid = x0 + np.arange(-n, n + 1) * step
    grid.flags.writeable = False
    return grid, [grid[n - i : n + i + 1 : 2] for i in range(n + 1)]


def _grid_tree_ok(times, grid, up_prob):
    """Whether TreeModel.on_grid's tree passes its checks: times finite and
    strictly increasing, at least two; the grid finite and strictly
    increasing; level i of up_prob of shape (i + 1,) with entries in (0, 1)."""
    n = times.size - 1
    if not (n >= 1 and times.ndim == 1 and np.isfinite(times).all()
            and np.all(np.diff(times) > 0.0)):
        return False
    # an increasing grid with finite ends is finite throughout; a NaN fails >
    if not (np.all(np.diff(grid) > 0.0) and np.isfinite(grid[[0, -1]]).all()):
        return False
    if len(up_prob) != n or any(p.shape != (i + 1,) for i, p in enumerate(up_prob)):
        return False
    values = np.concatenate([p[:1] if p.strides == (0,) else p for p in up_prob])
    # np.min and np.max both carry a NaN, which fails either comparison
    return bool(np.min(values) > 0.0 and np.max(values) < 1.0)


def _constant_level(p, size):
    """A transition level of size entries all equal to p: a read-only
    stride-0 view of the one float."""
    return np.broadcast_to(np.float64(p), (size,))


def survival_probabilities(tree):
    """G_ij = P(X_i >= x_ij) for every node, as a list of level arrays."""
    laws = _forward_laws(tree.up_prob, 0, 0, tree.n_periods)
    return [np.array([1.0]), *(survival_sum(w) for w in laws)]


@dataclass(frozen=True)
class DistortedTree:
    """A TreeModel with its distorted transitions; ``violations`` lists the nodes
    (i, j) that failed the interleaving condition, clipped in a non-strict build.
    No survival weights are kept: survival_probabilities(base) gives them."""

    base: TreeModel
    schedule: object
    q_up: list
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


def distort_tree(tree, schedule, strict=True):
    """Build the distorted transitions q_ij from the marginal survival weights.

    One forward pass of the base law streams the levels in node-budgeted
    blocks of at most _BLOCK_NODES = 8192 nodes: a block's laws are the rows
    of one zero-padded array, and its survival, phi (one schedule call) and
    quotients are one round of numpy calls; each q_i reads
    phi_{t_i}(G_i) and phi_{t_{i+1}}(G_{i+1}) only.  Besides q_up the build
    holds about one block: its traced peak at N = 1024 is 1.21 times the
    bytes of q_up.  q_up is a list of views of one buffer that holds level
    i at offset i (i + 1) / 2, each block written in one assignment: no
    per-level array is left between the build's temporaries to fragment
    the heap.  In strict mode an interleaving violation raises
    ConsistencyError naming the first offending node in level order;
    otherwise the quotients of every level holding a violation are clamped
    into [1e-9, 1 - 1e-9] and the nodes are recorded in ``violations``.
    """
    n = tree.n_periods
    flat = np.empty(n * (n + 1) // 2)
    violations = []
    degenerate = 0
    phi = np.array([1.0])  # phi_{t_0}(G_0): G = {1} at the root pins every phi
    for a, laws in _law_blocks(tree.up_prob, n):
        dead, phi = _distort_block(tree, schedule, strict, a, phi, survival_sum(laws),
                                   flat, violations)
        degenerate += dead
    return DistortedTree(base=tree, schedule=schedule, q_up=_triangle_levels(flat, n),
                         violations=violations, degenerate_edges=degenerate)


def _triangle_levels(flat, n):
    """Levels 0 .. n - 1 of i + 1 entries each, as views of the one buffer
    flat that holds level i at offset i (i + 1) / 2."""
    return [flat[i * (i + 1) // 2 : (i + 1) * (i + 2) // 2] for i in range(n)]


def _distort_block(tree, schedule, strict, a, phi_a, surv, flat, violations):
    """Write q_i, i = a .. a + K - 1, into their slice of the triangular
    buffer flat from phi_{t_a}(G_a) = phi_a and the zero-padded survival
    rows surv (K, w) of levels a + 1 .. a + K; return the block's
    degenerate-edge count and its last phi row."""
    k, w = surv.shape
    point, times = _level_points(tree.times, a, surv.shape)
    phi = schedule.eval(times, np.clip(surv[point], 0.0, 1.0))
    levels = np.zeros((k + 1, w))  # phi of levels a .. a + k, zero past each top state
    levels[0, : phi_a.size] = phi_a
    levels[1:][point] = phi
    hi = levels[:-1, :-1]            # phi_{t_i}(G_ij), j = 0..i
    lo = levels[:-1, 1:]             # phi_{t_i}(G_{i,j+1}), the padding gives G_{i,i+1} = 0
    mid = levels[1:, 1:]             # phi_{t_{i+1}}(G_{i+1,j+1})
    node = point[:, 1:]              # j <= i
    den = hi - lo
    num = mid - lo
    ok = (lo < mid) & (mid < hi)
    roundoff_scale = np.maximum(_DEGENERATE_DENOMINATOR, _SATURATION_ULPS * hi)
    dead = den < roundoff_scale
    # a tie or inversion whose magnitude is itself at roundoff scale is a
    # representation artifact, not a schedule violation: the interior
    # value provably lies strictly between its neighbours whenever the
    # exact phi values do, and here they differ by a few ulps at most
    tie = ~(ok | dead)
    if np.any(tie):
        dead |= tie & (np.maximum(lo - mid, mid - hi) <= roundoff_scale)
    dead &= node
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (num / den)[node]        # the nodes, level by level
    n_dead = int(np.count_nonzero(dead))
    if n_dead:
        q = np.where(dead[node], np.concatenate(tree.up_prob[a : a + k]), q)
        ok |= dead
    bad = ~ok & node
    sizes = np.arange(a + 1, a + k + 1)
    if np.any(bad):
        if strict:
            r, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ConsistencyError(
                f"distorted transition at node (i={a + r}, j={j}) leaves (0, 1): the "
                "schedule moves too fast between these levels (interleaving "
                "condition failed)"
            )
        violations.extend((a + int(r), int(j)) for r, j in np.argwhere(bad))
        clip = np.repeat(bad.any(axis=1), sizes)
        q = np.where(clip, np.clip(q, _PERMISSIVE_EPS, 1.0 - _PERMISSIVE_EPS), q)
    flat[a * (a + 1) // 2 : (a + k) * (a + k + 1) // 2] = q
    return n_dead, levels[-1]


def _level_points(times, a, shape):
    """For a block of levels a + 1 .. a + K, zero-padded to shape (K, w):
    the mask of the a + r + 2 values of each row r, and the time of each
    value in mask order."""
    k, w = shape
    sizes = np.arange(a + 2, a + k + 2)
    return np.arange(w) < sizes[:, None], np.repeat(times[a + 1 : a + k + 1], sizes)


def _check_increasing(values, where):
    if np.any(np.diff(values) < -1e-12):
        raise DomainError(f"{where}: values must be nondecreasing")


def _terminal_values(values, n, where):
    """values as the n + 1 finite, nondecreasing terminal values of a
    payoff; a DomainError names where for any other."""
    g = np.asarray(values, dtype=float)
    if g.shape != (n + 1,):
        raise DomainError(f"{where}: expected {n + 1} terminal values")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise DomainError(
            f"{where}: terminal value {g[bad[0]]} at state {bad[0]} is not finite"
        )
    _check_increasing(g, f"{where} terminal payoff")
    return g


def backward_induction(dt, terminal_values, horizon=None, levels=(0,)):
    """Linear backward induction under the distorted transitions.

    terminal_values: payoff at every level-``horizon`` state, nondecreasing
    and nonnegative.  Returns {i: u_i} for the requested levels, each in
    0 .. horizon.  The walk from the horizon to level 0 keeps one
    node-budgeted block of levels (_blocks) at a time, so its traced
    peak at N = 1024 is under 0.05 times the bytes of q_up, where a list of
    every level would hold as many bytes as q_up.  Each level is a convex
    combination of the next, so monotonicity propagates; a transition
    outside [0, 1] can break it, and the guard, run once per block, names
    the highest level that decreases, the first one the walk forms.
    """
    n = dt.n_periods if horizon is None else _whole(horizon, "backward_induction: horizon")
    keep = {_whole(i, "backward_induction: level") for i in levels}
    if keep and not 0 <= min(keep) <= max(keep) <= n:
        raise DomainError(f"backward_induction: levels {sorted(keep)} must lie in 0..{n}")
    g = _terminal_values(terminal_values, n, "backward_induction")
    if np.any(g < 0.0):
        raise DomainError("backward_induction: terminal payoff must be nonnegative")
    u = g.copy()
    kept = {n: u}
    for a, b in reversed(list(_blocks(n))):
        base = a * (a + 1) // 2
        block = np.empty(b * (b + 1) // 2 - base)  # levels a .. b - 1 in level order
        for i in range(b - 1, a - 1, -1):
            q = dt.q_up[i]
            start = i * (i + 1) // 2 - base
            block[start : start + i + 1] = (1.0 - q) * u[: i + 1] + q * u[1:]
            u = block[start : start + i + 1]
            if i in keep:
                kept[i] = u.copy()
        _check_block_increasing(block, a, b)
    return {i: kept[i] for i in sorted(keep)}


def _check_block_increasing(values, a, b):
    """Raise naming the highest of levels a .. b - 1, laid out in level
    order in values, whose values decrease by more than 1e-12, the
    tolerance of _check_increasing."""
    bad = np.diff(values) < -1e-12
    ends = np.cumsum(np.arange(a + 1, b + 1))
    bad[ends[:-1] - 1] = False  # the pairs that straddle two levels
    if np.any(bad):
        last = bad.size - 1 - int(np.argmax(bad[::-1]))
        i = a + int(np.searchsorted(ends, last, side="right"))
        raise DomainError(f"backward_induction level {i}: values must be nondecreasing")


def _forward_laws(trans, i, j, n):
    """Yield the laws of X_{i+1}, ..., X_n given node (i, j), under ``trans``.

    The law of X_k is indexed by the k + 1 states of level k."""
    w = np.zeros(i + 1)
    w[j] = 1.0
    for k in range(i, n):
        w = _next_law(w, trans[k], np.zeros(k + 2))
        yield w


def _next_law(w, p, out):
    """The law one level on from w under the up-probabilities p, written
    into the zeros of out[: w.size + 1]."""
    k = w.size
    np.multiply(w, 1.0 - p, out=out[:k])
    out[1 : k + 1] += w * p
    return out[: k + 1]


def _law_blocks(trans, n):
    """Yield (a, laws) over the blocks [a, b) of levels 0 .. n - 1: the laws
    of X_{a+1}, ..., X_b from the root under ``trans``, one per row of a
    zero-padded (b - a, b + 1) array."""
    w = np.ones(1)
    for a, b in _blocks(n):
        block = np.zeros((b - a, b + 1))
        for r, row in enumerate(block):
            w = _next_law(w, trans[a + r], row)
        yield a, block


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
    i, j = _whole(i, "phi_at_node: i"), _whole(j, "phi_at_node: j")
    n = dt.n_periods if n is None else _whole(n, "phi_at_node: n")
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
    r = _whole(r, "verify_tower: r")
    n = dt.n_periods if n is None else _whole(n, "verify_tower: n")
    s = (r + n) // 2 if s is None else _whole(s, "verify_tower: s")
    if not (0 <= r < s < n <= dt.n_periods):
        raise DomainError(f"verify_tower: need r < s < n, got ({r}, {s}, {n})")
    g = _terminal_values(terminal_values, n, "verify_tower")
    levels = backward_induction(dt, g, horizon=n, levels=(r, s))
    u_r, u_s = levels[r], levels[s]

    # np.maximum keeps a NaN gap, where max() drops it
    worst = 0.0
    for j in range(s + 1):
        curve = phi_at_node(dt, s, j, n)
        inner = _choquet_with_curve(curve, g)
        worst = np.maximum(worst, abs(inner - u_s[j]))
    inner_vals = u_s
    for j in range(r + 1):
        direct_curve = phi_at_node(dt, r, j, n)
        direct = _choquet_with_curve(direct_curve, g)
        outer_curve = phi_at_node(dt, r, j, s)
        composed = _choquet_with_curve(outer_curve, inner_vals)
        worst = np.maximum(worst, abs(direct - u_r[j]))
        worst = np.maximum(worst, abs(composed - direct))
    return float(worst)


def verify_initial_consistency(dt):
    """Max over all levels and states of |phi_{t_n}(G_nk) - Q(X_n >= x_nk)|.

    One forward pass walks the base law and the distorted law from the root
    in lockstep, in node-budgeted blocks of at most _BLOCK_NODES = 8192
    nodes, with one schedule call per block; its traced peak at N = 1024
    under Power(2) is 0.56 MB, 0.13 times the bytes of q_up."""
    worst, n = 0.0, dt.n_periods
    blocks = zip(_law_blocks(dt.base.up_prob, n), _law_blocks(dt.q_up, n))
    for (a, w_p), (_, w_q) in blocks:
        point, times = _level_points(dt.times, a, w_p.shape)
        phi = dt.schedule.eval(times, np.clip(survival_sum(w_p)[point], 0.0, 1.0))
        # np.maximum keeps a NaN gap (a NaN transition), where max() drops it
        worst = float(np.maximum(worst, np.max(np.abs(phi - survival_sum(w_q)[point]))))
    return worst


def naive_nested_expectation(tree, d, terminal_values):
    """Level-by-level one-step distorted expectations, composed backward.

    This is the naive construction that fails the tower property; it is
    defined here for time-invariant schedules (each one-step expectation uses
    the distortion at the child's time)."""
    n = tree.n_periods
    g = _terminal_values(terminal_values, n, "naive_nested_expectation")
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
    n = tree.n_periods
    g = _terminal_values(terminal_values, n, "static_distorted_value")
    surv = _conditional_survival(tree.up_prob, 0, 0, n)
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
