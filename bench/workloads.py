"""The three workloads: inputs made from a seed, one round of operations, and
the checks on what a round produced.

Every workload calls the library only through public names of ``distort``
(looked up at call time, so the traced run sees its wrappers), passes every
grid size and path count explicitly, and counts its operations: one curve,
one probe, one lattice N or one random tree each.  A round is every
operation of the workload once; the benchmark times whole rounds.
"""

import contextlib
import inspect
import io
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

import distort as ds
import distort.cli as ds_cli

import checks


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    obs: dict = field(default_factory=dict)


def _unit_spec(drift=None):
    return ds.DiffusionSpec(drift=drift or ds.constant_drift(0.0), x0=0.0, T=1.0)


def _read_columns(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data.T


# ---------------------------------------------------------------------------
# phi_curve: the user path for the dynamic distortion curve

# sizes the CLI preset inherits from build_phi_curve's defaults; the check
# refuses a run where they moved, so a changed default cannot resize the
# workload unnoticed
CLI_CURVE_DEFAULTS = {"n_steps": 800, "n_march": 1601, "n_y": 161}


class PhiCurve:
    name = "phi_curve"

    def inputs(self, seed, small=False):
        return {
            "cli_seed": int(seed),
            # the identity preset takes the program's no-march shortcut; the
            # wang preset marches 161 payloads on 1601 nodes x 800 steps
            "preset": "identity" if small else "wang",
            "alpha": 0.0 if small else 0.5,
            "s": 0.25, "t": 1.0,
            "field_route": (dict(n_steps=100, n_march=401, n_y=41) if small
                            else dict(n_steps=800, n_march=1601, n_y=161)),
            "lattice_n": 64 if small else 1024,
            "p_check": np.linspace(0.05, 0.95, 181),
            "cli_tol": 1e-4,
            # O(1/N) lattice error plus the PDE curve's own error
            "node_tol": 0.3 / (64 if small else 1024) + (1e-3 if small else 0.0),
        }

    def run(self, inp, workdir):
        out = Outcome()
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                code = ds_cli.main(["dynamics", "--preset", inp["preset"],
                                    "--seed", str(inp["cli_seed"]), "--out", tmp])
            out.attempted += 1
            if code != 0:
                out.failed += 1
                out.obs["cli_exit"] = code
            else:
                out.obs["cli_curve"] = _read_columns(os.path.join(tmp, "phi_curve.csv"))
                out.obs["cli_mu"] = _read_columns(os.path.join(tmp, "mu.csv"))

        spec = _unit_spec()
        d = ds.Power(2.0)
        s, t = inp["s"], inp["t"]
        curve = ds.build_phi_curve(d, spec, s, t, 0.0, drift_const=None,
                                   **inp["field_route"])
        out.attempted += 1
        out.obs["pde_curve"] = curve(inp["p_check"])

        n = inp["lattice_n"]
        tree = ds.lattice_from_diffusion(spec, n)
        node = ds.phi_at_node(ds.distort_tree(tree, d), int(round(s * n)),
                              int(round(s * n)) // 2, int(round(t * n)))
        out.attempted += 1
        out.obs["node_curve"] = node(inp["p_check"])
        return out

    def check(self, inp, obs):
        problems = []
        defaults = {k: v.default for k, v in
                    inspect.signature(ds.build_phi_curve).parameters.items()
                    if k in CLI_CURVE_DEFAULTS}
        if defaults != CLI_CURVE_DEFAULTS:
            problems.append(f"build_phi_curve defaults {defaults} no longer match "
                            f"the workload's {CLI_CURVE_DEFAULTS}")
        if "cli_exit" in obs:
            problems.append(f"distort dynamics exited with {obs['cli_exit']}")
        else:
            p_knots, phi_knots = obs["cli_curve"]
            p = inp["p_check"]
            ref = checks.wang_phi(inp["alpha"], inp["s"], inp["t"], p)
            problems += checks.within("CLI phi_curve.csv vs closed form",
                                      checks.max_gap(np.interp(p, p_knots, phi_knots), ref),
                                      inp["cli_tol"])
            t_mu, _, mu = obs["cli_mu"]
            problems += checks.within("CLI mu.csv vs alpha / (2 sqrt t)",
                                      checks.max_gap(mu, checks.wang_drift(inp["alpha"], t_mu)),
                                      1e-9)
        problems += checks.within("Power(2) PDE curve vs lattice node curve",
                                  checks.max_gap(obs["pde_curve"], obs["node_curve"]),
                                  inp["node_tol"])
        return problems


# ---------------------------------------------------------------------------
# mc_crosscheck: the distorted dynamics two ways, plus the bridge density

EULER_PROBES = [(0.25, 0.0), (0.25, 0.5), (0.5, -0.5), (0.5, 0.0), (0.75, 0.25)]
BRIDGE_PROBES = [(0.25, 0.5), (1.0, 0.0), (1.0, 1.0), (1.0, -1.0)]


def _ou_drift(t, x):
    return -np.asarray(x, dtype=float)


class McCrosscheck:
    name = "mc_crosscheck"

    def inputs(self, seed, small=False):
        mc_seeds = np.random.SeedSequence(seed).generate_state(
            len(EULER_PROBES) + len(BRIDGE_PROBES))
        return {
            "alpha": 0.5,
            "t_grid": np.linspace(0.2, 1.0, 21 if small else 81),
            "x_grid": np.linspace(-8.0, 8.0, 401 if small else 1601),
            "pde_steps": 40 if small else 400,
            # CN error at dx = 0.01 and 400 steps is a few 1e-6
            "pde_tol": 2e-3 if small else 5e-5,
            "euler": dict(paths=2_000 if small else 100_000, steps=20 if small else 100),
            "bridge": dict(paths=2_000 if small else 40_000, steps=40 if small else 400),
            "euler_seeds": [int(v) for v in mc_seeds[:len(EULER_PROBES)]],
            "bridge_seeds": [int(v) for v in mc_seeds[len(EULER_PROBES):]],
        }

    def run(self, inp, workdir):
        out = Outcome()
        d = ds.Wang(inp["alpha"])
        field_ = ds.gaussian_field(0.0, inp["t_grid"], inp["x_grid"])
        mu = ds.compute_mu(d, field_, ds.constant_drift(0.0))
        sol = ds.solve_distorted_pde(mu, checks.smoothed_step, float(inp["t_grid"][0]), 1.0,
                                     inp["x_grid"], n_steps=inp["pde_steps"])
        euler = []
        for (s, x), seed in zip(EULER_PROBES, inp["euler_seeds"]):
            res = ds.simulate_q_dynamics(mu, s, x, 1.0, seed=seed, g=checks.smoothed_step,
                                         **inp["euler"])
            euler.append((s, x, sol.u_at(s, x), res.mean, res.std_error))
        out.attempted += len(euler)
        ou = _unit_spec(_ou_drift)
        bridge = []
        for (t, x), seed in zip(BRIDGE_PROBES, inp["bridge_seeds"]):
            est = ds.bridge_density_mc(ou, t, x, seed=seed, **inp["bridge"])
            bridge.append((t, x, est.value, est.std_error))
        out.attempted += len(bridge)
        out.obs = {"euler": euler, "bridge": bridge}
        return out

    def check(self, inp, obs):
        problems = []
        alpha = inp["alpha"]
        for s, x, pde, mean, se in obs["euler"]:
            ref = checks.wang_value(alpha, checks.smoothed_step, s, 1.0, x)
            problems += checks.within(f"value PDE at ({s}, {x}) vs quadrature",
                                      pde - ref, inp["pde_tol"])
            allowance = checks.euler_allowance(alpha, s, 1.0, inp["euler"]["steps"])
            problems += checks.mc_within(f"Euler at ({s}, {x}) vs PDE", mean, se, pde,
                                         allowance + inp["pde_tol"])
        for t, x, value, se in obs["bridge"]:
            ref = checks.ou_density(t, x)
            problems += checks.mc_within(
                f"OU bridge density at ({t}, {x})", value, se, ref,
                checks.bridge_allowance(ref, t, x, inp["bridge"]["steps"]))
        return problems


# ---------------------------------------------------------------------------
# lattice: the tree construction

def random_tree_inputs(rng, n_trees):
    """Random recombining trees, schedules and increasing payoffs."""
    out = []
    for _ in range(n_trees):
        n = int(rng.integers(2, 13))
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 1.0, n))])
        step = float(rng.uniform(0.5, 2.0))
        states = [step * (2.0 * np.arange(i + 1) - i) for i in range(n + 1)]
        up_prob = [rng.uniform(0.1, 0.9, i + 1) for i in range(n)]
        family = ("power", "wang", "kahneman_tversky")[int(rng.integers(3))]
        param = {"power": rng.uniform(0.5, 3.0), "wang": rng.uniform(-1.0, 1.0),
                 "kahneman_tversky": rng.uniform(0.4, 0.95)}[family]
        payoff = np.cumsum(rng.uniform(0.0, 1.0, n + 1))
        out.append({"times": times, "states": states, "up_prob": up_prob,
                    "family": family, "param": float(param), "payoff": payoff})
    return out


def _distortion(family, param):
    return {"power": ds.Power, "wang": ds.Wang,
            "kahneman_tversky": ds.KahnemanTversky}[family](param)


class Lattice:
    name = "lattice"

    def inputs(self, seed, small=False):
        rng = np.random.default_rng(seed)
        alpha, eval_t = 0.5, 0.5
        return {
            "wang_alpha": alpha,
            "wang_n": [64, 256] if small else [64, 256, 1024, 4096],
            "eval_t": eval_t,
            "power_n": 64 if small else 4096,
            "consistency_n": 16 if small else 512,
            "trees": random_tree_inputs(rng, 10 if small else 200),
            "kt_gamma": 0.6,
            "kt_n": [64] if small else [64, 256, 1024, 2048],
            "wang_ref": checks.wang_value(alpha, checks.smoothed_step, eval_t, 1.0, 0.0),
        }

    def run(self, inp, workdir):
        out = Outcome()
        obs = out.obs
        spec = _unit_spec()
        g = checks.smoothed_step

        rep = ds.convergence_study(spec, ds.Wang(inp["wang_alpha"]), g, inp["wang_n"],
                                   inp["eval_t"], 0.0, u_ref=inp["wang_ref"])
        out.attempted += len(inp["wang_n"])
        out.failed += len(rep.skipped)
        obs["wang"] = (rep.N_list, rep.errors, rep.skipped)

        n = inp["power_n"]
        tree = ds.lattice_from_diffusion(spec, n)
        power = ds.Power(2.0)
        payoff = g(tree.states[-1])
        dt = ds.distort_tree(tree, power)
        obs["power_root"] = float(ds.backward_induction(dt, payoff)[0][0])
        obs["power_static"] = ds.static_distorted_value(tree, power, payoff)
        del dt, tree
        out.attempted += 1

        small_tree = ds.lattice_from_diffusion(spec, inp["consistency_n"])
        obs["initial_gap"] = ds.verify_initial_consistency(ds.distort_tree(small_tree, power))
        out.attempted += 1

        towers = []
        for tr in inp["trees"]:
            model = ds.TreeModel(tr["times"], tr["states"], tr["up_prob"])
            dt = ds.distort_tree(model, _distortion(tr["family"], tr["param"]))
            towers.append((ds.verify_tower(dt, tr["payoff"]),
                           float(ds.backward_induction(dt, tr["payoff"])[0][0])))
        obs["towers"] = towers
        out.attempted += len(towers)

        # strict mode rejects these lattices today (see CHANGES.md); each
        # rejected N is a failed operation
        rep = ds.convergence_study(spec, ds.KahnemanTversky(inp["kt_gamma"]), g,
                                   inp["kt_n"], inp["eval_t"], 0.0)
        out.attempted += len(inp["kt_n"])
        out.failed += len(rep.skipped)
        obs["kt"] = (rep.N_list, rep.errors, rep.skipped, rep.reference)
        return out

    def check(self, inp, obs):
        problems = []
        n_list, errors, skipped = obs["wang"]
        if skipped:
            problems.append(f"Wang lattices rejected: {skipped}")
        problems += checks.convergence("Wang(0.5) lattice", n_list, errors, 0.2, (-1.2, -0.8))

        n = inp["power_n"]
        states = (2.0 * np.arange(n + 1) - n) / math.sqrt(n)
        ref = checks.choquet_value(checks.binomial_survival(n), checks.phi_formula("power", 2.0),
                                   checks.smoothed_step(states))
        root, static = obs["power_root"], obs["power_static"]
        problems += checks.within(f"Power(2) N={n} root value vs static value",
                                  root - static, 1e-12)
        problems += checks.within(f"Power(2) N={n} static value vs binomial Choquet sum",
                                  static - ref, 1e-12)
        problems += checks.within("verify_initial_consistency", obs["initial_gap"], 1e-10)

        for k, ((tower, root), tr) in enumerate(zip(obs["towers"], inp["trees"])):
            problems += checks.within(f"random tree {k}: verify_tower", tower, 1e-10)
            own = checks.choquet_value(checks.tree_terminal_survival(tr["up_prob"]),
                                       checks.phi_formula(tr["family"], tr["param"]),
                                       tr["payoff"])
            problems += checks.within(f"random tree {k}: root value vs static Choquet sum",
                                      root - own, 1e-12 * max(1.0, abs(own)))

        n_list, errors, skipped, reference = obs["kt"]
        if not 0.0 < reference < 1.0:
            problems.append(f"KahnemanTversky PDE reference {reference} outside (0, 1)")
        if sorted(n_list + skipped) != sorted(inp["kt_n"]):
            problems.append("KahnemanTversky lattices unaccounted for")
        problems += checks.convergence("KahnemanTversky(0.6) lattice", n_list, errors,
                                       0.2, (-1.2, -0.8))
        return problems


WORKLOADS = {w.name: w for w in (PhiCurve(), McCrosscheck(), Lattice())}
