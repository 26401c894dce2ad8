"""Tests of the benchmark itself: each check rejects a wrong answer, every
workload runs at reduced size, the tracer counts and restores what it wraps,
and BENCHMARK.json names exactly the metrics the benchmark prints.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import dataclasses
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import distort as ds  # noqa: E402
import distort.dynamics  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def small_rounds(tmp_path_factory):
    """One reduced-size round of every workload: (inputs, outcome) by name."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.inputs(7, small=True)
        out[name] = (inp, wl.run(inp, tmp_path_factory.mktemp(name)))
    return out


def _problems(small_rounds, name, **changes):
    inp, outcome = small_rounds[name]
    obs = dict(outcome.obs, **changes)
    return workloads.WORKLOADS[name].check(inp, obs)


# ---------------------------------------------------------------------------
# smoke path

def test_small_rounds_pass_their_checks(small_rounds):
    for name, (inp, outcome) in small_rounds.items():
        assert workloads.WORKLOADS[name].check(inp, outcome.obs) == [], name


def test_small_rounds_count_operations(small_rounds):
    assert small_rounds["phi_curve"][1].attempted == 3
    assert small_rounds["mc_crosscheck"][1].attempted == 9
    inp, outcome = small_rounds["lattice"]
    assert outcome.attempted == 2 + 1 + 1 + len(inp["trees"]) + len(inp["kt_n"])
    # the only operations that fail are KahnemanTversky lattices strict mode rejects
    assert outcome.failed == len(outcome.obs["kt"][2])
    assert small_rounds["phi_curve"][1].failed == small_rounds["mc_crosscheck"][1].failed == 0


def test_inputs_follow_the_seed():
    wl = workloads.WORKLOADS["lattice"]
    a, b, c = wl.inputs(3), wl.inputs(3), wl.inputs(4)
    assert all(np.array_equal(x["payoff"], y["payoff"]) for x, y in zip(a["trees"], b["trees"]))
    assert not all(np.array_equal(x["payoff"], y["payoff"])
                   for x, y in zip(a["trees"], c["trees"]))
    mc = workloads.WORKLOADS["mc_crosscheck"]
    assert mc.inputs(3)["euler_seeds"] == mc.inputs(3)["euler_seeds"]
    assert mc.inputs(3)["euler_seeds"] != mc.inputs(4)["euler_seeds"]


# ---------------------------------------------------------------------------
# each check rejects a wrong answer

def test_phi_curve_from_shifted_alpha_is_rejected(small_rounds):
    inp, _ = small_rounds["phi_curve"]
    p = np.linspace(0.0, 1.0, 501)
    for alpha, ok in ((inp["alpha"], True), (inp["alpha"] + 0.01, False)):
        curve = np.vstack([p, checks.wang_phi(alpha, inp["s"], inp["t"], p)])
        problems = _problems(small_rounds, "phi_curve", cli_curve=curve)
        assert (problems == []) is ok, problems


def test_wrong_drift_is_rejected(small_rounds):
    t, x, mu = small_rounds["phi_curve"][1].obs["cli_mu"]
    problems = _problems(small_rounds, "phi_curve", cli_mu=np.vstack([t, x, mu + 1e-6]))
    assert any("mu.csv" in msg for msg in problems)


def test_pde_curve_off_the_lattice_curve_is_rejected(small_rounds):
    obs = small_rounds["phi_curve"][1].obs
    problems = _problems(small_rounds, "phi_curve", pde_curve=obs["node_curve"] + 0.01)
    assert any("lattice node curve" in msg for msg in problems)


def test_full_size_mc_moved_by_ten_se_is_rejected():
    wl = workloads.WORKLOADS["mc_crosscheck"]
    inp = wl.inputs(0)
    se = 1.3e-3
    pde = [checks.wang_value(0.5, checks.smoothed_step, s, 1.0, x)
           for s, x in workloads.EULER_PROBES]
    bridge_se = 2.4e-4
    ref = [checks.ou_density(t, x) for t, x in workloads.BRIDGE_PROBES]

    def obs(euler_shift, bridge_shift):
        return {
            "euler": [(s, x, u, u + euler_shift * se, se)
                      for (s, x), u in zip(workloads.EULER_PROBES, pde)],
            "bridge": [(t, x, r + (bridge_shift if t == 1.0 and x == 0.0 else 0.0) * bridge_se,
                        bridge_se) for (t, x), r in zip(workloads.BRIDGE_PROBES, ref)],
        }

    assert wl.check(inp, obs(1.0, 1.0)) == []
    assert any("Euler" in msg for msg in wl.check(inp, obs(10.0, 0.0)))
    assert any("Euler" in msg for msg in wl.check(inp, obs(-10.0, 0.0)))
    assert any("bridge" in msg for msg in wl.check(inp, obs(0.0, 10.0)))
    assert any("bridge" in msg for msg in wl.check(inp, obs(0.0, -10.0)))


def test_value_pde_off_the_quadrature_is_rejected(small_rounds):
    inp, outcome = small_rounds["mc_crosscheck"]
    shifted = [(s, x, pde + 2.0 * inp["pde_tol"], mean, se)
               for s, x, pde, mean, se in outcome.obs["euler"]]
    problems = _problems(small_rounds, "mc_crosscheck", euler=shifted)
    assert any("value PDE" in msg for msg in problems)


def test_bridge_density_of_the_wrong_drift_is_rejected(small_rounds):
    driftless = [(t, x, np.exp(-x * x / (2 * t)) / np.sqrt(2 * np.pi * t), se)
                 for t, x, _, se in small_rounds["mc_crosscheck"][1].obs["bridge"]]
    problems = _problems(small_rounds, "mc_crosscheck", bridge=driftless)
    assert any("bridge" in msg for msg in problems)


def test_value_from_perturbed_q_is_rejected(small_rounds):
    inp, _ = small_rounds["lattice"]
    n = inp["power_n"]
    tree = ds.lattice_from_diffusion(ds.DiffusionSpec(ds.constant_drift(0.0), 0.0, 1.0), n)
    dt = ds.distort_tree(tree, ds.Power(2.0))
    bent = dataclasses.replace(dt, q_up=[np.clip(q + 1e-3, 1e-9, 1 - 1e-9) for q in dt.q_up])
    root = float(ds.backward_induction(bent, checks.smoothed_step(tree.states[-1]))[0][0])
    problems = _problems(small_rounds, "lattice", power_root=root)
    assert any("root value vs static value" in msg for msg in problems)
    problems = _problems(small_rounds, "lattice", power_static=root)
    assert any("binomial Choquet sum" in msg for msg in problems)


def test_lattice_convergence_failures_are_rejected(small_rounds):
    n_list, errors, skipped = small_rounds["lattice"][1].obs["wang"]
    flat = [errors[0]] * len(errors)
    assert _problems(small_rounds, "lattice", wang=(n_list, flat, skipped))
    assert checks.convergence("x", [64, 256, 1024], [1e-3, 2.5e-4, 1.2e-4], 0.2, (-1.2, -0.8))
    assert checks.convergence("x", [64, 256], [1e-3, 2.5e-4], 0.02, (-1.2, -0.8))
    assert not checks.convergence("x", [64, 256], [1e-3, 2.5e-4], 0.2, (-1.2, -0.8))


def test_tower_and_measure_flow_gaps_are_rejected(small_rounds):
    obs = small_rounds["lattice"][1].obs
    towers = list(obs["towers"])
    towers[3] = (1e-8, towers[3][1])
    assert any("verify_tower" in msg for msg in _problems(small_rounds, "lattice", towers=towers))
    towers = list(obs["towers"])
    towers[4] = (towers[4][0], towers[4][1] * (1 + 1e-9))
    assert any("static Choquet" in msg
               for msg in _problems(small_rounds, "lattice", towers=towers))
    assert _problems(small_rounds, "lattice", initial_gap=1e-8)


def test_unaccounted_lattices_are_rejected(small_rounds):
    n_list, errors, skipped, ref = small_rounds["lattice"][1].obs["kt"]
    assert _problems(small_rounds, "lattice", kt=(n_list, errors, [], ref))


# ---------------------------------------------------------------------------
# tracing

def test_tracer_counts_spans_and_restores():
    original = distort.dynamics.march
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert distort.dynamics.march is not original
        assert inspect.signature(ds.build_phi_curve).parameters["n_steps"].default == 800
        x = np.linspace(-1.0, 1.0, 21)
        distort.dynamics.march(np.zeros((3, 21)), x, np.linspace(0.0, 1.0, 11), 0.5,
                               bc="neumann", rannacher=2)
        ds.distort_tree(ds.lattice_from_diffusion(
            ds.DiffusionSpec(ds.constant_drift(0.0), 0.0, 1.0), 8), ds.Wang(0.5))
        values = tracer.metrics()
    finally:
        tracer.uninstall()
    assert distort.dynamics.march is original
    assert values["cn.march.calls"] == 1
    assert values["cn.march.node_steps"] == 21 * 3 * (10 + 2)
    assert values["tree.distort_tree.nodes"] == 45
    assert values["distortion.eval.points"] == 44
    assert values["dynamics.lattice_from_diffusion.self_s"] > 0.0
    selfs = tracer.self_times()
    total = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    assert sum(selfs.values()) == pytest.approx(total)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
