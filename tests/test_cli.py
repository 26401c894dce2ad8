"""End-to-end command-line runs in subprocesses: reports, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from distort.config import validate_params

from conftest import read_csv


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "distort", *args],
        capture_output=True, text=True, env=env,
    )


def test_example3_3_report_values(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tree", "--preset", "example3_3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    res = rep["results"]
    assert abs(res["naive_value"] - 0.5) <= 1e-12
    assert abs(res["static_value"] - 0.625) <= 1e-12
    assert abs(res["tower_value"] - 0.625) <= 1e-12
    assert res["tower_gap"] <= 1e-12
    assert res["qflow_gap"] <= 1e-12
    assert abs(res["q_root_up"] - 0.25) <= 1e-12
    # artifacts exist and parse
    for name in ("survival.csv", "transitions.csv", "phi_root.csv"):
        header, cols = read_csv(out / name)
        assert cols[0].size > 0
    # the config echo re-validates as emitted
    validate_params("tree", rep["config"])


def test_survival_csv_rows_are_the_survival_probabilities(tmp_path):
    from distort.cli import _tree_from_config
    from distort.presets import get_preset
    from distort.tree import survival_probabilities

    out = tmp_path / "run"
    assert run_cli("tree", "--preset", "example3_3", "--out", str(out)).returncode == 0
    header, cols = read_csv(out / "survival.csv")
    assert header == ["level", "k", "state", "G"]
    tree = _tree_from_config(get_preset("tree", "example3_3")["tree"])
    rows = [(i, j, tree.states[i][j], g)
            for i, level in enumerate(survival_probabilities(tree)) for j, g in enumerate(level)]
    assert list(zip(*(c.tolist() for c in cols))) == rows


def test_identity_tree_preset_naive_gap_zero(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tree", "--preset", "identity", "--out", str(out))
    assert r.returncode == 0, r.stderr
    res = json.loads((out / "report.json").read_text())["results"]
    assert res["naive_gap"] == 0.0


def test_crossing_preset_verdict(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tree", "--preset", "crossing", "--out", str(out))
    assert r.returncode == 0, r.stderr
    res = json.loads((out / "report.json").read_text())["results"]
    assert abs(res["crossing_residual"] - (-0.125)) <= 1e-12
    assert res["consistent_curve_exists"] is False


def test_wang_dynamics_preset_mu_table(tmp_path):
    out = tmp_path / "run"
    r = run_cli("dynamics", "--preset", "wang", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["wang_mu_closed_gap"] <= 1e-6
    header, cols = read_csv(out / "mu.csv")
    t, x, mu = cols
    assert np.max(np.abs(mu - 0.5 / (2.0 * np.sqrt(t)))) <= 1e-6
    validate_params("dynamics", rep["config"])


def test_identity_dynamics_preset_phi_is_diagonal(tmp_path):
    out = tmp_path / "run"
    r = run_cli("dynamics", "--preset", "identity", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["results"]["phi"]["identity_dynamics"] is True
    header, cols = read_csv(out / "phi_curve.csv")
    p, phi = cols
    assert np.max(np.abs(phi - p)) <= 1e-10


def test_tree_reports_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("tree", "--preset", "example3_3", "--out", str(out_a)).returncode == 0
    assert run_cli("tree", "--preset", "example3_3", "--out", str(out_b)).returncode == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "phi_root.csv").read_bytes() == (out_b / "phi_root.csv").read_bytes()


def test_density_bridge_constant_drift_is_exact(tmp_path):
    # the bridge weight for a constant drift depends only on the endpoint,
    # so the estimate has zero variance and no seed sensitivity at all
    cfg = {
        "schema_version": 1,
        "model": {"b": 0.5, "x0": 0.0, "T": 1.0},
        "grids": {"nt": 21, "nx": 101},
        "bridge": {"t": [0.5], "x": [0.2], "paths": 2000, "steps": 20},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name, seed in (("a", "7"), ("b", "8")):
        out = tmp_path / name
        r = run_cli("density", "--config", str(path), "--seed", seed,
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append((out / "bridge.csv").read_bytes())
    assert outs[0] == outs[1]
    header, cols = read_csv(tmp_path / "a" / "bridge.csv")
    assert cols[header.index("std_error")][0] == 0.0


def test_dynamics_seed_controls_mc(tmp_path):
    cfg = {
        "schema_version": 1,
        "distortion": {"family": "wang", "alpha": 0.5},
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
        "mu_grid": {"t_min": 0.2, "t_max": 1.0, "nt": 9, "x_half": 6.0, "nx": 241},
        "value": {"s_min": 0.25},
        "mc": {"paths": 2000, "steps": 20, "probes": [[0.5, 0.0]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        out = tmp_path / name
        r = run_cli("dynamics", "--config", str(path), "--seed", seed,
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        outs.append((out / "mc_vs_pde.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_dynamics_mc_with_one_path_exits_2(tmp_path):
    # one path gives one batch and no standard error; the check must say so
    # instead of failing later on a non-finite report value
    cfg = {
        "schema_version": 1,
        "distortion": {"family": "wang", "alpha": 0.5},
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
        "mu_grid": {"t_min": 0.2, "t_max": 1.0, "nt": 9, "x_half": 6.0, "nx": 241},
        "value": {"s_min": 0.25},
        "mc": {"paths": 1, "steps": 20, "probes": [[0.5, 0.0]]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("dynamics", "--config", str(path), "--out", str(out))
    assert r.returncode == 2
    assert "paths" in r.stderr
    assert "non-finite" not in r.stderr
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("distortion, n_list, skipped", [
    ({"family": "wang", "alpha": 0.5}, [64], []),
    ({"family": "kahneman_tversky", "gamma": 0.6}, [16, 64], [64]),
], ids=["one-lattice", "one-kept"])
def test_dynamics_convergence_below_two_lattices_has_no_slope(tmp_path, distortion,
                                                              n_list, skipped):
    # one kept lattice fits no slope: the report says null instead of
    # failing on a non-finite value (KahnemanTversky skips N = 64, strict)
    cfg = {
        "schema_version": 1,
        "distortion": distortion,
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
        "mu_grid": {"t_min": 0.2, "t_max": 1.0, "nt": 9, "x_half": 6.0, "nx": 241},
        "convergence": {"N_list": n_list, "eval_t": 0.5, "eval_x": 0.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("dynamics", "--config", str(path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    conv = json.loads((out / "report.json").read_text())["results"]["convergence"]
    assert conv["slope"] is None
    assert conv["skipped"] == skipped
    header, cols = read_csv(out / "convergence.csv")
    assert cols[0].tolist() == [float(n_list[0])]


def _dynamics_config(distortion, b=0.3):
    """phi, value, Monte Carlo and convergence blocks at seed 5."""
    return {
        "schema_version": 1,
        "seed": 5,
        "distortion": distortion,
        "model": {"b": b, "x0": 0.0, "T": 1.0},
        "phi": {"s": 0.25, "t": 1.0, "x": 0.0},
        "value": {},
        "mc": {"paths": 4000, "steps": 50},
        "convergence": {"N_list": [16, 32, 48], "eval_t": 0.5, "eval_x": 0.0},
    }


def _dynamics_diagnostics(tmp_path, source):
    """The report diagnostics of a dynamics preset name or config dict."""
    out = tmp_path / "o"
    if isinstance(source, str):
        r = run_cli("dynamics", "--preset", source, "--out", str(out))
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(source))
        r = run_cli("dynamics", "--config", str(path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    return json.loads((out / "report.json").read_text())["diagnostics"]


@pytest.mark.parametrize("source, clamps, extrapolations", [
    ("wang", 115_978, 0),
    ("identity", 115_978, 0),
    ("convergence", 410, 489_600),
    (_dynamics_config({"family": "wang", "alpha": 0.5}), 121_438, 809_600),
    (_dynamics_config({"family": "power", "gamma": 1.5}), 121_438, 809_600),
], ids=["wang", "identity", "convergence", "wang-all-blocks", "power-1.5"])
def test_dynamics_diagnostics_pin_the_clamp_and_extrapolation_counts(
        tmp_path, source, clamps, extrapolations):
    # derivative_clamps sums the clamped survival cells of every drift the
    # command computed (its own, the phi block's, the convergence block's);
    # mu_extrapolations sums the node-steps of every march outside its
    # drift grid and the Euler path-steps outside it: the value march's
    # 800 nodes x 400 steps, the convergence reference's 612 nodes x 800
    # steps past its trimmed field, and none for the phi march, whose
    # field spans it
    diag = _dynamics_diagnostics(tmp_path, source)
    assert (diag["derivative_clamps"], diag["mu_extrapolations"]) == (clamps, extrapolations)


@pytest.mark.parametrize("command, block, named", [
    ("dynamics", {"distortion": {"family": "wang", "alpha": 0.5},
                  "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
                  "convergence": {"N_list": [16], "eval_t": 2.0, "eval_x": 0.0}},
     "eval_t=2.0 must lie in (0, T)"),
    ("density", {"model": {"b": 0.0, "x0": 0.0, "T": 1e-5}}, "T=1e-05 must exceed"),
    ("density", {"model": {"b": 0.0, "x0": 0.0, "T": 1.0}, "grids": {"nt": 1}},
     "nt=1 gives no time step"),
], ids=["eval_t-past-T", "density-T-below-first-time", "density-one-time"])
def test_unusable_times_exit_2_naming_the_input(tmp_path, command, block, named):
    # each once failed further down: a ValueError traceback from an empty
    # field (exit 1), or "t_grid must be increasing" for a grid the user
    # never gave
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, **block}))
    out = tmp_path / "o"
    r = run_cli(command, "--config", str(path), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert named in r.stderr
    assert "Traceback" not in r.stderr and "must be increasing" not in r.stderr
    assert not (out / "report.json").exists()


def test_density_bridge_with_one_path_exits_2(tmp_path):
    # one path gives one batch and no standard error: rejected before any
    # estimate is made, instead of writing nan into bridge.csv
    cfg = {
        "schema_version": 1,
        "model": {"b": 0.5, "x0": 0.0, "T": 1.0},
        "grids": {"nt": 21, "nx": 101},
        "bridge": {"t": [0.5], "x": [0.2], "paths": 1, "steps": 20},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    r = run_cli("density", "--config", str(path), "--out", str(out))
    assert r.returncode == 2
    assert "paths" in r.stderr
    assert not (out / "report.json").exists()
    assert not (out / "bridge.csv").exists()


def test_unknown_key_in_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "distortion": {"family": "identity"},
        "tree": {"N": 2, "T": 1.0},
        "unexpected": True,
    }))
    r = run_cli("tree", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "unexpected" in r.stderr


@pytest.mark.parametrize("command, distortion, named", [
    ("dynamics", {"family": "separable", "time_weight": {"kind": "constant"},
                  "base": {"family": "power", "gamma": 1.5}},
     "unknown distortion family 'separable'"),
    ("tree", {"family": "separable", "time_weight": {"kind": "exp", "rate": -0.5},
              "base": {"family": "power", "gamma": 2.0}},
     "unknown distortion family 'separable'"),
    ("dynamics", {"family": "wang", "alpha": 0.5, "k": -1}, "Wang: k must be nonnegative"),
    ("tree", {"family": "wang", "alpha": 0.5, "beta": 1}, "family 'wang': unknown keys ['beta']"),
], ids=["separable-dynamics", "separable-tree", "wang-negative-k", "wang-unknown-key"])
def test_bad_distortion_block_exits_2_naming_the_family(tmp_path, command, distortion, named):
    block = ({"model": {"b": 0.0, "x0": 0.0, "T": 1.0}} if command == "dynamics"
             else {"tree": {"N": 2, "T": 1.0}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1, "distortion": distortion, **block}))
    out = tmp_path / "o"
    r = run_cli(command, "--config", str(path), "--out", str(out))
    assert r.returncode == 2, r.stderr
    assert f"{command} config invalid at distortion: " in r.stderr
    assert named in r.stderr
    assert not (out / "report.json").exists()


def test_time_shifted_wang_reports_the_gap_to_its_own_drift(tmp_path):
    """wang_mu_closed_gap reads the closed form of the configured (alpha, k):
    m'(t) = 0.5 * 1.5 * sqrt(t) for k = 1, not the static 0.25 / sqrt(t)."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1, "distortion": {"family": "wang", "alpha": 0.5, "k": 1},
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
    }))
    out = tmp_path / "o"
    r = run_cli("dynamics", "--config", str(path), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads((out / "report.json").read_text())["results"]["wang_mu_closed_gap"] <= 1e-12
    header, (t, x, mu) = read_csv(out / "mu.csv")
    assert np.max(np.abs(mu - 0.75 * np.sqrt(t))) <= 1e-12


def test_malformed_json_exits_2_with_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    r = run_cli("tree", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "line 2" in r.stderr


@pytest.mark.parametrize("text, message", [
    (None, "cannot read tree file {path}"),
    ('{"times": [0, 1],\n  "states": [[0], [-1, 1]\n}',
     "tree file {path} is not valid JSON at line 3 column 1"),
    ("[1, 2]", "tree file {path} must hold a JSON object, not a list"),
], ids=["missing", "malformed", "list"])
def test_bad_tree_file_exits_2_naming_it(tmp_path, text, message):
    tree_path = tmp_path / "tree.json"
    if text is not None:
        tree_path.write_text(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "distortion": {"family": "power", "gamma": 2.0},
        "tree": {"file": str(tree_path)},
    }))
    r = run_cli("tree", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert message.format(path=tree_path) in r.stderr
    assert "Traceback" not in r.stderr and "unknown keys" not in r.stderr


def test_tree_payload_with_a_nan_exits_2_naming_it(tmp_path):
    """A NaN terminal value used to reach the report and exit 2 from
    canonical_json; it is named where the payload is first read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"schema_version": 1, "distortion": {"family": "power", "gamma": 2.0},\n'
        ' "tree": {"N": 2, "T": 2.0, "p": 0.5, "x0": 0.0, "step": 1.0},\n'
        ' "payload": [0.0, NaN, 2.0], "compare_naive": true}'
    )
    out = tmp_path / "o"
    r = run_cli("tree", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 2
    assert "backward_induction: terminal value nan at state 1 is not finite" in r.stderr
    assert "canonical_json" not in r.stderr and "Traceback" not in r.stderr
    assert not (out / "report.json").exists()


def test_tree_with_an_infinite_step_exits_2_naming_it(tmp_path):
    """An infinite step used to print numpy RuntimeWarnings and then name
    the states at level 2; it is named before the grid is formed."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"schema_version": 1, "distortion": {"family": "power", "gamma": 2.0},\n'
        ' "tree": {"N": 4, "T": 1.0, "p": 0.5, "x0": 0.0, "step": Infinity}}'
    )
    r = run_cli("tree", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "TreeModel.on_grid: step=inf must be finite" in r.stderr
    assert "Warning" not in r.stderr and "Traceback" not in r.stderr


def test_missing_config_and_preset_exits_2(tmp_path):
    r = run_cli("dynamics", "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "--preset" in r.stderr


def test_singular_drift_field_exits_3(tmp_path):
    cfg = {
        "schema_version": 1,
        "distortion": {"family": "wang", "alpha": 0.5},
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
        "mu_grid": {"t_min": 0.005, "t_max": 1.0, "nt": 2, "x_half": 45.0, "nx": 91},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("dynamics", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert "singular" in r.stderr


def test_value_grid_failure_names_the_fixed_grid(tmp_path):
    """The value PDE runs on a grid the config cannot set, so its boundary
    failure names that grid instead of only asking for a wider one."""
    cfg = {
        "schema_version": 1,
        "distortion": {"family": "power", "gamma": 2.0},
        "model": {"b": 0.0, "x0": 0.0, "T": 1.0},
        "value": {},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("dynamics", "--config", str(path), "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert ("grid, which is fixed at x0 +- 8 sqrt(T) = [-8, 8] with 1601 nodes "
            "and has no config key") in r.stderr
    assert "boundary gradient 8.82e-04" in r.stderr


def test_strict_mon2_flag_exits_4(tmp_path):
    cfg = {
        "schema_version": 1,
        "distortion": {"family": "wang", "alpha": 3.0, "k": 1},
        "tree": {"N": 8, "T": 1.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    r = run_cli("tree", "--config", str(path), "--strict-mon2",
                "--out", str(tmp_path / "o"))
    assert r.returncode == 4
    assert "interleaving" in r.stderr
    # permissive mode completes and reports the violations instead
    r2 = run_cli("tree", "--config", str(path), "--out", str(tmp_path / "o2"))
    assert r2.returncode == 0, r2.stderr
    rep = json.loads((tmp_path / "o2" / "report.json").read_text())
    assert rep["diagnostics"]["mon2_violations"] > 0


def test_selftest_filter_tree_runs_only_tree_criteria(tmp_path):
    r = run_cli("selftest", "--filter", "tree", "--out", str(tmp_path / "o"))
    assert r.returncode == 0, r.stdout + r.stderr
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 4
    assert all("tree-" in ln for ln in lines)
    verdicts = json.loads((tmp_path / "o" / "selftest.json").read_text())
    assert [v["number"] for v in verdicts] == [1, 2, 3, 4]
    assert all(v["passed"] for v in verdicts)


def test_selftest_unknown_filter_exits_2():
    r = run_cli("selftest", "--filter", "zzz")
    assert r.returncode == 2


def test_meta_sidecar_has_wall_clock(tmp_path):
    out = tmp_path / "run"
    assert run_cli("tree", "--preset", "example3_3", "--out", str(out)).returncode == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["wall_clock_s"] > 0.0
    assert "wall_clock" not in (out / "report.json").read_text()


def test_log_env_var_enables_info(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tree", "--preset", "example3_3", "--out", str(out),
                env_extra={"DISTORT_LOG": "INFO"})
    assert r.returncode == 0
    assert "INFO" in r.stderr


@pytest.mark.parametrize("argv", [
    ["tree", "--preset", "example3_3", "--threads", "2"],
    ["selftest", "--seed", "3"],
    ["selftest", "--threads", "2"],
    ["selftest", "--strict-mon2"],
    ["dynamics", "--preset", "wang", "--strict-mon2"],
    ["density", "--preset", "wang", "--strict-mon2"],
])
def test_flags_that_did_nothing_are_gone(argv):
    from distort.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_meta_sidecar_keys(tmp_path):
    out = tmp_path / "run"
    assert run_cli("tree", "--preset", "example3_3", "--out", str(out)).returncode == 0
    meta = json.loads((out / "meta.json").read_text())
    assert sorted(meta) == ["source", "version", "wall_clock_s"]
