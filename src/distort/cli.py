"""Command-line front end: validated configs in, deterministic reports out.

Each run writes one directory: report.json (canonical, byte-identical for
identical config and seed), CSV tables next to it, and meta.json with the
wall clock and invocation details kept out of the canonical report.
"""

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .density import (
    DiffusionSpec,
    bridge_density_mc,
    constant_drift,
    default_grids,
    density_cross_check,
    field_to_binary,
    field_to_csv,
    gaussian_field,
    solve_survival_pde,
)
from .distortion import Wang, distortion_from_dict
from .dynamics import (
    build_phi_curve,
    compute_mu,
    convergence_study,
    pde_mc_check,
    smoothed_step_payload,
    solve_distorted_pde,
    wang_mu_closed,
)
from .errors import AccuracyError, ConfigError, DistortError, DomainError
from .presets import get_preset, preset_names
from .report import canonical_json, write_csv
from .tree import (
    TreeModel,
    _constant_level,
    backward_induction,
    crossing_tree_residual,
    distort_tree,
    load_tree,
    naive_nested_expectation,
    phi_at_node,
    static_distorted_value,
    survival_probabilities,
    verify_initial_consistency,
    verify_tower,
)

log = logging.getLogger("distort")


def _tree_from_config(block):
    if "file" in block:
        return load_tree(block["file"])
    N = int(block["N"])
    T = float(block["T"])
    p = float(block.get("p", 0.5))
    x0 = float(block.get("x0", 0.0))
    step = float(block.get("step", 1.0))
    times = np.linspace(0.0, T, N + 1)
    up_prob = [_constant_level(p, i + 1) for i in range(N)]
    return TreeModel.on_grid(times, x0, step, up_prob)


def cmd_tree(cfg, out_dir):
    params = cfg.params
    d = distortion_from_dict(params["distortion"])
    tree = _tree_from_config(params["tree"])
    dt = distort_tree(tree, d, strict=cfg.strict_mon2)
    n = tree.n_periods

    # level i holds i + 1 nodes from offset i (i + 1) / 2; levels 0..n-1
    # (the transitions) are the first n (n + 1) / 2 nodes
    lev = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    idx = np.arange(lev.size) - lev * (lev + 1) // 2
    xs = np.concatenate(tree.states)
    write_csv(os.path.join(out_dir, "survival.csv"), ["level", "k", "state", "G"],
              [lev, idx, xs, np.concatenate(survival_probabilities(tree))])
    m = n * (n + 1) // 2
    write_csv(os.path.join(out_dir, "transitions.csv"),
              ["level", "j", "state", "p_up", "q_up"],
              [lev[:m], idx[:m], xs[:m], np.concatenate(tree.up_prob),
               np.concatenate(dt.q_up)])

    root = phi_at_node(dt, 0, 0, n)
    write_csv(os.path.join(out_dir, "phi_root.csv"),
              ["p", "phi"], [root.p_grid, root.values])

    results = {
        "n_periods": n,
        "q_root_up": float(dt.q_up[0][0]),
        "qflow_gap": verify_initial_consistency(dt),
    }
    if "payload" in params:
        g = np.asarray(params["payload"], dtype=float)
        if g.shape != (n + 1,):
            raise ConfigError(
                f"payload must hold {n + 1} terminal values, got {g.size}"
            )
        tower = float(backward_induction(dt, g)[0][0])
        results["tower_value"] = tower
        results["static_value"] = static_distorted_value(tree, d, g)
        results["static_gap"] = abs(tower - results["static_value"])
        if n >= 2:
            results["tower_gap"] = verify_tower(dt, g)
        if params.get("compare_naive", False):
            naive = naive_nested_expectation(tree, d, g)
            results["naive_value"] = naive
            results["naive_gap"] = abs(naive - tower)
    if params.get("crossing_check", False):
        p1 = float(tree.up_prob[0][0])
        p2 = float(tree.up_prob[1][0]) if n >= 2 else p1
        res = crossing_tree_residual(p1, p2, d, d)
        results["crossing_residual"] = res
        results["consistent_curve_exists"] = bool(abs(res) <= 1e-12)

    diagnostics = {
        "mon2_violations": len(dt.violations),
        "degenerate_edges": dt.degenerate_edges,
        "derivative_clamps": 0,
    }
    return results, diagnostics


def cmd_dynamics(cfg, out_dir):
    params = cfg.params
    d = distortion_from_dict(params["distortion"])
    model = params["model"]
    b = float(model["b"])
    x0 = float(model.get("x0", 0.0))
    T = float(model["T"])
    spec = DiffusionSpec(drift=constant_drift(b), x0=x0, T=T)

    mg = dict(params.get("mu_grid", {}))
    t_min = float(mg.get("t_min", 0.1 * T))
    t_max = float(mg.get("t_max", T))
    nt = int(mg.get("nt", 46))
    x_half = float(mg.get("x_half", 4.0 * np.sqrt(T)))
    nx = int(mg.get("nx", 161))
    t_grid = np.linspace(t_min, t_max, nt)
    x_grid = np.linspace(x0 - x_half, x0 + x_half, nx)
    field = gaussian_field(x0, t_grid, x_grid, drift=b)
    mu = compute_mu(d, field, spec.drift)
    clamps, extrapolations = mu.clamps, 0
    tt, xx = np.meshgrid(t_grid, x_grid, indexing="ij")
    write_csv(os.path.join(out_dir, "mu.csv"), ["t", "x", "mu"],
              [tt.ravel(), xx.ravel(), mu.mu.ravel()])
    log.info("mu grid %dx%d written", nt, nx)

    results = {"mu_growth_constant": mu.growth_constant()}
    if isinstance(d, Wang) and b == 0.0:
        exact = wang_mu_closed(d.alpha, d.k)(t_grid[:, None], x_grid)
        results["wang_mu_closed_gap"] = float(np.max(np.abs(mu.mu - exact)))

    if "phi" in params:
        ph = params["phi"]
        p_grid = None
        if "n_points" in ph:
            p_grid = np.linspace(0.002, 0.998, int(ph["n_points"]))
        curve = build_phi_curve(
            d, spec, float(ph["s"]), float(ph["t"]), float(ph.get("x", x0)),
            p_grid=p_grid, drift_const=b,
        )
        write_csv(os.path.join(out_dir, "phi_curve.csv"), ["p", "phi"],
                  [curve.p_grid, curve.values])
        clamps += curve.meta["derivative_clamps"]
        extrapolations += curve.meta["mu_extrapolations"]
        results["phi"] = {
            "s": curve.s,
            "t": curve.t,
            "x": curve.x,
            "mu_source": curve.meta["mu_source"],
            "identity_dynamics": bool(curve.meta.get("identity_dynamics", False)),
        }
        log.info("phi curve at (s=%g, t=%g) written", curve.s, curve.t)

    value_requested = "value" in params or "mc" in params
    sol = None
    if value_requested:
        vb = dict(params.get("value", {}))
        s_min = float(vb.get("s_min", t_min))
        g = smoothed_step_payload(
            float(vb.get("payload_center", 0.2)), float(vb.get("payload_width", 0.25))
        )
        wide = np.linspace(x0 - 8.0 * np.sqrt(T), x0 + 8.0 * np.sqrt(T), 1601)
        try:
            sol = solve_distorted_pde(mu, g, s_min, T, wide, n_steps=400)
        except AccuracyError as exc:
            raise AccuracyError(
                f"distort dynamics: the value PDE reaches the edge of its grid, which "
                f"is fixed at x0 +- 8 sqrt(T) = [{wide[0]:g}, {wide[-1]:g}] with "
                f"{wide.size} nodes and has no config key ({exc})"
            ) from exc
        extrapolations += sol.extrapolations
        picks = np.unique(np.linspace(0, sol.s_grid.size - 1, 5).round().astype(int))
        ss, xs, us = [], [], []
        for i in picks:
            ss.append(np.full(wide.size, sol.s_grid[i]))
            xs.append(wide)
            us.append(sol.u[i])
        write_csv(os.path.join(out_dir, "value_slices.csv"), ["s", "x", "u"],
                  [np.concatenate(ss), np.concatenate(xs), np.concatenate(us)])
        results["value"] = {
            "s_min": s_min,
            "u_at_s_min_x0": sol.u_at(s_min, x0),
            "max_principle_defect": sol.max_principle_defect,
        }

    if "mc" in params:
        mc = dict(params["mc"])
        paths = int(mc.get("paths", 100_000))
        steps = int(mc.get("steps", 100))
        probes = mc.get("probes", [[0.25 * T + sol.s_grid[0], x0]])
        cols, worst, n_out = pde_mc_check(mu, sol, g, probes, T, paths, steps, cfg.seed)
        extrapolations += n_out
        write_csv(os.path.join(out_dir, "mc_vs_pde.csv"),
                  list(cols), [cols[k] for k in cols])
        results["mc"] = {"paths": paths, "worst_excess_over_3se": worst}

    if "convergence" in params:
        cv = params["convergence"]
        g = smoothed_step_payload()
        rep = convergence_study(
            spec, d, g, [int(N) for N in cv["N_list"]],
            float(cv["eval_t"]), float(cv["eval_x"]),
        )
        clamps += rep.derivative_clamps
        extrapolations += rep.extrapolations
        write_csv(os.path.join(out_dir, "convergence.csv"), ["N", "error"],
                  [np.asarray(rep.N_list, dtype=float), rep.errors])
        results["convergence"] = {
            # no fit below two lattices (the study's slope is NaN there)
            "slope": rep.slope if len(rep.N_list) >= 2 else None,
            "skipped": rep.skipped,
            "reference": rep.reference,
            "monotone": bool(
                all(a > b2 for a, b2 in zip(rep.errors, rep.errors[1:]))
            ),
        }

    diagnostics = {"mu_extrapolations": extrapolations, "derivative_clamps": clamps}
    if sol is not None:
        diagnostics["value_projection"] = sol.projection
    return results, diagnostics


def cmd_density(cfg, out_dir):
    params = cfg.params
    model = params["model"]
    b = float(model["b"])
    x0 = float(model.get("x0", 0.0))
    T = float(model["T"])
    spec = DiffusionSpec(drift=constant_drift(b), x0=x0, T=T)
    if "bridge" in params and int(params["bridge"].get("paths", 100_000)) < 2:
        raise DomainError(
            f"density: bridge paths={params['bridge']['paths']} gives no standard error; "
            "need paths >= 2"
        )

    gr = dict(params.get("grids", {}))
    nt = int(gr.get("nt", 101))
    nx = int(gr.get("nx", 401))
    width = float(gr.get("width", 8.0))
    t_grid, x_grid = default_grids(spec, nt=nt, nx=nx, width=width)
    field = solve_survival_pde(spec, t_grid, x_grid)
    fmt = params.get("format", "csv")
    if fmt == "binary":
        field_to_binary(field, os.path.join(out_dir, "field.bin"))
    else:
        field_to_csv(field, os.path.join(out_dir, "field.csv"))
    results = {"grid": {"nt": nt, "nx": nx, "width": width}, "format": fmt}
    diagnostics = {"field_projection": field.projection, "derivative_clamps": 0}

    if "bridge" in params:
        br = params["bridge"]
        paths = int(br.get("paths", 100_000))
        steps = int(br.get("steps", 100))
        cols = {k: [] for k in ("t", "x", "value", "std_error")}
        for t in br["t"]:
            for x in br["x"]:
                est = bridge_density_mc(spec, float(t), float(x), paths=paths,
                                        steps=steps, seed=cfg.seed)
                cols["t"].append(float(t))
                cols["x"].append(float(x))
                cols["value"].append(est.value)
                cols["std_error"].append(est.std_error)
        write_csv(os.path.join(out_dir, "bridge.csv"),
                  list(cols), [cols[k] for k in cols])
        results["bridge"] = {"paths": paths}

    if params.get("compare", False):
        cols, worst = density_cross_check(b, x0, T, field, cfg.seed)
        write_csv(os.path.join(out_dir, "compare.csv"),
                  list(cols), [cols[k] for k in cols])
        results["compare"] = {"worst_pairwise_excess": worst}
    return results, diagnostics


COMMANDS = {"tree": cmd_tree, "dynamics": cmd_dynamics, "density": cmd_density}


def _resolve_config(args):
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.command, args.config)
    elif args.preset:
        params = get_preset(args.command, args.preset)
        cfg = RunConfig(command=args.command, params=params,
                        seed=int(params.get("seed", 0)),
                        source=f"preset:{args.preset}")
    else:
        avail = ", ".join(preset_names(args.command)) or "none"
        raise ConfigError(
            f"{args.command} needs --config FILE or --preset NAME (presets: {avail})"
        )
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.strict_mon2 = bool(getattr(args, "strict_mon2", False))
    cfg.out = args.out or os.path.join("distort-out", args.command)
    return cfg


def _run_command(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    t0 = time.perf_counter()
    results, diagnostics = COMMANDS[cfg.command](cfg, cfg.out)
    wall = time.perf_counter() - t0
    report = {
        "schema_version": cfg.params["schema_version"],
        "command": cfg.command,
        "config": cfg.echo(),
        "seed": cfg.seed,
        "results": results,
        "diagnostics": diagnostics,
    }
    report_path = os.path.join(cfg.out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
        fh.write("\n")
    meta = {
        "wall_clock_s": wall,
        "version": __version__,
        "source": cfg.source,
    }
    with open(os.path.join(cfg.out, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log.info("%s finished in %.2fs, report at %s", cfg.command, wall, report_path)
    print(f"{cfg.command}: report written to {report_path}")
    return 0


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON config file")
    sub.add_argument("--preset", help="name of a built-in configuration")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed override")
    sub.add_argument("--out", help="output directory (default distort-out/<command>)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distort",
        description="Nonlinear expectations under distorted probabilities: "
        "trees, drifts, densities, and the dynamic distortion curve.",
    )
    parser.add_argument("--version", action="version", version=f"distort {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("tree", "dynamics", "density"):
        _add_common(subs.add_parser(name, help=f"run the {name} engine"))
    # dynamics builds its lattices strict and density builds none
    subs.choices["tree"].add_argument(
        "--strict-mon2", action="store_true",
        help="fail instead of clamping on interleaving violations")
    st = subs.add_parser("selftest", help="run the acceptance suite")
    st.add_argument("--filter", help="run only criteria whose name contains this")
    st.add_argument("--out", help="also write the verdicts as JSON here")
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("DISTORT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest

            results, code = run_selftest(filter_substr=args.filter)
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                payload = [
                    {"number": r.number, "name": r.name, "passed": r.passed,
                     "detail": r.detail}
                    for r in results
                ]
                with open(os.path.join(args.out, "selftest.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1)
                    fh.write("\n")
            return code
        cfg = _resolve_config(args)
        return _run_command(cfg)
    except DistortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
