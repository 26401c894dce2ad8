"""Spans around the public layers of distort, recorded by the benchmark.

``Tracer.install`` replaces each traced function with a wrapper in every
``distort`` module namespace that holds it, so calls the library makes to
itself (``convergence_study`` -> ``distort_tree``, ``build_phi_curve`` ->
``march``) are seen too.  ``Distortion.eval`` and ``.derivatives`` are wrapped
on the base class.  A span records its name, start, end and parent; spans
stay in memory until the run writes them out.  Counts are computed from the
call's arguments and result at the same boundary.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

from distort.errors import ConsistencyError


def _march_counts(args, result, exc):
    u0 = args["u0"]
    shape = getattr(u0, "shape", ())
    payloads = shape[0] if len(shape) == 2 else 1
    intervals = len(args["times"]) - 1
    steps = intervals + min(int(args["rannacher"]), intervals)  # two half steps each
    return {"node_steps": shape[-1] * payloads * steps}


def _cells(args, result, exc):
    f = args["field"]
    return {"cells": f.t_grid.size * f.x_grid.size}


def _path_steps(args, result, exc):
    return {"path_steps": int(args["paths"]) * int(args["steps"])}


def _q_dynamics_counts(args, result, exc):
    out = _path_steps(args, result, exc)
    out["extrapolations"] = result.extrapolations if result is not None else 0
    return out


def _study_counts(args, result, exc):
    return {"lattices": len(args["N_list"]),
            "skipped": len(result.skipped) if result is not None else 0}


def _tree_counts(args, result, exc):
    out = {"nodes": sum(len(level) for level in args["tree"].states),
           "degenerate_edges": 0, "mon2_violations": 0}
    if result is not None:
        out["degenerate_edges"] = result.degenerate_edges
        out["mon2_violations"] = len(result.violations)
    elif isinstance(exc, ConsistencyError):
        out["mon2_violations"] = 1  # strict mode stops at the first violation
    return out


def _points(args, result, exc):
    return {"points": int(getattr(args["p"], "size", 1))}


# (layer, module, attribute, counter, count keys): the layer name is the
# module path inside the package plus the function, with _cn spelled cn
# because metric names start with a letter; "Distortion.eval" is a method
# wrapped on the base class
LAYERS = [
    ("cn.march", "distort._cn", "march", _march_counts, ["node_steps"]),
    ("dynamics.build_phi_curve", "distort.dynamics", "build_phi_curve", None, []),
    ("dynamics.compute_mu", "distort.dynamics", "compute_mu", _cells, ["cells"]),
    ("dynamics.solve_distorted_pde", "distort.dynamics", "solve_distorted_pde", None, []),
    ("dynamics.simulate_q_dynamics", "distort.dynamics", "simulate_q_dynamics",
     _q_dynamics_counts, ["path_steps", "extrapolations"]),
    ("dynamics.lattice_from_diffusion", "distort.dynamics", "lattice_from_diffusion",
     None, []),
    ("dynamics.convergence_study", "distort.dynamics", "convergence_study",
     _study_counts, ["lattices", "skipped"]),
    ("density.bridge_density_mc", "distort.density", "bridge_density_mc",
     _path_steps, ["path_steps"]),
    ("density.solve_survival_pde", "distort.density", "solve_survival_pde", None, []),
    ("density.gaussian_field", "distort.density", "gaussian_field", None, []),
    ("tree.distort_tree", "distort.tree", "distort_tree", _tree_counts,
     ["nodes", "degenerate_edges", "mon2_violations"]),
    ("tree.backward_induction", "distort.tree", "backward_induction", None, []),
    ("tree.static_distorted_value", "distort.tree", "static_distorted_value", None, []),
    ("tree.verify_initial_consistency", "distort.tree", "verify_initial_consistency",
     None, []),
    ("tree.verify_tower", "distort.tree", "verify_tower", None, []),
    ("tree.phi_at_node", "distort.tree", "phi_at_node", None, []),
    ("distortion.eval", "distort.distortion", "Distortion.eval", _points, ["points"]),
    ("distortion.derivatives", "distort.distortion", "Distortion.derivatives", _points,
     ["points"]),
    ("cli.main", "distort.cli", "main", None, []),
    ("report.write_csv", "distort.report", "write_csv", None, []),
    ("report.canonical_json", "distort.report", "canonical_json", None, []),
]
CALLS = ("cn.march", "tree.phi_at_node")
# work counted per busy second: the layer's count over its self time
RATES = {"cn.march": "node_steps", "dynamics.simulate_q_dynamics": "path_steps",
         "density.bridge_density_mc": "path_steps"}

# every per-layer metric of the traced run, with its unit
METRICS = []
for _layer, _mod, _attr, _counter, _keys in LAYERS:
    METRICS.append((f"{_layer}.self_s", "s"))
    if _layer in CALLS:
        METRICS.append((f"{_layer}.calls", "count"))
    METRICS += [(f"{_layer}.{k}", "count") for k in _keys]
    if _layer in RATES:
        METRICS.append((f"{_layer}.{RATES[_layer]}_per_s", "1/s"))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, layer, fn, counter):
        sig = inspect.signature(fn)
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts
        clock = time.perf_counter

        # wraps() keeps the signature visible to inspect, which the checks read
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                calls[layer] += 1
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, val in counter(bound.arguments, result, exc).items():
                        counts[f"{layer}.{key}"] += val

        return traced

    def install(self):
        for _layer, mod_name, _attr, _counter, _keys in LAYERS:
            importlib.import_module(mod_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "distort" or name.startswith("distort."))]
        for layer, mod_name, attr, counter, _keys in LAYERS:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, counter)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def reset(self):
        """Forget the spans and counts recorded so far (the round boundary)."""
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def self_times(self):
        """Self time per layer: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def metrics(self):
        """Every per-layer metric for the spans and counts recorded so far."""
        selfs = self.self_times()
        values = {}
        for metric, _unit in METRICS:
            layer, key = metric.rsplit(".", 1)
            if key == "self_s":
                values[metric] = selfs.get(layer, 0.0)
            elif key == "calls":
                values[metric] = self.calls.get(layer, 0)
            elif key.endswith("_per_s"):
                busy = selfs.get(layer, 0.0)
                work = self.counts.get(f"{layer}.{key[:-len('_per_s')]}", 0)
                values[metric] = work / busy if busy > 0.0 else 0.0
            else:
                values[metric] = self.counts.get(metric, 0)
        return values


def median_metrics(per_round):
    """Median of each metric over the rounds of a run."""
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
