"""Benchmark of the distort library: three single-process workloads.

    python3 bench/run.py --workload {phi_curve,mc_crosscheck,lattice} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The process warms every layer with a reduced-size round,
then repeats whole rounds of the workload while another round still fits in
``--seconds`` (at least one), checks every round's outputs against
independent references, and prints one JSON object as the last line of its
standard output.  With ``--trace 0`` it reports the end-to-end metrics
(``wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it wraps the
library's layers in spans and reports the per-layer metrics instead, and
writes the spans to ``bench-out/``.  See bench/README.md.
"""

import os

# one BLAS / OpenMP thread, set before numpy is first imported: the reference
# machine has two cores shared with other work
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench-out"
WORKLOAD_NAMES = ("phi_curve", "mc_crosscheck", "lattice")
# set-up is repeated in this many fresh interpreters and reported as the median
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and warm up only, then print the monotonic clock")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        ap.error("--seed must be nonnegative and --seconds positive")
    return args


def import_library():
    """Import distort from this checkout's src/, refusing any other copy."""
    if not (SRC / "distort" / "__init__.py").is_file():
        raise SystemExit(f"bench: no distort sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import distort

    if Path(distort.__file__).resolve().parent != SRC / "distort":
        raise SystemExit(f"bench: imported distort from {distort.__file__}, not {SRC}")
    import workloads

    return workloads


def warm_up(workloads, name, seed):
    """One reduced-size round: every layer the workload uses runs once."""
    wl = workloads.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    wl.run(wl.inputs(seed, small=True), OUT)


def setup_samples(args):
    """Wall time from launching a fresh interpreter to the end of its warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(lines[-1]) - t0)
    return out


def main(argv=None):
    args = parse_args(argv)
    workloads = import_library()
    if args.setup_probe:
        warm_up(workloads, args.workload, args.seed)
        print(time.monotonic())
        return 0

    setups = [] if args.trace else setup_samples(args)
    warm_up(workloads, args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    attempted = failed = 0
    problems = []
    round_times = []
    per_round = []
    spans = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = wl.run(inp, OUT)
        round_times.append(time.perf_counter() - t0)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += wl.check(inp, outcome.obs)
        if tracer is not None:
            per_round.append(tracer.metrics())
            spans.append(list(tracer.spans))
            tracer.reset()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_times) > args.seconds:
            break

    if tracer is not None:
        tracer.uninstall()
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": spans}, fh)
        medians = tracing.median_metrics(per_round)
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in tracing.METRICS}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    for line in dict.fromkeys(problems):
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(round_times)} rounds of "
          + ", ".join(f"{t:.3f}" for t in round_times) + " s; set-up samples "
          + ", ".join(f"{t:.3f}" for t in setups) + " s", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
