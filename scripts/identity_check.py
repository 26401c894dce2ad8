"""Run the CLI of two source trees on the same inputs and compare what they write.

Run:  python scripts/identity_check.py BASE CHANGE [--config F ...] [--preset COMMAND:NAME ...]

BASE and CHANGE are checkouts of this repository (for instance a
`git archive` of the parent commit and the working tree).  Every preset of
the tree, dynamics and density commands of either tree, or only the
--preset ones when given, and each config file F runs once with each
tree's src/ on PYTHONPATH, into a fresh output directory per tree.  With
neither --config nor --preset, the configs are the ones committed in
scripts/identity_configs/, which exercise what no preset does: Euler paths
that leave the drift grid, a convergence study, a non-strict tree with
interleaving violations, and a binary density with bridges.  The command
of F is read off its keys: a "tree" block makes a tree config, a
"distortion" block a dynamics config, and anything else a density config.

Two runs agree when their exit codes are equal, their standard output is
equal once the output directory is written as OUT, and every file they
write is equal byte for byte, except meta.json (wall clock and invocation
details, kept out of the canonical report).  Prints one line per run and
exits 1 naming every run and file that differs, 0 when none does.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("tree", "dynamics", "density")
COMMITTED_CONFIGS = sorted((Path(__file__).resolve().parent / "identity_configs").glob("*.json"))
UNCOMPARED = {"meta.json"}


def differing_files(dir_a, dir_b):
    """Relative paths of the files under either directory, meta.json
    excepted, that are missing on one side or differ in any byte."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = set()
    for root in (dir_a, dir_b):
        names.update(str(p.relative_to(root)) for p in root.rglob("*")
                     if p.is_file() and p.name not in UNCOMPARED)
    return sorted(
        name for name in names
        if not ((dir_a / name).is_file() and (dir_b / name).is_file()
                and filecmp.cmp(dir_a / name, dir_b / name, shallow=False))
    )


def config_command(path):
    keys = json.loads(Path(path).read_text(encoding="utf-8"))
    return "tree" if "tree" in keys else "dynamics" if "distortion" in keys else "density"


def _env(tree):
    return dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))


def preset_names(tree):
    """{command: [preset names]} of the tree."""
    code = ("import json; from distort.presets import PRESETS; "
            "print(json.dumps({c: sorted(p) for c, p in PRESETS.items()}))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def run_cli(tree, argv, out):
    """(exit code, stdout with out written as OUT) of `distort argv --out out`."""
    res = subprocess.run([sys.executable, "-m", "distort", *argv, "--out", str(out)],
                         env=_env(tree), capture_output=True, text=True)
    return res.returncode, res.stdout.replace(str(out), "OUT")


def planned_runs(base, change, configs, presets):
    """(label, argv) of every run: the presets, then the configs."""
    if presets:
        chosen = [p.split(":", 1) for p in presets]
    else:
        names = [preset_names(base), preset_names(change)]
        chosen = [(c, n) for c in COMMANDS
                  for n in sorted(set().union(*(table.get(c, []) for table in names)))]
    runs = [(f"{c}-{n}", [c, "--preset", n]) for c, n in chosen]
    for i, f in enumerate(configs):
        c = config_command(f)
        runs.append((f"{c}-config{i}-{Path(f).stem}", [c, "--config", f]))
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="checkout whose src/ gives the reference outputs")
    ap.add_argument("change", help="checkout whose src/ is checked against it")
    ap.add_argument("--config", action="append", default=[],
                    help="config file to run too (default: the committed identity configs, "
                         "unless --preset is given)")
    ap.add_argument("--preset", action="append", default=[],
                    help="COMMAND:NAME, run only these presets (default: every preset)")
    args = ap.parse_args(argv)
    configs = args.config or ([] if args.preset else [str(f) for f in COMMITTED_CONFIGS])
    failures = []
    with tempfile.TemporaryDirectory(prefix="identity-") as work:
        for label, run in planned_runs(args.base, args.change, configs, args.preset):
            out_a, out_b = Path(work, "base", label), Path(work, "change", label)
            code_a, text_a = run_cli(args.base, run, out_a)
            code_b, text_b = run_cli(args.change, run, out_b)
            diffs = []
            if code_a != code_b:
                diffs.append(f"exit code {code_a} != {code_b}")
            if text_a != text_b:
                diffs.append("stdout")
            for out in (out_a, out_b):
                out.mkdir(parents=True, exist_ok=True)  # a failed run may write nothing
            diffs += differing_files(out_a, out_b)
            print(f"{label}: exit {code_b}, " + ("identical" if not diffs else
                                                   "differs: " + ", ".join(diffs)))
            failures += [f"{label}: {d}" for d in diffs]
    if failures:
        print(f"{len(failures)} differences:\n  " + "\n  ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
