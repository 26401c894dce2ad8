"""Smoke runs of the scripts in scripts/, each in a fresh interpreter with
PYTHONPATH=src, as their docstrings say to run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (command line, pattern of one table row, rows expected at least)
SCRIPTS = [
    (["convergence_table.py", "--n", "16", "64"], r"^\s+N=\s+\d+\s+error=\S+$", 6),
    (["tree_demo.py"], r"^\s*\S[^:]*:\s+[-+0-9.e]+$", 8),
    (["wang_phi_study.py"], r"^\s+[0-9.e-]+\s+[0-9.e+-]+\s+[0-9.e+-]+$", 5),
]


@pytest.mark.parametrize("argv, row, min_rows", SCRIPTS, ids=[s[0][0] for s in SCRIPTS])
def test_script_exits_0_with_a_table(argv, row, min_rows):
    env = dict(os.environ, PYTHONPATH="src")
    r = subprocess.run(
        [sys.executable, str(Path("scripts") / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    rows = [line for line in r.stdout.splitlines() if re.match(row, line)]
    assert len(rows) >= min_rows, r.stdout
