"""Smoke runs of the scripts in scripts/, each in a fresh interpreter with
PYTHONPATH=src, as their docstrings say to run them."""

import functools
import importlib.util
import json
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


@functools.lru_cache(maxsize=None)
def run_script(argv):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, str(Path("scripts") / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


@pytest.mark.parametrize("argv, row, min_rows", SCRIPTS, ids=[s[0][0] for s in SCRIPTS])
def test_script_exits_0_with_a_table(argv, row, min_rows):
    r = run_script(tuple(argv))
    assert r.returncode == 0, r.stderr
    rows = [line for line in r.stdout.splitlines() if re.match(row, line)]
    assert len(rows) >= min_rows, r.stdout


def test_convergence_table_fits_no_order_to_errors_that_grow():
    # at N = 16, 64 both Wang(0.5) errors grow with N and the Power(2) errors fall
    out = run_script(tuple(SCRIPTS[0][0])).stdout
    orders = re.findall(r"^  fitted order: (.*)$", out, flags=re.M)
    assert orders[:2] == ["none, the errors do not strictly decrease with N"] * 2, out
    assert float(orders[2]) > 0.0, out


def _identity_check():
    spec = importlib.util.spec_from_file_location(
        "identity_check", ROOT / "scripts" / "identity_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_check_names_the_files_that_differ(tmp_path):
    check = _identity_check()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "report.json").write_bytes(b'{"x": 1}\n')
        (root / "sub" / "t.csv").write_bytes(b"1,2\n")
        (root / "meta.json").write_text(str(root))  # differs, and is not compared
    assert check.differing_files(a, b) == []
    (b / "sub" / "t.csv").write_bytes(b"1,3\n")
    (a / "only.csv").write_bytes(b"")
    assert check.differing_files(a, b) == ["only.csv", "sub/t.csv"]


def test_identity_check_reads_the_command_off_a_config(tmp_path):
    check = _identity_check()
    for command, keys in (("tree", {"distortion": {}, "tree": {}}),
                          ("dynamics", {"distortion": {}, "model": {}}),
                          ("density", {"model": {}})):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(keys))
        assert check.config_command(path) == command


def test_identity_check_of_a_tree_against_itself_exits_0():
    r = run_script(("identity_check.py", str(ROOT), str(ROOT), "--preset", "tree:example3_3"))
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.splitlines() == ["tree-example3_3: exit 0, identical"]


def test_committed_identity_configs_validate_and_cover_every_block():
    """identity_check runs the committed configs by default; each is a
    valid config of its command, and together they set every top-level key
    of the three schemas."""
    from distort.config import SCHEMAS, validate_params

    check = _identity_check()
    seen = {command: set() for command in SCHEMAS}
    for path in check.COMMITTED_CONFIGS:
        command = check.config_command(path)
        params = json.loads(path.read_text(encoding="utf-8"))
        validate_params(command, params)
        seen[command] |= set(params)
    assert seen == {command: set(schema["properties"]) for command, schema in SCHEMAS.items()}
