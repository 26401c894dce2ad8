"""Every name a module of the package imports is used in that module.

The package's __init__.py is exempt: its imports are the public re-exports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "distort"
MODULES = sorted(p.name for p in PKG.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    src = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(src) == ["b", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PKG / module).read_text()) == []


# modules that importing the package, or its command-line module, must
# leave unloaded: no module needs numerical integration; build_phi_curve,
# the only user of CubicSpline, imports scipy.interpolate when it is called,
# and validate_params imports jsonschema when a config is validated
UNLOADED = ["scipy.integrate", "scipy.interpolate", "jsonschema"]


def _listed_modules_loaded_by(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG.parent), env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print([m for m in {UNLOADED!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_importing_the_package_leaves_the_listed_modules_unloaded():
    assert _listed_modules_loaded_by("distort") == "[]"


def test_importing_the_command_line_leaves_the_listed_modules_unloaded():
    assert _listed_modules_loaded_by("distort.cli") == "[]"
