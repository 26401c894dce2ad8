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


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    """No module of the package needs numerical integration from scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PKG.parent), env.get("PYTHONPATH")]))
    code = "import sys, distort; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
