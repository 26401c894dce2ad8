"""Every definition in the package is reached by a program or exported.

A top-level function or class of src/distort/*.py, or a non-dunder method of
such a class, passes when its name is read somewhere in the package (outside
__init__.py), in scripts/ or in bench/ (as a name, an attribute or a string,
the benchmark wraps functions by their string names), when it is listed in
distort.__all__, or when KEPT names it with a reason.  Whatever else only
tests call is surface nothing runs."""

import ast
from pathlib import Path

import distort

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "distort"

KEPT = {
    "DiscreteRV.scaled": "the merged law behind the homogeneity property test and its 5e-324 example",
    "field_from_binary": "the reader of the field.bin the density command writes (see README)",
}


def definitions(source):
    """Top-level functions and classes, and the non-dunder methods of those
    classes as "Class.method"."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(
                f"{node.name}.{item.name}" for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not (item.name.startswith("__") and item.name.endswith("__"))
            )
    return out


def names_read(source):
    """Names, attributes and identifier-like string parts an expression reads."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(part for part in node.value.split(".") if part.isidentifier())
    return used


def unreached(defined, used, exported, kept):
    """Definitions whose last name part is neither read, exported nor kept."""
    return sorted(
        d for d in defined
        if d.split(".")[-1] not in used and d not in exported and d not in kept
    )


def program_sources():
    files = [p for p in PKG.glob("*.py") if p.name != "__init__.py"]
    files += list((ROOT / "scripts").glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    return [p.read_text() for p in files]


def test_checker_flags_an_unreferenced_definition():
    src = (
        "def used():\n    pass\n"
        "def orphan():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        pass\n"
        "    def open(self):\n        return used()\n"
        "    def spare(self):\n        pass\n"
        "def exported():\n    pass\n"
    )
    caller = "Box().open()\nlayer = 'mod.traced'\n"
    defined = definitions(src) + ["traced"]
    used = names_read(src) | names_read(caller)
    assert unreached(defined, used, {"exported"}, {}) == ["Box.spare", "orphan"]
    assert unreached(defined, used, {"exported"}, {"orphan": "r"}) == ["Box.spare"]


def test_every_definition_is_reached():
    used = set()
    for text in program_sources():
        used |= names_read(text)
    defined = []
    for path in sorted(PKG.glob("*.py")):
        defined += definitions(path.read_text())
    assert unreached(defined, used, set(distort.__all__), KEPT) == []


def test_kept_names_are_otherwise_unreached():
    used = set()
    for text in program_sources():
        used |= names_read(text)
    assert unreached(list(KEPT), used, set(distort.__all__), {}) == sorted(KEPT)
