"""The engine computes exactly: no float literal, no float() call and no
math or cmath import anywhere in the package source."""

import ast
from pathlib import Path

import toroidal

SOURCES = sorted(Path(toroidal.__file__).parent.glob("*.py"))
INEXACT_MODULES = {"math", "cmath"}


def inexact_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, f"import {a.name}") for a in node.names
                         if a.name.split(".")[0] in INEXACT_MODULES)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in INEXACT_MODULES):
            found.append((node.lineno, f"from {node.module} import"))
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_floats_in_the_package():
    offenders = [f"{path.name}:{line}: {what}" for path in SOURCES
                 for line, what in inexact_uses(ast.parse(path.read_text()))]
    assert not offenders, offenders


def test_guard_flags_each_pattern():
    bad = "import math\nfrom cmath import sqrt\nx = 0.5\ny = float(3)\nz = 2j\n"
    assert sorted(inexact_uses(ast.parse(bad))) == [
        (1, "import math"), (2, "from cmath import"), (3, "float literal"),
        (4, "float() call"), (5, "complex literal")]
