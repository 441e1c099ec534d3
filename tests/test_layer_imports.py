"""Each module of the package imports only layers it calls.

Read from the source with `ast`, so nothing is imported to check it.  An
edge from one module of `src/toroidal` to another must carry a name the
importing module uses outside annotations (which `from __future__ import
annotations` leaves unevaluated), and the layers below the lift do not
import it: principalization imports nothing from `lift`, and the
document codecs import neither `lift` nor `principalize`.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "toroidal"
MODULES = sorted(path.stem for path in SOURCE.glob("*.py") if path.stem != "__init__")

# module -> the sibling modules it must not import
FORBIDDEN = {"principalize": {"lift"}, "documents": {"lift", "principalize"}}


def imports(module: str) -> dict[str, set[str]]:
    """Each sibling module `module` imports, anywhere in its source, with
    the names it binds from it."""
    edges: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SOURCE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                for alias in node.names:
                    edges.setdefault(alias.name, set()).add(alias.asname or alias.name)
            elif node.level == 1 or (node.module or "").startswith("toroidal."):
                name = node.module.removeprefix("toroidal.")
                edges.setdefault(name.split(".")[0], set()).update(
                    alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("toroidal."):
                    edges.setdefault(alias.name.split(".")[1], set()).add(
                        alias.asname or alias.name.split(".")[0])
    return edges


def names_called(module: str) -> set[str]:
    """The names `module` reads outside annotations."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    annotations = set()
    for node in ast.walk(tree):
        found = [node.annotation] if isinstance(node, (ast.AnnAssign, ast.arg)) else []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(node.returns)
        for annotation in filter(None, found):
            annotations.update(map(id, ast.walk(annotation)))
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and id(node) not in annotations}


def test_every_module_is_read():
    assert {"principalize", "documents", "lift", "pipeline"} <= set(MODULES)
    assert "lift" in imports("pipeline") and "principalize" in imports("pipeline")


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_layer_imports_no_layer_above(module):
    assert not imports(module).keys() & FORBIDDEN[module]


@pytest.mark.parametrize("module", MODULES)
def test_each_import_edge_is_called(module):
    used = names_called(module)
    unused = {sibling: names for sibling, names in imports(module).items()
              if not names & used}
    assert not unused, f"{module} imports {unused} only for annotations or not at all"
